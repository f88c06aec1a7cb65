//! The RoCC command interface (Sections 4.1, 4.4.1, 4.5.2).
//!
//! The BOOM core dispatches custom RISC-V instructions to the accelerator
//! with low latency; each can carry two 64-bit register operands. The
//! modeled instruction set:
//!
//! | instruction | operands | effect |
//! |---|---|---|
//! | `deser_assign_arena` | base, len | hand an accelerator arena to the deserializer |
//! | `deser_info` | ADT ptr, dest object ptr | stage the next deserialization |
//! | `do_proto_deser` | input ptr, (len, min field) | kick off a deserialization |
//! | `block_for_deser_completion` | — | fence until all in-flight deserializations retire |
//! | `ser_assign_arena` | out base, len (+ pointer-buffer region) | hand output + pointer-buffer regions to the serializer |
//! | `ser_info` | hasbits offset, (min, max field) | stage the next serialization |
//! | `do_proto_ser` | ADT ptr, object ptr | kick off a serialization |
//! | `block_for_ser_completion` | — | fence until all in-flight serializations retire |
//!
//! Between a user program touching a protobuf and the accelerator operating
//! on it, only a fence is needed (the accelerator is coherent through the
//! shared L2).

use protoacc_mem::{Cycles, Memory};
use protoacc_runtime::BumpArena;

use crate::deser::{DeserRun, DeserUnit};
use crate::ops::{OpsRun, OpsUnit};
use crate::ser::memwriter::ReverseWriter;
use crate::ser::{SerRun, SerUnit};
use crate::{AccelConfig, AccelError, AccelStats};

/// Bytes per slot in the serialized-output pointer buffer: a pointer and a
/// length.
const PTR_SLOT_BYTES: u64 = 16;

#[derive(Debug, Clone, Copy)]
struct DeserInfo {
    adt_ptr: u64,
    dest_obj: u64,
}

#[derive(Debug, Clone, Copy)]
#[allow(dead_code)] // staged per the paper's ABI; the unit re-derives the
                    // same facts from the ADT header when recursing into
                    // sub-message types
struct SerInfo {
    hasbits_offset: u64,
    min_field: u32,
    max_field: u32,
}

/// The protobuf accelerator: deserializer and serializer units behind the
/// RoCC interface.
#[derive(Debug)]
pub struct ProtoAccelerator {
    config: AccelConfig,
    deser_unit: DeserUnit,
    ser_unit: SerUnit,
    ops_unit: OpsUnit,
    deser_arena: Option<BumpArena>,
    ser_writer: Option<ReverseWriter>,
    ptr_buf: Option<(u64, u64)>,
    ptr_count: u64,
    staged_deser: Option<DeserInfo>,
    staged_ser: Option<SerInfo>,
    pending_deser_cycles: Cycles,
    pending_ser_cycles: Cycles,
    pending_ops_cycles: Cycles,
    stats: AccelStats,
    tracer: Option<protoacc_trace::SharedTracer>,
    trace_instance: usize,
    trace_origin: Cycles,
}

impl ProtoAccelerator {
    /// Creates an accelerator with no arenas assigned.
    pub fn new(config: AccelConfig) -> Self {
        ProtoAccelerator {
            deser_unit: DeserUnit::new(config),
            ser_unit: SerUnit::new(config),
            ops_unit: OpsUnit::new(config),
            deser_arena: None,
            ser_writer: None,
            ptr_buf: None,
            ptr_count: 0,
            staged_deser: None,
            staged_ser: None,
            pending_deser_cycles: 0,
            pending_ser_cycles: 0,
            pending_ops_cycles: 0,
            stats: AccelStats::default(),
            tracer: None,
            trace_instance: 0,
            trace_origin: 0,
            config,
        }
    }

    /// The configuration this accelerator was built with.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Attaches (or detaches, with `None`) a structured-event tracer to both
    /// units. Tracing is a pure observer and never perturbs cycle totals.
    pub fn set_tracer(&mut self, tracer: Option<protoacc_trace::SharedTracer>) {
        self.deser_unit.set_tracer(tracer.clone());
        self.ser_unit.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Sets the instance id stamped onto this accelerator's trace events.
    pub fn set_trace_instance(&mut self, instance: usize) {
        self.deser_unit.set_trace_instance(instance);
        self.ser_unit.set_trace_instance(instance);
        self.trace_instance = instance;
    }

    /// Sets the cluster-cycle origin for unit-relative trace timestamps
    /// (typically the dispatch cycle of the request being served).
    pub fn set_trace_origin(&mut self, origin: Cycles) {
        self.deser_unit.set_trace_origin(origin);
        self.ser_unit.set_trace_origin(origin);
        self.trace_origin = origin;
    }

    fn emit(&self, event: protoacc_trace::TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().record(event);
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AccelStats {
        let mut stats = self.stats;
        stats.adt_misses = self.deser_unit.adt_misses() + self.ser_unit.adt_misses();
        stats
    }

    /// `deser_assign_arena`: hands the deserializer an accelerator arena
    /// (Section 4.3).
    pub fn deser_assign_arena(&mut self, base: u64, len: u64) {
        self.deser_arena = Some(BumpArena::new(base, len));
    }

    /// Remaining capacity of the deserializer arena, if assigned.
    pub fn deser_arena_remaining(&self) -> Option<u64> {
        self.deser_arena
            .as_ref()
            .map(protoacc_runtime::BumpArena::remaining)
    }

    /// Remaining capacity of the serializer output region, if assigned.
    pub fn ser_output_remaining(&self) -> Option<u64> {
        self.ser_writer.as_ref().map(ReverseWriter::remaining)
    }

    /// `ser_assign_arena`: hands the serializer its two regions — an output
    /// buffer (written high-to-low) and a buffer of pointers to each
    /// serialized output (Section 4.5.1).
    pub fn ser_assign_arena(&mut self, out_base: u64, out_len: u64, ptr_base: u64, ptr_len: u64) {
        self.ser_writer = Some(ReverseWriter::new(
            out_base,
            out_len,
            self.config.window_bytes,
        ));
        self.ptr_buf = Some((ptr_base, ptr_len));
        self.ptr_count = 0;
    }

    /// `deser_info`: stages the ADT pointer and destination object for the
    /// next deserialization.
    pub fn deser_info(&mut self, adt_ptr: u64, dest_obj: u64) {
        self.staged_deser = Some(DeserInfo { adt_ptr, dest_obj });
    }

    /// `do_proto_deser`: kicks off a deserialization of `input_len` bytes at
    /// `input_addr`. `min_field` is supplied by software per the paper's ABI
    /// (the ADT header also carries it; they must agree).
    ///
    /// Returns the per-operation run record; cycle totals also accumulate
    /// for [`ProtoAccelerator::block_for_deser_completion`].
    ///
    /// # Errors
    ///
    /// [`AccelError::ArenaNotAssigned`]/[`AccelError::MissingInfo`] on
    /// protocol misuse, or any wire/arena failure from the unit.
    pub fn do_proto_deser(
        &mut self,
        mem: &mut Memory,
        input_addr: u64,
        input_len: u64,
        min_field: u32,
    ) -> Result<DeserRun, AccelError> {
        let info = self.staged_deser.ok_or(AccelError::MissingInfo {
            instruction: "deser_info",
        })?;
        let arena = self
            .deser_arena
            .as_mut()
            .ok_or(AccelError::ArenaNotAssigned {
                unit: "deserializer",
            })?;
        let _ = min_field;
        let run = self.deser_unit.run(
            mem,
            arena,
            info.adt_ptr,
            info.dest_obj,
            input_addr,
            input_len,
            &mut self.stats,
        )?;
        self.stats.deser_ops += 1;
        self.stats.deser_cycles += run.cycles;
        self.stats.deser_wire_bytes += run.wire_bytes;
        self.pending_deser_cycles += run.cycles;
        // Audit anchor: the DeserOp span duration is exactly the quantity
        // added to `stats.deser_cycles` above, so traced spans must sum to
        // the reported total.
        if self.tracer.is_some() {
            self.emit(protoacc_trace::TraceEvent::DeserOp {
                instance: self.trace_instance,
                start: self.trace_origin,
                cycles: run.cycles,
                fsm_cycles: run.fsm_cycles,
                stream_cycles: run.stream_cycles,
                wire_bytes: run.wire_bytes,
                fields: run.fields,
            });
        }
        Ok(run)
    }

    /// `block_for_deser_completion`: retires all in-flight deserializations,
    /// returning the cycles they took since the last fence.
    pub fn block_for_deser_completion(&mut self) -> Cycles {
        std::mem::take(&mut self.pending_deser_cycles)
    }

    /// `ser_info`: stages the hasbits offset and field-number range for the
    /// next serialization.
    pub fn ser_info(&mut self, hasbits_offset: u64, min_field: u32, max_field: u32) {
        self.staged_ser = Some(SerInfo {
            hasbits_offset,
            min_field,
            max_field,
        });
    }

    /// `do_proto_ser`: kicks off serialization of the object at `obj_ptr`
    /// whose type's ADT is at `adt_ptr`. The output lands in the assigned
    /// output region; a pointer/length pair is appended to the pointer
    /// buffer.
    ///
    /// # Errors
    ///
    /// Protocol misuse, output overflow, or malformed object state.
    pub fn do_proto_ser(
        &mut self,
        mem: &mut Memory,
        adt_ptr: u64,
        obj_ptr: u64,
    ) -> Result<SerRun, AccelError> {
        let _info = self.staged_ser.ok_or(AccelError::MissingInfo {
            instruction: "ser_info",
        })?;
        let writer = self
            .ser_writer
            .as_mut()
            .ok_or(AccelError::ArenaNotAssigned { unit: "serializer" })?;
        let run = self
            .ser_unit
            .run(mem, writer, adt_ptr, obj_ptr, &mut self.stats)?;
        // Record the output pointer (Section 4.5.5: the memwriter writes the
        // address of the front of the completed message into the next slot).
        let (ptr_base, ptr_len) = self.ptr_buf.expect("assigned with writer");
        let slot = ptr_base + self.ptr_count * PTR_SLOT_BYTES;
        if slot + PTR_SLOT_BYTES > ptr_base + ptr_len {
            return Err(AccelError::OutputOverflow);
        }
        mem.data.write_u64(slot, run.out_addr);
        mem.data.write_u64(slot + 8, run.out_len);
        self.ptr_count += 1;
        self.stats.ser_ops += 1;
        self.stats.ser_cycles += run.cycles;
        self.stats.ser_wire_bytes += run.out_len;
        self.pending_ser_cycles += run.cycles;
        // Audit anchor: span duration == the quantity added to
        // `stats.ser_cycles` above.
        if self.tracer.is_some() {
            self.emit(protoacc_trace::TraceEvent::SerOp {
                instance: self.trace_instance,
                start: self.trace_origin,
                cycles: run.cycles,
                frontend_cycles: run.frontend_cycles,
                fsu_cycles: run.fsu_cycles,
                memwriter_cycles: run.memwriter_cycles,
                out_len: run.out_len,
                fields: run.fields,
            });
        }
        Ok(run)
    }

    /// `block_for_ser_completion`: retires all in-flight serializations,
    /// returning the cycles they took since the last fence.
    pub fn block_for_ser_completion(&mut self) -> Cycles {
        std::mem::take(&mut self.pending_ser_cycles)
    }

    /// Returns the `n`th serialized output as `(address, length)`, read from
    /// the pointer buffer — the software-visible completion API.
    pub fn serialized_output(&self, mem: &Memory, n: u64) -> Option<(u64, u64)> {
        let (ptr_base, _) = self.ptr_buf?;
        if n >= self.ptr_count {
            return None;
        }
        let slot = ptr_base + n * PTR_SLOT_BYTES;
        Some((mem.data.read_u64(slot), mem.data.read_u64(slot + 8)))
    }

    /// Number of serialized outputs recorded since the arena was assigned.
    pub fn serialized_outputs(&self) -> u64 {
        self.ptr_count
    }

    /// `do_proto_merge` (Section 7 future-work instruction): merges the
    /// object at `src_obj` into `dst_obj`, both of the type whose ADT is at
    /// `adt_ptr`. Allocates from the deserializer arena.
    ///
    /// # Errors
    ///
    /// [`AccelError::ArenaNotAssigned`] without a deserializer arena, or
    /// arena exhaustion.
    pub fn do_proto_merge(
        &mut self,
        mem: &mut Memory,
        adt_ptr: u64,
        dst_obj: u64,
        src_obj: u64,
    ) -> Result<OpsRun, AccelError> {
        let arena = self
            .deser_arena
            .as_mut()
            .ok_or(AccelError::ArenaNotAssigned {
                unit: "deserializer",
            })?;
        let run = self
            .ops_unit
            .merge(mem, arena, adt_ptr, dst_obj, src_obj, &mut self.stats)?;
        self.pending_ops_cycles += run.cycles;
        Ok(run)
    }

    /// `do_proto_copy` (Section 7): replaces `dst_obj` with a deep copy of
    /// `src_obj`.
    ///
    /// # Errors
    ///
    /// As for [`ProtoAccelerator::do_proto_merge`].
    pub fn do_proto_copy(
        &mut self,
        mem: &mut Memory,
        adt_ptr: u64,
        dst_obj: u64,
        src_obj: u64,
    ) -> Result<OpsRun, AccelError> {
        let arena = self
            .deser_arena
            .as_mut()
            .ok_or(AccelError::ArenaNotAssigned {
                unit: "deserializer",
            })?;
        let run = self
            .ops_unit
            .copy(mem, arena, adt_ptr, dst_obj, src_obj, &mut self.stats)?;
        self.stats.copy_ops += 1;
        self.pending_ops_cycles += run.cycles;
        Ok(run)
    }

    /// `do_proto_clear` (Section 7): clears every field of `obj`.
    ///
    /// # Errors
    ///
    /// None currently; the `Result` mirrors the other instructions.
    pub fn do_proto_clear(
        &mut self,
        mem: &mut Memory,
        adt_ptr: u64,
        obj: u64,
    ) -> Result<OpsRun, AccelError> {
        let run = self.ops_unit.clear(mem, adt_ptr, obj, &mut self.stats)?;
        self.pending_ops_cycles += run.cycles;
        Ok(run)
    }

    /// `block_for_ops_completion`: retires all in-flight merge/copy/clear
    /// operations, returning the cycles they took since the last fence.
    pub fn block_for_ops_completion(&mut self) -> Cycles {
        std::mem::take(&mut self.pending_ops_cycles)
    }

    /// Drops unit-internal cached state (between benchmark phases).
    pub fn reset_caches(&mut self) {
        self.deser_unit.reset_caches();
        self.ser_unit.reset_caches();
        self.ops_unit.reset_caches();
    }
}
