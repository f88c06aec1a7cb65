//! The RoCC command interface (Sections 4.1, 4.4.1, 4.5.2).
//!
//! The BOOM core dispatches custom RISC-V instructions to the accelerator
//! with low latency. The modeled command set:
//!
//! | command | operands | effect |
//! |---|---|---|
//! | `deser_assign_arena` | base, len | hand an accelerator arena to the deserializer |
//! | `do_proto_deser` | ADT ptr, input ptr, len, dest object ptr, min field | deserialize one message |
//! | `ser_assign_arena` | out base, len (+ pointer-buffer region) | hand output + pointer-buffer regions to the serializer |
//! | `do_proto_ser` | ADT ptr, object ptr, hasbits offset, min field, max field | serialize one message |
//!
//! In hardware each command is an `*_info` instruction followed by a
//! `do_proto_*` instruction, because one RoCC instruction carries only two
//! 64-bit register operands, and software fences with
//! `block_for_*_completion` before reading the result. The model takes
//! each command as one call that returns its run, cycles included; the
//! split and the fence charged no cycles, so nothing is lost. The
//! software-supplied hasbits offset and field-number bounds duplicate ADT
//! header words, and a command whose operands disagree with its ADT is
//! refused with [`AccelError::OperandMismatch`] before any timed access.

use protoacc_mem::Memory;
use protoacc_runtime::adt::header;
use protoacc_runtime::BumpArena;

use crate::deser::{DeserRun, DeserUnit};
use crate::ops::{OpsRun, OpsUnit};
use crate::ser::memwriter::ReverseWriter;
use crate::ser::{SerRun, SerUnit};
use crate::{AccelConfig, AccelError, AccelStats};

/// Bytes per slot in the serialized-output pointer buffer: a pointer and a
/// length.
const PTR_SLOT_BYTES: u64 = 16;

/// Checks one software-supplied operand against the ADT header word it
/// duplicates.
fn check_operand(operand: &'static str, supplied: u64, adt: u64) -> Result<(), AccelError> {
    if supplied == adt {
        Ok(())
    } else {
        Err(AccelError::OperandMismatch {
            operand,
            supplied,
            adt,
        })
    }
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
    stats: AccelStats,
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
            stats: AccelStats::default(),
            config,
        }
    }

    /// The configuration this accelerator was built with.
    pub fn config(&self) -> &AccelConfig {
        &self.config
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

    /// `do_proto_deser`: deserializes `input_len` wire bytes at
    /// `input_addr` into `dest_obj`, an object of the type whose ADT is at
    /// `adt_ptr`. `min_field` must equal the ADT header's.
    ///
    /// # Errors
    ///
    /// [`AccelError::ArenaNotAssigned`] without a deserializer arena,
    /// [`AccelError::OperandMismatch`] when `min_field` disagrees with the
    /// ADT (no state changes), or any wire/arena failure from the unit.
    pub fn do_proto_deser(
        &mut self,
        mem: &mut Memory,
        adt_ptr: u64,
        input_addr: u64,
        input_len: u64,
        dest_obj: u64,
        min_field: u32,
    ) -> Result<DeserRun, AccelError> {
        let arena = self
            .deser_arena
            .as_mut()
            .ok_or(AccelError::ArenaNotAssigned {
                unit: "deserializer",
            })?;
        check_operand(
            "min_field",
            min_field.into(),
            mem.data.read_u32(adt_ptr + header::MIN_FIELD).into(),
        )?;
        let run = self.deser_unit.run(
            mem,
            arena,
            adt_ptr,
            dest_obj,
            input_addr,
            input_len,
            &mut self.stats,
        )?;
        self.stats.deser_ops += 1;
        self.stats.deser_cycles += run.cycles;
        self.stats.deser_wire_bytes += run.wire_bytes;
        // Audit anchor: the DeserOp span duration is exactly the quantity
        // added to `stats.deser_cycles` above, so traced spans must sum to
        // the reported total.
        mem.system
            .trace(|instance, start| protoacc_trace::TraceEvent::DeserOp {
                instance,
                start,
                cycles: run.cycles,
                fsm_cycles: run.fsm_cycles,
                stream_cycles: run.stream_cycles,
                wire_bytes: run.wire_bytes,
                fields: run.fields,
            });
        Ok(run)
    }

    /// `do_proto_ser`: serializes the object at `obj_ptr` whose type's ADT
    /// is at `adt_ptr`. `hasbits_offset`, `min_field` and `max_field` must
    /// equal the ADT header's. The output lands in the assigned output
    /// region; a pointer/length pair is appended to the pointer buffer.
    ///
    /// # Errors
    ///
    /// [`AccelError::ArenaNotAssigned`] without a serializer region,
    /// [`AccelError::OperandMismatch`] naming the first operand that
    /// disagrees with the ADT (no state changes), output overflow, or
    /// malformed object state.
    pub fn do_proto_ser(
        &mut self,
        mem: &mut Memory,
        adt_ptr: u64,
        obj_ptr: u64,
        hasbits_offset: u64,
        min_field: u32,
        max_field: u32,
    ) -> Result<SerRun, AccelError> {
        let writer = self
            .ser_writer
            .as_mut()
            .ok_or(AccelError::ArenaNotAssigned { unit: "serializer" })?;
        let adt = &mem.data;
        check_operand(
            "hasbits_offset",
            hasbits_offset,
            adt.read_u64(adt_ptr + header::HASBITS_OFFSET),
        )?;
        check_operand(
            "min_field",
            min_field.into(),
            adt.read_u32(adt_ptr + header::MIN_FIELD).into(),
        )?;
        check_operand(
            "max_field",
            max_field.into(),
            adt.read_u32(adt_ptr + header::MAX_FIELD).into(),
        )?;
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
        // Audit anchor: span duration == the quantity added to
        // `stats.ser_cycles` above.
        mem.system
            .trace(|instance, start| protoacc_trace::TraceEvent::SerOp {
                instance,
                start,
                cycles: run.cycles,
                frontend_cycles: run.frontend_cycles,
                fsu_cycles: run.fsu_cycles,
                memwriter_cycles: run.memwriter_cycles,
                out_len: run.out_len,
                fields: run.fields,
            });
        Ok(run)
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
        self.ops_unit
            .merge(mem, arena, adt_ptr, dst_obj, src_obj, &mut self.stats)
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
        self.ops_unit.clear(mem, adt_ptr, obj, &mut self.stats)
    }

    /// Drops unit-internal cached state (between benchmark phases).
    pub fn reset_caches(&mut self) {
        self.deser_unit.reset_caches();
        self.ser_unit.reset_caches();
        self.ops_unit.reset_caches();
    }
}
