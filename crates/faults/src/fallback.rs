//! The serve cluster's last degradation rung: the instrumented software
//! codec from `protoacc-cpu` wrapped as a [`protoacc::FallbackCodec`].
//!
//! When every accelerator instance is dead, quarantined, or faulted out,
//! the cluster hands commands here and offered load is still served —
//! slower, serialized on one virtual CPU server, and measured, which is
//! exactly what the degradation experiments want to quantify.

use std::collections::HashMap;

use protoacc::{AccelError, FallbackCodec, RequestOp};
use protoacc_cpu::{CostTable, SoftwareCodec};
use protoacc_mem::{Cycles, Memory};
use protoacc_runtime::{BumpArena, MessageLayouts};
use protoacc_schema::{MessageId, Schema};

/// Cycles charged when a command cannot even be routed to a decode attempt
/// (unknown ADT pointer): the cost of the dispatch branch that rejects it.
const ROUTE_REJECT_CYCLES: Cycles = 16;

/// Software CPU codec behind the cluster's fallback path.
///
/// Owns everything the CPU reference needs that the accelerator keeps in
/// hardware state: the schema and layouts, the ADT-pointer→type mapping
/// (hardware walks the ADT tables in guest memory; software resolves the
/// root type up front), a bump arena for decoded submessages, and a private
/// output region for serialization.
pub struct SoftwareFallback {
    cost: CostTable,
    schema: Schema,
    layouts: MessageLayouts,
    types: HashMap<u64, MessageId>,
    arena: BumpArena,
    arena_base: u64,
    arena_len: u64,
    out_addr: u64,
}

impl SoftwareFallback {
    /// Builds a fallback codec over `schema` whose root-type routing is
    /// taken from `adts` (each message type's ADT address, as staged by
    /// [`protoacc_runtime::write_adts`]). `arena` is a `(base, len)` guest
    /// region private to the fallback for decoded submessage storage;
    /// `out_addr` is where serialization output lands. Costs default to the
    /// BOOM table — the paper's baseline RISC-V core.
    pub fn new(
        schema: &Schema,
        layouts: &MessageLayouts,
        adts: &protoacc_runtime::AdtTables,
        arena: (u64, u64),
        out_addr: u64,
    ) -> Self {
        let types = schema.iter().map(|(id, _)| (adts.addr(id), id)).collect();
        SoftwareFallback {
            cost: CostTable::boom(),
            schema: schema.clone(),
            layouts: layouts.clone(),
            types,
            arena: BumpArena::new(arena.0, arena.1),
            arena_base: arena.0,
            arena_len: arena.1,
            out_addr,
        }
    }

    /// Guest region serialization output is written to.
    pub fn out_addr(&self) -> u64 {
        self.out_addr
    }

    fn resolve(&self, adt_ptr: u64) -> Option<MessageId> {
        self.types.get(&adt_ptr).copied()
    }

    /// Recycles the private arena when it runs low, like the accelerator's
    /// own arena re-assignment. Decoded objects from *earlier* fallback
    /// commands are dead by then — the serve layer never re-reads them.
    fn ensure_arena(&mut self, need_hint: u64) {
        let want = need_hint.saturating_mul(4).saturating_add(4096);
        if self.arena.remaining() < want.min(self.arena_len) {
            self.arena.reset();
        }
    }
}

impl FallbackCodec for SoftwareFallback {
    fn execute(&mut self, mem: &mut Memory, op: &RequestOp) -> (Cycles, Result<u64, AccelError>) {
        match *op {
            RequestOp::Deserialize {
                adt_ptr,
                input_addr,
                input_len,
                dest_obj,
                ..
            } => {
                let Some(type_id) = self.resolve(adt_ptr) else {
                    return (
                        ROUTE_REJECT_CYCLES,
                        Err(AccelError::BadAdtEntry { field_number: 0 }),
                    );
                };
                self.ensure_arena(input_len);
                let codec = SoftwareCodec::new(&self.cost);
                let (cycles, verdict) = codec.try_deserialize(
                    mem,
                    &self.schema,
                    &self.layouts,
                    type_id,
                    input_addr,
                    input_len,
                    dest_obj,
                    &mut self.arena,
                );
                let verdict = match verdict {
                    Ok(run) => Ok(run.wire_bytes),
                    Err(e) => Err(AccelError::Runtime(e)),
                };
                (cycles.max(1), verdict)
            }
            RequestOp::Serialize {
                adt_ptr, obj_ptr, ..
            } => {
                let Some(type_id) = self.resolve(adt_ptr) else {
                    return (
                        ROUTE_REJECT_CYCLES,
                        Err(AccelError::BadAdtEntry { field_number: 0 }),
                    );
                };
                let codec = SoftwareCodec::new(&self.cost);
                match codec.serialize(
                    mem,
                    &self.schema,
                    &self.layouts,
                    type_id,
                    obj_ptr,
                    self.out_addr,
                ) {
                    Ok((run, total)) => (run.cycles.max(1), Ok(total)),
                    Err(e) => (ROUTE_REJECT_CYCLES, Err(AccelError::Runtime(e))),
                }
            }
        }
    }
}

// Arena base is kept for debugging / future region reporting.
impl std::fmt::Debug for SoftwareFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoftwareFallback")
            .field("cost", &self.cost.name)
            .field("types", &self.types.len())
            .field("arena_base", &self.arena_base)
            .field("arena_len", &self.arena_len)
            .field("out_addr", &self.out_addr)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_mem::MemConfig;
    use protoacc_runtime::{object, reference, write_adts, MessageValue, Value};
    use protoacc_schema::{FieldType, SchemaBuilder};

    fn tiny_setup() -> (Schema, MessageId, MessageLayouts) {
        let mut b = SchemaBuilder::new();
        let root = b.declare("Root");
        b.message(root)
            .optional("n", FieldType::UInt64, 1)
            .optional("s", FieldType::String, 2);
        let schema = b.build().unwrap();
        let layouts = MessageLayouts::compute(&schema);
        (schema, root, layouts)
    }

    #[test]
    fn fallback_round_trips_a_message() {
        let (schema, root, layouts) = tiny_setup();
        let mut mem = Memory::new(MemConfig::default());
        let mut setup = BumpArena::new(0x1_0000, 1 << 20);
        let adts = write_adts(&schema, &layouts, &mut mem.data, &mut setup).unwrap();

        let mut m = MessageValue::new(root);
        m.set_unchecked(1, Value::UInt64(300));
        m.set_unchecked(2, Value::Str("fallback".into()));
        let wire = reference::encode(&m, &schema).unwrap();
        mem.data.write_bytes(0x20_0000, &wire);
        let dest = setup.alloc(layouts.layout(root).object_size(), 8).unwrap();

        let mut fb =
            SoftwareFallback::new(&schema, &layouts, &adts, (0x100_0000, 1 << 20), 0x200_0000);
        let op = RequestOp::Deserialize {
            adt_ptr: adts.addr(root),
            input_addr: 0x20_0000,
            input_len: wire.len() as u64,
            dest_obj: dest,
            min_field: 1,
        };
        let (cycles, verdict) = fb.execute(&mut mem, &op);
        assert!(cycles > 0);
        assert_eq!(verdict.unwrap(), wire.len() as u64);
        let back = object::read_message(&mem.data, &schema, &layouts, root, dest).unwrap();
        assert!(back.bits_eq(&m));

        // And back out through the serializer.
        let ser = RequestOp::Serialize {
            adt_ptr: adts.addr(root),
            obj_ptr: dest,
            hasbits_offset: layouts.layout(root).hasbits_offset(),
            min_field: 1,
            max_field: 2,
        };
        let (ser_cycles, ser_verdict) = fb.execute(&mut mem, &ser);
        assert!(ser_cycles > 0);
        let total = ser_verdict.unwrap();
        assert_eq!(
            mem.data.read_vec(fb.out_addr(), total as usize),
            wire,
            "fallback serializer must reproduce the reference encoding"
        );
    }

    #[test]
    fn malformed_input_is_a_typed_rejection_with_cycles_charged() {
        let (schema, root, layouts) = tiny_setup();
        let mut mem = Memory::new(MemConfig::default());
        let mut setup = BumpArena::new(0x1_0000, 1 << 20);
        let adts = write_adts(&schema, &layouts, &mut mem.data, &mut setup).unwrap();
        // field 2 (string) declaring 100 bytes, providing 2.
        let bytes = [0x12, 0x64, 0x61, 0x62];
        mem.data.write_bytes(0x20_0000, &bytes);
        let dest = setup.alloc(layouts.layout(root).object_size(), 8).unwrap();
        let mut fb =
            SoftwareFallback::new(&schema, &layouts, &adts, (0x100_0000, 1 << 20), 0x200_0000);
        let op = RequestOp::Deserialize {
            adt_ptr: adts.addr(root),
            input_addr: 0x20_0000,
            input_len: bytes.len() as u64,
            dest_obj: dest,
            min_field: 1,
        };
        let (cycles, verdict) = fb.execute(&mut mem, &op);
        assert!(cycles > 0, "rejection still costs parse work");
        let err = verdict.unwrap_err();
        assert!(matches!(err, AccelError::Runtime(_)), "got {err:?}");
    }

    #[test]
    fn unknown_adt_pointer_is_rejected() {
        let (schema, _, layouts) = tiny_setup();
        let mut mem = Memory::new(MemConfig::default());
        let mut setup = BumpArena::new(0x1_0000, 1 << 20);
        let adts = write_adts(&schema, &layouts, &mut mem.data, &mut setup).unwrap();
        let mut fb =
            SoftwareFallback::new(&schema, &layouts, &adts, (0x100_0000, 1 << 20), 0x200_0000);
        let op = RequestOp::Deserialize {
            adt_ptr: 0xDEAD_BEEF,
            input_addr: 0x20_0000,
            input_len: 4,
            dest_obj: 0x30_0000,
            min_field: 1,
        };
        let (_, verdict) = fb.execute(&mut mem, &op);
        assert!(matches!(
            verdict.unwrap_err(),
            AccelError::BadAdtEntry { .. }
        ));
    }
}
