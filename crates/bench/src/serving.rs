//! The staging rig shared by every serving study.
//!
//! Before the accelerator can run a RoCC command, the host stages three
//! things in guest memory (paper §4.2, §5): the ADTs, the wire inputs, and
//! the C++-layout object graphs. [`Staging::new`] does that for a fleet
//! [`TrafficMix`] under one fixed address plan:
//!
//! | region                          | base            |
//! |---------------------------------|-----------------|
//! | ADTs (+ default instances)      | [`ADT_BASE`]    |
//! | wire inputs, 64-byte gaps       | [`INPUT_BASE`]  |
//! | object graph + destination slot | [`OBJECT_BASE`] |
//! | per-instance accelerator arenas | [`ARENA_BASE`]  |
//!
//! Addresses depend only on the mix, so two stagings of the same mix into
//! fresh memories build identical requests. Each staged prototype carries
//! its ready-made `Deserialize` and `Serialize` ops; [`Staging::requests`]
//! maps a traffic stream onto them. Envelopes and the RPC method table are
//! derived only on request, since the absint pass is the expensive part.

use protoacc::{AccelConfig, Request, RequestOp};
use protoacc_absint::Envelope;
use protoacc_fleet::traffic::{TrafficEvent, TrafficMix};
use protoacc_mem::{MemConfig, Memory};
use protoacc_rpc::Method;
use protoacc_runtime::{object, reference, write_adts, AdtTables, BumpArena, MessageLayouts};

/// Base of the ADT region.
pub const ADT_BASE: u64 = 0x1_0000;
/// Base of the wire-input region.
pub const INPUT_BASE: u64 = 0x2000_0000;
/// Base of the object-graph region.
pub const OBJECT_BASE: u64 = 0x8000_0000;
/// Base of the cluster's per-instance accelerator arenas.
pub const ARENA_BASE: u64 = 0x1_0000_0000;
/// Per-instance slice of the arena region (64 MiB).
pub const ARENA_STRIDE: u64 = 1 << 26;
/// Gap left after each staged wire input.
const INPUT_GAP: u64 = 64;

/// One staged prototype: where its wire input lives and the two commands
/// that serve it.
#[derive(Debug, Clone, Copy)]
pub struct StagedProto {
    /// Guest address of the prototype's reference wire encoding.
    pub input_addr: u64,
    /// Length of that encoding in bytes.
    pub input_len: u64,
    /// Size of one object of the prototype's type.
    pub object_size: u64,
    /// Deserializes the staged input into the prototype's destination slot.
    pub deser: RequestOp,
    /// Serializes the staged object graph.
    pub ser: RequestOp,
}

/// A traffic mix staged into one memory image.
#[derive(Debug)]
pub struct Staging {
    /// Object layouts of the mix's schema.
    pub layouts: MessageLayouts,
    /// ADT addresses (the software fallback maps them back to types).
    pub adts: AdtTables,
    /// Staged prototypes, in mix order.
    pub protos: Vec<StagedProto>,
}

impl Staging {
    /// Writes the ADTs, then per prototype its wire input, object graph and
    /// one destination slot, into `mem`.
    ///
    /// # Panics
    ///
    /// If the mix does not fit the address plan or a prototype does not
    /// encode against its own schema.
    #[must_use]
    pub fn new(mix: &TrafficMix, mem: &mut Memory) -> Self {
        let layouts = MessageLayouts::compute(&mix.schema);
        let mut setup = BumpArena::new(ADT_BASE, INPUT_BASE - ADT_BASE);
        let adts = write_adts(&mix.schema, &layouts, &mut mem.data, &mut setup)
            .expect("ADTs fit below the input region");
        let mut input_addr = INPUT_BASE;
        let mut objects = BumpArena::new(OBJECT_BASE, 1 << 30);
        let protos = mix
            .prototypes
            .iter()
            .map(|p| {
                let wire = reference::encode(&p.message, &mix.schema).expect("prototype encodes");
                let input_len = wire.len() as u64;
                mem.data.write_bytes(input_addr, &wire);
                let obj_ptr = object::write_message(
                    &mut mem.data,
                    &mix.schema,
                    &layouts,
                    &mut objects,
                    &p.message,
                )
                .expect("object graph fits its region");
                let layout = layouts.layout(p.type_id);
                let dest_obj = objects
                    .alloc(layout.object_size(), 8)
                    .expect("destination slot fits its region");
                let adt_ptr = adts.addr(p.type_id);
                let staged = StagedProto {
                    input_addr,
                    input_len,
                    object_size: layout.object_size(),
                    deser: RequestOp::Deserialize {
                        adt_ptr,
                        input_addr,
                        input_len,
                        dest_obj,
                        min_field: layout.min_field(),
                    },
                    ser: RequestOp::Serialize {
                        adt_ptr,
                        obj_ptr,
                        hasbits_offset: layout.hasbits_offset(),
                        min_field: layout.min_field(),
                        max_field: layout.max_field(),
                    },
                };
                input_addr += input_len + INPUT_GAP;
                staged
            })
            .collect();
        Staging {
            layouts,
            adts,
            protos,
        }
    }

    /// One request per event, with no watchdog, deadline or cost.
    #[must_use]
    pub fn requests(&self, events: &[TrafficEvent]) -> Vec<Request> {
        events
            .iter()
            .map(|e| {
                let p = &self.protos[e.prototype];
                Request {
                    arrival: e.arrival,
                    op: if e.deser { p.deser } else { p.ser },
                    watchdog: None,
                    deadline: None,
                    cost: None,
                }
            })
            .collect()
    }

    /// Per-prototype `(deser, ser)` envelopes under the default accelerator
    /// and memory configurations. `mix` must be the mix that was staged.
    #[must_use]
    pub fn envelopes(&self, mix: &TrafficMix) -> Vec<(Envelope, Envelope)> {
        let accel = AccelConfig::default();
        let mem_cfg = MemConfig::default();
        mix.prototypes
            .iter()
            .map(|p| {
                (
                    Envelope::deser(&mix.schema, &self.layouts, p.type_id, &accel, &mem_cfg),
                    Envelope::ser(&mix.schema, &self.layouts, p.type_id, &accel, &mem_cfg),
                )
            })
            .collect()
    }

    /// The RPC method table: one method per prototype, admission costs from
    /// its envelopes. `mix` must be the mix that was staged.
    #[must_use]
    pub fn methods(&self, mix: &TrafficMix) -> Vec<Method> {
        self.protos
            .iter()
            .zip(self.envelopes(mix))
            .map(|(p, (deser_env, ser_env))| {
                Method::from_envelopes(
                    p.deser,
                    p.ser,
                    &deser_env,
                    &ser_env,
                    p.input_len,
                    p.input_len,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::StdRng;

    fn mix() -> TrafficMix {
        TrafficMix::build(&mut StdRng::seed_from_u64(0xF1EE7), 8)
    }

    fn staged(mix: &TrafficMix) -> (Staging, Memory) {
        let mut mem = Memory::new(MemConfig::default());
        let staging = Staging::new(mix, &mut mem);
        (staging, mem)
    }

    /// `(obj_ptr, dest_obj)` of a staged prototype.
    fn objects(p: &StagedProto) -> (u64, u64) {
        match (p.ser, p.deser) {
            (RequestOp::Serialize { obj_ptr, .. }, RequestOp::Deserialize { dest_obj, .. }) => {
                (obj_ptr, dest_obj)
            }
            _ => panic!("ops staged in the wrong slots"),
        }
    }

    #[test]
    fn staged_inputs_hold_the_reference_encoding() {
        let mix = mix();
        let (staging, mem) = staged(&mix);
        assert_eq!(staging.protos.len(), mix.prototypes.len());
        for (p, s) in mix.prototypes.iter().zip(&staging.protos) {
            let wire = reference::encode(&p.message, &mix.schema).unwrap();
            assert_eq!(mem.data.read_vec(s.input_addr, s.input_len as usize), wire);
        }
    }

    #[test]
    fn regions_do_not_overlap() {
        let mix = mix();
        let (staging, _) = staged(&mix);
        assert!(ADT_BASE + staging.adts.total_bytes() <= INPUT_BASE);
        // Inputs ascend with their gap and end below the object region.
        let mut input_floor = INPUT_BASE;
        for s in &staging.protos {
            assert!(s.input_addr >= input_floor);
            input_floor = s.input_addr + s.input_len + INPUT_GAP;
        }
        assert!(input_floor <= OBJECT_BASE);
        // Each prototype's graph starts at its root and ends where its
        // destination slot begins; the next prototype starts past the slot.
        let mut object_floor = OBJECT_BASE;
        for s in &staging.protos {
            let (obj_ptr, dest_obj) = objects(s);
            assert!(obj_ptr >= object_floor);
            assert!(dest_obj >= obj_ptr + s.object_size);
            object_floor = dest_obj + s.object_size;
        }
        assert!(object_floor <= ARENA_BASE);
    }

    #[test]
    fn ops_carry_their_prototypes_table_fields() {
        let mix = mix();
        let (staging, _) = staged(&mix);
        let events: Vec<TrafficEvent> = (0..mix.prototypes.len())
            .flat_map(|prototype| {
                [true, false].map(|deser| TrafficEvent {
                    arrival: prototype as u64,
                    prototype,
                    deser,
                })
            })
            .collect();
        for (e, r) in events.iter().zip(staging.requests(&events)) {
            let p = &mix.prototypes[e.prototype];
            let layout = staging.layouts.layout(p.type_id);
            let adt = staging.adts.addr(p.type_id);
            assert_eq!(r.arrival, e.arrival);
            assert_eq!((r.watchdog, r.deadline, r.cost), (None, None, None));
            match r.op {
                RequestOp::Deserialize {
                    adt_ptr,
                    input_addr,
                    input_len,
                    min_field,
                    ..
                } => {
                    assert!(e.deser);
                    assert_eq!((adt_ptr, min_field), (adt, layout.min_field()));
                    let s = &staging.protos[e.prototype];
                    assert_eq!((input_addr, input_len), (s.input_addr, s.input_len));
                }
                RequestOp::Serialize {
                    adt_ptr,
                    hasbits_offset,
                    min_field,
                    max_field,
                    ..
                } => {
                    assert!(!e.deser);
                    assert_eq!(
                        (adt_ptr, hasbits_offset, min_field, max_field),
                        (
                            adt,
                            layout.hasbits_offset(),
                            layout.min_field(),
                            layout.max_field()
                        )
                    );
                }
            }
        }
    }

    #[test]
    fn staging_twice_gives_identical_ops() {
        let mix = mix();
        let (a, _) = staged(&mix);
        let (b, _) = staged(&mix);
        let events = mix.stream(&mut StdRng::seed_from_u64(0x10AD), 64, 2_000.0);
        assert_eq!(
            format!("{:?}", a.requests(&events)),
            format!("{:?}", b.requests(&events))
        );
    }
}
