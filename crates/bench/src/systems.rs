//! The three evaluated systems and the one measurement loop every
//! simulated machine goes through.

use hyperprotobench::GeneratedBench;
use protoacc::{AccelConfig, ProtoAccelerator};
use protoacc_cpu::{CostTable, SoftwareCodec};
use protoacc_mem::{MemConfig, Memory};
use protoacc_runtime::{object, reference, write_adts, BumpArena, MessageLayouts, MessageValue};
use protoacc_schema::{MessageId, Schema};

/// One of the paper's three evaluated systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Single-core BOOM-based RISC-V SoC at 2 GHz running the software
    /// codec.
    RiscvBoom,
    /// One core of a Xeon E5-2686 v4 running the software codec.
    Xeon,
    /// The BOOM SoC with the protobuf accelerator attached.
    RiscvBoomAccel,
}

impl SystemKind {
    /// All systems, in the paper's legend order.
    pub const ALL: [SystemKind; 3] = [
        SystemKind::RiscvBoom,
        SystemKind::Xeon,
        SystemKind::RiscvBoomAccel,
    ];

    /// The paper's legend label.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::RiscvBoom => "riscv-boom",
            SystemKind::Xeon => "Xeon",
            SystemKind::RiscvBoomAccel => "riscv-boom-accel",
        }
    }
}

/// What a measurement runs on: the software codec under a cost table, or
/// the accelerator under a configuration (on the BOOM SoC's memory system).
#[derive(Debug, Clone)]
pub enum Machine {
    /// The software codec, charged by this machine's cost table.
    Software(Box<CostTable>),
    /// The cycle-level accelerator model.
    Accel(AccelConfig),
}

impl Machine {
    /// Clock frequency used to convert cycles to throughput.
    pub fn freq_ghz(&self) -> f64 {
        match self {
            Machine::Software(cost) => cost.freq_ghz,
            Machine::Accel(config) => config.freq_ghz,
        }
    }
}

impl From<SystemKind> for Machine {
    fn from(system: SystemKind) -> Machine {
        match system {
            SystemKind::RiscvBoom => CostTable::boom().into(),
            SystemKind::Xeon => CostTable::xeon().into(),
            SystemKind::RiscvBoomAccel => AccelConfig::default().into(),
        }
    }
}

impl From<CostTable> for Machine {
    fn from(cost: CostTable) -> Machine {
        Machine::Software(Box::new(cost))
    }
}

impl From<AccelConfig> for Machine {
    fn from(config: AccelConfig) -> Machine {
        Machine::Accel(config)
    }
}

/// Which half of the codec is being measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Wire → objects.
    Deserialize,
    /// Objects → wire.
    Serialize,
}

/// A benchmark workload: a schema plus a population of messages.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (the paper's x-axis label).
    pub name: String,
    /// The schema the messages belong to.
    pub schema: Schema,
    /// Root message type.
    pub type_id: MessageId,
    /// The messages processed per pass.
    pub messages: Vec<MessageValue>,
}

impl From<GeneratedBench> for Workload {
    /// The benchmark's population, named by its label (`bench0`..`bench5`).
    fn from(bench: GeneratedBench) -> Workload {
        Workload {
            name: bench.profile.label(),
            schema: bench.schema,
            type_id: bench.type_id,
            messages: bench.messages,
        }
    }
}

impl Workload {
    /// Total wire bytes one pass over the messages moves.
    pub fn wire_bytes(&self) -> u64 {
        self.messages
            .iter()
            .map(|m| reference::encoded_len(m, &self.schema).expect("workload encodes") as u64)
            .sum()
    }
}

/// Result of measuring one (machine, workload, direction) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Simulated cycles for all timed passes.
    pub cycles: u64,
    /// Wire bytes processed in the timed passes.
    pub wire_bytes: u64,
    /// Throughput in Gbits/s (the paper's y-axis).
    pub gbits: f64,
}

/// Target volume of wire data per measurement; passes repeat until reached.
const TARGET_BYTES: u64 = 2 * 1024 * 1024;
/// Upper bound on total operations, so tiny-message workloads stay fast.
const MAX_OPS: usize = 3000;

/// Measures one cell: runs `workload` on `machine` (a [`SystemKind`], a
/// [`CostTable`] or an [`AccelConfig`]) in `direction`, one warm-up pass
/// plus enough timed passes to process the target volume (the paper's
/// "timed batch of deserializations and serializations ... on a
/// pre-populated set").
pub fn measure(
    machine: impl Into<Machine>,
    workload: &Workload,
    direction: Direction,
) -> Measurement {
    let machine = machine.into();
    let per_pass = workload.wire_bytes();
    let mut passes = (TARGET_BYTES / per_pass.max(1)).clamp(1, 64) as usize;
    if workload.messages.len() * passes > MAX_OPS {
        passes = (MAX_OPS / workload.messages.len().max(1)).max(1);
    }
    let cycles = match &machine {
        Machine::Software(cost) => run_software(cost, workload, direction, passes),
        Machine::Accel(config) => run_accel(config, workload, direction, passes),
    };
    let wire_bytes = per_pass * passes as u64;
    Measurement {
        cycles,
        wire_bytes,
        gbits: if cycles == 0 {
            0.0
        } else {
            wire_bytes as f64 * 8.0 * machine.freq_ghz() / cycles as f64
        },
    }
}

/// Geometric mean of a set of positive values; 0 if empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Geometric mean of [`measure`]'s Gbit/s for `machine` over every
/// workload in `direction`.
pub fn geomean_gbits(
    machine: impl Into<Machine>,
    workloads: &[Workload],
    direction: Direction,
) -> f64 {
    let machine = machine.into();
    let gbits: Vec<f64> = workloads
        .iter()
        .map(|w| measure(machine.clone(), w, direction).gbits)
        .collect();
    geomean(&gbits)
}

/// Guest-memory map used by the harness.
pub mod map {
    /// Staged wire encodings (deserialization inputs).
    pub const INPUT: u64 = 0x2000_0000;
    /// Materialized objects (serialization inputs, deserialization roots).
    pub const OBJECTS: u64 = 0x8000_0000;
    /// Serialized output.
    pub const OUTPUT: u64 = 0x4000_0000;
    /// Deserialization arena for sub-objects and payloads.
    pub const ARENA: u64 = 0x1_0000_0000;
    /// The accelerator serializer's pointer region.
    pub const PTRS: u64 = 0x6000_0000;
    /// Length of each arena region.
    pub const ARENA_LEN: u64 = 1 << 30;
}

/// Runs `pass` once to warm caches and TLBs, then `passes` times, and
/// returns the summed cycles of the timed passes.
fn timed(passes: usize, mut pass: impl FnMut() -> u64) -> u64 {
    pass();
    (0..passes).map(|_| pass()).sum()
}

fn run_software(cost: &CostTable, workload: &Workload, direction: Direction, passes: usize) -> u64 {
    let layouts = MessageLayouts::compute(&workload.schema);
    let mut mem = Memory::new(cost.mem);
    let codec = SoftwareCodec::new(cost);
    let (schema, type_id) = (&workload.schema, workload.type_id);
    match direction {
        Direction::Deserialize => {
            let inputs = stage_inputs(&mut mem, workload);
            let object_size = layouts.layout(type_id).object_size();
            let mut arena = BumpArena::new(map::ARENA, map::ARENA_LEN);
            timed(passes, || {
                let mut cycles = 0;
                for &(addr, len) in &inputs {
                    let dest = arena
                        .alloc(object_size, 8)
                        .expect("bench arena sized for workload");
                    let run = codec
                        .deserialize(
                            &mut mem, schema, &layouts, type_id, addr, len, dest, &mut arena,
                        )
                        .expect("workload deserializes");
                    cycles += run.cycles;
                }
                arena.reset();
                cycles
            })
        }
        Direction::Serialize => {
            let objects = stage_objects(&mut mem, workload, &layouts);
            timed(passes, || {
                let mut cycles = 0;
                let mut out = map::OUTPUT;
                for &obj in &objects {
                    let (run, len) = codec
                        .serialize(&mut mem, schema, &layouts, type_id, obj, out)
                        .expect("workload serializes");
                    cycles += run.cycles;
                    out += len + 64;
                }
                cycles
            })
        }
    }
}

fn run_accel(
    config: &AccelConfig,
    workload: &Workload,
    direction: Direction,
    passes: usize,
) -> u64 {
    let layouts = MessageLayouts::compute(&workload.schema);
    let mut mem = Memory::new(MemConfig::default());
    let mut setup_arena = BumpArena::new(0x1_0000, 1 << 24);
    let adts = write_adts(&workload.schema, &layouts, &mut mem.data, &mut setup_arena)
        .expect("ADTs fit the setup arena");
    let mut accel = ProtoAccelerator::new(*config);
    let layout = layouts.layout(workload.type_id);
    let adt = adts.addr(workload.type_id);
    match direction {
        Direction::Deserialize => {
            let inputs = stage_inputs(&mut mem, workload);
            let mut dest_arena = BumpArena::new(map::OBJECTS, map::ARENA_LEN);
            let dests: Vec<u64> = inputs
                .iter()
                .map(|_| {
                    dest_arena
                        .alloc(layout.object_size(), 8)
                        .expect("dest fits")
                })
                .collect();
            timed(passes, || {
                accel.deser_assign_arena(map::ARENA, map::ARENA_LEN);
                let mut cycles = 0;
                for (&(addr, len), &dest) in inputs.iter().zip(&dests) {
                    let run = accel
                        .do_proto_deser(&mut mem, adt, addr, len, dest, layout.min_field())
                        .expect("workload deserializes on the accelerator");
                    cycles += run.cycles;
                }
                cycles
            })
        }
        Direction::Serialize => {
            let objects = stage_objects(&mut mem, workload, &layouts);
            timed(passes, || {
                accel.ser_assign_arena(map::OUTPUT, map::ARENA_LEN, map::PTRS, 1 << 20);
                let mut cycles = 0;
                for &obj in &objects {
                    let run = accel
                        .do_proto_ser(
                            &mut mem,
                            adt,
                            obj,
                            layout.hasbits_offset(),
                            layout.min_field(),
                            layout.max_field(),
                        )
                        .expect("workload serializes on the accelerator");
                    cycles += run.cycles;
                }
                cycles
            })
        }
    }
}

/// Writes every message's wire encoding into guest memory, returning
/// `(addr, len)` per message.
fn stage_inputs(mem: &mut Memory, workload: &Workload) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(workload.messages.len());
    let mut cursor = map::INPUT;
    for m in &workload.messages {
        let wire = reference::encode(m, &workload.schema).expect("workload encodes");
        mem.data.write_bytes(cursor, &wire);
        out.push((cursor, wire.len() as u64));
        cursor += wire.len() as u64 + 16;
    }
    out
}

/// Materializes every message as an object graph, returning object
/// addresses.
fn stage_objects(mem: &mut Memory, workload: &Workload, layouts: &MessageLayouts) -> Vec<u64> {
    let mut arena = BumpArena::new(map::OBJECTS, map::ARENA_LEN);
    workload
        .messages
        .iter()
        .map(|m| {
            object::write_message(&mut mem.data, &workload.schema, layouts, &mut arena, m)
                .expect("workload materializes")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_runtime::Value;
    use protoacc_schema::{FieldType, SchemaBuilder};

    fn tiny_workload() -> Workload {
        let mut b = SchemaBuilder::new();
        let id = b.define("W", |m| {
            m.optional("a", FieldType::UInt64, 1)
                .optional("s", FieldType::String, 2);
        });
        let schema = b.build().unwrap();
        let messages = (0..8)
            .map(|i| {
                let mut m = MessageValue::new(id);
                m.set(1, Value::UInt64(i * 1000)).unwrap();
                m.set(2, Value::Str(format!("payload-{i}"))).unwrap();
                m
            })
            .collect();
        Workload {
            name: "tiny".into(),
            schema,
            type_id: id,
            messages,
        }
    }

    #[test]
    fn all_three_systems_produce_positive_throughput() {
        let w = tiny_workload();
        for system in SystemKind::ALL {
            for direction in [Direction::Deserialize, Direction::Serialize] {
                let m = measure(system, &w, direction);
                assert!(m.gbits > 0.0, "{} {:?}", system.label(), direction);
                assert!(m.cycles > 0);
                assert_eq!(m.wire_bytes % w.wire_bytes(), 0);
            }
        }
    }

    #[test]
    fn accelerator_beats_both_cpus_on_small_messages() {
        let w = tiny_workload();
        for direction in [Direction::Deserialize, Direction::Serialize] {
            let boom = measure(SystemKind::RiscvBoom, &w, direction).gbits;
            let xeon = measure(SystemKind::Xeon, &w, direction).gbits;
            let accel = measure(SystemKind::RiscvBoomAccel, &w, direction).gbits;
            assert!(
                accel > xeon && xeon > boom,
                "{direction:?}: accel {accel:.2} / xeon {xeon:.2} / boom {boom:.2}"
            );
        }
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn labels_and_frequencies() {
        assert_eq!(SystemKind::RiscvBoom.label(), "riscv-boom");
        assert_eq!(SystemKind::Xeon.label(), "Xeon");
        assert_eq!(SystemKind::RiscvBoomAccel.label(), "riscv-boom-accel");
        assert_eq!(Machine::from(SystemKind::RiscvBoom).freq_ghz(), 2.0);
        assert_eq!(Machine::from(SystemKind::Xeon).freq_ghz(), 2.7);
    }
}
