//! Pins the simulator's output to constants: a host-speed change to the
//! memory model, the accelerator units or the varint decoder must leave
//! every simulated number exactly where it was.
//!
//! Two fixed, seeded runs are checked:
//!
//! * one four-instance [`ServeCluster`] over an overloaded open-loop
//!   stream on the default hierarchy, with an armed ECC fault, so sharing,
//!   queue drops, retries and the fault path all run;
//! * a four-cell sharded decomposition on LLC slices (a smaller
//!   outstanding-miss budget per cell), run on two workers.
//!
//! For each, the hash of every command record, the merged `AccelStats` and
//! the per-requester memory statistics must equal the constants below.
//! When a change *means* to move a simulated number, re-derive these
//! constants and say why in EXPERIMENTS.md.

use protoacc_suite::accel::{AccelStats, CommandRecord, ServeCluster, ServeConfig, ShardedCluster};
use protoacc_suite::bench::serving::{self, Capture, Staging, ARENA_BASE, ARENA_STRIDE};
use protoacc_suite::fleet::traffic::TrafficMix;
use protoacc_suite::mem::{CacheStats, MemConfig, Memory, RequesterStats};
use protoacc_suite::xrand::StdRng;

const MIX_SEED: u64 = 0xF1EE7;
const STREAM_SEED: u64 = 0x5EED_0022;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Order-sensitive FNV-1a hash of every field of every record.
fn records_hash(records: &[CommandRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in records {
        for v in [
            r.seq as u64,
            r.enqueue,
            r.dispatch,
            r.complete,
            r.service,
            r.instance as u64,
            r.wire_bytes,
            u64::from(r.deser),
            r.sharers as u64,
            u64::from(r.attempts),
        ] {
            fnv(&mut h, &v.to_le_bytes());
        }
        fnv(&mut h, format!("{:?}", r.status).as_bytes());
    }
    h
}

/// Requester statistics in field order: accesses, bytes, cycles, then line
/// probes served by the L1, L2, LLC and DRAM.
fn req(fields: [u64; 7]) -> RequesterStats {
    let [accesses, bytes, cycles, l1_hits, l2_hits, llc_hits, dram_accesses] = fields;
    RequesterStats {
        accesses,
        bytes,
        cycles,
        l1_hits,
        l2_hits,
        llc_hits,
        dram_accesses,
    }
}

fn mix() -> TrafficMix {
    TrafficMix::build(&mut StdRng::seed_from_u64(MIX_SEED), 16)
}

#[test]
fn serve_cluster_output_is_pinned() {
    let mix = mix();
    let mut mem = Memory::new(MemConfig::default());
    let staging = Staging::new(&mix, &mut mem);
    let events = mix.stream(&mut StdRng::seed_from_u64(STREAM_SEED), 400, 80.0);
    let requests = staging.requests(&events);
    // One uncorrectable error inside the first prototype's wire input.
    mem.system.arm_ecc(staging.protos[0].input_addr + 3);
    let cfg = ServeConfig {
        instances: 4,
        queue_depth: 16,
        ..ServeConfig::default()
    };
    let mut cluster = ServeCluster::new(cfg, ARENA_BASE, ARENA_STRIDE);
    cluster
        .run(&mut mem, &requests)
        .expect("serve run succeeds");

    assert_eq!(records_hash(cluster.records()), 0x7b78_d48c_6bd1_41f8);
    assert_eq!(
        (
            cluster.dropped(),
            cluster.retries(),
            cluster.status_counts()
        ),
        (178, 1, (222, 0, 0, 0, 0))
    );
    let mut merged = AccelStats::default();
    for i in 0..cfg.instances {
        merged.merge(&cluster.instance_stats(i));
    }
    assert_eq!(
        merged,
        AccelStats {
            deser_cycles: 108_624,
            ser_cycles: 45_676,
            deser_ops: 162,
            ser_ops: 61,
            deser_wire_bytes: 40_940,
            ser_wire_bytes: 21_819,
            fields: 2_726,
            varints: 4_978,
            allocs: 647,
            adt_misses: 1_667,
            ..AccelStats::default()
        }
    );
    let per_requester: Vec<RequesterStats> = (0..cfg.instances)
        .map(|i| cluster.instance_mem_stats(&mem, i))
        .collect();
    assert_eq!(
        per_requester,
        [
            req([2_469, 42_494, 48_322, 2_530, 65, 0, 352]),
            req([2_583, 47_770, 46_046, 2_719, 80, 0, 336]),
            req([2_624, 46_116, 48_010, 2_728, 81, 0, 346]),
            req([2_257, 44_273, 47_460, 2_357, 54, 0, 359]),
        ]
    );
    let total = mem.system.stats();
    assert_eq!(
        (total.accesses, total.bytes, total.cycles),
        (9_933, 180_653, 189_838)
    );
    let cache = |hits, misses| CacheStats { hits, misses };
    assert_eq!(
        [total.l1, total.l2, total.llc],
        [cache(10_334, 1_673), cache(280, 1_393), cache(0, 1_393)]
    );
}

#[test]
fn sharded_decomposition_output_is_pinned() {
    const CELLS: usize = 4;
    let mix = mix();
    let mem_cfg = MemConfig::default().llc_slice(CELLS);
    let cfg = ServeConfig {
        instances: 2,
        queue_depth: 32,
        ..ServeConfig::default()
    };
    let streams = mix.shard_streams(STREAM_SEED, CELLS, 64, 900.0);
    let sharded = ShardedCluster::run(&streams, 2, |shard, events| {
        serving::run_cell(
            shard,
            &mix,
            mem_cfg,
            cfg,
            Capture::default(),
            |staging, _| (staging.requests(events), Vec::new()),
        )
    });

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for o in sharded.outcomes() {
        fnv(&mut h, &records_hash(&o.records).to_le_bytes());
    }
    assert_eq!(h, 0x7579_4ad4_8bf5_9820);
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut fingerprint, sharded.fingerprint().as_bytes());
    assert_eq!(fingerprint, 0x2923_dde0_d54b_bf47);
    assert_eq!(
        sharded.merged_stats(),
        AccelStats {
            deser_cycles: 249_767,
            ser_cycles: 139_687,
            deser_ops: 188,
            ser_ops: 68,
            deser_wire_bytes: 42_027,
            ser_wire_bytes: 34_695,
            fields: 3_119,
            varints: 5_693,
            allocs: 742,
            adt_misses: 2_145,
            ..AccelStats::default()
        }
    );
    let per_requester: Vec<RequesterStats> = sharded
        .outcomes()
        .iter()
        .flat_map(|o| o.mem_stats.iter().copied())
        .collect();
    assert_eq!(
        per_requester,
        [
            req([1_645, 27_577, 74_618, 1_612, 22, 0, 303]),
            req([1_275, 25_268, 72_294, 1_250, 8, 0, 298]),
            req([676, 19_568, 47_075, 713, 2, 0, 212]),
            req([1_326, 17_402, 52_910, 1_261, 0, 0, 248]),
            req([1_522, 31_612, 66_557, 1_530, 12, 0, 360]),
            req([1_709, 27_731, 64_689, 1_699, 16, 0, 285]),
            req([2_057, 35_726, 84_612, 2_082, 15, 0, 350]),
            req([1_687, 36_896, 95_512, 1_760, 4, 0, 391]),
        ]
    );
}
