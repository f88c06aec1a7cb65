//! Randomized test over *schemas*, not just values: random service profiles
//! and seeds generate arbitrary schemas + populations, and every system must
//! agree on every message, in both directions (through the differential
//! oracle), plus the accelerator's merge semantics.
//! Driven by the workspace's deterministic PRNG (`xrand`); enable the
//! `slow-tests` feature to multiply the seed count.

use protoacc_suite::accel::{AccelConfig, ProtoAccelerator};
use protoacc_suite::faults::{Oracle, Verdict};
use protoacc_suite::hyperbench::{Generator, ServiceProfile};
use protoacc_suite::mem::{MemConfig, Memory};
use protoacc_suite::runtime::{object, write_adts, BumpArena, MessageLayouts};
use protoacc_suite::xrand::{Rng, StdRng};

/// Seeds tried per service, scaled up under `--features slow-tests`.
fn seeds_per_service() -> usize {
    if cfg!(feature = "slow-tests") {
        32
    } else {
        2
    }
}

#[test]
fn every_system_agrees_on_random_schemas() {
    let mut seed_rng = StdRng::seed_from_u64(0x5C_EE05);
    for service in 0..6 {
        for _ in 0..seeds_per_service() {
            let seed = seed_rng.gen::<u64>();
            check_service(service, seed);
        }
    }
}

fn check_service(service: usize, seed: u64) {
    let bench = Generator::new(ServiceProfile::bench(service), seed).generate(3);
    // Every codec serializes each message byte-identically to the
    // reference and decodes those bytes back to it.
    let mut oracle = Oracle::new(&bench.schema, bench.type_id);
    for m in &bench.messages {
        let judgement = oracle.judge_value(m);
        assert_eq!(
            judgement.verdict(),
            Some(Verdict::Accept),
            "service {service} seed {seed}: {judgement:?}"
        );
    }

    // Merge the population pairwise on the accelerator and check against
    // the host reference.
    if bench.messages.len() >= 2 {
        let a = &bench.messages[0];
        let b = &bench.messages[1];
        let layouts = MessageLayouts::compute(&bench.schema);
        let mut mem = Memory::new(MemConfig::default());
        let mut setup = BumpArena::new(0x1_0000, 1 << 26);
        let adts = write_adts(&bench.schema, &layouts, &mut mem.data, &mut setup).unwrap();
        let mut accel = ProtoAccelerator::new(AccelConfig::default());
        accel.deser_assign_arena(0x2_0000_0000, 1 << 28);
        let dst =
            object::write_message(&mut mem.data, &bench.schema, &layouts, &mut setup, a).unwrap();
        let src =
            object::write_message(&mut mem.data, &bench.schema, &layouts, &mut setup, b).unwrap();
        accel
            .do_proto_merge(&mut mem, adts.addr(bench.type_id), dst, src)
            .unwrap();
        let mut expect = a.clone();
        expect.merge_from(b);
        let got =
            object::read_message(&mem.data, &bench.schema, &layouts, bench.type_id, dst).unwrap();
        assert!(got.bits_eq(&expect), "service {service} seed {seed}");
    }
}
