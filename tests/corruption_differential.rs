//! Seeded randomized corruption differential: two sweeps of ~10k mutated
//! HyperProtoBench messages each, judged by the differential oracle, which
//! demands the same accept/reject verdict — and the same fault class on
//! rejections — from the accelerator model, the CPU codec and the fast
//! path on every input, and byte-identical re-encodes of every input all
//! three accept.
//!
//! This is the drop-in-replacement contract under hostile input: an
//! application swapping the software parser for the hardware one must see
//! the same messages accepted and the same error class on the ones
//! rejected. The two sweeps are separate tests so they run in parallel.

use protoacc_suite::faults::{mutate, DiffReport, Oracle};
use protoacc_suite::hyperbench::generate_suite;
use protoacc_suite::runtime::reference;
use protoacc_suite::xrand::StdRng;

/// Judges `messages` HyperProtoBench messages per suite, each clean and
/// after `mutations` seeded wire faults, through one oracle per suite.
fn sweep(messages: usize, mutations: usize, seed: u64) -> DiffReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = DiffReport::default();
    for bench in generate_suite(messages, 0xC0DE) {
        let mut oracle = Oracle::new(&bench.schema, bench.type_id);
        for (mi, message) in bench.messages.iter().enumerate() {
            let wire =
                reference::encode(message, &bench.schema).expect("generated messages encode");
            let label = format!("{}/m{mi}", bench.profile.name);
            report.record(&format!("{label}/clean"), &wire, &oracle.judge(&wire));
            for trial in 0..mutations {
                let (fault, mutated) = mutate(&wire, &mut rng);
                let label = format!("{label}/t{trial}/{}", fault.label());
                report.record(&label, &mutated, &oracle.judge(&mutated));
            }
        }
    }
    report
}

/// 6 suites x 8 messages x (210 mutations plus the clean control) lands a
/// little over 10k trials; every one must agree, and both verdicts must
/// occur, or the sweep proves nothing.
fn check_sweep(seed: u64) {
    let mutations = if cfg!(feature = "slow-tests") {
        210 * 16
    } else {
        210
    };
    let report = sweep(8, mutations, seed);
    assert!(report.is_clean(), "{}", report.summary());
    assert!(
        report.trials >= 10_000,
        "only {} trials — the sweep shrank below its 10k floor",
        report.trials
    );
    assert!(report.accepted > 0, "{}", report.summary());
    assert!(report.rejected > 0, "{}", report.summary());
}

#[test]
fn corrupted_hyperbench_verdicts_match_the_cpu_reference() {
    check_sweep(0xFA11_7E57);
}

#[test]
fn mutation_sweep_verdicts_match_the_cpu_oracle() {
    check_sweep(0xFA57_D1FF);
}

/// The sweep itself is deterministic: same seeds, same tallies.
#[test]
fn corruption_sweep_is_deterministic() {
    let run = |seed: u64| {
        let report = sweep(2, 8, seed);
        (report.trials, report.accepted, report.rejected)
    };
    assert_eq!(run(7), run(7));
}
