//! Cross-system wire compatibility: every implementation (reference codec,
//! instrumented CPU codec, accelerator, fast path) interoperates on the
//! same bytes — the paper's "wire-compatible with standard protobufs"
//! claim, exercised with HyperProtoBench-generated workloads.
//!
//! `Oracle::judge_value` has every codec serialize each message
//! byte-identically to the reference encoder and decode those bytes back
//! to the message, which covers every serializer/deserializer pair. The
//! three tests keep their original seeds.

use protoacc_suite::faults::{Oracle, Verdict};
use protoacc_suite::hyperbench::{Generator, ServiceProfile};

/// Judges eight generated messages of `service`, drawn with `seed`.
fn check_service(service: usize, seed: u64) {
    let bench = Generator::new(ServiceProfile::bench(service), seed).generate(8);
    let mut oracle = Oracle::new(&bench.schema, bench.type_id);
    for (i, m) in bench.messages.iter().enumerate() {
        let judgement = oracle.judge_value(m);
        assert_eq!(
            judgement.verdict(),
            Some(Verdict::Accept),
            "bench{service} message {i}: {judgement:?}"
        );
    }
}

/// Serialize with the CPU codec, deserialize with the accelerator.
#[test]
fn cpu_serializes_accel_deserializes() {
    for service in 0..6 {
        check_service(service, 0xC0_5E_ED + service as u64);
    }
}

/// Serialize with the accelerator, deserialize with the CPU codec.
#[test]
fn accel_serializes_cpu_deserializes() {
    for service in 0..6 {
        check_service(service, 0xACCE1 + service as u64);
    }
}

/// All serializers produce identical bytes for the same message.
#[test]
fn all_serializers_are_byte_identical() {
    check_service(5, 0x1DEA7);
}
