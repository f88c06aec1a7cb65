//! Randomized tests: arbitrary messages through the accelerator agree with
//! the reference codec in both directions, and arbitrary or corrupted bytes
//! never panic it. Every input goes through the differential oracle, so
//! the CPU codec and the fast path are held to the same answers. Driven by
//! the workspace's deterministic PRNG (`xrand`); enable the `slow-tests`
//! feature to multiply the iteration counts.

use protoacc_suite::faults::{Oracle, Verdict};
use protoacc_suite::runtime::{reference, MessageValue, Value};
use protoacc_suite::schema::{FieldType, MessageId, Schema, SchemaBuilder};
use protoacc_suite::xrand::{Rng, StdRng};

/// Iteration count, scaled up under `--features slow-tests`.
fn cases(default: usize) -> usize {
    if cfg!(feature = "slow-tests") {
        default * 16
    } else {
        default
    }
}

fn test_schema() -> (Schema, MessageId, MessageId) {
    let mut b = SchemaBuilder::new();
    let inner = b.declare("Inner");
    b.message(inner)
        .optional("flag", FieldType::Bool, 1)
        .optional("note", FieldType::String, 2)
        .optional("count", FieldType::UInt64, 3);
    let outer = b.declare("Outer");
    b.message(outer)
        .optional("i32", FieldType::Int32, 1)
        .optional("s64", FieldType::SInt64, 2)
        .optional("dbl", FieldType::Double, 3)
        .optional("text", FieldType::String, 7)
        .optional("blob", FieldType::Bytes, 8)
        .optional("sub", FieldType::Message(inner), 9)
        .repeated("ri", FieldType::Int64, 10)
        .packed("pu", FieldType::UInt32, 11)
        .repeated("rstr", FieldType::String, 12)
        .repeated("rsub", FieldType::Message(inner), 13);
    (b.build().unwrap(), outer, inner)
}

fn lowercase_string(rng: &mut StdRng, max_len: usize) -> String {
    (0..rng.gen_range(0..=max_len))
        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
        .collect()
}

fn printable_string(rng: &mut StdRng, max_len: usize) -> String {
    (0..rng.gen_range(0..=max_len))
        .map(|_| char::from(rng.gen_range(b' '..=b'~')))
        .collect()
}

fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; rng.gen_range(0..max_len)];
    rng.fill(&mut bytes);
    bytes
}

fn random_inner(rng: &mut StdRng, inner: MessageId) -> MessageValue {
    let mut m = MessageValue::new(inner);
    if rng.gen_bool(0.5) {
        m.set_unchecked(1, Value::Bool(rng.gen()));
    }
    if rng.gen_bool(0.5) {
        m.set_unchecked(2, Value::Str(lowercase_string(rng, 40)));
    }
    if rng.gen_bool(0.5) {
        m.set_unchecked(3, Value::UInt64(rng.gen()));
    }
    m
}

fn random_outer(rng: &mut StdRng, outer: MessageId, inner: MessageId) -> MessageValue {
    let mut m = MessageValue::new(outer);
    if rng.gen_bool(0.5) {
        m.set_unchecked(1, Value::Int32(rng.gen()));
    }
    if rng.gen_bool(0.5) {
        m.set_unchecked(2, Value::SInt64(rng.gen()));
    }
    if rng.gen_bool(0.5) {
        m.set_unchecked(3, Value::Double(rng.gen()));
    }
    if rng.gen_bool(0.5) {
        m.set_unchecked(7, Value::Str(printable_string(rng, 64)));
    }
    if rng.gen_bool(0.5) {
        m.set_unchecked(8, Value::Bytes(random_bytes(rng, 64)));
    }
    if rng.gen_bool(0.5) {
        m.set_unchecked(9, Value::Message(random_inner(rng, inner)));
    }
    let ri: Vec<Value> = (0..rng.gen_range(0u32..6))
        .map(|_| Value::Int64(rng.gen()))
        .collect();
    if !ri.is_empty() {
        m.set_repeated(10, ri);
    }
    let pu: Vec<Value> = (0..rng.gen_range(0u32..6))
        .map(|_| Value::UInt32(rng.gen()))
        .collect();
    if !pu.is_empty() {
        m.set_repeated(11, pu);
    }
    let rstr: Vec<Value> = (0..rng.gen_range(0u32..4))
        .map(|_| Value::Str(lowercase_string(rng, 20)))
        .collect();
    if !rstr.is_empty() {
        m.set_repeated(12, rstr);
    }
    let rsub: Vec<Value> = (0..rng.gen_range(0u32..3))
        .map(|_| Value::Message(random_inner(rng, inner)))
        .collect();
    if !rsub.is_empty() {
        m.set_repeated(13, rsub);
    }
    m
}

/// Feeding arbitrary bytes to the decoders must fail gracefully — never
/// panic, never write outside their arenas, never loop forever — and all
/// three must give the same verdict.
#[test]
fn accel_deser_survives_arbitrary_input() {
    let mut rng = StdRng::seed_from_u64(0xACC_0001);
    let (schema, outer, _) = test_schema();
    let mut oracle = Oracle::new(&schema, outer);
    for _ in 0..cases(64) {
        let bytes = random_bytes(&mut rng, 512);
        // The bytes may happen to parse or not; both are fine.
        let judgement = oracle.judge(&bytes);
        assert!(judgement.verdict().is_some(), "{bytes:02x?}: {judgement:?}");
    }
}

/// Bit-flipping a valid encoding must also fail gracefully or produce a
/// parseable (possibly different) message — never panic.
#[test]
fn accel_deser_survives_corruption() {
    let mut rng = StdRng::seed_from_u64(0xACC_0002);
    let (schema, outer, inner) = test_schema();
    let mut oracle = Oracle::new(&schema, outer);
    for _ in 0..cases(64) {
        let m = random_outer(&mut rng, outer, inner);
        let mut wire = reference::encode(&m, &schema).unwrap();
        if wire.is_empty() {
            continue;
        }
        let idx = rng.gen_range(0usize..wire.len());
        wire[idx] ^= 1 << rng.gen_range(0u8..8);
        let judgement = oracle.judge(&wire);
        assert!(judgement.verdict().is_some(), "{wire:02x?}: {judgement:?}");
    }
}

#[test]
fn accel_deser_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xACC_0003);
    let (schema, outer, inner) = test_schema();
    let mut oracle = Oracle::new(&schema, outer);
    for _ in 0..cases(64) {
        let m = random_outer(&mut rng, outer, inner);
        let wire = reference::encode(&m, &schema).unwrap();
        let judgement = oracle.judge(&wire);
        assert_eq!(judgement.verdict(), Some(Verdict::Accept), "{judgement:?}");
        assert!(judgement.tree.is_some_and(|tree| tree.bits_eq(&m)));
    }
}

#[test]
fn accel_ser_matches_reference_bytes() {
    let mut rng = StdRng::seed_from_u64(0xACC_0004);
    let (schema, outer, inner) = test_schema();
    let mut oracle = Oracle::new(&schema, outer);
    for _ in 0..cases(64) {
        let m = random_outer(&mut rng, outer, inner);
        let judgement = oracle.judge_value(&m);
        assert_eq!(judgement.verdict(), Some(Verdict::Accept), "{judgement:?}");
    }
}
