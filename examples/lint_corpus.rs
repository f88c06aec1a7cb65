//! Lints the checked-in `.proto` corpus and cross-checks two predictions
//! against the simulator: a lint-clean (no PA001) instance takes zero
//! stack-spill cycles, and its simulated cycles sit inside the static
//! deserialization envelope.
//!
//! Run with `cargo run --example lint_corpus`.

use protoacc_suite::absint::Envelope;
use protoacc_suite::accel::{AccelConfig, ProtoAccelerator};
use protoacc_suite::lint::{lint_schema, predicts_spill, DiagCode, LintConfig};
use protoacc_suite::mem::{MemConfig, Memory};
use protoacc_suite::runtime::{
    reference, write_adts, BumpArena, MessageLayouts, MessageValue, Value,
};
use protoacc_suite::schema::parse_proto;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = LintConfig::default();
    let mut combined = protoacc_suite::lint::LintReport::default();
    for name in ["addressbook.proto", "storage_row.proto", "telemetry.proto"] {
        let path = format!("{}/protos/{name}", env!("CARGO_MANIFEST_DIR"));
        let schema = parse_proto(&std::fs::read_to_string(&path)?)?;
        combined.merge(lint_schema(&schema, &config));
    }
    print!("{}", combined.render_human());

    // The analyzer predicts behavior; the simulator confirms it. Build an
    // AddressBook instance, check the spill prediction and the envelope.
    let path = format!("{}/protos/addressbook.proto", env!("CARGO_MANIFEST_DIR"));
    let schema = parse_proto(&std::fs::read_to_string(&path)?)?;
    let book_id = schema.id_by_name("AddressBook").unwrap();
    let person_id = schema.id_by_name("Person").unwrap();
    let mut person = MessageValue::new(person_id);
    person.set_unchecked(1, Value::Str("Grace Hopper".into()));
    person.set_unchecked(2, Value::Int32(1));
    let mut book = MessageValue::new(book_id);
    book.set_repeated(1, vec![Value::Message(person)]);

    let accel_config = AccelConfig::default();
    let layouts = MessageLayouts::compute(&schema);
    let mem_config = MemConfig::default();
    let mut mem = Memory::new(mem_config);
    let mut arena = BumpArena::new(0x1_0000, 1 << 24);
    let adts = write_adts(&schema, &layouts, &mut mem.data, &mut arena)?;
    let wire = reference::encode(&book, &schema)?;
    mem.data.write_bytes(0x1000_0000, &wire);
    let mut accel = ProtoAccelerator::new(accel_config);
    accel.deser_assign_arena(0x8000_0000, 1 << 24);
    let layout = layouts.layout(book_id);
    let dest = arena.alloc(layout.object_size(), 8)?;
    let run = accel.do_proto_deser(
        &mut mem,
        adts.addr(book_id),
        0x1000_0000,
        wire.len() as u64,
        dest,
        layout.min_field(),
    )?;

    let report = lint_schema(&schema, &config);
    let pa001 = report.with_code(DiagCode::StackSpill).count();
    let envelope = Envelope::deser(&schema, &layouts, book_id, &accel_config, &mem_config)
        .bounds(wire.len() as u64, 1);
    println!(
        "AddressBook: {} diagnostics = {pa001}, predicted spill = {}",
        DiagCode::StackSpill.code(),
        predicts_spill(&book, &accel_config)
    );
    println!(
        "simulated {} cycles inside the envelope [{}, {}] ({} wire bytes); spills = {}",
        run.cycles,
        envelope.lower,
        envelope.upper,
        wire.len(),
        accel.stats().stack_spills
    );
    assert!(envelope.contains(run.cycles));
    assert_eq!(accel.stats().stack_spills, 0);
    Ok(())
}
