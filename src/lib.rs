//! # protoacc-suite
//!
//! Facade crate for the Rust reproduction of *A Hardware Accelerator for
//! Protocol Buffers* (MICRO 2021). Re-exports the public API of every
//! workspace crate so examples and downstream users need a single dependency.
//!
//! See the repository README for a quickstart and DESIGN.md for the full
//! system inventory.
//!
//! ```rust
//! use protoacc_suite::accel::{AccelConfig, ProtoAccelerator};
//! use protoacc_suite::mem::{MemConfig, Memory};
//! use protoacc_suite::runtime::{object, reference, write_adts, BumpArena, MessageLayouts, MessageValue, Value};
//! use protoacc_suite::schema::parse_proto;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let schema = parse_proto("message Ping { required uint64 seq = 1; }")?;
//! let id = schema.id_by_name("Ping").unwrap();
//! let layouts = MessageLayouts::compute(&schema);
//! let mut mem = Memory::new(MemConfig::default());
//! let mut arena = BumpArena::new(0x1_0000, 1 << 20);
//! let adts = write_adts(&schema, &layouts, &mut mem.data, &mut arena)?;
//!
//! let mut ping = MessageValue::new(id);
//! ping.set(1, Value::UInt64(41))?;
//! let wire = reference::encode(&ping, &schema)?;
//! mem.data.write_bytes(0x10_0000, &wire);
//!
//! let mut accel = ProtoAccelerator::new(AccelConfig::default());
//! accel.deser_assign_arena(0x20_0000, 1 << 20);
//! let dest = arena.alloc(layouts.layout(id).object_size(), 8)?;
//! let run = accel.do_proto_deser(&mut mem, adts.addr(id), 0x10_0000, wire.len() as u64, dest, 1)?;
//! assert!(run.cycles > 0);
//! let back = object::read_message(&mem.data, &schema, &layouts, id, dest)?;
//! assert!(back.bits_eq(&ping));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use hyperprotobench as hyperbench;
pub use protoacc as accel;
pub use protoacc_absint as absint;
pub use protoacc_bench as bench;
pub use protoacc_cpu as cpu;
pub use protoacc_fastpath as fastpath;
pub use protoacc_faults as faults;
pub use protoacc_fleet as fleet;
pub use protoacc_lint as lint;
pub use protoacc_mem as mem;
pub use protoacc_rpc as rpc;
pub use protoacc_runtime as runtime;
pub use protoacc_schema as schema;
pub use protoacc_trace as trace;
pub use protoacc_verify as verify;
pub use protoacc_wire as wire;
pub use xrand;
