//! # protoacc: a hardware accelerator for Protocol Buffers
//!
//! Cycle-level behavioral model of the accelerator presented in
//! *A Hardware Accelerator for Protocol Buffers* (MICRO 2021): a near-core
//! unit, attached over the RoCC interface of a RISC-V SoC, that serializes
//! and deserializes proto2 messages directly against application memory.
//!
//! The model reproduces the paper's microarchitecture:
//!
//! * **RoCC command interface** ([`ProtoAccelerator`]) — the custom
//!   instructions of Sections 4.4.1 and 4.5.2 (`deser_info`,
//!   `do_proto_deser`, `block_for_deser_completion`, the serializer
//!   equivalents, and `{ser,deser}_assign_arena`).
//! * **Deserializer unit** ([`deser`]) — memloader with a 16-byte consumer
//!   window, field-handler FSM (parseKey → typeInfo → per-type write
//!   states), single-cycle combinational varint decode, ADT loader, hasbits
//!   writer, in-accelerator memory allocation, and sub-message metadata
//!   stacks with DRAM spill beyond the on-chip depth (Section 3.8).
//! * **Serializer unit** ([`ser`]) — frontend scanning `hasbits` and
//!   `is_submessage` bit fields, parallel field serializer units fed
//!   round-robin, and a memwriter that emits output from high to low
//!   addresses so sub-message lengths can be injected without a sizing pass
//!   (Section 4.5.1).
//! * **ASIC model** ([`asic`]) — first-order area and critical-path
//!   estimates anchored to the paper's 22 nm synthesis results.
//!
//! Timing comes from per-state cycle charges plus memory-system costs
//! through the same shared L2/LLC the CPU models use ([`protoacc_mem`]).
//! Functional output is differentially tested against the reference codec:
//! deserialization produces the same object graphs, serialization produces
//! byte-identical wire output.
//!
//! # Example
//!
//! ```rust
//! use protoacc::{AccelConfig, ProtoAccelerator};
//! use protoacc_mem::{MemConfig, Memory};
//! use protoacc_runtime::{reference, write_adts, BumpArena, MessageLayouts, MessageValue, Value};
//! use protoacc_schema::{FieldType, SchemaBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SchemaBuilder::new();
//! let point = b.declare("Point");
//! b.message(point)
//!     .required("x", FieldType::Int32, 1)
//!     .required("y", FieldType::Int32, 2);
//! let schema = b.build()?;
//! let layouts = MessageLayouts::compute(&schema);
//!
//! let mut mem = Memory::new(MemConfig::default());
//! let mut setup_arena = BumpArena::new(0x1000, 1 << 20);
//! let adts = write_adts(&schema, &layouts, &mut mem.data, &mut setup_arena)?;
//!
//! // Serialize a point with the reference encoder, then deserialize it on
//! // the accelerator.
//! let mut msg = MessageValue::new(point);
//! msg.set(1, Value::Int32(3))?;
//! msg.set(2, Value::Int32(4))?;
//! let wire = reference::encode(&msg, &schema)?;
//! mem.data.write_bytes(0x200000, &wire);
//!
//! let mut accel = ProtoAccelerator::new(AccelConfig::default());
//! accel.deser_assign_arena(0x400000, 1 << 20);
//! let dest = 0x300000;
//! accel.deser_info(adts.addr(point), dest);
//! accel.do_proto_deser(&mut mem, 0x200000, wire.len() as u64, 1)?;
//! let cycles = accel.block_for_deser_completion();
//! assert!(cycles > 0);
//!
//! let back = protoacc_runtime::object::read_message(&mem.data, &schema, &layouts, point, dest)?;
//! assert!(back.bits_eq(&msg));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asic;
pub mod deser;
pub mod ops;
pub mod priorwork;
pub mod rocc;
pub mod ser;
pub mod serve;
pub mod shard;

mod adtcache;
mod config;
mod error;
mod stats;

pub use config::AccelConfig;
pub use error::{AccelError, DecodeFault, FaultCategory};
pub use rocc::ProtoAccelerator;
pub use serve::{
    CommandRecord, CommandStatus, DispatchPolicy, FallbackCodec, InstanceFault, InstanceFaultKind,
    Request, RequestOp, ServeCluster, ServeConfig, FALLBACK_INSTANCE,
};
pub use shard::{run_indexed, ShardOutcome, ShardedCluster};
pub use stats::AccelStats;
