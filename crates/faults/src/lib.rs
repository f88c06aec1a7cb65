//! Deterministic fault injection for the protoacc model.
//!
//! The paper's accelerator sits between two unforgiving interfaces:
//! attacker-controllable wire bytes on one side and a shared memory
//! hierarchy plus replicated hardware instances on the other. This crate
//! injects faults into all three planes — every injection derived from a
//! seed, so any observed behavior replays exactly:
//!
//! * **Wire plane** ([`wire`]) — bit flips, truncation, length-field
//!   overruns, non-terminating varints, wire-type tampering, and recursion
//!   depth bombs, aimed at the deserializer FSM's error states.
//! * **Memory plane** ([`memory`]) — one-shot ECC errors and unbounded
//!   stalls armed on address ranges through
//!   [`protoacc_mem::MemSystem::arm_ecc`] / `arm_stall`.
//! * **Instance plane** ([`instance`]) — scripted crash/hang/slow-down
//!   schedules for [`protoacc::ServeCluster::run_with`].
//! * **Table plane** ([`tables`]) — seeded corruptions of compiled dispatch
//!   tables and hardware ADT images (offset bumps, mask swaps, op
//!   substitutions, dropped/duplicated entries), the adversary behind the
//!   `protoacc-verify` translation validator's detection-rate gate.
//! * **Frame plane** ([`frames`]) — corruptions of the RPC transport's
//!   5-byte length-prefixed frames (truncated prefixes and bodies,
//!   oversized declared lengths, reserved flag bytes, length-field jitter),
//!   aimed at `protoacc-rpc`'s streaming frame decoder.
//!
//! Two consumers close the loop:
//!
//! * [`fallback::SoftwareFallback`] is the serve cluster's last rung: the
//!   instrumented CPU codec wrapped as a [`protoacc::FallbackCodec`], so
//!   offered load is still served (slower, measured) with every accelerator
//!   instance down.
//! * [`oracle::Oracle`] stages the accelerator model, the CPU codec, the
//!   native fast path (`protoacc-fastpath`) and the value-tree reference
//!   once per message type and judges every input against all four: the
//!   same verdict class ([`protoacc::DecodeFault`]) from the three
//!   decoders, byte-identical re-encodes, and trees and bytes equal to the
//!   reference's — the contract that makes the accelerator a drop-in
//!   replacement even on hostile input.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fallback;
pub mod frames;
pub mod instance;
pub mod memory;
pub mod oracle;
pub mod tables;
pub mod wire;

pub use fallback::SoftwareFallback;
pub use frames::{FrameFault, FRAME_FAULTS};
pub use instance::{random_script, InstanceFaultPlan};
pub use oracle::{Codec, DiffReport, Divergence, Judgement, Oracle, Verdict};
pub use tables::{
    mutate_adt, mutate_compiled, AdtMutation, TableMutation, ADT_MUTATIONS, TABLE_MUTATIONS,
};
pub use wire::{depth_bomb, mutate, WireFault, WIRE_FAULTS};
