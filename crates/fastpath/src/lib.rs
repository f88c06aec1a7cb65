//! # protoacc-fastpath
//!
//! A second, genuinely fast software protobuf engine for the suite — the
//! host-CPU counterpart the paper's accelerator is benchmarked against, built
//! from the same three ideas the hardware exploits (Sections 4.4–4.5, 5.2):
//!
//! * **SWAR varint decode** ([`swar`]): one 8-byte load + a parallel
//!   mask-and-shift fold instead of the byte-at-a-time loop, with a 10-byte
//!   slow path that preserves the scalar decoder's exact error
//!   classification.
//! * **Precompiled branchless dispatch** ([`dispatch`]): per-schema tables
//!   mapping field number → flat decode micro-op, the software analogue of
//!   the accelerator's field-number→FSM-state descriptor lookup.
//! * **Arena decode + forward serialization** ([`arena`], `forward`):
//!   decoded objects bump-allocated in the exact ADT layouts the simulator
//!   uses, strings borrowed zero-copy from the input, and each
//!   sub-message's input body length kept beside its object offset.
//!   Re-encoding writes front to back into one buffer sized from the
//!   input, each length prefix from that recorded length, so nested frames
//!   need neither a ByteSize pass nor the memwriter's back-to-front order;
//!   a prefix is rewritten only when non-canonical input changes a body's
//!   length.
//!
//! [`FastCodec`] ties these together behind a `Codec`-shaped API and is held
//! to `crates/cpu`'s exact observable semantics by the differential suite:
//! byte-identical encodes, identical decode verdicts on every corruption
//! class, identical value trees on accepts.

pub mod arena;
pub mod codec;
pub mod dispatch;
mod forward;
pub mod swar;

pub use arena::{pack_str, unpack_str, DecodeArena};
pub use codec::FastCodec;
pub use dispatch::{
    encoded_key, CompiledMessage, CompiledSchema, FieldEntry, Op, TableImage, TableKind,
    DENSE_SPAN_LIMIT,
};
