//! Protocol Buffers (proto2) wire-format primitives.
//!
//! This crate implements the byte-level encoding layer everything else in the
//! workspace builds on: base-128 varints, zigzag transforms for signed types,
//! field keys (field number + wire type), and a complete reference
//! encoder/decoder over byte buffers.
//!
//! Two views of the same algorithms are provided:
//!
//! * **Software view** ([`varint`], [`reader`], [`writer`]): the byte-at-a-time
//!   loops a CPU executes, used by the reference codec and the instrumented
//!   CPU baseline models.
//! * **Hardware view** ([`hw`]): combinational single-cycle varint
//!   encode/decode over a fixed 10-byte window, exactly the unit the paper's
//!   field-handler FSM instantiates (Section 4.4.4: "fixed-function hardware
//!   can easily handle varint encoding/decoding in a single cycle").
//!
//! # Example
//!
//! ```rust
//! use protoacc_wire::varint;
//!
//! let mut buf = Vec::new();
//! varint::encode(300, &mut buf);
//! assert_eq!(buf, [0b1010_1100, 0b0000_0010]);
//! let (value, len) = varint::decode(&buf)?;
//! assert_eq!((value, len), (300, 2));
//! # Ok::<(), protoacc_wire::WireError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hw;
pub mod key;
pub mod reader;
pub mod varint;
pub mod writer;
pub mod zigzag;

mod error;

pub use error::WireError;
pub use key::{FieldKey, WireType};
pub use reader::WireReader;
pub use writer::WireWriter;

/// Largest number of bytes a single varint may occupy on the wire.
///
/// A 64-bit value yields up to ten 7-bit groups.
pub const MAX_VARINT_LEN: usize = 10;

/// Largest field number the proto2 language permits (2^29 - 1).
pub const MAX_FIELD_NUMBER: u32 = (1 << 29) - 1;

/// First field number of the range the protobuf language reserves for the
/// implementation (19000–19999). Schemas must not define fields here.
pub const FIRST_RESERVED_FIELD_NUMBER: u32 = 19_000;

/// Last field number of the implementation-reserved range (inclusive).
pub const LAST_RESERVED_FIELD_NUMBER: u32 = 19_999;

/// Whether `number` falls inside the implementation-reserved 19000–19999
/// range. The wire layer itself stays permissive (unknown fields with any
/// number must still be skippable); the schema layer rejects definitions.
#[must_use]
pub fn is_reserved_field_number(number: u32) -> bool {
    (FIRST_RESERVED_FIELD_NUMBER..=LAST_RESERVED_FIELD_NUMBER).contains(&number)
}
