use std::error::Error;
use std::fmt;

use protoacc_mem::{Cycles, MemFault};
use protoacc_runtime::{ArenaError, RuntimeError};
use protoacc_wire::WireError;

/// Error raised by the accelerator model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AccelError {
    /// An operation was dispatched before the corresponding
    /// `{ser,deser}_assign_arena` instruction.
    ArenaNotAssigned {
        /// Which unit ("deserializer" or "serializer").
        unit: &'static str,
    },
    /// A command operand that duplicates an ADT header word (the hasbits
    /// offset or a field-number bound) disagreed with it. Checked before
    /// any timed access, so the command changed no state.
    OperandMismatch {
        /// Which operand (`"hasbits_offset"`, `"min_field"` or
        /// `"max_field"`).
        operand: &'static str,
        /// The value software supplied.
        supplied: u64,
        /// The value in the ADT header.
        adt: u64,
    },
    /// The serialized input was malformed.
    Wire(WireError),
    /// An ADT entry carried an invalid or undefined type code where a
    /// defined field was required.
    BadAdtEntry {
        /// The offending field number.
        field_number: u32,
    },
    /// Accelerator arena exhaustion.
    Arena(ArenaError),
    /// The serializer's output region overflowed.
    OutputOverflow,
    /// Error propagated from the runtime layer.
    Runtime(RuntimeError),
    /// A command exceeded its watchdog cycle ceiling and was killed by the
    /// serve layer rather than allowed to hang its instance.
    Watchdog {
        /// The static ceiling the command was killed at.
        limit: Cycles,
        /// Cycles the command had consumed when killed.
        observed: Cycles,
    },
    /// A hardware memory fault (ECC error, stalled access) surfaced by the
    /// simulated memory system during a transfer.
    Mem(MemFault),
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::ArenaNotAssigned { unit } => {
                write!(f, "{unit} arena not assigned before dispatch")
            }
            AccelError::OperandMismatch {
                operand,
                supplied,
                adt,
            } => write!(f, "operand {operand} is {supplied} but the ADT says {adt}"),
            AccelError::Wire(e) => write!(f, "wire error: {e}"),
            AccelError::BadAdtEntry { field_number } => {
                write!(f, "invalid ADT entry for field {field_number}")
            }
            AccelError::Arena(e) => write!(f, "accelerator arena: {e}"),
            AccelError::OutputOverflow => write!(f, "serializer output region overflow"),
            AccelError::Runtime(e) => write!(f, "runtime error: {e}"),
            AccelError::Watchdog { limit, observed } => {
                write!(
                    f,
                    "watchdog killed command at {observed} cycles (ceiling {limit})"
                )
            }
            AccelError::Mem(e) => write!(f, "memory fault: {e}"),
        }
    }
}

impl Error for AccelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AccelError::Wire(e) => Some(e),
            AccelError::Arena(e) => Some(e),
            AccelError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for AccelError {
    fn from(e: WireError) -> Self {
        AccelError::Wire(e)
    }
}

impl From<ArenaError> for AccelError {
    fn from(e: ArenaError) -> Self {
        AccelError::Arena(e)
    }
}

impl From<RuntimeError> for AccelError {
    fn from(e: RuntimeError) -> Self {
        AccelError::Runtime(e)
    }
}

impl From<MemFault> for AccelError {
    fn from(e: MemFault) -> Self {
        AccelError::Mem(e)
    }
}

/// Coarse failure classes the serve layer and the differential harness
/// reason about. Deterministic input-dependent classes (`Framing`,
/// `Schema`, `Semantic`) are *rejections* — retrying the same bytes on
/// another instance reproduces them, so the cluster answers immediately.
/// `Resource` and `Hardware` faults are environment-dependent and eligible
/// for retry/failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCategory {
    /// The wire bytes themselves are malformed: truncation, non-terminating
    /// varints, length fields overrunning the enclosing frame, bad keys.
    Framing,
    /// Well-framed bytes that contradict the schema/descriptor: wire-type
    /// mismatches, undefined descriptor entries.
    Schema,
    /// Structurally valid input rejected by a semantic limit: recursion
    /// depth, UTF-8 validation, missing required fields.
    Semantic,
    /// The accelerator ran out of a resource (arena, output region) or was
    /// driven without required setup instructions.
    Resource,
    /// The hardware substrate failed: memory faults, watchdog kills,
    /// crashed/hung instances.
    Hardware,
}

impl FaultCategory {
    /// Whether retrying the same command can ever succeed: hardware and
    /// resource faults are environment-dependent, everything else is a
    /// deterministic property of the input bytes.
    pub fn is_retryable(self) -> bool {
        matches!(self, FaultCategory::Resource | FaultCategory::Hardware)
    }
}

impl fmt::Display for FaultCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultCategory::Framing => "framing",
            FaultCategory::Schema => "schema",
            FaultCategory::Semantic => "semantic",
            FaultCategory::Resource => "resource",
            FaultCategory::Hardware => "hardware",
        })
    }
}

/// The explicit error states of the field-handler FSM and the serve layer:
/// every way a command can fail, flattened to a fieldless taxonomy so
/// verdicts from the accelerator model and the CPU reference decoder can be
/// compared class-for-class by the differential harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DecodeFault {
    /// Input ended (or the enclosing frame ended) mid-field.
    Truncated,
    /// A varint ran past 10 bytes without terminating.
    VarintOverflow,
    /// A length field pointed past the enclosing frame or the input.
    LengthOverrun,
    /// A field key with a zero or out-of-range field number.
    BadFieldNumber,
    /// A key carried a wire type the format does not define (or groups).
    BadWireType,
    /// A defined field arrived with a wire type contradicting its schema.
    WireTypeMismatch,
    /// The descriptor/ADT and the data disagree in some other way
    /// (undefined entry where a value was required, type mismatch).
    SchemaMismatch,
    /// Sub-message nesting exceeded the decoder's depth limit.
    DepthExceeded,
    /// A string field failed UTF-8 validation.
    InvalidUtf8,
    /// A required field was absent from the wire bytes.
    MissingRequired,
    /// Arena/output exhaustion or missing setup instructions.
    ResourceExhausted,
    /// The command was killed at its watchdog cycle ceiling.
    WatchdogKill,
    /// The memory system reported an ECC error or stalled access.
    MemoryFault,
    /// The instance executing the command crashed or hung mid-flight.
    InstanceFailure,
}

impl DecodeFault {
    /// The coarse class this fault belongs to.
    pub fn category(self) -> FaultCategory {
        match self {
            DecodeFault::Truncated
            | DecodeFault::VarintOverflow
            | DecodeFault::LengthOverrun
            | DecodeFault::BadFieldNumber
            | DecodeFault::BadWireType => FaultCategory::Framing,
            DecodeFault::WireTypeMismatch | DecodeFault::SchemaMismatch => FaultCategory::Schema,
            DecodeFault::DepthExceeded
            | DecodeFault::InvalidUtf8
            | DecodeFault::MissingRequired => FaultCategory::Semantic,
            DecodeFault::ResourceExhausted => FaultCategory::Resource,
            DecodeFault::WatchdogKill | DecodeFault::MemoryFault | DecodeFault::InstanceFailure => {
                FaultCategory::Hardware
            }
        }
    }

    /// Classifies a wire-layer error.
    pub fn from_wire(e: &WireError) -> DecodeFault {
        match e {
            WireError::Truncated { .. } => DecodeFault::Truncated,
            WireError::VarintOverflow { .. } => DecodeFault::VarintOverflow,
            WireError::LengthOutOfBounds { .. } => DecodeFault::LengthOverrun,
            WireError::InvalidWireType { .. } => DecodeFault::BadWireType,
            WireError::ZeroFieldNumber | WireError::FieldNumberOutOfRange { .. } => {
                DecodeFault::BadFieldNumber
            }
            _ => DecodeFault::SchemaMismatch,
        }
    }

    /// Classifies a runtime-layer error (the CPU reference decoder's error
    /// type), giving the differential harness the CPU side's verdict class.
    pub fn from_runtime(e: &RuntimeError) -> DecodeFault {
        match e {
            RuntimeError::Wire(w) => DecodeFault::from_wire(w),
            RuntimeError::WireTypeMismatch { .. } => DecodeFault::WireTypeMismatch,
            RuntimeError::TypeMismatch { .. } | RuntimeError::UnknownField { .. } => {
                DecodeFault::SchemaMismatch
            }
            RuntimeError::DepthExceeded { .. } => DecodeFault::DepthExceeded,
            RuntimeError::InvalidUtf8 { .. } => DecodeFault::InvalidUtf8,
            RuntimeError::MissingRequired { .. } => DecodeFault::MissingRequired,
            RuntimeError::Arena(_) => DecodeFault::ResourceExhausted,
            _ => DecodeFault::SchemaMismatch,
        }
    }

    /// Classifies an accelerator error (total: every `AccelError` maps to
    /// exactly one fault state).
    pub fn classify(e: &AccelError) -> DecodeFault {
        match e {
            AccelError::Wire(w) => DecodeFault::from_wire(w),
            AccelError::Runtime(r) => DecodeFault::from_runtime(r),
            AccelError::BadAdtEntry { .. } | AccelError::OperandMismatch { .. } => {
                DecodeFault::SchemaMismatch
            }
            AccelError::Arena(_)
            | AccelError::OutputOverflow
            | AccelError::ArenaNotAssigned { .. } => DecodeFault::ResourceExhausted,
            AccelError::Watchdog { .. } => DecodeFault::WatchdogKill,
            AccelError::Mem(_) => DecodeFault::MemoryFault,
        }
    }
}

impl fmt::Display for DecodeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_accel_error_classifies() {
        let cases: Vec<(AccelError, DecodeFault, FaultCategory)> = vec![
            (
                AccelError::Wire(WireError::Truncated { offset: 3 }),
                DecodeFault::Truncated,
                FaultCategory::Framing,
            ),
            (
                AccelError::Wire(WireError::VarintOverflow { offset: 0 }),
                DecodeFault::VarintOverflow,
                FaultCategory::Framing,
            ),
            (
                AccelError::Wire(WireError::LengthOutOfBounds {
                    declared: 10,
                    remaining: 2,
                }),
                DecodeFault::LengthOverrun,
                FaultCategory::Framing,
            ),
            (
                AccelError::Runtime(RuntimeError::WireTypeMismatch { field_number: 7 }),
                DecodeFault::WireTypeMismatch,
                FaultCategory::Schema,
            ),
            (
                AccelError::Runtime(RuntimeError::DepthExceeded { limit: 100 }),
                DecodeFault::DepthExceeded,
                FaultCategory::Semantic,
            ),
            (
                AccelError::BadAdtEntry { field_number: 9 },
                DecodeFault::SchemaMismatch,
                FaultCategory::Schema,
            ),
            (
                AccelError::OperandMismatch {
                    operand: "min_field",
                    supplied: 2,
                    adt: 1,
                },
                DecodeFault::SchemaMismatch,
                FaultCategory::Schema,
            ),
            (
                AccelError::OutputOverflow,
                DecodeFault::ResourceExhausted,
                FaultCategory::Resource,
            ),
            (
                AccelError::Watchdog {
                    limit: 100,
                    observed: 150,
                },
                DecodeFault::WatchdogKill,
                FaultCategory::Hardware,
            ),
            (
                AccelError::Mem(MemFault::Ecc { addr: 0x40 }),
                DecodeFault::MemoryFault,
                FaultCategory::Hardware,
            ),
        ];
        for (err, fault, cat) in cases {
            assert_eq!(DecodeFault::classify(&err), fault, "{err}");
            assert_eq!(fault.category(), cat, "{err}");
        }
    }

    #[test]
    fn retryability_follows_category() {
        assert!(FaultCategory::Hardware.is_retryable());
        assert!(FaultCategory::Resource.is_retryable());
        assert!(!FaultCategory::Framing.is_retryable());
        assert!(!FaultCategory::Schema.is_retryable());
        assert!(!FaultCategory::Semantic.is_retryable());
    }

    #[test]
    fn cpu_and_accel_wire_errors_agree_on_class() {
        let wire = WireError::Truncated { offset: 5 };
        let cpu = DecodeFault::from_runtime(&RuntimeError::Wire(wire.clone()));
        let acc = DecodeFault::classify(&AccelError::Wire(wire));
        assert_eq!(cpu, acc);
        assert_eq!(cpu.category(), FaultCategory::Framing);
    }
}
