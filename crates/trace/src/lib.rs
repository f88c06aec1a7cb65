//! Structured tracing and metrics for the protoacc behavioral model.
//!
//! Every unit of the model — memloader, field-handler FSM, ADT cache,
//! serializer FSU pool, memwriter, the serve cluster, and the memory
//! system — emits typed [`TraceEvent`]s with cycle timestamps into an
//! optional [`TraceLog`]. The design contract is **zero behavioral cost when
//! disabled**: instrumentation never participates in cycle arithmetic, so a
//! run with no tracer attached is bit-identical to a run that predates the
//! tracing layer, and a run with a tracer attached produces the exact same
//! cycle counts as one without.
//!
//! Each event kind is declared once, in [`TraceEvent`]'s one list: its
//! kind tag and typed fields give the enum, [`TraceEvent::kind`] and the
//! `args` the exporter writes and the parser reads back.
//!
//! The crate's five modules:
//!
//! * [`chrome`] — a Chrome-trace-event JSON exporter (loadable in Perfetto
//!   / `chrome://tracing`), one track per accelerator instance, one per
//!   serializer FSU, and one for the memory system, plus a parser for the
//!   same format so CI can round-trip a trace file.
//! * [`json`] — the one JSON value, writer and parser that the trace
//!   and every lint and `BENCH_*.json` report are written and read with.
//! * [`audit`] — an aggregating profile reporter whose per-type cycle
//!   breakdowns are cross-checked against `AccelStats`: the traced
//!   [`TraceEvent::DeserOp`]/[`TraceEvent::SerOp`] spans must sum *exactly*
//!   to the cycles the stats counters report, a built-in accounting audit.
//! * [`metrics`] — [`MetricsRegistry`] aggregates counters and
//!   log-2-bucketed latency histograms from event streams; its percentile
//!   rule is shared (via [`nearest_rank`]) with
//!   `ServeCluster::latency_percentile` so the two paths cannot disagree by
//!   more than one histogram bucket.
//! * [`stitch`] — merges per-shard logs into one stream with disjoint ids.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;

use crate::json::Json;

pub mod audit;
pub mod chrome;
pub mod json;
pub mod metrics;
pub mod stitch;

pub use audit::{audit, render_profile, AuditReport, ExpectedStats, InstanceAudit};
pub use metrics::{Histogram, MetricsRegistry};
pub use stitch::{event_time, retag, stitch, ShardTags};

/// Cycle count. Mirrors `protoacc_mem::Cycles`; redeclared here so the
/// trace crate has no dependencies and can sit below every model crate.
pub type Cycles = u64;

/// Instance id used for serve-layer events that ran on the CPU fallback
/// path rather than an accelerator instance.
pub const FALLBACK_TRACK: usize = usize::MAX;

/// A typed event field: its JSON arg value in the Chrome trace, and back.
pub(crate) trait TraceField: Sized {
    fn to_json(self) -> Json;

    /// `None` when `value` has the wrong JSON type or is out of range.
    fn from_json(value: &Json) -> Option<Self>;
}

macro_rules! integer_fields {
    ($($t:ty),*) => {$(
        impl TraceField for $t {
            fn to_json(self) -> Json {
                self.into()
            }

            fn from_json(value: &Json) -> Option<$t> {
                <$t>::try_from(value.as_u64()?).ok()
            }
        }
    )*};
}
integer_fields!(u32, u64, usize);

impl TraceField for bool {
    fn to_json(self) -> Json {
        self.into()
    }

    fn from_json(value: &Json) -> Option<bool> {
        value.as_bool()
    }
}

/// Reads `args[key]` as a `T`, naming `kind` and `key` when it is missing,
/// mistyped or out of range.
pub(crate) fn read_field<T: TraceField>(args: &Json, kind: &str, key: &str) -> Result<T, String> {
    args.get(key)
        .and_then(T::from_json)
        .ok_or_else(|| format!("{kind} event missing or mistyped field '{key}'"))
}

/// Declares a field enum whose values each carry one stable lowercase
/// label; `label`, `from_label` and the JSON conversion all read it.
macro_rules! label_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident = $label:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Stable lowercase label used by exporters.
            #[must_use]
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)*
                }
            }

            fn from_label(s: &str) -> Option<$name> {
                match s {
                    $($label => Some($name::$variant),)*
                    _ => None,
                }
            }
        }

        impl TraceField for $name {
            fn to_json(self) -> Json {
                self.label().into()
            }

            fn from_json(value: &Json) -> Option<$name> {
                $name::from_label(value.as_str()?)
            }
        }
    };
}

/// Declares [`TraceEvent`] from one list: each variant with its docs, its
/// kind tag and its typed fields. Generates the enum, [`TraceEvent::kind`],
/// the `(key, value)` args the Chrome exporter writes (one per field, in
/// declaration order, keyed by the field's name) and the rebuild
/// [`chrome::parse`] reads them back with.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $kind:literal {
                    $($(#[$fmeta:meta])* $field:ident: $ty:ty,)*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $($(#[$vmeta])* $variant { $($(#[$fmeta])* $field: $ty,)* },)*
        }

        impl TraceEvent {
            /// Stable lowercase kind tag used by exporters.
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $kind,)*
                }
            }

            /// Every field as a `(name, value)` arg, in declaration order.
            pub(crate) fn args(&self) -> Vec<(&'static str, Json)> {
                match *self {
                    $(TraceEvent::$variant { $($field),* } => {
                        vec![$((stringify!($field), $field.to_json())),*]
                    })*
                }
            }

            /// Rebuilds the event tagged `kind` from its args.
            pub(crate) fn from_args(kind: &str, args: &Json) -> Result<TraceEvent, String> {
                Ok(match kind {
                    $($kind => TraceEvent::$variant {
                        $($field: read_field(args, kind, stringify!($field))?,)*
                    },)*
                    other => return Err(format!("unknown event kind '{other}'")),
                })
            }
        }
    };
}

label_enum! {
    /// States of the deserializer's field-handler FSM surfaced as
    /// [`TraceEvent::FsmTransition`] instants.
    pub enum FsmState {
        /// Decoding the field key varint (field number + wire type).
        ParseKey = "parse_key",
        /// Looking up the field's ADT type-info entry.
        TypeInfo = "type_info",
        /// Writing a decoded scalar/string/bytes value into the object.
        Write = "write",
        /// Pushing a sub-message frame (descending into a nested message).
        OpenFrame = "open_frame",
        /// Popping a completed sub-message frame.
        CloseFrame = "close_frame",
        /// Skipping an unknown or unrepresentable field.
        Skip = "skip",
    }
}

label_enum! {
    /// Which unit performed an ADT-cache access.
    pub enum AdtUnit {
        /// The deserializer's ADT cache.
        Deser = "deser",
        /// The serializer's ADT cache.
        Ser = "ser",
    }
}

label_enum! {
    /// Access pattern of a memory-system transaction.
    pub enum MemAccessMode {
        /// Blocking per-line probe sequence (`MemSystem::access`).
        Blocking = "blocking",
        /// Streaming burst with overlap and bus modeling (`MemSystem::stream`).
        Stream = "stream",
        /// Pipelined burst hidden behind compute (`MemSystem::pipelined`).
        Pipelined = "pipelined",
    }
}

label_enum! {
    /// Terminal outcome of a serve-cluster command, mirroring the serve
    /// layer's `CommandStatus` discriminants without depending on it.
    pub enum CmdOutcome {
        /// Served by an accelerator instance.
        Ok = "ok",
        /// Served by the CPU software fallback.
        Fallback = "fallback",
        /// Deterministically rejected (malformed input).
        Rejected = "rejected",
        /// Failed after exhausting retries and the fallback ladder.
        Failed = "failed",
        /// Shed by admission control before enqueue: the envelope cost
        /// estimate predicted the request's deadline would be blown.
        Shed = "shed",
    }
}

trace_events! {
    /// One typed trace event. Span events carry an absolute `start` (in the
    /// serve cluster's queue clock when emitted under `ServeCluster`, or in the
    /// unit's own op-relative clock when driven standalone) plus a duration in
    /// `cycles`; instant events carry a single `at` timestamp.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// A request was admitted to the serve queue.
        CmdEnqueue = "cmd_enqueue" {
            /// Command sequence number.
            seq: usize,
            /// Queue-clock admission time.
            at: Cycles,
            /// Wire bytes the command moves.
            wire_bytes: u64,
            /// `true` for deserialize, `false` for serialize.
            deser: bool,
        },
        /// A request was shed because the bounded queue was full.
        CmdDrop = "cmd_drop" {
            /// Command sequence number.
            seq: usize,
            /// Queue-clock drop time.
            at: Cycles,
        },
        /// A request was shed by admission control before enqueue: the
        /// envelope-derived cost estimate predicted its deadline would be
        /// blown. A matching [`TraceEvent::CmdComplete`] with
        /// [`CmdOutcome::Shed`] follows, so span/record accounting stays 1:1.
        CmdShed = "cmd_shed" {
            /// Command sequence number.
            seq: usize,
            /// Queue-clock shed time (the request's arrival).
            at: Cycles,
            /// Absolute deadline the request carried.
            deadline: Cycles,
            /// Envelope-derived completion estimate that blew the deadline.
            estimate: Cycles,
        },
        /// One RPC frame was decoded (or rejected) at the framed transport in
        /// front of the serve queue.
        FrameDecode = "frame_decode" {
            /// Connection index the frame arrived on.
            conn: usize,
            /// Queue-clock decode time.
            at: Cycles,
            /// Declared payload length from the 5-byte prefix (0 when the
            /// prefix itself was truncated).
            len: u64,
            /// `true` for a clean decode, `false` for a typed `FrameError`.
            ok: bool,
        },
        /// A command attempt was dispatched to an instance.
        CmdDispatch = "cmd_dispatch" {
            /// Command sequence number.
            seq: usize,
            /// Queue-clock dispatch time of this attempt.
            at: Cycles,
            /// Instance the attempt ran on ([`FALLBACK_TRACK`] for CPU).
            instance: usize,
            /// 1-based attempt number.
            attempt: u32,
        },
        /// A command attempt failed retryably and will be redispatched.
        CmdRetry = "cmd_retry" {
            /// Command sequence number.
            seq: usize,
            /// Queue-clock time the failed attempt resolved.
            at: Cycles,
            /// Instance the failed attempt ran on.
            instance: usize,
            /// 1-based number of the attempt that failed.
            attempt: u32,
        },
        /// A command fell off the retry ladder onto the CPU fallback path.
        CmdFallback = "cmd_fallback" {
            /// Command sequence number.
            seq: usize,
            /// Queue-clock time the fallback was taken.
            at: Cycles,
        },
        /// A command reached a terminal state; carries the full
        /// `CommandRecord` image so sanitizers can run off the trace alone.
        CmdComplete = "cmd_complete" {
            /// Command sequence number.
            seq: usize,
            /// Queue-clock admission time.
            enqueue: Cycles,
            /// Queue-clock dispatch time of the final attempt.
            dispatch: Cycles,
            /// Queue-clock completion time (`dispatch + service`).
            complete: Cycles,
            /// Service cycles of the final attempt.
            service: Cycles,
            /// Instance the final attempt ran on ([`FALLBACK_TRACK`] for CPU).
            instance: usize,
            /// Wire bytes the command moved.
            wire_bytes: u64,
            /// `true` for deserialize, `false` for serialize.
            deser: bool,
            /// Memory-system sharers during the final attempt.
            sharers: usize,
            /// Total attempts consumed.
            attempts: u32,
            /// Terminal outcome.
            outcome: CmdOutcome,
        },
        /// Audit span for one complete `do_proto_deser` op. Emitted exactly
        /// where `AccelStats::deser_cycles` is accumulated, so the sum of
        /// these spans' `cycles` equals the stats counter by construction.
        DeserOp = "deser_op" {
            /// Accelerator instance.
            instance: usize,
            /// Span start (dispatch time of the op).
            start: Cycles,
            /// Total op cycles (== the amount added to `deser_cycles`).
            cycles: Cycles,
            /// Field-handler FSM component of the op.
            fsm_cycles: Cycles,
            /// Memloader stream component of the op.
            stream_cycles: Cycles,
            /// Wire bytes consumed.
            wire_bytes: u64,
            /// Fields decoded.
            fields: u64,
        },
        /// Audit span for one complete `do_proto_ser` op. Emitted exactly
        /// where `AccelStats::ser_cycles` is accumulated.
        SerOp = "ser_op" {
            /// Accelerator instance.
            instance: usize,
            /// Span start (dispatch time of the op).
            start: Cycles,
            /// Total op cycles (== the amount added to `ser_cycles`).
            cycles: Cycles,
            /// Frontend (field walk) component.
            frontend_cycles: Cycles,
            /// Bottleneck FSU occupancy component.
            fsu_cycles: Cycles,
            /// Memwriter output-port component.
            memwriter_cycles: Cycles,
            /// Serialized output bytes.
            out_len: u64,
            /// Fields encoded.
            fields: u64,
        },
        /// The memloader's up-front streaming prefetch of the wire input.
        MemloaderStream = "memloader_stream" {
            /// Accelerator instance.
            instance: usize,
            /// Span start.
            start: Cycles,
            /// Stream cycles (the memloader bound on the op).
            cycles: Cycles,
            /// Bytes fetched.
            bytes: u64,
            /// 16-byte windows presented to the FSM.
            windows: u64,
        },
        /// Field-handler FSM state-transition instant.
        FsmTransition = "fsm_transition" {
            /// Accelerator instance.
            instance: usize,
            /// FSM-clock timestamp of the transition.
            at: Cycles,
            /// State entered.
            state: FsmState,
            /// Field number being handled (0 at frame boundaries).
            field_number: u32,
        },
        /// Span covering the full handling of one wire-format field.
        Field = "field" {
            /// Accelerator instance.
            instance: usize,
            /// Span start (FSM clock at key parse).
            start: Cycles,
            /// FSM cycles spent on this field.
            cycles: Cycles,
            /// Field number.
            field_number: u32,
        },
        /// One ADT-cache lookup.
        AdtAccess = "adt_access" {
            /// Accelerator instance.
            instance: usize,
            /// Timestamp of the lookup.
            at: Cycles,
            /// Which unit's cache.
            unit: AdtUnit,
            /// `true` on hit, `false` on miss.
            hit: bool,
            /// Cycles the lookup cost (1 on hit, 1 + memory on miss).
            cycles: Cycles,
        },
        /// Occupancy span of one field-serialization unit (FSU).
        FsuOp = "fsu_op" {
            /// Accelerator instance.
            instance: usize,
            /// FSU index within the pool.
            unit: usize,
            /// Span start (the unit's busy-cycle watermark at dispatch).
            start: Cycles,
            /// Cycles this field occupied the unit.
            cycles: Cycles,
            /// Field number serialized.
            field_number: u32,
        },
        /// Memwriter output-port span for one serialize op (reverse writer).
        MemwriterFlush = "memwriter_flush" {
            /// Accelerator instance.
            instance: usize,
            /// Span start.
            start: Cycles,
            /// Output-port occupancy cycles.
            cycles: Cycles,
            /// Bytes written.
            bytes: u64,
        },
        /// One memory-system transaction with its cache-level breakdown.
        MemAccess = "mem_access" {
            /// Requester id (instance, or `instances` for the CPU fallback).
            requester: usize,
            /// Timestamp (memory clock shifted to the configured origin).
            at: Cycles,
            /// Cycles charged for the transaction.
            cycles: Cycles,
            /// Base address.
            addr: u64,
            /// Length in bytes.
            len: u64,
            /// `true` for writes.
            write: bool,
            /// Access pattern.
            mode: MemAccessMode,
            /// Cycles spent in TLB page walks.
            tlb_walk_cycles: Cycles,
            /// Lines served from L1.
            l1_hits: u64,
            /// Lines served from L2.
            l2_hits: u64,
            /// Lines served from the LLC.
            llc_hits: u64,
            /// Lines that went to DRAM.
            dram_accesses: u64,
        },
    }
}

/// Shared tracer handle. The memory system holds an `Option<SharedTracer>`
/// (`None` disables tracing) and records every accelerator unit's events
/// along with its own; the serve cluster and RPC server hold one for their
/// queue and frame events. `Rc` sharing keeps `Clone` working on structs
/// that carry one and lets the caller retain a handle to drain events.
pub type SharedTracer = Rc<RefCell<TraceLog>>;

/// The event sink: collects every event in order. The model only ever
/// appends to it — tracing is strictly observational.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Recorded events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Creates an empty shared log. Keep one clone to drain events and pass
    /// another into the model via `set_tracer`/`set_event_tracer`.
    #[must_use]
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(TraceLog::default()))
    }

    /// Records one event.
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Nearest-rank index for a percentile over `len` sorted samples: the
/// single percentile rule shared by [`metrics::exact_percentile`] (behind
/// `ServeCluster::latency_percentile`) and [`Histogram::percentile`] so the exact and histogram paths always land
/// on the same rank (and therefore in the same log-2 bucket).
///
/// `NaN` maps to 0, the percentile is clamped to `[0, 100]`, and the rank
/// is `round(p/100 * (len-1))`, clamped into range. Returns 0 for empty
/// inputs.
#[must_use]
pub fn nearest_rank(percentile: f64, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let p = if percentile.is_nan() {
        0.0
    } else {
        percentile.clamp(0.0, 100.0)
    };
    let rank = ((p / 100.0) * (len - 1) as f64).round() as usize;
    rank.min(len - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_handles_degenerate_inputs() {
        assert_eq!(nearest_rank(50.0, 0), 0);
        assert_eq!(nearest_rank(f64::NAN, 10), 0);
        assert_eq!(nearest_rank(-5.0, 10), 0);
        assert_eq!(nearest_rank(250.0, 10), 9);
        // Two records: p50 rounds up to the second element.
        assert_eq!(nearest_rank(50.0, 2), 1);
        assert_eq!(nearest_rank(100.0, 7), 6);
        assert_eq!(nearest_rank(0.0, 7), 0);
    }

    #[test]
    fn trace_log_collects_in_order() {
        let log = TraceLog::shared();
        let tracer: SharedTracer = log.clone();
        tracer
            .borrow_mut()
            .record(TraceEvent::CmdDrop { seq: 3, at: 7 });
        tracer.borrow_mut().record(TraceEvent::CmdEnqueue {
            seq: 4,
            at: 9,
            wire_bytes: 100,
            deser: true,
        });
        let events = &log.borrow().events;
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "cmd_drop");
        assert_eq!(events[1].kind(), "cmd_enqueue");
    }

    #[test]
    fn labels_round_trip() {
        for s in [
            FsmState::ParseKey,
            FsmState::TypeInfo,
            FsmState::Write,
            FsmState::OpenFrame,
            FsmState::CloseFrame,
            FsmState::Skip,
        ] {
            assert_eq!(FsmState::from_label(s.label()), Some(s));
        }
        for u in [AdtUnit::Deser, AdtUnit::Ser] {
            assert_eq!(AdtUnit::from_label(u.label()), Some(u));
        }
        for m in [
            MemAccessMode::Blocking,
            MemAccessMode::Stream,
            MemAccessMode::Pipelined,
        ] {
            assert_eq!(MemAccessMode::from_label(m.label()), Some(m));
        }
        for o in [
            CmdOutcome::Ok,
            CmdOutcome::Fallback,
            CmdOutcome::Rejected,
            CmdOutcome::Failed,
            CmdOutcome::Shed,
        ] {
            assert_eq!(CmdOutcome::from_label(o.label()), Some(o));
        }
        assert!(FsmState::from_label("bogus").is_none());
    }
}
