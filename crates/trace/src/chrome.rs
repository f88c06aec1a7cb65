//! Chrome-trace-event JSON exporter and re-parser.
//!
//! [`export`] renders an event stream into the Chrome trace-event format
//! (the JSON-object flavor with a `traceEvents` array), loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. Track
//! layout:
//!
//! * **pid 0 "serve cluster"** — command lifecycle: one span per completed
//!   command plus enqueue/drop/retry/fallback instants.
//! * **pid 1 "accelerator"** — one tid (track) per instance: `DeserOp` /
//!   `SerOp` audit spans with memloader / per-field sub-spans and FSM /
//!   ADT instants.
//! * **pid 2 "fsu"** — one tid per (instance, FSU) pair: occupancy spans,
//!   plus the memwriter's output-port span on its own tid.
//! * **pid 3 "memory"** — one tid per requester: individual transactions
//!   with their cache-level breakdown in `args`.
//!
//! Timestamps map cycles 1:1 onto the format's microsecond field. Every
//! event carries its full field set under `args` (tagged with `kind`), so
//! [`parse`] can reconstruct the exact [`TraceEvent`] stream — that
//! round-trip, plus re-running the accounting audit against the embedded
//! `expected_stats`, is the `ci.sh` trace gate. Like the lint report, the
//! file carries a versioned [`SCHEMA_VERSION`] field.
//!
//! The [`json`] module writes and reads the file: [`export`]
//! builds a [`Json`] value and hands it to the shared writer, and [`parse`]
//! reads the events back out of the shared parser's value.

use crate::audit::ExpectedStats;
use crate::json::{self, Json};
use crate::{read_field, TraceEvent, FALLBACK_TRACK};

/// Version of the trace JSON schema produced by [`export`].
pub const SCHEMA_VERSION: u32 = 1;

/// Displayed tid for serve/accelerator events attributed to the CPU
/// fallback path (`usize::MAX` itself would render as an unwieldy track
/// id; `args.instance` still carries the exact value).
const CPU_TID: u64 = 9_999;

fn display_tid(instance: usize) -> u64 {
    if instance == FALLBACK_TRACK {
        CPU_TID
    } else {
        instance as u64
    }
}

/// How one event is drawn: its name, its track (`pid`, `tid`), its
/// timestamp and, for a complete ("X") span, its duration; `dur: None`
/// draws an instant ("i"). Its `args` come from its declaration in
/// [`TraceEvent`].
struct Drawn {
    name: String,
    pid: u64,
    tid: u64,
    ts: u64,
    dur: Option<u64>,
}

fn instant(name: impl Into<String>, pid: u64, tid: u64, at: u64) -> Drawn {
    let name = name.into();
    Drawn {
        name,
        pid,
        tid,
        ts: at,
        dur: None,
    }
}

fn span(name: impl Into<String>, pid: u64, tid: u64, start: u64, cycles: u64) -> Drawn {
    let name = name.into();
    Drawn {
        name,
        pid,
        tid,
        ts: start,
        dur: Some(cycles),
    }
}

/// The one presentation arm per event kind.
fn drawn(e: &TraceEvent) -> Drawn {
    use TraceEvent as E;
    // Serve-cluster tracks: tid 0 for the queue, one per instance above it.
    let cmd_tid = |instance| display_tid(instance) + 1;
    match *e {
        E::CmdEnqueue { seq, at, .. } => instant(format!("enqueue#{seq}"), 0, 0, at),
        E::CmdDrop { seq, at } => instant(format!("drop#{seq}"), 0, 0, at),
        E::CmdShed { seq, at, .. } => instant(format!("shed#{seq}"), 0, 0, at),
        E::FrameDecode { conn, at, .. } => instant(format!("frame@{conn}"), 0, 0, at),
        E::CmdDispatch {
            seq, at, instance, ..
        } => instant(format!("dispatch#{seq}"), 0, cmd_tid(instance), at),
        E::CmdRetry {
            seq, at, instance, ..
        } => instant(format!("retry#{seq}"), 0, cmd_tid(instance), at),
        E::CmdFallback { seq, at } => instant(format!("fallback#{seq}"), 0, 0, at),
        E::CmdComplete {
            seq,
            dispatch,
            service,
            instance,
            ..
        } => span(
            format!("cmd#{seq}"),
            0,
            cmd_tid(instance),
            dispatch,
            service,
        ),
        E::DeserOp {
            instance,
            start,
            cycles,
            ..
        } => span("deser_op", 1, display_tid(instance), start, cycles),
        E::SerOp {
            instance,
            start,
            cycles,
            ..
        } => span("ser_op", 1, display_tid(instance), start, cycles),
        E::MemloaderStream {
            instance,
            start,
            cycles,
            ..
        } => span("memloader", 1, display_tid(instance), start, cycles),
        E::FsmTransition {
            instance,
            at,
            state,
            ..
        } => instant(
            format!("fsm:{}", state.label()),
            1,
            display_tid(instance),
            at,
        ),
        E::Field {
            instance,
            start,
            cycles,
            field_number,
        } => span(
            format!("field#{field_number}"),
            1,
            display_tid(instance),
            start,
            cycles,
        ),
        E::AdtAccess {
            instance, at, hit, ..
        } => {
            let name = if hit { "adt:hit" } else { "adt:miss" };
            instant(name, 1, display_tid(instance), at)
        }
        E::FsuOp {
            instance,
            unit,
            start,
            cycles,
            ..
        } => {
            let tid = display_tid(instance) * 256 + unit as u64;
            span(format!("fsu#{unit}"), 2, tid, start, cycles)
        }
        E::MemwriterFlush {
            instance,
            start,
            cycles,
            ..
        } => span(
            "memwriter",
            2,
            display_tid(instance) * 256 + 255,
            start,
            cycles,
        ),
        E::MemAccess {
            requester,
            at,
            cycles,
            mode,
            ..
        } => span(
            format!("mem:{}", mode.label()),
            3,
            requester as u64,
            at,
            cycles,
        ),
    }
}

/// Renders an event stream plus the per-instance `AccelStats` image into
/// Chrome trace-event JSON. The `expected` block makes the file
/// self-contained for the CI accounting audit: a consumer can re-parse the
/// file and re-verify `sum(op spans) == AccelStats cycles` without access
/// to the run that produced it.
#[must_use]
pub fn export(events: &[TraceEvent], expected: &[ExpectedStats]) -> String {
    // Process-name metadata so Perfetto labels the tracks.
    let metadata = [
        (0u64, "serve cluster"),
        (1, "accelerator"),
        (2, "fsu"),
        (3, "memory"),
    ]
    .map(|(pid, name)| {
        Json::obj([
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("tid", 0u64.into()),
            ("name", "process_name".into()),
            ("args", Json::obj([("name", name.into())])),
        ])
    });
    let trace_events = metadata.into_iter().chain(events.iter().map(event_obj));
    let expected_stats = expected.iter().map(|s| {
        Json::obj([
            ("instance", s.instance.into()),
            ("deser_ops", s.deser_ops.into()),
            ("deser_cycles", s.deser_cycles.into()),
            ("ser_ops", s.ser_ops.into()),
            ("ser_cycles", s.ser_cycles.into()),
            ("saturated", s.saturated.into()),
        ])
    });
    json::write(&Json::obj([
        ("schema_version", SCHEMA_VERSION.into()),
        ("displayTimeUnit", "ns".into()),
        ("traceEvents", Json::Arr(trace_events.collect())),
        (
            "otherData",
            Json::obj([("expected_stats", Json::Arr(expected_stats.collect()))]),
        ),
    ]))
}

fn event_obj(e: &TraceEvent) -> Json {
    let Drawn {
        name,
        pid,
        tid,
        ts,
        dur,
    } = drawn(e);
    let mut members = vec![("name", Json::Str(name)), ("cat", "protoacc".into())];
    match dur {
        Some(dur) => members.extend([("ph", "X".into()), ("ts", ts.into()), ("dur", dur.into())]),
        None => members.extend([("ph", "i".into()), ("ts", ts.into()), ("s", "t".into())]),
    }
    let args = std::iter::once(("kind", e.kind().into())).chain(e.args());
    members.extend([
        ("pid", pid.into()),
        ("tid", tid.into()),
        ("args", Json::obj(args)),
    ]);
    Json::obj(members)
}

/// A trace file reconstructed by [`parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrace {
    /// Schema version stamped by the exporter.
    pub schema_version: u32,
    /// The reconstructed event stream, in file order.
    pub events: Vec<TraceEvent>,
    /// The embedded per-instance `AccelStats` image.
    pub expected: Vec<ExpectedStats>,
}

/// Parses a trace file produced by [`export`] back into its event stream
/// and embedded expected-stats block.
///
/// # Errors
///
/// Returns a description of the first structural problem: malformed JSON,
/// a missing or unsupported `schema_version`, or an event whose `args` do
/// not reconstruct a known [`TraceEvent`].
pub fn parse(text: &str) -> Result<ParsedTrace, String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let schema_version = root
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing schema_version".to_string())?;
    if schema_version != u64::from(SCHEMA_VERSION) {
        return Err(format!(
            "unsupported schema_version {schema_version} (expected {SCHEMA_VERSION})"
        ));
    }
    let mut events = Vec::new();
    for raw in root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_string())?
    {
        // Metadata events (process names) carry no kind tag.
        let Some(args) = raw.get("args") else {
            continue;
        };
        if let Some(kind) = args.get("kind").and_then(Json::as_str) {
            events.push(TraceEvent::from_args(kind, args)?);
        }
    }
    let mut expected = Vec::new();
    if let Some(list) = root
        .get("otherData")
        .and_then(|o| o.get("expected_stats"))
        .and_then(Json::as_arr)
    {
        for s in list {
            let kind = "expected_stats";
            expected.push(ExpectedStats {
                instance: read_field(s, kind, "instance")?,
                deser_ops: read_field(s, kind, "deser_ops")?,
                deser_cycles: read_field(s, kind, "deser_cycles")?,
                ser_ops: read_field(s, kind, "ser_ops")?,
                ser_cycles: read_field(s, kind, "ser_cycles")?,
                saturated: read_field(s, kind, "saturated")?,
            });
        }
    }
    Ok(ParsedTrace {
        schema_version: SCHEMA_VERSION,
        events,
        expected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdtUnit, CmdOutcome, FsmState, MemAccessMode};

    fn sample_events() -> Vec<TraceEvent> {
        let mut events = vec![
            TraceEvent::CmdEnqueue {
                seq: 0,
                at: 10,
                wire_bytes: 128,
                deser: true,
            },
            TraceEvent::CmdDispatch {
                seq: 0,
                at: 12,
                instance: 1,
                attempt: 1,
            },
            TraceEvent::MemloaderStream {
                instance: 1,
                start: 12,
                cycles: 40,
                bytes: 128,
                windows: 8,
            },
            TraceEvent::FsmTransition {
                instance: 1,
                at: 13,
                state: FsmState::ParseKey,
                field_number: 3,
            },
            TraceEvent::AdtAccess {
                instance: 1,
                at: 14,
                unit: AdtUnit::Deser,
                hit: false,
                cycles: 21,
            },
            TraceEvent::Field {
                instance: 1,
                start: 13,
                cycles: 9,
                field_number: 3,
            },
            TraceEvent::DeserOp {
                instance: 1,
                start: 12,
                cycles: 52,
                fsm_cycles: 30,
                stream_cycles: 52,
                wire_bytes: 128,
                fields: 4,
            },
            TraceEvent::FsuOp {
                instance: 1,
                unit: 2,
                start: 5,
                cycles: 7,
                field_number: 8,
            },
            TraceEvent::MemwriterFlush {
                instance: 1,
                start: 20,
                cycles: 6,
                bytes: 96,
            },
            TraceEvent::SerOp {
                instance: 1,
                start: 70,
                cycles: 44,
                frontend_cycles: 20,
                fsu_cycles: 44,
                memwriter_cycles: 12,
                out_len: 96,
                fields: 4,
            },
            TraceEvent::MemAccess {
                requester: 1,
                at: 15,
                cycles: 20,
                addr: 0xdead_beef,
                len: 64,
                write: false,
                mode: MemAccessMode::Stream,
                tlb_walk_cycles: 0,
                l1_hits: 3,
                l2_hits: 1,
                llc_hits: 0,
                dram_accesses: 0,
            },
            TraceEvent::CmdRetry {
                seq: 0,
                at: 60,
                instance: 1,
                attempt: 1,
            },
            TraceEvent::CmdFallback { seq: 0, at: 61 },
            TraceEvent::CmdComplete {
                seq: 0,
                enqueue: 10,
                dispatch: 62,
                complete: 120,
                service: 58,
                instance: FALLBACK_TRACK,
                wire_bytes: 128,
                deser: true,
                sharers: 1,
                attempts: 2,
                outcome: CmdOutcome::Fallback,
            },
            TraceEvent::CmdDrop { seq: 1, at: 11 },
            TraceEvent::CmdShed {
                seq: 2,
                at: 13,
                deadline: 500,
                estimate: 900,
            },
            TraceEvent::FrameDecode {
                conn: 3,
                at: 9,
                len: 77,
                ok: false,
            },
            TraceEvent::CmdComplete {
                seq: 2,
                enqueue: 13,
                dispatch: 13,
                complete: 14,
                service: 1,
                instance: FALLBACK_TRACK,
                wire_bytes: 0,
                deser: false,
                sharers: 1,
                attempts: 0,
                outcome: CmdOutcome::Shed,
            },
        ];
        // Every label of the four label enums, and the largest value of
        // each integer field type.
        events.extend(
            [
                FsmState::ParseKey,
                FsmState::TypeInfo,
                FsmState::Write,
                FsmState::OpenFrame,
                FsmState::CloseFrame,
                FsmState::Skip,
            ]
            .into_iter()
            .map(|state| TraceEvent::FsmTransition {
                instance: 0,
                at: 21,
                state,
                field_number: u32::MAX,
            }),
        );
        events.push(TraceEvent::AdtAccess {
            instance: 0,
            at: u64::MAX,
            unit: AdtUnit::Ser,
            hit: true,
            cycles: 1,
        });
        events.extend(
            [MemAccessMode::Blocking, MemAccessMode::Pipelined]
                .into_iter()
                .map(|mode| TraceEvent::MemAccess {
                    requester: usize::MAX,
                    at: 30,
                    cycles: u64::MAX,
                    addr: u64::MAX,
                    len: 1,
                    write: true,
                    mode,
                    tlb_walk_cycles: 4,
                    l1_hits: 0,
                    l2_hits: 0,
                    llc_hits: 1,
                    dram_accesses: u64::MAX,
                }),
        );
        events.extend(
            [CmdOutcome::Ok, CmdOutcome::Rejected, CmdOutcome::Failed]
                .into_iter()
                .map(|outcome| TraceEvent::CmdComplete {
                    seq: usize::MAX,
                    enqueue: 0,
                    dispatch: 1,
                    complete: u64::MAX,
                    service: u64::MAX - 1,
                    instance: usize::MAX - 1,
                    wire_bytes: u64::MAX,
                    deser: true,
                    sharers: usize::MAX,
                    attempts: u32::MAX,
                    outcome,
                }),
        );
        events.push(TraceEvent::CmdDispatch {
            seq: usize::MAX,
            at: u64::MAX,
            instance: 0,
            attempt: u32::MAX,
        });
        events
    }

    fn sample_expected() -> Vec<ExpectedStats> {
        vec![ExpectedStats {
            instance: 1,
            deser_ops: 1,
            deser_cycles: 52,
            ser_ops: 1,
            ser_cycles: 44,
            saturated: false,
        }]
    }

    #[test]
    fn export_parse_round_trips_every_event_kind() {
        let events = sample_events();
        let expected = sample_expected();
        let json = export(&events, &expected);
        let parsed = parse(&json).expect("round trip");
        assert_eq!(parsed.schema_version, SCHEMA_VERSION);
        assert_eq!(parsed.events, events);
        assert_eq!(parsed.expected, expected);
    }

    /// Pins the exported bytes: key names, key order and layout. The
    /// round trip cannot see a key renamed on both sides; this can.
    #[test]
    fn export_matches_golden_file() {
        let golden = include_str!("../tests/golden/sample_trace.json");
        assert_eq!(
            export(&sample_events(), &sample_expected()),
            golden,
            "Chrome trace bytes drifted from tests/golden/sample_trace.json"
        );
    }

    /// A `u32` field given a value past `u32::MAX` is a typed error, not
    /// a silent truncation.
    #[test]
    fn out_of_range_u32_fields_are_mistyped_not_truncated() {
        for (kind, key, others) in [
            (
                "cmd_dispatch",
                "attempt",
                r#""seq": 0, "at": 0, "instance": 0"#,
            ),
            (
                "cmd_retry",
                "attempt",
                r#""seq": 0, "at": 0, "instance": 0"#,
            ),
            (
                "cmd_complete",
                "attempts",
                r#""seq": 0, "enqueue": 0, "dispatch": 0, "complete": 0, "service": 0,
                   "instance": 0, "wire_bytes": 0, "deser": true, "sharers": 1,
                   "outcome": "ok""#,
            ),
            (
                "fsm_transition",
                "field_number",
                r#""instance": 0, "at": 0, "state": "skip""#,
            ),
            (
                "field",
                "field_number",
                r#""instance": 0, "start": 0, "cycles": 0"#,
            ),
            (
                "fsu_op",
                "field_number",
                r#""instance": 0, "unit": 0, "start": 0, "cycles": 0"#,
            ),
        ] {
            let trace = |value: u64| {
                format!(
                    r#"{{"schema_version": 1, "traceEvents": [{{"args": {{"kind": "{kind}", {others}, "{key}": {value}}}}}]}}"#
                )
            };
            assert!(parse(&trace(u64::from(u32::MAX))).is_ok(), "{kind}");
            let err = parse(&trace(u64::from(u32::MAX) + 1)).unwrap_err();
            assert_eq!(
                err,
                format!("{kind} event missing or mistyped field '{key}'")
            );
        }
    }

    #[test]
    fn export_is_versioned_and_rejects_other_versions() {
        let json = export(&[], &[]);
        assert!(json.contains("\"schema_version\": 1"));
        // 2^32 + 1 would read as version 1 if truncated to u32.
        for other in ["99", "4294967297"] {
            let bumped = json.replace(
                "\"schema_version\": 1",
                &format!("\"schema_version\": {other}"),
            );
            let err = parse(&bumped).unwrap_err();
            assert!(err.contains("unsupported schema_version"), "{err}");
        }
    }

    #[test]
    fn parser_rejects_malformed_json() {
        assert!(parse("{").is_err());
        assert!(parse("[]").is_err());
        assert!(parse("{\"schema_version\":1}").is_err());
        assert!(
            parse("{\"schema_version\":1,\"traceEvents\":[{\"args\":{\"kind\":\"nope\"}}]}")
                .is_err()
        );
    }

    #[test]
    fn deeply_nested_trace_events_are_an_error_not_a_crash() {
        let bomb = format!(
            "{{\"schema_version\": 1, \"traceEvents\": {}}}",
            "[".repeat(1_000_000)
        );
        let err = parse(&bomb).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
    }
}
