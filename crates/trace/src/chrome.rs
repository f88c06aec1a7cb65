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
//! The [`json`](crate::json) module writes and reads the file: [`export`]
//! builds a [`Json`] value and hands it to the shared writer, and [`parse`]
//! reads the events back out of the shared parser's value.

use crate::audit::ExpectedStats;
use crate::json::{self, Json};
use crate::{AdtUnit, CmdOutcome, FsmState, MemAccessMode, TraceEvent, FALLBACK_TRACK};

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

/// `(key, value)` args named after the event's own fields: `field` takes
/// the binding of that name, `field = expr` a derived value.
macro_rules! args {
    ($($field:ident $(= $value:expr)?),* $(,)?) => {
        vec![$((stringify!($field), Json::from(args!(@value $field $($value)?)))),*]
    };
    (@value $field:ident) => { $field };
    (@value $field:ident $value:expr) => { $value };
}

struct EventJson {
    name: String,
    pid: u64,
    tid: u64,
    ts: u64,
    /// `Some(dur)` renders a complete ("X") span, `None` an instant ("i").
    dur: Option<u64>,
    /// Every field of the event; the exporter puts its `kind` in front.
    args: Vec<(&'static str, Json)>,
}

fn evt_json(e: &TraceEvent) -> EventJson {
    match *e {
        TraceEvent::CmdEnqueue {
            seq,
            at,
            wire_bytes,
            deser,
        } => EventJson {
            name: format!("enqueue#{seq}"),
            pid: 0,
            tid: 0,
            ts: at,
            dur: None,
            args: args![seq, at, wire_bytes, deser],
        },
        TraceEvent::CmdDrop { seq, at } => EventJson {
            name: format!("drop#{seq}"),
            pid: 0,
            tid: 0,
            ts: at,
            dur: None,
            args: args![seq, at],
        },
        TraceEvent::CmdShed {
            seq,
            at,
            deadline,
            estimate,
        } => EventJson {
            name: format!("shed#{seq}"),
            pid: 0,
            tid: 0,
            ts: at,
            dur: None,
            args: args![seq, at, deadline, estimate],
        },
        TraceEvent::FrameDecode { conn, at, len, ok } => EventJson {
            name: format!("frame@{conn}"),
            pid: 0,
            tid: 0,
            ts: at,
            dur: None,
            args: args![conn, at, len, ok],
        },
        TraceEvent::CmdDispatch {
            seq,
            at,
            instance,
            attempt,
        } => EventJson {
            name: format!("dispatch#{seq}"),
            pid: 0,
            tid: display_tid(instance) + 1,
            ts: at,
            dur: None,
            args: args![seq, at, instance, attempt],
        },
        TraceEvent::CmdRetry {
            seq,
            at,
            instance,
            attempt,
        } => EventJson {
            name: format!("retry#{seq}"),
            pid: 0,
            tid: display_tid(instance) + 1,
            ts: at,
            dur: None,
            args: args![seq, at, instance, attempt],
        },
        TraceEvent::CmdFallback { seq, at } => EventJson {
            name: format!("fallback#{seq}"),
            pid: 0,
            tid: 0,
            ts: at,
            dur: None,
            args: args![seq, at],
        },
        TraceEvent::CmdComplete {
            seq,
            enqueue,
            dispatch,
            complete,
            service,
            instance,
            wire_bytes,
            deser,
            sharers,
            attempts,
            outcome,
        } => EventJson {
            name: format!("cmd#{seq}"),
            pid: 0,
            tid: display_tid(instance) + 1,
            ts: dispatch,
            dur: Some(service),
            args: args![
                seq,
                enqueue,
                dispatch,
                complete,
                service,
                instance,
                wire_bytes,
                deser,
                sharers,
                attempts,
                outcome = outcome.label()
            ],
        },
        TraceEvent::DeserOp {
            instance,
            start,
            cycles,
            fsm_cycles,
            stream_cycles,
            wire_bytes,
            fields,
        } => EventJson {
            name: "deser_op".to_string(),
            pid: 1,
            tid: display_tid(instance),
            ts: start,
            dur: Some(cycles),
            args: args![
                instance,
                start,
                cycles,
                fsm_cycles,
                stream_cycles,
                wire_bytes,
                fields
            ],
        },
        TraceEvent::SerOp {
            instance,
            start,
            cycles,
            frontend_cycles,
            fsu_cycles,
            memwriter_cycles,
            out_len,
            fields,
        } => EventJson {
            name: "ser_op".to_string(),
            pid: 1,
            tid: display_tid(instance),
            ts: start,
            dur: Some(cycles),
            args: args![
                instance,
                start,
                cycles,
                frontend_cycles,
                fsu_cycles,
                memwriter_cycles,
                out_len,
                fields
            ],
        },
        TraceEvent::MemloaderStream {
            instance,
            start,
            cycles,
            bytes,
            windows,
        } => EventJson {
            name: "memloader".to_string(),
            pid: 1,
            tid: display_tid(instance),
            ts: start,
            dur: Some(cycles),
            args: args![instance, start, cycles, bytes, windows],
        },
        TraceEvent::FsmTransition {
            instance,
            at,
            state,
            field_number,
        } => EventJson {
            name: format!("fsm:{}", state.label()),
            pid: 1,
            tid: display_tid(instance),
            ts: at,
            dur: None,
            args: args![instance, at, state = state.label(), field_number],
        },
        TraceEvent::Field {
            instance,
            start,
            cycles,
            field_number,
        } => EventJson {
            name: format!("field#{field_number}"),
            pid: 1,
            tid: display_tid(instance),
            ts: start,
            dur: Some(cycles),
            args: args![instance, start, cycles, field_number],
        },
        TraceEvent::AdtAccess {
            instance,
            at,
            unit,
            hit,
            cycles,
        } => EventJson {
            name: format!("adt:{}", if hit { "hit" } else { "miss" }),
            pid: 1,
            tid: display_tid(instance),
            ts: at,
            dur: None,
            args: args![instance, at, unit = unit.label(), hit, cycles],
        },
        TraceEvent::FsuOp {
            instance,
            unit,
            start,
            cycles,
            field_number,
        } => EventJson {
            name: format!("fsu#{unit}"),
            pid: 2,
            tid: display_tid(instance) * 256 + unit as u64,
            ts: start,
            dur: Some(cycles),
            args: args![instance, unit, start, cycles, field_number],
        },
        TraceEvent::MemwriterFlush {
            instance,
            start,
            cycles,
            bytes,
        } => EventJson {
            name: "memwriter".to_string(),
            pid: 2,
            tid: display_tid(instance) * 256 + 255,
            ts: start,
            dur: Some(cycles),
            args: args![instance, start, cycles, bytes],
        },
        TraceEvent::MemAccess {
            requester,
            at,
            cycles,
            addr,
            len,
            write,
            mode,
            tlb_walk_cycles,
            l1_hits,
            l2_hits,
            llc_hits,
            dram_accesses,
        } => EventJson {
            name: format!("mem:{}", mode.label()),
            pid: 3,
            tid: requester as u64,
            ts: at,
            dur: Some(cycles),
            args: args![
                requester,
                at,
                cycles,
                addr,
                len,
                write,
                mode = mode.label(),
                tlb_walk_cycles,
                l1_hits,
                l2_hits,
                llc_hits,
                dram_accesses
            ],
        },
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
    let j = evt_json(e);
    let mut members = vec![("name", Json::Str(j.name)), ("cat", "protoacc".into())];
    match j.dur {
        Some(dur) => members.extend([("ph", "X".into()), ("ts", j.ts.into()), ("dur", dur.into())]),
        None => members.extend([("ph", "i".into()), ("ts", j.ts.into()), ("s", "t".into())]),
    }
    let args = std::iter::once(("kind", e.kind().into())).chain(j.args);
    members.extend([
        ("pid", j.pid.into()),
        ("tid", j.tid.into()),
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

/// Reads `args[key]` with `read`, naming `kind` and `key` when it is
/// missing or of the wrong type.
fn field<'j, T>(
    args: &'j Json,
    key: &str,
    kind: &str,
    read: impl FnOnce(&'j Json) -> Option<T>,
) -> Result<T, String> {
    args.get(key)
        .and_then(read)
        .ok_or_else(|| format!("{kind} event missing or mistyped field '{key}'"))
}

#[allow(clippy::too_many_lines)]
fn event_from_args(args: &Json) -> Result<Option<TraceEvent>, String> {
    let Some(kind) = args.get("kind").and_then(Json::as_str) else {
        // Metadata events (process names) carry no kind tag.
        return Ok(None);
    };
    let u = |key: &str| field(args, key, kind, Json::as_u64);
    let b = |key: &str| field(args, key, kind, Json::as_bool);
    let s = |key: &str| field(args, key, kind, Json::as_str);
    let event = match kind {
        "cmd_enqueue" => TraceEvent::CmdEnqueue {
            seq: u("seq")? as usize,
            at: u("at")?,
            wire_bytes: u("wire_bytes")?,
            deser: b("deser")?,
        },
        "cmd_drop" => TraceEvent::CmdDrop {
            seq: u("seq")? as usize,
            at: u("at")?,
        },
        "cmd_shed" => TraceEvent::CmdShed {
            seq: u("seq")? as usize,
            at: u("at")?,
            deadline: u("deadline")?,
            estimate: u("estimate")?,
        },
        "frame_decode" => TraceEvent::FrameDecode {
            conn: u("conn")? as usize,
            at: u("at")?,
            len: u("len")?,
            ok: b("ok")?,
        },
        "cmd_dispatch" => TraceEvent::CmdDispatch {
            seq: u("seq")? as usize,
            at: u("at")?,
            instance: u("instance")? as usize,
            attempt: u("attempt")? as u32,
        },
        "cmd_retry" => TraceEvent::CmdRetry {
            seq: u("seq")? as usize,
            at: u("at")?,
            instance: u("instance")? as usize,
            attempt: u("attempt")? as u32,
        },
        "cmd_fallback" => TraceEvent::CmdFallback {
            seq: u("seq")? as usize,
            at: u("at")?,
        },
        "cmd_complete" => {
            let outcome = s("outcome")?;
            TraceEvent::CmdComplete {
                seq: u("seq")? as usize,
                enqueue: u("enqueue")?,
                dispatch: u("dispatch")?,
                complete: u("complete")?,
                service: u("service")?,
                instance: u("instance")? as usize,
                wire_bytes: u("wire_bytes")?,
                deser: b("deser")?,
                sharers: u("sharers")? as usize,
                attempts: u("attempts")? as u32,
                outcome: CmdOutcome::from_label(outcome)
                    .ok_or_else(|| format!("unknown outcome '{outcome}'"))?,
            }
        }
        "deser_op" => TraceEvent::DeserOp {
            instance: u("instance")? as usize,
            start: u("start")?,
            cycles: u("cycles")?,
            fsm_cycles: u("fsm_cycles")?,
            stream_cycles: u("stream_cycles")?,
            wire_bytes: u("wire_bytes")?,
            fields: u("fields")?,
        },
        "ser_op" => TraceEvent::SerOp {
            instance: u("instance")? as usize,
            start: u("start")?,
            cycles: u("cycles")?,
            frontend_cycles: u("frontend_cycles")?,
            fsu_cycles: u("fsu_cycles")?,
            memwriter_cycles: u("memwriter_cycles")?,
            out_len: u("out_len")?,
            fields: u("fields")?,
        },
        "memloader_stream" => TraceEvent::MemloaderStream {
            instance: u("instance")? as usize,
            start: u("start")?,
            cycles: u("cycles")?,
            bytes: u("bytes")?,
            windows: u("windows")?,
        },
        "fsm_transition" => {
            let state = s("state")?;
            TraceEvent::FsmTransition {
                instance: u("instance")? as usize,
                at: u("at")?,
                state: FsmState::from_label(state)
                    .ok_or_else(|| format!("unknown fsm state '{state}'"))?,
                field_number: u("field_number")? as u32,
            }
        }
        "field" => TraceEvent::Field {
            instance: u("instance")? as usize,
            start: u("start")?,
            cycles: u("cycles")?,
            field_number: u("field_number")? as u32,
        },
        "adt_access" => {
            let unit = s("unit")?;
            TraceEvent::AdtAccess {
                instance: u("instance")? as usize,
                at: u("at")?,
                unit: AdtUnit::from_label(unit)
                    .ok_or_else(|| format!("unknown adt unit '{unit}'"))?,
                hit: b("hit")?,
                cycles: u("cycles")?,
            }
        }
        "fsu_op" => TraceEvent::FsuOp {
            instance: u("instance")? as usize,
            unit: u("unit")? as usize,
            start: u("start")?,
            cycles: u("cycles")?,
            field_number: u("field_number")? as u32,
        },
        "memwriter_flush" => TraceEvent::MemwriterFlush {
            instance: u("instance")? as usize,
            start: u("start")?,
            cycles: u("cycles")?,
            bytes: u("bytes")?,
        },
        "mem_access" => {
            let mode = s("mode")?;
            TraceEvent::MemAccess {
                requester: u("requester")? as usize,
                at: u("at")?,
                cycles: u("cycles")?,
                addr: u("addr")?,
                len: u("len")?,
                write: b("write")?,
                mode: MemAccessMode::from_label(mode)
                    .ok_or_else(|| format!("unknown access mode '{mode}'"))?,
                tlb_walk_cycles: u("tlb_walk_cycles")?,
                l1_hits: u("l1_hits")?,
                l2_hits: u("l2_hits")?,
                llc_hits: u("llc_hits")?,
                dram_accesses: u("dram_accesses")?,
            }
        }
        other => return Err(format!("unknown event kind '{other}'")),
    };
    Ok(Some(event))
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
        .ok_or_else(|| "missing schema_version".to_string())? as u32;
    if schema_version != SCHEMA_VERSION {
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
        let Some(args) = raw.get("args") else {
            continue;
        };
        if let Some(event) = event_from_args(args)? {
            events.push(event);
        }
    }
    let mut expected = Vec::new();
    if let Some(list) = root
        .get("otherData")
        .and_then(|o| o.get("expected_stats"))
        .and_then(Json::as_arr)
    {
        for s in list {
            let u = |key: &str| field(s, key, "expected_stats", Json::as_u64);
            expected.push(ExpectedStats {
                instance: u("instance")? as usize,
                deser_ops: u("deser_ops")?,
                deser_cycles: u("deser_cycles")?,
                ser_ops: u("ser_ops")?,
                ser_cycles: u("ser_cycles")?,
                saturated: field(s, "saturated", "expected_stats", Json::as_bool)?,
            });
        }
    }
    Ok(ParsedTrace {
        schema_version,
        events,
        expected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
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
        ]
    }

    #[test]
    fn export_parse_round_trips_every_event_kind() {
        let events = sample_events();
        let expected = vec![ExpectedStats {
            instance: 1,
            deser_ops: 1,
            deser_cycles: 52,
            ser_ops: 1,
            ser_cycles: 44,
            saturated: false,
        }];
        let json = export(&events, &expected);
        let parsed = parse(&json).expect("round trip");
        assert_eq!(parsed.schema_version, SCHEMA_VERSION);
        assert_eq!(parsed.events, events);
        assert_eq!(parsed.expected, expected);
    }

    #[test]
    fn export_is_versioned_and_rejects_other_versions() {
        let json = export(&[], &[]);
        assert!(json.contains("\"schema_version\": 1"));
        let bumped = json.replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = parse(&bumped).unwrap_err();
        assert!(err.contains("unsupported schema_version"), "{err}");
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
