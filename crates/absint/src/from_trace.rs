//! Reconstructing sanitizer inputs from a structured trace stream.
//!
//! The sanitizer consumes [`CommandRecord`]s and [`CommandFootprint`]s.
//! Records come straight from the serving model or from the trace, whose
//! `cmd_complete` events carry the full record image; footprints come only
//! from the trace, whose `mem_access` events carry every byte range each
//! requester touched. This module rebuilds both inputs from events alone,
//! so PA007–PA009 can run off a trace file with no access to the cluster
//! that produced it.
//!
//! Reconstruction is exact for everything the sanitizer checks, with one
//! deliberate loss: the trace records *that* a command was rejected or
//! failed, not the typed [`DecodeFault`] detail, so rebuilt statuses carry a
//! representative fault. Compare statuses by discriminant, not by value.

use protoacc::serve::CommandStatus;
use protoacc::{CommandRecord, DecodeFault};
use protoacc_trace::{CmdOutcome, TraceEvent};

use crate::{sanitize, CommandFootprint, Finding, ServiceBounds};

/// Rebuilds the per-command records plus the `(offered, dropped)` totals
/// from a trace stream.
///
/// Every admitted command emits `cmd_enqueue` and exactly one
/// `cmd_complete`; overflow drops emit `cmd_drop` instead, and
/// admission-shed commands emit `cmd_shed` (plus a terminal `cmd_complete`,
/// but deliberately no `cmd_enqueue` — they never occupy a queue slot), so
/// the offered total is `enqueued + dropped + shed`. Statuses are rebuilt
/// from the outcome tag with a representative fault (the typed detail does
/// not survive the trace).
#[must_use]
pub fn records_from_trace(events: &[TraceEvent]) -> (Vec<CommandRecord>, u64, u64) {
    let mut records = Vec::new();
    let mut enqueued: u64 = 0;
    let mut dropped: u64 = 0;
    let mut shed: u64 = 0;
    for e in events {
        match *e {
            TraceEvent::CmdEnqueue { .. } => enqueued += 1,
            TraceEvent::CmdDrop { .. } => dropped += 1,
            TraceEvent::CmdShed { .. } => shed += 1,
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
            } => records.push(CommandRecord {
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
                status: match outcome {
                    CmdOutcome::Ok => CommandStatus::Ok,
                    CmdOutcome::Fallback => CommandStatus::Fallback,
                    CmdOutcome::Rejected => CommandStatus::Rejected(DecodeFault::SchemaMismatch),
                    CmdOutcome::Failed => CommandStatus::Failed(DecodeFault::InstanceFailure),
                    CmdOutcome::Shed => CommandStatus::Shed,
                },
            }),
            _ => {}
        }
    }
    (records, enqueued + dropped + shed, dropped)
}

/// Rebuilds per-command memory footprints from a trace stream.
///
/// Attribution follows the event stream's execution order: a
/// `cmd_dispatch` binds its instance's subsequent `mem_access` events to
/// that command (a retry dispatch resets the command's footprint, so only
/// the last attempt counts), and a `cmd_fallback` binds the software path's
/// requester id (`instances`) to the command, replacing the
/// accelerator-attempt footprint once CPU traffic actually flows. A range
/// running past the top of the address space ends at `u64::MAX`.
#[must_use]
pub fn footprints_from_trace(events: &[TraceEvent], instances: usize) -> Vec<CommandFootprint> {
    use std::collections::HashMap;
    type RangeLists = (Vec<(u64, u64)>, Vec<(u64, u64)>);
    // requester id -> seq currently executing on it.
    let mut current: HashMap<usize, usize> = HashMap::new();
    // seq -> raw (reads, writes) ranges.
    let mut acc: HashMap<usize, RangeLists> = HashMap::new();
    // seqs whose accelerator-attempt footprint is to be discarded as soon as
    // fallback-path traffic arrives.
    let mut fallback_pending: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut order: Vec<usize> = Vec::new();
    for e in events {
        match *e {
            TraceEvent::CmdDispatch { seq, instance, .. } => {
                current.insert(instance, seq);
                // A (re-)dispatch restarts the command's capture.
                acc.insert(seq, (Vec::new(), Vec::new()));
            }
            TraceEvent::CmdFallback { seq, .. } => {
                current.insert(instances, seq);
                fallback_pending.insert(seq);
                acc.entry(seq).or_default();
            }
            TraceEvent::CmdComplete { seq, .. } => order.push(seq),
            TraceEvent::MemAccess {
                requester,
                addr,
                len,
                write,
                ..
            } => {
                let Some(&seq) = current.get(&requester) else {
                    continue;
                };
                if requester == instances && fallback_pending.remove(&seq) {
                    acc.insert(seq, (Vec::new(), Vec::new()));
                }
                let entry = acc.entry(seq).or_default();
                // Clamped at the top of the address space, as the memory
                // system clamps the access itself.
                let range = (addr, addr.saturating_add(len));
                if write {
                    entry.1.push(range);
                } else {
                    entry.0.push(range);
                }
            }
            _ => {}
        }
    }
    let merge = |mut ranges: Vec<(u64, u64)>| -> Vec<(u64, u64)> {
        ranges.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (lo, hi) in ranges {
            match merged.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        merged
    };
    order
        .into_iter()
        .map(|seq| {
            let (reads, writes) = acc.remove(&seq).unwrap_or_default();
            CommandFootprint {
                seq,
                reads: merge(reads),
                writes: merge(writes),
            }
        })
        .collect()
}

/// Runs the full sanitizer ([`sanitize`]) over inputs reconstructed from a
/// trace stream: the PA007–PA009 checks see exactly what they would have
/// seen from the live cluster.
#[must_use]
pub fn sanitize_trace(
    events: &[TraceEvent],
    instances: usize,
    bounds: &[ServiceBounds],
) -> Vec<Finding> {
    let (records, offered, dropped) = records_from_trace(events);
    let footprints = footprints_from_trace(events, instances);
    sanitize(&records, &footprints, instances, offered, dropped, bounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(seq: usize, instance: usize, outcome: CmdOutcome) -> TraceEvent {
        TraceEvent::CmdComplete {
            seq,
            enqueue: 0,
            dispatch: 10,
            complete: 30,
            service: 20,
            instance,
            wire_bytes: 64,
            deser: true,
            sharers: 1,
            attempts: 1,
            outcome,
        }
    }

    #[test]
    fn records_rebuild_with_accounting_totals() {
        let events = vec![
            TraceEvent::CmdEnqueue {
                seq: 0,
                at: 0,
                wire_bytes: 64,
                deser: true,
            },
            TraceEvent::CmdDrop { seq: 1, at: 0 },
            complete(0, 0, CmdOutcome::Ok),
            // Admission-shed command: cmd_shed + terminal complete, no
            // cmd_enqueue — it still counts toward the offered total.
            TraceEvent::CmdShed {
                seq: 2,
                at: 0,
                deadline: 100,
                estimate: 900,
            },
            complete(2, protoacc_trace::FALLBACK_TRACK, CmdOutcome::Shed),
        ];
        let (records, offered, dropped) = records_from_trace(&events);
        assert_eq!(records.len(), 2);
        assert_eq!((offered, dropped), (3, 1));
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[0].status, CommandStatus::Ok);
        assert_eq!(records[0].service, 20);
        assert_eq!(records[1].status, CommandStatus::Shed);
    }

    #[test]
    fn footprints_attribute_accesses_and_reset_on_retry() {
        let access = |requester: usize, addr: u64, write: bool| TraceEvent::MemAccess {
            requester,
            at: 12,
            cycles: 4,
            addr,
            len: 16,
            write,
            mode: protoacc_trace::MemAccessMode::Blocking,
            tlb_walk_cycles: 0,
            l1_hits: 1,
            l2_hits: 0,
            llc_hits: 0,
            dram_accesses: 0,
        };
        let events = vec![
            TraceEvent::CmdDispatch {
                seq: 0,
                at: 10,
                instance: 0,
                attempt: 1,
            },
            access(0, 0x1000, false),
            // Retry on instance 1: the first attempt's ranges are discarded.
            TraceEvent::CmdDispatch {
                seq: 0,
                at: 50,
                instance: 1,
                attempt: 2,
            },
            access(1, 0x2000, false),
            access(1, 0x3000, true),
            complete(0, 1, CmdOutcome::Ok),
        ];
        let fps = footprints_from_trace(&events, 2);
        assert_eq!(fps.len(), 1);
        assert_eq!(fps[0].reads, vec![(0x2000, 0x2010)]);
        assert_eq!(fps[0].writes, vec![(0x3000, 0x3010)]);
    }

    #[test]
    fn fallback_traffic_replaces_the_accelerator_attempt_footprint() {
        let access = |requester: usize, addr: u64| TraceEvent::MemAccess {
            requester,
            at: 12,
            cycles: 4,
            addr,
            len: 8,
            write: false,
            mode: protoacc_trace::MemAccessMode::Blocking,
            tlb_walk_cycles: 0,
            l1_hits: 1,
            l2_hits: 0,
            llc_hits: 0,
            dram_accesses: 0,
        };
        let events = vec![
            TraceEvent::CmdDispatch {
                seq: 3,
                at: 10,
                instance: 0,
                attempt: 1,
            },
            access(0, 0x1000),
            TraceEvent::CmdFallback { seq: 3, at: 40 },
            access(2, 0x9000), // CPU requester for a 2-instance cluster
            complete(3, protoacc_trace::FALLBACK_TRACK, CmdOutcome::Fallback),
        ];
        let fps = footprints_from_trace(&events, 2);
        assert_eq!(fps.len(), 1);
        assert_eq!(fps[0].reads, vec![(0x9000, 0x9008)]);
    }

    #[test]
    fn ranges_end_at_the_top_of_the_address_space() {
        use protoacc_mem::{AccessKind, MemConfig, MemSystem};
        let mut sys = MemSystem::new(MemConfig::default());
        let log = protoacc_trace::TraceLog::shared();
        sys.set_event_tracer(Some(log.clone()));
        // Runs 4 bytes past u64::MAX; the memory system clamps it there.
        sys.access(u64::MAX - 3, 8, AccessKind::Read);
        let mut events = vec![TraceEvent::CmdDispatch {
            seq: 0,
            at: 0,
            instance: 0,
            attempt: 1,
        }];
        events.append(&mut log.borrow_mut().events);
        events.push(complete(0, 0, CmdOutcome::Ok));
        let fps = footprints_from_trace(&events, 1);
        assert_eq!(fps[0].reads, vec![(u64::MAX - 3, u64::MAX)]);
    }

    #[test]
    fn a_traced_cluster_run_gives_each_command_its_ranges() {
        use protoacc::{Request, RequestOp, ServeCluster, ServeConfig};
        use protoacc_mem::{MemConfig, Memory};
        use protoacc_runtime::{
            object, reference, write_adts, BumpArena, MessageLayouts, MessageValue, Value,
        };

        let schema = protoacc_schema::parse_proto(
            "message Req { optional uint64 id = 1; optional string body = 2; }",
        )
        .unwrap();
        let id = schema.id_by_name("Req").unwrap();
        let layouts = MessageLayouts::compute(&schema);
        let layout = layouts.layout(id);
        let mut mem = Memory::new(MemConfig::default());
        let mut setup = BumpArena::new(0x1000, 1 << 20);
        let adts = write_adts(&schema, &layouts, &mut mem.data, &mut setup).unwrap();
        let mut msg = MessageValue::new(id);
        msg.set(1, Value::UInt64(42)).unwrap();
        msg.set(2, Value::Str("serve me".into())).unwrap();
        let wire = reference::encode(&msg, &schema).unwrap();
        let input_addr = 0x20_0000;
        let input_end = input_addr + wire.len() as u64;
        mem.data.write_bytes(input_addr, &wire);
        let mut objects = BumpArena::new(0x30_0000, 1 << 20);
        let obj_ptr =
            object::write_message(&mut mem.data, &schema, &layouts, &mut objects, &msg).unwrap();
        let dest_obj = objects.alloc(layout.object_size(), 8).unwrap();
        let requests: Vec<Request> = (0..8u64)
            .map(|i| Request {
                arrival: i * 50,
                watchdog: None,
                deadline: None,
                cost: None,
                op: if i % 2 == 0 {
                    RequestOp::Deserialize {
                        adt_ptr: adts.addr(id),
                        input_addr,
                        input_len: wire.len() as u64,
                        dest_obj,
                        min_field: layout.min_field(),
                    }
                } else {
                    RequestOp::Serialize {
                        adt_ptr: adts.addr(id),
                        obj_ptr,
                        hasbits_offset: layout.hasbits_offset(),
                        min_field: layout.min_field(),
                        max_field: layout.max_field(),
                    }
                },
            })
            .collect();
        let mut cluster = ServeCluster::new(
            ServeConfig {
                instances: 2,
                ..ServeConfig::default()
            },
            0x1_0000_0000,
            1 << 24,
        );
        let log = protoacc_trace::TraceLog::shared();
        cluster.set_tracer(Some(log.clone()));
        cluster.run(&mut mem, &requests).unwrap();

        let fps = footprints_from_trace(&log.borrow().events, 2);
        assert_eq!(fps.len(), cluster.records().len());
        for (fp, r) in fps.iter().zip(cluster.records()) {
            assert_eq!(fp.seq, r.seq);
            assert!(!fp.reads.is_empty(), "cmd {} read nothing", r.seq);
            assert!(!fp.writes.is_empty(), "cmd {} wrote nothing", r.seq);
            for &(lo, hi) in fp.reads.iter().chain(&fp.writes) {
                assert!(lo < hi, "empty range");
            }
            // Every deser command reads its whole wire input.
            if r.deser {
                assert!(
                    fp.reads
                        .iter()
                        .any(|&(lo, hi)| lo <= input_addr && hi >= input_end),
                    "cmd {} missing wire read",
                    r.seq
                );
            }
        }
    }

    #[test]
    fn sanitize_trace_flags_a_lifecycle_leak() {
        // One enqueue, no terminal event: accounting must complain.
        let events = vec![TraceEvent::CmdEnqueue {
            seq: 0,
            at: 0,
            wire_bytes: 8,
            deser: true,
        }];
        let findings = sanitize_trace(&events, 1, &[]);
        assert!(findings
            .iter()
            .any(|f| f.code == crate::DiagCode::LifecycleOrder));
    }
}
