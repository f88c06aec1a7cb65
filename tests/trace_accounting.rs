//! Trace-accounting golden test: one HyperProtoBench service served
//! end-to-end with the structured tracer attached, proving the tracing
//! layer's accounting anchor — per-instance `DeserOp`/`SerOp` span sums
//! equal the cluster's `AccelStats` deser/ser op and cycle counters
//! *exactly*, not approximately — on a clean run and on a run with a
//! mid-stream instance crash (every command span reaches a terminal event;
//! a fault must not leak spans).
//!
//! The fleet-mix run `serve_tail_latency --trace` exports is checked
//! against the whole trace contract: tracing is a pure observer, the audit
//! passes, the records rebuilt from the trace alone equal the live
//! cluster's, the `mem_access` events fold to each instance's live memory
//! counters, and the sanitizer is clean on the trace's footprints.

use protoacc_suite::absint::{from_trace, sanitize};
use protoacc_suite::accel::deser::DeserRun;
use protoacc_suite::accel::ser::SerRun;
use protoacc_suite::accel::{
    AccelConfig, AccelStats, CommandStatus, DispatchPolicy, InstanceFault, InstanceFaultKind,
    ProtoAccelerator, Request, RequestOp, ServeCluster, ServeConfig,
};
use protoacc_suite::bench::serving::{config, fleet_mix, isolated, stream};
use protoacc_suite::hyperbench::{Generator, ServiceProfile};
use protoacc_suite::mem::{Cycles, MemConfig, Memory, RequesterStats};
use protoacc_suite::runtime::{object, reference, write_adts, BumpArena, MessageLayouts};
use protoacc_suite::trace::{audit, ExpectedStats, TraceEvent, TraceLog};

/// Guest-memory map: setup/ADTs, wire inputs, source object graphs,
/// per-request destination objects, per-instance accelerator arenas.
const SETUP_BASE: u64 = 0x1_0000;
const INPUT_BASE: u64 = 0x200_0000;
const OBJECT_BASE: u64 = 0x800_0000;
const DEST_BASE: u64 = 0xC000_0000;
const ARENA_BASE: u64 = 0x1_0000_0000;
const ARENA_STRIDE: u64 = 1 << 24;

const MESSAGES: usize = 24;
/// Small enough to keep both instances saturated, so a scripted crash is
/// guaranteed to cut an in-flight attempt (the interesting accounting case)
/// rather than being noticed between commands.
const GAP: Cycles = 200;

struct TracedRun {
    events: Vec<TraceEvent>,
    expected: Vec<ExpectedStats>,
    cluster: ServeCluster,
}

/// Serves one hyperbench service (bench0, ads-serving) through a traced
/// cluster: two deserializations per serialization over the generated
/// population, every destination object isolated per request.
fn run_service(instances: usize, faults: &[InstanceFault]) -> TracedRun {
    let bench = Generator::new(ServiceProfile::bench(0), 0x7C1).generate(MESSAGES);
    let layouts = MessageLayouts::compute(&bench.schema);
    let mut mem = Memory::new(MemConfig::default());
    let mut setup = BumpArena::new(SETUP_BASE, 1 << 22);
    let adts = write_adts(&bench.schema, &layouts, &mut mem.data, &mut setup).unwrap();
    let layout = layouts.layout(bench.type_id);

    let mut input_cursor = INPUT_BASE;
    let mut objects = BumpArena::new(OBJECT_BASE, 1 << 26);
    let mut dests = BumpArena::new(DEST_BASE, 1 << 28);
    let mut requests = Vec::with_capacity(bench.messages.len());
    for (i, m) in bench.messages.iter().enumerate() {
        let arrival = i as Cycles * GAP;
        let op = if i % 3 == 2 {
            let obj_ptr =
                object::write_message(&mut mem.data, &bench.schema, &layouts, &mut objects, m)
                    .unwrap();
            RequestOp::Serialize {
                adt_ptr: adts.addr(bench.type_id),
                obj_ptr,
                hasbits_offset: layout.hasbits_offset(),
                min_field: layout.min_field(),
                max_field: layout.max_field(),
            }
        } else {
            let wire = reference::encode(m, &bench.schema).unwrap();
            let input_addr = input_cursor;
            mem.data.write_bytes(input_addr, &wire);
            input_cursor += wire.len() as u64 + 64;
            RequestOp::Deserialize {
                adt_ptr: adts.addr(bench.type_id),
                input_addr,
                input_len: wire.len() as u64,
                dest_obj: dests.alloc(layout.object_size(), 8).unwrap(),
                min_field: layout.min_field(),
            }
        };
        requests.push(Request {
            arrival,
            watchdog: None,
            deadline: None,
            cost: None,
            op,
        });
    }

    let cfg = ServeConfig {
        instances,
        queue_depth: 256,
        policy: DispatchPolicy::Fifo,
        ..ServeConfig::default()
    };
    let mut cluster = ServeCluster::new(cfg, ARENA_BASE, ARENA_STRIDE);
    let log = TraceLog::shared();
    cluster.set_tracer(Some(log.clone()));
    cluster
        .run_with(&mut mem, &requests, faults, None)
        .expect("serve run succeeds");
    cluster.set_tracer(None);
    let expected = (0..instances)
        .map(|i| {
            let s = cluster.instance_stats(i);
            s.debug_assert_unsaturated();
            ExpectedStats {
                instance: i,
                deser_ops: s.deser_ops,
                deser_cycles: s.deser_cycles,
                ser_ops: s.ser_ops,
                ser_cycles: s.ser_cycles,
                saturated: s.saturated,
            }
        })
        .collect();
    let events = std::mem::take(&mut log.borrow_mut().events);
    TracedRun {
        events,
        expected,
        cluster,
    }
}

/// Independent re-derivation of the span sums (not via `audit`), so the
/// golden check does not trust the thing it is testing.
fn traced_sums(events: &[TraceEvent], instance: usize) -> (u64, Cycles, u64, Cycles) {
    let mut sums = (0u64, 0u64, 0u64, 0u64);
    for e in events {
        match *e {
            TraceEvent::DeserOp {
                instance: i,
                cycles,
                ..
            } if i == instance => {
                sums.0 += 1;
                sums.1 += cycles;
            }
            TraceEvent::SerOp {
                instance: i,
                cycles,
                ..
            } if i == instance => {
                sums.2 += 1;
                sums.3 += cycles;
            }
            _ => {}
        }
    }
    sums
}

/// What one standalone accelerator run returns, plus its trace.
struct StandaloneRun {
    deser: Vec<DeserRun>,
    ser: Vec<SerRun>,
    stats: AccelStats,
    events: Vec<TraceEvent>,
}

/// Runs bench0 through one `ProtoAccelerator` outside any cluster, with
/// its traffic attributed to requester `requester`: every message
/// deserialized, then every message's object serialized. With `traced`,
/// the tracer is attached to the memory system and nowhere else.
fn run_standalone(requester: usize, traced: bool) -> StandaloneRun {
    let bench = Generator::new(ServiceProfile::bench(0), 0x7C1).generate(MESSAGES);
    let layouts = MessageLayouts::compute(&bench.schema);
    let mut mem = Memory::new(MemConfig::default());
    let mut setup = BumpArena::new(SETUP_BASE, 1 << 22);
    let adts = write_adts(&bench.schema, &layouts, &mut mem.data, &mut setup).unwrap();
    let layout = layouts.layout(bench.type_id);
    let adt = adts.addr(bench.type_id);

    let log = TraceLog::shared();
    if traced {
        mem.system.set_event_tracer(Some(log.clone()));
    }
    mem.system.set_requester(requester);
    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    accel.deser_assign_arena(ARENA_BASE, ARENA_STRIDE);
    accel.ser_assign_arena(
        ARENA_BASE + ARENA_STRIDE,
        ARENA_STRIDE,
        ARENA_BASE + 2 * ARENA_STRIDE,
        1 << 16,
    );
    let mut input_cursor = INPUT_BASE;
    let mut objects = BumpArena::new(OBJECT_BASE, 1 << 26);
    let mut dests = BumpArena::new(DEST_BASE, 1 << 28);
    let mut deser = Vec::with_capacity(MESSAGES);
    for m in &bench.messages {
        let wire = reference::encode(m, &bench.schema).unwrap();
        mem.data.write_bytes(input_cursor, &wire);
        let run = accel.do_proto_deser(
            &mut mem,
            adt,
            input_cursor,
            wire.len() as u64,
            dests.alloc(layout.object_size(), 8).unwrap(),
            layout.min_field(),
        );
        deser.push(run.expect("bench0 deserializes"));
        input_cursor += wire.len() as u64 + 64;
    }
    let mut ser = Vec::with_capacity(MESSAGES);
    for m in &bench.messages {
        let obj =
            object::write_message(&mut mem.data, &bench.schema, &layouts, &mut objects, m).unwrap();
        ser.push(
            accel
                .do_proto_ser(
                    &mut mem,
                    adt,
                    obj,
                    layout.hasbits_offset(),
                    layout.min_field(),
                    layout.max_field(),
                )
                .expect("bench0 serializes"),
        );
    }
    mem.system.set_event_tracer(None);
    let events = std::mem::take(&mut log.borrow_mut().events);
    StandaloneRun {
        deser,
        ser,
        stats: accel.stats(),
        events,
    }
}

#[test]
fn standalone_accelerator_stamps_its_events_with_the_memory_requester() {
    const REQUESTER: usize = 3;
    let run = run_standalone(REQUESTER, true);

    // Every unit event, and every memory access under it, carries the
    // requester id the memory system was given: no instance id is set
    // anywhere else.
    let mut kinds = std::collections::BTreeSet::new();
    for e in &run.events {
        let stamped = match *e {
            TraceEvent::DeserOp { instance, .. }
            | TraceEvent::SerOp { instance, .. }
            | TraceEvent::MemloaderStream { instance, .. }
            | TraceEvent::FsmTransition { instance, .. }
            | TraceEvent::Field { instance, .. }
            | TraceEvent::AdtAccess { instance, .. }
            | TraceEvent::FsuOp { instance, .. }
            | TraceEvent::MemwriterFlush { instance, .. } => instance,
            TraceEvent::MemAccess { requester, .. } => requester,
            ref other => panic!("a standalone accelerator traced {}", other.kind()),
        };
        assert_eq!(stamped, REQUESTER, "{} carries the wrong id", e.kind());
        kinds.insert(e.kind());
    }
    assert_eq!(
        kinds.len(),
        9,
        "every unit event kind and mem_access must appear, got {kinds:?}"
    );

    let stats = run.stats;
    assert_eq!(stats.deser_ops, MESSAGES as u64);
    assert_eq!(stats.ser_ops, MESSAGES as u64);
    let expected = [ExpectedStats {
        instance: REQUESTER,
        deser_ops: stats.deser_ops,
        deser_cycles: stats.deser_cycles,
        ser_ops: stats.ser_ops,
        ser_cycles: stats.ser_cycles,
        saturated: stats.saturated,
    }];
    let report = audit(&run.events, &expected);
    assert!(report.ok(), "audit problems: {:?}", report.problems);

    // Tracing is a pure observer of the standalone accelerator too.
    let untraced = run_standalone(REQUESTER, false);
    assert!(untraced.events.is_empty());
    assert_eq!(untraced.deser, run.deser);
    assert_eq!(untraced.ser, run.ser);
    assert_eq!(untraced.stats, run.stats);
}

#[test]
fn clean_hyperbench_service_traced_spans_sum_exactly_to_accel_stats() {
    let run = run_service(2, &[]);
    assert_eq!(run.cluster.served(), MESSAGES as u64);
    assert_eq!(run.cluster.dropped(), 0);

    for exp in &run.expected {
        let (dops, dcyc, sops, scyc) = traced_sums(&run.events, exp.instance);
        assert_eq!(
            (dops, dcyc, sops, scyc),
            (exp.deser_ops, exp.deser_cycles, exp.ser_ops, exp.ser_cycles),
            "instance {} traced span sums diverge from AccelStats",
            exp.instance
        );
    }
    let report = audit(&run.events, &run.expected);
    assert!(report.ok(), "audit problems: {:?}", report.problems);
    assert!(report.leaked.is_empty());
    assert!(report.duplicated.is_empty());
    assert!(run.events.len() > MESSAGES, "trace is suspiciously sparse");
}

#[test]
fn mid_stream_instance_crash_closes_every_span_and_keeps_the_accounting_exact() {
    // Mid-stream, well past the last arrival but inside the busy window the
    // saturated queue creates: instance 0 has a command in flight when the
    // crash fires, so the attempt is cut short and retried elsewhere.
    let crash = InstanceFault {
        instance: 0,
        at: 8_000,
        kind: InstanceFaultKind::Crash,
    };
    let run = run_service(2, &[crash]);

    // The fault must actually have fired and been absorbed by failover.
    assert_eq!(run.cluster.records().len(), MESSAGES);
    assert!(
        run.cluster
            .records()
            .iter()
            .any(|r| r.attempts > 1 || r.instance == 1),
        "the crash never perturbed the schedule"
    );
    assert!(
        run.cluster
            .records()
            .iter()
            .all(|r| matches!(r.status, CommandStatus::Ok)),
        "with a healthy second instance every command still completes: {:?}",
        run.cluster.status_counts()
    );

    // Accounting stays exact through the fault: killed attempts charge the
    // instance counters and the traced spans identically, and no command
    // span is left open.
    for exp in &run.expected {
        let (dops, dcyc, sops, scyc) = traced_sums(&run.events, exp.instance);
        assert_eq!(
            (dops, dcyc, sops, scyc),
            (exp.deser_ops, exp.deser_cycles, exp.ser_ops, exp.ser_cycles),
            "instance {} accounting diverged under the crash",
            exp.instance
        );
    }
    let report = audit(&run.events, &run.expected);
    assert!(report.ok(), "audit problems: {:?}", report.problems);
    assert!(
        report.leaked.is_empty(),
        "crash leaked command spans: {:?}",
        report.leaked
    );

    // The degradation is visible in the trace itself: the retry marker
    // rides the event stream, so an offline consumer can see the failover.
    assert!(
        run.events
            .iter()
            .any(|e| matches!(e, TraceEvent::CmdRetry { .. })),
        "no retry event traced for a mid-stream crash"
    );
}

#[test]
fn traced_fleet_run_is_a_pure_observer_and_rebuilds_from_its_trace() {
    let mix = fleet_mix(8);
    let cfg = config(2, 16, DispatchPolicy::Fifo);
    let events = stream(&mix, 48, 5_000.0);
    let base = isolated(&mix, &events, cfg, false);
    let run = isolated(&mix, &events, cfg, true);
    assert_eq!(
        base.fingerprint(),
        run.fingerprint(),
        "tracing perturbed the run"
    );
    let cell = &run.outcomes()[0];
    let evs = &cell.events;
    let report = audit(evs, &run.expected_stats());
    assert!(report.ok(), "audit problems: {:?}", report.problems);
    assert_eq!(report.per_instance.len(), cfg.instances);

    // Trace-derived records reproduce the live cluster's, down to the
    // status discriminant (the typed fault detail does not survive export).
    let (trecords, toffered, tdropped) = from_trace::records_from_trace(evs);
    assert_eq!((toffered, tdropped), (cell.offered, cell.dropped));
    assert_eq!(trecords.len(), cell.records.len());
    for (t, l) in trecords.iter().zip(&cell.records) {
        assert_eq!(
            (t.seq, t.enqueue, t.dispatch, t.complete, t.service, t.instance),
            (l.seq, l.enqueue, l.dispatch, l.complete, l.service, l.instance),
            "record {} diverged",
            l.seq
        );
        assert_eq!(
            (t.wire_bytes, t.deser, t.sharers, t.attempts),
            (l.wire_bytes, l.deser, l.sharers, l.attempts),
            "record {} diverged",
            l.seq
        );
        assert_eq!(
            std::mem::discriminant(&t.status),
            std::mem::discriminant(&l.status),
            "record {} diverged",
            l.seq
        );
    }

    // Every memory access rides the event stream: folding each instance's
    // `mem_access` events reproduces its live requester counters exactly.
    for (instance, live) in cell.mem_stats.iter().enumerate() {
        let mut folded = RequesterStats::default();
        for e in evs {
            if let TraceEvent::MemAccess {
                requester,
                len,
                cycles,
                l1_hits,
                l2_hits,
                llc_hits,
                dram_accesses,
                ..
            } = *e
            {
                if requester == instance {
                    folded.accesses += 1;
                    folded.bytes += len;
                    folded.cycles += cycles;
                    folded.l1_hits += l1_hits;
                    folded.l2_hits += l2_hits;
                    folded.llc_hits += llc_hits;
                    folded.dram_accesses += dram_accesses;
                }
            }
        }
        assert!(live.accesses > 0, "instance {instance} issued no traffic");
        assert_eq!(folded, *live, "instance {instance} memory accounting");
    }

    // The sanitizer is clean on the live records and on the records
    // rebuilt from the trace, both with the trace's footprints.
    let footprints = from_trace::footprints_from_trace(evs, cfg.instances);
    let live = sanitize(
        &cell.records,
        &footprints,
        cfg.instances,
        cell.offered,
        cell.dropped,
        &[],
    );
    assert!(live.is_empty(), "live sanitizer: {live:?}");
    let derived = from_trace::sanitize_trace(evs, cfg.instances, &[]);
    assert!(derived.is_empty(), "trace-derived sanitizer: {derived:?}");
}
