//! End-to-end tests of the serve-model race/hazard sanitizer: a traced
//! [`ServeCluster`] run, its memory footprints rebuilt from the trace,
//! replayed through [`protoacc_suite::absint::sanitize`] and the lint
//! severity machinery.
//!
//! * a clean concurrent run (per-request destination objects) produces no
//!   findings;
//! * deliberately sharing one destination object across simultaneous
//!   deserializations trips PA009 (arena aliasing);
//! * tampered command records trip PA008 (lifecycle ordering);
//! * artificially tightened envelopes trip PA007 — proving the envelope
//!   check actually compares against the measured service times;
//! * the serving studies' fleet mix, run concurrently on 1, 2 and 4
//!   instances with isolated destination objects, stays inside its
//!   envelopes and produces no findings;
//! * the same mix served through the RPC server at twice saturation, with
//!   deadlines, keeps a clean command lifecycle.

use protoacc_suite::absint::from_trace::footprints_from_trace;
use protoacc_suite::absint::{self, CommandFootprint, Envelope, ServiceBounds};
use protoacc_suite::accel::{
    check_lifecycle, AccelConfig, CommandRecord, DispatchPolicy, Request, RequestOp, ServeCluster,
    ServeConfig,
};
use protoacc_suite::bench::serving::{
    calibrate, config, fleet_mix, isolated, open_loop, stream, Staging, RPC_INSTANCES,
};
use protoacc_suite::lint::{findings_to_diagnostics, DiagCode, LintConfig, Severity};
use protoacc_suite::mem::{MemConfig, Memory};
use protoacc_suite::runtime::{
    object, reference, write_adts, BumpArena, MessageLayouts, MessageValue, Value,
};
use protoacc_suite::schema::{parse_proto, MessageId, Schema};
use protoacc_suite::trace::TraceLog;

const ARENA_BASE: u64 = 0x1_0000_0000;
const ARENA_STRIDE: u64 = 1 << 24;

struct Fixture {
    schema: Schema,
    id: MessageId,
    mem: Memory,
    adt_ptr: u64,
    min_field: u32,
    max_field: u32,
    hasbits_offset: u64,
    object_size: u64,
    input_addr: u64,
    input_len: u64,
    obj_ptr: u64,
    dests: BumpArena,
}

fn fixture() -> Fixture {
    let schema = parse_proto(
        "message Req { optional uint64 id = 1; optional string body = 2; \
         optional bytes blob = 3; }",
    )
    .unwrap();
    let id = schema.id_by_name("Req").unwrap();
    let layouts = MessageLayouts::compute(&schema);
    let mut mem = Memory::new(MemConfig::default());
    let mut setup = BumpArena::new(0x1000, 1 << 20);
    let adts = write_adts(&schema, &layouts, &mut mem.data, &mut setup).unwrap();
    let mut msg = MessageValue::new(id);
    msg.set(1, Value::UInt64(42)).unwrap();
    msg.set(2, Value::Str("sanitize this serving run".into()))
        .unwrap();
    msg.set(3, Value::Bytes(vec![0xAB; 400])).unwrap();
    let wire = reference::encode(&msg, &schema).unwrap();
    let input_addr = 0x20_0000;
    mem.data.write_bytes(input_addr, &wire);
    let layout = layouts.layout(id);
    let mut obj_arena = BumpArena::new(0x30_0000, 1 << 20);
    let obj_ptr =
        object::write_message(&mut mem.data, &schema, &layouts, &mut obj_arena, &msg).unwrap();
    Fixture {
        id,
        mem,
        adt_ptr: adts.addr(id),
        min_field: layout.min_field(),
        max_field: layout.max_field(),
        hasbits_offset: layout.hasbits_offset(),
        object_size: layout.object_size(),
        input_addr,
        input_len: wire.len() as u64,
        obj_ptr,
        dests: BumpArena::new(0x40_0000, 1 << 24),
        schema,
    }
}

impl Fixture {
    fn deser_request(&mut self, arrival: u64, fresh_dest: bool, shared_dest: u64) -> Request {
        let dest_obj = if fresh_dest {
            self.dests.alloc(self.object_size, 8).unwrap()
        } else {
            shared_dest
        };
        Request {
            arrival,
            watchdog: None,
            deadline: None,
            cost: None,
            op: RequestOp::Deserialize {
                adt_ptr: self.adt_ptr,
                input_addr: self.input_addr,
                input_len: self.input_len,
                dest_obj,
                min_field: self.min_field,
            },
        }
    }

    fn ser_request(&self, arrival: u64) -> Request {
        Request {
            arrival,
            watchdog: None,
            deadline: None,
            cost: None,
            op: RequestOp::Serialize {
                adt_ptr: self.adt_ptr,
                obj_ptr: self.obj_ptr,
                hasbits_offset: self.hasbits_offset,
                min_field: self.min_field,
                max_field: self.max_field,
            },
        }
    }

    /// Runs `requests` on a traced cluster and returns it with the
    /// per-command footprints rebuilt from its trace.
    fn run(
        &mut self,
        instances: usize,
        requests: &[Request],
    ) -> (ServeCluster, Vec<CommandFootprint>) {
        let mut cluster = ServeCluster::new(
            ServeConfig {
                instances,
                queue_depth: 64,
                policy: DispatchPolicy::Fifo,
                ..ServeConfig::default()
            },
            ARENA_BASE,
            ARENA_STRIDE,
        );
        let log = TraceLog::shared();
        cluster.set_tracer(Some(log.clone()));
        cluster.run(&mut self.mem, requests).unwrap();
        cluster.set_tracer(None);
        let footprints = footprints_from_trace(&log.borrow().events, instances);
        (cluster, footprints)
    }

    /// Static per-record service bounds from the absint envelopes.
    fn bounds(&self, records: &[CommandRecord]) -> Vec<ServiceBounds> {
        let layouts = MessageLayouts::compute(&self.schema);
        let accel = AccelConfig::default();
        let mem_cfg = MemConfig::default();
        let denv = Envelope::deser(&self.schema, &layouts, self.id, &accel, &mem_cfg);
        let senv = Envelope::ser(&self.schema, &layouts, self.id, &accel, &mem_cfg);
        records
            .iter()
            .map(|r| {
                let env = if r.deser { &denv } else { &senv };
                let b = env.service_bounds(r.wire_bytes, r.sharers);
                ServiceBounds {
                    seq: r.seq,
                    lower: b.lower,
                    upper: b.upper,
                }
            })
            .collect()
    }
}

#[test]
fn clean_concurrent_run_produces_no_findings() {
    let mut f = fixture();
    // Simultaneous arrivals across 2 instances: genuine time overlap, but
    // every deserialization gets its own destination object.
    let requests: Vec<Request> = (0..12)
        .map(|i| {
            if i % 3 == 2 {
                f.ser_request(0)
            } else {
                f.deser_request(0, true, 0)
            }
        })
        .collect();
    let (cluster, footprints) = f.run(2, &requests);
    assert!(
        cluster.records().iter().any(|r| r.sharers > 1),
        "fixture must actually exercise concurrency"
    );
    let bounds = f.bounds(cluster.records());
    let findings = absint::sanitize(
        cluster.records(),
        &footprints,
        2,
        requests.len() as u64,
        cluster.dropped(),
        &bounds,
    );
    assert!(findings.is_empty(), "clean run flagged: {findings:?}");
}

#[test]
fn shared_destination_across_instances_trips_pa009() {
    let mut f = fixture();
    let shared = f.dests.alloc(f.object_size, 8).unwrap();
    // Two simultaneous deserializations into the SAME destination object:
    // with 2 instances both run at cycle 0 and their write ranges collide.
    let requests = vec![
        f.deser_request(0, false, shared),
        f.deser_request(0, false, shared),
    ];
    let (cluster, footprints) = f.run(2, &requests);
    let bounds = f.bounds(cluster.records());
    let findings = absint::sanitize(
        cluster.records(),
        &footprints,
        2,
        requests.len() as u64,
        cluster.dropped(),
        &bounds,
    );
    let aliasing: Vec<_> = findings
        .iter()
        .filter(|x| x.code == DiagCode::ArenaAliasing)
        .collect();
    assert!(!aliasing.is_empty(), "shared dest must alias: {findings:?}");
    // And nothing else fired: the hazard is isolated to PA009.
    assert_eq!(aliasing.len(), findings.len(), "{findings:?}");

    // Through the lint mapping it denies as PA009.
    let diags = findings_to_diagnostics(&findings, &LintConfig::default());
    assert!(diags
        .iter()
        .all(|d| d.code == DiagCode::ArenaAliasing && d.severity == Severity::Deny));

    // Serializing the shared object concurrently only *reads* it: no hazard.
    let requests = vec![f.ser_request(0), f.ser_request(0)];
    let (cluster, footprints) = f.run(2, &requests);
    let bounds = f.bounds(cluster.records());
    let findings = absint::sanitize(
        cluster.records(),
        &footprints,
        2,
        2,
        cluster.dropped(),
        &bounds,
    );
    assert!(
        findings.is_empty(),
        "read-read sharing flagged: {findings:?}"
    );
}

#[test]
fn tampered_records_trip_pa008() {
    let mut f = fixture();
    let requests: Vec<Request> = (0..6).map(|_| f.deser_request(0, true, 0)).collect();
    let (cluster, _) = f.run(2, &requests);
    let mut records = cluster.records().to_vec();

    // Rewind one dispatch before its enqueue: a causality violation no
    // legal scheduler can produce.
    records[3].dispatch = records[3].enqueue.saturating_sub(1);
    let findings = check_lifecycle(&records, 2, requests.len() as u64, 0);
    assert!(
        findings.iter().any(|x| x.seq == Some(records[3].seq)),
        "{findings:?}"
    );

    // Duplicate sequence numbers are double-retirement.
    let mut records = cluster.records().to_vec();
    records[1].seq = records[0].seq;
    let findings = check_lifecycle(&records, 2, requests.len() as u64, 1);
    assert!(
        findings.iter().any(|x| x.detail.contains("duplicate")),
        "{findings:?}"
    );

    // Accounting: completed + dropped must equal offered.
    let findings = check_lifecycle(cluster.records(), 2, requests.len() as u64 + 5, 0);
    assert!(findings.iter().any(|x| x.seq.is_none()), "{findings:?}");

    // The untampered records are clean.
    let findings = check_lifecycle(cluster.records(), 2, requests.len() as u64, 0);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn tightened_envelopes_trip_pa007() {
    let mut f = fixture();
    let requests: Vec<Request> = (0..4).map(|_| f.deser_request(0, true, 0)).collect();
    let (cluster, _) = f.run(1, &requests);
    let honest = f.bounds(cluster.records());
    assert!(
        absint::check_envelopes(cluster.records(), &honest).is_empty(),
        "honest envelopes must pass"
    );

    // Claim every command finishes in at most 1 cycle: every record is now
    // out of envelope, proving the check reads the measured service times.
    let impossible: Vec<ServiceBounds> = honest
        .iter()
        .map(|b| ServiceBounds {
            seq: b.seq,
            lower: 0,
            upper: 1,
        })
        .collect();
    let findings = absint::check_envelopes(cluster.records(), &impossible);
    assert_eq!(findings.len(), cluster.records().len());
    assert!(findings
        .iter()
        .all(|x| x.code == DiagCode::EnvelopeViolation));

    // A floor above the measured time also violates (two-sided check).
    let too_high: Vec<ServiceBounds> = cluster
        .records()
        .iter()
        .map(|r| ServiceBounds {
            seq: r.seq,
            lower: r.service + 1,
            upper: u64::MAX,
        })
        .collect();
    let findings = absint::check_envelopes(cluster.records(), &too_high);
    assert_eq!(findings.len(), cluster.records().len());
}

#[test]
fn fleet_mix_runs_clean_at_every_width() {
    let mix = fleet_mix(8);
    let envelopes = Staging::new(&mix, &mut Memory::new(MemConfig::default())).envelopes(&mix);
    let events = stream(&mix, 96, 2_000.0);
    for instances in [1usize, 2, 4] {
        let run = isolated(
            &mix,
            &events,
            config(instances, 32, DispatchPolicy::Fifo),
            true,
        );
        let cell = &run.outcomes()[0];
        assert_eq!(cell.records.len(), events.len(), "n={instances}");
        if instances > 1 {
            assert!(
                cell.records.iter().any(|r| r.sharers > 1),
                "n={instances}: no two commands overlapped"
            );
        }
        let bounds: Vec<ServiceBounds> = cell
            .records
            .iter()
            .map(|r| {
                let (deser_env, ser_env) = &envelopes[events[r.seq].prototype];
                let env = if r.deser { deser_env } else { ser_env };
                let b = env.service_bounds(r.wire_bytes, r.sharers);
                ServiceBounds {
                    seq: r.seq,
                    lower: b.lower,
                    upper: b.upper,
                }
            })
            .collect();
        let findings = absint::sanitize(
            &cell.records,
            &footprints_from_trace(&cell.events, instances),
            instances,
            events.len() as u64,
            cell.dropped,
            &bounds,
        );
        let diagnostics = findings_to_diagnostics(&findings, &LintConfig::default());
        assert!(
            diagnostics.is_empty(),
            "n={instances}: {}",
            diagnostics
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn rpc_overload_keeps_a_clean_lifecycle() {
    let mix = fleet_mix(8);
    let gap = calibrate(&mix) / (RPC_INSTANCES as f64 * 2.0);
    let srv = open_loop(&mix, 512, gap, Some(4));
    let cluster = srv.cluster();
    assert!(cluster.shed() > 0, "2x overload must shed");
    let findings = check_lifecycle(
        cluster.records(),
        RPC_INSTANCES,
        cluster.offered(),
        cluster.dropped(),
    );
    assert!(findings.is_empty(), "{findings:?}");
}
