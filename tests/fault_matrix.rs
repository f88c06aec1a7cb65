//! Fault-matrix acceptance test: every (fault class x plane) injection
//! through the serve cluster resolves to a typed verdict or completes
//! correctly — zero panics, zero hangs, no silent corruption.
//!
//! The three planes of `protoacc-faults` each get a matrix row:
//!
//! * **wire plane** — every [`WireFault`] class applied to every staged
//!   prototype resolves to `Ok` or a typed `Rejected(DecodeFault)` whose
//!   category is an input property (framing/schema/semantic), never a
//!   hardware excuse;
//! * **memory plane** — armed ECC/stall faults surface as retryable
//!   hardware faults that the degradation ladder absorbs (retry on a
//!   different instance, then the software fallback);
//! * **instance plane** — scripted crash/hang/slow instances are recovered
//!   by the absint-derived watchdog ceiling plus failover, and the cluster
//!   keeps serving 100% of offered load.
//!
//! Watchdogs are derived statically: the abstract-interpretation envelope's
//! `service_bounds(wire_len, instances).upper` is a sound ceiling for a
//! correct command, so the nominal run must complete with zero kills while
//! every hang is recovered at exactly that bound.

use protoacc_suite::absint::Envelope;
use protoacc_suite::accel::{
    CommandStatus, DispatchPolicy, FaultCategory, InstanceFault, InstanceFaultKind, Request,
    RequestOp, ServeCluster, ServeConfig, FALLBACK_INSTANCE,
};
use protoacc_suite::bench::serving::{Staging, ARENA_BASE};
use protoacc_suite::faults::memory::{arm_random_ecc, arm_random_stalls};
use protoacc_suite::faults::wire::corrupt;
use protoacc_suite::faults::{random_script, InstanceFaultPlan, SoftwareFallback, WIRE_FAULTS};
use protoacc_suite::fleet::traffic::{TrafficEvent, TrafficMix};
use protoacc_suite::mem::{Cycles, MemConfig, Memory};
use protoacc_suite::runtime::reference;
use protoacc_suite::xrand::StdRng;

/// Guest regions beside the shared staging plan: corrupted inputs,
/// per-instance accelerator arenas, software-fallback regions.
const CORRUPT_BASE: u64 = 0x400_0000;
const ARENA_STRIDE: u64 = 1 << 24;
const FB_ARENA: (u64, u64) = (0x4000_0000, 1 << 22);
const FB_OUT: u64 = 0x5000_0000;

/// Any record.service at or beyond this means a hang escaped the watchdog
/// (the model charges `1 << 40` cycles to an unrecovered hung command).
const HANG_SENTINEL: Cycles = 1 << 39;

/// A staged memory image plus everything needed to build requests and the
/// software fallback. Re-staged fresh per run so replays are exact.
struct Rig {
    mix: TrafficMix,
    staging: Staging,
    /// Per-prototype `(deser, ser)` envelopes: the watchdog ceilings.
    envs: Vec<(Envelope, Envelope)>,
    mem: Memory,
    /// Worst-case sharers used for the watchdog upper bounds.
    sharers: usize,
}

impl Rig {
    fn stage(prototypes: usize, sharers: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(0xFA57_0001);
        let mix = TrafficMix::build(&mut rng, prototypes);
        let mut mem = Memory::new(MemConfig::default());
        let staging = Staging::new(&mix, &mut mem);
        let envs = staging.envelopes(&mix);
        Rig {
            mix,
            staging,
            envs,
            mem,
            sharers,
        }
    }

    /// Watchdog ceiling for deserializing `len` wire bytes of prototype `p`.
    fn deser_watchdog(&self, p: usize, len: u64) -> Cycles {
        self.envs[p].0.service_bounds(len, self.sharers).upper
    }

    /// Watchdog ceiling for serializing prototype `p` (output length equals
    /// the reference encoding length).
    fn ser_watchdog(&self, p: usize) -> Cycles {
        let len = self.staging.protos[p].input_len;
        self.envs[p].1.service_bounds(len, self.sharers).upper
    }

    /// The staged wire inputs, as `(addr, len)` regions.
    fn input_regions(&self) -> Vec<(u64, u64)> {
        self.staging
            .protos
            .iter()
            .map(|s| (s.input_addr, s.input_len))
            .collect()
    }

    /// Clean request stream: round-robin over the prototypes, two
    /// deserializations per serialization, fixed inter-arrival gap, every
    /// request carrying its absint-derived watchdog.
    fn clean_requests(&self, n: usize, gap: Cycles) -> Vec<Request> {
        let events: Vec<TrafficEvent> = (0..n)
            .map(|i| TrafficEvent {
                arrival: i as Cycles * gap,
                prototype: i % self.staging.protos.len(),
                deser: i % 3 != 2,
            })
            .collect();
        let mut requests = self.staging.requests(&events);
        for (r, e) in requests.iter_mut().zip(&events) {
            let p = e.prototype;
            r.watchdog = Some(if e.deser {
                self.deser_watchdog(p, self.staging.protos[p].input_len)
            } else {
                self.ser_watchdog(p)
            });
        }
        requests
    }

    /// Runs `requests` through a cluster with the software fallback wired
    /// in, under a scripted instance-fault scenario.
    fn run(
        &mut self,
        requests: &[Request],
        config: ServeConfig,
        faults: &[InstanceFault],
    ) -> ServeCluster {
        let mut fb = SoftwareFallback::new(
            &self.mix.schema,
            &self.staging.layouts,
            &self.staging.adts,
            FB_ARENA,
            FB_OUT,
        );
        let mut cluster = ServeCluster::new(config, ARENA_BASE, ARENA_STRIDE);
        cluster
            .run_with(&mut self.mem, requests, faults, Some(&mut fb))
            .expect("serve run");
        cluster
    }
}

fn config(instances: usize) -> ServeConfig {
    ServeConfig {
        instances,
        queue_depth: 512,
        policy: DispatchPolicy::Fifo,
        ..ServeConfig::default()
    }
}

/// Core matrix invariant: everything offered was admitted, everything
/// admitted got a definitive answer, and no command sat on the sentinel
/// occupancy of an unrecovered hang.
fn assert_all_served(cluster: &ServeCluster, offered: usize) {
    assert_eq!(cluster.dropped(), 0, "queue shed load in a bounded test");
    assert_eq!(cluster.records().len(), offered);
    assert_eq!(
        cluster.served(),
        offered as u64,
        "unserved commands: {:?}",
        cluster.status_counts()
    );
    for r in cluster.records() {
        assert!(
            r.service < HANG_SENTINEL,
            "command {} hung for {} cycles despite the watchdog",
            r.seq,
            r.service
        );
        assert!(
            r.complete > r.enqueue,
            "command {} has a degenerate lifecycle",
            r.seq
        );
    }
}

#[test]
fn wire_plane_matrix_resolves_every_fault_class_to_a_typed_verdict() {
    let mut rig = Rig::stage(4, 2);
    let mut rng = StdRng::seed_from_u64(0x3B1D);
    let mut cursor = CORRUPT_BASE;
    let mut requests = Vec::new();
    let mut arrival: Cycles = 0;
    // 5 wire fault classes x 4 prototypes x 4 seeded variants each.
    for &fault in &WIRE_FAULTS {
        for (p, proto) in rig.mix.prototypes.iter().enumerate() {
            let wire = reference::encode(&proto.message, &rig.mix.schema).unwrap();
            for _ in 0..4 {
                let bad = corrupt(&wire, fault, &mut rng);
                rig.mem.data.write_bytes(cursor, &bad);
                let mut op = rig.staging.protos[p].deser;
                if let RequestOp::Deserialize {
                    input_addr,
                    input_len,
                    ..
                } = &mut op
                {
                    (*input_addr, *input_len) = (cursor, bad.len() as u64);
                }
                requests.push(Request {
                    arrival,
                    watchdog: Some(rig.deser_watchdog(p, bad.len().max(1) as u64)),
                    deadline: None,
                    cost: None,
                    op,
                });
                cursor += bad.len() as u64 + 64;
                arrival += 400;
            }
        }
    }
    let offered = requests.len();
    let cluster = rig.run(&requests, config(2), &[]);
    assert_all_served(&cluster, offered);
    let (_, fallback, rejected, failed, _) = cluster.status_counts();
    assert_eq!(failed, 0);
    // Wire corruption is an input property: no hardware fault fired, so
    // nothing should have needed the fallback path.
    assert_eq!(fallback, 0);
    assert!(rejected > 0, "a 80-input corruption sweep rejected nothing");
    for r in cluster.records() {
        if let CommandStatus::Rejected(f) = r.status {
            assert!(
                matches!(
                    f.category(),
                    FaultCategory::Framing | FaultCategory::Schema | FaultCategory::Semantic
                ),
                "wire corruption produced a {} verdict ({f:?}) on command {}",
                f.category(),
                r.seq
            );
        }
    }
}

#[test]
fn memory_plane_ecc_and_stall_faults_are_retried_to_completion() {
    let mut rig = Rig::stage(4, 2);
    let requests = rig.clean_requests(48, 300);
    let mut rng = StdRng::seed_from_u64(0xEC0_57A1);
    // Arm the faults inside the staged wire inputs so the deserializer's
    // own streaming reads trip them.
    let regions = rig.input_regions();
    arm_random_ecc(&mut rig.mem.system, &regions, 8, &mut rng);
    arm_random_stalls(&mut rig.mem.system, &regions, 4, 1 << 32, &mut rng);
    let offered = requests.len();
    let cluster = rig.run(&requests, config(2), &[]);
    assert_all_served(&cluster, offered);
    let (_, _, rejected, failed, _) = cluster.status_counts();
    assert_eq!(failed, 0);
    assert_eq!(rejected, 0, "clean inputs must never be rejected");
    assert!(
        cluster.retries() > 0,
        "armed memory faults never surfaced as retries"
    );
    assert!(
        cluster.records().iter().any(|r| r.attempts > 1),
        "no command recorded a retry attempt"
    );
}

#[test]
fn memory_plane_with_no_retry_budget_degrades_to_the_software_fallback() {
    let mut rig = Rig::stage(2, 1);
    let requests = rig.clean_requests(12, 500);
    let mut rng = StdRng::seed_from_u64(0xEC0_57A2);
    let regions = rig.input_regions();
    arm_random_ecc(&mut rig.mem.system, &regions, 6, &mut rng);
    let offered = requests.len();
    let cfg = ServeConfig {
        max_retries: 0,
        quarantine_threshold: 1,
        ..config(1)
    };
    let cluster = rig.run(&requests, cfg, &[]);
    assert_all_served(&cluster, offered);
    let (_, fallback, _, failed, _) = cluster.status_counts();
    assert_eq!(failed, 0);
    assert!(fallback > 0, "no command reached the CPU fallback rung");
    assert!(
        cluster
            .records()
            .iter()
            .any(|r| r.instance == FALLBACK_INSTANCE && r.status == CommandStatus::Fallback),
        "fallback records must carry the sentinel instance index"
    );
}

#[test]
fn instance_plane_crash_hang_and_slow_are_recovered_by_watchdog_and_failover() {
    let scenarios: [(&str, InstanceFaultKind); 3] = [
        ("crash", InstanceFaultKind::Crash),
        ("hang", InstanceFaultKind::Hang),
        (
            "slow",
            InstanceFaultKind::Slow {
                factor: 1 << 20,
                until: Cycles::MAX,
            },
        ),
    ];
    for (label, kind) in scenarios {
        let mut rig = Rig::stage(4, 4);
        let requests = rig.clean_requests(64, 250);
        let offered = requests.len();
        let fault = InstanceFault {
            instance: 1,
            at: 2_000,
            kind,
        };
        // One absorbed hardware fault is enough to quarantine here: a
        // watchdog-killed slow instance self-deprioritizes under FIFO (each
        // kill charges the full ceiling to its busy time), so it would take
        // a long run to hit the default threshold of 3.
        let cfg = ServeConfig {
            quarantine_threshold: 1,
            ..config(4)
        };
        let cluster = rig.run(&requests, cfg, &[fault]);
        assert_all_served(&cluster, offered);
        let (_, _, rejected, failed, _) = cluster.status_counts();
        assert_eq!(failed, 0, "[{label}] commands failed outright");
        assert_eq!(rejected, 0, "[{label}] clean inputs were rejected");
        assert!(
            cluster.quarantined_instances().contains(&1),
            "[{label}] the faulted instance was never taken out of rotation (quarantined: {:?})",
            cluster.quarantined_instances()
        );
    }
}

#[test]
fn all_instances_down_still_serves_the_full_load_via_the_cpu() {
    let mut rig = Rig::stage(3, 2);
    let requests = rig.clean_requests(24, 400);
    let offered = requests.len();
    let faults: Vec<InstanceFault> = (0..2)
        .map(|i| InstanceFault {
            instance: i,
            at: 0,
            kind: InstanceFaultKind::Crash,
        })
        .collect();
    let cluster = rig.run(&requests, config(2), &faults);
    assert_all_served(&cluster, offered);
    let (ok, fallback, rejected, failed, _) = cluster.status_counts();
    assert_eq!(
        (ok, rejected, failed),
        (0, 0, 0),
        "no accelerator should have run anything"
    );
    assert_eq!(
        fallback, offered as u64,
        "every command must ride the CPU path"
    );
    assert!(cluster
        .records()
        .iter()
        .all(|r| r.instance == FALLBACK_INSTANCE));
}

#[test]
fn randomized_instance_fault_scripts_replay_deterministically_and_serve_everything() {
    let plan = InstanceFaultPlan {
        crash: 0.3,
        hang: 0.3,
        slow: 0.5,
        slow_factor: (4, 64),
    };
    for seed in [1u64, 2, 3] {
        let run = |rig: &mut Rig| {
            let requests = rig.clean_requests(48, 300);
            let mut frng = StdRng::seed_from_u64(seed);
            // Leave at least instance 3 untouched so accelerator capacity
            // never fully vanishes in this sweep (the all-down case has its
            // own dedicated test above).
            let faults = random_script(&plan, 3, 40_000, &mut frng);
            let cluster = rig.run(&requests, config(4), &faults);
            assert_all_served(&cluster, requests.len());
            let (_, _, _, failed, _) = cluster.status_counts();
            assert_eq!(failed, 0, "seed {seed} failed commands");
            (
                cluster.status_counts(),
                cluster.makespan(),
                cluster.retries(),
            )
        };
        let a = run(&mut Rig::stage(4, 4));
        let b = run(&mut Rig::stage(4, 4));
        assert_eq!(a, b, "seed {seed} replayed nondeterministically");
    }
}

/// The ISSUE's acceptance scenario: a 4-instance cluster loses one instance
/// mid-run and still serves 100% of offered load, with a measured (and
/// reproducible) p99 degradation against the nominal run.
#[test]
fn killing_one_of_four_instances_mid_run_serves_everything_with_measured_p99_cost() {
    let requests = Rig::stage(6, 4).clean_requests(96, 200);
    let offered = requests.len();

    // Nominal run: the absint-derived watchdog must never kill a correct
    // command, so every status is Ok.
    let mut nominal_rig = Rig::stage(6, 4);
    let nominal = nominal_rig.run(&requests, config(4), &[]);
    assert_all_served(&nominal, offered);
    assert_eq!(
        nominal.status_counts(),
        (offered as u64, 0, 0, 0, 0),
        "watchdog ceilings killed correct commands in the nominal run"
    );
    let p99_nominal = nominal.latency_percentile(99.0);

    // Kill instance 2 halfway through the nominal makespan.
    let fault = InstanceFault {
        instance: 2,
        at: nominal.makespan() / 2,
        kind: InstanceFaultKind::Crash,
    };
    let mut faulted_rig = Rig::stage(6, 4);
    let faulted = faulted_rig.run(&requests, config(4), &[fault]);
    assert_all_served(&faulted, offered);
    let (ok, fallback, rejected, failed, _) = faulted.status_counts();
    assert_eq!((rejected, failed), (0, 0));
    assert_eq!(
        ok + fallback,
        offered as u64,
        "every request must be served correctly"
    );
    assert!(
        faulted.quarantined_instances().contains(&2),
        "the crashed instance stayed in rotation"
    );
    let p99_faulted = faulted.latency_percentile(99.0);
    assert!(
        p99_faulted >= p99_nominal,
        "losing 25% of capacity cannot improve the tail: nominal p99 {p99_nominal}, faulted p99 {p99_faulted}"
    );

    // The degraded run is itself a deterministic measurement.
    let mut replay_rig = Rig::stage(6, 4);
    let replay = replay_rig.run(&requests, config(4), &[fault]);
    assert_eq!(replay.status_counts(), faulted.status_counts());
    assert_eq!(replay.latency_percentile(99.0), p99_faulted);
}
