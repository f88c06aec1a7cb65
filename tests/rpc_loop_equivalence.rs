//! Open-loop vs closed-loop equivalence at low load.
//!
//! The two traffic disciplines answer different questions under overload
//! (offered load vs self-throttling), but at low utilization they must
//! describe the *same* system: with the queues nearly empty, a request's
//! latency is dominated by its own service time regardless of how its
//! arrival was generated. This test pins that equivalence at ~30%
//! utilization — median latency statistically indistinguishable between
//! disciplines — and pins both disciplines' determinism: same seeds, same
//! fingerprint, replay after replay.

use protoacc_suite::accel::{DispatchPolicy, ServeConfig};
use protoacc_suite::bench::serving::{Staging, ARENA_BASE, ARENA_STRIDE};
use protoacc_suite::fleet::traffic::{ClosedLoop, TrafficMix};
use protoacc_suite::mem::{Cycles, MemConfig, Memory};
use protoacc_suite::rpc::{encode_frame, IncomingFrame, Method, RpcConfig, RpcHeader, RpcServer};
use protoacc_suite::xrand::StdRng;

const MIX_SEED: u64 = 0xF1EE7;
const STREAM_SEED: u64 = 0x10AD;
const INSTANCES: usize = 4;
/// Target utilization: low enough that queueing is negligible and the
/// disciplines converge.
const RHO: f64 = 0.3;
/// Requests per cell. Large enough that the served-latency median is
/// stable against the seeded arrival noise.
const REQUESTS: usize = 400;

fn server(methods: Vec<Method>) -> RpcServer {
    RpcServer::new(
        ServeConfig {
            instances: INSTANCES,
            queue_depth: 256,
            policy: DispatchPolicy::Fifo,
            ..ServeConfig::default()
        },
        RpcConfig {
            window: 16,
            ..RpcConfig::default()
        },
        methods,
        ARENA_BASE,
        ARENA_STRIDE,
    )
}

/// No-deadline request frame: the equivalence study wants pure queueing
/// behavior, with admission control out of the picture.
fn request_frame(method: usize, deser: bool) -> Vec<u8> {
    let header = RpcHeader {
        method: method as u32,
        deser,
        deadline: None,
    };
    encode_frame(false, &header.to_payload()).expect("request header fits the frame ceiling")
}

/// One cell's observable outcome: served count plus the sorted latency
/// distribution (the fingerprint for determinism, the data for p50).
#[derive(PartialEq, Eq, Debug)]
struct Outcome {
    served: u64,
    latencies: Vec<Cycles>,
}

impl Outcome {
    fn p50(&self) -> Cycles {
        self.latencies[protoacc_suite::trace::nearest_rank(50.0, self.latencies.len())]
    }
}

fn outcome(srv: &RpcServer) -> Outcome {
    let mut latencies: Vec<Cycles> = srv
        .cluster()
        .records()
        .iter()
        .map(protoacc_suite::accel::serve::CommandRecord::latency)
        .collect();
    latencies.sort_unstable();
    Outcome {
        served: srv.cluster().served(),
        latencies,
    }
}

/// Mean uncontended service time, calibrated on a sparse stream.
fn calibrate(mix: &TrafficMix) -> f64 {
    let mut mem = Memory::new(MemConfig::default());
    let methods = Staging::new(mix, &mut mem).methods(mix);
    let mut srng = StdRng::seed_from_u64(STREAM_SEED);
    let events = mix.stream(&mut srng, 64, 10_000_000.0);
    let frames: Vec<IncomingFrame> = events
        .iter()
        .map(|e| IncomingFrame {
            conn: 0,
            arrival: e.arrival,
            bytes: request_frame(e.prototype, e.deser),
        })
        .collect();
    let mut srv = server(methods);
    srv.serve(&mut mem, &frames).unwrap();
    let records = srv.cluster().records();
    records.iter().map(|r| r.service).sum::<u64>() as f64 / records.len() as f64
}

fn open_loop(mix: &TrafficMix, gap: f64) -> Outcome {
    let mut mem = Memory::new(MemConfig::default());
    let methods = Staging::new(mix, &mut mem).methods(mix);
    let mut srng = StdRng::seed_from_u64(STREAM_SEED);
    let events = mix.stream(&mut srng, REQUESTS, gap);
    let frames: Vec<IncomingFrame> = events
        .iter()
        .enumerate()
        .map(|(i, e)| IncomingFrame {
            conn: i % 8,
            arrival: e.arrival,
            bytes: request_frame(e.prototype, e.deser),
        })
        .collect();
    let mut srv = server(methods);
    srv.serve(&mut mem, &frames).unwrap();
    outcome(&srv)
}

fn closed_loop(mix: &TrafficMix, users: usize, think: f64) -> Outcome {
    let mut mem = Memory::new(MemConfig::default());
    let methods = Staging::new(mix, &mut mem).methods(mix);
    let mut srv = server(methods.clone());
    let mut clients = ClosedLoop::new(users, think);
    let mut rng = StdRng::seed_from_u64(STREAM_SEED);
    for _ in 0..REQUESTS {
        let (user, at) = clients.next_issue().expect("some user is always ready");
        let (prototype, deser) = mix.sample(&mut rng);
        let frame = IncomingFrame {
            conn: user,
            arrival: at,
            bytes: request_frame(prototype, deser),
        };
        let before = srv.cluster().records().len();
        srv.serve(&mut mem, std::slice::from_ref(&frame)).unwrap();
        let completion = srv
            .cluster()
            .records()
            .get(before)
            .map_or(at, |r| r.complete)
            .max(at);
        clients.complete(user, completion, &mut rng);
    }
    outcome(&srv)
}

#[test]
fn loop_disciplines_agree_at_low_load_and_replay_deterministically() {
    let mut rng = StdRng::seed_from_u64(MIX_SEED);
    let mix = TrafficMix::build(&mut rng, 8);
    let service = calibrate(&mix);

    // Open loop at rho = RHO: mean interarrival gap = service / (N * rho).
    let gap = service / (INSTANCES as f64 * RHO);
    // Closed loop at the same utilization: `users` clients cycling through
    // service + think, with think chosen so users/(service+think) equals
    // the open loop's arrival rate: think = service * (users/(N*rho) - 1).
    let users = 6;
    let think = service * (users as f64 / (INSTANCES as f64 * RHO) - 1.0);

    let open = open_loop(&mix, gap);
    let closed = closed_loop(&mix, users, think);

    // Both disciplines served everything: no deadlines, no shedding, and
    // queue depth far above what 30% utilization can accumulate.
    assert_eq!(open.served, REQUESTS as u64);
    assert_eq!(closed.served, REQUESTS as u64);

    // Deterministic fingerprint replay: the full sorted latency
    // distribution is bit-identical run over run.
    assert_eq!(open, open_loop(&mix, gap), "open loop must replay exactly");
    assert_eq!(
        closed,
        closed_loop(&mix, users, think),
        "closed loop must replay exactly"
    );

    // Statistical equivalence of the medians: at 30% utilization queueing
    // is a small correction on top of the same (heavy-tailed) service
    // distribution — Poisson bursts still buy the open loop a fraction of
    // a service time of median wait, so the band is one mean service time.
    // That keeps real discriminating power: under overload the disciplines'
    // medians separate by tens of mean service times.
    let (p50_open, p50_closed) = (open.p50(), closed.p50());
    let diff = p50_open.abs_diff(p50_closed) as f64;
    assert!(
        diff <= service,
        "p50 diverged at low load: open={p50_open} closed={p50_closed} \
         (mean service {service:.0}, allowed {service:.0})"
    );
}
