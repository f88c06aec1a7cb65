//! Open-loop vs closed-loop equivalence at low load, and RPC server vs
//! batch cluster run equivalence.
//!
//! The two traffic disciplines answer different questions under overload
//! (offered load vs self-throttling), but at low utilization they must
//! describe the *same* system: with the queues nearly empty, a request's
//! latency is dominated by its own service time regardless of how its
//! arrival was generated. This test pins that equivalence at ~30%
//! utilization — median latency statistically indistinguishable between
//! disciplines — and pins both disciplines' determinism: same seeds, same
//! fingerprint, replay after replay.
//!
//! The RPC server offers every decoded request to one persistent cluster,
//! so with a credit window that never binds and no deadlines it must
//! produce exactly the records of one batch `ServeCluster::run` over the
//! same requests: sequence numbers, queue and dispatch policy included.

use protoacc_suite::accel::serve::CommandRecord;
use protoacc_suite::accel::{DispatchPolicy, ServeCluster};
use protoacc_suite::bench::serving::{
    calibrate, closed_loop, config, fleet_mix, open_loop, request_frame, stream, Staging,
    ARENA_BASE, ARENA_STRIDE, RPC_INSTANCES as INSTANCES,
};
use protoacc_suite::mem::{Cycles, MemConfig, Memory};
use protoacc_suite::rpc::{IncomingFrame, RpcConfig, RpcServer};

/// Target utilization: low enough that queueing is negligible and the
/// disciplines converge.
const RHO: f64 = 0.3;
/// Requests per cell. Large enough that the served-latency median is
/// stable against the seeded arrival noise.
const REQUESTS: usize = 400;

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

fn outcome(srv: RpcServer) -> Outcome {
    let mut latencies: Vec<Cycles> = srv
        .cluster()
        .records()
        .iter()
        .map(CommandRecord::latency)
        .collect();
    latencies.sort_unstable();
    Outcome {
        served: srv.cluster().served(),
        latencies,
    }
}

#[test]
fn loop_disciplines_agree_at_low_load_and_replay_deterministically() {
    let mix = fleet_mix(8);
    let service = calibrate(&mix);

    // Open loop at rho = RHO: mean interarrival gap = service / (N * rho).
    let gap = service / (INSTANCES as f64 * RHO);
    // Closed loop at the same utilization: `users` clients cycling through
    // service + think, with think chosen so users/(service+think) equals
    // the open loop's arrival rate: think = service * (users/(N*rho) - 1).
    let users = 6;
    let think = service * (users as f64 / (INSTANCES as f64 * RHO) - 1.0);

    // No deadlines: the equivalence study wants pure queueing behavior,
    // with admission control out of the picture.
    let run_open = || outcome(open_loop(&mix, REQUESTS, gap, None));
    let run_closed = || outcome(closed_loop(&mix, users, REQUESTS, think, None));
    let open = run_open();
    let closed = run_closed();

    // Both disciplines served everything: no deadlines, no shedding, and
    // queue depth far above what 30% utilization can accumulate.
    assert_eq!(open.served, REQUESTS as u64);
    assert_eq!(closed.served, REQUESTS as u64);

    // Deterministic fingerprint replay: the full sorted latency
    // distribution is bit-identical run over run.
    assert_eq!(open, run_open(), "open loop must replay exactly");
    assert_eq!(closed, run_closed(), "closed loop must replay exactly");

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

#[test]
fn rpc_server_records_equal_one_batch_cluster_run() {
    const N: usize = 64;
    const CONNS: usize = 4;
    let mix = fleet_mix(8);
    // Sparse and deadline-free: admission control never sheds, and a
    // window of N credits per connection never defers.
    let events = stream(&mix, N, 2_000.0);
    for policy in [DispatchPolicy::Fifo, DispatchPolicy::RoundRobin] {
        let cfg = config(INSTANCES, 256, policy);

        let mut mem = Memory::new(MemConfig::default());
        let requests = Staging::new(&mix, &mut mem).requests(&events);
        let mut batch = ServeCluster::new(cfg, ARENA_BASE, ARENA_STRIDE);
        batch.run(&mut mem, &requests).unwrap();

        let mut mem = Memory::new(MemConfig::default());
        let methods = Staging::new(&mix, &mut mem).methods(&mix);
        let frames: Vec<IncomingFrame> = events
            .iter()
            .enumerate()
            .map(|(i, e)| IncomingFrame {
                conn: i % CONNS,
                arrival: e.arrival,
                bytes: request_frame(&methods, e.prototype, e.deser, None),
            })
            .collect();
        let rpc = RpcConfig { window: N };
        let mut srv = RpcServer::new(cfg, rpc, methods, ARENA_BASE, ARENA_STRIDE);
        srv.serve(&mut mem, &frames).unwrap();

        assert_eq!(srv.stats().deferred, 0, "{policy:?}: the window bound");
        assert_eq!(batch.records().len(), N, "{policy:?}");
        assert_eq!(srv.cluster().records(), batch.records(), "{policy:?}");
    }
}
