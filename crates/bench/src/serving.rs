//! The staging rig shared by every serving study.
//!
//! Before the accelerator can run a RoCC command, the host stages three
//! things in guest memory (paper §4.2, §5): the ADTs, the wire inputs, and
//! the C++-layout object graphs. [`Staging::new`] does that for a fleet
//! [`TrafficMix`] under one fixed address plan:
//!
//! | region                          | base            |
//! |---------------------------------|-----------------|
//! | ADTs (+ default instances)      | [`ADT_BASE`]    |
//! | wire inputs, 64-byte gaps       | [`INPUT_BASE`]  |
//! | corrupted copies of the inputs  | [`CORRUPT_BASE`]|
//! | software fallback arena         | [`FB_ARENA`]    |
//! | software fallback output        | [`FB_OUT`]      |
//! | object graph + destination slot | [`OBJECT_BASE`] |
//! | isolated destination objects    | [`DEST_BASE`]   |
//! | per-instance accelerator arenas | [`ARENA_BASE`]  |
//!
//! Addresses depend only on the mix, so two stagings of the same mix into
//! fresh memories build identical requests. Each staged prototype carries
//! its ready-made `Deserialize` and `Serialize` ops; [`Staging::requests`]
//! maps a traffic stream onto them. Envelopes and the RPC method table are
//! derived only on request, since the absint pass is the expensive part.
//!
//! [`run_cell`] is the one way a study runs a serving cell: stage into a
//! fresh memory, build the requests and fault script, run one cluster and
//! capture it as a [`ShardOutcome`]. A single-cluster study is the
//! one-cell decomposition, [`one_cell`]; [`isolated`] is the one-cell run
//! the sanitizer and the tracer check, with its own destination object per
//! deserialization. The serving studies replay [`fleet_mix`] traffic from
//! [`stream`].
//!
//! The framed RPC layer has one driver too: [`server`] is the RPC server in
//! front of the cluster, [`request_frame`] one request on the wire, and
//! [`open_loop`] and [`closed_loop`] the two traffic disciplines that feed
//! it. [`calibrate`] measures the mean service time they scale load by.

use protoacc::{
    AccelConfig, DispatchPolicy, InstanceFault, Request, RequestOp, ServeCluster, ServeConfig,
    ShardOutcome, ShardedCluster,
};
use protoacc_absint::Envelope;
use protoacc_faults::SoftwareFallback;
use protoacc_fleet::traffic::{ClosedLoop, TrafficEvent, TrafficMix};
use protoacc_mem::{MemConfig, Memory};
use protoacc_rpc::{encode_frame, IncomingFrame, Method, RpcConfig, RpcHeader, RpcServer};
use protoacc_runtime::{object, reference, write_adts, AdtTables, BumpArena, MessageLayouts};
use protoacc_trace::TraceLog;
use xrand::StdRng;

/// Base of the ADT region.
pub const ADT_BASE: u64 = 0x1_0000;
/// Base of the wire-input region.
pub const INPUT_BASE: u64 = 0x2000_0000;
/// Base of the region for corrupted copies of the wire inputs.
pub const CORRUPT_BASE: u64 = 0x3000_0000;
/// `(base, len)` of the software fallback codec's private arena.
pub const FB_ARENA: (u64, u64) = (0x4000_0000, 1 << 24);
/// Where the software fallback codec writes serialization output.
pub const FB_OUT: u64 = 0x5000_0000;
/// Base of the object-graph region.
pub const OBJECT_BASE: u64 = 0x8000_0000;
/// Length of the object-graph region.
const OBJECT_LEN: u64 = 1 << 30;
/// Base of the arena for per-request destination objects, so that no two
/// deserializations share one.
pub const DEST_BASE: u64 = 0xC000_0000;
/// Length of the destination-object arena.
const DEST_LEN: u64 = 1 << 28;
/// Base of the cluster's per-instance accelerator arenas.
pub const ARENA_BASE: u64 = 0x1_0000_0000;
/// Per-instance slice of the arena region (64 MiB).
pub const ARENA_STRIDE: u64 = 1 << 26;
/// Gap left after each staged wire input.
const INPUT_GAP: u64 = 64;

/// Seed the serving studies synthesize their prototype population from.
pub const MIX_SEED: u64 = 0xF1EE7;
/// Seed of the serving studies' arrival process.
pub const STREAM_SEED: u64 = 0x10AD;

/// The fleet mix of `prototypes` prototypes, drawn from [`MIX_SEED`].
#[must_use]
pub fn fleet_mix(prototypes: usize) -> TrafficMix {
    TrafficMix::build(&mut StdRng::seed_from_u64(MIX_SEED), prototypes)
}

/// `n` arrivals at mean gap `gap`, drawn from [`STREAM_SEED`].
#[must_use]
pub fn stream(mix: &TrafficMix, n: usize, gap: f64) -> Vec<TrafficEvent> {
    mix.stream(&mut StdRng::seed_from_u64(STREAM_SEED), n, gap)
}

/// A cluster of `instances` behind a `queue_depth`-deep queue dispatching
/// by `policy`, everything else at its default.
#[must_use]
pub fn config(instances: usize, queue_depth: usize, policy: DispatchPolicy) -> ServeConfig {
    ServeConfig {
        instances,
        queue_depth,
        policy,
        ..ServeConfig::default()
    }
}

/// One staged prototype: where its wire input lives and the two commands
/// that serve it.
#[derive(Debug, Clone, Copy)]
pub struct StagedProto {
    /// Guest address of the prototype's reference wire encoding.
    pub input_addr: u64,
    /// Length of that encoding in bytes.
    pub input_len: u64,
    /// Size of one object of the prototype's type.
    pub object_size: u64,
    /// Deserializes the staged input into the prototype's destination slot.
    pub deser: RequestOp,
    /// Serializes the staged object graph.
    pub ser: RequestOp,
}

/// A traffic mix staged into one memory image.
#[derive(Debug)]
pub struct Staging {
    /// Object layouts of the mix's schema.
    pub layouts: MessageLayouts,
    /// ADT addresses (the software fallback maps them back to types).
    pub adts: AdtTables,
    /// Staged prototypes, in mix order.
    pub protos: Vec<StagedProto>,
}

impl Staging {
    /// Writes the ADTs, then per prototype its wire input, object graph and
    /// one destination slot, into `mem`.
    ///
    /// # Panics
    ///
    /// If the mix does not fit the address plan or a prototype does not
    /// encode against its own schema.
    #[must_use]
    pub fn new(mix: &TrafficMix, mem: &mut Memory) -> Self {
        let layouts = MessageLayouts::compute(&mix.schema);
        let mut setup = BumpArena::new(ADT_BASE, INPUT_BASE - ADT_BASE);
        let adts = write_adts(&mix.schema, &layouts, &mut mem.data, &mut setup)
            .expect("ADTs fit below the input region");
        let mut input_addr = INPUT_BASE;
        let mut objects = BumpArena::new(OBJECT_BASE, OBJECT_LEN);
        let protos = mix
            .prototypes
            .iter()
            .map(|p| {
                let wire = reference::encode(&p.message, &mix.schema).expect("prototype encodes");
                let input_len = wire.len() as u64;
                mem.data.write_bytes(input_addr, &wire);
                let obj_ptr = object::write_message(
                    &mut mem.data,
                    &mix.schema,
                    &layouts,
                    &mut objects,
                    &p.message,
                )
                .expect("object graph fits its region");
                let layout = layouts.layout(p.type_id);
                let dest_obj = objects
                    .alloc(layout.object_size(), 8)
                    .expect("destination slot fits its region");
                let adt_ptr = adts.addr(p.type_id);
                let staged = StagedProto {
                    input_addr,
                    input_len,
                    object_size: layout.object_size(),
                    deser: RequestOp::Deserialize {
                        adt_ptr,
                        input_addr,
                        input_len,
                        dest_obj,
                        min_field: layout.min_field(),
                    },
                    ser: RequestOp::Serialize {
                        adt_ptr,
                        obj_ptr,
                        hasbits_offset: layout.hasbits_offset(),
                        min_field: layout.min_field(),
                        max_field: layout.max_field(),
                    },
                };
                input_addr += input_len + INPUT_GAP;
                staged
            })
            .collect();
        Staging {
            layouts,
            adts,
            protos,
        }
    }

    /// One request per event, with no watchdog, deadline or cost.
    #[must_use]
    pub fn requests(&self, events: &[TrafficEvent]) -> Vec<Request> {
        events
            .iter()
            .map(|e| {
                let p = &self.protos[e.prototype];
                Request {
                    arrival: e.arrival,
                    op: if e.deser { p.deser } else { p.ser },
                    watchdog: None,
                    deadline: None,
                    cost: None,
                }
            })
            .collect()
    }

    /// Per-prototype `(deser, ser)` envelopes under the default accelerator
    /// and memory configurations. `mix` must be the mix that was staged.
    #[must_use]
    pub fn envelopes(&self, mix: &TrafficMix) -> Vec<(Envelope, Envelope)> {
        let accel = AccelConfig::default();
        let mem_cfg = MemConfig::default();
        mix.prototypes
            .iter()
            .map(|p| {
                (
                    Envelope::deser(&mix.schema, &self.layouts, p.type_id, &accel, &mem_cfg),
                    Envelope::ser(&mix.schema, &self.layouts, p.type_id, &accel, &mem_cfg),
                )
            })
            .collect()
    }

    /// The RPC method table: one method per prototype, admission costs from
    /// its envelopes. `mix` must be the mix that was staged.
    #[must_use]
    pub fn methods(&self, mix: &TrafficMix) -> Vec<Method> {
        self.protos
            .iter()
            .zip(self.envelopes(mix))
            .map(|(p, (deser_env, ser_env))| {
                Method::from_envelopes(
                    p.deser,
                    p.ser,
                    &deser_env,
                    &ser_env,
                    p.input_len,
                    p.input_len,
                )
            })
            .collect()
    }
}

/// What a cell records beyond the counters every [`ShardOutcome`] holds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Capture {
    /// Attach a trace log; its events land in [`ShardOutcome::events`].
    pub trace: bool,
    /// Wire in the software CPU codec as the last rung of the degradation
    /// ladder, over [`FB_ARENA`] and [`FB_OUT`].
    pub fallback: bool,
}

/// Runs one serving cell end to end on the calling thread: stages `mix`
/// into a fresh memory built from `mem`, lets `build` turn the staging into
/// the requests and the instance-fault script (it may also arm memory
/// faults or stage more bytes), runs one `cfg`-wide cluster and captures it
/// as shard `shard`. Everything is built here, so the outcome is a pure
/// function of the arguments.
///
/// # Panics
///
/// If the mix does not fit the address plan or the cluster reports a
/// driver-level failure.
pub fn run_cell(
    shard: usize,
    mix: &TrafficMix,
    mem: MemConfig,
    cfg: ServeConfig,
    capture: Capture,
    build: impl FnOnce(&Staging, &mut Memory) -> (Vec<Request>, Vec<InstanceFault>),
) -> ShardOutcome {
    let mut mem = Memory::new(mem);
    let staging = Staging::new(mix, &mut mem);
    let (requests, faults) = build(&staging, &mut mem);
    let mut fallback = capture.fallback.then(|| {
        SoftwareFallback::new(
            &mix.schema,
            &staging.layouts,
            &staging.adts,
            FB_ARENA,
            FB_OUT,
        )
    });
    let mut cluster = ServeCluster::new(cfg, ARENA_BASE, ARENA_STRIDE);
    let log = capture.trace.then(TraceLog::shared);
    if let Some(log) = &log {
        cluster.set_tracer(Some(log.clone()));
    }
    cluster
        .run_with(
            &mut mem,
            &requests,
            &faults,
            fallback.as_mut().map(|f| f as _),
        )
        .expect("serve run succeeds");
    cluster.set_tracer(None);
    let events = log.map_or_else(Vec::new, |l| std::mem::take(&mut l.borrow_mut().events));
    ShardOutcome::capture(shard, &cluster, &mem, events)
}

/// Runs one cluster over the default memory as the one-cell decomposition
/// (see [`run_cell`] for `build`).
pub fn one_cell(
    mix: &TrafficMix,
    cfg: ServeConfig,
    capture: Capture,
    build: impl Fn(&Staging, &mut Memory) -> (Vec<Request>, Vec<InstanceFault>) + Sync,
) -> ShardedCluster {
    ShardedCluster::run(&[()], 1, |shard, ()| {
        run_cell(shard, mix, MemConfig::default(), cfg, capture, &build)
    })
}

/// Runs `events` fault-free as one cell, giving every deserialization its
/// own destination object in the [`DEST_BASE`] arena. The shared staging
/// reuses one slot per prototype, which is a genuine arena-aliasing hazard
/// (PA009) the moment two instances deserialize the same prototype
/// concurrently: harmless for timing studies, but exactly what a sanitized
/// run must not do. With `trace` on, the cell's events carry the memory
/// accesses the aliasing sanitizer builds its footprints from; off, the run
/// is the baseline a traced run must match.
///
/// # Panics
///
/// If the destination objects outgrow their arena.
#[must_use]
pub fn isolated(
    mix: &TrafficMix,
    events: &[TrafficEvent],
    cfg: ServeConfig,
    trace: bool,
) -> ShardedCluster {
    let capture = Capture {
        trace,
        ..Capture::default()
    };
    one_cell(mix, cfg, capture, |staging, _| {
        let mut dests = BumpArena::new(DEST_BASE, DEST_LEN);
        let mut requests = staging.requests(events);
        for (r, e) in requests.iter_mut().zip(events) {
            if let RequestOp::Deserialize { dest_obj, .. } = &mut r.op {
                let size = staging.protos[e.prototype].object_size;
                *dest_obj = dests.alloc(size, 8).expect("dest arena");
            }
        }
        (requests, Vec::new())
    })
}

/// Accelerator instances behind the RPC [`server`].
pub const RPC_INSTANCES: usize = 4;
/// Connections an [`open_loop`] schedule spreads across.
const RPC_CONNS: usize = 8;
/// Per-connection credit window. Wider than the default so the transport's
/// flow control does not itself cap the backlog: under overload, admission
/// shedding, not window deferral, is the active mechanism.
const RPC_WINDOW: usize = 16;

/// The RPC server over `methods`: [`RPC_INSTANCES`] instances behind a
/// 256-deep FIFO queue, credit window `RPC_WINDOW`.
#[must_use]
pub fn server(methods: Vec<Method>) -> RpcServer {
    RpcServer::new(
        config(RPC_INSTANCES, 256, DispatchPolicy::Fifo),
        RpcConfig { window: RPC_WINDOW },
        methods,
        ARENA_BASE,
        ARENA_STRIDE,
    )
}

/// Encodes one request frame for `method`. With a `slack`, the request
/// carries a deadline budget of `slack` times the direction's admission
/// cost; without one, admission control never sheds it.
///
/// # Panics
///
/// If the header outgrows the frame ceiling.
#[must_use]
pub fn request_frame(
    methods: &[Method],
    method: usize,
    deser: bool,
    slack: Option<u64>,
) -> Vec<u8> {
    let m = methods[method];
    let cost = if deser { m.deser_cost } else { m.ser_cost };
    let header = RpcHeader {
        method: method as u32,
        deser,
        deadline: slack.map(|s| cost.saturating_mul(s)),
    };
    encode_frame(false, &header.to_payload()).expect("request header fits the frame ceiling")
}

/// `mix` staged into a fresh memory, with its RPC method table.
fn staged_methods(mix: &TrafficMix) -> (Memory, Vec<Method>) {
    let mut mem = Memory::new(MemConfig::default());
    let methods = Staging::new(mix, &mut mem).methods(mix);
    (mem, methods)
}

/// Serves the open-loop schedule of `n` requests from [`stream`] at mean
/// gap `gap`, spread round-robin across `RPC_CONNS` connections: offered
/// load does not depend on what the server does. `slack` is as for
/// [`request_frame`].
///
/// # Panics
///
/// If the server reports a driver-level failure.
#[must_use]
pub fn open_loop(mix: &TrafficMix, n: usize, gap: f64, slack: Option<u64>) -> RpcServer {
    let (mut mem, methods) = staged_methods(mix);
    let frames: Vec<IncomingFrame> = stream(mix, n, gap)
        .iter()
        .enumerate()
        .map(|(i, e)| IncomingFrame {
            conn: i % RPC_CONNS,
            arrival: e.arrival,
            bytes: request_frame(&methods, e.prototype, e.deser, slack),
        })
        .collect();
    let mut srv = server(methods);
    srv.serve(&mut mem, &frames).expect("rpc serve succeeds");
    srv
}

/// Serves `total` requests from `users` closed-loop clients, one
/// connection each. Each waits for its response plus an exponential think
/// time of mean `think` before issuing again, so arrivals throttle
/// themselves as latency rises. `slack` is as for [`request_frame`].
///
/// # Panics
///
/// If the server reports a driver-level failure.
#[must_use]
pub fn closed_loop(
    mix: &TrafficMix,
    users: usize,
    total: usize,
    think: f64,
    slack: Option<u64>,
) -> RpcServer {
    let (mut mem, methods) = staged_methods(mix);
    let mut srv = server(methods.clone());
    let mut clients = ClosedLoop::new(users, think);
    let mut rng = StdRng::seed_from_u64(STREAM_SEED);
    for _ in 0..total {
        let (user, at) = clients.next_issue().expect("some user is always ready");
        let (prototype, deser) = mix.sample(&mut rng);
        let frame = IncomingFrame {
            conn: user,
            arrival: at,
            bytes: request_frame(&methods, prototype, deser, slack),
        };
        let before = srv.cluster().records().len();
        srv.serve(&mut mem, std::slice::from_ref(&frame))
            .expect("rpc serve succeeds");
        // The user's response lands at its command's completion time (its
        // issue instant if the request evaporated at the frame plane).
        let completion = srv
            .cluster()
            .records()
            .get(before)
            .map_or(at, |r| r.complete)
            .max(at);
        clients.complete(user, completion, &mut rng);
    }
    srv
}

/// Mean uncontended service time of `mix` on the RPC server, in cycles,
/// from a sparse deadline-free open-loop stream of 64 requests.
#[must_use]
pub fn calibrate(mix: &TrafficMix) -> f64 {
    let srv = open_loop(mix, 64, 10_000_000.0, None);
    let records = srv.cluster().records();
    records.iter().map(|r| r.service).sum::<u64>() as f64 / records.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_faults::wire::corrupt;
    use protoacc_faults::WIRE_FAULTS;
    use xrand::StdRng;

    fn mix() -> TrafficMix {
        fleet_mix(8)
    }

    fn staged(mix: &TrafficMix) -> (Staging, Memory) {
        let mut mem = Memory::new(MemConfig::default());
        let staging = Staging::new(mix, &mut mem);
        (staging, mem)
    }

    /// `(obj_ptr, dest_obj)` of a staged prototype.
    fn objects(p: &StagedProto) -> (u64, u64) {
        match (p.ser, p.deser) {
            (RequestOp::Serialize { obj_ptr, .. }, RequestOp::Deserialize { dest_obj, .. }) => {
                (obj_ptr, dest_obj)
            }
            _ => panic!("ops staged in the wrong slots"),
        }
    }

    #[test]
    fn staged_inputs_hold_the_reference_encoding() {
        let mix = mix();
        let (staging, mem) = staged(&mix);
        assert_eq!(staging.protos.len(), mix.prototypes.len());
        for (p, s) in mix.prototypes.iter().zip(&staging.protos) {
            let wire = reference::encode(&p.message, &mix.schema).unwrap();
            assert_eq!(mem.data.read_vec(s.input_addr, s.input_len as usize), wire);
        }
    }

    #[test]
    fn regions_do_not_overlap() {
        let mix = mix();
        let (staging, _) = staged(&mix);
        assert!(ADT_BASE + staging.adts.total_bytes() <= INPUT_BASE);
        // Inputs ascend with their gap and end below the object region.
        let mut input_floor = INPUT_BASE;
        for s in &staging.protos {
            assert!(s.input_addr >= input_floor);
            input_floor = s.input_addr + s.input_len + INPUT_GAP;
        }
        assert!(input_floor <= CORRUPT_BASE);
        // One corrupted copy per prototype, under any wire fault, with the
        // same gap, fits below the fallback's arena and output.
        let mut rng = StdRng::seed_from_u64(0xFA_17);
        let corrupt_len: u64 = mix
            .prototypes
            .iter()
            .map(|p| {
                let wire = reference::encode(&p.message, &mix.schema).unwrap();
                WIRE_FAULTS
                    .iter()
                    .map(|&f| corrupt(&wire, f, &mut rng).len() as u64 + INPUT_GAP)
                    .max()
                    .unwrap()
            })
            .sum();
        assert!(CORRUPT_BASE + corrupt_len <= FB_ARENA.0);
        const { assert!(FB_ARENA.0 + FB_ARENA.1 <= FB_OUT && FB_OUT < OBJECT_BASE) };
        // Each prototype's graph starts at its root and ends where its
        // destination slot begins; the next prototype starts past the slot.
        let mut object_floor = OBJECT_BASE;
        for s in &staging.protos {
            let (obj_ptr, dest_obj) = objects(s);
            assert!(obj_ptr >= object_floor);
            assert!(dest_obj >= obj_ptr + s.object_size);
            object_floor = dest_obj + s.object_size;
        }
        assert!(object_floor <= DEST_BASE);
        const { assert!(OBJECT_BASE + OBJECT_LEN <= DEST_BASE && DEST_BASE + DEST_LEN <= ARENA_BASE) };
    }

    #[test]
    fn ops_carry_their_prototypes_table_fields() {
        let mix = mix();
        let (staging, _) = staged(&mix);
        let events: Vec<TrafficEvent> = (0..mix.prototypes.len())
            .flat_map(|prototype| {
                [true, false].map(|deser| TrafficEvent {
                    arrival: prototype as u64,
                    prototype,
                    deser,
                })
            })
            .collect();
        for (e, r) in events.iter().zip(staging.requests(&events)) {
            let p = &mix.prototypes[e.prototype];
            let layout = staging.layouts.layout(p.type_id);
            let adt = staging.adts.addr(p.type_id);
            assert_eq!(r.arrival, e.arrival);
            assert_eq!((r.watchdog, r.deadline, r.cost), (None, None, None));
            match r.op {
                RequestOp::Deserialize {
                    adt_ptr,
                    input_addr,
                    input_len,
                    min_field,
                    ..
                } => {
                    assert!(e.deser);
                    assert_eq!((adt_ptr, min_field), (adt, layout.min_field()));
                    let s = &staging.protos[e.prototype];
                    assert_eq!((input_addr, input_len), (s.input_addr, s.input_len));
                }
                RequestOp::Serialize {
                    adt_ptr,
                    hasbits_offset,
                    min_field,
                    max_field,
                    ..
                } => {
                    assert!(!e.deser);
                    assert_eq!(
                        (adt_ptr, hasbits_offset, min_field, max_field),
                        (
                            adt,
                            layout.hasbits_offset(),
                            layout.min_field(),
                            layout.max_field()
                        )
                    );
                }
            }
        }
    }

    #[test]
    fn staging_twice_gives_identical_ops() {
        let mix = mix();
        let (a, _) = staged(&mix);
        let (b, _) = staged(&mix);
        let events = stream(&mix, 64, 2_000.0);
        assert_eq!(
            format!("{:?}", a.requests(&events)),
            format!("{:?}", b.requests(&events))
        );
    }
}
