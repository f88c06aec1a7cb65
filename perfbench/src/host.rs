//! Host request path, timed in wall-clock nanoseconds.
//!
//! One closed-loop caller with zero think time sends request frames to a
//! one-connection server built from the repository's public calls:
//!
//! ```text
//! frame bytes → FrameDecoder → RpcHeader::decode + method route
//!             → FastCodec::decode            (request carries a message)
//!             | FastCodec::encode_decoded    (request asks for one)
//!             → encode_frame response
//! ```
//!
//! Suite schemas and message populations are fixed; `--seed` draws the
//! request sequence over them (suite, message, and direction from the GWP
//! deserialize : serialize mix).

use std::io::Write as _;
use std::time::Instant;

use hyperprotobench::{populate::populate_messages, Generator, ServiceProfile, ShapeParams};
use protoacc_fastpath::{DecodeArena, FastCodec};
use protoacc_fleet::gwp::{FleetProfile, ProtoOp};
use protoacc_fleet::traffic::split_seed;
use protoacc_rpc::{decode_frame, encode_frame, FrameDecoder, RpcHeader, DEFAULT_MAX_FRAME_LEN};
use protoacc_runtime::reference;
use protoacc_schema::{parse_descriptor_set, MessageId, Schema};
use xrand::{Rng, StdRng};

use crate::{machine_speed, median, ratio, Outcome, Workload};

/// Seed of the suites' schemas and message populations: the services'
/// fixed interface and data. `--seed` varies the traffic over them, so a
/// run's working set does not depend on it.
const SCHEMA_SEED: u64 = 0x5CE3A;
/// Messages per suite.
pub const POPULATION: usize = 256;
/// Requests in one pass of the closed loop (the loop cycles through it).
pub const SEQUENCE: usize = 1 << 16;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Throughput is the median over windows of this many seconds, each
/// closed by a machine-speed probe.
const WINDOW_S: f64 = 0.1;
/// At most this many requests are traced (spans are kept in memory).
const MAX_TRACED: usize = 200_000;
/// Requests whose spans are written to the trace file.
const SPANS_WRITTEN: usize = 2_000;

/// The held-out binary descriptor set behind `chain/consensus`.
static CONSENSUS: &[u8] = include_bytes!("../../protos/chain/consensus.binpb");

/// Where a suite's schema comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// HyperProtoBench profile `bench<i>`.
    Hyper(usize),
    /// `protos/chain/consensus.binpb`, populated with the rpc-metadata shape.
    Consensus,
}

fn sources(workload: Workload) -> &'static [Source] {
    match workload {
        // ads-serving, ml-features, rpc-metadata, chain/consensus.
        Workload::HostSmall => &[
            Source::Hyper(0),
            Source::Hyper(3),
            Source::Hyper(4),
            Source::Consensus,
        ],
        // storage-rows, search-indexing.
        Workload::HostBlob => &[Source::Hyper(2), Source::Hyper(1)],
        _ => panic!("{} is not a host workload", workload.name()),
    }
}

/// One suite: a schema, its root type, and a seeded message population.
pub struct Suite {
    /// Display name.
    pub name: String,
    /// The suite's schema.
    pub schema: Schema,
    /// Root message type (the method's request type).
    pub type_id: MessageId,
    /// `reference::encode` of every message: the request bodies and the
    /// byte-exact expectation for every encode.
    pub wires: Vec<Vec<u8>>,
}

fn schema_of(source: Source) -> (String, Schema, MessageId, ShapeParams) {
    match source {
        Source::Hyper(i) => {
            let bench =
                Generator::new(ServiceProfile::bench(i), SCHEMA_SEED.wrapping_add(i as u64))
                    .generate(1);
            (
                bench.profile.name.to_string(),
                bench.schema,
                bench.type_id,
                bench.profile.shape,
            )
        }
        Source::Consensus => {
            let schema = parse_descriptor_set(CONSENSUS).expect("consensus.binpb parses");
            // Root: the last top-level message, the corpus convention.
            let root = schema
                .iter()
                .filter(|(_, m)| !m.name().contains('.'))
                .map(|(id, _)| id)
                .last()
                .expect("descriptor set has a top-level message");
            (
                "chain/consensus".to_string(),
                schema,
                root,
                ServiceProfile::bench(4).shape,
            )
        }
    }
}

/// One request of the sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// Suite index (the method id).
    pub suite: u32,
    /// Message index within the suite.
    pub msg: u32,
    /// `true`: the request carries the message to decode; `false`: it asks
    /// for the message to be encoded.
    pub deser: bool,
}

/// Seconds spent in each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Schemas, populations, reference encodes, request sequence.
    pub traffic_s: f64,
    /// `FastCodec::new` per suite.
    pub codec_compile_s: f64,
    /// Pre-decoded objects for encode requests, request frames.
    pub stage_s: f64,
}

impl SetupTimes {
    /// The times on the nominal clock, measured at machine speed `speed`.
    #[must_use]
    pub fn scaled(self, speed: f64) -> Self {
        SetupTimes {
            traffic_s: self.traffic_s * speed,
            codec_compile_s: self.codec_compile_s * speed,
            stage_s: self.stage_s * speed,
        }
    }
}

/// Everything the measured loop reads.
pub struct HostSetup {
    /// The workload's suites (index = method id).
    pub suites: Vec<Suite>,
    /// One compiled codec per suite.
    pub codecs: Vec<FastCodec>,
    /// Per suite, per message: the decoded object an encode request reads.
    pub decoded: Vec<Vec<(DecodeArena, u32)>>,
    /// Per suite, per message: `[decode request frame, encode request frame]`.
    pub frames: Vec<Vec<[Vec<u8>; 2]>>,
    /// The request sequence.
    pub sequence: Vec<Req>,
    /// Set-up phase timings.
    pub times: SetupTimes,
}

impl HostSetup {
    /// Builds the workload's inputs: `population` fixed messages per suite
    /// and a `sequence`-request loop drawn from `seed`.
    ///
    /// # Panics
    ///
    /// On a non-host workload, or when the generated inputs fail to encode
    /// or decode (a bug in the generator or codec, caught before timing).
    #[must_use]
    pub fn build(workload: Workload, seed: u64, population: usize, sequence: usize) -> Self {
        let t = Instant::now();
        let suites: Vec<Suite> = sources(workload)
            .iter()
            .enumerate()
            .map(|(i, &src)| {
                let (name, schema, type_id, shape) = schema_of(src);
                let messages = populate_messages(
                    &schema,
                    type_id,
                    &shape,
                    split_seed(SCHEMA_SEED, i as u64),
                    population,
                );
                let wires = messages
                    .iter()
                    .map(|m| reference::encode(m, &schema).expect("generated message encodes"))
                    .collect();
                Suite {
                    name,
                    schema,
                    type_id,
                    wires,
                }
            })
            .collect();
        let profile = FleetProfile::google_2021();
        let deser = profile.share(ProtoOp::Deserialize);
        let deser_fraction = deser / (deser + profile.share(ProtoOp::Serialize));
        let mut rng = StdRng::seed_from_u64(split_seed(seed, 0x5E0));
        let sequence = (0..sequence)
            .map(|_| Req {
                suite: rng.gen_range(0..suites.len()) as u32,
                msg: rng.gen_range(0..population) as u32,
                deser: rng.gen_bool(deser_fraction),
            })
            .collect();
        let traffic_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let codecs: Vec<FastCodec> = suites.iter().map(|s| FastCodec::new(&s.schema)).collect();
        let codec_compile_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let decoded = suites
            .iter()
            .zip(&codecs)
            .map(|(s, codec)| {
                s.wires
                    .iter()
                    .map(|wire| {
                        let mut arena = DecodeArena::new();
                        let obj = codec
                            .decode(s.type_id, wire, &mut arena)
                            .expect("generated message decodes");
                        (arena, obj)
                    })
                    .collect()
            })
            .collect();
        let frames = suites
            .iter()
            .enumerate()
            .map(|(method, s)| {
                s.wires
                    .iter()
                    .enumerate()
                    .map(|(msg, wire)| {
                        [
                            request_frame(method, true, wire),
                            request_frame(method, false, &(msg as u32).to_le_bytes()),
                        ]
                    })
                    .collect()
            })
            .collect();
        let stage_s = t.elapsed().as_secs_f64();

        HostSetup {
            suites,
            codecs,
            decoded,
            frames,
            sequence,
            times: SetupTimes {
                traffic_s,
                codec_compile_s,
                stage_s,
            },
        }
    }

    /// The request frame of `req`.
    #[must_use]
    pub fn frame(&self, req: Req) -> &[u8] {
        &self.frames[req.suite as usize][req.msg as usize][usize::from(!req.deser)]
    }

    /// Bytes the measured loop reads: request frames, reference wires, and
    /// pre-decoded arenas.
    #[must_use]
    pub fn working_set_bytes(&self) -> usize {
        let frames: usize = self.frames.iter().flatten().flatten().map(Vec::len).sum();
        let wires: usize = self
            .suites
            .iter()
            .flat_map(|s| &s.wires)
            .map(Vec::len)
            .sum();
        let arenas: usize = self.decoded.iter().flatten().map(|(a, _)| a.len()).sum();
        frames + wires + arenas
    }
}

fn request_frame(method: usize, deser: bool, body: &[u8]) -> Vec<u8> {
    let header = RpcHeader {
        method: method as u32,
        deser,
        deadline: None,
    };
    let mut payload = header.to_payload();
    payload.extend_from_slice(body);
    encode_frame(false, &payload).expect("request fits the frame ceiling")
}

// --- Spans --------------------------------------------------------------

/// Span names: the request root, then one per timed layer.
pub const SPAN_NAMES: [&str; 6] = [
    "bench.request",
    "rpc.frame.decode",
    "rpc.header.route",
    "fastpath.decode",
    "fastpath.encode",
    "rpc.frame.encode",
];
const ROOT: u8 = 0;
const FRAME_DECODE: u8 = 1;
const ROUTE: u8 = 2;
const DECODE: u8 = 3;
const ENCODE: u8 = 4;
const FRAME_ENCODE: u8 = 5;

/// One span: a call into one layer for one request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into [`SPAN_NAMES`].
    pub name: u8,
    /// Request id (position in the traced run).
    pub req: u32,
    /// Index of the enclosing span in [`SpanLog::spans`].
    pub parent: Option<u32>,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
}

/// In-memory span log of a traced run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// Spans in start order.
    pub spans: Vec<Span>,
    root: u32,
}

impl SpanLog {
    fn new(capacity: usize) -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            root: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin_request(&mut self, req: u32) {
        self.root = self.spans.len() as u32;
        let now = self.now();
        self.spans.push(Span {
            name: ROOT,
            req,
            parent: None,
            start_ns: now,
            end_ns: now,
        });
    }

    fn end_request(&mut self) {
        let now = self.now();
        self.spans[self.root as usize].end_ns = now;
    }

    fn child<R>(&mut self, name: u8, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        let root = &self.spans[self.root as usize];
        let req = root.req;
        self.spans.push(Span {
            name,
            req,
            parent: Some(self.root),
            start_ns,
            end_ns,
        });
        r
    }

    /// Per span name: (calls, self ns). A span's self time is its duration
    /// minus the part its child spans cover.
    #[must_use]
    pub fn self_times(&self) -> [(u64, u64); SPAN_NAMES.len()] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = [(0u64, 0u64); SPAN_NAMES.len()];
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let slot = &mut out[usize::from(s.name)];
            slot.0 += 1;
            slot.1 += (s.end_ns - s.start_ns).saturating_sub(*c);
        }
        out
    }

    /// Writes the spans of the first `requests` requests as Chrome-trace
    /// JSON.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_chrome(&self, path: &std::path::Path, requests: u32) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"traceEvents\": [")?;
        for (i, s) in self
            .spans
            .iter()
            .take_while(|s| s.req < requests)
            .enumerate()
        {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{}\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"req\": {}, \"span\": {i}, \"parent\": {parent}}}}}",
                if i == 0 { "" } else { "," },
                SPAN_NAMES[usize::from(s.name)],
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.req,
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

// --- The server ---------------------------------------------------------

/// Byte counters over handled requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Requests handled.
    pub requests: u64,
    /// Request plus response frame bytes.
    pub frame_bytes: u64,
    /// Decode requests.
    pub decodes: u64,
    /// Message bytes decoded.
    pub decode_bytes: u64,
    /// Arena bytes written by decodes (`DecodeArena::len`).
    pub arena_bytes: u64,
    /// Encode requests.
    pub encodes: u64,
    /// Message bytes encoded.
    pub encode_bytes: u64,
}

/// A handled request: the response frame, plus the decoded object's offset
/// in the server arena for decode requests.
#[derive(Debug)]
pub struct Served {
    /// The response frame.
    pub frame: Vec<u8>,
    /// Root object of the decoded request message.
    pub decoded: Option<u32>,
}

/// A one-connection server over a [`HostSetup`].
pub struct HostServer<'a> {
    setup: &'a HostSetup,
    decoder: FrameDecoder,
    /// Arena the last decode request wrote.
    pub arena: DecodeArena,
    /// Byte counters.
    pub counters: Counters,
}

impl<'a> HostServer<'a> {
    /// A fresh server.
    #[must_use]
    pub fn new(setup: &'a HostSetup) -> Self {
        HostServer {
            setup,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME_LEN),
            arena: DecodeArena::new(),
            counters: Counters::default(),
        }
    }

    /// Handles one request frame, recording one span per layer into `log`.
    ///
    /// # Errors
    ///
    /// A description of the first framing, header, route, or codec error.
    pub fn handle(
        &mut self,
        bytes: &[u8],
        mut log: Option<&mut SpanLog>,
    ) -> Result<Served, String> {
        let setup = self.setup;
        let decoder = &mut self.decoder;
        let frame = timed(&mut log, FRAME_DECODE, || {
            decoder.push(bytes);
            decoder.next_frame()
        })
        .map_err(|e| format!("frame: {e}"))?
        .ok_or("frame: incomplete")?;
        let (header, used) = timed(&mut log, ROUTE, || {
            let (h, used) =
                RpcHeader::decode(&frame.payload).map_err(|e| format!("header: {e}"))?;
            // The method table: method id → suite.
            if (h.method as usize) < setup.suites.len() {
                Ok((h, used))
            } else {
                Err(format!("header: unknown method {}", h.method))
            }
        })?;
        let suite = header.method as usize;
        let (type_id, codec) = (setup.suites[suite].type_id, &setup.codecs[suite]);
        let body = &frame.payload[used..];
        let (response, decoded) = if header.deser {
            let arena = &mut self.arena;
            let obj = timed(&mut log, DECODE, || codec.decode(type_id, body, arena))
                .map_err(|e| format!("decode: {e}"))?;
            self.counters.decodes += 1;
            self.counters.decode_bytes += body.len() as u64;
            self.counters.arena_bytes += self.arena.len() as u64;
            // The acknowledgement carries the decoded arena size.
            ((self.arena.len() as u64).to_le_bytes().to_vec(), Some(obj))
        } else {
            let msg = body
                .get(..4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")) as usize)
                .filter(|&m| m < setup.decoded[suite].len())
                .ok_or("encode request names no message")?;
            let (arena, obj) = &setup.decoded[suite][msg];
            let wire = &setup.suites[suite].wires[msg];
            let out = timed(&mut log, ENCODE, || {
                codec.encode_decoded(type_id, wire, arena, *obj)
            });
            self.counters.encodes += 1;
            self.counters.encode_bytes += out.len() as u64;
            (out, None)
        };
        let frame = timed(&mut log, FRAME_ENCODE, || encode_frame(false, &response))
            .map_err(|e| format!("response frame: {e}"))?;
        self.counters.requests += 1;
        self.counters.frame_bytes += (bytes.len() + frame.len()) as u64;
        Ok(Served { frame, decoded })
    }
}

fn timed<R>(log: &mut Option<&mut SpanLog>, name: u8, f: impl FnOnce() -> R) -> R {
    match log {
        Some(log) => log.child(name, f),
        None => f(),
    }
}

/// Correctness gate: one untimed pass over every distinct request frame.
/// Every response frame must decode; every encode response must equal
/// `reference::encode`; every decoded request must re-encode byte-
/// identically through `encode_decoded`. Returns the problems found.
#[must_use]
pub fn check(setup: &HostSetup) -> Vec<String> {
    let mut problems = Vec::new();
    let mut server = HostServer::new(setup);
    for (si, suite) in setup.suites.iter().enumerate() {
        for (mi, wire) in suite.wires.iter().enumerate() {
            for deser in [true, false] {
                let req = Req {
                    suite: si as u32,
                    msg: mi as u32,
                    deser,
                };
                let label = format!(
                    "{} #{mi} {}",
                    suite.name,
                    if deser { "decode" } else { "encode" }
                );
                let served = match server.handle(setup.frame(req), None) {
                    Ok(s) => s,
                    Err(e) => {
                        problems.push(format!("{label}: {e}"));
                        continue;
                    }
                };
                let body = match decode_frame(&served.frame, DEFAULT_MAX_FRAME_LEN) {
                    Ok((f, used)) if used == served.frame.len() => f.payload,
                    _ => {
                        problems.push(format!("{label}: response frame does not decode"));
                        continue;
                    }
                };
                let ok = match served.decoded {
                    Some(obj) => {
                        setup.codecs[si].encode_decoded(suite.type_id, wire, &server.arena, obj)
                            == *wire
                    }
                    None => body == *wire,
                };
                if !ok {
                    problems.push(format!("{label}: bytes differ from reference::encode"));
                }
            }
        }
    }
    problems
}

// --- Latency histogram --------------------------------------------------

/// Exact latency distribution: 1 ns buckets below 64 µs, raw samples above.
struct LatencyHist {
    counts: Vec<u64>,
    over: Vec<u64>,
    n: u64,
}

impl LatencyHist {
    const DIRECT: usize = 1 << 16;

    fn new() -> Self {
        LatencyHist {
            counts: vec![0; Self::DIRECT],
            over: Vec::new(),
            n: 0,
        }
    }

    fn record(&mut self, ns: u64) {
        self.n += 1;
        match self
            .counts
            .get_mut(usize::try_from(ns).unwrap_or(usize::MAX))
        {
            Some(c) => *c += 1,
            None => self.over.push(ns),
        }
    }

    fn percentile(&mut self, p: f64) -> u64 {
        let n = usize::try_from(self.n).expect("sample count fits usize");
        if n == 0 {
            return 0;
        }
        let rank = protoacc_trace::nearest_rank(p, n) as u64;
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return ns as u64;
            }
        }
        self.over.sort_unstable();
        self.over[usize::try_from(rank - seen).expect("rank fits usize")]
    }
}

// --- The workload -------------------------------------------------------

/// What one phase of the closed loop did.
struct Phase {
    requests: u64,
    failed: u64,
    /// Seconds on the nominal clock (see [`machine_speed`]).
    nominal_s: f64,
}

/// Runs the closed loop until `seconds` pass or `max_requests` complete,
/// recording spans into `log` when given.
fn closed_loop(
    server: &mut HostServer<'_>,
    seconds: f64,
    max_requests: u64,
    mut log: Option<&mut SpanLog>,
) -> Phase {
    let setup = server.setup;
    let speed = machine_speed();
    let start = Instant::now();
    let (mut requests, mut failed) = (0u64, 0u64);
    for &req in setup.sequence.iter().cycle() {
        if let Some(log) = log.as_deref_mut() {
            log.begin_request(requests as u32);
        }
        let served = server.handle(setup.frame(req), log.as_deref_mut());
        if let Some(log) = log.as_deref_mut() {
            log.end_request();
        }
        match served {
            Ok(s) => {
                std::hint::black_box(s.frame);
            }
            Err(_) => failed += 1,
        }
        requests += 1;
        if requests % 256 == 0
            && (requests >= max_requests || start.elapsed().as_secs_f64() >= seconds)
        {
            break;
        }
    }
    let raw_s = start.elapsed().as_secs_f64();
    Phase {
        requests,
        failed,
        nominal_s: raw_s * (speed + machine_speed()) / 2.0,
    }
}

/// One host workload run.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    // Set-up, repeated; the last build is the one measured.
    let mut totals = Vec::new();
    let mut phases = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let speed = machine_speed();
        let t = Instant::now();
        let s = HostSetup::build(workload, seed, POPULATION, SEQUENCE);
        totals.push(t.elapsed().as_secs_f64() * speed);
        phases.push(s.times.scaled(speed));
        setup = Some(s);
    }
    let setup = setup.expect("set-up ran");
    out.set("setup_s", median(&totals));
    out.set(
        "setup.traffic_s",
        median(&phases.iter().map(|p| p.traffic_s).collect::<Vec<_>>()),
    );
    out.set(
        "setup.codec_compile_s",
        median(&phases.iter().map(|p| p.codec_compile_s).collect::<Vec<_>>()),
    );
    out.set(
        "setup.stage_s",
        median(&phases.iter().map(|p| p.stage_s).collect::<Vec<_>>()),
    );
    out.facts
        .push(("working_set_bytes", setup.working_set_bytes().to_string()));
    out.facts.push((
        "suites",
        format!(
            "[{}]",
            setup
                .suites
                .iter()
                .map(|s| crate::json_str(&s.name))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));

    // Correctness gate (also the warm-up pass).
    for p in check(&setup) {
        out.fail(p);
    }

    let mut server = HostServer::new(&setup);
    if trace {
        traced(&mut out, &mut server, workload, seed, seconds);
    } else {
        untraced(&mut out, &mut server, seconds);
    }
    out.correct = out.problems.is_empty() && out.failed == 0;
    out
}

fn untraced(out: &mut Outcome, server: &mut HostServer<'_>, seconds: f64) {
    let setup = server.setup;
    let mut hist = LatencyHist::new();
    let (mut rates, mut gbits, mut raw_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut requests, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut speed = machine_speed();
    let (mut w_start, mut w_req, mut w_wire) = (Instant::now(), 0u64, 0u64);
    let mut window_ns: Vec<f64> = Vec::new();
    for &req in setup.sequence.iter().cycle() {
        let t0 = Instant::now();
        let served = server.handle(setup.frame(req), None);
        window_ns.push(t0.elapsed().as_nanos() as f64);
        match served {
            Ok(s) => {
                std::hint::black_box(s.frame);
            }
            Err(_) => failed += 1,
        }
        requests += 1;
        if requests % 64 != 0 {
            continue;
        }
        let dt = w_start.elapsed().as_secs_f64();
        if dt < WINDOW_S {
            continue;
        }
        // Close the window on the nominal clock: the mean of the probes
        // at its two ends stands for the machine's speed across it.
        let after = machine_speed();
        let window_speed = (speed + after) / 2.0;
        let nominal_dt = dt * window_speed;
        for ns in window_ns.drain(..) {
            hist.record((ns * window_speed).round() as u64);
        }
        let c = server.counters;
        let wire = c.decode_bytes + c.encode_bytes;
        rates.push((c.requests - w_req) as f64 / nominal_dt);
        gbits.push((wire - w_wire) as f64 * 8.0 / nominal_dt / 1e9);
        raw_rates.push((c.requests - w_req) as f64 / dt);
        (speed, w_req, w_wire) = (after, c.requests, wire);
        w_start = Instant::now();
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.attempted = requests;
    out.failed = failed;
    out.set("req_per_host_s", median(&rates));
    out.set("wire_gbits", median(&gbits));
    out.set("p50_ns", hist.percentile(50.0) as f64);
    out.set("p99_ns", hist.percentile(99.0) as f64);
    out.set(
        "in_budget_share",
        ratio((requests - failed) as f64, requests as f64),
    );
    out.facts.push(("latency_samples", requests.to_string()));
    out.facts.push(("windows", rates.len().to_string()));
    out.facts
        .push(("raw_req_per_host_s", format!("{:?}", median(&raw_rates))));
}

fn traced(
    out: &mut Outcome,
    server: &mut HostServer<'_>,
    workload: Workload,
    seed: u64,
    seconds: f64,
) {
    // Untraced half: the baseline of the tracing overhead.
    let base = closed_loop(server, seconds / 2.0, u64::MAX, None);
    let before = server.counters;
    let mut log = SpanLog::new(MAX_TRACED * SPAN_NAMES.len());
    let traced = closed_loop(server, seconds / 2.0, MAX_TRACED as u64, Some(&mut log));
    out.attempted = base.requests + traced.requests;
    out.failed = base.failed + traced.failed;
    let base_ns = base.nominal_s / base.requests.max(1) as f64;
    let traced_ns = traced.nominal_s / traced.requests.max(1) as f64;
    out.set(
        "bench.trace_overhead_pct",
        (traced_ns / base_ns - 1.0) * 100.0,
    );
    out.set("bench.traced_requests", traced.requests as f64);

    let c = server.counters;
    let per = |a: u64, b: u64, n: u64| ratio((a - b) as f64, n as f64);
    let (decodes, encodes) = (c.decodes - before.decodes, c.encodes - before.encodes);
    out.set(
        "rpc.frame.bytes",
        per(c.frame_bytes, before.frame_bytes, traced.requests),
    );
    out.set(
        "fastpath.decode.bytes",
        per(c.decode_bytes, before.decode_bytes, decodes),
    );
    out.set(
        "fastpath.arena_bytes",
        per(c.arena_bytes, before.arena_bytes, decodes),
    );
    out.set(
        "fastpath.encode.bytes",
        per(c.encode_bytes, before.encode_bytes, encodes),
    );

    let self_ns = log.self_times();
    let total_ns: u64 = self_ns.iter().map(|&(_, ns)| ns).sum();
    let mean = |i: u8| {
        let (n, ns) = self_ns[usize::from(i)];
        ratio(ns as f64, n as f64)
    };
    let share = |i: u8| ratio(self_ns[usize::from(i)].1 as f64, total_ns as f64);
    out.set("rpc.frame.decode_ns", mean(FRAME_DECODE));
    out.set("rpc.header.route_ns", mean(ROUTE));
    out.set("fastpath.decode_ns", mean(DECODE));
    out.set("fastpath.encode_ns", mean(ENCODE));
    out.set("rpc.frame.encode_ns", mean(FRAME_ENCODE));
    out.set("rpc.frame.decode.share", share(FRAME_DECODE));
    out.set("rpc.header.route.share", share(ROUTE));
    out.set("fastpath.decode.share", share(DECODE));
    out.set("fastpath.encode.share", share(ENCODE));
    out.set("rpc.frame.encode.share", share(FRAME_ENCODE));
    out.set("bench.unattributed.share", share(ROOT));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{seed}.json", workload.name()));
    match log.write_chrome(&path, SPANS_WRITTEN as u32) {
        Ok(()) => out
            .facts
            .push(("span_file", crate::json_str(&path.display().to_string()))),
        Err(e) => out.fail(format!("writing {}: {e}", path.display())),
    }
}
