//! The framed RPC serving layer in front of a [`ServeCluster`].
//!
//! [`RpcServer`] owns the cluster plus the per-connection transport state.
//! Incoming connection bytes flow through each connection's
//! [`FrameDecoder`]; every complete frame yields an [`RpcHeader`] that is
//! resolved against the method table into a concrete accelerator
//! [`Request`], offered to the cluster at once. The cluster's queue and
//! sequence numbers persist across requests, so a whole schedule is one
//! continuous cluster run under either dispatch policy. Three robustness
//! mechanisms compose on that path, in order:
//!
//! 1. **Framing totality** — a malformed frame (reserved flag, oversized
//!    or truncated length) is a typed [`FrameError`](crate::FrameError)
//!    that kills only its connection; the request never reaches the
//!    cluster and the byte is accounted in [`RpcStats::frame_errors`].
//! 2. **Credit-window flow control** — each connection may have at most
//!    `window` requests in flight. A frame arriving with the window
//!    exhausted is *deferred*: its effective arrival becomes the completion
//!    time of the oldest outstanding request (the moment a credit frees).
//!    This bounds per-connection pressure without dropping anything; across
//!    connections, the cluster's `queue_depth` bounds the backlog and drops
//!    what overflows it ([`ServeCluster::dropped`]).
//! 3. **Admission control** — the method table carries each method's
//!    abstract-interpretation cost ceiling
//!    ([`Envelope::service_bounds`]`.upper`), and the frame header carries
//!    the client's deadline budget. Both ride into the cluster, whose
//!    admission controller sheds the request *before* enqueue when the
//!    backlog estimate already blows the deadline
//!    ([`CommandStatus::Shed`](protoacc::serve::CommandStatus)), and whose
//!    dispatch path min-combines the remaining budget into the attempt
//!    watchdog ceiling.
//!
//! The server is deterministic: identical frame schedules against an
//! identical staged memory image produce identical clusters, records, and
//! stats.

use protoacc::serve::{Request, RequestOp, ServeCluster, ServeConfig};
use protoacc::AccelError;
use protoacc_absint::Envelope;
use protoacc_mem::{Cycles, Memory};
use protoacc_trace::{SharedTracer, TraceEvent};

use crate::frame::{FrameDecoder, DEFAULT_MAX_FRAME_LEN};
use crate::header::RpcHeader;

/// One entry in the server's method table: the staged operation templates
/// plus the admission cost estimate per direction.
#[derive(Debug, Clone, Copy)]
pub struct Method {
    /// Deserialization request template (staged wire input + destination).
    pub deser_op: RequestOp,
    /// Serialization request template (staged object graph).
    pub ser_op: RequestOp,
    /// Admission cost ceiling for one uncontended deserialization:
    /// `Envelope::service_bounds(input_len, 1).upper`.
    pub deser_cost: Cycles,
    /// Admission cost ceiling for one uncontended serialization.
    pub ser_cost: Cycles,
}

impl Method {
    /// Builds a method from its operation templates and the absint
    /// envelopes of its message type — the canonical coupling between the
    /// transport's admission controller and the static cost model.
    #[must_use]
    pub fn from_envelopes(
        deser_op: RequestOp,
        ser_op: RequestOp,
        deser_env: &Envelope,
        ser_env: &Envelope,
        input_len: u64,
        out_len: u64,
    ) -> Self {
        Method {
            deser_op,
            ser_op,
            deser_cost: deser_env.service_bounds(input_len.max(1), 1).upper,
            ser_cost: ser_env.service_bounds(out_len.max(1), 1).upper,
        }
    }
}

/// Transport-layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct RpcConfig {
    /// Per-connection in-flight window (credits). A connection never has
    /// more than this many requests between admission and completion.
    pub window: usize,
    /// Frame payload-length ceiling handed to every connection's decoder.
    pub max_frame_len: u64,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            window: 4,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// One frame's worth of bytes arriving on a connection at a cycle
/// timestamp. Chunks may split or batch frames arbitrarily; the
/// per-connection decoder reassembles them.
#[derive(Debug, Clone)]
pub struct IncomingFrame {
    /// Connection index (dense, 0-based; connections are created on first
    /// use).
    pub conn: usize,
    /// Arrival cycle of these bytes at the server.
    pub arrival: Cycles,
    /// The bytes.
    pub bytes: Vec<u8>,
}

/// Transport-plane accounting. Cluster-plane outcomes (ok / fallback /
/// rejected / failed / shed) live on the cluster itself; these counters
/// cover what happens *before* a request exists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcStats {
    /// Complete frames decoded.
    pub frames: u64,
    /// Framing faults (one per poisoned connection event, including bytes
    /// arriving on an already-dead connection and truncated stream tails).
    pub frame_errors: u64,
    /// Frames whose payload carried a malformed or unroutable header.
    pub header_errors: u64,
    /// Requests whose arrival was pushed back by credit-window exhaustion.
    pub deferred: u64,
}

/// Per-connection transport state.
#[derive(Debug)]
struct ConnState {
    decoder: FrameDecoder,
    /// Completion times of in-flight requests (length ≤ window).
    in_flight: Vec<Cycles>,
    dead: bool,
}

impl ConnState {
    fn new(max_frame_len: u64) -> Self {
        ConnState {
            decoder: FrameDecoder::new(max_frame_len),
            in_flight: Vec::new(),
            dead: false,
        }
    }
}

/// The framed serving layer: connections, method table, and the cluster.
#[derive(Debug)]
pub struct RpcServer {
    cluster: ServeCluster,
    methods: Vec<Method>,
    config: RpcConfig,
    conns: Vec<ConnState>,
    tracer: Option<SharedTracer>,
    stats: RpcStats,
}

/// Traces one frame-plane event: `len` bytes on `conn` decoded (`ok`) or
/// refused at `at`.
fn frame_decode(tracer: &Option<SharedTracer>, conn: usize, at: Cycles, len: usize, ok: bool) {
    if let Some(t) = tracer {
        t.borrow_mut().record(TraceEvent::FrameDecode {
            conn,
            at,
            len: len as u64,
            ok,
        });
    }
}

impl RpcServer {
    /// Creates a server over a fresh cluster. `arena_base`/`arena_stride`
    /// are the per-instance guest arena parameters, exactly as for
    /// [`ServeCluster::new`].
    ///
    /// # Panics
    ///
    /// On a zero-credit window.
    #[must_use]
    pub fn new(
        serve: ServeConfig,
        rpc: RpcConfig,
        methods: Vec<Method>,
        arena_base: u64,
        arena_stride: u64,
    ) -> Self {
        assert!(rpc.window > 0, "a zero-credit window admits nothing");
        RpcServer {
            cluster: ServeCluster::new(serve, arena_base, arena_stride),
            methods,
            config: rpc,
            conns: Vec::new(),
            tracer: None,
            stats: RpcStats::default(),
        }
    }

    /// Attaches (or detaches) a structured-event tracer. The same tracer is
    /// handed to the cluster, so frame-plane `FrameDecode` events interleave
    /// with the command lifecycle events in one stream.
    pub fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        self.cluster.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The underlying cluster (records, status counts, percentiles).
    #[must_use]
    pub fn cluster(&self) -> &ServeCluster {
        &self.cluster
    }

    /// Transport-plane counters.
    #[must_use]
    pub fn stats(&self) -> RpcStats {
        self.stats
    }

    /// Serves a schedule of connection byte chunks (must be sorted by
    /// arrival). Each decoded frame becomes one cluster request; the call
    /// ends by closing every connection, flagging truncated stream tails.
    ///
    /// # Errors
    ///
    /// Propagates [`AccelError`] from the underlying cluster — model-level
    /// failures (bad staging), never traffic-dependent ones.
    pub fn serve(&mut self, mem: &mut Memory, frames: &[IncomingFrame]) -> Result<(), AccelError> {
        debug_assert!(
            frames.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "frame schedule must be arrival-sorted"
        );
        for f in frames {
            self.ingest(mem, f)?;
        }
        self.close_connections();
        Ok(())
    }

    /// Feeds one byte chunk to its connection and serves every frame that
    /// completes.
    fn ingest(&mut self, mem: &mut Memory, f: &IncomingFrame) -> Result<(), AccelError> {
        let max_frame_len = self.config.max_frame_len;
        if f.conn >= self.conns.len() {
            self.conns
                .resize_with(f.conn + 1, || ConnState::new(max_frame_len));
        }
        if self.conns[f.conn].dead {
            self.stats.frame_errors += 1;
            frame_decode(&self.tracer, f.conn, f.arrival, f.bytes.len(), false);
            return Ok(());
        }
        self.conns[f.conn].decoder.push(&f.bytes);
        loop {
            match self.conns[f.conn].decoder.next_frame() {
                Ok(None) => break,
                Err(_) => {
                    self.conns[f.conn].dead = true;
                    self.stats.frame_errors += 1;
                    frame_decode(&self.tracer, f.conn, f.arrival, f.bytes.len(), false);
                    break;
                }
                Ok(Some(frame)) => {
                    self.stats.frames += 1;
                    frame_decode(&self.tracer, f.conn, f.arrival, frame.payload.len(), true);
                    let Ok((header, _)) = RpcHeader::decode(&frame.payload) else {
                        self.stats.header_errors += 1;
                        continue;
                    };
                    if header.method as usize >= self.methods.len() {
                        self.stats.header_errors += 1;
                        continue;
                    }
                    self.dispatch(mem, f.conn, f.arrival, header)?;
                }
            }
        }
        Ok(())
    }

    /// Runs one decoded request through the credit window and the cluster.
    fn dispatch(
        &mut self,
        mem: &mut Memory,
        conn: usize,
        arrival: Cycles,
        header: RpcHeader,
    ) -> Result<(), AccelError> {
        let method = self.methods[header.method as usize];
        // Credit window: with the window full, the request waits for the
        // earliest outstanding completion before it can even arrive at the
        // cluster's queue.
        let mut effective = arrival;
        {
            let in_flight = &mut self.conns[conn].in_flight;
            while in_flight.len() >= self.config.window {
                let (idx, &earliest) = in_flight
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &c)| c)
                    .expect("window > 0 implies a nonempty in-flight set");
                in_flight.swap_remove(idx);
                if earliest > effective {
                    effective = earliest;
                    self.stats.deferred += 1;
                }
            }
        }
        let (op, cost) = if header.deser {
            (method.deser_op, method.deser_cost)
        } else {
            (method.ser_op, method.ser_cost)
        };
        let request = Request {
            arrival: effective,
            watchdog: None,
            deadline: header.deadline.map(|d| effective.saturating_add(d)),
            cost: Some(cost),
            op,
        };
        let before = self.cluster.records().len();
        self.cluster.run(mem, std::slice::from_ref(&request))?;
        // The request's credit stays consumed until its completion time; a
        // request the cluster's full queue dropped frees it at once.
        let completion = self
            .cluster
            .records()
            .get(before)
            .map_or(effective, |r| r.complete);
        self.conns[conn].in_flight.push(completion);
        Ok(())
    }

    /// Tears down every connection: a stream ending mid-frame is a framing
    /// fault, exactly as a one-shot decode of the tail would report.
    fn close_connections(&mut self) {
        for (conn, state) in self.conns.iter_mut().enumerate() {
            if !state.dead && state.decoder.finish().is_err() {
                state.dead = true;
                self.stats.frame_errors += 1;
                frame_decode(&self.tracer, conn, 0, state.decoder.buffered(), false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use protoacc::serve::CommandStatus;
    use protoacc::DispatchPolicy;
    use protoacc_absint::Envelope;
    use protoacc_mem::{MemConfig, Memory};
    use protoacc_runtime::{object, reference, write_adts, BumpArena, MessageLayouts};
    use protoacc_schema::parse_proto;

    /// One staged single-method service over a tiny schema, plus the frame
    /// builder the tests share.
    struct Fixture {
        mem: Memory,
        methods: Vec<Method>,
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
        let mut msg = protoacc_runtime::MessageValue::new(id);
        msg.set(1, protoacc_runtime::Value::UInt64(7)).unwrap();
        msg.set(2, protoacc_runtime::Value::Str("framed rpc".into()))
            .unwrap();
        msg.set(3, protoacc_runtime::Value::Bytes(vec![0xCD; 256]))
            .unwrap();
        let wire = reference::encode(&msg, &schema).unwrap();
        let input_addr = 0x20_0000;
        mem.data.write_bytes(input_addr, &wire);
        let layout = layouts.layout(id);
        let mut objects = BumpArena::new(0x30_0000, 1 << 20);
        let obj_ptr =
            object::write_message(&mut mem.data, &schema, &layouts, &mut objects, &msg).unwrap();
        let dest_obj = objects.alloc(layout.object_size(), 8).unwrap();
        let accel = protoacc::AccelConfig::default();
        let mem_cfg = MemConfig::default();
        let deser_env = Envelope::deser(&schema, &layouts, id, &accel, &mem_cfg);
        let ser_env = Envelope::ser(&schema, &layouts, id, &accel, &mem_cfg);
        let method = Method::from_envelopes(
            RequestOp::Deserialize {
                adt_ptr: adts.addr(id),
                input_addr,
                input_len: wire.len() as u64,
                dest_obj,
                min_field: layout.min_field(),
            },
            RequestOp::Serialize {
                adt_ptr: adts.addr(id),
                obj_ptr,
                hasbits_offset: layout.hasbits_offset(),
                min_field: layout.min_field(),
                max_field: layout.max_field(),
            },
            &deser_env,
            &ser_env,
            wire.len() as u64,
            wire.len() as u64,
        );
        Fixture {
            mem,
            methods: vec![method],
        }
    }

    fn server(f: &Fixture, window: usize) -> RpcServer {
        server_with_depth(f, window, 64)
    }

    fn server_with_depth(f: &Fixture, window: usize, queue_depth: usize) -> RpcServer {
        RpcServer::new(
            ServeConfig {
                instances: 1,
                queue_depth,
                policy: DispatchPolicy::Fifo,
                ..ServeConfig::default()
            },
            RpcConfig {
                window,
                ..RpcConfig::default()
            },
            f.methods.clone(),
            0x1_0000_0000,
            1 << 24,
        )
    }

    fn request_frame(deser: bool, deadline: Option<Cycles>) -> Vec<u8> {
        let header = RpcHeader {
            method: 0,
            deser,
            deadline,
        };
        encode_frame(false, &header.to_payload()).expect("request header fits the frame ceiling")
    }

    #[test]
    fn queue_depth_drops_what_the_credits_let_through() {
        let mut f = fixture();
        // Eight credits on one connection, a two-deep queue: the window
        // lets the whole burst through, and the queue the requests share
        // across calls overflows.
        let mut srv = server_with_depth(&f, 8, 2);
        let frames: Vec<IncomingFrame> = (0..8)
            .map(|_| IncomingFrame {
                conn: 0,
                arrival: 0,
                bytes: request_frame(true, None),
            })
            .collect();
        srv.serve(&mut f.mem, &frames).unwrap();
        let cluster = srv.cluster();
        assert_eq!(srv.stats().deferred, 0, "the window never binds");
        assert!(cluster.dropped() > 0, "the queue must overflow");
        assert_eq!(
            cluster.records().len() as u64 + cluster.dropped(),
            cluster.offered()
        );
        assert_eq!(cluster.offered(), 8);
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn deferred_request_then_earlier_frame_serves_in_offer_order() {
        let mut f = fixture();
        let mut srv = server(&f, 1);
        // Connection 0's second frame waits for its first to complete;
        // connection 1's frame arrives before that, so the cluster is
        // offered an arrival earlier than the one it saw last.
        let frames = vec![
            IncomingFrame {
                conn: 0,
                arrival: 0,
                bytes: request_frame(true, None),
            },
            IncomingFrame {
                conn: 0,
                arrival: 0,
                bytes: request_frame(true, None),
            },
            IncomingFrame {
                conn: 1,
                arrival: 1,
                bytes: request_frame(false, None),
            },
        ];
        srv.serve(&mut f.mem, &frames).unwrap();
        assert_eq!(srv.stats().deferred, 1);
        let records = srv.cluster().records();
        let seqs: Vec<usize> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        let (deferred, earlier) = (records[1], records[2]);
        assert!(earlier.enqueue < deferred.enqueue, "offered out of order");
        assert!(
            earlier.dispatch >= deferred.complete,
            "served in offer order"
        );
        srv.cluster().check_invariants().unwrap();
    }

    #[test]
    fn frames_become_served_commands() {
        let mut f = fixture();
        let mut srv = server(&f, 4);
        let frames: Vec<IncomingFrame> = (0..6)
            .map(|i| IncomingFrame {
                conn: i % 2,
                arrival: i as Cycles * 10_000,
                bytes: request_frame(i % 3 != 2, None),
            })
            .collect();
        srv.serve(&mut f.mem, &frames).unwrap();
        assert_eq!(srv.stats().frames, 6);
        assert_eq!(srv.cluster().offered(), 6);
        assert_eq!(srv.stats().frame_errors, 0);
        assert_eq!(srv.cluster().served(), 6);
        let (ok, fallback, rejected, failed, shed) = srv.cluster().status_counts();
        assert_eq!((ok, fallback, rejected, failed, shed), (6, 0, 0, 0, 0));
    }

    #[test]
    fn credit_window_defers_rather_than_drops() {
        let mut f = fixture();
        // Window of 1: the second simultaneous frame on the connection must
        // wait for the first completion.
        let mut srv = server(&f, 1);
        let frames: Vec<IncomingFrame> = (0..4)
            .map(|_| IncomingFrame {
                conn: 0,
                arrival: 0,
                bytes: request_frame(true, None),
            })
            .collect();
        srv.serve(&mut f.mem, &frames).unwrap();
        assert_eq!(srv.stats().deferred, 3, "all but the head deferred");
        assert_eq!(srv.cluster().served(), 4, "deferral never drops");
        let records = srv.cluster().records();
        // Every request arrives only after its predecessor completed: the
        // window bound is visible in the enqueue timestamps.
        for pair in records.windows(2) {
            assert!(pair[1].enqueue >= pair[0].complete);
        }

        // A wide window admits the same schedule without deferral.
        let mut wide = server(&f, 8);
        wide.serve(&mut f.mem, &frames).unwrap();
        assert_eq!(wide.stats().deferred, 0);
        assert_eq!(wide.cluster().served(), 4);
    }

    #[test]
    fn corrupt_frames_kill_only_their_connection() {
        let mut f = fixture();
        let mut srv = server(&f, 4);
        let mut reserved = request_frame(true, None);
        reserved[0] = 0x40;
        let frames = vec![
            IncomingFrame {
                conn: 0,
                arrival: 0,
                bytes: reserved,
            },
            // Dead connection: later bytes are counted, not served.
            IncomingFrame {
                conn: 0,
                arrival: 1_000,
                bytes: request_frame(true, None),
            },
            IncomingFrame {
                conn: 1,
                arrival: 2_000,
                bytes: request_frame(false, None),
            },
        ];
        srv.serve(&mut f.mem, &frames).unwrap();
        assert_eq!(srv.stats().frame_errors, 2);
        assert_eq!(srv.cluster().offered(), 1, "healthy connection unaffected");
        assert_eq!(srv.cluster().served(), 1);
    }

    #[test]
    fn deadline_budgets_flow_into_admission_shedding() {
        let mut f = fixture();
        let mut srv = server(&f, 16);
        let cost = f.methods[0].deser_cost;
        // A burst of simultaneous deadline-carrying requests: the head fits
        // its budget, the backlogged tail is shed at admission.
        let frames: Vec<IncomingFrame> = (0..12)
            .map(|_| IncomingFrame {
                conn: 0,
                arrival: 0,
                bytes: request_frame(true, Some(cost + 500)),
            })
            .collect();
        srv.serve(&mut f.mem, &frames).unwrap();
        let (ok, _, _, _, shed) = srv.cluster().status_counts();
        assert!(shed > 0, "backlogged burst must shed");
        assert!(ok > 0, "head of the burst must serve");
        assert_eq!(ok + shed, 12);
        assert!(srv
            .cluster()
            .records()
            .iter()
            .any(|r| r.status == CommandStatus::Shed));
    }

    #[test]
    fn truncated_stream_tails_are_framing_faults() {
        let mut f = fixture();
        let mut srv = server(&f, 4);
        let whole = request_frame(true, None);
        let frames = vec![IncomingFrame {
            conn: 0,
            arrival: 0,
            bytes: whole[..whole.len() - 1].to_vec(),
        }];
        srv.serve(&mut f.mem, &frames).unwrap();
        assert_eq!(srv.stats().frames, 0);
        assert_eq!(srv.stats().frame_errors, 1, "tail flagged at teardown");
    }
}
