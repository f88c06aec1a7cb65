//! Multi-instance serving model: N accelerators behind a RoCC command queue.
//!
//! The paper argues the accelerator earns its area by being replicated
//! per-SoC across a fleet (Section 6); related work (RPCAcc, Arcalis) shows
//! the systems questions live in the dispatch queue and the shared memory
//! hierarchy. This module models exactly that: a bounded command queue feeds
//! requests to N independent [`ProtoAccelerator`] instances that share one
//! simulated LLC/DRAM, with per-command enqueue/dispatch/complete timestamps
//! so tail latency and saturation behavior are observable.
//!
//! The simulation is event-driven over a virtual clock in accelerator
//! cycles. Requests carry an arrival time; the queue admits them up to its
//! depth (arrivals beyond it are shed), the dispatch policy binds each
//! admitted command to an instance, and the command occupies that instance
//! until `dispatch + rocc_dispatch + service` cycles. While `k` instances
//! are busy simultaneously, the shared memory system's outstanding-request
//! budget is split `k` ways ([`protoacc_mem::MemSystem::set_sharers`]), so
//! service times inflate exactly when the hierarchy is contended.
//!
//! Everything is deterministic: the same request stream over the same
//! initial memory state produces byte-identical reports.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use protoacc_mem::{Cycles, Memory, RequesterStats};

use crate::{AccelConfig, AccelError, AccelStats, DecodeFault, ProtoAccelerator};

/// Sentinel instance index for commands served by the software CPU
/// fallback path (or failed outright) rather than an accelerator instance.
pub const FALLBACK_INSTANCE: usize = usize::MAX;

/// Modeled occupancy of a command that hangs with no watchdog or deadline
/// configured: large enough to dominate any report, small enough that
/// overflow-checked arithmetic on timestamps stays safe.
const HUNG_COMMAND_CYCLES: Cycles = 1 << 40;

/// How a command ultimately resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandStatus {
    /// Completed correctly on an accelerator instance.
    Ok,
    /// Completed correctly on the software CPU fallback path.
    Fallback,
    /// Definitively rejected with a typed verdict (malformed input or a
    /// fallback-path rejection). A rejection is a *served* response: the
    /// client got an answer, and the differential harness checks its class
    /// against the CPU reference decoder.
    Rejected(DecodeFault),
    /// Exhausted its retries with no fallback available: together with
    /// [`CommandStatus::Shed`], the statuses that count as *not* served.
    Failed(DecodeFault),
    /// Shed by admission control before enqueue: the envelope-derived cost
    /// estimate predicted the request's deadline would be blown, so the
    /// cluster pushed back immediately instead of queueing doomed work.
    /// Distinct from [`CommandStatus::Rejected`] (the input was fine) and
    /// [`CommandStatus::Failed`] (no capacity was consumed trying).
    Shed,
}

impl CommandStatus {
    /// Whether the client received a definitive response (success or a
    /// typed rejection). Shed requests got a fast pushback, not an answer,
    /// so they do not count.
    pub fn is_served(self) -> bool {
        !matches!(self, CommandStatus::Failed(_) | CommandStatus::Shed)
    }

    /// Whether the command produced correct output (on either path).
    pub fn is_ok(self) -> bool {
        matches!(self, CommandStatus::Ok | CommandStatus::Fallback)
    }
}

/// What a scripted instance-plane fault does to its instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceFaultKind {
    /// The instance dies at `at`: an in-flight command is cut off at that
    /// cycle, and the instance accepts no further work.
    Crash,
    /// The instance wedges at `at`: an in-flight command never completes on
    /// its own (only a watchdog or deadline recovers it), and the instance
    /// accepts no further work.
    Hang,
    /// Unit cycles of commands dispatched in `[at, until)` are multiplied
    /// by `factor` (thermal throttling, a misbehaving neighbor).
    Slow {
        /// Service-time multiplier.
        factor: u64,
        /// End of the slow window.
        until: Cycles,
    },
}

/// One scripted instance-plane fault, precomputed by the fault injector so
/// replays stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceFault {
    /// Target instance index.
    pub instance: usize,
    /// Cycle the fault takes effect.
    pub at: Cycles,
    /// What happens.
    pub kind: InstanceFaultKind,
}

/// The software codec path the cluster degrades to when no accelerator
/// instance can serve a command. Implemented outside this crate (the
/// fault-injection layer wraps `protoacc-cpu`'s instrumented codec) so the
/// core model does not depend on the CPU baselines.
pub trait FallbackCodec {
    /// Executes `op` on the software path. Returns the cycles consumed —
    /// charged even when the verdict is a rejection, because rejecting
    /// malformed input costs real parse work — and the wire bytes moved on
    /// success.
    fn execute(&mut self, mem: &mut Memory, op: &RequestOp) -> (Cycles, Result<u64, AccelError>);
}

/// How the command queue binds admitted commands to instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Commands leave the queue in arrival order and run on whichever
    /// instance frees up first (single shared queue).
    Fifo,
    /// Command `i` is statically bound to instance `i mod N` (per-instance
    /// queues fed round-robin), so one slow command delays its successors on
    /// the same instance even while other instances idle.
    RoundRobin,
}

impl DispatchPolicy {
    /// Display name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            DispatchPolicy::Fifo => "fifo",
            DispatchPolicy::RoundRobin => "round-robin",
        }
    }
}

/// The operation a request asks for.
#[derive(Debug, Clone, Copy)]
pub enum RequestOp {
    /// Deserialize `input_len` wire bytes at `input_addr` into `dest_obj`.
    Deserialize {
        /// ADT of the root message type.
        adt_ptr: u64,
        /// Wire input address.
        input_addr: u64,
        /// Wire input length.
        input_len: u64,
        /// Caller-allocated destination object.
        dest_obj: u64,
        /// Lowest field number of the root type (the paper's ABI).
        min_field: u32,
    },
    /// Serialize the object at `obj_ptr`.
    Serialize {
        /// ADT of the root message type.
        adt_ptr: u64,
        /// Root object address.
        obj_ptr: u64,
        /// Hasbits offset staged via `ser_info`.
        hasbits_offset: u64,
        /// Lowest field number of the root type.
        min_field: u32,
        /// Highest field number of the root type.
        max_field: u32,
    },
}

impl RequestOp {
    fn is_deser(&self) -> bool {
        matches!(self, RequestOp::Deserialize { .. })
    }
}

/// One RPC-like request offered to the cluster.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Arrival time at the command queue, in accelerator cycles.
    pub arrival: Cycles,
    /// What to do.
    pub op: RequestOp,
    /// Watchdog cycle ceiling for one service attempt. Derived statically
    /// from the abstract-interpretation envelope's upper bound for the
    /// request's message type and wire length: no correct command can run
    /// longer, so an attempt that does is killed (`DecodeFault::WatchdogKill`)
    /// instead of wedging the instance. `None` disables the watchdog.
    pub watchdog: Option<Cycles>,
    /// Absolute completion deadline propagated from the transport layer's
    /// frame metadata (arrival + the client's budget). Admission control
    /// sheds the request up front when [`Request::cost`] predicts a miss,
    /// and an admitted attempt's ceiling is min-combined with the budget
    /// remaining at dispatch. `None` disables both.
    pub deadline: Option<Cycles>,
    /// Admission-control cost estimate for one uncontended service attempt:
    /// the abstract-interpretation envelope's upper bound
    /// (`Envelope::service_bounds(...).upper`). Only consulted when
    /// [`Request::deadline`] is also set.
    pub cost: Option<Cycles>,
}

/// Per-command accounting: the three queue timestamps plus attribution.
#[derive(Debug, Clone, Copy)]
pub struct CommandRecord {
    /// Position in the offered stream (drops keep their slots).
    pub seq: usize,
    /// Arrival at the command queue.
    pub enqueue: Cycles,
    /// When the command left the queue for its instance.
    pub dispatch: Cycles,
    /// When the instance retired it.
    pub complete: Cycles,
    /// Pure service time (RoCC dispatch + unit busy cycles).
    pub service: Cycles,
    /// Instance that ran it.
    pub instance: usize,
    /// Wire bytes moved (input for deser, output for ser).
    pub wire_bytes: u64,
    /// Whether this was a deserialization.
    pub deser: bool,
    /// Instances busy (including this one) while it ran.
    pub sharers: usize,
    /// How the command resolved.
    pub status: CommandStatus,
    /// Service attempts consumed (1 = no retries).
    pub attempts: u32,
}

impl CommandRecord {
    /// Queue latency + service: what the client observes.
    pub fn latency(&self) -> Cycles {
        self.complete - self.enqueue
    }
}

/// Configuration of a serving cluster.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Number of accelerator instances (each has a deserializer and a
    /// serializer unit).
    pub instances: usize,
    /// RoCC command-queue depth; arrivals beyond it are shed.
    pub queue_depth: usize,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// Per-instance accelerator configuration.
    pub accel: AccelConfig,
    /// Retries after a retryable (hardware/resource) fault before the
    /// command degrades to the fallback path. Deterministic rejections are
    /// never retried — the verdict would not change.
    pub max_retries: u32,
    /// Retryable faults an instance may absorb before it is quarantined and
    /// receives no further dispatches.
    pub quarantine_threshold: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            instances: 1,
            queue_depth: 64,
            policy: DispatchPolicy::Fifo,
            accel: AccelConfig::default(),
            max_retries: 2,
            quarantine_threshold: 3,
        }
    }
}

/// Base backoff between retry attempts, doubled per attempt.
const RETRY_BACKOFF: Cycles = 64;

/// Consecutive successful completions on an instance that forgive one
/// absorbed retryable fault (the counter decays by one and the streak
/// restarts). Keeps a long-lived instance from sitting permanently one
/// transient fault away from quarantine.
const QUARANTINE_DECAY: u32 = 64;

/// Guest-memory regions handed to one instance.
#[derive(Debug, Clone, Copy)]
struct InstanceRegions {
    deser_arena: (u64, u64),
    ser_out: (u64, u64),
    ser_ptrs: (u64, u64),
}

/// Refill the deserializer arena / serializer output once free space drops
/// below this fraction of the region (models software recycling the arena
/// between batches, as Section 4.3's software-managed arenas allow).
const RECYCLE_FRACTION: u64 = 8;

/// One instance's scripted faults.
#[derive(Debug, Clone, Copy, Default)]
struct InstanceScript {
    crash_at: Option<Cycles>,
    hang_at: Option<Cycles>,
    slow: Option<(Cycles, Cycles, u64)>,
}

/// Per-instance view of an [`InstanceFault`] script, compiled once per run.
/// An empty script (the common case, compiled once per RPC frame) holds no
/// table at all; every instance then reads as fault-free.
struct FaultScript {
    per_instance: Vec<InstanceScript>,
}

impl FaultScript {
    fn compile(faults: &[InstanceFault], instances: usize) -> Self {
        let mut per_instance = Vec::new();
        for f in faults {
            assert!(
                f.instance < instances,
                "fault targets instance {} of a {instances}-instance cluster",
                f.instance
            );
            if per_instance.is_empty() {
                per_instance = vec![InstanceScript::default(); instances];
            }
            let s = &mut per_instance[f.instance];
            match f.kind {
                InstanceFaultKind::Crash => {
                    s.crash_at = Some(s.crash_at.map_or(f.at, |p| p.min(f.at)));
                }
                InstanceFaultKind::Hang => {
                    s.hang_at = Some(s.hang_at.map_or(f.at, |p| p.min(f.at)));
                }
                InstanceFaultKind::Slow { factor, until } => {
                    s.slow = Some((f.at, until, factor.max(1)));
                }
            }
        }
        FaultScript { per_instance }
    }

    /// The faults scripted for `instance` (none if the script is empty).
    fn of(&self, instance: usize) -> InstanceScript {
        self.per_instance.get(instance).copied().unwrap_or_default()
    }

    /// Whether the instance is scripted down (crashed or hung) at `now`.
    fn down(&self, instance: usize, now: Cycles) -> bool {
        let s = self.of(instance);
        s.crash_at.is_some_and(|c| c <= now) || s.hang_at.is_some_and(|h| h <= now)
    }

    /// Unit cycles after any active slow-down window.
    fn slowed(&self, instance: usize, dispatch: Cycles, unit_cycles: Cycles) -> Cycles {
        match self.of(instance).slow {
            Some((at, until, factor)) if dispatch >= at && dispatch < until => {
                unit_cycles.saturating_mul(factor)
            }
            _ => unit_cycles,
        }
    }

    /// Whether a hang strikes before the attempt would complete.
    fn hangs(&self, instance: usize, dispatch: Cycles, service: Cycles) -> bool {
        self.of(instance)
            .hang_at
            .is_some_and(|h| h < dispatch.saturating_add(service))
    }

    /// Truncated service time if a crash strikes before completion.
    fn crash_cut(&self, instance: usize, dispatch: Cycles, service: Cycles) -> Option<Cycles> {
        match self.of(instance).crash_at {
            Some(c) if c < dispatch.saturating_add(service) => {
                Some(c.saturating_sub(dispatch).max(1))
            }
            _ => None,
        }
    }
}

/// Outcome of one service attempt on an accelerator instance.
struct Attempt {
    service: Cycles,
    sharers: usize,
    verdict: Result<u64, DecodeFault>,
    instance_dead: bool,
}

/// N accelerator instances sharing one memory system behind a command queue.
#[derive(Debug)]
pub struct ServeCluster {
    config: ServeConfig,
    accels: Vec<ProtoAccelerator>,
    regions: Vec<InstanceRegions>,
    busy_until: Vec<Cycles>,
    records: Vec<CommandRecord>,
    offered: u64,
    dropped: u64,
    /// Retryable faults absorbed per instance (quarantine counter).
    fault_counts: Vec<u32>,
    /// Consecutive successful completions per instance since its last
    /// retryable fault, for quarantine-counter decay.
    ok_streaks: Vec<u32>,
    /// Requests shed by admission control (deadline-based, before enqueue).
    shed: u64,
    /// Instances killed by a scripted crash or hang.
    dead: Vec<bool>,
    /// The software fallback path is one serialized virtual CPU server.
    cpu_busy_until: Cycles,
    retries: u64,
    /// Structured-event tracer threaded through the instances, the memory
    /// system, and the queue itself. `None` (the default) keeps every trace
    /// hook a dead branch, so cycle accounting is bit-identical either way.
    tracer: Option<protoacc_trace::SharedTracer>,
}

impl ServeCluster {
    /// Creates a cluster whose instances carve private arenas out of
    /// `[arena_base, arena_base + instances * arena_stride)`.
    pub fn new(config: ServeConfig, arena_base: u64, arena_stride: u64) -> Self {
        assert!(config.instances > 0, "need at least one instance");
        assert!(config.queue_depth > 0, "need a non-empty queue");
        let mut accels = Vec::with_capacity(config.instances);
        let mut regions = Vec::with_capacity(config.instances);
        for i in 0..config.instances {
            let base = arena_base + i as u64 * arena_stride;
            // Split the stride: half deser arena, 3/8 ser output, 1/8 ptrs.
            let r = InstanceRegions {
                deser_arena: (base, arena_stride / 2),
                ser_out: (base + arena_stride / 2, arena_stride * 3 / 8),
                ser_ptrs: (base + arena_stride * 7 / 8, arena_stride / 8),
            };
            let mut accel = ProtoAccelerator::new(config.accel);
            accel.deser_assign_arena(r.deser_arena.0, r.deser_arena.1);
            accel.ser_assign_arena(r.ser_out.0, r.ser_out.1, r.ser_ptrs.0, r.ser_ptrs.1);
            accels.push(accel);
            regions.push(r);
        }
        ServeCluster {
            busy_until: vec![0; config.instances],
            records: Vec::new(),
            offered: 0,
            dropped: 0,
            fault_counts: vec![0; config.instances],
            ok_streaks: vec![0; config.instances],
            shed: 0,
            dead: vec![false; config.instances],
            cpu_busy_until: 0,
            retries: 0,
            tracer: None,
            config,
            accels,
            regions,
        }
    }

    /// Attaches (or detaches, with `None`) a structured-event tracer. The
    /// tracer is threaded into every accelerator instance; the shared memory
    /// system joins it for the duration of each [`ServeCluster::run_with`].
    /// Tracing observes the run — it never changes cycle accounting.
    pub fn set_tracer(&mut self, tracer: Option<protoacc_trace::SharedTracer>) {
        for (i, accel) in self.accels.iter_mut().enumerate() {
            accel.set_tracer(tracer.clone());
            accel.set_trace_instance(i);
        }
        self.tracer = tracer;
    }

    fn emit(&self, event: protoacc_trace::TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().record(event);
        }
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Offers `requests` (must be sorted by arrival time) to the cluster
    /// with no injected faults and no fallback path. Equivalent to
    /// [`ServeCluster::run_with`] with an empty fault script.
    ///
    /// # Errors
    ///
    /// Reserved for driver-level failures; the model resolves malformed
    /// inputs to [`CommandStatus::Rejected`] records with a typed verdict
    /// rather than aborting the run, and queue overflow is counted in
    /// [`ServeCluster::dropped`].
    pub fn run(&mut self, mem: &mut Memory, requests: &[Request]) -> Result<(), AccelError> {
        self.run_with(mem, requests, &[], None)
    }

    /// Offers `requests` under a scripted instance-fault scenario, with an
    /// optional software fallback path.
    ///
    /// The degradation ladder, per command:
    ///
    /// 1. run on an available instance; a deterministic decode fault is a
    ///    final [`CommandStatus::Rejected`] verdict (never retried — the
    ///    verdict would not change);
    /// 2. a hardware or resource fault (ECC, stall, crash, hang, watchdog
    ///    kill, arena exhaustion) is retried on another instance after an
    ///    exponentially growing backoff, up to [`ServeConfig::max_retries`]
    ///    times; each such fault counts toward the faulting instance's
    ///    quarantine threshold;
    /// 3. with retries exhausted — or no live instance at all — the command
    ///    runs on the software `fallback` codec (serialized behind one
    ///    virtual CPU server: slower, but still a served response);
    /// 4. only with no fallback does a command end [`CommandStatus::Failed`].
    ///
    /// # Errors
    ///
    /// Reserved for driver-level failures; decode and hardware faults are
    /// recorded per command, not propagated.
    pub fn run_with(
        &mut self,
        mem: &mut Memory,
        requests: &[Request],
        faults: &[InstanceFault],
        mut fallback: Option<&mut dyn FallbackCodec>,
    ) -> Result<(), AccelError> {
        let script = FaultScript::compile(faults, self.config.instances);
        if let Some(t) = &self.tracer {
            mem.system.set_event_tracer(Some(t.clone()));
        }
        // Dispatch times of admitted-but-not-yet-dispatched commands, as a
        // min-heap so occupancy at any arrival time is cheap to maintain.
        let mut pending: BinaryHeap<Reverse<Cycles>> = BinaryHeap::new();
        let mut last_arrival = 0;
        for (seq, req) in requests.iter().enumerate() {
            assert!(
                req.arrival >= last_arrival,
                "requests must be sorted by arrival"
            );
            last_arrival = req.arrival;
            self.offered += 1;
            while pending.peek().is_some_and(|Reverse(d)| *d <= req.arrival) {
                pending.pop();
            }
            // Admission control runs before enqueue: a doomed request is
            // shed immediately instead of consuming a queue slot.
            let shed = self.admission_shed(req, seq, &script);
            let record = if let Some(rec) = shed {
                rec
            } else {
                if pending.len() >= self.config.queue_depth {
                    self.dropped += 1;
                    if self.tracer.is_some() {
                        self.emit(protoacc_trace::TraceEvent::CmdDrop {
                            seq,
                            at: req.arrival,
                        });
                    }
                    continue;
                }
                if self.tracer.is_some() {
                    self.emit(protoacc_trace::TraceEvent::CmdEnqueue {
                        seq,
                        at: req.arrival,
                        wire_bytes: match req.op {
                            RequestOp::Deserialize { input_len, .. } => input_len,
                            RequestOp::Serialize { .. } => 0,
                        },
                        deser: req.op.is_deser(),
                    });
                }
                let mut now = req.arrival;
                let mut attempts: u32 = 0;
                let mut exclude = None;
                let mut last_fault = DecodeFault::InstanceFailure;
                loop {
                    // The cluster notices scripted deaths as the clock passes
                    // them, whether or not a command was in flight.
                    for i in 0..self.config.instances {
                        if script.down(i, now) {
                            self.dead[i] = true;
                        }
                    }
                    let Some(instance) = self.pick_instance(seq, now, exclude, &script) else {
                        break self.degrade(
                            mem,
                            req,
                            seq,
                            now,
                            attempts.max(1),
                            last_fault,
                            &mut fallback,
                        );
                    };
                    attempts += 1;
                    let dispatch = now.max(self.busy_until[instance]);
                    if attempts == 1 {
                        pending.push(Reverse(dispatch));
                    }
                    if self.tracer.is_some() {
                        self.emit(protoacc_trace::TraceEvent::CmdDispatch {
                            seq,
                            at: dispatch,
                            instance,
                            attempt: attempts,
                        });
                    }
                    let a = self.attempt(mem, req, instance, dispatch, &script);
                    self.busy_until[instance] = dispatch + a.service;
                    let done = |status: CommandStatus, wire_bytes: u64| CommandRecord {
                        seq,
                        enqueue: req.arrival,
                        dispatch,
                        complete: dispatch + a.service,
                        service: a.service,
                        instance,
                        wire_bytes,
                        deser: req.op.is_deser(),
                        sharers: a.sharers,
                        status,
                        attempts,
                    };
                    match a.verdict {
                        Ok(wire_bytes) => {
                            self.note_success(instance);
                            break done(CommandStatus::Ok, wire_bytes);
                        }
                        Err(fault) if !fault.category().is_retryable() => {
                            self.note_success(instance);
                            break done(CommandStatus::Rejected(fault), 0);
                        }
                        Err(fault) => {
                            self.fault_counts[instance] += 1;
                            self.ok_streaks[instance] = 0;
                            if a.instance_dead {
                                self.dead[instance] = true;
                            }
                            last_fault = fault;
                            if attempts > self.config.max_retries {
                                break self.degrade(
                                    mem,
                                    req,
                                    seq,
                                    dispatch + a.service,
                                    attempts,
                                    fault,
                                    &mut fallback,
                                );
                            }
                            self.retries += 1;
                            if self.tracer.is_some() {
                                self.emit(protoacc_trace::TraceEvent::CmdRetry {
                                    seq,
                                    at: dispatch + a.service,
                                    instance,
                                    attempt: attempts,
                                });
                            }
                            let backoff =
                                RETRY_BACKOFF.saturating_mul(1 << u64::from(attempts - 1).min(16));
                            now = (dispatch + a.service).saturating_add(backoff);
                            exclude = Some(instance);
                        }
                    }
                }
            };
            if self.tracer.is_some() {
                self.emit(protoacc_trace::TraceEvent::CmdComplete {
                    seq: record.seq,
                    enqueue: record.enqueue,
                    dispatch: record.dispatch,
                    complete: record.complete,
                    service: record.service,
                    // FALLBACK_INSTANCE and FALLBACK_TRACK are the same
                    // sentinel, so the instance maps through unchanged.
                    instance: record.instance,
                    wire_bytes: record.wire_bytes,
                    deser: record.deser,
                    sharers: record.sharers,
                    attempts: record.attempts,
                    outcome: match record.status {
                        CommandStatus::Ok => protoacc_trace::CmdOutcome::Ok,
                        CommandStatus::Fallback => protoacc_trace::CmdOutcome::Fallback,
                        CommandStatus::Rejected(_) => protoacc_trace::CmdOutcome::Rejected,
                        CommandStatus::Failed(_) => protoacc_trace::CmdOutcome::Failed,
                        CommandStatus::Shed => protoacc_trace::CmdOutcome::Shed,
                    },
                });
            }
            self.records.push(record);
        }
        if self.tracer.is_some() {
            mem.system.set_event_tracer(None);
        }
        Ok(())
    }

    /// The shed rung of the degradation ladder (above retry): a request
    /// carrying both a deadline and a cost estimate is turned away before
    /// enqueue when even the earliest eligible instance's free time plus
    /// one envelope-ceiling service attempt already blows the deadline.
    /// The shed consumes no queue slot and no instance time; the record's
    /// one-cycle pushback lives on the fallback sentinel track.
    fn admission_shed(
        &mut self,
        req: &Request,
        seq: usize,
        script: &FaultScript,
    ) -> Option<CommandRecord> {
        let deadline = req.deadline?;
        let cost = req.cost?;
        let instance = self.pick_instance(seq, req.arrival, None, script)?;
        let estimate = req
            .arrival
            .max(self.busy_until[instance])
            .saturating_add(cost);
        if estimate <= deadline {
            return None;
        }
        self.shed += 1;
        if self.tracer.is_some() {
            self.emit(protoacc_trace::TraceEvent::CmdShed {
                seq,
                at: req.arrival,
                deadline,
                estimate,
            });
        }
        Some(CommandRecord {
            seq,
            enqueue: req.arrival,
            dispatch: req.arrival,
            complete: req.arrival + 1,
            service: 1,
            instance: FALLBACK_INSTANCE,
            wire_bytes: 0,
            deser: req.op.is_deser(),
            sharers: 1,
            status: CommandStatus::Shed,
            attempts: 0,
        })
    }

    /// Credits one successful completion toward `instance`'s quarantine
    /// decay: after [`QUARANTINE_DECAY`] consecutive clean completions, one
    /// absorbed retryable fault is forgiven.
    fn note_success(&mut self, instance: usize) {
        if self.fault_counts[instance] == 0 {
            self.ok_streaks[instance] = 0;
            return;
        }
        self.ok_streaks[instance] += 1;
        if self.ok_streaks[instance] >= QUARANTINE_DECAY {
            self.fault_counts[instance] -= 1;
            self.ok_streaks[instance] = 0;
        }
    }

    /// Picks an instance for dispatch at `now`, honoring the policy, the
    /// fault script, quarantine state, and an optional excluded instance
    /// (the one that just faulted). Returns `None` when no instance can
    /// serve at all.
    fn pick_instance(
        &self,
        seq: usize,
        now: Cycles,
        exclude: Option<usize>,
        script: &FaultScript,
    ) -> Option<usize> {
        let n = self.config.instances;
        let pick = |skip: Option<usize>| -> Option<usize> {
            let ok = |i: usize| {
                !self.dead[i]
                    && self.fault_counts[i] < self.config.quarantine_threshold
                    && !script.down(i, now)
                    && Some(i) != skip
            };
            match self.config.policy {
                DispatchPolicy::RoundRobin if skip.is_none() => {
                    // Static binding, skipping over unavailable instances.
                    (0..n).map(|k| (seq + k) % n).find(|&i| ok(i))
                }
                _ => {
                    // Earliest-free usable instance, lowest index on ties.
                    // Also the retry rule under either policy: a retry goes
                    // wherever capacity frees up first.
                    (0..n)
                        .filter(|&i| ok(i))
                        .min_by_key(|&i| (self.busy_until[i], i))
                }
            }
        };
        // If only the just-faulted instance survives, retry there rather
        // than give up on the accelerators entirely.
        pick(exclude).or_else(|| if exclude.is_some() { pick(None) } else { None })
    }

    /// One service attempt on `instance` dispatched at `dispatch`. Folds in
    /// scripted instance faults, injected memory faults, and the
    /// watchdog/deadline ceiling; the caller charges the returned service
    /// time to the instance.
    fn attempt(
        &mut self,
        mem: &mut Memory,
        req: &Request,
        instance: usize,
        dispatch: Cycles,
        script: &FaultScript,
    ) -> Attempt {
        // Bandwidth contention: every instance still busy at dispatch time
        // shares the memory interface with this command.
        let sharers = 1 + self
            .busy_until
            .iter()
            .enumerate()
            .filter(|&(i, &b)| i != instance && b > dispatch)
            .count();
        mem.system.set_sharers(sharers);
        mem.system.set_requester(instance);
        if self.tracer.is_some() {
            // Unit-relative trace timestamps rebase onto this attempt's
            // dispatch cycle.
            self.accels[instance].set_trace_origin(dispatch);
            mem.system.set_trace_origin(dispatch);
        }
        self.recycle_if_low(instance);
        let accel = &mut self.accels[instance];
        let raw = match req.op {
            RequestOp::Deserialize {
                adt_ptr,
                input_addr,
                input_len,
                dest_obj,
                min_field,
            } => {
                accel.deser_info(adt_ptr, dest_obj);
                match accel.do_proto_deser(mem, input_addr, input_len, min_field) {
                    Ok(run) => {
                        accel.block_for_deser_completion();
                        Ok((run.cycles, run.wire_bytes))
                    }
                    Err(e) => Err(e),
                }
            }
            RequestOp::Serialize {
                adt_ptr,
                obj_ptr,
                hasbits_offset,
                min_field,
                max_field,
            } => {
                accel.ser_info(hasbits_offset, min_field, max_field);
                match accel.do_proto_ser(mem, adt_ptr, obj_ptr) {
                    Ok(run) => {
                        accel.block_for_ser_completion();
                        Ok((run.cycles, run.out_len))
                    }
                    Err(e) => Err(e),
                }
            }
        };
        mem.system.set_sharers(1);
        // An injected memory fault (ECC, stall) outranks the functional
        // result: the hardware detected it during the transfer.
        let raw = match mem.system.take_fault() {
            Some(f) => Err(AccelError::Mem(f)),
            None => raw,
        };
        let (mut service, mut verdict) = match raw {
            Ok((unit_cycles, wire_bytes)) => (
                self.config.accel.rocc_dispatch_cycles
                    + script.slowed(instance, dispatch, unit_cycles),
                Ok(wire_bytes),
            ),
            Err(e) => (self.reject_service(&req.op), Err(DecodeFault::classify(&e))),
        };
        let mut instance_dead = false;
        // A hang leaves the command running forever; only a ceiling below
        // recovers the slot.
        if script.hangs(instance, dispatch, service) {
            service = HUNG_COMMAND_CYCLES;
            verdict = Err(DecodeFault::InstanceFailure);
            instance_dead = true;
        }
        // A crash cuts the attempt short at the crash cycle.
        if let Some(cut) = script.crash_cut(instance, dispatch, service) {
            service = cut;
            verdict = Err(DecodeFault::InstanceFailure);
            instance_dead = true;
        }
        // Watchdog / deadline ceiling: the attempt is killed at the ceiling
        // instead of holding the instance. A request deadline propagated
        // from the transport layer min-combines as the budget remaining at
        // dispatch (an attempt that would finish past the client's deadline
        // is worthless, so it is cut off there).
        let ceiling = [
            req.watchdog,
            req.deadline.map(|d| d.saturating_sub(dispatch)),
        ]
        .into_iter()
        .flatten()
        .min();
        if let Some(limit) = ceiling {
            if service > limit {
                service = limit.max(1);
                verdict = Err(DecodeFault::WatchdogKill);
            }
        }
        Attempt {
            service,
            sharers,
            verdict,
            instance_dead,
        }
    }

    /// Steps 3–4 of the degradation ladder: software fallback if available,
    /// else a [`CommandStatus::Failed`] record. `now` is when the command
    /// gave up on the accelerators.
    #[allow(clippy::too_many_arguments)]
    fn degrade(
        &mut self,
        mem: &mut Memory,
        req: &Request,
        seq: usize,
        now: Cycles,
        attempts: u32,
        fault: DecodeFault,
        fallback: &mut Option<&mut dyn FallbackCodec>,
    ) -> CommandRecord {
        let base = CommandRecord {
            seq,
            enqueue: req.arrival,
            dispatch: now,
            complete: now + 1,
            service: 1,
            instance: FALLBACK_INSTANCE,
            wire_bytes: 0,
            deser: req.op.is_deser(),
            sharers: 1,
            status: CommandStatus::Failed(fault),
            attempts,
        };
        if self.tracer.is_some() {
            self.emit(protoacc_trace::TraceEvent::CmdFallback { seq, at: now });
        }
        let Some(fb) = fallback.as_deref_mut() else {
            return base;
        };
        let dispatch = now.max(self.cpu_busy_until);
        mem.system.set_sharers(1);
        // Attribute software-path traffic to a requester id one past the
        // accelerator instances.
        mem.system.set_requester(self.config.instances);
        if self.tracer.is_some() {
            mem.system.set_trace_origin(dispatch);
        }
        let (cycles, result) = fb.execute(mem, &req.op);
        // The software path can trip injected memory faults too.
        let result = match mem.system.take_fault() {
            Some(f) => Err(AccelError::Mem(f)),
            None => result,
        };
        let service = cycles.max(1);
        self.cpu_busy_until = dispatch + service;
        let status = match result {
            Ok(_) => CommandStatus::Fallback,
            Err(ref e) => CommandStatus::Rejected(DecodeFault::classify(e)),
        };
        CommandRecord {
            dispatch,
            complete: dispatch + service,
            service,
            wire_bytes: result.unwrap_or(0),
            status,
            ..base
        }
    }

    /// Modeled occupancy of an attempt that ends in a fault verdict: the
    /// unit streamed (deser) or scanned (ser) input up to the fault, so
    /// charge the dispatch overhead plus one pass at window bandwidth.
    fn reject_service(&self, op: &RequestOp) -> Cycles {
        let bytes = match *op {
            RequestOp::Deserialize { input_len, .. } => input_len,
            RequestOp::Serialize { .. } => self.config.accel.window_bytes as u64,
        };
        self.config.accel.rocc_dispatch_cycles
            + bytes.div_ceil(self.config.accel.window_bytes as u64).max(1)
    }

    /// Reassigns an instance's arenas when nearly exhausted (software-side
    /// arena recycling; the regions are reused, not grown).
    fn recycle_if_low(&mut self, instance: usize) {
        let r = self.regions[instance];
        let accel = &mut self.accels[instance];
        if accel
            .deser_arena_remaining()
            .is_some_and(|rem| rem < r.deser_arena.1 / RECYCLE_FRACTION)
        {
            accel.deser_assign_arena(r.deser_arena.0, r.deser_arena.1);
        }
        if accel
            .ser_output_remaining()
            .is_some_and(|rem| rem < r.ser_out.1 / RECYCLE_FRACTION)
        {
            accel.ser_assign_arena(r.ser_out.0, r.ser_out.1, r.ser_ptrs.0, r.ser_ptrs.1);
        }
    }

    /// Per-command records, in dispatch (= arrival) order.
    pub fn records(&self) -> &[CommandRecord] {
        &self.records
    }

    /// Requests offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Requests shed because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Requests shed by admission control before enqueue (deadline-based
    /// load shedding; distinct from queue-overflow [`ServeCluster::dropped`]).
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Retry attempts performed across the run.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Commands that received a definitive response (everything except
    /// [`CommandStatus::Failed`]).
    pub fn served(&self) -> u64 {
        self.records.iter().filter(|r| r.status.is_served()).count() as u64
    }

    /// Commands resolved with each terminal status, as
    /// `(ok, fallback, rejected, failed, shed)`.
    pub fn status_counts(&self) -> (u64, u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0, 0);
        for r in &self.records {
            match r.status {
                CommandStatus::Ok => c.0 += 1,
                CommandStatus::Fallback => c.1 += 1,
                CommandStatus::Rejected(_) => c.2 += 1,
                CommandStatus::Failed(_) => c.3 += 1,
                CommandStatus::Shed => c.4 += 1,
            }
        }
        c
    }

    /// Instances no longer eligible for dispatch: scripted dead (crash or
    /// hang consumed) or past the quarantine threshold.
    pub fn quarantined_instances(&self) -> Vec<usize> {
        (0..self.config.instances)
            .filter(|&i| self.dead[i] || self.fault_counts[i] >= self.config.quarantine_threshold)
            .collect()
    }

    /// Completion time of the last command (0 if none ran).
    pub fn makespan(&self) -> Cycles {
        self.records.iter().map(|r| r.complete).max().unwrap_or(0)
    }

    /// Wire bytes completed across all commands.
    pub fn completed_wire_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.wire_bytes).sum()
    }

    /// The active service window: first dispatch to last completion across
    /// completed commands. `None` if nothing ran.
    pub fn service_window(&self) -> Option<(Cycles, Cycles)> {
        let first = self.records.iter().map(|r| r.dispatch).min()?;
        let last = self.records.iter().map(|r| r.complete).max()?;
        Some((first, last))
    }

    /// Goodput in Gbits/s over the active service window (first dispatch to
    /// last completion).
    ///
    /// Dividing by [`ServeCluster::makespan`] — which starts at cycle 0 —
    /// understates the cluster whenever the request stream is sparse or
    /// warms up slowly: idle lead-in and the gap after the last arrival get
    /// charged as if the cluster were busy.
    pub fn throughput_gbits(&self) -> f64 {
        let Some((first, last)) = self.service_window() else {
            return 0.0;
        };
        let window = last - first;
        if window == 0 {
            return 0.0;
        }
        self.completed_wire_bytes() as f64 * 8.0 * self.config.accel.freq_ghz / window as f64
    }

    /// Statistics of instance `i`.
    pub fn instance_stats(&self, i: usize) -> AccelStats {
        self.accels[i].stats()
    }

    /// Memory-hierarchy traffic attributed to instance `i` (requester ids
    /// equal instance indices).
    pub fn instance_mem_stats(&self, mem: &Memory, i: usize) -> RequesterStats {
        mem.system.requester_stats(i)
    }

    /// Latency percentile over completed commands. `p` is clamped into
    /// `[0, 100]` (NaN reads as 0, so a malformed percentile degrades to the
    /// minimum instead of indexing arbitrarily). Returns 0 if nothing
    /// completed.
    pub fn latency_percentile(&self, p: f64) -> Cycles {
        if self.records.is_empty() {
            return 0;
        }
        let mut latencies: Vec<Cycles> = self.records.iter().map(CommandRecord::latency).collect();
        latencies.sort_unstable();
        // The rank rule is shared with `protoacc_trace::Histogram` so the
        // exact path here and the metrics-registry histogram path cannot
        // disagree by more than bucket quantization.
        latencies[protoacc_trace::nearest_rank(p, latencies.len())]
    }

    /// Checks the queue-accounting invariants, returning a description of
    /// the first violation:
    ///
    /// * completions ≤ dispatches ≤ enqueues (with drops making up the gap),
    /// * per command: enqueue ≤ dispatch < complete and latency ≥ service,
    /// * per instance: commands do not overlap in time.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let completions = self.records.len() as u64;
        if completions + self.dropped != self.offered {
            return Err(format!(
                "accounting leak: {} completed + {} dropped != {} offered",
                completions, self.dropped, self.offered
            ));
        }
        let mut per_instance_last: Vec<Cycles> = vec![0; self.config.instances];
        for r in &self.records {
            if r.dispatch < r.enqueue {
                return Err(format!("cmd {}: dispatched before enqueue", r.seq));
            }
            if r.complete <= r.dispatch {
                return Err(format!("cmd {}: completed at or before dispatch", r.seq));
            }
            if r.latency() < r.service {
                return Err(format!("cmd {}: latency below service time", r.seq));
            }
            // Fallback/failed records carry the sentinel instance; they run
            // on the virtual CPU server, outside the per-instance timeline.
            if r.instance != FALLBACK_INSTANCE {
                if r.dispatch < per_instance_last[r.instance] {
                    return Err(format!(
                        "cmd {}: overlaps previous command on instance {}",
                        r.seq, r.instance
                    ));
                }
                per_instance_last[r.instance] = r.complete;
                if r.sharers == 0 || r.sharers > self.config.instances {
                    return Err(format!("cmd {}: impossible sharer count", r.seq));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_mem::{MemConfig, Memory};
    use protoacc_runtime::{reference, write_adts, BumpArena, MessageLayouts, MessageValue, Value};
    use protoacc_schema::{FieldType, SchemaBuilder};

    struct Fixture {
        mem: Memory,
        adt_ptr: u64,
        min_field: u32,
        max_field: u32,
        hasbits_offset: u64,
        input_addr: u64,
        input_len: u64,
        dest_obj: u64,
        obj_ptr: u64,
    }

    fn fixture() -> Fixture {
        let mut b = SchemaBuilder::new();
        let id = b.define("Req", |m| {
            m.optional("id", FieldType::UInt64, 1)
                .optional("body", FieldType::String, 2);
        });
        let schema = b.build().unwrap();
        let layouts = MessageLayouts::compute(&schema);
        let mut mem = Memory::new(MemConfig::default());
        let mut setup = BumpArena::new(0x1000, 1 << 20);
        let adts = write_adts(&schema, &layouts, &mut mem.data, &mut setup).unwrap();
        let mut msg = MessageValue::new(id);
        msg.set(1, Value::UInt64(42)).unwrap();
        msg.set(2, Value::Str("serve me".into())).unwrap();
        let wire = reference::encode(&msg, &schema).unwrap();
        let input_addr = 0x20_0000;
        mem.data.write_bytes(input_addr, &wire);
        let layout = layouts.layout(id);
        let mut obj_arena = BumpArena::new(0x30_0000, 1 << 20);
        let obj_ptr = protoacc_runtime::object::write_message(
            &mut mem.data,
            &schema,
            &layouts,
            &mut obj_arena,
            &msg,
        )
        .unwrap();
        let dest_obj = obj_arena.alloc(layout.object_size(), 8).unwrap();
        Fixture {
            mem,
            adt_ptr: adts.addr(id),
            min_field: layout.min_field(),
            max_field: layout.max_field(),
            hasbits_offset: layout.hasbits_offset(),
            input_addr,
            input_len: wire.len() as u64,
            dest_obj,
            obj_ptr,
        }
    }

    fn mixed_requests(f: &Fixture, n: usize, gap: Cycles) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                arrival: i as Cycles * gap,
                watchdog: None,
                deadline: None,
                cost: None,
                op: if i % 2 == 0 {
                    RequestOp::Deserialize {
                        adt_ptr: f.adt_ptr,
                        input_addr: f.input_addr,
                        input_len: f.input_len,
                        dest_obj: f.dest_obj,
                        min_field: f.min_field,
                    }
                } else {
                    RequestOp::Serialize {
                        adt_ptr: f.adt_ptr,
                        obj_ptr: f.obj_ptr,
                        hasbits_offset: f.hasbits_offset,
                        min_field: f.min_field,
                        max_field: f.max_field,
                    }
                },
            })
            .collect()
    }

    #[test]
    fn fifo_cluster_serves_mixed_stream_and_keeps_invariants() {
        let mut f = fixture();
        let reqs = mixed_requests(&f, 40, 100);
        let mut cluster = ServeCluster::new(
            ServeConfig {
                instances: 2,
                ..ServeConfig::default()
            },
            0x1_0000_0000,
            1 << 24,
        );
        cluster.run(&mut f.mem, &reqs).unwrap();
        cluster.check_invariants().unwrap();
        assert_eq!(cluster.records().len(), 40);
        assert_eq!(cluster.dropped(), 0);
        assert!(cluster.throughput_gbits() > 0.0);
        assert!(cluster.latency_percentile(99.0) >= cluster.latency_percentile(50.0));
        // Both instances saw work and the memory system attributed traffic.
        assert!(cluster.instance_stats(0).deser_ops + cluster.instance_stats(0).ser_ops > 0);
        assert!(cluster.instance_stats(1).deser_ops + cluster.instance_stats(1).ser_ops > 0);
        assert!(cluster.instance_mem_stats(&f.mem, 0).accesses > 0);
        assert!(cluster.instance_mem_stats(&f.mem, 1).accesses > 0);
    }

    #[test]
    fn bounded_queue_sheds_load_under_simultaneous_arrivals() {
        let mut f = fixture();
        // Everything arrives at cycle 0 into a depth-4 queue on 1 instance:
        // only 4 can ever be pending, the rest are shed.
        let mut reqs = mixed_requests(&f, 32, 0);
        for r in &mut reqs {
            r.arrival = 0;
        }
        let mut cluster = ServeCluster::new(
            ServeConfig {
                instances: 1,
                queue_depth: 4,
                ..ServeConfig::default()
            },
            0x1_0000_0000,
            1 << 24,
        );
        cluster.run(&mut f.mem, &reqs).unwrap();
        cluster.check_invariants().unwrap();
        assert!(cluster.dropped() > 0);
        assert_eq!(
            cluster.records().len() as u64 + cluster.dropped(),
            cluster.offered()
        );
    }

    #[test]
    fn round_robin_binds_statically() {
        let mut f = fixture();
        let reqs = mixed_requests(&f, 8, 1_000_000);
        let mut cluster = ServeCluster::new(
            ServeConfig {
                instances: 4,
                policy: DispatchPolicy::RoundRobin,
                ..ServeConfig::default()
            },
            0x1_0000_0000,
            1 << 24,
        );
        cluster.run(&mut f.mem, &reqs).unwrap();
        cluster.check_invariants().unwrap();
        for r in cluster.records() {
            assert_eq!(r.instance, r.seq % 4);
        }
    }

    #[test]
    fn latency_percentile_boundaries_on_tiny_clusters() {
        // 0 records: every percentile is 0.
        let empty = ServeCluster::new(ServeConfig::default(), 0x1_0000_0000, 1 << 24);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(empty.latency_percentile(p), 0);
        }

        // 1 record: every percentile is that record's latency.
        let mut f = fixture();
        let reqs = mixed_requests(&f, 1, 100);
        let mut one = ServeCluster::new(ServeConfig::default(), 0x1_0000_0000, 1 << 24);
        one.run(&mut f.mem, &reqs).unwrap();
        let only = one.records()[0].latency();
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(one.latency_percentile(p), only);
        }

        // 2 records: p0 is the min; p50 and p100 land on the max (nearest-
        // rank over n-1 rounds 0.5 up); out-of-range and NaN inputs clamp
        // instead of indexing arbitrarily.
        let mut f = fixture();
        let reqs = mixed_requests(&f, 2, 0);
        let mut two = ServeCluster::new(ServeConfig::default(), 0x1_0000_0000, 1 << 24);
        two.run(&mut f.mem, &reqs).unwrap();
        let mut lats: Vec<Cycles> = two.records().iter().map(CommandRecord::latency).collect();
        lats.sort_unstable();
        assert_eq!(two.latency_percentile(0.0), lats[0]);
        assert_eq!(two.latency_percentile(50.0), lats[1]);
        assert_eq!(two.latency_percentile(100.0), lats[1]);
        assert_eq!(two.latency_percentile(-30.0), lats[0]);
        assert_eq!(two.latency_percentile(400.0), lats[1]);
        assert_eq!(two.latency_percentile(f64::NAN), lats[0]);
    }

    #[test]
    fn goodput_is_computed_over_the_service_window_not_the_makespan() {
        let mut f = fixture();
        // Deliberately sparse stream: one burst after a long idle lead-in.
        // The makespan starts at cycle 0, so dividing by it charges all the
        // idle warm-up to the cluster.
        let mut reqs = mixed_requests(&f, 4, 0);
        for r in &mut reqs {
            r.arrival = 5_000_000;
        }
        let mut cluster = ServeCluster::new(ServeConfig::default(), 0x1_0000_0000, 1 << 24);
        cluster.run(&mut f.mem, &reqs).unwrap();
        cluster.check_invariants().unwrap();
        let (first, last) = cluster.service_window().unwrap();
        assert!(first >= 5_000_000, "window starts at first dispatch");
        let freq = cluster.config().accel.freq_ghz;
        let expect = cluster.completed_wire_bytes() as f64 * 8.0 * freq / (last - first) as f64;
        assert!((cluster.throughput_gbits() - expect).abs() < 1e-12);
    }

    /// Fixed-cost software codec stub for fallback-path unit tests.
    struct StubFallback {
        cycles: Cycles,
        calls: u64,
    }

    impl FallbackCodec for StubFallback {
        fn execute(
            &mut self,
            _mem: &mut Memory,
            op: &RequestOp,
        ) -> (Cycles, Result<u64, AccelError>) {
            self.calls += 1;
            let bytes = match *op {
                RequestOp::Deserialize { input_len, .. } => input_len,
                RequestOp::Serialize { .. } => 8,
            };
            (self.cycles, Ok(bytes))
        }
    }

    #[test]
    fn malformed_input_is_rejected_without_retry() {
        let mut f = fixture();
        // Truncate the wire input mid-message: a deterministic decode fault.
        let reqs = vec![Request {
            arrival: 0,
            watchdog: None,
            deadline: None,
            cost: None,
            op: RequestOp::Deserialize {
                adt_ptr: f.adt_ptr,
                input_addr: f.input_addr,
                input_len: f.input_len - 1,
                dest_obj: f.dest_obj,
                min_field: f.min_field,
            },
        }];
        let mut cluster = ServeCluster::new(ServeConfig::default(), 0x1_0000_0000, 1 << 24);
        cluster.run(&mut f.mem, &reqs).unwrap();
        cluster.check_invariants().unwrap();
        let r = &cluster.records()[0];
        assert!(matches!(r.status, CommandStatus::Rejected(_)));
        assert_eq!(r.attempts, 1, "deterministic faults must not retry");
        assert_eq!(r.wire_bytes, 0);
        assert_eq!(cluster.retries(), 0);
        assert!(r.status.is_served());
    }

    #[test]
    fn crash_mid_run_fails_over_and_still_serves_everything() {
        let mut f = fixture();
        let reqs = mixed_requests(&f, 24, 500);
        let mut cluster = ServeCluster::new(
            ServeConfig {
                instances: 4,
                ..ServeConfig::default()
            },
            0x1_0000_0000,
            1 << 24,
        );
        // Instance 0 dies one third into the arrival window.
        let faults = [InstanceFault {
            instance: 0,
            at: 4_000,
            kind: InstanceFaultKind::Crash,
        }];
        cluster.run_with(&mut f.mem, &reqs, &faults, None).unwrap();
        cluster.check_invariants().unwrap();
        assert_eq!(cluster.records().len(), 24);
        assert_eq!(cluster.served(), 24, "survivors must absorb the load");
        assert!(cluster.quarantined_instances().contains(&0));
        // Nothing dispatches to the dead instance after the crash.
        for r in cluster.records() {
            if r.instance == 0 {
                assert!(r.dispatch < 4_000 || matches!(r.status, CommandStatus::Ok));
            }
            assert!(r.status.is_ok(), "cmd {} resolved {:?}", r.seq, r.status);
        }
    }

    #[test]
    fn hang_without_watchdog_is_capped_and_retried_elsewhere() {
        let mut f = fixture();
        let reqs = mixed_requests(&f, 4, 10);
        let mut cluster = ServeCluster::new(
            ServeConfig {
                instances: 2,
                ..ServeConfig::default()
            },
            0x1_0000_0000,
            1 << 24,
        );
        let faults = [InstanceFault {
            instance: 0,
            at: 5,
            kind: InstanceFaultKind::Hang,
        }];
        cluster.run_with(&mut f.mem, &reqs, &faults, None).unwrap();
        cluster.check_invariants().unwrap();
        assert_eq!(cluster.served(), 4);
        assert!(cluster.retries() >= 1, "the hung attempt must retry");
        // Every command ends up on the surviving instance.
        for r in cluster.records() {
            assert_eq!(r.instance, 1);
            assert!(r.status.is_ok());
        }
    }

    #[test]
    fn watchdog_kills_hung_command_at_the_ceiling() {
        let mut f = fixture();
        let ceiling = 10_000;
        let mut reqs = mixed_requests(&f, 1, 0);
        reqs[0].watchdog = Some(ceiling);
        let mut cluster = ServeCluster::new(ServeConfig::default(), 0x1_0000_0000, 1 << 24);
        let faults = [InstanceFault {
            instance: 0,
            at: 1,
            kind: InstanceFaultKind::Hang,
        }];
        cluster.run_with(&mut f.mem, &reqs, &faults, None).unwrap();
        cluster.check_invariants().unwrap();
        let r = &cluster.records()[0];
        // The only instance hung: the watchdog kills the attempt at the
        // ceiling, the retry finds the instance dead, and with no fallback
        // the command fails — bounded, rather than hanging the simulation.
        assert_eq!(r.status, CommandStatus::Failed(DecodeFault::WatchdogKill));
        assert!(
            r.dispatch <= ceiling + RETRY_BACKOFF,
            "watchdog must bound the occupied time"
        );
        assert!(cluster.makespan() < HUNG_COMMAND_CYCLES);
    }

    #[test]
    fn all_instances_down_degrades_to_software_fallback() {
        let mut f = fixture();
        let reqs = mixed_requests(&f, 8, 100);
        let mut cluster = ServeCluster::new(
            ServeConfig {
                instances: 2,
                ..ServeConfig::default()
            },
            0x1_0000_0000,
            1 << 24,
        );
        let faults = [
            InstanceFault {
                instance: 0,
                at: 0,
                kind: InstanceFaultKind::Crash,
            },
            InstanceFault {
                instance: 1,
                at: 0,
                kind: InstanceFaultKind::Crash,
            },
        ];
        let mut fb = StubFallback {
            cycles: 5_000,
            calls: 0,
        };
        cluster
            .run_with(&mut f.mem, &reqs, &faults, Some(&mut fb))
            .unwrap();
        cluster.check_invariants().unwrap();
        assert_eq!(cluster.served(), 8, "fallback must absorb all load");
        assert_eq!(fb.calls, 8);
        let (ok, fallback, rejected, failed, shed) = cluster.status_counts();
        assert_eq!((ok, fallback, rejected, failed, shed), (0, 8, 0, 0, 0));
        // The software path is serialized: completions stack up behind one
        // virtual CPU server.
        let mut last = 0;
        for r in cluster.records() {
            assert_eq!(r.instance, FALLBACK_INSTANCE);
            assert!(r.dispatch >= last);
            last = r.complete;
        }
    }

    #[test]
    fn slow_instance_inflates_service_inside_the_window() {
        let f = fixture();
        let reqs = mixed_requests(&f, 2, 1_000_000);
        let run = |faults: &[InstanceFault]| {
            let mut f = fixture();
            let mut cluster = ServeCluster::new(ServeConfig::default(), 0x1_0000_0000, 1 << 24);
            cluster.run_with(&mut f.mem, &reqs, faults, None).unwrap();
            cluster
                .records()
                .iter()
                .map(|r| r.service)
                .collect::<Vec<_>>()
        };
        let clean = run(&[]);
        let slowed = run(&[InstanceFault {
            instance: 0,
            at: 0,
            kind: InstanceFaultKind::Slow {
                factor: 8,
                until: 500_000,
            },
        }]);
        assert!(slowed[0] > clean[0], "first command hits the slow window");
        assert_eq!(slowed[1], clean[1], "second dispatches after the window");
    }

    #[test]
    fn ecc_fault_retries_on_the_same_instance_when_alone() {
        let mut f = fixture();
        let reqs = mixed_requests(&f, 2, 100_000);
        let mut cluster = ServeCluster::new(ServeConfig::default(), 0x1_0000_0000, 1 << 24);
        // One transient ECC error on the wire input: the first attempt
        // trips it, and with no other instance the retry lands back on the
        // same (now clean) instance.
        f.mem.system.arm_ecc(f.input_addr);
        cluster.run_with(&mut f.mem, &reqs, &[], None).unwrap();
        cluster.check_invariants().unwrap();
        assert_eq!(cluster.served(), 2);
        assert_eq!(cluster.retries(), 1);
        let r = &cluster.records()[0];
        assert_eq!(r.status, CommandStatus::Ok);
        assert_eq!(r.attempts, 2);
        assert_eq!(cluster.records()[1].attempts, 1);
    }

    #[test]
    fn memory_fault_quarantines_the_instance_at_threshold() {
        let mut f = fixture();
        let reqs = mixed_requests(&f, 10, 50_000);
        let mut cluster = ServeCluster::new(
            ServeConfig {
                instances: 2,
                quarantine_threshold: 1,
                ..ServeConfig::default()
            },
            0x1_0000_0000,
            1 << 24,
        );
        // The first command's ECC hit immediately quarantines instance 0;
        // everything (including the retry) runs on instance 1 afterwards.
        f.mem.system.arm_ecc(f.input_addr);
        cluster.run_with(&mut f.mem, &reqs, &[], None).unwrap();
        cluster.check_invariants().unwrap();
        assert_eq!(cluster.served(), 10);
        assert_eq!(cluster.quarantined_instances(), vec![0]);
        for r in cluster.records() {
            assert!(r.status.is_ok(), "cmd {} resolved {:?}", r.seq, r.status);
            assert_eq!(r.instance, 1);
        }
    }

    fn deser_requests(f: &Fixture, n: usize, gap: Cycles) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                arrival: i as Cycles * gap,
                watchdog: None,
                deadline: None,
                cost: None,
                op: RequestOp::Deserialize {
                    adt_ptr: f.adt_ptr,
                    input_addr: f.input_addr,
                    input_len: f.input_len,
                    dest_obj: f.dest_obj,
                    min_field: f.min_field,
                },
            })
            .collect()
    }

    #[test]
    fn admission_sheds_doomed_requests_before_enqueue() {
        let mut f = fixture();
        // A burst of simultaneous arrivals, each claiming a cost estimate
        // and a deadline only the first few can meet: the backlog estimate
        // (busy_until + cost) grows past the deadline, and everything past
        // that point is shed up front rather than queued to time out.
        let cost = 50_000;
        let mut reqs = mixed_requests(&f, 16, 0);
        for r in &mut reqs {
            r.arrival = 0;
            // Slack covers the cost estimate plus a little backlog: once
            // earlier commands push busy_until past the slack, later
            // arrivals' estimates blow the deadline and they are shed.
            r.deadline = Some(cost + 1_000);
            r.cost = Some(cost);
        }
        let mut cluster = ServeCluster::new(ServeConfig::default(), 0x1_0000_0000, 1 << 24);
        cluster.run(&mut f.mem, &reqs).unwrap();
        cluster.check_invariants().unwrap();
        let (ok, fallback, rejected, failed, shed) = cluster.status_counts();
        assert!(shed > 0, "an overloaded burst must shed");
        assert!(ok > 0, "the head of the burst must still be served");
        assert_eq!((fallback, rejected, failed), (0, 0, 0));
        assert_eq!(cluster.shed(), shed);
        assert_eq!(cluster.dropped(), 0, "admission ran before queue overflow");
        // Every offered command is accounted to exactly one terminal status.
        assert_eq!(ok + fallback + rejected + failed + shed, cluster.offered());
        for r in cluster.records() {
            if r.status == CommandStatus::Shed {
                assert_eq!(r.instance, FALLBACK_INSTANCE);
                assert_eq!(r.attempts, 0, "shed consumes no service attempt");
                assert_eq!(r.service, 1, "shed is a one-cycle pushback");
                assert!(!r.status.is_served());
                assert!(!r.status.is_ok());
            }
        }
        // Shed commands never occupied an instance: the served commands are
        // exactly those the accelerator ran.
        assert_eq!(cluster.served(), ok);
    }

    #[test]
    fn request_deadline_propagates_into_the_attempt_ceiling() {
        // Without a cost estimate admission cannot shed, so the deadline
        // rides into the dispatch path and kills the attempt at the
        // remaining budget — the min-combine with the watchdog.
        let mut f = fixture();
        let mut reqs = mixed_requests(&f, 1, 0);
        reqs[0].deadline = Some(3); // hopeless: service needs far more
        let mut cluster = ServeCluster::new(ServeConfig::default(), 0x1_0000_0000, 1 << 24);
        cluster.run(&mut f.mem, &reqs).unwrap();
        cluster.check_invariants().unwrap();
        let r = &cluster.records()[0];
        assert_eq!(r.status, CommandStatus::Failed(DecodeFault::WatchdogKill));

        // A generous deadline changes nothing.
        let mut f2 = fixture();
        let mut ok_reqs = mixed_requests(&f2, 1, 0);
        ok_reqs[0].deadline = Some(1 << 40);
        let mut relaxed = ServeCluster::new(ServeConfig::default(), 0x1_0000_0000, 1 << 24);
        relaxed.run(&mut f2.mem, &ok_reqs).unwrap();
        assert_eq!(relaxed.records()[0].status, CommandStatus::Ok);
    }

    #[test]
    fn quarantine_counter_decays_after_a_run_of_successes() {
        // One instance, threshold 2: two absorbed faults would quarantine
        // it. A run of QUARANTINE_DECAY clean completions between the faults
        // forgives the first one, so the instance stays in rotation; a
        // shorter run leaves the counter where it was, the second fault
        // quarantines the instance and — with no fallback — later commands
        // fail.
        let run = |between: usize| {
            let mut f = fixture();
            let cfg = ServeConfig {
                quarantine_threshold: 2,
                ..ServeConfig::default()
            };
            let mut cluster = ServeCluster::new(cfg, 0x1_0000_0000, 1 << 24);
            let first = deser_requests(&f, between, 100_000);
            let second = deser_requests(&f, 4, 100_000);
            f.mem.system.arm_ecc(f.input_addr);
            cluster.run(&mut f.mem, &first).unwrap();
            f.mem.system.arm_ecc(f.input_addr);
            cluster.run(&mut f.mem, &second).unwrap();
            cluster.check_invariants().unwrap();
            (
                cluster.quarantined_instances(),
                cluster.status_counts(),
                cluster.offered(),
            )
        };
        let (quarantined, (ok, _, _, failed, _), offered) = run(QUARANTINE_DECAY as usize + 1);
        assert_eq!(quarantined, Vec::<usize>::new(), "decay forgave the fault");
        assert_eq!(failed, 0);
        assert_eq!(ok, offered, "every command served on the accelerator");

        let (short_quarantined, (_, _, _, short_failed, _), _) = run(8);
        assert_eq!(
            short_quarantined,
            vec![0],
            "too short a run forgives nothing"
        );
        assert!(short_failed > 0, "no instance and no fallback => failures");
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let run_once = || {
            let mut f = fixture();
            let reqs = mixed_requests(&f, 24, 50);
            let mut cluster = ServeCluster::new(
                ServeConfig {
                    instances: 2,
                    ..ServeConfig::default()
                },
                0x1_0000_0000,
                1 << 24,
            );
            cluster.run(&mut f.mem, &reqs).unwrap();
            cluster
                .records()
                .iter()
                .map(|r| (r.seq, r.dispatch, r.complete, r.instance))
                .collect::<Vec<_>>()
        };
        assert_eq!(run_once(), run_once());
    }
}
