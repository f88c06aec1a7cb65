//! The memory system: storage + hierarchy timing bundled behind one port.

use crate::{
    CacheConfig, CacheModel, CacheStats, Cycles, GuestMemory, Tlb, TlbConfig, BUS_WIDTH_BYTES,
};

/// Whether an access is a read or a write (writes are modeled write-allocate,
/// write-back, so the timing treatment is identical; the split is kept for
/// statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load from memory.
    Read,
    /// Store to memory.
    Write,
}

/// Latencies and geometry of the modeled hierarchy.
///
/// Defaults approximate the paper's SoC: 2 GHz core/accelerator clock,
/// 32 KiB L1, 512 KiB L2, 32 MiB LLC (the artifact's runtime config names a
/// 32 MB LLC), and DRAM ~110 ns away.
#[derive(Debug, Clone, Copy)]
pub struct MemConfig {
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// LLC geometry.
    pub llc: CacheConfig,
    /// Cycles for an L1 hit.
    pub l1_latency: Cycles,
    /// Cycles for an L2 hit (L1 miss).
    pub l2_latency: Cycles,
    /// Cycles for an LLC hit (L2 miss).
    pub llc_latency: Cycles,
    /// Cycles for a DRAM access (LLC miss).
    pub dram_latency: Cycles,
    /// TLB configuration.
    pub tlb: TlbConfig,
    /// Maximum in-flight requests the memory interface wrapper tracks
    /// (Section 4.1: "a configurable number of outstanding requests").
    /// Streaming transfers overlap up to this many line fetches.
    pub max_outstanding: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1: CacheConfig::new(32 * 1024, 8, 64),
            l2: CacheConfig::new(512 * 1024, 8, 64),
            llc: CacheConfig::new(32 * 1024 * 1024, 16, 64),
            l1_latency: 2,
            l2_latency: 14,
            llc_latency: 40,
            dram_latency: 220,
            tlb: TlbConfig::default(),
            max_outstanding: 12,
        }
    }
}

impl MemConfig {
    /// Memory configuration for one of `groups` independent shard groups
    /// splitting the shared last-level resources.
    ///
    /// Way-partitioning an LLC across instance groups (the standard CAT-style
    /// slicing) gives each group a private slice: within a shard the paper's
    /// contention model is unchanged — instances still fight over the slice
    /// and the outstanding-miss budget — while *across* shards there is no
    /// coupling at all, which is what makes sharded simulation exact rather
    /// than approximate. The slice keeps the parent's associativity and line
    /// size (capacity shrinks by dropping sets, rounded to the power-of-two
    /// geometry the cache model requires) and divides the outstanding-miss
    /// budget, clamping both so even extreme `groups` stay constructible.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    #[must_use]
    pub fn llc_slice(&self, groups: usize) -> MemConfig {
        assert!(groups > 0, "shard group count must be nonzero");
        let g = groups.next_power_of_two();
        // Smallest legal slice: one set of `ways` lines.
        let min = self.llc.ways * self.llc.line_bytes;
        let sliced = (self.llc.size_bytes / g).max(min);
        MemConfig {
            llc: CacheConfig::new(sliced, self.llc.ways, self.llc.line_bytes),
            max_outstanding: (self.max_outstanding / g).max(1),
            ..*self
        }
    }
}

/// One requester's share of a shared hierarchy's traffic.
///
/// When several accelerator instances (or an instance and a core) share an
/// LLC/DRAM, attributing hits and misses per requester is what lets the
/// serving model report *who* is suffering the contention. Requesters are
/// dense small integers assigned by the caller via
/// [`MemSystem::set_requester`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequesterStats {
    /// Accesses issued while this requester was current.
    pub accesses: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Cycles charged.
    pub cycles: Cycles,
    /// Line probes served by the L1.
    pub l1_hits: u64,
    /// Line probes served by the L2.
    pub l2_hits: u64,
    /// Line probes served by the LLC.
    pub llc_hits: u64,
    /// Line probes that went all the way to DRAM.
    pub dram_accesses: u64,
}

impl RequesterStats {
    /// Fraction of this requester's line probes that missed the LLC,
    /// `0.0` if it issued none.
    pub fn dram_fraction(&self) -> f64 {
        let probes = self.l1_hits + self.l2_hits + self.llc_hits + self.dram_accesses;
        if probes == 0 {
            return 0.0;
        }
        self.dram_accesses as f64 / probes as f64
    }
}

/// A hardware fault raised by the simulated memory system.
///
/// Faults are injected (armed) by a test harness or the fault-injection
/// layer (`protoacc-faults`); the hierarchy itself never produces them
/// spontaneously, so untouched configurations behave exactly as before.
/// A raised fault is latched and must be drained with
/// [`MemSystem::take_fault`] — the accelerator model polls after each
/// transfer and converts a latched fault into a typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemFault {
    /// An uncorrectable (detected, not silently corrupting) DRAM ECC error
    /// on an access overlapping `addr`.
    Ecc {
        /// Address the armed fault was registered for.
        addr: u64,
    },
    /// An access overlapping `addr` stalled: the interface charged `extra`
    /// additional cycles and reported the hang. `extra` is chosen large
    /// enough that any watchdog ceiling fires first.
    Stall {
        /// Address the armed fault was registered for.
        addr: u64,
        /// Extra cycles the stalled access cost.
        extra: Cycles,
    },
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemFault::Ecc { addr } => write!(f, "uncorrectable ECC error at {addr:#x}"),
            MemFault::Stall { addr, extra } => {
                write!(f, "memory stall at {addr:#x} (+{extra} cycles)")
            }
        }
    }
}

/// One armed (not yet triggered) fault: fires on the first access whose
/// byte range covers `addr`, then disarms.
#[derive(Debug, Clone, Copy)]
struct ArmedFault {
    addr: u64,
    kind: ArmedFaultKind,
}

#[derive(Debug, Clone, Copy)]
enum ArmedFaultKind {
    Ecc,
    Stall { extra: Cycles },
}

/// Aggregate statistics for a [`MemSystem`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MemStats {
    /// Total accesses issued.
    pub accesses: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total cycles charged.
    pub cycles: Cycles,
    /// Per-level hit/miss counters (L1, L2, LLC).
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// LLC counters.
    pub llc: CacheStats,
}

/// The timing side of the memory system: cache hierarchy plus TLB.
///
/// Both the CPU models and the accelerator route their accesses through one
/// of these; sharing an instance models the paper's shared L2/LLC.
#[derive(Debug, Clone)]
pub struct MemSystem {
    config: MemConfig,
    l1: CacheModel,
    l2: CacheModel,
    llc: CacheModel,
    tlb: Tlb,
    accesses: u64,
    bytes: u64,
    cycles: Cycles,
    requester: usize,
    requesters: Vec<RequesterStats>,
    sharers: u64,
    /// `log2(line_bytes)`, shared by every level: a byte address's line
    /// number is `addr >> line_shift`.
    line_shift: u32,
    /// The latency-overlap factor streams see under the current sharing,
    /// `max(max_outstanding / sharers, 1)`, kept up to date by
    /// [`MemSystem::set_sharers`].
    overlap: u64,
    armed: Vec<ArmedFault>,
    fault: Option<MemFault>,
    /// Structured event sink (`protoacc-trace`) of this system's accesses
    /// and of the accelerator units that reach memory through it; `None`
    /// (the default) is the zero-cost path — instrumentation never feeds
    /// back into cycle arithmetic, it only observes.
    event_tracer: Option<protoacc_trace::SharedTracer>,
    /// `(timeline base, self.cycles when the base was set)`: event
    /// timestamps are `base + (cycles_at_issue - cycles_at_base)`, letting
    /// the serve layer pin memory events onto its queue clock.
    trace_origin: (Cycles, Cycles),
}

impl MemSystem {
    /// Creates a cold hierarchy.
    ///
    /// # Panics
    ///
    /// Panics unless the L1, L2 and LLC share one power-of-two line size:
    /// a probe looks a line number up in every level, so levels with
    /// different lines would be indexed wrongly.
    pub fn new(config: MemConfig) -> Self {
        let line_bytes = config.l1.line_bytes;
        assert!(
            config.l2.line_bytes == line_bytes && config.llc.line_bytes == line_bytes,
            "every cache level must use the same line size (L1 {line_bytes} B, L2 {} B, LLC {} B)",
            config.l2.line_bytes,
            config.llc.line_bytes
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        MemSystem {
            config,
            l1: CacheModel::new(config.l1),
            l2: CacheModel::new(config.l2),
            llc: CacheModel::new(config.llc),
            tlb: Tlb::new(config.tlb),
            accesses: 0,
            bytes: 0,
            cycles: 0,
            requester: 0,
            requesters: vec![RequesterStats::default()],
            sharers: 1,
            line_shift: line_bytes.trailing_zeros(),
            overlap: overlap(config.max_outstanding, 1),
            armed: Vec::new(),
            fault: None,
            event_tracer: None,
            trace_origin: (0, 0),
        }
    }

    /// Attaches (or detaches, with `None`) a structured event tracer, the
    /// one sink of every microarchitectural event. While attached, every
    /// non-empty `access`/`stream`/`pipelined` call emits a
    /// [`protoacc_trace::TraceEvent::MemAccess`] with its cache-level
    /// breakdown (the aliasing sanitizer builds its footprints from these),
    /// and the accelerator units record their own events through
    /// [`MemSystem::trace`]. Purely observational: cycle accounting is
    /// identical with and without a tracer.
    pub fn set_event_tracer(&mut self, tracer: Option<protoacc_trace::SharedTracer>) {
        self.event_tracer = tracer;
    }

    /// Whether an event tracer is attached.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.event_tracer.is_some()
    }

    /// Records the event `event(requester, origin)` builds, if a tracer is
    /// attached; otherwise the closure never runs. `requester` is the
    /// current requester, which for an accelerator unit is its instance
    /// id, and `origin` the timeline base of the last
    /// [`MemSystem::set_trace_origin`], onto which the caller adds its
    /// own unit-relative cycle offsets.
    #[inline]
    pub fn trace(&self, event: impl FnOnce(usize, Cycles) -> protoacc_trace::TraceEvent) {
        if let Some(tracer) = &self.event_tracer {
            tracer
                .borrow_mut()
                .record(event(self.requester, self.trace_origin.0));
        }
    }

    /// Pins the event timeline: subsequent events are stamped
    /// `at + (cycles_since_this_call)`. The serve layer calls this with
    /// each attempt's dispatch time so memory events line up with the
    /// cluster's queue clock.
    pub fn set_trace_origin(&mut self, at: Cycles) {
        self.trace_origin = (at, self.cycles);
    }

    /// Arms a one-shot uncorrectable ECC fault: the first subsequent access
    /// whose byte range covers `addr` raises [`MemFault::Ecc`] (latched
    /// until [`MemSystem::take_fault`]) and charges one extra DRAM latency
    /// for the detection/re-read.
    pub fn arm_ecc(&mut self, addr: u64) {
        self.armed.push(ArmedFault {
            addr,
            kind: ArmedFaultKind::Ecc,
        });
    }

    /// Arms a one-shot stall fault: the first subsequent access covering
    /// `addr` costs `extra` additional cycles and latches
    /// [`MemFault::Stall`]. Callers pick `extra` far above any command's
    /// static cycle ceiling so a watchdog observes the hang.
    pub fn arm_stall(&mut self, addr: u64, extra: Cycles) {
        self.armed.push(ArmedFault {
            addr,
            kind: ArmedFaultKind::Stall { extra },
        });
    }

    /// Drains the latched fault, if any. At most one fault is latched at a
    /// time; later triggers while one is pending are dropped (the first
    /// error aborts the command anyway).
    pub fn take_fault(&mut self) -> Option<MemFault> {
        self.fault.take()
    }

    /// Whether a fault is latched and not yet drained.
    pub fn fault_pending(&self) -> bool {
        self.fault.is_some()
    }

    /// Triggers any armed fault covered by `[addr, addr + len)`; returns the
    /// extra cycle charge. The empty-`armed` fast path keeps untouched
    /// configurations branch-cheap.
    fn check_faults(&mut self, addr: u64, len: usize) -> Cycles {
        if self.armed.is_empty() {
            return 0;
        }
        let end = addr.saturating_add(len as u64);
        let mut extra_cycles: Cycles = 0;
        let mut i = 0;
        while i < self.armed.len() {
            let f = self.armed[i];
            if f.addr >= addr && f.addr < end {
                let (fault, charge) = match f.kind {
                    ArmedFaultKind::Ecc => {
                        (MemFault::Ecc { addr: f.addr }, self.config.dram_latency)
                    }
                    ArmedFaultKind::Stall { extra } => (
                        MemFault::Stall {
                            addr: f.addr,
                            extra,
                        },
                        extra,
                    ),
                };
                if self.fault.is_none() {
                    self.fault = Some(fault);
                }
                extra_cycles = extra_cycles.saturating_add(charge);
                self.armed.swap_remove(i);
            } else {
                i += 1;
            }
        }
        extra_cycles
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Attributes subsequent traffic to requester `id` (a dense small
    /// integer, e.g. an accelerator instance index). Requester 0 is current
    /// by default, so single-requester callers never need to call this.
    pub fn set_requester(&mut self, id: usize) {
        if id >= self.requesters.len() {
            self.requesters.resize(id + 1, RequesterStats::default());
        }
        self.requester = id;
    }

    /// Statistics for requester `id` (zeroes if it never issued traffic).
    pub fn requester_stats(&self, id: usize) -> RequesterStats {
        self.requesters.get(id).copied().unwrap_or_default()
    }

    /// Sets how many requesters are actively sharing the memory interface.
    ///
    /// The outstanding-request budget (and hence the latency-overlap factor
    /// of [`MemSystem::stream`] / [`MemSystem::pipelined`]) is split evenly
    /// across active sharers: with `max_outstanding = 12` and 4 sharers each
    /// stream overlaps only 3 line fetches. `1` (the default) restores the
    /// uncontended behavior.
    pub fn set_sharers(&mut self, sharers: usize) {
        self.sharers = sharers.max(1) as u64;
        self.overlap = overlap(self.config.max_outstanding, self.sharers);
    }

    /// The currently configured sharer count.
    pub fn sharers(&self) -> usize {
        self.sharers as usize
    }

    /// Charges one access of `len` bytes at `addr` and returns its cycle
    /// cost. Accesses spanning multiple cache lines probe each line.
    ///
    /// Like every range in the memory system, `[addr, addr + len)` is
    /// clamped at `u64::MAX`: an access running past the top of the
    /// address space translates and probes only the pages and lines up to
    /// the top, and never wraps to address 0. `len` still counts in full
    /// toward bytes moved and bus occupancy.
    pub fn access(&mut self, addr: u64, len: usize, kind: AccessKind) -> Cycles {
        if len == 0 {
            return 0;
        }
        let snap = self.snap_for_event();
        let last = last_byte(addr, len);
        let tlb_cost = self.translate(addr, last);
        let mut cost = tlb_cost;
        for line in self.lines(addr, last) {
            cost += self.probe(line);
        }
        let cost = cost.saturating_add(self.check_faults(addr, len));
        self.note(len, cost);
        self.emit_mem_event(
            snap,
            protoacc_trace::MemAccessMode::Blocking,
            addr,
            len,
            kind,
            cost,
            tlb_cost,
        );
        cost
    }

    /// Charges a streaming transfer of `len` bytes starting at `addr`, as the
    /// memloader/memwriter units perform: line fetches overlap up to the
    /// configured outstanding-request limit, so cost is dominated by bus
    /// bandwidth (16 B/cycle) plus one exposed leading latency. The range
    /// clamps at `u64::MAX` as in [`MemSystem::access`].
    pub fn stream(&mut self, addr: u64, len: usize, kind: AccessKind) -> Cycles {
        if len == 0 {
            return 0;
        }
        let snap = self.snap_for_event();
        let last = last_byte(addr, len);
        let tlb_cost = self.translate(addr, last);
        let mut worst: Cycles = 0;
        let mut sum: Cycles = 0;
        for line in self.lines(addr, last) {
            let c = self.probe(line);
            worst = worst.max(c);
            sum += c;
        }
        // With `max_outstanding` requests in flight, per-line latencies
        // overlap: charge the worst single latency once, plus the serialized
        // remainder divided by the overlap factor, plus bus occupancy. The
        // overlap budget shrinks when other requesters share the interface.
        let hidden = (sum - worst) / self.overlap;
        let bus = len.div_ceil(BUS_WIDTH_BYTES) as u64 * self.sharers;
        let cost = (tlb_cost + worst + hidden + bus).saturating_add(self.check_faults(addr, len));
        self.note(len, cost);
        self.emit_mem_event(
            snap,
            protoacc_trace::MemAccessMode::Stream,
            addr,
            len,
            kind,
            cost,
            tlb_cost,
        );
        cost
    }

    /// Charges an access issued through a decoupled memory interface wrapper
    /// that tracks many outstanding requests (Section 4.1): the caller does
    /// not block for the full hierarchy latency, so the charge is bus
    /// occupancy (16 B/cycle) plus the miss latency amortized over the
    /// outstanding-request window, plus any TLB walk (which does block).
    /// The range clamps at `u64::MAX` as in [`MemSystem::access`].
    pub fn pipelined(&mut self, addr: u64, len: usize, kind: AccessKind) -> Cycles {
        if len == 0 {
            return 0;
        }
        let snap = self.snap_for_event();
        let last = last_byte(addr, len);
        let tlb_cost = self.translate(addr, last);
        let mut cost = tlb_cost;
        let mut probe_sum = 0;
        for line in self.lines(addr, last) {
            probe_sum += self.probe(line);
        }
        cost += len.div_ceil(BUS_WIDTH_BYTES) as u64 * self.sharers + probe_sum / self.overlap;
        let cost = cost.saturating_add(self.check_faults(addr, len));
        self.note(len, cost);
        self.emit_mem_event(
            snap,
            protoacc_trace::MemAccessMode::Pipelined,
            addr,
            len,
            kind,
            cost,
            tlb_cost,
        );
        cost
    }

    /// Captures the pre-access requester counters and memory clock when an
    /// event tracer is attached; `None` otherwise (the zero-cost path).
    #[inline]
    fn snap_for_event(&self) -> Option<(RequesterStats, Cycles)> {
        if self.tracing() {
            Some((self.requesters[self.requester], self.cycles))
        } else {
            None
        }
    }

    /// Emits one [`protoacc_trace::TraceEvent::MemAccess`] with the
    /// cache-level deltas accumulated since `snap`. A no-op when no tracer
    /// is attached (`snap` is `None`): that check is inlined into every
    /// access, and only a traced access calls out to build the event.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn emit_mem_event(
        &self,
        snap: Option<(RequesterStats, Cycles)>,
        mode: protoacc_trace::MemAccessMode,
        addr: u64,
        len: usize,
        kind: AccessKind,
        cost: Cycles,
        tlb_cost: Cycles,
    ) {
        if let Some(snap) = snap {
            self.record_mem_event(snap, mode, addr, len, kind, cost, tlb_cost);
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn record_mem_event(
        &self,
        (before, start_cycles): (RequesterStats, Cycles),
        mode: protoacc_trace::MemAccessMode,
        addr: u64,
        len: usize,
        kind: AccessKind,
        cost: Cycles,
        tlb_cost: Cycles,
    ) {
        let now = self.requesters[self.requester];
        let since_origin = start_cycles.saturating_sub(self.trace_origin.1);
        self.trace(|requester, origin| protoacc_trace::TraceEvent::MemAccess {
            requester,
            at: origin + since_origin,
            cycles: cost,
            addr,
            len: len as u64,
            write: matches!(kind, AccessKind::Write),
            mode,
            tlb_walk_cycles: tlb_cost,
            l1_hits: now.l1_hits - before.l1_hits,
            l2_hits: now.l2_hits - before.l2_hits,
            llc_hits: now.llc_hits - before.llc_hits,
            dram_accesses: now.dram_accesses - before.dram_accesses,
        });
    }

    /// Translates every page of the byte range `[addr, last]`: the page of
    /// `addr` first, then one more translation per page boundary crossed.
    fn translate(&mut self, addr: u64, last: u64) -> Cycles {
        let page_bytes = crate::PAGE_SIZE as u64;
        let mut cost = self.tlb.translate(addr);
        for page in addr / page_bytes + 1..=last / page_bytes {
            cost += self.tlb.translate(page * page_bytes);
        }
        cost
    }

    /// Line numbers covering the byte range `[addr, last]`.
    fn lines(&self, addr: u64, last: u64) -> std::ops::RangeInclusive<u64> {
        addr >> self.line_shift..=last >> self.line_shift
    }

    fn probe(&mut self, line: u64) -> Cycles {
        let who = &mut self.requesters[self.requester];
        if self.l1.access_line(line) {
            who.l1_hits += 1;
            self.config.l1_latency
        } else if self.l2.access_line(line) {
            who.l2_hits += 1;
            self.config.l2_latency
        } else if self.llc.access_line(line) {
            who.llc_hits += 1;
            self.config.llc_latency
        } else {
            who.dram_accesses += 1;
            self.config.dram_latency
        }
    }

    /// Books one completed access into the global and per-requester tallies.
    fn note(&mut self, len: usize, cost: Cycles) {
        self.accesses += 1;
        self.bytes += len as u64;
        self.cycles += cost;
        let who = &mut self.requesters[self.requester];
        who.accesses += 1;
        who.bytes += len as u64;
        who.cycles += cost;
    }

    /// Snapshot of accumulated statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            accesses: self.accesses,
            bytes: self.bytes,
            cycles: self.cycles,
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            llc: self.llc.stats(),
        }
    }

    /// Invalidates all cache and TLB state and zeroes counters.
    pub fn reset(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.llc.flush();
        self.tlb.flush();
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.accesses = 0;
        self.bytes = 0;
        self.cycles = 0;
        for r in &mut self.requesters {
            *r = RequesterStats::default();
        }
        self.armed.clear();
        self.fault = None;
        self.trace_origin = (0, 0);
    }

    /// Pre-touches an address range so it is LLC-resident (used to model
    /// warmed-up benchmark state without charging cycles to the workload).
    /// The range clamps at `u64::MAX` as in [`MemSystem::access`].
    pub fn warm(&mut self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        for line in self.lines(addr, last_byte(addr, len)) {
            self.llc.access_line(line);
        }
        self.llc.reset_stats();
    }
}

/// The latency-overlap factor of a `max_outstanding` window split across
/// `sharers` requesters (at least 1).
fn overlap(max_outstanding: usize, sharers: u64) -> u64 {
    (max_outstanding.max(1) as u64 / sharers).max(1)
}

/// Last byte of the nonempty range of `len` bytes at `addr`, clamped at
/// the top of the address space.
fn last_byte(addr: u64, len: usize) -> u64 {
    addr.saturating_add(len as u64 - 1)
}

/// Storage plus timing: the object every simulated component threads through
/// its memory operations.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Byte storage.
    pub data: GuestMemory,
    /// Timing model.
    pub system: MemSystem,
}

impl Memory {
    /// Creates zeroed storage with a cold hierarchy.
    pub fn new(config: MemConfig) -> Self {
        Memory {
            data: GuestMemory::new(),
            system: MemSystem::new(config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_costs_fall_to_l1_latency() {
        let mut sys = MemSystem::new(MemConfig::default());
        let cold = sys.access(0x1000, 8, AccessKind::Read);
        let warm = sys.access(0x1000, 8, AccessKind::Read);
        assert!(cold > warm, "cold {cold} should exceed warm {warm}");
        // Second touch hits L1 with a resident TLB entry.
        assert_eq!(warm, MemConfig::default().l1_latency);
    }

    #[test]
    fn multi_line_access_charges_each_line() {
        let mut sys = MemSystem::new(MemConfig::default());
        // Warm everything first.
        sys.access(0x1000, 128, AccessKind::Read);
        let one = sys.access(0x1000, 8, AccessKind::Read);
        let two = sys.access(0x1000, 128, AccessKind::Read); // 2 lines
        assert_eq!(two, one * 2);
    }

    #[test]
    fn stream_is_cheaper_than_random_for_long_transfers() {
        let config = MemConfig::default();
        let mut random = MemSystem::new(config);
        let mut streaming = MemSystem::new(config);
        let len = 64 * 1024;
        let mut random_cost = 0;
        for off in (0..len).step_by(64) {
            random_cost += random.access(0x10_0000 + off as u64, 64, AccessKind::Read);
        }
        let stream_cost = streaming.stream(0x10_0000, len, AccessKind::Read);
        assert!(
            stream_cost < random_cost / 2,
            "stream {stream_cost} vs random {random_cost}"
        );
    }

    #[test]
    fn stream_cost_scales_with_bandwidth() {
        let mut sys = MemSystem::new(MemConfig::default());
        // Make an 8 KiB region L1- and TLB-resident, then check the cost of
        // re-streaming it is dominated by the 16 B/cycle bus term.
        sys.stream(0, 8 * 1024, AccessKind::Read);
        sys.stream(0, 8 * 1024, AccessKind::Read);
        let c1 = sys.stream(0, 4 * 1024, AccessKind::Read);
        let c2 = sys.stream(0, 8 * 1024, AccessKind::Read);
        let delta = c2 as i64 - 2 * c1 as i64;
        assert!(delta.abs() < c1 as i64 / 4, "c1={c1} c2={c2}");
    }

    #[test]
    fn warm_promotes_to_llc_not_l1() {
        let mut sys = MemSystem::new(MemConfig::default());
        sys.warm(0x2000, 64);
        let first = sys.access(0x2000, 8, AccessKind::Read);
        // TLB still cold (+walk), line in LLC.
        let expect = MemConfig::default().llc_latency + TlbConfig::default().walk_cycles;
        assert_eq!(first, expect);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut sys = MemSystem::new(MemConfig::default());
        sys.access(0, 8, AccessKind::Read);
        sys.access(0, 8, AccessKind::Write);
        let stats = sys.stats();
        assert_eq!(stats.accesses, 2);
        assert_eq!(stats.bytes, 16);
        assert!(stats.cycles > 0);
        sys.reset();
        assert_eq!(sys.stats().accesses, 0);
    }

    #[test]
    fn memory_bundle_round_trips_data_with_timing() {
        let mut mem = Memory::new(MemConfig::default());
        mem.data.write_u64(0x40, 99);
        let c1 = mem.system.access(0x40, 8, AccessKind::Write);
        let c2 = mem.system.access(0x40, 8, AccessKind::Read);
        assert_eq!(mem.data.read_u64(0x40), 99);
        assert!(c1 > 0 && c2 > 0);
        let payload = vec![7u8; 300];
        mem.data.write_bytes(0x1000, &payload);
        mem.system.access(0x1000, payload.len(), AccessKind::Write);
        let mut buf = vec![0u8; 300];
        mem.system.stream(0x1000, buf.len(), AccessKind::Read);
        mem.data.read_bytes(0x1000, &mut buf);
        assert_eq!(buf, payload);
    }

    #[test]
    fn pipelined_access_is_cheaper_than_blocking() {
        let config = MemConfig::default();
        let mut blocking = MemSystem::new(config);
        let mut pipelined = MemSystem::new(config);
        let mut blocking_cost = 0;
        let mut pipelined_cost = 0;
        for i in 0..64u64 {
            blocking_cost += blocking.access(0x9000 + i * 8, 8, AccessKind::Write);
            pipelined_cost += pipelined.pipelined(0x9000 + i * 8, 8, AccessKind::Write);
        }
        assert!(
            pipelined_cost < blocking_cost,
            "pipelined {pipelined_cost} vs blocking {blocking_cost}"
        );
        assert_eq!(pipelined.pipelined(0x9000, 0, AccessKind::Read), 0);
    }

    #[test]
    fn ranges_clamp_at_the_top_of_the_address_space() {
        let config = MemConfig::default();
        let cold_line = config.tlb.walk_cycles + config.dram_latency;
        let mut sys = MemSystem::new(config);
        let log = protoacc_trace::TraceLog::shared();
        sys.set_event_tracer(Some(log.clone()));
        // Runs 4 bytes past u64::MAX: only the top page and line count.
        assert_eq!(sys.access(u64::MAX - 3, 8, AccessKind::Read), cold_line);
        assert_eq!(sys.stats().l1.misses, 1);
        assert_eq!(sys.stats().bytes, 8);
        // Nothing wrapped around to address 0: its line is still cold.
        assert_eq!(sys.access(0, 8, AccessKind::Read), cold_line);
        let hot = config.l1_latency;
        assert_eq!(sys.access(u64::MAX, 8, AccessKind::Read), hot);
        assert!(sys.stream(u64::MAX - 100, 4096, AccessKind::Write) >= 4096 / 16);
        assert!(sys.pipelined(u64::MAX - 1, 64, AccessKind::Write) >= 64 / 16);
        sys.warm(u64::MAX - 1, usize::MAX);
        // The event carries the access as issued; consumers clamp its end.
        assert!(matches!(
            log.borrow().events[0],
            protoacc_trace::TraceEvent::MemAccess { addr, len: 8, .. } if addr == u64::MAX - 3
        ));
        let mut mem = Memory::new(config);
        mem.data.write_bytes(u64::MAX - 1, &[0xaa; 4]);
        mem.system.access(u64::MAX - 1, 4, AccessKind::Write);
        mem.system.access(u64::MAX - 1, 8, AccessKind::Read);
        assert_eq!(mem.data.read_u64(u64::MAX - 1), 0xaaaa);
    }

    #[test]
    fn zero_length_accesses_are_free() {
        let mut sys = MemSystem::new(MemConfig::default());
        assert_eq!(sys.access(0x123, 0, AccessKind::Read), 0);
        assert_eq!(sys.stream(0x123, 0, AccessKind::Read), 0);
    }

    #[test]
    fn requester_stats_attribute_traffic_per_requester() {
        let mut sys = MemSystem::new(MemConfig::default());
        // Requester 0 (default) touches a cold line: DRAM access.
        sys.access(0x1000, 8, AccessKind::Read);
        sys.set_requester(1);
        // Requester 1 re-touches it: L1 hit.
        sys.access(0x1000, 8, AccessKind::Read);
        let r0 = sys.requester_stats(0);
        let r1 = sys.requester_stats(1);
        assert_eq!(r0.accesses, 1);
        assert_eq!(r0.dram_accesses, 1);
        assert_eq!(r0.l1_hits, 0);
        assert_eq!(r1.accesses, 1);
        assert_eq!(r1.l1_hits, 1);
        assert_eq!(r1.dram_accesses, 0);
        assert!((r0.dram_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(r1.dram_fraction(), 0.0);
        // Global stats still see both.
        assert_eq!(sys.stats().accesses, 2);
        // Unknown requesters report zeroes.
        assert_eq!(sys.requester_stats(99), RequesterStats::default());
        sys.reset();
        assert_eq!(sys.requester_stats(1), RequesterStats::default());
    }

    #[test]
    fn tracing_captures_nonempty_accesses_with_attribution() {
        use protoacc_trace::{MemAccessMode, TraceEvent, TraceLog};
        let mut sys = MemSystem::new(MemConfig::default());
        let log = TraceLog::shared();
        sys.set_event_tracer(Some(log.clone()));
        let mut costs = vec![sys.access(0x2000, 16, AccessKind::Write)];
        // Zero-length accesses emit nothing.
        sys.access(0x3000, 0, AccessKind::Read);
        sys.stream(0x3000, 0, AccessKind::Read);
        sys.pipelined(0x3000, 0, AccessKind::Write);
        sys.set_requester(3);
        costs.push(sys.stream(0x4000, 100, AccessKind::Read));
        costs.push(sys.pipelined(0x5000, 4, AccessKind::Write));
        let seen: Vec<_> = log
            .borrow()
            .events
            .iter()
            .map(|e| match *e {
                TraceEvent::MemAccess {
                    requester,
                    addr,
                    len,
                    write,
                    mode,
                    cycles,
                    ..
                } => ((requester, addr, len, write, mode), cycles),
                ref other => panic!("unexpected event {other:?}"),
            })
            .collect();
        let (accesses, cycles): (Vec<_>, Vec<_>) = seen.into_iter().unzip();
        assert_eq!(
            accesses,
            vec![
                (0, 0x2000, 16, true, MemAccessMode::Blocking),
                (3, 0x4000, 100, false, MemAccessMode::Stream),
                (3, 0x5000, 4, true, MemAccessMode::Pipelined),
            ]
        );
        assert_eq!(cycles, costs, "each event carries its access's charge");
        // Detached, the system emits nothing more.
        sys.set_event_tracer(None);
        sys.access(0x6000, 8, AccessKind::Read);
        assert_eq!(log.borrow().events.len(), 3);
    }

    #[test]
    fn armed_ecc_fault_fires_once_and_latches() {
        let mut sys = MemSystem::new(MemConfig::default());
        sys.arm_ecc(0x1004);
        assert!(sys.take_fault().is_none(), "arming alone raises nothing");
        // Access that misses the armed address: no fault.
        sys.access(0x2000, 8, AccessKind::Read);
        assert!(!sys.fault_pending());
        // Covering access trips it and pays the detection re-read.
        let mut clean = MemSystem::new(MemConfig::default());
        clean.access(0x2000, 8, AccessKind::Read);
        let clean_cost = clean.access(0x1000, 8, AccessKind::Read);
        let faulted_cost = sys.access(0x1000, 8, AccessKind::Read);
        assert_eq!(faulted_cost, clean_cost + MemConfig::default().dram_latency);
        assert_eq!(sys.take_fault(), Some(MemFault::Ecc { addr: 0x1004 }));
        // One-shot: the same access is clean afterwards, and drained stays
        // drained.
        assert!(sys.take_fault().is_none());
        sys.access(0x1000, 8, AccessKind::Read);
        assert!(!sys.fault_pending());
    }

    #[test]
    fn armed_stall_inflates_cycles_and_reset_disarms() {
        let mut sys = MemSystem::new(MemConfig::default());
        let base = sys.stream(0x4000, 256, AccessKind::Read);
        sys.reset();
        sys.arm_stall(0x4010, 1 << 40);
        let stalled = sys.stream(0x4000, 256, AccessKind::Read);
        assert!(
            stalled >= base + (1 << 40),
            "stall must dominate: {stalled}"
        );
        assert_eq!(
            sys.take_fault(),
            Some(MemFault::Stall {
                addr: 0x4010,
                extra: 1 << 40
            })
        );
        // reset() clears both armed and latched faults.
        sys.arm_stall(0x4010, 100);
        sys.arm_ecc(0x4010);
        sys.reset();
        sys.stream(0x4000, 256, AccessKind::Read);
        assert!(sys.take_fault().is_none());
    }

    #[test]
    fn sharers_inflate_streaming_cost() {
        let config = MemConfig::default();
        let mut alone = MemSystem::new(config);
        let mut contended = MemSystem::new(config);
        contended.set_sharers(4);
        let len = 64 * 1024;
        let solo = alone.stream(0x10_0000, len, AccessKind::Read);
        let shared = contended.stream(0x10_0000, len, AccessKind::Read);
        assert!(
            shared > solo * 2,
            "4-way sharing should at least double a cold stream: {shared} vs {solo}"
        );
        // Restoring sharers=1 restores the uncontended cost model.
        contended.set_sharers(1);
        contended.reset();
        alone.reset();
        assert_eq!(
            contended.stream(0x10_0000, len, AccessKind::Read),
            alone.stream(0x10_0000, len, AccessKind::Read)
        );
    }

    #[test]
    #[should_panic(expected = "same line size")]
    fn rejects_levels_with_different_line_sizes() {
        MemSystem::new(MemConfig {
            l2: CacheConfig::new(512 * 1024, 8, 128),
            ..MemConfig::default()
        });
    }

    #[test]
    fn llc_slice_partitions_capacity_and_outstanding_budget() {
        let base = MemConfig::default();
        let quarter = base.llc_slice(4);
        assert_eq!(quarter.llc.size_bytes, base.llc.size_bytes / 4);
        assert_eq!(quarter.llc.ways, base.llc.ways);
        assert_eq!(quarter.llc.line_bytes, base.llc.line_bytes);
        assert_eq!(quarter.max_outstanding, base.max_outstanding / 4);
        // L1/L2 are per-instance hardware, never sliced.
        assert_eq!(quarter.l1.size_bytes, base.l1.size_bytes);
        assert_eq!(quarter.l2.size_bytes, base.l2.size_bytes);

        // Non-power-of-two groups round up to the po2 geometry the cache
        // model requires; one group is the identity slice.
        assert_eq!(base.llc_slice(3).llc.size_bytes, base.llc.size_bytes / 4);
        assert_eq!(base.llc_slice(1).llc.size_bytes, base.llc.size_bytes);

        // Extreme slicing clamps to one set and one outstanding miss but
        // must stay constructible.
        let tiny = base.llc_slice(1 << 30);
        assert_eq!(tiny.llc.size_bytes, base.llc.ways * base.llc.line_bytes);
        assert_eq!(tiny.max_outstanding, 1);
        let _ = MemSystem::new(tiny);
    }
}
