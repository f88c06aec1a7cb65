//! Parallel sharded simulation with a deterministic merge.
//!
//! The serve-layer studies (tail-latency sweeps, fault campaigns, RPC
//! saturation grids) decompose into *shards*: independent cells that share
//! nothing at simulation time — each one owns a private memory system (its
//! slice of the LLC, see `MemConfig::llc_slice`), a private
//! [`ServeCluster`], and an independently seeded traffic stream
//! (`TrafficMix::shard_streams`). Because shards are independent, they can
//! simulate on worker threads; because the *decomposition* is fixed up
//! front and the *merge* folds results in shard-index order, the combined
//! report is bit-identical no matter how many workers ran it. One worker
//! is the sequential engine; N workers are just a faster schedule of the
//! same pure functions.
//!
//! Concretely, the determinism contract is:
//!
//! * shard construction happens inside [`run_indexed`]'s per-task closure,
//!   from `Sync` inputs only — nothing time-, thread-, or order-dependent
//!   flows in;
//! * results land in an index-addressed slot table, so completion order
//!   (which *is* scheduling-dependent) never influences merge order;
//! * [`ShardedCluster`] folds `AccelStats`, latency sets, status counts,
//!   and trace logs in shard-index order, and its
//!   [`fingerprint`](ShardedCluster::fingerprint) is the canonical text
//!   the equivalence gates compare across worker counts.
//!
//! The serve cluster itself is deliberately *not* `Send` (its tracer is an
//! `Rc<RefCell<_>>` by design — tracing must stay zero-cost and
//! single-threaded within a shard), which is why the API hands the worker
//! a closure to build the whole shard in-thread rather than moving
//! clusters across threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use protoacc_mem::{Cycles, Memory, RequesterStats};
use protoacc_trace::TraceEvent;

use crate::serve::{CommandRecord, ServeCluster};
use crate::stats::AccelStats;

/// Runs `run(i, &tasks[i])` for every task and returns the results in task
/// order, executing on up to `workers` scoped threads.
///
/// Work is claimed from an atomic cursor (so stragglers don't serialize
/// the tail) and every result is written to its task's own slot, which
/// makes the output a pure function of `(tasks, run)` — worker count and
/// scheduling affect wall-clock only. `workers <= 1`, or a single task,
/// runs inline on the caller's thread: that path *is* the sequential
/// reference the parallel path must match bit-for-bit.
///
/// # Panics
///
/// Propagates a panic from any task (the scope joins all workers first).
pub fn run_indexed<T, R, F>(tasks: &[T], workers: usize, run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = tasks.len();
    let w = workers.max(1).min(n);
    if w <= 1 {
        return tasks.iter().enumerate().map(|(i, t)| run(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..w {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = run(i, &tasks[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every task produced a result")
        })
        .collect()
}

/// Everything one shard's simulation produced, captured *inside* the
/// worker thread (the cluster and memory system stay thread-local; only
/// this plain data crosses back).
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// This shard's index in the fixed decomposition.
    pub shard: usize,
    /// Completed command records, in the shard's completion order.
    pub records: Vec<CommandRecord>,
    /// Per-instance accelerator stats, indexed by shard-local instance id.
    pub instance_stats: Vec<AccelStats>,
    /// Per-instance memory-system attribution (the shard's private slice).
    pub mem_stats: Vec<RequesterStats>,
    /// Requests offered to this shard.
    pub offered: u64,
    /// Requests shed on queue-full.
    pub dropped: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Retry attempts consumed.
    pub retries: u64,
    /// Shard-local throughput over its service window.
    pub gbits: f64,
    /// Shard-local ids of quarantined instances.
    pub quarantined: Vec<usize>,
    /// Queue-accounting invariant verdict for this shard.
    pub invariants: Result<(), String>,
    /// Trace events in shard-local id/timestamp space (empty when no
    /// tracer was attached).
    pub events: Vec<TraceEvent>,
}

impl ShardOutcome {
    /// Captures a finished cluster run as plain `Send` data. `events` is
    /// the drained shard-local trace log (pass an empty vec when untraced).
    #[must_use]
    pub fn capture(
        shard: usize,
        cluster: &ServeCluster,
        mem: &Memory,
        events: Vec<TraceEvent>,
    ) -> Self {
        let instances = cluster.config().instances;
        ShardOutcome {
            shard,
            records: cluster.records().to_vec(),
            instance_stats: (0..instances).map(|i| cluster.instance_stats(i)).collect(),
            mem_stats: (0..instances)
                .map(|i| cluster.instance_mem_stats(mem, i))
                .collect(),
            offered: cluster.offered(),
            dropped: cluster.dropped(),
            shed: cluster.shed(),
            retries: cluster.retries(),
            gbits: cluster.throughput_gbits(),
            quarantined: cluster.quarantined_instances(),
            invariants: cluster.check_invariants(),
            events,
        }
    }

    /// Shard-local instance count (the width of the id spaces to retag).
    #[must_use]
    pub fn instances(&self) -> usize {
        self.instance_stats.len()
    }

    /// Total service cycles over this shard's completed records.
    #[must_use]
    pub fn service_cycles(&self) -> Cycles {
        self.records.iter().map(|r| r.service).sum()
    }

    /// Commands with a definitive response, as [`ServeCluster::served`]
    /// counts them.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.records.iter().filter(|r| r.status.is_served()).count() as u64
    }

    /// Wire bytes moved by this shard's completed commands.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.wire_bytes).sum()
    }
}

/// A completed sharded run: the fixed-order shard outcomes plus the
/// deterministic merge over them.
///
/// Construction runs the decomposition; every accessor folds in
/// shard-index order, so two `ShardedCluster`s over the same cells agree
/// bit-for-bit regardless of worker count.
#[derive(Debug)]
pub struct ShardedCluster {
    outcomes: Vec<ShardOutcome>,
}

impl ShardedCluster {
    /// Simulates `cells` on up to `workers` threads. `run_cell` builds and
    /// runs one shard end-to-end (memory system, cluster, traffic) and
    /// must be a pure function of `(index, cell)` — everything else about
    /// the engine's determinism follows from that.
    pub fn run<T, F>(cells: &[T], workers: usize, run_cell: F) -> Self
    where
        T: Sync,
        F: Fn(usize, &T) -> ShardOutcome + Sync,
    {
        let outcomes = run_indexed(cells, workers, |i, cell| {
            let out = run_cell(i, cell);
            assert_eq!(out.shard, i, "shard outcome tagged with the wrong index");
            out
        });
        ShardedCluster { outcomes }
    }

    /// Per-shard outcomes, in shard-index order.
    #[must_use]
    pub fn outcomes(&self) -> &[ShardOutcome] {
        &self.outcomes
    }

    /// All per-instance stats folded into one block, shards in index
    /// order, instances in id order within each shard. Saturation is
    /// sticky across the fold, exactly as in a sequential multi-instance
    /// merge.
    #[must_use]
    pub fn merged_stats(&self) -> AccelStats {
        let mut total = AccelStats::default();
        for out in &self.outcomes {
            for s in &out.instance_stats {
                total.merge(s);
            }
        }
        total
    }

    /// Total requests offered across shards.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.outcomes.iter().map(|o| o.offered).sum()
    }

    /// Total queue-full drops across shards.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.outcomes.iter().map(|o| o.dropped).sum()
    }

    /// Total admission sheds across shards.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.outcomes.iter().map(|o| o.shed).sum()
    }

    /// Total retry attempts across shards.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.outcomes.iter().map(|o| o.retries).sum()
    }

    /// Total served commands across shards.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.outcomes.iter().map(ShardOutcome::served).sum()
    }

    /// Total completed records across shards.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.outcomes.iter().map(|o| o.records.len()).sum()
    }

    /// `(ok, fallback, rejected, failed, shed)` over every shard's records.
    #[must_use]
    pub fn status_counts(&self) -> (u64, u64, u64, u64, u64) {
        crate::serve::status_counts(self.outcomes.iter().flat_map(|o| &o.records))
    }

    /// Sum of per-shard throughputs. Shards are independent machines with
    /// independent clocks, so aggregate capacity adds (this is the number
    /// that scales with the shard count; per-shard tails do not).
    #[must_use]
    pub fn aggregate_gbits(&self) -> f64 {
        self.outcomes.iter().map(|o| o.gbits).sum()
    }

    /// Nearest-rank percentile over the merged latency set, every
    /// completed command's latency across shards, under the same shared
    /// rank rule as `ServeCluster::latency_percentile` (NaN and
    /// out-of-range `p` clamp). Identical to what a sequential engine over
    /// the same cells would report: the percentile of a fixed multiset does
    /// not depend on its order, and the decomposition fixes the multiset.
    /// Returns 0 if nothing completed.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Cycles {
        let latencies: Vec<Cycles> = self
            .outcomes
            .iter()
            .flat_map(|o| o.records.iter().map(CommandRecord::latency))
            .collect();
        protoacc_trace::metrics::exact_percentile(&latencies, p)
    }

    /// First invariant violation across shards (tagged with its shard), or
    /// `Ok` when every shard's queue accounting held.
    pub fn check_invariants(&self) -> Result<(), String> {
        for out in &self.outcomes {
            if let Err(e) = &out.invariants {
                return Err(format!("shard {}: {e}", out.shard));
            }
        }
        Ok(())
    }

    /// Tags mapping each shard's id spaces into the stitched global log:
    /// cumulative instance counts, requester spaces (instances + the CPU
    /// fallback slot), and offered-command seq ranges.
    #[must_use]
    pub fn shard_tags(&self) -> Vec<protoacc_trace::ShardTags> {
        let mut tags = Vec::with_capacity(self.outcomes.len());
        let (mut inst, mut req, mut seq) = (0usize, 0usize, 0usize);
        for out in &self.outcomes {
            tags.push(protoacc_trace::ShardTags {
                instance: inst,
                requester: req,
                seq,
                conn: 0,
            });
            inst += out.instances();
            req += out.instances() + 1;
            seq += usize::try_from(out.offered).expect("offered fits usize");
        }
        tags
    }

    /// One global trace log: every shard's events retagged into disjoint
    /// id ranges and merged monotonically in shard-index order. Feed it to
    /// `protoacc_trace::audit` with [`expected_stats`](Self::expected_stats).
    #[must_use]
    pub fn stitched_events(&self) -> Vec<TraceEvent> {
        let tags = self.shard_tags();
        let retagged: Vec<Vec<TraceEvent>> = self
            .outcomes
            .iter()
            .zip(tags)
            .map(|(out, tag)| {
                let mut events = out.events.clone();
                protoacc_trace::retag(&mut events, tag);
                events
            })
            .collect();
        protoacc_trace::stitch(&retagged)
    }

    /// Per-instance expected stats in the stitched log's global id space,
    /// for the cross-shard accounting audit.
    #[must_use]
    pub fn expected_stats(&self) -> Vec<protoacc_trace::ExpectedStats> {
        let tags = self.shard_tags();
        self.outcomes
            .iter()
            .zip(tags)
            .flat_map(|(out, tag)| {
                out.instance_stats.iter().enumerate().map(move |(i, s)| {
                    protoacc_trace::ExpectedStats {
                        instance: tag.instance + i,
                        deser_ops: s.deser_ops,
                        deser_cycles: s.deser_cycles,
                        ser_ops: s.ser_ops,
                        ser_cycles: s.ser_cycles,
                        saturated: s.saturated,
                    }
                })
            })
            .collect()
    }

    /// Canonical textual form of everything the merge produces: per-shard
    /// counters, service cycles and per-instance memory attribution in
    /// shard order, then the merged stats block, percentile set, and
    /// status counts. Two runs of the same decomposition must
    /// produce identical fingerprints at *any* worker count — this is the
    /// string the sequential-vs-sharded equivalence gates compare.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for o in &self.outcomes {
            let _ = write!(
                out,
                "shard{}[completed={} offered={} dropped={} shed={} retries={} served={} \
                 bytes={} gbits={:.6} quarantined={:?} service={} mem={:?}] ",
                o.shard,
                o.records.len(),
                o.offered,
                o.dropped,
                o.shed,
                o.retries,
                o.served(),
                o.wire_bytes(),
                o.gbits,
                o.quarantined,
                o.service_cycles(),
                o.mem_stats,
            );
        }
        let stats = self.merged_stats();
        let (ok, fb, rej, failed, shed) = self.status_counts();
        let _ = write!(
            out,
            "merged[stats={stats:?} status=({ok},{fb},{rej},{failed},{shed}) p50={} p95={} p99={} p999={} agg_gbits={:.6}]",
            self.latency_percentile(50.0),
            self.latency_percentile(95.0),
            self.latency_percentile(99.0),
            self.latency_percentile(99.9),
            self.aggregate_gbits(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_is_order_deterministic_at_any_worker_count() {
        let tasks: Vec<u64> = (0..37).collect();
        let f = |i: usize, t: &u64| (i as u64) * 1000 + *t * 3;
        let sequential = run_indexed(&tasks, 1, f);
        for workers in [2, 4, 8, 64] {
            assert_eq!(run_indexed(&tasks, workers, f), sequential);
        }
        // Degenerate inputs.
        assert_eq!(run_indexed::<u64, u64, _>(&[], 4, |_, t| *t), Vec::new());
        assert_eq!(run_indexed(&[9u64], 8, |_, t| *t), vec![9]);
    }

    #[test]
    fn run_indexed_propagates_worker_panics() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(&[0u64, 1, 2, 3], 2, |i, _| {
                assert!(i != 2, "boom");
                i
            })
        });
        assert!(result.is_err());
    }
}
