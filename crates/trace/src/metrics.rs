//! Counter / histogram metrics registry with log-2 latency buckets.
//!
//! Histograms bucket a `u64` value by its bit length: bucket 0 holds the
//! value 0, bucket `i >= 1` holds values in `[2^(i-1), 2^i - 1]`. With 65
//! buckets the full `u64` range is covered. Percentiles use the same
//! [`nearest_rank`](crate::nearest_rank) rule as the serve layer's exact
//! path, so the two can never disagree by more than the width of one
//! bucket — a property the crate's tests pin down.

use std::collections::BTreeMap;

use crate::{nearest_rank, Cycles, TraceEvent, FALLBACK_TRACK};

/// Number of log-2 buckets: one for zero plus one per `u64` bit length.
pub const BUCKETS: usize = 65;

/// Log-2-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index of a value: 0 for 0, otherwise the value's bit length.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (the histogram's representative value
/// for samples that landed there).
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (widened, so it cannot saturate).
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Nearest-rank percentile resolved to the containing bucket's upper
    /// bound. Uses the exact same rank rule as
    /// `ServeCluster::latency_percentile`, so the bucket this walks to is
    /// the bucket the exact percentile value lives in — including for
    /// degenerate `p`: NaN clamps to the minimum and out-of-range `p`
    /// clamps to `[0, 100]`, on both paths, never a panic or an
    /// out-of-bounds rank.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank(p, self.count as usize) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }
}

/// Named counters and histograms with deterministic (sorted) iteration.
///
/// Label convention: metric names carry their labels inline, e.g.
/// `deser_op_cycles{instance=0}` or `service_cycles{type=bench3}`. The
/// [`MetricsRegistry::observe_labeled`] helper builds these names.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the named counter.
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Records a sample into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Records a sample into `base{label}`.
    pub fn observe_labeled(&mut self, base: &str, label: &str, value: u64) {
        self.observe(&format!("{base}{{{label}}}"), value);
    }

    /// Current value of a counter (0 if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any samples were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Aggregates a full event stream into per-instance counters and
    /// histograms — the standard rollup used by the profile reporter.
    #[must_use]
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut reg = MetricsRegistry::new();
        let inst = |i: usize| -> String {
            if i == FALLBACK_TRACK {
                "instance=cpu".to_string()
            } else {
                format!("instance={i}")
            }
        };
        for e in events {
            match e {
                TraceEvent::CmdEnqueue { .. } => reg.inc("cmd_enqueued", 1),
                TraceEvent::CmdDrop { .. } => reg.inc("cmd_dropped", 1),
                TraceEvent::CmdShed { .. } => reg.inc("cmd_shed", 1),
                TraceEvent::FrameDecode { ok, .. } => {
                    reg.inc("frames_decoded", 1);
                    if !ok {
                        reg.inc("frames_rejected", 1);
                    }
                }
                TraceEvent::CmdDispatch { .. } => reg.inc("cmd_dispatched", 1),
                TraceEvent::CmdRetry { .. } => reg.inc("cmd_retried", 1),
                TraceEvent::CmdFallback { .. } => reg.inc("cmd_fallback", 1),
                TraceEvent::CmdComplete {
                    enqueue,
                    complete,
                    service,
                    instance,
                    ..
                } => {
                    reg.inc("cmd_completed", 1);
                    reg.observe("cmd_latency_cycles", complete - enqueue);
                    reg.observe_labeled("cmd_service_cycles", &inst(*instance), *service);
                }
                TraceEvent::DeserOp {
                    instance,
                    cycles,
                    fsm_cycles,
                    stream_cycles,
                    wire_bytes,
                    fields,
                    ..
                } => {
                    let l = inst(*instance);
                    reg.observe_labeled("deser_op_cycles", &l, *cycles);
                    reg.observe_labeled("deser_fsm_cycles", &l, *fsm_cycles);
                    reg.observe_labeled("deser_stream_cycles", &l, *stream_cycles);
                    reg.inc("deser_wire_bytes", *wire_bytes);
                    reg.inc("deser_fields", *fields);
                }
                TraceEvent::SerOp {
                    instance,
                    cycles,
                    frontend_cycles,
                    fsu_cycles,
                    memwriter_cycles,
                    out_len,
                    fields,
                    ..
                } => {
                    let l = inst(*instance);
                    reg.observe_labeled("ser_op_cycles", &l, *cycles);
                    reg.observe_labeled("ser_frontend_cycles", &l, *frontend_cycles);
                    reg.observe_labeled("ser_fsu_cycles", &l, *fsu_cycles);
                    reg.observe_labeled("ser_memwriter_cycles", &l, *memwriter_cycles);
                    reg.inc("ser_out_bytes", *out_len);
                    reg.inc("ser_fields", *fields);
                }
                TraceEvent::MemloaderStream { bytes, windows, .. } => {
                    reg.inc("memloader_bytes", *bytes);
                    reg.inc("memloader_windows", *windows);
                }
                TraceEvent::FsmTransition { state, .. } => {
                    reg.inc(&format!("fsm_{}", state.label()), 1);
                }
                TraceEvent::Field { cycles, .. } => reg.observe("field_cycles", *cycles),
                TraceEvent::AdtAccess { unit, hit, .. } => {
                    let which = if *hit { "hits" } else { "misses" };
                    reg.inc(&format!("adt_{}_{which}", unit.label()), 1);
                }
                TraceEvent::FsuOp { unit, cycles, .. } => {
                    reg.inc(&format!("fsu_ops{{unit={unit}}}"), 1);
                    reg.observe_labeled("fsu_cycles", &format!("unit={unit}"), *cycles);
                }
                TraceEvent::MemwriterFlush { cycles, bytes, .. } => {
                    reg.inc("memwriter_bytes", *bytes);
                    reg.observe("memwriter_cycles", *cycles);
                }
                TraceEvent::MemAccess {
                    cycles,
                    len,
                    tlb_walk_cycles,
                    l1_hits,
                    l2_hits,
                    llc_hits,
                    dram_accesses,
                    ..
                } => {
                    reg.inc("mem_accesses", 1);
                    reg.inc("mem_bytes", *len);
                    reg.inc("mem_tlb_walk_cycles", *tlb_walk_cycles);
                    reg.inc("mem_l1_hits", *l1_hits);
                    reg.inc("mem_l2_hits", *l2_hits);
                    reg.inc("mem_llc_hits", *llc_hits);
                    reg.inc("mem_dram_accesses", *dram_accesses);
                    reg.observe("mem_access_cycles", *cycles);
                }
            }
        }
        reg
    }
}

/// Exact nearest-rank percentile over an unsorted sample set: the serve
/// cluster's, the sharded engine's and the serving studies' latency
/// percentiles, and the reference the histogram path is validated against
/// in tests. Returns 0 for no samples. Shares
/// [`nearest_rank`]'s clamping: NaN resolves to the minimum sample and `p`
/// outside `[0, 100]` clamps to the nearest bound.
#[must_use]
pub fn exact_percentile(samples: &[Cycles], p: f64) -> Cycles {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[nearest_rank(p, sorted.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::{Rng, StdRng};

    #[test]
    fn bucket_index_covers_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 4, 5, 1023, 1024, u64::MAX - 1, u64::MAX] {
            let b = bucket_index(v);
            assert!(v <= bucket_upper_bound(b));
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1));
            }
        }
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), 0);
        for v in [7u64, 0, 300, 12] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 319);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 300);
        assert!((h.mean() - 79.75).abs() < 1e-9);
    }

    /// The satellite property test: for random sample sets and random
    /// percentiles, the registry's histogram percentile and the exact
    /// nearest-rank percentile agree within one log-2 bucket (in fact they
    /// land in the *same* bucket, because both use `nearest_rank`).
    #[test]
    fn histogram_percentile_matches_exact_within_one_bucket() {
        let mut rng = StdRng::seed_from_u64(0x9E7C_E11E);
        for case in 0..200 {
            let n = rng.gen_range(1usize..400);
            let max_bits = rng.gen_range(1u32..40);
            let samples: Vec<u64> = (0..n)
                .map(|_| rng.gen_range(0..(1u64 << max_bits)))
                .collect();
            let mut h = Histogram::new();
            for &s in &samples {
                h.observe(s);
            }
            for p in [
                0.0,
                25.0,
                50.0,
                90.0,
                95.0,
                99.0,
                100.0,
                f64::from(rng.gen_range(0u32..101)),
                // Degenerate percentiles: both paths must clamp (never
                // panic or index out of range) and keep agreeing.
                f64::NAN,
                -3.0,
                250.0,
                f64::NEG_INFINITY,
                f64::INFINITY,
            ] {
                let exact = exact_percentile(&samples, p);
                let approx = h.percentile(p);
                assert_eq!(
                    bucket_index(exact),
                    bucket_index(approx),
                    "case {case}: p{p} exact {exact} vs histogram {approx} landed in different buckets"
                );
                assert!(approx >= exact, "bucket upper bound bounds the exact value");
            }
        }
    }

    #[test]
    fn degenerate_percentiles_clamp_identically_on_both_paths() {
        let samples: Vec<u64> = vec![10, 20, 30, 40, 50];
        let mut h = Histogram::new();
        for &s in &samples {
            h.observe(s);
        }
        // NaN and anything below 0 resolve to the minimum sample's bucket;
        // anything above 100 resolves to the maximum's.
        for p in [f64::NAN, -1.0, -1e18, f64::NEG_INFINITY, 0.0] {
            assert_eq!(exact_percentile(&samples, p), 10, "p={p}");
            assert_eq!(h.percentile(p), h.percentile(0.0), "p={p}");
        }
        for p in [100.0, 101.0, 1e18, f64::INFINITY] {
            assert_eq!(exact_percentile(&samples, p), 50, "p={p}");
            assert_eq!(h.percentile(p), h.percentile(100.0), "p={p}");
        }
        // Empty inputs short-circuit to 0 for any p, NaN included.
        assert_eq!(exact_percentile(&[], f64::NAN), 0);
        assert_eq!(Histogram::new().percentile(f64::NAN), 0);
    }

    #[test]
    fn registry_aggregates_and_iterates_deterministically() {
        let mut reg = MetricsRegistry::new();
        reg.inc("b", 2);
        reg.inc("a", 1);
        reg.inc("b", 3);
        reg.observe_labeled("lat", "instance=1", 9);
        let names: Vec<&str> = reg.counters().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(reg.counter("b"), 5);
        assert_eq!(reg.counter("missing"), 0);
        assert_eq!(reg.histogram("lat{instance=1}").unwrap().count(), 1);
    }

    #[test]
    fn from_events_rolls_up_ops_per_instance() {
        let events = vec![
            TraceEvent::DeserOp {
                instance: 0,
                start: 0,
                cycles: 100,
                fsm_cycles: 80,
                stream_cycles: 100,
                wire_bytes: 64,
                fields: 5,
            },
            TraceEvent::SerOp {
                instance: 1,
                start: 50,
                cycles: 90,
                frontend_cycles: 40,
                fsu_cycles: 90,
                memwriter_cycles: 30,
                out_len: 48,
                fields: 4,
            },
            TraceEvent::AdtAccess {
                instance: 0,
                at: 3,
                unit: crate::AdtUnit::Deser,
                hit: false,
                cycles: 20,
            },
        ];
        let reg = MetricsRegistry::from_events(&events);
        assert_eq!(
            reg.histogram("deser_op_cycles{instance=0}")
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            reg.histogram("ser_op_cycles{instance=1}").unwrap().count(),
            1
        );
        assert_eq!(reg.counter("adt_deser_misses"), 1);
        assert_eq!(reg.counter("deser_wire_bytes"), 64);
    }
}
