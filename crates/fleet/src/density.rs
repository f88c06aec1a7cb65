//! Field-number usage density analysis (§3.7, Figure 7).

use protoacc_schema::density::{density_bucket, favors_sparse_hasbits, DENSITY_BUCKETS};

use crate::protobufz::MessageSample;

/// Figure 7: histogram of observed messages per density bucket (21 buckets,
/// 0.00..1.00 in 0.05 steps), normalized.
pub fn density_histogram(samples: &[MessageSample]) -> [f64; DENSITY_BUCKETS] {
    let mut counts = [0u64; DENSITY_BUCKETS];
    for s in samples {
        counts[density_bucket(s.density())] += 1;
    }
    let total: u64 = counts.iter().sum();
    let mut out = [0.0; DENSITY_BUCKETS];
    if total == 0 {
        return out;
    }
    for (o, &c) in out.iter_mut().zip(counts.iter()) {
        *o = c as f64 / total as f64;
    }
    out
}

/// Fraction of messages whose density exceeds the 1/64 crossover — the
/// population for which protoacc's fixed per-type ADTs + sparse hasbits beat
/// prior work's per-instance tables (≥92% fleet-wide in the paper).
pub fn fraction_favoring_protoacc(samples: &[MessageSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let favoring = samples
        .iter()
        .filter(|s| favors_sparse_hasbits(s.density()))
        .count();
    favoring as f64 / samples.len() as f64
}

/// Aggregate §3.7 table-state comparison over a population: total bits prior
/// work writes vs bits protoacc reads.
pub fn aggregate_interface_cost(samples: &[MessageSample]) -> (u64, u64) {
    let mut prior = 0u64;
    let mut ours = 0u64;
    for s in samples {
        let cost = protoacc_runtime::hasbits::interface_cost(
            u64::from(s.present_fields),
            u64::from(s.field_number_span),
        );
        prior += cost.prior_work_bits;
        ours += cost.protoacc_bits;
    }
    (prior, ours)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protobufz::ShapeModel;
    use xrand::StdRng;

    fn population() -> Vec<MessageSample> {
        let model = ShapeModel::google_2021();
        let mut rng = StdRng::seed_from_u64(77);
        model.sample_population(&mut rng, 20_000)
    }

    #[test]
    fn histogram_normalizes() {
        let hist = density_histogram(&population());
        let total: f64 = hist.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fleet_favors_protoacc_design() {
        // §3.7: at least 92% of observed messages have density > 1/64.
        let fraction = fraction_favoring_protoacc(&population());
        assert!(fraction >= 0.92, "fraction {fraction}");
    }

    #[test]
    fn aggregate_cost_favors_protoacc() {
        let (prior, ours) = aggregate_interface_cost(&population());
        assert!(
            prior > ours,
            "prior work writes {prior} bits vs protoacc reads {ours}"
        );
    }

    #[test]
    fn empty_population_is_safe() {
        assert_eq!(fraction_favoring_protoacc(&[]), 0.0);
        let hist = density_histogram(&[]);
        assert!(hist.iter().all(|&x| x == 0.0));
    }
}
