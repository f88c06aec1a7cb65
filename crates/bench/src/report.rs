//! Result aggregation and formatting.

use crate::{Measurement, SystemKind};

/// Geometric mean of a set of positive values; 0 if empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Formats a Figure 11/12/13-style table: one row per benchmark, one column
/// per system, in Gbits/s, followed by a geomean row. Each row holds one
/// measurement per system, in [`SystemKind::ALL`] order.
pub fn format_gbits_table(rows: &[(String, Vec<Measurement>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<22}", "Benchmark"));
    for system in SystemKind::ALL {
        out.push_str(&format!("{:>18}", system.label()));
    }
    out.push('\n');
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); SystemKind::ALL.len()];
    for (name, measurements) in rows {
        out.push_str(&format!("{name:<22}"));
        assert_eq!(measurements.len(), SystemKind::ALL.len(), "{name}");
        for (column, m) in columns.iter_mut().zip(measurements) {
            column.push(m.gbits);
            out.push_str(&format!("{:>18.3}", m.gbits));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<22}", "geomean"));
    for column in &columns {
        out.push_str(&format!("{:>18.3}", geomean(column)));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn table_contains_all_systems_and_geomean() {
        let m = Measurement {
            cycles: 100,
            wire_bytes: 100,
            gbits: 5.0,
        };
        let rows = vec![("w1".to_owned(), vec![m; SystemKind::ALL.len()])];
        let table = format_gbits_table(&rows);
        assert!(table.contains("riscv-boom-accel"));
        assert!(table.contains("geomean"));
        assert!(table.contains("5.000"));
    }
}
