//! Accounting audit and aggregating profile reporter.
//!
//! The audit is the crate's correctness anchor: [`TraceEvent::DeserOp`] /
//! [`TraceEvent::SerOp`] spans are emitted at the exact code points where
//! `AccelStats::{deser,ser}_cycles` are accumulated, so for every
//! instance the traced span sums must equal the reported counters — not
//! approximately, *exactly*. [`audit`] checks that, plus span hygiene on
//! the command lifecycle (every admitted command reaches exactly one
//! terminal event; no span is leaked by a mid-stream fault).

use crate::{MetricsRegistry, TraceEvent, FALLBACK_TRACK};

/// Per-instance `AccelStats` image the audit checks traced spans against.
/// Mirrors the fields of `protoacc::AccelStats` the tracing layer
/// shadows, without depending on the core crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpectedStats {
    /// Accelerator instance id.
    pub instance: usize,
    /// `AccelStats::deser_ops`.
    pub deser_ops: u64,
    /// `AccelStats::deser_cycles`.
    pub deser_cycles: u64,
    /// `AccelStats::ser_ops`.
    pub ser_ops: u64,
    /// `AccelStats::ser_cycles`.
    pub ser_cycles: u64,
    /// `AccelStats::saturated` — the stats counters overflowed and
    /// clamped somewhere, so cycle totals are a lower bound and the audit
    /// cannot demand exact equality.
    pub saturated: bool,
}

/// Audit outcome for one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceAudit {
    /// Accelerator instance id.
    pub instance: usize,
    /// Deser ops traced / expected.
    pub deser_ops: (u64, u64),
    /// Deser cycles traced / expected.
    pub deser_cycles: (u64, u64),
    /// Ser ops traced / expected.
    pub ser_ops: (u64, u64),
    /// Ser cycles traced / expected.
    pub ser_cycles: (u64, u64),
    /// Whether every pair matched.
    pub ok: bool,
}

/// Result of [`audit`].
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// One entry per expected instance, in input order.
    pub per_instance: Vec<InstanceAudit>,
    /// Sequence numbers admitted (enqueued) but never resolved by a
    /// `CmdComplete` — leaked spans.
    pub leaked: Vec<usize>,
    /// Sequence numbers that resolved more than once.
    pub duplicated: Vec<usize>,
    /// Human-readable problems found (empty when `ok`).
    pub problems: Vec<String>,
}

impl AuditReport {
    /// `true` when every check passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Cross-checks a traced event stream against the per-instance
/// `AccelStats` image: traced `DeserOp`/`SerOp` spans must sum exactly to
/// the reported op and cycle counters, and the command lifecycle must be
/// closed (every enqueue reaches exactly one terminal `CmdComplete` or was
/// explicitly dropped).
///
/// A saturated stats image is an audit problem: saturation means the
/// counters silently clamped and any downstream report is untrustworthy.
/// A traced cycle sum that overflows `u64` (only a crafted trace has one)
/// clamps and is reported as a problem too.
#[must_use]
pub fn audit(events: &[TraceEvent], expected: &[ExpectedStats]) -> AuditReport {
    let mut report = AuditReport::default();
    for exp in expected {
        if exp.saturated {
            report.problems.push(format!(
                "instance {}: AccelStats saturated — counters clamped, totals untrustworthy",
                exp.instance
            ));
        }
        let mut traced = ExpectedStats {
            instance: exp.instance,
            ..ExpectedStats::default()
        };
        for e in events {
            match e {
                TraceEvent::DeserOp {
                    instance, cycles, ..
                } if *instance == exp.instance => {
                    traced.deser_ops += 1;
                    add_cycles(&mut traced.deser_cycles, *cycles, &mut traced.saturated);
                }
                TraceEvent::SerOp {
                    instance, cycles, ..
                } if *instance == exp.instance => {
                    traced.ser_ops += 1;
                    add_cycles(&mut traced.ser_cycles, *cycles, &mut traced.saturated);
                }
                _ => {}
            }
        }
        if traced.saturated {
            report.problems.push(format!(
                "instance {}: traced op cycles overflow u64 — sums clamped, trace untrustworthy",
                exp.instance
            ));
        }
        let ia = InstanceAudit {
            instance: exp.instance,
            deser_ops: (traced.deser_ops, exp.deser_ops),
            deser_cycles: (traced.deser_cycles, exp.deser_cycles),
            ser_ops: (traced.ser_ops, exp.ser_ops),
            ser_cycles: (traced.ser_cycles, exp.ser_cycles),
            ok: traced.deser_ops == exp.deser_ops
                && traced.deser_cycles == exp.deser_cycles
                && traced.ser_ops == exp.ser_ops
                && traced.ser_cycles == exp.ser_cycles,
        };
        if !ia.ok {
            report.problems.push(format!(
                "instance {}: traced deser {}/{} cyc (expected {}/{} cyc), traced ser {}/{} cyc (expected {}/{} cyc)",
                ia.instance,
                ia.deser_ops.0,
                ia.deser_cycles.0,
                ia.deser_ops.1,
                ia.deser_cycles.1,
                ia.ser_ops.0,
                ia.ser_cycles.0,
                ia.ser_ops.1,
                ia.ser_cycles.1,
            ));
        }
        report.per_instance.push(ia);
    }

    // Span hygiene on the command lifecycle: every admitted seq must reach
    // exactly one CmdComplete. Dropped seqs are terminal at the drop.
    let mut open: Vec<usize> = Vec::new();
    let mut closed: Vec<usize> = Vec::new();
    for e in events {
        match e {
            TraceEvent::CmdEnqueue { seq, .. } => open.push(*seq),
            TraceEvent::CmdDrop { seq, .. } => closed.push(*seq),
            TraceEvent::CmdComplete { seq, .. } => closed.push(*seq),
            _ => {}
        }
    }
    closed.sort_unstable();
    for w in closed.windows(2) {
        if w[0] == w[1] {
            report.duplicated.push(w[0]);
        }
    }
    for seq in open {
        if closed.binary_search(&seq).is_err() {
            report.leaked.push(seq);
        }
    }
    if !report.leaked.is_empty() {
        report.problems.push(format!(
            "leaked command spans (no terminal event): {:?}",
            report.leaked
        ));
    }
    if !report.duplicated.is_empty() {
        report.problems.push(format!(
            "commands resolved more than once: {:?}",
            report.duplicated
        ));
    }
    report
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Renders the aggregating profile report: a per-instance cycle breakdown
/// (deser FSM vs memloader, ser frontend vs FSU vs memwriter), ADT-cache
/// and memory-level rollups, and the accounting-audit verdict. `label`
/// names the workload (e.g. a hyperbench service).
#[must_use]
pub fn render_profile(label: &str, events: &[TraceEvent], expected: &[ExpectedStats]) -> String {
    use std::fmt::Write as _;
    let reg = MetricsRegistry::from_events(events);
    let rep = audit(events, expected);
    let mut out = String::new();
    let _ = writeln!(out, "profile: {label}");
    let _ = writeln!(
        out,
        "  {:<10} {:>7} {:>12} {:>12} {:>12} {:>7} {:>12} {:>12} {:>12} {:>12}  audit",
        "instance",
        "dops",
        "deser_cyc",
        "fsm_cyc",
        "stream_cyc",
        "sops",
        "ser_cyc",
        "frontend",
        "fsu",
        "memwriter"
    );
    for ia in &rep.per_instance {
        let inst_label = if ia.instance == FALLBACK_TRACK {
            "cpu".to_string()
        } else {
            format!("instance={}", ia.instance)
        };
        let hist = |name: &str| -> u128 {
            reg.histogram(&format!("{name}{{{inst_label}}}"))
                .map_or(0, crate::Histogram::sum)
        };
        let _ = writeln!(
            out,
            "  {:<10} {:>7} {:>12} {:>12} {:>12} {:>7} {:>12} {:>12} {:>12} {:>12}  {}",
            if ia.instance == FALLBACK_TRACK {
                "cpu".to_string()
            } else {
                ia.instance.to_string()
            },
            ia.deser_ops.0,
            ia.deser_cycles.0,
            hist("deser_fsm_cycles"),
            hist("deser_stream_cycles"),
            ia.ser_ops.0,
            ia.ser_cycles.0,
            hist("ser_frontend_cycles"),
            hist("ser_fsu_cycles"),
            hist("ser_memwriter_cycles"),
            if ia.ok { "ok" } else { "MISMATCH" }
        );
    }
    let adt_hits = reg.counter("adt_deser_hits") + reg.counter("adt_ser_hits");
    let adt_misses = reg.counter("adt_deser_misses") + reg.counter("adt_ser_misses");
    let _ = writeln!(
        out,
        "  adt cache: {adt_hits} hits / {adt_misses} misses ({:.1}% hit)",
        pct(adt_hits, adt_hits + adt_misses)
    );
    let l1 = reg.counter("mem_l1_hits");
    let l2 = reg.counter("mem_l2_hits");
    let llc = reg.counter("mem_llc_hits");
    let dram = reg.counter("mem_dram_accesses");
    let lines = l1 + l2 + llc + dram;
    if lines > 0 {
        let _ = writeln!(
            out,
            "  memory: {} accesses, {} lines (L1 {:.1}% / L2 {:.1}% / LLC {:.1}% / DRAM {:.1}%), {} tlb-walk cycles",
            reg.counter("mem_accesses"),
            lines,
            pct(l1, lines),
            pct(l2, lines),
            pct(llc, lines),
            pct(dram, lines),
            reg.counter("mem_tlb_walk_cycles")
        );
    }
    if let Some(h) = reg.histogram("cmd_latency_cycles") {
        let _ = writeln!(
            out,
            "  latency (histogram): n={} p50<={} p95<={} p99<={} max={}",
            h.count(),
            h.percentile(50.0),
            h.percentile(95.0),
            h.percentile(99.0),
            h.max()
        );
    }
    let _ = writeln!(
        out,
        "  audit: {}",
        if rep.ok() {
            "traced spans sum exactly to AccelStats".to_string()
        } else {
            rep.problems.join("; ")
        }
    );
    out
}

/// Adds `cycles` to `sum`, clamping at `u64::MAX` and setting `saturated`
/// on a clamp: a crafted trace must not wrap its way to a passing audit.
fn add_cycles(sum: &mut u64, cycles: u64, saturated: &mut bool) {
    *sum = sum.checked_add(cycles).unwrap_or_else(|| {
        *saturated = true;
        u64::MAX
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CmdOutcome;

    fn op(instance: usize, cycles: u64, deser: bool) -> TraceEvent {
        if deser {
            TraceEvent::DeserOp {
                instance,
                start: 0,
                cycles,
                fsm_cycles: cycles / 2,
                stream_cycles: cycles,
                wire_bytes: 10,
                fields: 1,
            }
        } else {
            TraceEvent::SerOp {
                instance,
                start: 0,
                cycles,
                frontend_cycles: cycles / 2,
                fsu_cycles: cycles,
                memwriter_cycles: cycles / 3,
                out_len: 10,
                fields: 1,
            }
        }
    }

    #[test]
    fn audit_accepts_exact_sums() {
        let events = vec![op(0, 100, true), op(0, 50, true), op(0, 70, false)];
        let expected = vec![ExpectedStats {
            instance: 0,
            deser_ops: 2,
            deser_cycles: 150,
            ser_ops: 1,
            ser_cycles: 70,
            saturated: false,
        }];
        let rep = audit(&events, &expected);
        assert!(rep.ok(), "{:?}", rep.problems);
        assert!(rep.per_instance[0].ok);
    }

    #[test]
    fn audit_flags_cycle_mismatches() {
        let events = vec![op(1, 100, true)];
        let expected = vec![ExpectedStats {
            instance: 1,
            deser_ops: 1,
            deser_cycles: 101,
            ser_ops: 0,
            ser_cycles: 0,
            saturated: false,
        }];
        let rep = audit(&events, &expected);
        assert!(!rep.ok());
        assert!(!rep.per_instance[0].ok);
    }

    #[test]
    fn audit_flags_leaked_and_duplicated_commands() {
        let events = vec![
            TraceEvent::CmdEnqueue {
                seq: 0,
                at: 0,
                wire_bytes: 1,
                deser: true,
            },
            TraceEvent::CmdEnqueue {
                seq: 1,
                at: 1,
                wire_bytes: 1,
                deser: true,
            },
            TraceEvent::CmdComplete {
                seq: 1,
                enqueue: 1,
                dispatch: 2,
                complete: 3,
                service: 1,
                instance: 0,
                wire_bytes: 1,
                deser: true,
                sharers: 1,
                attempts: 1,
                outcome: CmdOutcome::Ok,
            },
        ];
        let rep = audit(&events, &[]);
        assert_eq!(rep.leaked, vec![0]);
        assert!(!rep.ok());
    }

    #[test]
    fn audit_flags_a_crafted_trace_whose_cycles_overflow() {
        let events = vec![op(0, u64::MAX, true), op(0, u64::MAX, true)];
        let exported = crate::chrome::export(&events, &[]);
        let parsed = crate::chrome::parse(&exported).unwrap();
        // Neither the clamped sum nor the wrapped one passes.
        for deser_cycles in [u64::MAX, u64::MAX - 1] {
            let expected = vec![ExpectedStats {
                instance: 0,
                deser_ops: 2,
                deser_cycles,
                ..ExpectedStats::default()
            }];
            let rep = audit(&parsed.events, &expected);
            assert!(!rep.ok());
            assert!(
                rep.problems.iter().any(|p| p.contains("overflow")),
                "{:?}",
                rep.problems
            );
        }
    }

    #[test]
    fn audit_flags_a_crafted_trace_whose_stats_image_is_saturated() {
        let events = vec![op(0, 100, true)];
        let expected = vec![ExpectedStats {
            instance: 0,
            deser_ops: 1,
            deser_cycles: 100,
            saturated: true,
            ..ExpectedStats::default()
        }];
        let exported = crate::chrome::export(&events, &expected);
        let parsed = crate::chrome::parse(&exported).unwrap();
        assert!(parsed.expected[0].saturated);
        let rep = audit(&parsed.events, &parsed.expected);
        assert!(!rep.ok());
        assert!(
            rep.problems.iter().any(|p| p.contains("saturated")),
            "{:?}",
            rep.problems
        );
    }

    #[test]
    fn profile_report_renders_and_carries_the_verdict() {
        let events = vec![op(0, 100, true), op(0, 60, false)];
        let expected = vec![ExpectedStats {
            instance: 0,
            deser_ops: 1,
            deser_cycles: 100,
            ser_ops: 1,
            ser_cycles: 60,
            saturated: false,
        }];
        let text = render_profile("unit-test", &events, &expected);
        assert!(text.contains("profile: unit-test"));
        assert!(text.contains("traced spans sum exactly to AccelStats"));
    }
}
