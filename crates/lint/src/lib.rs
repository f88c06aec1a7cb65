//! Static analyzer for the protoacc accelerator model.
//!
//! Walks parsed schemas ([`protoacc_schema::Schema`]) and the ADT layouts
//! derived from them ([`protoacc_runtime::MessageLayouts`]) and predicts how
//! the accelerator of *A Hardware Accelerator for Protocol Buffers*
//! (MICRO 2021) will behave on messages of each type — **without running the
//! simulator**. Every prediction is phrased as a structured [`Diagnostic`]
//! with a stable `PAxxx` code, and every message type gets a two-sided
//! cycle envelope from [`protoacc_absint::Envelope`], the workspace's one
//! static cost model: the behavioral model never runs below its floor or
//! above its ceiling.
//!
//! # Diagnostic codes
//!
//! | Code  | Name               | Hardware limit it guards                     |
//! |-------|--------------------|----------------------------------------------|
//! | PA001 | stack-spill        | sub-message metadata stacks (Section 3.8)    |
//! | PA002 | wide-key           | 2-byte field-key fast path                   |
//! | PA003 | sparse-hasbits     | dense-hasbits packing crossover (Section 3.7)|
//! | PA004 | software-fallback  | features the hardware punts to software      |
//! | PA005 | window-starve      | 16-byte memloader consumer window            |
//! | PA006 | adt-thrash         | accelerator ADT-entry cache                  |
//! | PA007 | envelope-violation | static `[lower, upper]` cycle envelope (dynamic, via `protoacc-absint`) |
//! | PA008 | lifecycle-order    | serve-model command happens-before (dynamic) |
//! | PA009 | arena-aliasing     | overlapping in-flight command buffers (dynamic) |
//! | PA010 | watchdog-budget    | static service ceiling vs the serve watchdog |
//! | PA011 | recursion-cycle    | message reference cycles with no depth bound |
//! | PA012 | wire-amplification | decoded-footprint / wire-byte ratio ceiling   |
//! | PA013 | field-fragmentation| sparse field-number spans (hasbits/dispatch) |
//! | PA014 | unpacked-repeated  | repeated scalars missing the packed fast path|
//! | PA015 | composed-envelope  | cross-message composed ceiling vs watchdog   |
//!
//! PA007–PA009 are *sanitizer* codes: they are never produced by
//! [`lint_schema`] itself but by replaying a serving-model trace through
//! [`protoacc_absint::sanitize`] and mapping the findings with
//! [`findings_to_diagnostics`], so dynamic violations flow through the same
//! severity/exit-code machinery as static findings.
//!
//! # Example
//!
//! ```rust
//! use protoacc_lint::{lint_schema, DiagCode, LintConfig};
//! use protoacc_schema::parse_proto;
//!
//! let schema = parse_proto(
//!     "message Deep { optional Deep next = 1; required uint64 id = 2; }",
//! )?;
//! let report = lint_schema(&schema, &LintConfig::default());
//! // Recursive type: unbounded nesting can spill the metadata stacks.
//! assert!(report.diagnostics.iter().any(|d| d.code == DiagCode::StackSpill));
//! # Ok::<(), protoacc_schema::SchemaError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{HashMap, VecDeque};
use std::fmt;

use protoacc::AccelConfig;
use protoacc_absint::{
    amplification_bound, composed_service_ceiling, Envelope, Finding, FindingKind, Interval,
};
use protoacc_fastpath::{CompiledSchema, TableKind};
use protoacc_mem::{Cycles, MemConfig};
use protoacc_runtime::{MessageLayouts, MessageValue};
use protoacc_schema::{FieldType, Label, MessageId, Schema};
use protoacc_trace::json::{self, Json};
use protoacc_wire::{FieldKey, MAX_VARINT_LEN};

/// How seriously a diagnostic should be treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suppressed: recorded in no report.
    Allow,
    /// Reported, but does not fail a lint gate by default.
    Warn,
    /// Reported and fails the lint gate.
    Deny,
}

impl Severity {
    /// Lower-case name as used in CLI flags and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    /// Parses a CLI severity name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable identifier of one lint check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// PA001: message nesting can exceed the on-chip metadata stack depth,
    /// so sub-message pushes/pops spill to DRAM (Section 3.8).
    StackSpill,
    /// PA002: a field number is wide enough that its wire key no longer
    /// fits the 2-byte key fast path.
    WideKey,
    /// PA003: field numbers are sparse enough that a dense hasbits mapping
    /// would waste per-field work (the rejected alternative of Section 4.2,
    /// crossover analysis in Section 3.7).
    SparseHasbits,
    /// PA004: a schema feature the accelerator punts to software (proto2
    /// `required` presence enforcement; UTF-8 validation of `string`
    /// fields when proto3 semantics are enabled, Section 7).
    SoftwareFallback,
    /// PA005: packed repeated elements are far narrower than the 16-byte
    /// consumer window, so the field-handling FSM, not the memloader,
    /// bounds throughput.
    WindowStarve,
    /// PA006: the descriptor-table working set of one root message exceeds
    /// the accelerator's ADT-entry cache, thrashing to the L2.
    AdtThrash,
    /// PA007: a measured command service time fell outside the static
    /// `[lower, upper]` cycle envelope computed by `protoacc-absint` —
    /// either the model charged cycles the abstract interpretation says are
    /// impossible, or the envelope itself is unsound. Sanitizer-only.
    EnvelopeViolation,
    /// PA008: the serve-model command lifecycle violated happens-before
    /// (dispatch before enqueue, overlapping commands on one instance,
    /// completion inconsistent with dispatch + service). Sanitizer-only.
    LifecycleOrder,
    /// PA009: two commands in flight at the same time touched overlapping
    /// memory ranges with at least one writer — an arena-aliasing hazard a
    /// real multi-instance accelerator would corrupt data on.
    /// Sanitizer-only.
    ArenaAliasing,
    /// PA010: the static service-time ceiling of a message type (the
    /// abstract-interpretation envelope's upper bound at the configured
    /// maximum wire length) exceeds the configured watchdog cycle budget —
    /// a worst-case-but-correct command would be killed by the serve
    /// layer's watchdog, so the budget (or the schema) must change.
    WatchdogBudget,
    /// PA011: the message type lies on a reference cycle, so wire input
    /// alone chooses the nesting depth — the static twin of the fault
    /// plane's depth bomb, bounded at runtime only by the serve watchdog.
    /// Unlike PA001 (which flags the stack-spill cost), this reports the
    /// cycle itself, with the shortest path back to the type.
    RecursionCycle,
    /// PA012: the worst-case decoded in-memory footprint grows faster than
    /// the configured bytes-per-wire-byte limit (`amplification_limit`) —
    /// a decompression-bomb-shaped type that inflates in memory before the
    /// watchdog can see a single cycle overrun.
    WireAmplification,
    /// PA013: the type's field numbers span a range wider than
    /// `fragmentation_span`; hasbits words, dense-mapping tables, and
    /// serializer span scans all scale with the *span*, not the field
    /// count, so sparse numbering bloats every per-message structure.
    FieldFragmentation,
    /// PA014: a repeated scalar field is not `[packed = true]`, so every
    /// element pays its own wire key and FSM record instead of streaming
    /// through the packed-element fast path.
    UnpackedRepeated,
    /// PA015: the *composed* worst-case service ceiling (this type plus the
    /// sub-object machinery of every reachable child type) exceeds the
    /// watchdog budget even though the type's own PA010 ceiling fits — the
    /// composition gap a per-type check cannot see.
    ComposedEnvelope,
    /// PA016: a layout region (vptr, hasbits array, or a field slot)
    /// escapes `object_size` or aliases another region — the translation
    /// validator disproved slot-overlap freedom of the compiled artifacts.
    /// Verifier-only.
    SlotOverlap,
    /// PA017: a dispatch table resolves an undefined field number, fails to
    /// resolve a defined one, or its dense/sparse access paths disagree
    /// entry-for-entry. Verifier-only.
    DispatchTotality,
    /// PA018: a compiled dispatch entry's op, wire type, element size, slot
    /// offset, hasbit position, or pre-encoded key disagrees with an
    /// independent re-derivation from the schema. Verifier-only.
    EntryConsistency,
    /// PA019: the hardware ADT image in guest memory diverges from the
    /// software fast-path table — header word or field entry. Verifier-only.
    AdtEquivalence,
    /// PA020: a type's span-proportional table memory (software dense table
    /// or hardware ADT image) exceeds the configured byte budget —
    /// PA013's span heuristic sharpened to measured bytes. Verifier-only.
    TableBlowup,
}

/// Every diagnostic code, in PA-number order.
pub const ALL_CODES: [DiagCode; 20] = [
    DiagCode::StackSpill,
    DiagCode::WideKey,
    DiagCode::SparseHasbits,
    DiagCode::SoftwareFallback,
    DiagCode::WindowStarve,
    DiagCode::AdtThrash,
    DiagCode::EnvelopeViolation,
    DiagCode::LifecycleOrder,
    DiagCode::ArenaAliasing,
    DiagCode::WatchdogBudget,
    DiagCode::RecursionCycle,
    DiagCode::WireAmplification,
    DiagCode::FieldFragmentation,
    DiagCode::UnpackedRepeated,
    DiagCode::ComposedEnvelope,
    DiagCode::SlotOverlap,
    DiagCode::DispatchTotality,
    DiagCode::EntryConsistency,
    DiagCode::AdtEquivalence,
    DiagCode::TableBlowup,
];

impl DiagCode {
    /// The stable `PAxxx` code string.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::StackSpill => "PA001",
            DiagCode::WideKey => "PA002",
            DiagCode::SparseHasbits => "PA003",
            DiagCode::SoftwareFallback => "PA004",
            DiagCode::WindowStarve => "PA005",
            DiagCode::AdtThrash => "PA006",
            DiagCode::EnvelopeViolation => "PA007",
            DiagCode::LifecycleOrder => "PA008",
            DiagCode::ArenaAliasing => "PA009",
            DiagCode::WatchdogBudget => "PA010",
            DiagCode::RecursionCycle => "PA011",
            DiagCode::WireAmplification => "PA012",
            DiagCode::FieldFragmentation => "PA013",
            DiagCode::UnpackedRepeated => "PA014",
            DiagCode::ComposedEnvelope => "PA015",
            DiagCode::SlotOverlap => "PA016",
            DiagCode::DispatchTotality => "PA017",
            DiagCode::EntryConsistency => "PA018",
            DiagCode::AdtEquivalence => "PA019",
            DiagCode::TableBlowup => "PA020",
        }
    }

    /// Short kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            DiagCode::StackSpill => "stack-spill",
            DiagCode::WideKey => "wide-key",
            DiagCode::SparseHasbits => "sparse-hasbits",
            DiagCode::SoftwareFallback => "software-fallback",
            DiagCode::WindowStarve => "window-starve",
            DiagCode::AdtThrash => "adt-thrash",
            DiagCode::EnvelopeViolation => "envelope-violation",
            DiagCode::LifecycleOrder => "lifecycle-order",
            DiagCode::ArenaAliasing => "arena-aliasing",
            DiagCode::WatchdogBudget => "watchdog-budget",
            DiagCode::RecursionCycle => "recursion-cycle",
            DiagCode::WireAmplification => "wire-amplification",
            DiagCode::FieldFragmentation => "field-fragmentation",
            DiagCode::UnpackedRepeated => "unpacked-repeated",
            DiagCode::ComposedEnvelope => "composed-envelope",
            DiagCode::SlotOverlap => "slot-overlap",
            DiagCode::DispatchTotality => "dispatch-totality",
            DiagCode::EntryConsistency => "entry-consistency",
            DiagCode::AdtEquivalence => "adt-equivalence",
            DiagCode::TableBlowup => "dense-table-blowup",
        }
    }

    /// Default severity when no override is configured.
    ///
    /// Only a *provably* spilling type (finite nesting depth greater than
    /// the stack depth) denies by default among the static codes; everything
    /// else — including recursive types whose instance depth is
    /// data-dependent — warns. The sanitizer codes (PA007–PA009) always
    /// report genuine model violations, so they all deny, and so do the
    /// translation-validation codes PA016–PA019: a disproved table/layout
    /// property is a compiler bug that silently corrupts data, never a
    /// schema style concern. PA020 is a budget threshold, so it warns.
    pub fn default_severity(self) -> Severity {
        match self {
            DiagCode::StackSpill
            | DiagCode::EnvelopeViolation
            | DiagCode::LifecycleOrder
            | DiagCode::ArenaAliasing
            | DiagCode::SlotOverlap
            | DiagCode::DispatchTotality
            | DiagCode::EntryConsistency
            | DiagCode::AdtEquivalence => Severity::Deny,
            _ => Severity::Warn,
        }
    }

    /// Parses either a `PAxxx` code or a kebab-case name.
    pub fn parse(s: &str) -> Option<Self> {
        ALL_CODES
            .into_iter()
            .find(|c| c.code().eq_ignore_ascii_case(s) || c.name() == s)
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.name())
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which check fired.
    pub code: DiagCode,
    /// Effective severity after [`LintConfig`] overrides.
    pub severity: Severity,
    /// Name of the message type the finding is about.
    pub message_type: String,
    /// Field name, when the finding is about one field.
    pub field: Option<String>,
    /// Human-readable explanation with the numbers that triggered it.
    pub detail: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}",
            self.severity,
            self.code.code(),
            self.message_type
        )?;
        if let Some(field) = &self.field {
            write!(f, ".{field}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Analyzer configuration: the hardware limits to lint against plus
/// per-code severity overrides.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Accelerator configuration supplying the hardware limits
    /// (stack depth, window width, ADT cache size, UTF-8 validation).
    pub accel: AccelConfig,
    /// Memory-system configuration the cycle envelopes are computed
    /// against (cache/DRAM latencies, line size, MSHR count).
    pub mem: MemConfig,
    /// Density below which a layout is flagged dense-hasbits-unfriendly.
    /// Default 1/64: past that sparsity, a dense mapping table's extra
    /// 32-bit read per field (Section 4.2) buys nothing.
    pub density_floor: f64,
    /// Maximum wire length (bytes) the deployment admits per message; the
    /// wire length the per-type watchdog ceiling is evaluated at.
    pub max_wire_bytes: u64,
    /// Watchdog cycle budget the serve layer is configured with. When set,
    /// any type whose static service ceiling at
    /// [`LintConfig::max_wire_bytes`] exceeds it fires PA010. `None`
    /// disables the check.
    pub watchdog_budget: Option<Cycles>,
    /// PA012 threshold: maximum tolerated decoded-footprint growth in bytes
    /// per wire byte. Default 64 — one cache line materialized per wire
    /// byte consumed; past that, a small hostile message inflates memory
    /// orders of magnitude faster than it streams in.
    pub amplification_limit: f64,
    /// PA013 threshold: widest tolerated field-number span per type.
    /// Default 65536 — past that, span-proportional structures (16-byte ADT
    /// entries, hasbits words, serializer scans) cross the megabyte scale
    /// for a single message type.
    pub fragmentation_span: u64,
    /// PA020 threshold (verifier mode): widest tolerated span-proportional
    /// table footprint per type, in bytes — the larger of the software
    /// dense dispatch table and the hardware ADT image. Default
    /// [`protoacc_verify::DEFAULT_DENSE_TABLE_BUDGET`] (8 MiB).
    pub dense_table_budget: u64,
    /// `(code, severity)` overrides, later entries winning.
    pub overrides: Vec<(DiagCode, Severity)>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            accel: AccelConfig::default(),
            mem: MemConfig::default(),
            density_floor: 1.0 / 64.0,
            max_wire_bytes: 4096,
            watchdog_budget: None,
            amplification_limit: 64.0,
            fragmentation_span: 65536,
            dense_table_budget: protoacc_verify::DEFAULT_DENSE_TABLE_BUDGET,
            overrides: Vec::new(),
        }
    }
}

impl LintConfig {
    /// Effective severity for a code after overrides.
    pub fn severity(&self, code: DiagCode) -> Severity {
        self.severity_or(code, code.default_severity())
    }

    /// Effective severity with a caller-supplied default, used when one
    /// code has variants of different gravity (PA001 denies on provably
    /// deep finite nesting but only warns on data-dependent recursion).
    pub fn severity_or(&self, code: DiagCode, default: Severity) -> Severity {
        self.overrides
            .iter()
            .rev()
            .find(|(c, _)| *c == code)
            .map_or(default, |(_, s)| *s)
    }
}

/// How deeply instances of a type can nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nesting {
    /// Every instance nests at most this deep (root counts as 1).
    Finite(usize),
    /// The type is recursive (or astronomically deep): instance depth is
    /// data-dependent and unbounded.
    Unbounded,
}

/// JSON report format version, emitted as the first key of
/// [`LintReport::render_json`] output. Bumped only on breaking changes;
/// additive keys keep the same version.
///
/// * 1 — implicit: no `schema_version` key, no envelope fields.
/// * 2 — adds `schema_version` plus per-type `deser_envelope` and
///   `ser_envelope` `[lower, upper]` arrays.
/// * 3 — adds the per-type `watchdog_ceiling` field (static deserialize
///   service-time upper bound at the configured maximum wire length — the
///   value a serve deployment would program its watchdog with) and the
///   PA010 `watchdog-budget` code.
/// * 4 — adds the whole-schema graph analyses PA011–PA015 and the per-type
///   `amplification` (worst-case decoded bytes per wire byte) and
///   `composed_ceiling` (cross-message composed service ceiling at the
///   configured maximum wire length) fields.
/// * 5 — adds the translation-validation codes PA016–PA020
///   (`protoacc-verify`, enabled by `--verify`) and the per-type
///   `table_kind` ("dense"/"sparse" dispatch table shape) and
///   `table_bytes` (worst span-proportional table footprint) fields.
/// * 6 — drops the per-type `dispatch_cycles`, `window_bytes`,
///   `max_record_bytes` and `cycles_per_byte_floor` keys: lint's own
///   per-record floor is gone, and `deser_envelope`'s lower end is the
///   one static floor.
pub const SCHEMA_VERSION: u32 = 6;

/// Wire length (bytes) at which the per-type report envelopes are
/// evaluated. Envelopes are a function of length; 256 bytes is the paper's
/// cited median protobuf message scale, so the reported intervals describe
/// a representative message rather than an asymptote.
pub const ENVELOPE_REFERENCE_BYTES: u64 = 256;

/// Per-message-type analysis summary, one per type in the schema.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeSummary {
    /// Message type name.
    pub type_name: String,
    /// Static nesting depth treating this type as the root.
    pub nesting: Nesting,
    /// Descriptor-table lines touched by one message of this type
    /// (sum over reachable types).
    pub adt_working_set: u64,
    /// Hasbits usage density of the type's own layout.
    pub static_density: f64,
    /// Two-sided deserialization cycle envelope at
    /// [`ENVELOPE_REFERENCE_BYTES`] of wire input, single-tenant.
    pub deser_envelope: Interval,
    /// Two-sided serialization cycle envelope at
    /// [`ENVELOPE_REFERENCE_BYTES`] of wire output, single-tenant.
    pub ser_envelope: Interval,
    /// Static watchdog ceiling: the deserialize *service*-time upper bound
    /// (envelope upper plus RoCC dispatch) at [`LintConfig::max_wire_bytes`]
    /// of wire input, single-tenant. No correct single-tenant command on
    /// this type can run longer, so a serve deployment programs its
    /// watchdog with exactly this value.
    pub watchdog_ceiling: Cycles,
    /// Worst-case decoded-footprint growth in bytes per wire byte (the
    /// slope of [`protoacc_absint::AmplificationBound`]); PA012 compares it
    /// against [`LintConfig::amplification_limit`].
    pub amplification: f64,
    /// Cross-message composed service ceiling at
    /// [`LintConfig::max_wire_bytes`]: the PA010 ceiling plus the
    /// sub-object machinery of every reachable child type
    /// ([`protoacc_absint::composed_service_ceiling`]); PA015 compares it
    /// against the watchdog budget.
    pub composed_ceiling: Cycles,
    /// Which dispatch-table shape the fast path compiled for this type.
    pub table_kind: TableKind,
    /// Worst span-proportional table footprint in bytes (the larger of the
    /// software dense table and the hardware ADT image); PA020 compares it
    /// against [`LintConfig::dense_table_budget`].
    pub table_bytes: u64,
}

/// Full analyzer output for one schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// All findings at `Warn` or `Deny` (after overrides; `Allow` findings
    /// are dropped).
    pub diagnostics: Vec<Diagnostic>,
    /// One summary per message type, in schema order.
    pub types: Vec<TypeSummary>,
}

impl LintReport {
    /// Number of `Deny` diagnostics.
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of `Warn` diagnostics.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// True when no diagnostic fired at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Highest severity present, or `None` when clean.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Diagnostics of one code.
    pub fn with_code(&self, code: DiagCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Merges another report (e.g. from a second `.proto` file) into this
    /// one.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
        self.types.extend(other.types);
    }

    /// Renders the report for terminals: one line per diagnostic, then a
    /// per-type summary table, then a totals line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        if !self.diagnostics.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!(
            "type                      nesting  adt-lines  density  \
             deser@{ENVELOPE_REFERENCE_BYTES}B           ser@{ENVELOPE_REFERENCE_BYTES}B\n"
        ));
        for t in &self.types {
            let nesting = match t.nesting {
                Nesting::Finite(d) => d.to_string(),
                Nesting::Unbounded => "unbounded".to_string(),
            };
            out.push_str(&format!(
                "{:<25} {:>7} {:>10} {:>8.3}  {:>18} {:>18}\n",
                t.type_name,
                nesting,
                t.adt_working_set,
                t.static_density,
                format!("[{}, {}]", t.deser_envelope.lower, t.deser_envelope.upper),
                format!("[{}, {}]", t.ser_envelope.lower, t.ser_envelope.upper),
            ));
        }
        out.push_str(&format!(
            "\n{} deny, {} warn across {} message type(s)\n",
            self.deny_count(),
            self.warn_count(),
            self.types.len()
        ));
        out
    }

    /// Renders the report as one JSON object through the shared
    /// [`protoacc_trace::json`] writer, whose single layout puts each
    /// diagnostic and each type on its own line.
    pub fn render_json(&self) -> String {
        let diagnostics = self.diagnostics.iter().map(|d| {
            Json::obj([
                ("code", d.code.code().into()),
                ("name", d.code.name().into()),
                ("severity", d.severity.as_str().into()),
                ("type", d.message_type.as_str().into()),
                ("field", d.field.as_deref().into()),
                ("detail", d.detail.as_str().into()),
            ])
        });
        let types = self.types.iter().map(|t| {
            let nesting = match t.nesting {
                Nesting::Finite(d) => Some(d),
                Nesting::Unbounded => None,
            };
            let envelope = |e: &Interval| Json::Arr(vec![e.lower.into(), e.upper.into()]);
            Json::obj([
                ("type", t.type_name.as_str().into()),
                ("nesting", nesting.into()),
                ("adt_working_set", t.adt_working_set.into()),
                ("static_density", Json::fixed(t.static_density, 6)),
                ("deser_envelope", envelope(&t.deser_envelope)),
                ("ser_envelope", envelope(&t.ser_envelope)),
                ("watchdog_ceiling", t.watchdog_ceiling.into()),
                ("amplification", Json::fixed(t.amplification, 3)),
                ("composed_ceiling", t.composed_ceiling.into()),
                ("table_kind", t.table_kind.as_str().into()),
                ("table_bytes", t.table_bytes.into()),
            ])
        });
        json::write(&Json::obj([
            ("schema_version", SCHEMA_VERSION.into()),
            ("diagnostics", Json::Arr(diagnostics.collect())),
            ("types", Json::Arr(types.collect())),
            (
                "summary",
                Json::obj([
                    ("deny", self.deny_count().into()),
                    ("warn", self.warn_count().into()),
                    ("types", self.types.len().into()),
                ]),
            ),
        ]))
    }
}

/// Nesting-depth probe limit: far beyond any stack depth we model, so a
/// `None` from [`Schema::nesting_depth`] means "recursive" in practice.
fn depth_probe_limit(config: &AccelConfig) -> usize {
    (config.stack_depth * 4).max(256)
}

/// Computes the static nesting classification of `root`.
pub fn nesting_of(schema: &Schema, root: MessageId, config: &AccelConfig) -> Nesting {
    match schema.nesting_depth(root, depth_probe_limit(config)) {
        Some(d) => Nesting::Finite(d),
        None => Nesting::Unbounded,
    }
}

/// Predicts from a constructed in-memory message whether deserializing (or
/// serializing) it will spill the sub-message metadata stacks.
///
/// The behavioral model keeps the root in the first stack frame, so an
/// instance spills exactly when its [`MessageValue::depth`] exceeds the
/// configured stack depth. Cross-validated against the simulator in the
/// suite's `lint_cross_validation` tests.
pub fn predicts_spill(value: &MessageValue, config: &AccelConfig) -> bool {
    value.depth() > config.stack_depth
}

/// Message types directly referenced by fields of `id`.
fn successors(schema: &Schema, id: MessageId) -> impl Iterator<Item = MessageId> + '_ {
    schema.message(id).fields().iter().filter_map(|f| {
        if let FieldType::Message(sub) = f.field_type() {
            Some(sub)
        } else {
            None
        }
    })
}

/// Shortest reference cycle through `root`, as the list of type names
/// `root -> ... -> root`, or `None` when `root` lies on no cycle.
///
/// Breadth-first search from `root`'s successors back to `root`: the first
/// arrival wins, so the reported path is a minimal witness of the PA011
/// unbounded-recursion finding.
pub fn shortest_cycle(schema: &Schema, root: MessageId) -> Option<Vec<String>> {
    let mut prev: HashMap<MessageId, MessageId> = HashMap::new();
    let mut queue = VecDeque::new();
    for s in successors(schema, root) {
        if s == root {
            let name = schema.message(root).name().to_string();
            return Some(vec![name.clone(), name]);
        }
        if let std::collections::hash_map::Entry::Vacant(slot) = prev.entry(s) {
            slot.insert(root);
            queue.push_back(s);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for s in successors(schema, cur) {
            if s == root {
                let mut rev = vec![root, cur];
                let mut at = cur;
                while at != root {
                    at = prev[&at];
                    rev.push(at);
                }
                rev.reverse();
                return Some(
                    rev.into_iter()
                        .map(|id| schema.message(id).name().to_string())
                        .collect(),
                );
            }
            if !prev.contains_key(&s) && s != root {
                prev.insert(s, cur);
                queue.push_back(s);
            }
        }
    }
    None
}

/// Runs every check over every message type of `schema`.
pub fn lint_schema(schema: &Schema, config: &LintConfig) -> LintReport {
    let layouts = MessageLayouts::compute(schema);
    let compiled = CompiledSchema::compile(schema);
    let stats = protoacc_verify::table_stats(schema, &compiled);
    let mut report = LintReport::default();
    for (id, msg) in schema.iter() {
        let table = &stats[id.index()];
        let layout = layouts.layout(id);
        let nesting = nesting_of(schema, id, &config.accel);
        let working_set = layouts.adt_working_set(schema, id);
        let deser_env = Envelope::deser(schema, &layouts, id, &config.accel, &config.mem);
        let deser_envelope = deser_env.bounds(ENVELOPE_REFERENCE_BYTES, 1);
        let ser_envelope = Envelope::ser(schema, &layouts, id, &config.accel, &config.mem)
            .bounds(ENVELOPE_REFERENCE_BYTES, 1);
        let watchdog_ceiling = deser_env.service_bounds(config.max_wire_bytes, 1).upper;
        let amplification = amplification_bound(schema, &layouts, id);
        let composed_ceiling = composed_service_ceiling(
            schema,
            &layouts,
            id,
            &config.accel,
            &config.mem,
            config.max_wire_bytes,
        );

        let mut push = |code: DiagCode, default: Severity, field: Option<&str>, detail: String| {
            let severity = config.severity_or(code, default);
            if severity == Severity::Allow {
                return;
            }
            report.diagnostics.push(Diagnostic {
                code,
                severity,
                message_type: msg.name().to_string(),
                field: field.map(str::to_string),
                detail,
            });
        };

        // PA001 stack-spill: root-level nesting check. A finite depth past
        // the stack provably spills on *every* instance that reaches it;
        // recursion makes depth data-dependent, so it only warns.
        match nesting {
            Nesting::Finite(d) if d > config.accel.stack_depth => {
                push(
                    DiagCode::StackSpill,
                    Severity::Deny,
                    None,
                    format!(
                        "nests {d} deep but the metadata stacks hold {} frames; \
                         every deepest-path instance spills {} cycle(s) per \
                         spilled push to DRAM (Section 3.8)",
                        config.accel.stack_depth, config.accel.stack_spill_cycles
                    ),
                );
            }
            Nesting::Unbounded => {
                push(
                    DiagCode::StackSpill,
                    Severity::Warn,
                    None,
                    format!(
                        "recursive message type: instance nesting is data-dependent \
                         and can exceed the {}-frame metadata stacks, spilling {} \
                         cycle(s) per push to DRAM (Section 3.8)",
                        config.accel.stack_depth, config.accel.stack_spill_cycles
                    ),
                );
            }
            Nesting::Finite(_) => {}
        }

        // PA011 recursion-cycle: the cycle itself, with a minimal witness
        // path. PA001 above prices the stack spills; this flags that wire
        // input alone chooses the nesting depth at all.
        if let Some(cycle) = shortest_cycle(schema, id) {
            push(
                DiagCode::RecursionCycle,
                Severity::Warn,
                None,
                format!(
                    "lies on the reference cycle {}; nesting depth is chosen \
                     entirely by wire input (the static twin of the depth-bomb \
                     fault plane), bounded at runtime only by the serve watchdog",
                    cycle.join(" -> ")
                ),
            );
        }

        // PA006 adt-thrash: root-level descriptor working set.
        if working_set > config.accel.adt_cache_entries as u64 {
            push(
                DiagCode::AdtThrash,
                Severity::Warn,
                None,
                format!(
                    "one message touches {working_set} descriptor-table lines but the \
                     ADT cache holds {}; descriptor fetches thrash to the L2",
                    config.accel.adt_cache_entries
                ),
            );
        }

        // PA003 sparse-hasbits: per-type layout density.
        if layout.defined_fields() > 0 && layout.static_density() < config.density_floor {
            push(
                DiagCode::SparseHasbits,
                Severity::Warn,
                None,
                format!(
                    "{} field(s) spread over a span of {} numbers (density {:.4} < \
                     {:.4}); a dense hasbits mapping would waste a 32-bit \
                     table read per field (Sections 3.7, 4.2)",
                    layout.defined_fields(),
                    layout.field_number_span(),
                    layout.static_density(),
                    config.density_floor
                ),
            );
        }

        // PA013 field-fragmentation: span-proportional structures.
        let span = layout.field_number_span();
        if span > config.fragmentation_span {
            push(
                DiagCode::FieldFragmentation,
                Severity::Warn,
                None,
                format!(
                    "{} field(s) span {span} field numbers (limit {}); hasbits \
                     words, dense-mapping tables and serializer span scans all \
                     scale with the span, not the field count",
                    layout.defined_fields(),
                    config.fragmentation_span
                ),
            );
        }

        // PA012 wire-amplification: decoded-footprint growth per wire byte.
        if amplification.per_wire_byte > config.amplification_limit {
            push(
                DiagCode::WireAmplification,
                Severity::Warn,
                None,
                format!(
                    "worst-case decoded footprint grows {:.1} bytes per wire \
                     byte (limit {:.1}): a {}-byte message can materialize \
                     ~{} bytes before the watchdog sees a single cycle overrun",
                    amplification.per_wire_byte,
                    config.amplification_limit,
                    config.max_wire_bytes,
                    amplification.footprint_upper(config.max_wire_bytes)
                ),
            );
        }

        // Per-field checks on the type's own fields.
        for f in msg.fields() {
            // PA002 wide-key.
            if f.number() > AccelConfig::TWO_BYTE_KEY_MAX_FIELD {
                let key_len = FieldKey::new(f.number(), f.field_type().wire_type())
                    .map_or(MAX_VARINT_LEN, FieldKey::encoded_len);
                push(
                    DiagCode::WideKey,
                    Severity::Warn,
                    Some(f.name()),
                    format!(
                        "field number {} needs a {key_len}-byte wire key, past the \
                         2-byte fast path (max field {})",
                        f.number(),
                        AccelConfig::TWO_BYTE_KEY_MAX_FIELD
                    ),
                );
            }

            // PA004 software-fallback.
            if f.label() == Label::Required {
                push(
                    DiagCode::SoftwareFallback,
                    Severity::Warn,
                    Some(f.name()),
                    "proto2 `required` presence is enforced by software after the \
                     accelerator completes, adding a per-message core round trip"
                        .to_string(),
                );
            }
            if f.field_type() == FieldType::String && config.accel.validate_utf8 {
                push(
                    DiagCode::SoftwareFallback,
                    Severity::Warn,
                    Some(f.name()),
                    "proto3 semantics require UTF-8 validation of string fields, \
                     the one hardware change Section 7 identifies"
                        .to_string(),
                );
            }

            // PA005 window-starve.
            if f.is_packed() {
                let elem = f
                    .field_type()
                    .scalar_kind()
                    .map_or(1, protoacc_schema::ScalarKind::size);
                if elem < config.accel.window_bytes {
                    push(
                        DiagCode::WindowStarve,
                        Severity::Warn,
                        Some(f.name()),
                        format!(
                            "packed elements of ~{elem} byte(s) fill a {}-byte \
                             consumer window {}x over; per-element FSM work, not \
                             the memloader, bounds throughput",
                            config.accel.window_bytes,
                            config.accel.window_bytes / elem.max(1)
                        ),
                    );
                }
            }

            // PA014 unpacked-repeated.
            if f.is_repeated() && !f.is_packed() && f.field_type().is_packable() {
                let key_len = FieldKey::new(f.number(), f.field_type().wire_type())
                    .map_or(MAX_VARINT_LEN, FieldKey::encoded_len);
                push(
                    DiagCode::UnpackedRepeated,
                    Severity::Warn,
                    Some(f.name()),
                    format!(
                        "repeated scalar is not [packed = true]: every element \
                         pays a {key_len}-byte wire key and its own FSM record \
                         instead of streaming through the packed fast path"
                    ),
                );
            }
        }

        // PA010 watchdog-budget: static ceiling vs the deployment's budget.
        if let Some(budget) = config.watchdog_budget {
            if watchdog_ceiling > budget {
                push(
                    DiagCode::WatchdogBudget,
                    Severity::Warn,
                    None,
                    format!(
                        "static service ceiling is {watchdog_ceiling} cycles at \
                         {} wire bytes, over the configured {budget}-cycle \
                         watchdog budget; a worst-case-but-correct command \
                         would be killed (raise the budget or shrink \
                         `max_wire_bytes`)",
                        config.max_wire_bytes
                    ),
                );
            }

            // PA015 composed-envelope: the composition gap specifically —
            // the type's own ceiling fits the budget (else PA010 already
            // covers it) but the cross-message composition does not.
            if composed_ceiling > budget && watchdog_ceiling <= budget {
                let children = schema.reachable(id).len().saturating_sub(1);
                push(
                    DiagCode::ComposedEnvelope,
                    Severity::Warn,
                    None,
                    format!(
                        "composed worst-case ceiling is {composed_ceiling} \
                         cycles at {} wire bytes, over the {budget}-cycle \
                         watchdog budget, even though this type's own ceiling \
                         ({watchdog_ceiling}) fits: the sub-object machinery \
                         of {children} reachable child type(s) composes past \
                         the budget",
                        config.max_wire_bytes
                    ),
                );
            }
        }

        report.types.push(TypeSummary {
            type_name: msg.name().to_string(),
            nesting,
            adt_working_set: working_set,
            static_density: layout.static_density(),
            deser_envelope,
            ser_envelope,
            watchdog_ceiling,
            amplification: amplification.per_wire_byte,
            composed_ceiling,
            table_kind: table.kind,
            table_bytes: table.table_bytes,
        });
    }
    report
}

/// Maps sanitizer [`Finding`]s from [`protoacc_absint`] onto the lint
/// diagnostic machinery, so dynamic PA007–PA009 violations share severity
/// overrides and exit-code behavior with the static checks.
///
/// The findings describe serve-model commands, not schema types, so
/// `message_type` is the pseudo-type `"<serve>"` and `field` carries the
/// command sequence number when the finding names one.
pub fn findings_to_diagnostics(findings: &[Finding], config: &LintConfig) -> Vec<Diagnostic> {
    findings
        .iter()
        .filter_map(|f| {
            let code = match f.kind {
                FindingKind::Envelope => DiagCode::EnvelopeViolation,
                FindingKind::Lifecycle => DiagCode::LifecycleOrder,
                FindingKind::Aliasing => DiagCode::ArenaAliasing,
            };
            let severity = config.severity(code);
            if severity == Severity::Allow {
                return None;
            }
            Some(Diagnostic {
                code,
                severity,
                message_type: "<serve>".to_string(),
                field: f.seq.map(|s| format!("cmd#{s}")),
                detail: f.detail.clone(),
            })
        })
        .collect()
}

/// Maps translation-validator [`protoacc_verify::Violation`]s onto the lint
/// diagnostic machinery, so PA016–PA020 share severity overrides and
/// exit-code behavior with the static checks.
///
/// PA016–PA019 disprove compiler output, not schema style, so they default
/// to [`Severity::Deny`]; PA020 is a capacity judgment and defaults to
/// [`Severity::Warn`].
pub fn violations_to_diagnostics(
    violations: &[protoacc_verify::Violation],
    config: &LintConfig,
) -> Vec<Diagnostic> {
    violations
        .iter()
        .filter_map(|v| {
            let code = match v.property {
                protoacc_verify::Property::SlotOverlap => DiagCode::SlotOverlap,
                protoacc_verify::Property::DispatchTotality => DiagCode::DispatchTotality,
                protoacc_verify::Property::EntryConsistency => DiagCode::EntryConsistency,
                protoacc_verify::Property::AdtEquivalence => DiagCode::AdtEquivalence,
                protoacc_verify::Property::TableBlowup => DiagCode::TableBlowup,
            };
            let severity = config.severity(code);
            if severity == Severity::Allow {
                return None;
            }
            Some(Diagnostic {
                code,
                severity,
                message_type: v.type_name.clone(),
                field: None,
                detail: v.detail.clone(),
            })
        })
        .collect()
}

/// [`lint_schema`] plus the `protoacc-verify` translation validator: runs
/// the static checks, then re-proves PA016–PA020 over the compiled dispatch
/// tables, layout maps, and hardware ADT image, appending any violations as
/// diagnostics (the `--verify` CLI mode).
pub fn lint_schema_verified(schema: &Schema, config: &LintConfig) -> LintReport {
    let mut report = lint_schema(schema, config);
    let verify_config = protoacc_verify::VerifyConfig {
        dense_table_budget: config.dense_table_budget,
    };
    let verdict = protoacc_verify::verify_schema(schema, &verify_config);
    report
        .diagnostics
        .extend(violations_to_diagnostics(&verdict.violations, config));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_schema::parse_proto;

    fn lint(src: &str) -> LintReport {
        lint_schema(&parse_proto(src).unwrap(), &LintConfig::default())
    }

    #[test]
    fn clean_schema_has_no_diagnostics() {
        let r = lint("message Point { optional int32 x = 1; optional int32 y = 2; }");
        assert!(r.is_clean(), "unexpected: {:?}", r.diagnostics);
        assert_eq!(r.types.len(), 1);
        assert_eq!(r.types[0].nesting, Nesting::Finite(1));
    }

    #[test]
    fn recursive_type_warns_pa001() {
        let r = lint("message Node { optional Node next = 1; }");
        let d: Vec<_> = r.with_code(DiagCode::StackSpill).collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Warn);
        assert_eq!(r.types[0].nesting, Nesting::Unbounded);
    }

    #[test]
    fn finite_chain_past_stack_depth_denies_pa001() {
        // Build a linear chain of stack_depth + 2 message types.
        let depth = AccelConfig::default().stack_depth + 2;
        let mut src = String::new();
        for i in 0..depth {
            if i + 1 < depth {
                src.push_str(&format!(
                    "message M{i} {{ optional M{} next = 1; }}\n",
                    i + 1
                ));
            } else {
                src.push_str(&format!("message M{i} {{ optional uint32 leaf = 1; }}\n"));
            }
        }
        let r = lint(&src);
        let deny: Vec<_> = r
            .with_code(DiagCode::StackSpill)
            .filter(|d| d.severity == Severity::Deny)
            .collect();
        // Roots M0 and M1 see depth > stack_depth; deeper roots are fine.
        assert_eq!(deny.len(), 2, "{:?}", r.diagnostics);
        assert_eq!(r.types[0].nesting, Nesting::Finite(depth));
    }

    #[test]
    fn max_field_number_triggers_pa002() {
        let r = lint("message Wide { optional uint32 near = 1; optional uint64 far = 536870911; }");
        let d: Vec<_> = r.with_code(DiagCode::WideKey).collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].field.as_deref(), Some("far"));
        // Two fields over the full number range: density collapses, PA003.
        assert_eq!(r.with_code(DiagCode::SparseHasbits).count(), 1);
    }

    #[test]
    fn field_2047_is_still_fast_path() {
        let r = lint("message Edge { optional uint64 last = 2047; }");
        assert_eq!(r.with_code(DiagCode::WideKey).count(), 0);
        let r = lint("message Edge { optional uint64 first_slow = 2048; }");
        assert_eq!(r.with_code(DiagCode::WideKey).count(), 1);
    }

    #[test]
    fn required_and_utf8_fallbacks_pa004() {
        let r = lint("message R { required uint32 id = 1; }");
        assert_eq!(r.with_code(DiagCode::SoftwareFallback).count(), 1);

        let mut config = LintConfig::default();
        config.accel.validate_utf8 = true;
        let schema = parse_proto("message S { optional string name = 1; }").unwrap();
        let r = lint_schema(&schema, &config);
        assert_eq!(r.with_code(DiagCode::SoftwareFallback).count(), 1);
        // Without proto3 semantics, strings are fine.
        let r = lint("message S { optional string name = 1; }");
        assert_eq!(r.with_code(DiagCode::SoftwareFallback).count(), 0);
    }

    #[test]
    fn packed_scalars_trigger_pa005() {
        let r = lint("message P { repeated uint32 vals = 1 [packed = true]; }");
        assert_eq!(r.with_code(DiagCode::WindowStarve).count(), 1);
        // Unpacked repeated fields do not starve the window.
        let r = lint("message P { repeated uint32 vals = 1; }");
        assert_eq!(r.with_code(DiagCode::WindowStarve).count(), 0);
    }

    #[test]
    fn severity_overrides_apply() {
        let mut config = LintConfig::default();
        config
            .overrides
            .push((DiagCode::WindowStarve, Severity::Allow));
        let schema =
            parse_proto("message P { repeated uint32 vals = 1 [packed = true]; }").unwrap();
        let r = lint_schema(&schema, &config);
        assert!(r.is_clean());

        config
            .overrides
            .push((DiagCode::WindowStarve, Severity::Deny));
        let r = lint_schema(&schema, &config);
        assert_eq!(r.max_severity(), Some(Severity::Deny));
    }

    /// Parses `r.render_json()` back with the shared parser.
    fn parsed_json(r: &LintReport) -> Json {
        json::parse(&r.render_json()).expect("render_json writes valid JSON")
    }

    #[test]
    fn json_output_parses_and_carries_diagnostics() {
        let r = lint("message Node { optional Node next = 1; required string s = 2; }");
        let root = parsed_json(&r);
        let diagnostics = root.get("diagnostics").and_then(Json::as_arr).unwrap();
        let any = |key, value| {
            diagnostics
                .iter()
                .any(|d| d.get(key).and_then(Json::as_str) == Some(value))
        };
        assert!(any("code", "PA001"));
        assert!(any("severity", "warn"));
        assert!(root.get("summary").is_some());
    }

    #[test]
    fn json_is_versioned_and_carries_envelopes() {
        let r = lint("message Point { optional int32 x = 1; optional int32 y = 2; }");
        let root = parsed_json(&r);
        let Json::Obj(members) = &root else {
            panic!("the report is an object: {root:?}")
        };
        assert_eq!(
            members[0].0, "schema_version",
            "schema_version must be the first key"
        );
        assert_eq!(members[0].1.as_u64(), Some(u64::from(SCHEMA_VERSION)));
        let t = &root.get("types").and_then(Json::as_arr).unwrap()[0];
        for (key, e) in [
            ("deser_envelope", r.types[0].deser_envelope),
            ("ser_envelope", r.types[0].ser_envelope),
        ] {
            let bounds = Json::Arr(vec![e.lower.into(), e.upper.into()]);
            assert_eq!(t.get(key), Some(&bounds), "{key}");
        }
    }

    #[test]
    fn report_envelopes_are_two_sided_and_sharpen_the_static_floor() {
        let r = lint("message M { optional uint64 a = 1; optional string s = 2; }");
        let t = &r.types[0];
        assert!(t.deser_envelope.lower <= t.deser_envelope.upper);
        assert!(t.ser_envelope.lower <= t.ser_envelope.upper);
        assert!(t.ser_envelope.upper > 0);
        // The reported floor is never weaker than the dispatch plus the
        // memloader streaming one window per cycle.
        let accel = AccelConfig::default();
        let stream = accel.rocc_dispatch_cycles
            + ENVELOPE_REFERENCE_BYTES.div_ceil(accel.window_bytes as u64);
        assert!(
            t.deser_envelope.lower >= stream,
            "envelope lower {} < streaming floor {stream}",
            t.deser_envelope.lower
        );
    }

    #[test]
    fn sanitizer_findings_map_to_deny_diagnostics() {
        let findings = vec![
            Finding {
                kind: FindingKind::Envelope,
                seq: Some(3),
                detail: "service 1 below lower bound 10".to_string(),
            },
            Finding {
                kind: FindingKind::Lifecycle,
                seq: None,
                detail: "record accounting mismatch".to_string(),
            },
            Finding {
                kind: FindingKind::Aliasing,
                seq: Some(7),
                detail: "write/write overlap".to_string(),
            },
        ];
        let config = LintConfig::default();
        let diags = findings_to_diagnostics(&findings, &config);
        assert_eq!(diags.len(), 3);
        assert_eq!(diags[0].code, DiagCode::EnvelopeViolation);
        assert_eq!(diags[0].severity, Severity::Deny);
        assert_eq!(diags[0].field.as_deref(), Some("cmd#3"));
        assert_eq!(diags[1].code, DiagCode::LifecycleOrder);
        assert_eq!(diags[1].field, None);
        assert_eq!(diags[2].code, DiagCode::ArenaAliasing);
        // Severity overrides apply to sanitizer codes too.
        let mut quiet = LintConfig::default();
        quiet
            .overrides
            .push((DiagCode::ArenaAliasing, Severity::Allow));
        let diags = findings_to_diagnostics(&findings, &quiet);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code != DiagCode::ArenaAliasing));
    }

    #[test]
    fn pa007_through_pa009_parse_and_deny_by_default() {
        for (code, s) in [
            (DiagCode::EnvelopeViolation, "PA007"),
            (DiagCode::LifecycleOrder, "pa008"),
            (DiagCode::ArenaAliasing, "arena-aliasing"),
        ] {
            assert_eq!(DiagCode::parse(s), Some(code));
            assert_eq!(code.default_severity(), Severity::Deny);
        }
        assert_eq!(DiagCode::parse("PA010"), Some(DiagCode::WatchdogBudget));
        assert_eq!(
            DiagCode::parse("watchdog-budget"),
            Some(DiagCode::WatchdogBudget)
        );
        assert_eq!(DiagCode::WatchdogBudget.default_severity(), Severity::Warn);
        assert_eq!(ALL_CODES.len(), 20);
        // The new whole-schema codes parse both ways and warn by default.
        for (code, pa, name) in [
            (DiagCode::RecursionCycle, "PA011", "recursion-cycle"),
            (DiagCode::WireAmplification, "PA012", "wire-amplification"),
            (DiagCode::FieldFragmentation, "PA013", "field-fragmentation"),
            (DiagCode::UnpackedRepeated, "PA014", "unpacked-repeated"),
            (DiagCode::ComposedEnvelope, "PA015", "composed-envelope"),
        ] {
            assert_eq!(DiagCode::parse(pa), Some(code));
            assert_eq!(DiagCode::parse(name), Some(code));
            assert_eq!(code.default_severity(), Severity::Warn);
        }
        // Verifier codes: PA016–PA019 disprove compiler output (deny);
        // PA020 is a capacity judgment (warn).
        for (code, pa, name) in [
            (DiagCode::SlotOverlap, "PA016", "slot-overlap"),
            (DiagCode::DispatchTotality, "PA017", "dispatch-totality"),
            (DiagCode::EntryConsistency, "PA018", "entry-consistency"),
            (DiagCode::AdtEquivalence, "PA019", "adt-equivalence"),
        ] {
            assert_eq!(DiagCode::parse(pa), Some(code));
            assert_eq!(DiagCode::parse(name), Some(code));
            assert_eq!(code.default_severity(), Severity::Deny);
        }
        assert_eq!(DiagCode::parse("PA020"), Some(DiagCode::TableBlowup));
        assert_eq!(
            DiagCode::parse("dense-table-blowup"),
            Some(DiagCode::TableBlowup)
        );
        assert_eq!(DiagCode::TableBlowup.default_severity(), Severity::Warn);
    }

    #[test]
    fn pa011_reports_the_shortest_cycle_path() {
        let r = lint(
            "message A { optional B b = 1; }\n\
             message B { optional C c = 1; optional A a = 2; }\n\
             message C { optional uint32 leaf = 1; }",
        );
        let d: Vec<_> = r.with_code(DiagCode::RecursionCycle).collect();
        // A and B lie on the A -> B -> A cycle; C does not.
        assert_eq!(d.len(), 2, "{:?}", r.diagnostics);
        assert!(d[0].detail.contains("A -> B -> A"), "{}", d[0].detail);
        assert!(d[1].detail.contains("B -> A -> B"), "{}", d[1].detail);
        // Self-loops report the two-entry path.
        let r = lint("message Node { optional Node next = 1; }");
        let d: Vec<_> = r.with_code(DiagCode::RecursionCycle).collect();
        assert_eq!(d.len(), 1);
        assert!(d[0].detail.contains("Node -> Node"), "{}", d[0].detail);
        // Acyclic nesting stays silent.
        let r = lint("message P { optional C c = 1; } message C { optional bool b = 1; }");
        assert_eq!(r.with_code(DiagCode::RecursionCycle).count(), 0);
    }

    #[test]
    fn pa012_fires_on_amplifying_types_only() {
        // A message whose 2-byte empty records materialize a large child
        // object: > 64 bytes per wire byte needs object_size + 8 > 128,
        // i.e. a child with >= 14 scalar slots (8 bytes each) plus header.
        let mut src = String::from("message Fat {\n");
        for i in 1..=20 {
            src.push_str(&format!("  optional fixed64 f{i} = {i};\n"));
        }
        src.push_str("}\nmessage Bomb { repeated Fat children = 1; }");
        let r = lint(&src);
        let d: Vec<_> = r.with_code(DiagCode::WireAmplification).collect();
        assert_eq!(d.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(d[0].message_type, "Bomb");
        let bomb = r.types.iter().find(|t| t.type_name == "Bomb").unwrap();
        assert!(bomb.amplification > 64.0, "{}", bomb.amplification);
        // Plain scalar types amplify mildly and stay silent.
        let r = lint("message Thin { optional uint64 a = 1; optional string s = 2; }");
        assert_eq!(r.with_code(DiagCode::WireAmplification).count(), 0);
        assert!(r.types[0].amplification > 0.0);
    }

    #[test]
    fn pa013_fires_past_the_span_limit() {
        let r = lint("message Sparse { optional uint32 a = 1; optional uint32 b = 100000; }");
        assert_eq!(r.with_code(DiagCode::FieldFragmentation).count(), 1);
        let r = lint("message Dense { optional uint32 a = 1; optional uint32 b = 65536; }");
        assert_eq!(r.with_code(DiagCode::FieldFragmentation).count(), 0);
    }

    #[test]
    fn pa014_fires_on_unpacked_packable_repeats_only() {
        let r = lint("message M { repeated uint64 vals = 1; }");
        let d: Vec<_> = r.with_code(DiagCode::UnpackedRepeated).collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].field.as_deref(), Some("vals"));
        // Packed scalars, repeated strings, and repeated messages are fine.
        let r = lint(
            "message M { repeated uint64 vals = 1 [packed = true]; \
             repeated string tags = 2; repeated M kids = 3; }",
        );
        assert_eq!(r.with_code(DiagCode::UnpackedRepeated).count(), 0);
    }

    #[test]
    fn pa015_fires_only_in_the_composition_gap() {
        let src = "message Parent { optional A a = 1; optional B b = 2; optional C c = 3; }\n\
                   message A { optional uint64 x = 1; }\n\
                   message B { optional uint64 x = 1; }\n\
                   message C { optional uint64 x = 1; }";
        let schema = parse_proto(src).unwrap();
        let base = lint_schema(&schema, &LintConfig::default());
        let parent = base.types.iter().find(|t| t.type_name == "Parent").unwrap();
        assert!(parent.composed_ceiling > parent.watchdog_ceiling);
        // Budget in the gap: own ceiling fits, composition does not.
        let gap_budget = parent.watchdog_ceiling;
        let r = lint_schema(
            &schema,
            &LintConfig {
                watchdog_budget: Some(gap_budget),
                ..LintConfig::default()
            },
        );
        let d: Vec<_> = r.with_code(DiagCode::ComposedEnvelope).collect();
        assert_eq!(d.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(d[0].message_type, "Parent");
        // PA010 must not also fire for Parent at this budget.
        assert!(!r
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::WatchdogBudget && d.message_type == "Parent"));
        // Budget below the own ceiling: PA010 owns the finding, not PA015.
        let r = lint_schema(
            &schema,
            &LintConfig {
                watchdog_budget: Some(parent.watchdog_ceiling - 1),
                ..LintConfig::default()
            },
        );
        assert!(!r
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ComposedEnvelope && d.message_type == "Parent"));
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::WatchdogBudget && d.message_type == "Parent"));
        // Budget above the composed ceiling: silence.
        let r = lint_schema(
            &schema,
            &LintConfig {
                watchdog_budget: Some(parent.composed_ceiling),
                ..LintConfig::default()
            },
        );
        assert_eq!(r.with_code(DiagCode::ComposedEnvelope).count(), 0);
        // No budget configured: the check is off.
        assert_eq!(base.with_code(DiagCode::ComposedEnvelope).count(), 0);
    }

    #[test]
    fn json_carries_amplification_and_composed_ceiling() {
        let r = lint("message Point { optional int32 x = 1; optional int32 y = 2; }");
        let root = parsed_json(&r);
        let t = &root.get("types").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            t.get("amplification"),
            Some(&Json::fixed(r.types[0].amplification, 3))
        );
        assert_eq!(
            t.get("composed_ceiling").and_then(Json::as_u64),
            Some(r.types[0].composed_ceiling)
        );
    }

    #[test]
    fn watchdog_budget_fires_only_when_ceiling_exceeds_budget() {
        let schema =
            parse_proto("message Blob { optional bytes payload = 1; optional uint64 id = 2; }")
                .unwrap();
        // No budget configured: the check is off.
        let silent = lint_schema(&schema, &LintConfig::default());
        assert!(
            !silent
                .diagnostics
                .iter()
                .any(|d| d.code == DiagCode::WatchdogBudget),
            "PA010 must not fire with no budget configured"
        );
        let ceiling = silent.types[0].watchdog_ceiling;
        assert!(ceiling > 0);
        // Budget at the ceiling: a worst-case command just fits.
        let fits = lint_schema(
            &schema,
            &LintConfig {
                watchdog_budget: Some(ceiling),
                ..LintConfig::default()
            },
        );
        assert!(!fits
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::WatchdogBudget));
        // One cycle short: PA010 warns.
        let starved = lint_schema(
            &schema,
            &LintConfig {
                watchdog_budget: Some(ceiling - 1),
                ..LintConfig::default()
            },
        );
        let diag = starved
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::WatchdogBudget)
            .expect("PA010 fires when the ceiling exceeds the budget");
        assert_eq!(diag.severity, Severity::Warn);
        assert!(diag.detail.contains("watchdog budget"));
    }

    #[test]
    fn verified_lint_is_clean_and_carries_table_stats() {
        let schema =
            parse_proto("message Point { optional int32 x = 1; optional int32 y = 2; }").unwrap();
        let r = lint_schema_verified(&schema, &LintConfig::default());
        assert!(r.is_clean(), "unexpected: {:?}", r.diagnostics);
        assert_eq!(r.types[0].table_kind, TableKind::Dense);
        assert!(r.types[0].table_bytes > 0);
        let json = r.render_json();
        assert!(json.contains("\"table_kind\": \"dense\""));
        assert!(json.contains("\"table_bytes\": "));
    }

    #[test]
    fn verified_lint_fires_pa020_under_a_tight_budget() {
        let schema =
            parse_proto("message Point { optional int32 x = 1; optional int32 y = 2; }").unwrap();
        let tight = LintConfig {
            dense_table_budget: 1,
            ..LintConfig::default()
        };
        let r = lint_schema_verified(&schema, &tight);
        let d: Vec<_> = r.with_code(DiagCode::TableBlowup).collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Warn);
        assert_eq!(d[0].message_type, "Point");
    }

    #[test]
    fn violations_map_onto_diagnostics_with_overrides() {
        let violations = vec![
            protoacc_verify::Violation {
                property: protoacc_verify::Property::SlotOverlap,
                type_name: "T".to_string(),
                detail: "slots alias".to_string(),
            },
            protoacc_verify::Violation {
                property: protoacc_verify::Property::AdtEquivalence,
                type_name: "T".to_string(),
                detail: "adt diverges".to_string(),
            },
        ];
        let diags = violations_to_diagnostics(&violations, &LintConfig::default());
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].code, DiagCode::SlotOverlap);
        assert_eq!(diags[0].severity, Severity::Deny);
        assert_eq!(diags[1].code, DiagCode::AdtEquivalence);
        let mut quiet = LintConfig::default();
        quiet
            .overrides
            .push((DiagCode::SlotOverlap, Severity::Allow));
        let diags = violations_to_diagnostics(&violations, &quiet);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::AdtEquivalence);
    }
}
