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
//! Every code, with its name, default severity and the hardware limit it
//! guards, is declared once as [`DiagCode`] (in `protoacc-absint`,
//! re-exported here). PA007–PA009 are *sanitizer* codes: they are never
//! produced by [`lint_schema`] itself but by replaying a serving-model
//! trace through [`protoacc_absint::sanitize`] and mapping the findings
//! with [`findings_to_diagnostics`], so dynamic violations flow through the
//! same severity/exit-code machinery as static findings. PA016–PA020 come
//! from the `protoacc-verify` translation validator
//! ([`lint_schema_verified`]).
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
use protoacc_absint::{amplification_bound, composed_service_ceiling, Envelope, Finding, Interval};
pub use protoacc_absint::{DiagCode, Severity};
use protoacc_fastpath::{CompiledSchema, TableKind};
use protoacc_mem::{Cycles, MemConfig};
use protoacc_runtime::{MessageLayouts, MessageValue};
use protoacc_schema::density::CROSSOVER_DENSITY;
use protoacc_schema::{FieldType, Label, MessageId, Schema};
use protoacc_trace::json::{self, Json};
use protoacc_wire::{FieldKey, MAX_VARINT_LEN};

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

/// Maximum wire length (bytes) a deployment admits per message: the wire
/// length the per-type watchdog ceiling (PA010) and the composed ceiling
/// (PA015) are evaluated at, and PA012's example message size.
pub const MAX_WIRE_BYTES: u64 = 4096;

/// PA012 threshold: maximum tolerated decoded-footprint growth in bytes per
/// wire byte. One cache line materialized per wire byte consumed; past
/// that, a small hostile message inflates memory orders of magnitude faster
/// than it streams in.
pub const AMPLIFICATION_LIMIT: f64 = 64.0;

/// PA013 threshold: widest tolerated field-number span per type. Past it,
/// span-proportional structures (16-byte ADT entries, hasbits words,
/// serializer scans) cross the megabyte scale for a single message type.
pub const FRAGMENTATION_SPAN: u64 = 65536;

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
    /// Watchdog cycle budget the serve layer is configured with. When set,
    /// any type whose static service ceiling at [`MAX_WIRE_BYTES`] exceeds
    /// it fires PA010. `None` disables the check.
    pub watchdog_budget: Option<Cycles>,
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
            watchdog_budget: None,
            dense_table_budget: protoacc_verify::DEFAULT_DENSE_TABLE_BUDGET,
            overrides: Vec::new(),
        }
    }
}

impl LintConfig {
    /// A diagnostic of `code` at its effective severity (`default` unless
    /// overridden), or `None` when that severity is `Allow`. The default
    /// is the caller's because one code can have variants of different
    /// gravity (PA001 denies on provably deep finite nesting but only
    /// warns on data-dependent recursion).
    fn diagnostic(
        &self,
        code: DiagCode,
        default: Severity,
        message_type: &str,
        field: Option<String>,
        detail: String,
    ) -> Option<Diagnostic> {
        let severity = self
            .overrides
            .iter()
            .rev()
            .find(|(c, _)| *c == code)
            .map_or(default, |(_, s)| *s);
        (severity != Severity::Allow).then(|| Diagnostic {
            code,
            severity,
            message_type: message_type.to_string(),
            field,
            detail,
        })
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
    /// (envelope upper plus RoCC dispatch) at [`MAX_WIRE_BYTES`] of wire
    /// input, single-tenant. No correct single-tenant command on
    /// this type can run longer, so a serve deployment programs its
    /// watchdog with exactly this value.
    pub watchdog_ceiling: Cycles,
    /// Worst-case decoded-footprint growth in bytes per wire byte (the
    /// slope of [`protoacc_absint::AmplificationBound`]); PA012 compares it
    /// against [`AMPLIFICATION_LIMIT`].
    pub amplification: f64,
    /// Cross-message composed service ceiling at [`MAX_WIRE_BYTES`]: the
    /// PA010 ceiling plus the
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
        let watchdog_ceiling = deser_env.service_bounds(MAX_WIRE_BYTES, 1).upper;
        let amplification = amplification_bound(schema, &layouts, id);
        let composed_ceiling = composed_service_ceiling(
            schema,
            &layouts,
            id,
            &config.accel,
            &config.mem,
            MAX_WIRE_BYTES,
        );

        let mut push = |code: DiagCode, default: Severity, field: Option<&str>, detail: String| {
            let field = field.map(str::to_string);
            let d = config.diagnostic(code, default, msg.name(), field, detail);
            report.diagnostics.extend(d);
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
        if layout.defined_fields() > 0 && layout.static_density() < CROSSOVER_DENSITY {
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
                    CROSSOVER_DENSITY
                ),
            );
        }

        // PA013 field-fragmentation: span-proportional structures.
        let span = layout.field_number_span();
        if span > FRAGMENTATION_SPAN {
            push(
                DiagCode::FieldFragmentation,
                Severity::Warn,
                None,
                format!(
                    "{} field(s) span {span} field numbers (limit {}); hasbits \
                     words, dense-mapping tables and serializer span scans all \
                     scale with the span, not the field count",
                    layout.defined_fields(),
                    FRAGMENTATION_SPAN
                ),
            );
        }

        // PA012 wire-amplification: decoded-footprint growth per wire byte.
        if amplification.per_wire_byte > AMPLIFICATION_LIMIT {
            push(
                DiagCode::WireAmplification,
                Severity::Warn,
                None,
                format!(
                    "worst-case decoded footprint grows {:.1} bytes per wire \
                     byte (limit {:.1}): a {}-byte message can materialize \
                     ~{} bytes before the watchdog sees a single cycle overrun",
                    amplification.per_wire_byte,
                    AMPLIFICATION_LIMIT,
                    MAX_WIRE_BYTES,
                    amplification.footprint_upper(MAX_WIRE_BYTES)
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
                         {MAX_WIRE_BYTES} wire bytes, over the configured {budget}-cycle \
                         watchdog budget; a worst-case-but-correct command \
                         would be killed (raise the budget or shrink \
                         `max_wire_bytes`)"
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
                         cycles at {MAX_WIRE_BYTES} wire bytes, over the {budget}-cycle \
                         watchdog budget, even though this type's own ceiling \
                         ({watchdog_ceiling}) fits: the sub-object machinery \
                         of {children} reachable child type(s) composes past \
                         the budget"
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
            let field = f.seq.map(|s| format!("cmd#{s}"));
            let default = f.code.default_severity();
            config.diagnostic(f.code, default, "<serve>", field, f.detail.clone())
        })
        .collect()
}

/// Maps translation-validator [`protoacc_verify::Violation`]s onto the lint
/// diagnostic machinery, so PA016–PA020 share severity overrides and
/// exit-code behavior with the static checks.
pub fn violations_to_diagnostics(
    violations: &[protoacc_verify::Violation],
    config: &LintConfig,
) -> Vec<Diagnostic> {
    violations
        .iter()
        .filter_map(|v| {
            let default = v.code.default_severity();
            config.diagnostic(v.code, default, &v.type_name, None, v.detail.clone())
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
    fn findings_and_violations_map_onto_diagnostics_with_overrides() {
        let finding = |code, seq| Finding {
            code,
            seq,
            detail: "sanitizer detail".to_string(),
        };
        let findings = [
            finding(DiagCode::EnvelopeViolation, Some(3)),
            finding(DiagCode::LifecycleOrder, None),
            finding(DiagCode::ArenaAliasing, Some(7)),
        ];
        let violation = |code| protoacc_verify::Violation {
            code,
            type_name: "T".to_string(),
            detail: "verifier detail".to_string(),
        };
        let violations = [
            violation(DiagCode::SlotOverlap),
            violation(DiagCode::TableBlowup),
        ];
        let shape = |diags: Vec<Diagnostic>| -> Vec<(DiagCode, Severity, String, Option<String>)> {
            diags
                .into_iter()
                .map(|d| (d.code, d.severity, d.message_type, d.field))
                .collect()
        };
        let serve = |code, seq: Option<&str>| {
            (
                code,
                Severity::Deny,
                "<serve>".to_string(),
                seq.map(str::to_string),
            )
        };
        let config = LintConfig::default();
        assert_eq!(
            shape(findings_to_diagnostics(&findings, &config)),
            [
                serve(DiagCode::EnvelopeViolation, Some("cmd#3")),
                serve(DiagCode::LifecycleOrder, None),
                serve(DiagCode::ArenaAliasing, Some("cmd#7")),
            ]
        );
        assert_eq!(
            shape(violations_to_diagnostics(&violations, &config)),
            [
                (DiagCode::SlotOverlap, Severity::Deny, "T".to_string(), None),
                (DiagCode::TableBlowup, Severity::Warn, "T".to_string(), None),
            ]
        );
        // Severity overrides apply to both.
        let mut quiet = LintConfig::default();
        quiet.overrides.extend([
            (DiagCode::ArenaAliasing, Severity::Allow),
            (DiagCode::SlotOverlap, Severity::Allow),
        ]);
        assert_eq!(
            shape(findings_to_diagnostics(&findings, &quiet)),
            [
                serve(DiagCode::EnvelopeViolation, Some("cmd#3")),
                serve(DiagCode::LifecycleOrder, None),
            ]
        );
        assert_eq!(
            shape(violations_to_diagnostics(&violations, &quiet)),
            [(DiagCode::TableBlowup, Severity::Warn, "T".to_string(), None)]
        );
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
}
