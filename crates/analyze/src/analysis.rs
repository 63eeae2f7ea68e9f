//! The analysis passes: per-query lints, per-pair fragment checks, and the
//! program-level driver behind `diophantus check`.

use std::collections::BTreeMap;

use dioph_cq::{line_column, parse_program_spanned, Span, SpannedQuery, Term};

use crate::classify::{classify_pair, FragmentClass};
use crate::cost::{estimate_cost, CostEstimate};
use crate::registry::{registered, LintConfig, Severity};

/// Advisory threshold for `D030 probe-space-blowup`: candidate-tuple counts
/// beyond this make `--algorithm all-probes` enumeration-bound (the default
/// most-general algorithm is unaffected).
pub const PROBE_SPACE_NOTE_THRESHOLD: u128 = 10_000;

/// Advisory threshold for `D031 lp-dimension-warning`, in bounded tableau
/// cells (`unknowns × rows`). The row bound counts containment mappings, so
/// it grows exponentially in the containing query; past 1200 cells the
/// system is far larger than the paper's examples. The value dates from a
/// slower rational-pivoting kernel and is kept so diagnostics stay stable.
pub const LP_DIMENSION_NOTE_THRESHOLD: u128 = 1_200;

/// One emitted diagnostic: a stable code, the effective severity after
/// configuration, a message, and a source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable lint code (`D001`, …).
    pub code: &'static str,
    /// The lint's kebab-case name (`unsafe-query`, …).
    pub name: &'static str,
    /// Effective severity after `--deny/--allow/-W` configuration.
    pub severity: Severity,
    /// Human-readable description of the defect.
    pub message: String,
    /// Name of the query the diagnostic concerns (empty for file-level
    /// diagnostics like `D000 syntax-error`).
    pub query: String,
    /// 1-based line of the primary span in the analyzed source.
    pub line: usize,
    /// 1-based column (in characters) of the primary span.
    pub column: usize,
    /// The primary byte span, when one exists (`D000` has only a point
    /// position reported by the parser).
    pub span: Option<Span>,
}

impl Diagnostic {
    /// Renders the diagnostic in the CLI's one-line human format:
    /// `file:line:column: severity[code] name: message`.
    pub fn render(&self, file: &str) -> String {
        format!(
            "{file}:{}:{}: {}[{}] {}: {}",
            self.line, self.column, self.severity, self.code, self.name, self.message
        )
    }
}

/// The analysis of one `(containee, containing)` pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PairAnalysis {
    /// 1-based pair index in the program.
    pub index: usize,
    /// Name of the containee (left side of `⊑b`).
    pub containee: String,
    /// Name of the containing query (right side of `⊑b`).
    pub containing: String,
    /// The decidability-matrix cell the pair falls in.
    pub fragment: FragmentClass,
    /// Static cost bounds — present exactly for paper-decidable pairs.
    pub cost: Option<CostEstimate>,
    /// Diagnostics scoped to this pair, in emission order.
    pub diagnostics: Vec<Diagnostic>,
}

/// The analysis of a whole program (one source file or stdin stream).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ProgramAnalysis {
    /// Program-level diagnostics (syntax errors, arity mismatches across
    /// queries, an unpaired trailing query).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-pair analyses, in input order.
    pub pairs: Vec<PairAnalysis>,
}

impl ProgramAnalysis {
    /// All diagnostics — program-level first, then per pair in order.
    pub fn all_diagnostics(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().chain(self.pairs.iter().flat_map(|p| p.diagnostics.iter()))
    }

    /// The worst emitted severity, if anything was emitted.
    pub fn max_severity(&self) -> Option<Severity> {
        self.all_diagnostics().map(|d| d.severity).max()
    }

    /// `(errors, warnings, notes)` counts over all diagnostics.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for d in self.all_diagnostics() {
            match d.severity {
                Severity::Error => counts.0 += 1,
                Severity::Warning => counts.1 += 1,
                Severity::Note | Severity::Allow => counts.2 += 1,
            }
        }
        counts
    }
}

/// Which side of `⊑b` a query sits on; several lints weaken (or only
/// apply) on one side.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Containee,
    Containing,
}

struct Emitter<'a> {
    source: &'a str,
    config: &'a LintConfig,
    out: Vec<Diagnostic>,
}

impl<'a> Emitter<'a> {
    fn new(source: &'a str, config: &'a LintConfig) -> Self {
        Emitter { source, config, out: Vec::new() }
    }

    /// Emits `code` at its registered default severity.
    fn emit(&mut self, code: &'static str, query: &str, span: Span, message: String) {
        let lint = registered(code);
        self.emit_at(code, lint.default_severity, query, span, message);
    }

    /// Emits `code` at a situational severity (still subject to explicit
    /// `--deny/--allow/-W` overrides and `--deny warnings`).
    fn emit_at(
        &mut self,
        code: &'static str,
        situational: Severity,
        query: &str,
        span: Span,
        message: String,
    ) {
        let lint = registered(code);
        let severity = self.config.effective(lint, situational);
        if severity == Severity::Allow {
            return;
        }
        let (line, column) = line_column(self.source, span.start);
        self.out.push(Diagnostic {
            code,
            name: lint.name,
            severity,
            message,
            query: query.to_string(),
            line,
            column,
            span: Some(span),
        });
    }
}

fn sorted_join(names: &[String]) -> String {
    names.join(", ")
}

/// The engine-admission (fragment) lints for a query in `role` position,
/// in the exact order `validate_containee` checks them — empty body, then
/// projections, then safety — so the first emitted diagnostic always
/// matches the `ContainmentError` the engine would raise.
fn fragment_lints(emitter: &mut Emitter<'_>, sq: &SpannedQuery, role: Role) {
    let query = &sq.query;
    let name = query.name();
    if query.distinct_atom_count() == 0 {
        let severity = if role == Role::Containee { Severity::Error } else { Severity::Warning };
        emitter.emit_at(
            "D003",
            severity,
            name,
            sq.spans.span,
            format!("query {name} has an empty body"),
        );
        // An empty body has no variables: neither remaining check can fire.
        return;
    }
    if role == Role::Containee {
        let existential: Vec<String> = query.existential_variables().into_iter().collect();
        if !existential.is_empty() {
            let span =
                existential.first().and_then(|v| sq.variable_span(v)).unwrap_or(sq.spans.span);
            emitter.emit(
                "D002",
                name,
                span,
                format!(
                    "the containee must be projection-free; existential variables: {}",
                    sorted_join(&existential)
                ),
            );
        }
    }
    if !query.is_safe() {
        let body = query.body_variables();
        let missing: Vec<String> =
            query.head_variables().into_iter().filter(|v| !body.contains(v)).collect();
        let span =
            missing.first().and_then(|v| sq.head_variable_span(v)).unwrap_or(sq.spans.name_span);
        let severity = if role == Role::Containee { Severity::Error } else { Severity::Warning };
        emitter.emit_at(
            "D001",
            severity,
            name,
            span,
            format!(
                "query {name} is unsafe: head variables {} do not occur in the body",
                sorted_join(&missing)
            ),
        );
    }
}

/// Style lints that apply to any query regardless of position: `D010`
/// unused-variable, `D011` cartesian-product-body, `D013` duplicate-atom.
fn style_lints(emitter: &mut Emitter<'_>, sq: &SpannedQuery) {
    let name = sq.query.name().to_string();

    // D010: a body variable written exactly once in the whole query. (A
    // head variable missing from the body is D001, not D010.)
    let mut occurrences: BTreeMap<&str, (usize, Span)> = BTreeMap::new();
    let head_terms = sq.query.head().iter().zip(&sq.spans.head_term_spans);
    let body_terms =
        sq.spans.atoms.iter().flat_map(|occ| occ.atom.terms().iter().zip(&occ.term_spans));
    for (term, span) in head_terms.chain(body_terms) {
        if let Term::Var(v) = term {
            let entry = occurrences.entry(v.as_str()).or_insert((0, *span));
            entry.0 += 1;
        }
    }
    let head_vars = sq.query.head_variables();
    for (var, (count, span)) in &occurrences {
        if *count == 1 && !head_vars.contains(*var) {
            emitter.emit(
                "D010",
                &name,
                *span,
                format!("variable {var} occurs only once; it joins nothing"),
            );
        }
    }

    // D011: the body's variable-bearing atoms split into ≥ 2 groups that
    // share no variables (ground atoms join nothing and are ignored — the
    // three-colorability reduction legitimately conjoins a ground triangle
    // with a variable-bearing graph component).
    let with_vars: Vec<(usize, Vec<String>)> = sq
        .spans
        .atoms
        .iter()
        .enumerate()
        .filter_map(|(i, occ)| {
            let vars: Vec<String> = occ.atom.variables().into_iter().collect();
            if vars.is_empty() {
                None
            } else {
                Some((i, vars))
            }
        })
        .collect();
    if let Some((first, rest)) = with_vars.split_first() {
        // Grow the connected component of the first variable-bearing atom.
        let mut component_vars: std::collections::BTreeSet<String> =
            first.1.iter().cloned().collect();
        let mut pending: Vec<&(usize, Vec<String>)> = rest.iter().collect();
        loop {
            let (connected, disconnected): (Vec<_>, Vec<_>) = pending
                .into_iter()
                .partition(|(_, vars)| vars.iter().any(|v| component_vars.contains(v)));
            if connected.is_empty() {
                pending = disconnected;
                break;
            }
            for (_, vars) in &connected {
                component_vars.extend(vars.iter().cloned());
            }
            pending = disconnected;
        }
        if let Some((index, _)) = pending.first() {
            let occ = &sq.spans.atoms[*index];
            emitter.emit(
                "D011",
                &name,
                occ.span,
                format!(
                    "the body of {name} is a cartesian product: atom {} shares no variables \
                     with the atoms before it",
                    occ.atom
                ),
            );
        }
    }

    // D013: the same atom written several times; the parser accumulates
    // multiplicities silently, which is rarely what the author meant.
    let mut seen: BTreeMap<&dioph_cq::Atom, usize> = BTreeMap::new();
    for occ in &sq.spans.atoms {
        *seen.entry(&occ.atom).or_insert(0) += 1;
    }
    for occ in &sq.spans.atoms {
        // Report at the *second* occurrence of each duplicated atom.
        if seen.get(&occ.atom) == Some(&0) {
            continue;
        }
        let count = seen[&occ.atom];
        if count > 1 {
            let second = sq
                .spans
                .atoms
                .iter()
                .filter(|o| o.atom == occ.atom)
                .nth(1)
                .expect("count > 1 implies a second occurrence");
            let total: u64 =
                sq.spans.atoms.iter().filter(|o| o.atom == occ.atom).map(|o| o.multiplicity).sum();
            emitter.emit(
                "D013",
                &name,
                second.span,
                format!(
                    "atom {} is written {count} times; the multiplicities accumulate to {} \
                     (write {}^{total}(…) to make the bag explicit)",
                    occ.atom,
                    total,
                    occ.atom.relation()
                ),
            );
        }
        seen.insert(&occ.atom, 0);
    }
}

/// Program-level lint: `D012` predicate-arity-mismatch across all queries
/// of the program (heads included — a head predicate is not a body
/// relation, so only body atoms are compared).
fn arity_lints(emitter: &mut Emitter<'_>, queries: &[SpannedQuery]) {
    let mut first_use: BTreeMap<String, (usize, String, usize, usize)> = BTreeMap::new();
    for sq in queries {
        for occ in &sq.spans.atoms {
            let arity = occ.atom.terms().len();
            let (line, column) = line_column(emitter.source, occ.relation_span.start);
            match first_use.get(occ.atom.relation()) {
                None => {
                    first_use.insert(
                        occ.atom.relation().to_string(),
                        (arity, sq.query.name().to_string(), line, column),
                    );
                }
                Some((expected, query0, line0, column0)) => {
                    if arity != *expected {
                        let message = format!(
                            "relation {} is used with arity {arity}, but query {query0} uses \
                             it with arity {expected} (line {line0}, column {column0})",
                            occ.atom.relation()
                        );
                        emitter.emit("D012", sq.query.name(), occ.relation_span, message);
                    }
                }
            }
        }
    }
}

/// The engine-admission diagnostics for a query about to be used as a
/// **containee** — the static mirror of `validate_containee` in
/// `dioph-containment`, used by `decide`/`equiv`/`batch` to attach file,
/// line and column to what would otherwise be a span-less
/// `ContainmentError`. Returns only error-level diagnostics (the ones the
/// engine would reject), in the engine's check order.
pub fn containee_fragment_diagnostics(
    sq: &SpannedQuery,
    source: &str,
    config: &LintConfig,
) -> Vec<Diagnostic> {
    let mut emitter = Emitter::new(source, config);
    fragment_lints(&mut emitter, sq, Role::Containee);
    emitter.out.retain(|d| d.severity == Severity::Error);
    emitter.out
}

/// Analyzes already-parsed queries (with spans) against their `source`
/// text. Queries are paired consecutively, as everywhere in the CLI.
fn analyze_pairs(queries: &[SpannedQuery], source: &str, config: &LintConfig) -> ProgramAnalysis {
    let mut program = Emitter::new(source, config);
    arity_lints(&mut program, queries);
    if !queries.len().is_multiple_of(2) {
        let last = queries.last().expect("odd length is at least one");
        let message = format!(
            "the program holds {} queries, but they are decided in consecutive \
             (containee, containing) pairs; query {} is unpaired",
            queries.len(),
            last.query.name()
        );
        program.emit("D004", last.query.name(), last.spans.name_span, message);
    }

    let mut pairs = Vec::new();
    for (i, chunk) in queries.chunks_exact(2).enumerate() {
        let (containee, containing) = (&chunk[0], &chunk[1]);
        let mut emitter = Emitter::new(source, config);
        fragment_lints(&mut emitter, containee, Role::Containee);
        fragment_lints(&mut emitter, containing, Role::Containing);
        style_lints(&mut emitter, containee);
        style_lints(&mut emitter, containing);

        let fragment = classify_pair(&containee.query, &containing.query);
        let cost = fragment.engine_decidable().then(|| {
            let estimate = estimate_cost(&containee.query, &containing.query);
            if estimate.probe_space.is_some_and(|n| n > PROBE_SPACE_NOTE_THRESHOLD) {
                emitter.emit(
                    "D030",
                    containee.query.name(),
                    containee.spans.name_span,
                    format!(
                        "the probe space of {} has {} candidate tuples (> {}); \
                         --algorithm all-probes would enumerate them all, the default \
                         most-general algorithm does not",
                        containee.query.name(),
                        estimate.probe_space.expect("checked above"),
                        PROBE_SPACE_NOTE_THRESHOLD
                    ),
                );
            }
            if estimate.lp_cells_bound() > LP_DIMENSION_NOTE_THRESHOLD {
                emitter.emit(
                    "D031",
                    containee.query.name(),
                    containee.spans.name_span,
                    format!(
                        "the strict homogeneous system may reach {} unknowns × {} rows \
                         (> {} tableau cells); expect a seconds-scale LP solve",
                        estimate.lp_unknowns, estimate.lp_rows_bound, LP_DIMENSION_NOTE_THRESHOLD
                    ),
                );
            }
            estimate
        });

        pairs.push(PairAnalysis {
            index: i + 1,
            containee: containee.query.name().to_string(),
            containing: containing.query.name().to_string(),
            fragment,
            cost,
            diagnostics: emitter.out,
        });
    }

    ProgramAnalysis { diagnostics: program.out, pairs }
}

/// Parses and analyzes a source text in one step — the entry point behind
/// `diophantus check`. A parse failure is itself a diagnostic (`D000
/// syntax-error`) rather than an error return, so a linter driver can
/// treat every outcome uniformly.
pub fn analyze_source(source: &str, config: &LintConfig) -> ProgramAnalysis {
    match parse_program_spanned(source) {
        Ok(queries) => analyze_pairs(&queries, source, config),
        Err(e) => {
            let lint = registered("D000");
            ProgramAnalysis {
                diagnostics: vec![Diagnostic {
                    code: lint.code,
                    name: lint.name,
                    severity: config.effective(lint, lint.default_severity),
                    message: e.message().to_string(),
                    query: String::new(),
                    line: e.line(),
                    column: e.column(),
                    span: None,
                }],
                pairs: Vec::new(),
            }
        }
    }
}

/// Convenience for engine front-ends: the first engine-blocking diagnostic
/// of a containee, rendered as `line:column: error[code] name: message`
/// (relative positions — the caller prefixes the file name or job id).
pub fn first_fragment_error(containee: &SpannedQuery, source: &str) -> Option<String> {
    let config = LintConfig::new();
    containee_fragment_diagnostics(containee, source, &config).into_iter().next().map(|d| {
        format!("{}:{}: {}[{}] {}: {}", d.line, d.column, d.severity, d.code, d.name, d.message)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(source: &str) -> ProgramAnalysis {
        analyze_source(source, &LintConfig::new())
    }

    fn analyze_with(source: &str, f: impl FnOnce(&mut LintConfig)) -> ProgramAnalysis {
        let mut config = LintConfig::new();
        f(&mut config);
        analyze_source(source, &config)
    }

    #[test]
    fn clean_pair_has_no_diagnostics_and_a_cost_estimate() {
        let analysis = analyze(
            "q1(x1, x2) <- P^3(x2, x2), R^2(x1, x2).\n\
             q2(x1, x2) <- P^3(x2, x2), R^3(x1, x2).",
        );
        assert_eq!(analysis.max_severity(), None);
        assert_eq!(analysis.pairs.len(), 1);
        let pair = &analysis.pairs[0];
        assert_eq!(pair.fragment, FragmentClass::PaperDecidable);
        let cost = pair.cost.expect("paper-decidable pairs carry a cost estimate");
        assert_eq!(cost.probe_space, Some(4)); // |{x̂1, x̂2}|²
        assert_eq!(cost.lp_unknowns, 2);
    }

    #[test]
    fn d000_syntax_error_carries_the_parser_position() {
        let analysis = analyze("q(x <- R(x, x).");
        assert_eq!(analysis.pairs.len(), 0);
        let d = &analysis.diagnostics[0];
        assert_eq!(d.code, "D000");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!((d.line, d.column), (1, 5));
        assert_eq!(analysis.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn d001_unsafe_containee_points_at_the_head_variable() {
        let source = "q(x, z) <- R(x, x).\np(x, z) <- R(x, z).";
        let analysis = analyze(source);
        let d = analysis.pairs[0]
            .diagnostics
            .iter()
            .find(|d| d.code == "D001")
            .expect("unsafe containee fires D001");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("head variables z do not occur"), "{}", d.message);
        assert_eq!(d.span.unwrap().slice(source), "z");
        assert_eq!((d.line, d.column), (1, 6));
    }

    #[test]
    fn d001_is_a_warning_on_the_containing_side() {
        let source = "q(x) <- R(x, x).\np(x, z) <- R(x, x).";
        let analysis = analyze(source);
        let d = analysis.pairs[0]
            .diagnostics
            .iter()
            .find(|d| d.code == "D001")
            .expect("unsafe containing query still fires D001");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!((d.line, d.column), (2, 6));
        // --deny warnings promotes it.
        let analysis = analyze_with(source, super::super::registry::LintConfig::deny_warnings);
        assert_eq!(analysis.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn d002_points_at_the_first_existential_variable() {
        let source = "q(x) <- R(x, y1), S(y1, y0).\np(x) <- R(x, x).";
        let analysis = analyze(source);
        let d = analysis.pairs[0].diagnostics.first().expect("D002 fires");
        assert_eq!(d.code, "D002");
        // Existential variables are listed sorted (y0, y1); the span points
        // at the first listed one's first occurrence.
        assert!(d.message.contains("y0, y1"), "{}", d.message);
        assert_eq!(d.span.unwrap().slice(source), "y0");
        assert_eq!((d.line, d.column), (1, 25));
    }

    #[test]
    fn d003_empty_body_is_positional() {
        let analysis = analyze("q() <- true.\np() <- R('a', 'a').");
        let d = &analysis.pairs[0].diagnostics[0];
        assert_eq!((d.code, d.severity), ("D003", Severity::Error));
        assert!(d.message.contains("empty body"));
        // Containing side: a warning only.
        let analysis = analyze("q() <- R('a', 'a').\np() <- true.");
        let d = &analysis.pairs[0].diagnostics[0];
        assert_eq!((d.code, d.severity), ("D003", Severity::Warning));
    }

    #[test]
    fn d004_fires_on_unpaired_queries() {
        let analysis = analyze("q(x) <- R(x, x).\np(x) <- R(x, x).\nr(x) <- R(x, x).");
        let d = analysis.diagnostics.iter().find(|d| d.code == "D004").expect("odd count");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("query r is unpaired"), "{}", d.message);
        assert_eq!((d.line, d.column), (3, 1));
        // The complete pair is still analyzed.
        assert_eq!(analysis.pairs.len(), 1);
    }

    #[test]
    fn d010_is_allow_by_default_and_points_at_the_singleton() {
        let source = "q(x) <- R(x, y1), P(x, x).\np(x) <- R(x, x).";
        // Default: D002 fires (y1 existential), D010 stays silent.
        let analysis = analyze(source);
        assert!(analysis.pairs[0].diagnostics.iter().all(|d| d.code != "D010"));
        // Opted in with -W unused-variable.
        let analysis =
            analyze_with(source, |c| c.set("unused-variable", Severity::Warning).unwrap());
        let d = analysis.pairs[0]
            .diagnostics
            .iter()
            .find(|d| d.code == "D010")
            .expect("opted-in D010 fires");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("y1"), "{}", d.message);
        assert_eq!(d.span.unwrap().slice(source), "y1");
        assert_eq!((d.line, d.column), (1, 14));
    }

    #[test]
    fn d010_ignores_head_variables_and_repeated_variables() {
        // x occurs once in the body but is a head variable (that is D001
        // territory when missing, nothing when present once).
        let source = "q(x) <- R(x, y1), S(y1, y1).\np(x) <- R(x, x).";
        let analysis = analyze_with(source, |c| c.set("D010", Severity::Warning).unwrap());
        assert!(
            analysis.pairs[0].diagnostics.iter().all(|d| d.code != "D010"),
            "x is a head variable and y1 repeats: no D010"
        );
    }

    #[test]
    fn d011_fires_on_variable_disjoint_groups_and_skips_ground_atoms() {
        let source = "q(x, y) <- R(x, x), S(y, y).\np(x, y) <- R(x, y), S(y, x).";
        let analysis = analyze_with(source, |c| c.set("D011", Severity::Warning).unwrap());
        let d = analysis.pairs[0]
            .diagnostics
            .iter()
            .find(|d| d.code == "D011")
            .expect("disjoint body groups fire D011");
        assert_eq!(d.query, "q");
        assert_eq!(d.span.unwrap().slice(source), "S(y, y)");
        // A ground component does not count as a group: the 3-colorability
        // shape (ground triangle ∧ variable graph) stays clean.
        let threecol = "qt() <- E('a', 'b'), E('b', 'a').\n\
                        qtg() <- E('a', 'b'), E('b', 'a'), E(v0, v1), E(v1, v0).";
        let analysis = analyze_with(threecol, |c| c.set("D011", Severity::Warning).unwrap());
        assert!(
            analysis.pairs[0].diagnostics.iter().all(|d| d.code != "D011"),
            "ground atoms join nothing and must not split the body"
        );
    }

    #[test]
    fn d012_reports_the_conflicting_arity_and_the_first_use() {
        let source = "q(x) <- R(x, x).\np(x) <- R(x, x, x).";
        let analysis = analyze(source);
        let d = analysis.diagnostics.iter().find(|d| d.code == "D012").expect("arity clash");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.query, "p");
        assert!(d.message.contains("arity 3") && d.message.contains("arity 2"), "{}", d.message);
        assert!(d.message.contains("line 1, column 9"), "{}", d.message);
        assert_eq!((d.line, d.column), (2, 9));
    }

    #[test]
    fn d013_points_at_the_second_occurrence_and_sums_multiplicities() {
        let source = "q(x) <- R^2(x, x), S(x, x), R(x, x).\np(x) <- R(x, x).";
        let analysis = analyze(source);
        let d = analysis.pairs[0].diagnostics.iter().find(|d| d.code == "D013").expect("dup");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("written 2 times"), "{}", d.message);
        assert!(d.message.contains("accumulate to 3"), "{}", d.message);
        assert!(d.message.contains("R^3"), "{}", d.message);
        assert_eq!(d.span.unwrap().slice(source), "R(x, x)");
        assert_eq!((d.line, d.column), (1, 29));
        // Fires once per duplicated atom, not once per occurrence.
        assert_eq!(analysis.pairs[0].diagnostics.iter().filter(|d| d.code == "D013").count(), 1);
    }

    #[test]
    fn d030_notes_large_probe_spaces() {
        // 7 head variables over a 7-element domain: 7^7 = 823543 > 10000.
        let head = "x0, x1, x2, x3, x4, x5, x6";
        let body = "R(x0, x1), R(x1, x2), R(x2, x3), R(x3, x4), R(x4, x5), R(x5, x6)";
        let source = format!("q({head}) <- {body}.\np({head}) <- {body}.");
        let analysis = analyze(&source);
        let d = analysis.pairs[0].diagnostics.iter().find(|d| d.code == "D030").expect("note");
        assert_eq!(d.severity, Severity::Note);
        assert!(d.message.contains("823543"), "{}", d.message);
        // Notes do not fail the run: exit code stays 0.
        assert_eq!(analysis.max_severity().map(Severity::exit_code), Some(0));
    }

    #[test]
    fn d031_notes_large_lp_bounds() {
        // A path of length 6: 6 unknowns, existential-free containing side
        // bounds rows by atom images 6^6 = 46656; 6 × min(7^0 …) — use the
        // self-pair, whose bound is min(|adom|^0, 6^6) = 1? No: the path
        // self-pair has no existential variables, so bound_vars = 1. Use a
        // containing query with existentials instead.
        let source = "q(x0) <- R(x0, x0).\np(x0) <- R(x0, z0).";
        let analysis = analyze(source);
        assert!(analysis.pairs[0].diagnostics.iter().all(|d| d.code != "D031"));
        // Force the threshold with a wide containee and existential vars.
        let head: Vec<String> = (0..8).map(|i| format!("x{i}")).collect();
        let containee_body: Vec<String> = (0..7).map(|i| format!("R(x{i}, x{})", i + 1)).collect();
        let containing_body: Vec<String> = (0..7).map(|i| format!("R(z{i}, z{})", i + 1)).collect();
        let source = format!(
            "q({}) <- {}.\np({}) <- {}, {}.",
            head.join(", "),
            containee_body.join(", "),
            head.join(", "),
            containee_body.join(", "),
            containing_body.join(", ")
        );
        let analysis = analyze(&source);
        let d = analysis.pairs[0].diagnostics.iter().find(|d| d.code == "D031").expect("note");
        assert_eq!(d.severity, Severity::Note);
        assert!(d.message.contains("7 unknowns"), "{}", d.message);
    }

    #[test]
    fn containee_fragment_diagnostics_mirror_validate_containee_order() {
        use dioph_cq::parse_program_spanned;
        let config = LintConfig::new();
        // Empty body wins over everything (the body has no variables).
        let source = "e(x) <- true.";
        let queries = parse_program_spanned(source).unwrap();
        let ds = containee_fragment_diagnostics(&queries[0], source, &config);
        // An empty body with a head variable is *both* empty and unsafe;
        // the first diagnostic matches the engine's first error (D003).
        assert_eq!(ds[0].code, "D003");
        // Projections before safety.
        let source = "q(x, z) <- R(x, y).";
        let queries = parse_program_spanned(source).unwrap();
        let ds = containee_fragment_diagnostics(&queries[0], source, &config);
        assert_eq!(ds[0].code, "D002");
        assert_eq!(ds[1].code, "D001");
        // A clean containee yields nothing.
        let source = "q(x) <- R(x, x).";
        let queries = parse_program_spanned(source).unwrap();
        assert!(containee_fragment_diagnostics(&queries[0], source, &config).is_empty());
    }

    #[test]
    fn first_fragment_error_renders_relative_positions() {
        use dioph_cq::parse_program_spanned;
        let source = "q(x) <- R(x, y).\np(x) <- R(x, x).";
        let queries = parse_program_spanned(source).unwrap();
        let rendered = first_fragment_error(&queries[0], source).expect("D002 fires");
        assert_eq!(
            rendered,
            "1:14: error[D002] containee-not-projection-free: the containee must be \
             projection-free; existential variables: y"
        );
        assert!(first_fragment_error(&queries[1], source).is_none());
    }

    #[test]
    fn render_formats_file_line_column() {
        let analysis = analyze("q(x, z) <- R(x, x).\np(x) <- R(x, x).");
        let d = analysis.pairs[0].diagnostics.first().unwrap();
        let line = d.render("examples/test.dl");
        assert!(line.starts_with("examples/test.dl:1:6: error[D001] unsafe-query: "), "{line}");
    }

    #[test]
    fn counts_tally_by_severity() {
        let source = "q(x) <- R(x, x), R(x, x).\np(x, z) <- R(x, x).";
        let analysis = analyze(source);
        let (errors, warnings, notes) = analysis.counts();
        assert_eq!((errors, warnings, notes), (0, 2, 0), "D013 + containing-side D001");
        let analysis = analyze_with(source, super::super::registry::LintConfig::deny_warnings);
        assert_eq!(analysis.counts().0, 2);
    }
}
