//! Static analysis of Overlog programs: the `olgcheck` engine.
//!
//! This module analyzes programs *without executing them*, producing
//! structured [`Diagnostic`]s with byte-accurate source spans. It is also
//! the single implementation of the load-time checks: the planner
//! ([`crate::plan`]) calls [`validate_rule`], [`stratify_rules`] and
//! [`view_conflict`] to decide whether a program is accepted, and the
//! analyzer wraps the very same functions to report findings as
//! diagnostics — load-time rejection and standalone checking cannot
//! disagree.
//!
//! Diagnostic codes (also tabulated in `DESIGN.md`):
//!
//! | code  | meaning |
//! |-------|---------|
//! | E0001 | parse error |
//! | E0002 | reference to an undeclared table |
//! | E0003 | arity mismatch against the declaration |
//! | E0004 | unsafe rule (range restriction violated) |
//! | E0005 | unstratifiable: negation/aggregation in a cycle |
//! | E0006 | aggregate misuse (head keys, aggregate deletion) |
//! | E0007 | table derived both by view and by non-view rules |
//! | E0008 | conflicting redeclaration |
//! | E0009 | `@` location specifier on a non-address column |
//! | E0010 | non-deterministic builtin outside a single-event-body rule |
//! | E0011 | derivation into a timer-driven table |
//! | E0012 | inferred column type conflicts with the declaration |
//! | E0013 | join over disjoint column types can never match |
//! | W0001 | table is never referenced |
//! | W0002 | rule reads a table nothing can fill |
//! | W0003 | variable bound but used only once |
//! | W0004 | duplicate rule name |
//! | W0005 | timer ticks are never consumed |
//! | W0006 | `watch` on a table nothing fills (stale monitoring rule) |
//! | W0007 | dead column: only ever matched as `_`, its value never read |
//! | W0008 | retired with intra-node parallel evaluation (DESIGN.md §14); not reused |
//! | W0009 | retired with intra-node parallel evaluation (DESIGN.md §14); not reused |
//! | W0010 | hot view recomputes wholesale for a fixable reason |
//! | W0011 | hot rule probes an undeclared column that inference pins to `Int` (tagged-`Value` hashing) |
//!
//! Beyond diagnostics, [`report`] runs the semantic passes — monotonicity
//! / CALM classification ([`mono`]), whole-program type inference
//! ([`types`]), cardinality estimation ([`card`]), maintenance strategy
//! ([`maint`]) and kernel specialization ([`kernel`]) — whose results
//! feed the planner and the `olgcheck analyze` subcommand.

pub mod card;
pub mod diag;
pub mod graph;
pub mod kernel;
mod lints;
pub mod maint;
pub mod mono;
pub mod safety;
pub mod stratify;
pub mod types;

pub use diag::{render, render_github, render_json, Diagnostic, LineIndex, Severity, SourceMap};

use crate::ast::{BodyElem, HeadArg, Program, Rule, Span, Statement, TableDecl, TableKind};
use crate::error::OverlogError;
use crate::parser::parse_program;
use crate::value::TypeTag;
use std::collections::{HashMap, HashSet};

/// Evaluation-relevant classification of one rule (shared by the planner
/// and the analyzer; see `CompiledRule` for the semantics of each flag).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleClass {
    /// Deletion rule.
    pub delete: bool,
    /// Head contains an aggregate.
    pub aggregate: bool,
    /// Materialized head derived from materialized bodies only — maintained
    /// as a view.
    pub is_view: bool,
    /// Materialized head fed (partly) by events — applied next timestep.
    pub inductive: bool,
}

/// Classify one rule against the declarations. Unknown tables are treated
/// as non-materialized (reference errors are reported separately).
pub fn classify(rule: &Rule, decls: &HashMap<String, TableDecl>) -> RuleClass {
    let head_materialized = decls
        .get(&rule.head.table)
        .map(|d| d.kind == TableKind::Materialized)
        .unwrap_or(false);
    let body_all_materialized = rule.body.iter().all(|b| match b {
        BodyElem::Pred(p) => decls
            .get(&p.table)
            .map(|d| d.kind == TableKind::Materialized)
            .unwrap_or(false),
        _ => true,
    });
    let is_view =
        !rule.delete && head_materialized && rule.head.loc.is_none() && body_all_materialized;
    let inductive = !rule.delete && head_materialized && !body_all_materialized;
    RuleClass {
        delete: rule.delete,
        aggregate: rule.is_aggregate(),
        is_view,
        inductive,
    }
}

/// Classify every rule.
pub fn classify_all(decls: &HashMap<String, TableDecl>, rules: &[Rule]) -> Vec<RuleClass> {
    rules.iter().map(|r| classify(r, decls)).collect()
}

/// Check every table reference of a rule (head first, then body) against
/// the declarations: existence and arity.
pub fn check_refs(
    rule: &Rule,
    label: &str,
    decls: &HashMap<String, TableDecl>,
) -> Result<(), OverlogError> {
    let head_decl = decls
        .get(&rule.head.table)
        .ok_or_else(|| OverlogError::UnknownTable {
            table: rule.head.table.clone(),
            rule: Some(label.to_string()),
            span: rule.head.span,
        })?;
    if head_decl.arity() != rule.head.args.len() {
        return Err(OverlogError::ArityMismatch {
            table: rule.head.table.clone(),
            expected: head_decl.arity(),
            got: rule.head.args.len(),
            rule: Some(label.to_string()),
            span: rule.head.span,
        });
    }
    for elem in &rule.body {
        if let BodyElem::Pred(p) = elem {
            let decl = decls
                .get(&p.table)
                .ok_or_else(|| OverlogError::UnknownTable {
                    table: p.table.clone(),
                    rule: Some(label.to_string()),
                    span: p.span,
                })?;
            if decl.arity() != p.args.len() {
                return Err(OverlogError::ArityMismatch {
                    table: p.table.clone(),
                    expected: decl.arity(),
                    got: p.args.len(),
                    rule: Some(label.to_string()),
                    span: p.span,
                });
            }
        }
    }
    Ok(())
}

/// Aggregate-specific checks: a materialized head table must be keyed on
/// exactly the group (non-aggregate) columns, and aggregate deletion rules
/// are unsupported.
pub fn check_aggregate(
    rule: &Rule,
    label: &str,
    decls: &HashMap<String, TableDecl>,
) -> Result<(), OverlogError> {
    if !rule.is_aggregate() {
        return Ok(());
    }
    // Aggregate outputs rely on key-overwrite of the group columns: the
    // head table's primary key must be exactly the non-aggregate columns.
    let group_cols: Vec<usize> = rule
        .head
        .args
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a, HeadArg::Expr(_)))
        .map(|(i, _)| i)
        .collect();
    if let Some(head_decl) = decls.get(&rule.head.table) {
        if head_decl.kind == TableKind::Materialized {
            let declared = head_decl
                .keys
                .clone()
                .unwrap_or_else(|| (0..head_decl.arity()).collect());
            let mut want = group_cols.clone();
            want.sort_unstable();
            let mut have = declared;
            have.sort_unstable();
            if want != have {
                return Err(OverlogError::Unstratifiable {
                    msg: format!(
                        "aggregate rule `{label}`: head table `{}` must be keyed on \
                         exactly the group columns {want:?}",
                        rule.head.table
                    ),
                    rule: Some(label.to_string()),
                    span: rule.head.span,
                });
            }
        }
    }
    if rule.delete {
        return Err(OverlogError::Unstratifiable {
            msg: format!("aggregate deletion rule `{label}` is not supported"),
            rule: Some(label.to_string()),
            span: rule.span,
        });
    }
    Ok(())
}

/// Per-rule analysis results needed by the planner.
#[derive(Debug)]
pub struct RuleAnalysis {
    /// Rule classification.
    pub class: RuleClass,
    /// Per-variant body execution orders (body element indices), one per
    /// positive predicate (a single order for body-less rules).
    pub orders: Vec<Vec<usize>>,
}

/// Every error-level per-rule check, in the order the planner historically
/// applied them: references, aggregate rules, safety.
pub fn validate_rule(
    id: usize,
    rule: &Rule,
    decls: &HashMap<String, TableDecl>,
) -> Result<RuleAnalysis, OverlogError> {
    let label = rule.label(id);
    check_refs(rule, &label, decls)?;
    check_aggregate(rule, &label, decls)?;
    let orders = safety::check_rule(rule).map_err(|u| OverlogError::UnsafeRule {
        rule: label.clone(),
        var: u.var,
        span: u.span,
    })?;
    Ok(RuleAnalysis {
        class: classify(rule, decls),
        orders,
    })
}

/// Reject tables derived both by view rules and by non-view rules: view
/// recomputation would silently drop the event-derived tuples.
pub fn view_conflict(rules: &[Rule], classes: &[RuleClass]) -> Result<(), OverlogError> {
    let view_tables: HashSet<&str> = rules
        .iter()
        .zip(classes)
        .filter(|(_, c)| c.is_view)
        .map(|(r, _)| r.head.table.as_str())
        .collect();
    for (i, (rule, class)) in rules.iter().zip(classes).enumerate() {
        if !class.delete && !class.is_view && view_tables.contains(rule.head.table.as_str()) {
            let label = rule.label(i);
            return Err(OverlogError::Unstratifiable {
                msg: format!(
                    "table `{}` is derived both by view rule(s) and by non-view rule `{label}`; \
                     split it into separate base and derived tables",
                    rule.head.table
                ),
                rule: Some(label),
                span: rule.head.span,
            });
        }
    }
    Ok(())
}

/// Stratify: the per-rule evaluation stratum (deletion and inductive
/// rules run where their bodies settle; everything else runs in its
/// head's stratum).
pub fn stratify_rules(
    decls: &HashMap<String, TableDecl>,
    rules: &[Rule],
    classes: &[RuleClass],
) -> Result<Vec<usize>, OverlogError> {
    let graph = stratify::build_graph(decls, rules, classes);
    let table_stratum = stratify::stratify(&graph).map_err(|c| OverlogError::Unstratifiable {
        msg: c.msg,
        rule: Some(c.rule),
        span: c.span,
    })?;
    Ok(rules
        .iter()
        .zip(classes)
        .map(|(rule, class)| {
            if class.delete || class.inductive {
                rule.positive_predicates()
                    .filter_map(|p| table_stratum.get(&p.table))
                    .copied()
                    .max()
                    .unwrap_or(0)
            } else {
                table_stratum.get(&rule.head.table).copied().unwrap_or(0)
            }
        })
        .collect())
}

/// A ground fact recorded for analysis.
#[derive(Debug, Clone)]
pub struct FactInfo {
    /// Target table.
    pub table: String,
    /// Constant argument expressions.
    pub values: Vec<crate::ast::Expr>,
    /// Source location of the fact statement.
    pub span: Span,
}

/// A timer declaration recorded for analysis.
#[derive(Debug, Clone)]
pub struct TimerInfo {
    /// Event table the timer feeds.
    pub name: String,
    /// Source location of the timer statement.
    pub span: Span,
}

/// Everything the analyzer knows about a program group: the merged
/// declarations and statements of one or more sources sharing a span
/// offset space (see [`SourceMap`]).
#[derive(Debug, Default)]
pub struct ProgramContext {
    /// Merged table declarations (including ambient ones).
    pub decls: HashMap<String, TableDecl>,
    /// All rules, in load order.
    pub rules: Vec<Rule>,
    /// All ground facts.
    pub facts: Vec<FactInfo>,
    /// All timer statements.
    pub timers: Vec<TimerInfo>,
    /// All watch statements.
    pub watches: Vec<(String, Span)>,
    /// Tables filled from outside the program text (runtime-injected `me`,
    /// host inserts): exempt from unused/unfillable lints.
    pub external: HashSet<String>,
    /// Tables whose rows the host *reads* (via lookups or scans) even when
    /// no rule consumes them: exempt from the dead-column lint (W0007).
    pub observed: HashSet<String>,
    /// Diagnostics found while building the context (parse errors,
    /// redefinitions).
    pub diags: Vec<Diagnostic>,
}

impl ProgramContext {
    /// Empty context.
    pub fn new() -> Self {
        ProgramContext::default()
    }

    /// Declare an ambient table provided by the runtime (e.g. `me`) and
    /// mark it external.
    pub fn add_ambient(&mut self, decl: TableDecl) {
        self.external.insert(decl.name.clone());
        self.decls.entry(decl.name.clone()).or_insert(decl);
    }

    /// Mark a table as filled by the host (exempt from W0001/W0002).
    pub fn mark_external(&mut self, table: &str) {
        self.external.insert(table.to_string());
    }

    /// Mark a table as read by the host (exempt from W0007).
    pub fn mark_observed(&mut self, table: &str) {
        self.observed.insert(table.to_string());
    }

    /// Parse one source file, relocate its spans into the group offset
    /// space, and merge its statements. Parse failures are recorded as an
    /// `E0001` diagnostic (and the file contributes nothing). Returns
    /// whether the file parsed.
    pub fn add_source(&mut self, name: &str, text: &str, map: &mut SourceMap) -> bool {
        let base = map.add(name, text);
        match parse_program(text) {
            Ok(mut prog) => {
                prog.offset_spans(base);
                self.absorb(prog);
                true
            }
            Err(OverlogError::Parse { line, col, msg }) => {
                let off = base + LineIndex::new(text).offset(line, col);
                self.diags.push(Diagnostic::error(
                    "E0001",
                    Span::new(off, off + 1),
                    format!("parse error: {msg}"),
                ));
                false
            }
            Err(other) => {
                self.diags.push(Diagnostic::error(
                    "E0001",
                    Span::new(base, base + 1),
                    format!("parse error: {other}"),
                ));
                false
            }
        }
    }

    /// Merge an already-parsed (and span-relocated) program.
    pub fn absorb(&mut self, prog: Program) {
        for stmt in prog.statements {
            match stmt {
                Statement::Define(d) => {
                    if let Some(existing) = self.decls.get(&d.name) {
                        if !existing.same_schema(&d) {
                            self.diags.push(
                                Diagnostic::error(
                                    "E0008",
                                    d.span,
                                    format!(
                                        "table `{}` redeclared with a different schema",
                                        d.name
                                    ),
                                )
                                .with_help(
                                    "programs loaded into one runtime share one catalog; \
                                     re-declarations must match exactly",
                                ),
                            );
                        }
                    } else {
                        self.decls.insert(d.name.clone(), d);
                    }
                }
                Statement::Timer { name, span, .. } => {
                    match self.decls.get(&name) {
                        None => {
                            // The runtime auto-declares `name(Tick)`.
                            self.decls.insert(
                                name.clone(),
                                TableDecl {
                                    name: name.clone(),
                                    keys: None,
                                    types: vec![TypeTag::Int],
                                    kind: TableKind::Event,
                                    span,
                                },
                            );
                        }
                        Some(d) if d.kind != TableKind::Event || d.arity() != 1 => {
                            self.diags.push(Diagnostic::error(
                                "E0008",
                                span,
                                format!(
                                    "timer `{name}` conflicts with an existing table \
                                     (timers need a 1-column event table)"
                                ),
                            ));
                        }
                        Some(_) => {}
                    }
                    self.timers.push(TimerInfo { name, span });
                }
                Statement::Watch { table, span } => self.watches.push((table, span)),
                Statement::Fact {
                    table,
                    values,
                    span,
                } => self.facts.push(FactInfo {
                    table,
                    values,
                    span,
                }),
                Statement::Rule(r) => self.rules.push(r),
            }
        }
    }

    /// The ambient declarations every [`crate::OverlogRuntime`] injects
    /// (`me(Addr)` holding the node's own address).
    pub fn runtime_ambient() -> Vec<TableDecl> {
        vec![TableDecl {
            name: "me".into(),
            keys: None,
            types: vec![TypeTag::Addr],
            kind: TableKind::Materialized,
            span: Span::default(),
        }]
    }
}

/// Everything [`report`] computes: the diagnostics plus the semantic
/// pass results the planner and `olgcheck analyze` consume.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// All diagnostics, ordered by source position.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-rule pass/fail of the error-level checks.
    pub rule_ok: Vec<bool>,
    /// Whole-program inferred column types.
    pub catalog: types::TypedCatalog,
    /// Monotonicity / CALM classification and points of order.
    pub mono: mono::MonoReport,
    /// Cardinality and selectivity estimates.
    pub cost: card::CostModel,
    /// Per-view-rule, per-variant maintenance-strategy verdicts.
    pub maint: maint::MaintReport,
    /// Per-rule, per-variant kernel-specialization verdicts.
    pub kernel: kernel::KernelReport,
}

impl AnalysisReport {
    /// Render the semantic sections (not the diagnostics — those go
    /// through [`render`]) for `olgcheck analyze`.
    pub fn render_semantic(&self, map: &SourceMap) -> String {
        let mut s = mono::render(&self.mono, map);
        s.push('\n');
        s.push_str(&types::render(&self.catalog));
        s.push('\n');
        s.push_str("cardinality estimates (rows):\n");
        for (table, rows) in &self.cost.rows {
            s.push_str(&format!("  {table}: {rows:.0}\n"));
        }
        s.push('\n');
        s.push_str(&maint::render(&self.maint));
        s.push('\n');
        s.push_str(&kernel::render(&self.kernel));
        s
    }
}

/// Run the full analysis over a context: every load-time (error) check,
/// the lint suite, whole-program type inference, and the semantic passes.
/// Diagnostics are ordered by source position.
pub fn report(ctx: &ProgramContext) -> AnalysisReport {
    let (mut out, rule_ok) = error_pass(ctx);
    let cost = card::CostModel::from_context(ctx);
    let maint = maint::analyze(ctx, &rule_ok);
    let catalog = types::infer(ctx, &rule_ok);
    let kernel = kernel::analyze(ctx, &rule_ok, &catalog);
    lints::run(ctx, &rule_ok, &cost, &maint, &kernel, &mut out);
    types::check(ctx, &rule_ok, &catalog, &mut out);
    out.sort_by_key(|d| (d.span.start, d.code, d.message.clone()));
    let mono = mono::analyze_mono(ctx, &rule_ok);
    AnalysisReport {
        diagnostics: out,
        rule_ok,
        catalog,
        mono,
        cost,
        maint,
        kernel,
    }
}

/// The diagnostics of [`report`] alone.
pub fn analyze(ctx: &ProgramContext) -> Vec<Diagnostic> {
    report(ctx).diagnostics
}

/// The error-level checks: per-rule validation (references, aggregates,
/// safety), facts, watches, stratification and view conflicts. Returns
/// the diagnostics so far plus the per-rule pass mask.
fn error_pass(ctx: &ProgramContext) -> (Vec<Diagnostic>, Vec<bool>) {
    let mut out = ctx.diags.clone();

    // Per-rule error checks, via the exact functions the planner runs.
    let mut rule_ok = vec![true; ctx.rules.len()];
    for (i, rule) in ctx.rules.iter().enumerate() {
        let label = rule.label(i);
        // `check_aggregate` raises `Unstratifiable` like the stratifier
        // does; tag its findings E0006 so aggregate misuse is
        // distinguishable from genuine stratification cycles.
        let step = check_refs(rule, &label, &ctx.decls)
            .map_err(|e| error_to_diag(&e, rule.span))
            .and_then(|_| {
                check_aggregate(rule, &label, &ctx.decls)
                    .map_err(|e| error_to_diag(&e, rule.span).with_code("E0006"))
            })
            .and_then(|_| {
                safety::check_rule(rule).map(|_| ()).map_err(|u| {
                    let e = OverlogError::UnsafeRule {
                        rule: label.clone(),
                        var: u.var,
                        span: u.span,
                    };
                    error_to_diag(&e, rule.span)
                })
            });
        if let Err(d) = step {
            rule_ok[i] = false;
            out.push(d);
        }
    }

    // Facts: table existence, arity, groundness.
    for f in &ctx.facts {
        match ctx.decls.get(&f.table) {
            None => out.push(Diagnostic::error(
                "E0002",
                f.span,
                format!("fact targets unknown table `{}`", f.table),
            )),
            Some(d) if d.arity() != f.values.len() => out.push(Diagnostic::error(
                "E0003",
                f.span,
                format!(
                    "fact arity mismatch for `{}`: declared {}, got {}",
                    f.table,
                    d.arity(),
                    f.values.len()
                ),
            )),
            Some(_) => {
                for e in &f.values {
                    let vars = safety::expr_vars(e);
                    if !vars.is_empty() || safety::contains_wildcard(e) {
                        out.push(Diagnostic::error(
                            "E0004",
                            f.span,
                            format!(
                                "fact for `{}` is not ground: `{}` is unbound",
                                f.table,
                                vars.first().map(String::as_str).unwrap_or("_")
                            ),
                        ));
                        break;
                    }
                }
            }
        }
    }

    // Watches of unknown tables.
    for (table, span) in &ctx.watches {
        if !ctx.decls.contains_key(table) {
            out.push(Diagnostic::error(
                "E0002",
                *span,
                format!("watch on unknown table `{table}`"),
            ));
        }
    }

    // Whole-program checks over the rules that passed: stratification and
    // view/base conflicts — again the planner's own functions.
    let valid: Vec<Rule> = ctx
        .rules
        .iter()
        .zip(&rule_ok)
        .filter(|(_, ok)| **ok)
        .map(|(r, _)| r.clone())
        .collect();
    let classes = classify_all(&ctx.decls, &valid);
    if let Err(e) = stratify_rules(&ctx.decls, &valid, &classes) {
        out.push(error_to_diag(&e, Span::default()).with_code("E0005"));
    }
    if let Err(e) = view_conflict(&valid, &classes) {
        out.push(error_to_diag(&e, Span::default()).with_code("E0007"));
    }

    (out, rule_ok)
}

impl Diagnostic {
    /// Override the code (used when one error variant maps to several
    /// diagnostic codes).
    fn with_code(mut self, code: &'static str) -> Self {
        self.code = code;
        self
    }
}

/// Map a load-time error to its diagnostic form.
fn error_to_diag(e: &OverlogError, fallback: Span) -> Diagnostic {
    let span = e.span().unwrap_or(fallback);
    let (code, help): (&'static str, Option<&str>) = match e {
        OverlogError::Parse { .. } => ("E0001", None),
        OverlogError::UnknownTable { .. } => (
            "E0002",
            Some("declare the table with define(...) or event ... before use"),
        ),
        OverlogError::ArityMismatch { .. } => ("E0003", None),
        OverlogError::UnsafeRule { .. } => (
            "E0004",
            Some("bind the variable in a positive body predicate or an assignment"),
        ),
        OverlogError::Unstratifiable { .. } => ("E0005", None),
        OverlogError::Redefinition { .. } => ("E0008", None),
        OverlogError::TypeMismatch { .. } => ("E0012", None),
        OverlogError::Eval(_) => ("E0001", None),
    };
    let msg = strip_span_suffix(&e.to_string());
    let d = Diagnostic::error(code, span, msg);
    match help {
        Some(h) => d.with_help(h),
        None => d,
    }
}

/// `Display` for errors appends a ` (bytes a..b)` suffix for contexts
/// without source access; diagnostics render real positions, so drop it.
fn strip_span_suffix(msg: &str) -> String {
    match msg.rfind(" (bytes ") {
        Some(i) if msg.ends_with(')') => msg[..i].to_string(),
        _ => msg.to_string(),
    }
}

/// Render the table-precedence graph of a context as DOT: materialized
/// tables as boxes, events as ellipses, negated/aggregate edges in
/// red/blue, non-constraining (delete/inductive) edges dashed. Tables are
/// annotated with their stratum when stratification succeeds.
pub fn dot(ctx: &ProgramContext) -> String {
    let classes = classify_all(&ctx.decls, &ctx.rules);
    let g = stratify::build_graph(&ctx.decls, &ctx.rules, &classes);
    let strata = stratify::stratify(&g).unwrap_or_default();
    graph::to_dot(&g, &strata, &ctx.decls)
}

/// Convenience entry point: analyze a group of named sources as one
/// program (the way the runtime loads them into one instance), with the
/// runtime's ambient declarations. Returns the diagnostics plus the map
/// for rendering them.
pub fn analyze_sources(sources: &[(&str, &str)]) -> (Vec<Diagnostic>, SourceMap) {
    let mut ctx = ProgramContext::new();
    for d in ProgramContext::runtime_ambient() {
        ctx.add_ambient(d);
    }
    let mut map = SourceMap::new();
    for (name, text) in sources {
        ctx.add_source(name, text, &mut map);
    }
    (analyze(&ctx), map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<&'static str> {
        let (diags, _) = analyze_sources(&[("test.olg", src)]);
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_has_no_diagnostics() {
        let src = "define(e, keys(0,1), {Int, Int});
                   define(p, keys(0,1), {Int, Int});
                   e(1, 2);
                   p(X, Y) :- e(X, Y);
                   p(X, Z) :- e(X, Y), p(Y, Z);";
        assert_eq!(codes(src), Vec::<&str>::new());
    }

    #[test]
    fn unknown_and_arity_and_unsafe() {
        assert_eq!(
            codes("define(p, keys(0), {Int}); p(X) :- q(X);"),
            vec!["E0002"]
        );
        assert!(codes(
            "define(q, keys(0), {Int});
             define(p, keys(0), {Int});
             q(1);
             p(X) :- q(X, X);"
        )
        .contains(&"E0003"));
        assert!(codes(
            "define(q, keys(0), {Int});
             define(p, keys(0,1), {Int, Int});
             q(1);
             p(X, Y) :- q(X);"
        )
        .contains(&"E0004"));
    }

    #[test]
    fn stratification_cycle_is_e0005_with_path() {
        let src = "define(a, keys(0), {Int});
                   define(b, keys(0), {Int});
                   a(1);
                   a(X) :- b(X);
                   b(X) :- a(X), notin b(X);";
        let (diags, _) = analyze_sources(&[("t.olg", src)]);
        let d = diags.iter().find(|d| d.code == "E0005").expect("E0005");
        assert!(d.message.contains("->"), "{}", d.message);
    }

    #[test]
    fn parse_error_is_spanned_e0001() {
        let (diags, map) = analyze_sources(&[("t.olg", "define(p, keys(0), {Int});\np(1) :- ;")]);
        let d = diags.iter().find(|d| d.code == "E0001").expect("E0001");
        let (file, line, _col) = map.resolve(d.span.start);
        assert_eq!((file, line), ("t.olg", 2));
    }

    #[test]
    fn groups_merge_decls_across_files() {
        let a = "define(t, keys(0), {Int}); t(1);";
        let b = "define(u, keys(0), {Int}); u(X) :- t(X);";
        let (diags, _) = analyze_sources(&[("a.olg", a), ("b.olg", b)]);
        assert!(
            diags.iter().all(|d| d.code != "E0002"),
            "cross-file reference resolved: {diags:?}"
        );
    }

    #[test]
    fn conflicting_redeclaration_across_files() {
        let a = "define(t, keys(0), {Int});";
        let b = "define(t, keys(0), {String});";
        let (diags, _) = analyze_sources(&[("a.olg", a), ("b.olg", b)]);
        assert!(diags.iter().any(|d| d.code == "E0008"), "{diags:?}");
    }
}
