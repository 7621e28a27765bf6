//! The lint suite: checks beyond what load-time validation enforces.
//!
//! Errors here (E0009..E0011) are genuine bugs that the evaluator happens
//! to tolerate or only trips over at runtime; warnings (W0001..W0011) are
//! strong hints of dead or mistyped program structure. See the code table
//! in [`super`]. Type errors (E0012/E0013) live in [`super::types`], where
//! whole-program inference gives them sharper verdicts than a per-rule
//! lint could.

use super::card::CostModel;
use super::kernel::KernelReport;
use super::maint::{MaintReport, MaintVerdict};
use super::{Diagnostic, ProgramContext};
use crate::ast::{BodyElem, Expr, HeadArg, Rule, Span, TableDecl, TableKind};
use crate::value::TypeTag;
use std::collections::{HashMap, HashSet};

/// Builtins whose results differ run to run; rules using them must be
/// driven by a single event so every derivation happens exactly once.
const NON_DETERMINISTIC: [&str; 2] = ["newid", "qid"];

/// Estimated total body rows at or above which a rule counts as *hot* for
/// the W0010/W0011 lints: below this, the rewrite they suggest would not
/// pay off anyway and the suggestion is noise.
const HOT_BODY_ROWS: f64 = 48.0;

/// Run every lint over the context, appending to `out`. `rule_ok[i]` tells
/// whether rule `i` passed the error-level checks (reference, aggregate and
/// safety); structure-sensitive lints skip broken rules to avoid cascades.
pub(super) fn run(
    ctx: &ProgramContext,
    rule_ok: &[bool],
    cost: &CostModel,
    maint: &MaintReport,
    kernel: &KernelReport,
    out: &mut Vec<Diagnostic>,
) {
    let timer_tables: HashSet<&str> = ctx.timers.iter().map(|t| t.name.as_str()).collect();

    for (i, rule) in ctx.rules.iter().enumerate() {
        let label = rule.label(i);
        location_specifiers(ctx, rule, &label, out);
        non_deterministic_builtins(ctx, rule, &label, out);
        if timer_tables.contains(rule.head.table.as_str()) {
            out.push(
                Diagnostic::error(
                    "E0011",
                    rule.head.span,
                    format!(
                        "rule `{label}` derives into `{}`, which is driven by a timer",
                        rule.head.table
                    ),
                )
                .with_help("timer tables are filled by the runtime; derive into a separate event"),
            );
        }
        if rule_ok[i] {
            singleton_variables(rule, &label, out);
        }
    }

    duplicate_rule_names(ctx, out);
    unused_tables(ctx, out);
    dead_rules(ctx, rule_ok, out);
    unconsumed_timers(ctx, out);
    stale_watches(ctx, out);
    dead_columns(ctx, rule_ok, out);
    hot_full_recompute_views(ctx, cost, maint, out);
    hot_untyped_probe_rules(ctx, cost, kernel, out);
}

/// W0011: a *hot* rule — its body joins a table the cardinality model
/// marks big — whose kernel probes a column through tagged-`Value`
/// hashing although inference already pins that column to `Int`: one
/// declaration away from typed `i64` probes.
fn hot_untyped_probe_rules(
    ctx: &ProgramContext,
    cost: &CostModel,
    kernel: &KernelReport,
    out: &mut Vec<Diagnostic>,
) {
    for entry in &kernel.rules {
        let Some((table, col)) = entry.refinable.first() else {
            continue;
        };
        let rule = &ctx.rules[entry.rule_index];
        let Some((big, rows)) = rule
            .positive_predicates()
            .map(|p| (p.table.as_str(), cost.table_rows(&p.table)))
            .filter(|(_, r)| *r >= HOT_BODY_ROWS)
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            continue;
        };
        out.push(
            Diagnostic::warning(
                "W0011",
                rule.span,
                format!(
                    "rule `{}` joins `{big}` (~{rows:.0} rows) but probes `{table}` column \
                     {col} through tagged-Value hashing, yet inference pins that column to Int",
                    entry.label
                ),
            )
            .with_help(
                "declare the column's type in the `define` so the planner emits typed i64 \
                 probes; see the kernel verdicts in `olgcheck analyze`",
            ),
        );
    }
}

/// W0010: a *hot* view — its body joins a table the cardinality model
/// marks big — that every retraction recomputes wholesale, for a reason
/// the maintenance pass calls *fixable* (typically a head key that is
/// join-bound instead of delta-bound). One key rewrite away from scaling
/// with churn instead of state size, which is exactly the regression the
/// incremental-maintenance engine exists to avoid.
fn hot_full_recompute_views(
    ctx: &ProgramContext,
    cost: &CostModel,
    maint: &MaintReport,
    out: &mut Vec<Diagnostic>,
) {
    for entry in &maint.rules {
        let rule = &ctx.rules[entry.rule_index];
        // Any certified variant means deletions arriving through it
        // maintain incrementally; the rule is not "forced" to recompute.
        if entry.variants.iter().any(|(_, v)| v.incremental()) {
            continue;
        }
        let Some(reason) = entry.variants.iter().find_map(|(_, v)| match v {
            MaintVerdict::FullRecompute {
                reason,
                fixable: true,
                ..
            } => Some(reason.as_str()),
            _ => None,
        }) else {
            continue;
        };
        let Some((big, rows)) = rule
            .positive_predicates()
            .map(|p| (p.table.as_str(), cost.table_rows(&p.table)))
            .filter(|(_, r)| *r >= HOT_BODY_ROWS)
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            continue;
        };
        out.push(
            Diagnostic::warning(
                "W0010",
                rule.span,
                format!(
                    "view rule `{}` joins `{big}` (~{rows:.0} rows) but every \
                     retraction recomputes `{}` wholesale: {reason}",
                    entry.label, entry.head
                ),
            )
            .with_help(
                "make every head key column a column of each delta row (add the \
                 missing key column or split the join) so deletions maintain the \
                 view incrementally; see the maintenance verdicts in `olgcheck \
                 analyze`",
            ),
        );
    }
}

/// E0009: a `@` location specifier must sit on an address-typed column
/// (`Addr`; `String`/`Value` are admitted, matching the evaluator).
fn location_specifiers(ctx: &ProgramContext, rule: &Rule, label: &str, out: &mut Vec<Diagnostic>) {
    let mut check = |table: &str, loc: Option<usize>, span: Span| {
        let (Some(i), Some(decl)) = (loc, ctx.decls.get(table)) else {
            return;
        };
        match decl.types.get(i) {
            Some(TypeTag::Addr | TypeTag::Str | TypeTag::Any) | None => {}
            Some(other) => out.push(
                Diagnostic::error(
                    "E0009",
                    span,
                    format!(
                        "rule `{label}` places `@` on column {i} of `{table}`, declared {other}"
                    ),
                )
                .with_help("location specifiers must name an Addr (or String) column"),
            ),
        }
    };
    check(&rule.head.table, rule.head.loc, rule.head.span);
    for elem in &rule.body {
        if let BodyElem::Pred(p) = elem {
            check(&p.table, p.loc, p.span);
        }
    }
}

/// Does any expression of the rule call one of `NON_DETERMINISTIC`?
fn calls_non_deterministic(e: &Expr) -> Option<&str> {
    match e {
        Expr::Call(name, args) => {
            if let Some(nd) = NON_DETERMINISTIC.iter().find(|n| *n == name) {
                return Some(nd);
            }
            args.iter().find_map(calls_non_deterministic)
        }
        Expr::Binary(_, a, b) => calls_non_deterministic(a).or_else(|| calls_non_deterministic(b)),
        Expr::Unary(_, a) => calls_non_deterministic(a),
        Expr::ListLit(args) => args.iter().find_map(calls_non_deterministic),
        Expr::Lit(_) | Expr::Var(_) | Expr::Wildcard => None,
    }
}

/// E0010: `newid()`/`qid()` produce fresh values on every evaluation, so a
/// rule calling them must fire exactly once per triggering tuple: exactly
/// one positive body predicate, and it must be an event table. (Against a
/// materialized table the rule re-fires on every re-derivation, minting
/// ever-new ids — the discipline the shipped programs document.)
fn non_deterministic_builtins(
    ctx: &ProgramContext,
    rule: &Rule,
    label: &str,
    out: &mut Vec<Diagnostic>,
) {
    let mut exprs: Vec<&Expr> = Vec::new();
    for arg in &rule.head.args {
        if let HeadArg::Expr(e) = arg {
            exprs.push(e);
        }
    }
    for elem in &rule.body {
        match elem {
            BodyElem::Pred(p) => exprs.extend(p.args.iter()),
            BodyElem::Cond(e) | BodyElem::Assign(_, e) => exprs.push(e),
        }
    }
    let Some(nd) = exprs.iter().find_map(|e| calls_non_deterministic(e)) else {
        return;
    };
    let positives: Vec<_> = rule.positive_predicates().collect();
    let single_event = positives.len() == 1
        && ctx
            .decls
            .get(&positives[0].table)
            .map(|d| d.kind == TableKind::Event)
            .unwrap_or(false);
    if !single_event {
        out.push(
            Diagnostic::error(
                "E0010",
                rule.head.span,
                format!(
                    "rule `{label}` calls non-deterministic `{nd}()` but is not driven by \
                     a single event predicate"
                ),
            )
            .with_help(
                "rules minting ids must join exactly one event table so each \
                 triggering tuple derives exactly once",
            ),
        );
    }
}

/// Count variable occurrences (no dedup) and remember the first span each
/// variable was seen at.
fn count_vars<'r>(e: &'r Expr, span: Span, counts: &mut HashMap<&'r str, (usize, Span)>) {
    match e {
        Expr::Var(v) => {
            let entry = counts.entry(v.as_str()).or_insert((0, span));
            entry.0 += 1;
        }
        Expr::Binary(_, a, b) => {
            count_vars(a, span, counts);
            count_vars(b, span, counts);
        }
        Expr::Unary(_, a) => count_vars(a, span, counts),
        Expr::Call(_, args) | Expr::ListLit(args) => {
            for a in args {
                count_vars(a, span, counts);
            }
        }
        Expr::Lit(_) | Expr::Wildcard => {}
    }
}

/// W0003: a variable used exactly once carries no information — it is
/// either a typo for another variable or should be the `_` wildcard.
fn singleton_variables(rule: &Rule, label: &str, out: &mut Vec<Diagnostic>) {
    let mut counts: HashMap<&str, (usize, Span)> = HashMap::new();
    for arg in &rule.head.args {
        match arg {
            HeadArg::Expr(e) => count_vars(e, rule.head.span, &mut counts),
            HeadArg::Agg(_, Some(v)) => {
                counts.entry(v.as_str()).or_insert((0, rule.head.span)).0 += 1;
            }
            HeadArg::Agg(_, None) => {}
        }
    }
    for elem in &rule.body {
        match elem {
            BodyElem::Pred(p) => {
                for a in &p.args {
                    count_vars(a, p.span, &mut counts);
                }
            }
            BodyElem::Cond(e) => count_vars(e, rule.span, &mut counts),
            BodyElem::Assign(v, e) => {
                counts.entry(v.as_str()).or_insert((0, rule.span)).0 += 1;
                count_vars(e, rule.span, &mut counts);
            }
        }
    }
    let mut singles: Vec<(&str, Span)> = counts
        .iter()
        .filter(|(_, (n, _))| *n == 1)
        .map(|(v, (_, s))| (*v, *s))
        .collect();
    singles.sort_by_key(|(v, _)| *v);
    for (v, span) in singles {
        out.push(
            Diagnostic::warning(
                "W0003",
                span,
                format!("variable `{v}` in rule `{label}` is used only once"),
            )
            .with_help("replace it with `_` if the value is intentionally unused"),
        );
    }
}

/// W0004: two rules sharing a name make traces and diagnostics ambiguous.
fn duplicate_rule_names(ctx: &ProgramContext, out: &mut Vec<Diagnostic>) {
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for (i, rule) in ctx.rules.iter().enumerate() {
        let Some(name) = &rule.name else { continue };
        if let Some(&first) = seen.get(name.as_str()) {
            out.push(Diagnostic::warning(
                "W0004",
                rule.span,
                format!(
                    "rule name `{name}` reused (previously rule #{first}); \
                     traces and diagnostics cannot tell them apart"
                ),
            ));
        } else {
            seen.insert(name.as_str(), i);
        }
    }
}

/// Every table name referenced anywhere in the program text.
fn referenced_tables(ctx: &ProgramContext) -> HashSet<&str> {
    let mut used: HashSet<&str> = HashSet::new();
    for rule in &ctx.rules {
        used.insert(rule.head.table.as_str());
        for elem in &rule.body {
            if let BodyElem::Pred(p) = elem {
                used.insert(p.table.as_str());
            }
        }
    }
    used.extend(ctx.facts.iter().map(|f| f.table.as_str()));
    used.extend(ctx.watches.iter().map(|(t, _)| t.as_str()));
    used.extend(ctx.timers.iter().map(|t| t.name.as_str()));
    used
}

/// W0001: a declared table no rule, fact, watch or timer mentions.
fn unused_tables(ctx: &ProgramContext, out: &mut Vec<Diagnostic>) {
    let used = referenced_tables(ctx);
    let mut unused: Vec<_> = ctx
        .decls
        .values()
        .filter(|d| !used.contains(d.name.as_str()) && !ctx.external.contains(&d.name))
        .collect();
    unused.sort_by_key(|d| d.span.start);
    for d in unused {
        out.push(
            Diagnostic::warning(
                "W0001",
                d.span,
                format!("table `{}` is declared but never used", d.name),
            )
            .with_help("remove the declaration or the rules that were meant to use it"),
        );
    }
}

/// W0002: a rule joins a table that nothing can ever fill — no rule head,
/// no fact, no timer — so the rule can never fire. Event tables and
/// externally-filled tables are exempt (the host inserts into them).
fn dead_rules(ctx: &ProgramContext, rule_ok: &[bool], out: &mut Vec<Diagnostic>) {
    let mut writers: HashSet<&str> = ctx
        .rules
        .iter()
        .filter(|r| !r.delete)
        .map(|r| r.head.table.as_str())
        .collect();
    writers.extend(ctx.facts.iter().map(|f| f.table.as_str()));
    writers.extend(ctx.timers.iter().map(|t| t.name.as_str()));

    for (i, rule) in ctx.rules.iter().enumerate() {
        if !rule_ok[i] {
            continue;
        }
        for p in rule.positive_predicates() {
            let Some(decl) = ctx.decls.get(&p.table) else {
                continue;
            };
            if decl.kind == TableKind::Event
                || ctx.external.contains(&p.table)
                || writers.contains(p.table.as_str())
            {
                continue;
            }
            out.push(
                Diagnostic::warning(
                    "W0002",
                    p.span,
                    format!(
                        "rule `{}` reads `{}`, which no rule, fact or timer fills; \
                         the rule can never fire",
                        rule.label(i),
                        p.table
                    ),
                )
                .with_help("seed the table with facts or derive into it"),
            );
        }
    }
}

/// W0005: a timer whose ticks nothing consumes just burns virtual time.
fn unconsumed_timers(ctx: &ProgramContext, out: &mut Vec<Diagnostic>) {
    let mut read: HashSet<&str> = HashSet::new();
    for rule in &ctx.rules {
        for elem in &rule.body {
            if let BodyElem::Pred(p) = elem {
                read.insert(p.table.as_str());
            }
        }
    }
    read.extend(ctx.watches.iter().map(|(t, _)| t.as_str()));
    for t in &ctx.timers {
        if !read.contains(t.name.as_str()) {
            out.push(
                Diagnostic::warning(
                    "W0005",
                    t.span,
                    format!("timer `{}` fires but no rule consumes its ticks", t.name),
                )
                .with_help("add a rule with the timer table in its body, or drop the timer"),
            );
        }
    }
}

/// W0006: a `watch` on a table nothing fills — no rule derives into it, no
/// fact or timer seeds it — records nothing and is almost certainly a
/// monitoring rule that outlived the table it traced. Event tables and
/// externally-filled tables are exempt (the host inserts into them), as
/// with W0002. A watch on an *undeclared* table is already error E0002.
fn stale_watches(ctx: &ProgramContext, out: &mut Vec<Diagnostic>) {
    let mut writers: HashSet<&str> = ctx
        .rules
        .iter()
        .filter(|r| !r.delete)
        .map(|r| r.head.table.as_str())
        .collect();
    writers.extend(ctx.facts.iter().map(|f| f.table.as_str()));
    writers.extend(ctx.timers.iter().map(|t| t.name.as_str()));

    for (table, span) in &ctx.watches {
        let Some(decl) = ctx.decls.get(table) else {
            continue; // undeclared: E0002 already reported
        };
        if decl.kind == TableKind::Event
            || ctx.external.contains(table)
            || writers.contains(table.as_str())
        {
            continue;
        }
        out.push(
            Diagnostic::warning(
                "W0006",
                *span,
                format!(
                    "`watch({table})` traces a table no rule, fact or timer fills; \
                     it will never record anything"
                ),
            )
            .with_help("drop the stale watch, or derive into the table"),
        );
    }
}

/// W0007: a dead column — every body occurrence of the table matches the
/// column as `_`, so its value never reaches any head, aggregate,
/// condition or join of the program set. External, watched and
/// host-observed tables are exempt (their rows leave the program text),
/// as are location-specifier columns (they route messages even when no
/// rule reads them back) and explicitly declared key columns (they carry
/// row identity: dropping one would merge rows, read or not). Tables
/// never read in any body are skipped: write-only tables are a different
/// smell.
fn dead_columns(ctx: &ProgramContext, rule_ok: &[bool], out: &mut Vec<Diagnostic>) {
    let watched: HashSet<&str> = ctx.watches.iter().map(|(t, _)| t.as_str()).collect();
    // Timer tables carry a runtime-filled tick counter; consuming rules
    // idiomatically match it as `_`.
    let timers: HashSet<&str> = ctx.timers.iter().map(|t| t.name.as_str()).collect();
    let mut reads: HashMap<&str, Vec<bool>> = HashMap::new();
    let mut loc_cols: HashSet<(&str, usize)> = HashSet::new();
    for (i, rule) in ctx.rules.iter().enumerate() {
        if let Some(l) = rule.head.loc {
            loc_cols.insert((rule.head.table.as_str(), l));
        }
        if !rule_ok[i] {
            continue;
        }
        for elem in &rule.body {
            let BodyElem::Pred(p) = elem else { continue };
            if let Some(l) = p.loc {
                loc_cols.insert((p.table.as_str(), l));
            }
            let Some(decl) = ctx.decls.get(&p.table) else {
                continue;
            };
            let slots = reads
                .entry(p.table.as_str())
                .or_insert_with(|| vec![false; decl.arity()]);
            for (j, a) in p.args.iter().enumerate() {
                if !matches!(a, Expr::Wildcard) {
                    if let Some(s) = slots.get_mut(j) {
                        *s = true;
                    }
                }
            }
        }
    }

    let mut decls: Vec<&TableDecl> = ctx.decls.values().collect();
    decls.sort_by_key(|d| d.span.start);
    for d in decls {
        if ctx.external.contains(&d.name)
            || ctx.observed.contains(&d.name)
            || watched.contains(d.name.as_str())
            || timers.contains(d.name.as_str())
        {
            continue;
        }
        let Some(slots) = reads.get(d.name.as_str()) else {
            continue;
        };
        for (j, read) in slots.iter().enumerate() {
            if *read
                || loc_cols.contains(&(d.name.as_str(), j))
                || d.keys.as_ref().is_some_and(|k| k.contains(&j))
            {
                continue;
            }
            out.push(
                Diagnostic::warning(
                    "W0007",
                    d.span,
                    format!(
                        "column {j} of `{}` is only ever matched as `_`; \
                         no rule reads its value",
                        d.name
                    ),
                )
                .with_help("drop the column, or mark the table observed if the host reads it"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::analyze_sources;

    fn codes(src: &str) -> Vec<&'static str> {
        let (diags, _) = analyze_sources(&[("t.olg", src)]);
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn location_on_int_column_is_e0009() {
        let src = "event ping, {Int, Int};
                   event pong, {Int, Int};
                   pong(@X, Y) :- ping(X, Y);";
        assert!(codes(src).contains(&"E0009"), "{:?}", codes(src));
    }

    #[test]
    fn newid_outside_single_event_rule_is_e0010() {
        let bad = "define(t, keys(0), {Int});
                   define(u, keys(0,1), {Int, String});
                   t(1);
                   u(X, Y) :- t(X), Y := newid();";
        assert!(codes(bad).contains(&"E0010"), "{:?}", codes(bad));
        let good = "event req, {Int};
                    event resp, {Int, String};
                    resp(X, Y) :- req(X), Y := newid();";
        assert!(!codes(good).contains(&"E0010"), "{:?}", codes(good));
    }

    #[test]
    fn deriving_into_timer_table_is_e0011() {
        let src = "timer(tick, 100);
                   define(t, keys(0), {Int});
                   t(1);
                   tick(X) :- t(X);";
        assert!(codes(src).contains(&"E0011"), "{:?}", codes(src));
    }

    #[test]
    fn literal_type_mismatch_is_e0012() {
        let src = "event e, {Int};
                   define(t, keys(0), {Int});
                   t(X) :- e(X);
                   t(\"oops\") :- e(_);";
        assert!(codes(src).contains(&"E0012"), "{:?}", codes(src));
    }

    #[test]
    fn variable_type_mismatch_is_e0012() {
        let src = "event e, {String};
                   define(t, keys(0), {Int});
                   t(X) :- e(X);";
        assert!(codes(src).contains(&"E0012"), "{:?}", codes(src));
    }

    #[test]
    fn addr_str_and_float_coercions_are_compatible() {
        let src = "event e, {String, Int};
                   define(t, keys(0), {Addr, Float});
                   t(A, N) :- e(A, N);";
        assert!(!codes(src).contains(&"E0012"), "{:?}", codes(src));
    }

    #[test]
    fn unused_table_is_w0001() {
        let src = "define(ghost, keys(0), {Int});
                   define(t, keys(0), {Int});
                   t(1);
                   watch(t);";
        assert_eq!(codes(src), vec!["W0001"]);
    }

    #[test]
    fn unfillable_join_is_w0002_but_events_are_exempt() {
        let src = "define(empty, keys(0), {Int});
                   define(t, keys(0), {Int});
                   t(X) :- empty(X);";
        assert!(codes(src).contains(&"W0002"), "{:?}", codes(src));
        let evt = "event e, {Int};
                   define(t, keys(0), {Int});
                   t(X) :- e(X);
                   watch(t);";
        assert_eq!(codes(evt), Vec::<&str>::new());
    }

    #[test]
    fn singleton_variable_is_w0003() {
        let src = "event e, {Int, Int};
                   define(t, keys(0), {Int});
                   t(X) :- e(X, Lonely);";
        assert!(codes(src).contains(&"W0003"), "{:?}", codes(src));
    }

    #[test]
    fn duplicate_rule_name_is_w0004() {
        let src = "event e, {Int};
                   define(t, keys(0), {Int});
                   r1 t(X) :- e(X);
                   r1 t(X) :- e(X);
                   watch(t);";
        assert!(codes(src).contains(&"W0004"), "{:?}", codes(src));
    }

    #[test]
    fn unconsumed_timer_is_w0005() {
        let src = "timer(tick, 50);";
        assert!(codes(src).contains(&"W0005"), "{:?}", codes(src));
    }

    #[test]
    fn watch_on_unfilled_table_is_w0006() {
        let src = "define(ghost, keys(0), {Int});
                   watch(ghost);";
        assert!(codes(src).contains(&"W0006"), "{:?}", codes(src));
    }

    #[test]
    fn dead_column_is_w0007() {
        let src = "event e, {Int, Int};
                   define(t, keys(0), {Int, Int});
                   define(u, keys(0), {Int});
                   t(X, Y) :- e(X, Y);
                   u(X) :- t(X, _);";
        assert_eq!(codes(src), vec!["W0007"], "t column 1 is never read");
    }

    #[test]
    fn observed_tables_are_exempt_from_w0007() {
        use crate::analysis::{analyze, ProgramContext, SourceMap};
        let src = "event e, {Int, Int};
                   define(t, keys(0), {Int, Int});
                   define(u, keys(0), {Int});
                   t(X, Y) :- e(X, Y);
                   u(X) :- t(X, _);";
        let mut ctx = ProgramContext::new();
        let mut map = SourceMap::new();
        assert!(ctx.add_source("t.olg", src, &mut map));
        ctx.mark_observed("t");
        assert!(analyze(&ctx).iter().all(|d| d.code != "W0007"));
    }

    #[test]
    fn key_columns_are_exempt_from_w0007() {
        // Column 1 carries row identity (declared key) even though no rule
        // reads it: per-source rows must stay distinct.
        let src = "event e, {Int, Int};
                   define(t, keys(0,1), {Int, Int});
                   define(c, keys(0), {Int, Int});
                   t(X, Y) :- e(X, Y);
                   c(X, count<Y>) :- t(X, _), e(_, Y);";
        assert!(!codes(src).contains(&"W0007"), "{:?}", codes(src));
    }

    #[test]
    fn location_columns_are_exempt_from_w0007() {
        let src = "event req, {String, Int};
                   define(t, keys(0), {Int});
                   t(X) :- req(_, X);
                   req(@A, X) :- t(X), A := \"n1\";";
        assert_eq!(
            codes(src),
            Vec::<&str>::new(),
            "addr column routes messages"
        );
    }

    #[test]
    fn hot_view_forced_to_full_recompute_is_w0010() {
        // `idx` is inductive state derived by five rules (~160 estimated
        // rows). The view `v` is keyed on (Y, Z), and neither delta names
        // both key columns — every retraction recomputes `v` wholesale,
        // for the fixable unbound-head-key reason.
        let src = "event e, {Int, Int};
                   event f, {Int, Int};
                   define(idx, keys(0), {Int, Int});
                   define(m, keys(0), {Int, Int});
                   define(v, keys(0,1), {Int, Int});
                   idx(X, Y) :- e(X, Y); idx(Y, X) :- e(X, Y);
                   idx(X, Y) :- f(X, Y); idx(Y, X) :- f(X, Y);
                   idx(X, X) :- f(X, _);
                   m(1, 2);
                   v(Y, Z) :- idx(X, Y), m(X, Z);";
        assert!(codes(src).contains(&"W0010"), "{:?}", codes(src));
        // Key the view on Y alone: the idx-delta variant certifies
        // support-rederive, so the view is no longer forced to recompute.
        let keyed = src.replace(
            "define(v, keys(0,1), {Int, Int})",
            "define(v, keys(0), {Int, Int})",
        );
        assert!(!codes(&keyed).contains(&"W0010"), "{:?}", codes(&keyed));
    }

    #[test]
    fn cold_full_recompute_view_is_not_w0010() {
        // Same forced-recompute shape, but every body table is small: the
        // recompute is cheap and the lint would be noise.
        let src = "event e, {Int, Int};
                   define(idx, keys(0), {Int, Int});
                   define(m, keys(0), {Int, Int});
                   define(v, keys(0,1), {Int, Int});
                   idx(X, Y) :- e(X, Y);
                   m(1, 2);
                   v(Y, Z) :- idx(X, Y), m(X, Z);";
        assert!(!codes(src).contains(&"W0010"), "{:?}", codes(src));
    }

    #[test]
    fn hot_rule_with_refinable_probe_column_is_w0011() {
        // `idx` is hot inductive state (five deriving rules) and `u` is
        // declared wildcard but only ever filled from Int columns: the
        // join probes u.0 through tagged-Value hashing when one
        // declaration would unlock typed i64 probes.
        let src = "event e, {Int, Int};
                   event f, {Int, Int};
                   define(idx, keys(0), {Int, Int});
                   define(u, keys(0), {Value, Value});
                   define(out, keys(0), {Int, Int});
                   idx(X, Y) :- e(X, Y); idx(Y, X) :- e(X, Y);
                   idx(X, Y) :- f(X, Y); idx(Y, X) :- f(X, Y);
                   idx(X, X) :- f(X, _);
                   u(X, Y) :- e(X, Y);
                   out(X, Z) :- idx(X, Y), u(Y, Z);";
        assert!(codes(src).contains(&"W0011"), "{:?}", codes(src));
        // Declare `u`'s columns: the kernel goes typed and the lint stops.
        let typed = src.replace(
            "define(u, keys(0), {Value, Value})",
            "define(u, keys(0), {Int, Int})",
        );
        assert!(!codes(&typed).contains(&"W0011"), "{:?}", codes(&typed));
    }

    #[test]
    fn cold_untyped_probe_rule_is_not_w0011() {
        // Same refinable shape, but every body table is small: tagged
        // hashing on a cold rule is noise, not a finding.
        let src = "event e, {Int, Int};
                   define(idx, keys(0), {Int, Int});
                   define(u, keys(0), {Value, Value});
                   define(out, keys(0), {Int, Int});
                   idx(X, Y) :- e(X, Y);
                   u(X, Y) :- e(X, Y);
                   out(X, Z) :- idx(X, Y), u(Y, Z);";
        assert!(!codes(src).contains(&"W0011"), "{:?}", codes(src));
    }

    #[test]
    fn watch_on_derived_fact_or_event_table_is_not_w0006() {
        let derived = "event e, {Int};
                       define(t, keys(0), {Int});
                       t(X) :- e(X);
                       watch(t);";
        assert!(!codes(derived).contains(&"W0006"), "{:?}", codes(derived));
        let fact = "define(t, keys(0), {Int});
                    t(1);
                    watch(t);";
        assert!(!codes(fact).contains(&"W0006"), "{:?}", codes(fact));
        let event = "event e, {Int};
                     define(t, keys(0), {Int});
                     t(X) :- e(X);
                     watch(e);";
        assert!(!codes(event).contains(&"W0006"), "{:?}", codes(event));
    }
}
