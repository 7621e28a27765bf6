//! Maintenance-strategy analysis: which incremental algorithm keeps each
//! view correct under *retractions*?
//!
//! Insertions already propagate incrementally through the semi-naive delta
//! path; what forces the runtime into full view recomputation is shrinkage
//! — deletions, key-overwrites, and growth of negated inputs. This pass
//! classifies every planned view-rule variant by the cheapest maintenance
//! algorithm that is *provably* sound for it:
//!
//! * **support-rederive** — every non-recursive, non-aggregate view whose
//!   head key the delta names: deleting a source row can retract head rows
//!   other sources still support, so the runtime deletes the touched head
//!   keys and re-derives them from the current state (delete-and-rederive,
//!   scoped to the keys the delta names). A single-predicate filter over a
//!   whole-row-keyed head is the simplest case: its key is the delta row's
//!   own columns. A delta row that does not carry the head key itself is
//!   *join-bound*: the runtime finds its touched keys by running the
//!   variant over the delta against current state. That is sound only
//!   when every other positive predicate of the rule binds the whole key
//!   directly — a derivation that lost rows on both sides is then still
//!   named by the direct side — and the delta table is not a view whose
//!   rows a view rule overwrites in place (see [`ProgramFacts`]).
//! * **dred** — self-recursive views (DRed, Gupta/Mumick/Subrahmanian '93):
//!   over-delete everything a deleted input row derived, closing over the
//!   view's own recursive variants; re-derive the over-deleted rows that
//!   still have a derivation, probing the rule's anchor predicate by the
//!   head columns it binds verbatim; propagate the re-derived rows
//!   semi-naively. Certified only for whole-row-keyed heads whose rules
//!   are free of negation, aggregates and stateful builtins, recurse
//!   through the view alone, and each join exactly one other positive
//!   predicate that anchors the head and is not overwritten in place by a
//!   view rule. Recursive views failing any of these get
//!   `full-recompute(recursive)`.
//! * **group-recompute** — aggregates. A delta row names its group key, so
//!   only the touched groups are re-folded; untouched groups keep their
//!   materialized rows. The runtime carries this verdict out as keyed
//!   re-derivation with a fold: an aggregate's declared key is its group
//!   key, so the same [`ViewMaint::KeyRederive`] step re-folds the touched
//!   groups and deletes the emptied ones.
//! * **full-recompute** — the fallback, with a machine-readable reason
//!   code and a hard-vs-fixable split: `fixable: true` marks views a
//!   schema or rule rewrite could rescue (lint W0010 surfaces the hot
//!   ones), `false` marks structural blocks (stateful builtins, body-less
//!   rules).
//!
//! Verdicts drive two consumers. `olgcheck analyze` renders them per view
//! rule variant; the planner compiles them into a [`MaintPlan`] whose
//! per-view [`ViewMaint`] strategy — keyed re-derivation or DRed — the
//! runtime executes instead of recomputing; with the recompute fallback
//! that makes three runtime strategies. (`runtime.rs` falls back per
//! round whenever a dirty input cannot name the touched keys, so
//! determinism never rests on this analysis being complete — only the
//! *speed* does.)

use super::ProgramContext;
use crate::ast::{BodyElem, Expr, HeadArg, Predicate, Rule, Span, TableDecl};
use crate::ids::{TableId, TableIds};
use crate::plan::CompiledRule;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The maintenance verdict for one semi-naive variant of a view rule.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintVerdict {
    /// Delete-and-rederive the head keys the delta names, against current
    /// state. Sound under stratified negation.
    SupportRederive {
        /// The head's key columns.
        key: Vec<usize>,
        /// The delta row does not carry the key: touched keys come from
        /// evaluating the variant over the delta, and every other positive
        /// predicate binds the whole key directly.
        join_bound: bool,
    },
    /// Delete-and-rederive for a self-recursive view: over-delete, then
    /// re-derive through the rule's anchor predicate, then propagate.
    Dred {
        /// Head columns (verbatim-bound or constant) that probe the
        /// rule's anchor predicate during re-derivation.
        anchor: Vec<usize>,
    },
    /// Re-fold only the aggregate groups the delta touches.
    GroupRecompute {
        /// Head columns forming the group key (the non-aggregate columns).
        group: Vec<usize>,
    },
    /// No incremental strategy applies; the view recomputes wholesale.
    FullRecompute {
        /// Machine-readable reason code (stable across releases):
        /// `impure-builtin`, `no-delta`, `recursive`, `unbound-group-key`,
        /// `unbound-head-key`.
        code: &'static str,
        /// Human-readable explanation.
        reason: String,
        /// True when a schema or rule rewrite could rescue the view (the
        /// W0010 hint); false for structural blocks.
        fixable: bool,
    },
}

impl MaintVerdict {
    /// Is this a fixable full-recompute (the W0010 candidate shape)?
    pub fn fixable_full(&self) -> bool {
        matches!(self, MaintVerdict::FullRecompute { fixable: true, .. })
    }

    /// Does the verdict certify some incremental strategy?
    pub fn incremental(&self) -> bool {
        !matches!(self, MaintVerdict::FullRecompute { .. })
    }
}

impl fmt::Display for MaintVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintVerdict::SupportRederive { key, join_bound } => {
                if *join_bound {
                    write!(f, "support-rederive(key={key:?}, join-bound)")
                } else {
                    write!(f, "support-rederive(key={key:?})")
                }
            }
            MaintVerdict::Dred { anchor } => write!(f, "dred(anchor={anchor:?})"),
            MaintVerdict::GroupRecompute { group } => {
                write!(f, "group-recompute(group={group:?})")
            }
            MaintVerdict::FullRecompute {
                code,
                reason,
                fixable,
            } => {
                let fix = if *fixable { ", fixable" } else { "" };
                write!(f, "full-recompute({code}{fix}): {reason}")
            }
        }
    }
}

/// The declared primary key of `table`, or the whole row when unkeyed.
fn placement_cols(decls: &HashMap<String, TableDecl>, table: &str, arity: usize) -> Vec<usize> {
    match decls.get(table).and_then(|d| d.keys.clone()) {
        Some(k) => k,
        None => (0..arity).collect(),
    }
}

/// Is head column `c` a constant or a verbatim column of `pred`'s row?
/// (Only verbatim bindings are *invertible* — the runtime must go from a
/// head key back to the matching source rows via an index probe, so pure
/// computed functions of delta columns do not qualify here.)
fn head_col_bound(rule: &Rule, c: usize, pred: &Predicate) -> bool {
    match rule.head.args.get(c) {
        Some(HeadArg::Expr(Expr::Lit(_))) => true,
        Some(HeadArg::Expr(Expr::Var(v))) => pred
            .args
            .iter()
            .any(|a| matches!(a, Expr::Var(w) if *w == *v)),
        _ => false,
    }
}

fn full(code: &'static str, reason: impl Into<String>, fixable: bool) -> MaintVerdict {
    MaintVerdict::FullRecompute {
        code,
        reason: reason.into(),
        fixable,
    }
}

/// Judge one semi-naive variant of a view rule: which maintenance
/// algorithm is sound when the delta arrives through positive predicate
/// `delta_pred`? The verdict is order-independent — the
/// judgement depends only on what a delta row determines, not on the
/// schedule the planner runs.
pub fn variant_verdict(
    rule: &Rule,
    delta_pred: Option<usize>,
    decls: &HashMap<String, TableDecl>,
    facts: &ProgramFacts,
) -> MaintVerdict {
    if let Some(fname) = crate::builtins::impure_call(rule) {
        return full(
            "impure-builtin",
            format!("calls stateful builtin `{fname}()`; re-derivation would mint fresh values"),
            false,
        );
    }
    let Some(d) = delta_pred else {
        return full(
            "no-delta",
            "no positive body predicate: nothing arrives incrementally",
            false,
        );
    };
    match facts.recursion.get(&rule.head.table) {
        Some(Ok(())) => {
            let anchor = dred_anchor(rule, &rule.head.table)
                .map(|(_, _, cols)| cols)
                .unwrap_or_default();
            return MaintVerdict::Dred { anchor };
        }
        Some(Err(reason)) => return full("recursive", reason.clone(), false),
        None => {}
    }
    let delta = rule
        .positive_predicates()
        .nth(d)
        .expect("delta_pred indexes a positive predicate");

    if rule.is_aggregate() {
        // Groups are keyed by the non-aggregate head columns
        // (`check_aggregate` pins the head table's primary key to exactly
        // these); a delta row must name its group.
        let group: Vec<usize> = rule
            .head
            .args
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, HeadArg::Expr(_)))
            .map(|(i, _)| i)
            .collect();
        for &c in &group {
            if !head_col_bound(rule, c, delta) {
                return full(
                    "unbound-group-key",
                    format!(
                        "group key column {c} is not a column of the `{}` delta row",
                        delta.table
                    ),
                    true,
                );
            }
        }
        return MaintVerdict::GroupRecompute { group };
    }

    let key = placement_cols(decls, &rule.head.table, rule.head.args.len());
    let npos = rule.positive_predicates().count();
    let binds_key = |p: &Predicate| key.iter().all(|&c| head_col_bound(rule, c, p));
    if let Some(&c) = key.iter().find(|&&c| !head_col_bound(rule, c, delta)) {
        // Join-bound: sound when every other positive predicate names the
        // whole key, so a derivation losing rows on several sides is
        // still named by a direct one.
        let others_direct = rule
            .positive_predicates()
            .enumerate()
            .all(|(i, p)| i == d || binds_key(p));
        let overwritten = facts.overwritable.contains(&delta.table);
        if npos > 1 && others_direct && !overwritten {
            return MaintVerdict::SupportRederive {
                key,
                join_bound: true,
            };
        }
        let why = if overwritten {
            ", and a view rule overwrites its rows in place"
        } else {
            ""
        };
        return full(
            "unbound-head-key",
            format!(
                "head key column {c} is join-bound, not a column of the `{}` delta row{why}",
                delta.table
            ),
            true,
        );
    }
    MaintVerdict::SupportRederive {
        key,
        join_bound: false,
    }
}

/// Judge every semi-naive variant of a view rule.
pub fn rule_verdicts(
    rule: &Rule,
    decls: &HashMap<String, TableDecl>,
    facts: &ProgramFacts,
) -> Vec<MaintVerdict> {
    let npos = rule.positive_predicates().count();
    if npos == 0 {
        return vec![variant_verdict(rule, None, decls, facts)];
    }
    (0..npos)
        .map(|d| variant_verdict(rule, Some(d), decls, facts))
        .collect()
}

/// Transitive body-table closure of every view table through view rules
/// (base tables terminate). Keyed by table name; only heads of view rules
/// appear, and a view is recursive when its closure contains itself.
fn view_closure<'a>(
    rules: &'a [Rule],
    decls: &HashMap<String, TableDecl>,
) -> HashMap<&'a str, HashSet<&'a str>> {
    let mut deps: HashMap<&str, HashSet<&str>> = HashMap::new();
    for rule in rules {
        if !super::classify(rule, decls).is_view {
            continue;
        }
        let entry = deps.entry(rule.head.table.as_str()).or_default();
        for b in &rule.body {
            if let BodyElem::Pred(p) = b {
                entry.insert(p.table.as_str());
            }
        }
    }
    let heads: Vec<&str> = deps.keys().copied().collect();
    loop {
        let mut grew = false;
        for &h in &heads {
            let reach: Vec<&str> = deps[h]
                .iter()
                .flat_map(|t| deps.get(t).into_iter().flatten())
                .copied()
                .collect();
            let entry = deps.get_mut(h).expect("head present");
            for t in reach {
                grew |= entry.insert(t);
            }
        }
        if !grew {
            break;
        }
    }
    deps
}

/// The DRed anchor of a rule deriving recursive view `view`: its only
/// positive predicate other than the view (`(positive index, predicate)`)
/// and the head columns that probe it — each a constant or a verbatim
/// column of the anchor. `None` when the rule has no such predicate, or
/// when no head column is verbatim-bound and the head is not wholly
/// constant (re-derivation would scan the whole anchor table).
fn dred_anchor<'a>(rule: &'a Rule, view: &str) -> Option<(usize, &'a Predicate, Vec<usize>)> {
    let mut anchors = rule
        .positive_predicates()
        .enumerate()
        .filter(|(_, p)| p.table != view);
    let (pos, pred) = anchors.next()?;
    if anchors.next().is_some() {
        return None;
    }
    let cols: Vec<usize> = (0..rule.head.args.len())
        .filter(|&c| head_col_bound(rule, c, pred))
        .collect();
    let any_var = cols
        .iter()
        .any(|&c| matches!(rule.head.args[c], HeadArg::Expr(Expr::Var(_))));
    if !any_var && cols.len() != rule.head.args.len() {
        return None;
    }
    Some((pos, pred, cols))
}

/// Can recursive view `view`, derived by `rules`, be maintained by DRed?
/// `Err` names the first condition that fails.
fn dred_certify(
    view: &str,
    rules: &[(usize, &Rule)],
    decls: &HashMap<String, TableDecl>,
    closure: &HashMap<&str, HashSet<&str>>,
    overwritable: &HashSet<String>,
) -> Result<(), String> {
    let arity = rules.first().map_or(0, |(_, r)| r.head.args.len());
    if placement_cols(decls, view, arity).len() != arity {
        return Err(format!(
            "recursive view `{view}` is keyed on a column subset: re-derivation \
             order would decide key overwrites"
        ));
    }
    for &(i, rule) in rules {
        let label = rule.label(i);
        if let Some(fname) = crate::builtins::impure_call(rule) {
            return Err(format!("rule `{label}` calls stateful builtin `{fname}()`"));
        }
        if rule.is_aggregate() {
            return Err(format!("rule `{label}` aggregates"));
        }
        for b in &rule.body {
            let BodyElem::Pred(p) = b else { continue };
            if p.negated {
                return Err(format!("rule `{label}` negates `{}`", p.table));
            }
            if p.table != view
                && closure
                    .get(p.table.as_str())
                    .is_some_and(|d| d.contains(view))
            {
                return Err(format!(
                    "rule `{label}` recurses through `{}`, not `{view}` alone",
                    p.table
                ));
            }
        }
        let others = rule
            .positive_predicates()
            .filter(|p| p.table != view)
            .count();
        if others != 1 {
            return Err(format!(
                "rule `{label}` joins {others} positive predicates besides `{view}` \
                 (DRed needs exactly one, to anchor re-derivation)"
            ));
        }
        let Some((_, anchor, _)) = dred_anchor(rule, view) else {
            return Err(format!(
                "rule `{label}`: no head column is a constant or a verbatim column of \
                 its anchor predicate"
            ));
        };
        if overwritable.contains(&anchor.table) {
            return Err(format!(
                "rule `{label}` anchors on `{}`, whose rows a view rule overwrites in place",
                anchor.table
            ));
        }
    }
    Ok(())
}

/// Whole-program facts the per-variant verdicts depend on.
#[derive(Debug, Clone, Default)]
pub struct ProgramFacts {
    /// DRed certification of every recursive view (see
    /// [`dred_certify`]), keyed by view name.
    pub recursion: HashMap<String, Result<(), String>>,
    /// View tables keyed on a column subset (aggregates included): a view
    /// rule overwrites their rows in place, and such an overwrite does not
    /// mark downstream views dirty, so recomputation leaves dependants
    /// stale until their next rebuild. Neither a DRed anchor nor a
    /// join-bound source may be one — maintenance would diverge from that
    /// rebuild.
    pub overwritable: HashSet<String>,
}

/// Compute the [`ProgramFacts`] of a rule set.
pub fn program_facts(rules: &[Rule], decls: &HashMap<String, TableDecl>) -> ProgramFacts {
    let overwritable: HashSet<String> = rules
        .iter()
        .filter(|r| super::classify(r, decls).is_view)
        .filter(|r| {
            placement_cols(decls, &r.head.table, r.head.args.len()).len() != r.head.args.len()
        })
        .map(|r| r.head.table.clone())
        .collect();
    let closure = view_closure(rules, decls);
    let mut recursion = HashMap::new();
    for (view, deps) in &closure {
        if !deps.contains(view) {
            continue;
        }
        let deriving: Vec<(usize, &Rule)> = rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.head.table == *view && super::classify(r, decls).is_view)
            .collect();
        recursion.insert(
            view.to_string(),
            dred_certify(view, &deriving, decls, &closure, &overwritable),
        );
    }
    ProgramFacts {
        recursion,
        overwritable,
    }
}

/// One view rule's entry in the whole-program [`MaintReport`].
#[derive(Debug, Clone)]
pub struct RuleMaintReport {
    /// Index of the rule in `ProgramContext::rules` (for lint anchoring).
    pub rule_index: usize,
    /// The rule's display label.
    pub label: String,
    /// Head (view) table.
    pub head: String,
    /// Source location of the rule (for annotations).
    pub span: Span,
    /// `(delta table, verdict)` per semi-naive variant, in variant order.
    pub variants: Vec<(String, MaintVerdict)>,
}

/// Whole-program maintenance analysis: a verdict for every planned
/// variant of every view rule.
#[derive(Debug, Clone, Default)]
pub struct MaintReport {
    /// Per-view-rule entries, in rule order (non-view rules are absent —
    /// their heads are events or inductive state, never maintained).
    pub rules: Vec<RuleMaintReport>,
}

/// Run the maintenance pass over a context. `rule_ok` is the error-pass
/// mask; broken rules are skipped.
pub fn analyze(ctx: &ProgramContext, rule_ok: &[bool]) -> MaintReport {
    let facts = program_facts(&ctx.rules, &ctx.decls);
    let mut rules = Vec::new();
    for (i, rule) in ctx.rules.iter().enumerate() {
        if !rule_ok[i] || !super::classify(rule, &ctx.decls).is_view {
            continue;
        }
        let verdicts = rule_verdicts(rule, &ctx.decls, &facts);
        let mut deltas: Vec<String> = rule
            .positive_predicates()
            .map(|p| p.table.clone())
            .collect();
        if deltas.is_empty() {
            deltas.push("(none)".into());
        }
        rules.push(RuleMaintReport {
            rule_index: i,
            label: rule.label(i),
            head: rule.head.table.clone(),
            span: rule.span,
            variants: deltas.into_iter().zip(verdicts).collect(),
        });
    }
    MaintReport { rules }
}

/// Render the report for `olgcheck analyze` (text format).
pub fn render(report: &MaintReport) -> String {
    let mut s = String::from("maintenance strategies (how retractions propagate to each view):\n");
    if report.rules.is_empty() {
        s.push_str("  (no view rules)\n");
    }
    for r in &report.rules {
        s.push_str(&format!("  view rule `{}` -> {}:\n", r.label, r.head));
        for (delta, v) in &r.variants {
            s.push_str(&format!("    delta {delta}: {v}\n"));
        }
    }
    s
}

/// Render the report as a JSON array (one object per view rule), for
/// `olgcheck analyze --format json`.
pub fn render_json(report: &MaintReport) -> String {
    use super::diag::json_string;
    let mut out = String::from("[");
    for (i, r) in report.rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"head\":{},\"variants\":[",
            json_string(&r.label),
            json_string(&r.head)
        ));
        for (j, (delta, v)) in r.variants.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match v {
                MaintVerdict::SupportRederive { key, join_bound } => out.push_str(&format!(
                    "{{\"delta\":{},\"verdict\":\"support-rederive\",\"key\":{key:?},\
                     \"join_bound\":{join_bound}}}",
                    json_string(delta)
                )),
                MaintVerdict::Dred { anchor } => out.push_str(&format!(
                    "{{\"delta\":{},\"verdict\":\"dred\",\"anchor\":{anchor:?}}}",
                    json_string(delta)
                )),
                MaintVerdict::GroupRecompute { group } => out.push_str(&format!(
                    "{{\"delta\":{},\"verdict\":\"group-recompute\",\"group\":{group:?}}}",
                    json_string(delta)
                )),
                MaintVerdict::FullRecompute {
                    code,
                    reason,
                    fixable,
                } => out.push_str(&format!(
                    "{{\"delta\":{},\"verdict\":\"full-recompute\",\"code\":{},\
                     \"reason\":{},\"fixable\":{fixable}}}",
                    json_string(delta),
                    json_string(code),
                    json_string(reason)
                )),
            }
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

///////////////////////////////////////////////////////////////////////////
// Compiled strategies: what the runtime executes
///////////////////////////////////////////////////////////////////////////

/// How one component of a view's key is computed from a source row.
#[derive(Debug, Clone, PartialEq)]
pub enum Bind {
    /// The key component is this column of the source row, verbatim.
    Col(usize),
    /// The key component is this constant for every row the rule derives.
    Const(Value),
}

/// One body predicate (positive or negated) of some rule deriving a view,
/// as the maintenance executor sees it: where dirt can come from, and how
/// a dirty row names the touched keys.
#[derive(Debug, Clone)]
pub struct SourceDep {
    /// The source table.
    pub tid: TableId,
    /// How a dirty row of this source names the touched keys.
    pub keys: KeySource,
}

/// How a dirty source row names the view keys it touches.
#[derive(Debug, Clone)]
pub enum KeySource {
    /// The row carries the key: one [`Bind`] per key component.
    Direct(Vec<Bind>),
    /// The key is join-bound (a `support-rederive(…, join-bound)`
    /// verdict): evaluate `rule`'s `variant`, whose delta predicate is the
    /// source, over the dirty rows against current state and project the
    /// derived head rows onto the key.
    Join {
        /// Rule id (index into `Plan::rules`).
        rule: usize,
        /// Variant whose delta predicate is the source.
        variant: usize,
    },
    /// Neither: a dirty row of this source makes the executor fall back
    /// to full recomputation for the round.
    Unbound,
}

/// A scoped re-evaluation recipe: which rule variant to run, anchored on
/// which positive predicate, and how to find the anchor rows for a key.
#[derive(Debug, Clone)]
pub struct AnchorEval {
    /// Rule id (index into `Plan::rules`).
    pub rule: usize,
    /// Variant whose delta predicate is the anchor.
    pub variant: usize,
    /// Anchor table.
    pub tid: TableId,
    /// Key projection over anchor rows; all components are `Col` or
    /// `Const`, so `Col` columns form an index probe and `Const`
    /// components filter keys that this rule can never derive.
    pub binds: Vec<Bind>,
}

/// The compiled maintenance strategy for one view table.
#[derive(Debug, Clone)]
pub enum ViewMaint {
    /// Delete-and-rederive for a self-recursive, whole-row-keyed view.
    Dred {
        /// One entry per deriving rule, in rule order.
        rules: Vec<DredRule>,
        /// The anchor table of every deriving rule (the view's non-self
        /// inputs, whose delta logs drive maintenance).
        sources: Vec<TableId>,
    },
    /// Delete the touched head keys, then re-derive them rule by rule. An
    /// aggregate view has exactly one rule, whose re-derivation folds the
    /// touched groups; its declared key is its group key.
    KeyRederive {
        /// The head table's declared key columns.
        key_cols: Vec<usize>,
        /// One anchored re-evaluation per deriving rule, in rule order
        /// (insertion order ties break exactly as recomputation would).
        rules: Vec<AnchorEval>,
        /// Every body predicate of every deriving rule.
        sources: Vec<SourceDep>,
    },
}

impl ViewMaint {
    /// The id of the view's first deriving rule. View rules run in their
    /// head's stratum, so this rule's stratum is the view's.
    pub fn first_rule(&self) -> usize {
        match self {
            ViewMaint::Dred { rules, .. } => rules[0].anchor.rule,
            ViewMaint::KeyRederive { rules, .. } => rules[0].rule,
        }
    }
}

/// One rule deriving a [`ViewMaint::Dred`] view.
#[derive(Debug, Clone)]
pub struct DredRule {
    /// The anchored variant: its delta predicate is the rule's only
    /// positive predicate besides the view. Run over the anchor's deleted
    /// rows it seeds the over-delete, over its added rows it propagates
    /// insertions, and over probed anchor rows it re-derives.
    pub anchor: AnchorEval,
    /// Head columns projected from an over-deleted row to probe the
    /// anchor, parallel to `anchor.binds`.
    pub head_cols: Vec<usize>,
    /// Variants whose delta predicate is an occurrence of the view itself:
    /// they close the over-delete and propagate re-derived rows.
    pub recursive: Vec<usize>,
}

/// Per-plan maintenance strategies, built by the planner.
#[derive(Debug, Clone, Default)]
pub struct MaintPlan {
    /// Compiled strategy per view table. Views absent here always
    /// recompute (uncertified recursion, impure, or structurally
    /// unbindable).
    pub views: HashMap<TableId, ViewMaint>,
}

/// The key projection of `pred`'s row onto the head columns `key_cols`,
/// or `None` when some component is neither a constant nor a verbatim
/// column of the predicate.
fn source_binds(rule: &Rule, key_cols: &[usize], pred: &Predicate) -> Option<Vec<Bind>> {
    let mut binds = Vec::with_capacity(key_cols.len());
    for &c in key_cols {
        match rule.head.args.get(c) {
            Some(HeadArg::Expr(Expr::Lit(v))) => binds.push(Bind::Const(v.clone())),
            Some(HeadArg::Expr(Expr::Var(name))) => {
                let col = pred
                    .args
                    .iter()
                    .position(|a| matches!(a, Expr::Var(w) if w == name))?;
                binds.push(Bind::Col(col));
            }
            _ => return None,
        }
    }
    Some(binds)
}

/// The variant of `cr` whose delta predicate is positive predicate `p`.
fn variant_for(cr: &CompiledRule, p: usize) -> Option<usize> {
    cr.variants.iter().position(|v| v.delta_pred == Some(p))
}

/// The compiled DRed strategy for a certified recursive view derived by
/// `rids`, or `None` when some anchor cannot be compiled.
fn dred_strategy(
    rids: &[usize],
    rules: &[Rule],
    compiled: &[CompiledRule],
    ids: &TableIds,
) -> Option<ViewMaint> {
    let mut drules = Vec::with_capacity(rids.len());
    let mut sources: Vec<TableId> = Vec::new();
    for &rid in rids {
        let (cr, rule) = (&compiled[rid], &rules[rid]);
        let (pos, pred, head_cols) = dred_anchor(rule, &rule.head.table)?;
        let tid = ids.get(&pred.table)?;
        let anchor = AnchorEval {
            rule: rid,
            variant: variant_for(cr, pos)?,
            tid,
            binds: source_binds(rule, &head_cols, pred)?,
        };
        let recursive = rule
            .positive_predicates()
            .enumerate()
            .filter(|(_, p)| p.table == rule.head.table)
            .map(|(i, _)| variant_for(cr, i))
            .collect::<Option<Vec<usize>>>()?;
        if !sources.contains(&tid) {
            sources.push(tid);
        }
        drules.push(DredRule {
            anchor,
            head_cols,
            recursive,
        });
    }
    Some(ViewMaint::Dred {
        rules: drules,
        sources,
    })
}

/// Build the compiled per-view strategies from the planner's outputs.
/// `rules` are the AST rules aligned index-for-index with `compiled`;
/// `facts` is [`program_facts`] over them and `verdicts` their
/// [`rule_verdicts`] (empty for non-view rules).
pub fn view_strategies(
    rules: &[Rule],
    compiled: &[CompiledRule],
    decls: &HashMap<String, TableDecl>,
    ids: &TableIds,
    facts: &ProgramFacts,
    verdicts: &[Vec<MaintVerdict>],
) -> HashMap<TableId, ViewMaint> {
    // Deriving view rules per head table, in rule order.
    let mut by_head: HashMap<TableId, Vec<usize>> = HashMap::new();
    for cr in compiled {
        if cr.is_view {
            by_head.entry(cr.head_tid).or_default().push(cr.id);
        }
    }
    let mut out = HashMap::new();
    'views: for (&v, rids) in &by_head {
        // Recursive views maintain by DRed when certified, else recompute.
        if let Some(cert) = facts.recursion.get(&compiled[rids[0]].head_table) {
            if cert.is_ok() {
                if let Some(m) = dred_strategy(rids, rules, compiled, ids) {
                    out.insert(v, m);
                }
            }
            continue;
        }
        // Statefulness anywhere in the deriving set disqualifies the view.
        if rids
            .iter()
            .any(|&rid| crate::builtins::impure_call(&rules[rid]).is_some())
        {
            continue;
        }
        // An aggregate must be the sole writer of its head: a second rule
        // would interleave with group overwrites in an order the scoped
        // path cannot reproduce.
        if rids.len() > 1 && rids.iter().any(|&r| compiled[r].aggregate) {
            continue;
        }
        // Keyed delete-and-rederive when every rule can anchor. An
        // aggregate's declared key is its group key (`check_aggregate`),
        // so its groups are re-folded through the same step.
        let arity = compiled[rids[0]].head_args.len();
        let key_cols = placement_cols(decls, &compiled[rids[0]].head_table, arity);
        let mut anchors = Vec::new();
        let mut sources = Vec::new();
        for &rid in rids {
            let (cr, rule) = (&compiled[rid], &rules[rid]);
            let mut anchor = None;
            let mut pos = 0usize;
            for b in &rule.body {
                let BodyElem::Pred(p) = b else { continue };
                let Some(tid) = ids.get(&p.table) else {
                    continue 'views;
                };
                let binds = source_binds(rule, &key_cols, p);
                let mut keys = KeySource::Unbound;
                if !p.negated {
                    if anchor.is_none() && binds.is_some() {
                        if let Some(vi) = variant_for(cr, pos) {
                            anchor = Some(AnchorEval {
                                rule: rid,
                                variant: vi,
                                tid,
                                binds: binds.clone().expect("checked is_some"),
                            });
                        }
                    }
                    // The verdict alone certifies a join-bound probe.
                    let join_bound = matches!(
                        verdicts[rid].get(pos),
                        Some(MaintVerdict::SupportRederive {
                            join_bound: true,
                            ..
                        })
                    );
                    if binds.is_none() && join_bound {
                        if let Some(variant) = variant_for(cr, pos) {
                            keys = KeySource::Join { rule: rid, variant };
                        }
                    }
                    pos += 1;
                }
                if let Some(b) = binds {
                    keys = KeySource::Direct(b);
                }
                sources.push(SourceDep { tid, keys });
            }
            // Every deriving rule needs an anchor, or touched keys could
            // not be re-derived through it.
            match anchor {
                Some(a) => anchors.push(a),
                None => continue 'views,
            }
        }
        out.insert(
            v,
            ViewMaint::KeyRederive {
                key_cols: key_cols.clone(),
                rules: anchors,
                sources,
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::{report, ProgramContext, SourceMap};
    use super::*;

    fn maint_report(src: &str) -> MaintReport {
        let mut ctx = ProgramContext::new();
        let mut map = SourceMap::new();
        assert!(ctx.add_source("t.olg", src, &mut map));
        report(&ctx).maint
    }

    fn verdict(rep: &MaintReport, rule: usize, variant: usize) -> &MaintVerdict {
        &rep.rules[rule].variants[variant].1
    }

    #[test]
    fn single_pred_whole_row_view_rederives_its_key() {
        let rep = maint_report(
            "define(src, keys(0), {Int, Int});
             define(v, keys(0,1), {Int, Int});
             src(1, 2);
             v(X, Y) :- src(X, Y), Y > 0;",
        );
        assert_eq!(
            verdict(&rep, 0, 0),
            &MaintVerdict::SupportRederive {
                key: vec![0, 1],
                join_bound: false
            },
            "{rep:?}"
        );
    }

    #[test]
    fn computed_head_key_is_fixable_full() {
        // The delta row does not carry the computed key column, so no
        // touched key can be named: the view recomputes.
        let rep = maint_report(
            "define(src, keys(0), {Int});
             define(v, keys(0), {Int});
             src(1);
             v(Y) :- src(X), Y := X + 1;",
        );
        let v = verdict(&rep, 0, 0);
        assert!(
            matches!(
                v,
                MaintVerdict::FullRecompute {
                    code: "unbound-head-key",
                    fixable: true,
                    ..
                }
            ),
            "{v:?}"
        );
    }

    #[test]
    fn keyed_join_gets_support_rederive() {
        let rep = maint_report(
            "define(a, keys(0), {Int, Int});
             define(b, keys(0), {Int, Int});
             define(v, keys(0), {Int, Int});
             a(1, 2); b(2, 3);
             v(X, Z) :- a(X, Y), b(Y, Z);",
        );
        // delta a: head key col 0 = X, a column of a's row.
        assert_eq!(
            verdict(&rep, 0, 0),
            &MaintVerdict::SupportRederive {
                key: vec![0],
                join_bound: false
            }
        );
        // delta b: X is join-bound, but `a` names the whole key directly.
        assert_eq!(
            verdict(&rep, 0, 1),
            &MaintVerdict::SupportRederive {
                key: vec![0],
                join_bound: true
            }
        );
    }

    #[test]
    fn join_bound_key_needs_every_other_source_direct() {
        let rep = maint_report(
            "define(a, keys(0), {Int, Int});
             define(b, keys(0), {Int, Int});
             define(c, keys(0), {Int, Int});
             define(v, keys(0), {Int, Int});
             a(1, 2); b(2, 3); c(3, 4);
             v(X, Z) :- a(X, Y), b(Y, W), c(W, Z);",
        );
        // delta b: X is join-bound and `c` does not bind it either, so a
        // derivation losing its `b` and `c` rows together would go unseen.
        match verdict(&rep, 0, 1) {
            MaintVerdict::FullRecompute { code, fixable, .. } => {
                assert_eq!(*code, "unbound-head-key");
                assert!(fixable);
            }
            other => panic!("expected full-recompute, got {other}"),
        }
    }

    #[test]
    fn aggregates_group_recompute_when_delta_names_the_group() {
        let rep = maint_report(
            "define(src, keys(0,1), {Int, Int});
             define(agg, keys(0), {Int, Int});
             src(1, 2);
             agg(X, count<Y>) :- src(X, Y);",
        );
        assert_eq!(
            verdict(&rep, 0, 0),
            &MaintVerdict::GroupRecompute { group: vec![0] }
        );
    }

    #[test]
    fn aggregate_over_join_bound_group_is_fixable_full() {
        let rep = maint_report(
            "define(m, keys(0), {Int, Int});
             define(src, keys(0,1), {Int, Int});
             define(agg, keys(0), {Int, Int});
             m(1, 7); src(7, 2);
             agg(G, count<Y>) :- m(X, G), src(X, Y);",
        );
        // delta src: G is join-bound through m.
        match verdict(&rep, 0, 1) {
            MaintVerdict::FullRecompute { code, fixable, .. } => {
                assert_eq!(*code, "unbound-group-key");
                assert!(fixable);
            }
            other => panic!("expected full-recompute, got {other}"),
        }
    }

    #[test]
    fn linear_recursion_gets_dred() {
        let rep = maint_report(
            "define(edge, keys(0,1), {Int, Int});
             define(path, keys(0,1), {Int, Int});
             edge(1, 2);
             path(X, Y) :- edge(X, Y);
             path(X, Z) :- edge(X, Y), path(Y, Z);",
        );
        // Every variant of every path rule, including the non-recursive
        // base rule, maintains by DRed; each anchors on `edge` by the head
        // columns it binds verbatim.
        assert_eq!(
            verdict(&rep, 0, 0),
            &MaintVerdict::Dred { anchor: vec![0, 1] }
        );
        assert_eq!(verdict(&rep, 1, 0), &MaintVerdict::Dred { anchor: vec![0] });
        assert_eq!(verdict(&rep, 1, 1), &MaintVerdict::Dred { anchor: vec![0] });
        assert!(render(&rep).contains("delta path: dred(anchor=[0])"));
        assert!(render_json(&rep).contains("\"verdict\":\"dred\",\"anchor\":[0]"));
    }

    fn recursive_code(src: &str) -> String {
        let rep = maint_report(src);
        let last = rep.rules.last().expect("a view rule");
        match &last.variants[0].1 {
            MaintVerdict::FullRecompute { code, reason, .. } => format!("{code}: {reason}"),
            other => panic!("expected full-recompute, got {other}"),
        }
    }

    #[test]
    fn uncertified_recursion_recomputes_with_a_reason() {
        let base = "define(edge, keys(0,1), {Int, Int});
                    define(block, keys(0), {Int});
                    edge(1, 2); block(3);";
        // Keyed on a column subset: overwrite order would matter.
        let keyed = recursive_code(&format!(
            "{base} define(p, keys(0), {{Int, Int}});
             p(X, Y) :- edge(X, Y);
             p(X, Z) :- edge(X, Y), p(Y, Z);"
        ));
        assert!(keyed.starts_with("recursive: ") && keyed.contains("column subset"));
        // Negation in a deriving rule.
        let neg = recursive_code(&format!(
            "{base} define(p, keys(0,1), {{Int, Int}});
             p(X, Y) :- edge(X, Y), notin block(X);
             p(X, Z) :- edge(X, Y), p(Y, Z);"
        ));
        assert!(neg.contains("negates `block`"), "{neg}");
        // Mutual recursion.
        let mutual = recursive_code(&format!(
            "{base} define(p, keys(0,1), {{Int, Int}});
             define(q, keys(0,1), {{Int, Int}});
             p(X, Y) :- edge(X, Y);
             q(X, Z) :- edge(X, Y), p(Y, Z);
             p(X, Z) :- edge(X, Y), q(Y, Z);"
        ));
        assert!(mutual.contains("recurses through"), "{mutual}");
        // Nonlinear recursion: no predicate besides the view to anchor on.
        let nonlinear = recursive_code(&format!(
            "{base} define(p, keys(0,1), {{Int, Int}});
             p(X, Y) :- edge(X, Y);
             p(X, Z) :- p(X, Y), p(Y, Z);"
        ));
        assert!(nonlinear.contains("0 positive predicates"), "{nonlinear}");
        // Anchored on an aggregate: its groups are overwritten in place
        // without dirtying the view.
        let on_agg = recursive_code(&format!(
            "{base} define(cnt, keys(0), {{Int, Int}});
             define(p, keys(0,1), {{Int, Int}});
             cnt(X, count<Y>) :- edge(X, Y);
             p(X, Y) :- cnt(X, Y);
             p(X, Z) :- cnt(X, Y), p(Y, Z);"
        ));
        assert!(on_agg.contains("overwrites in place"), "{on_agg}");
    }

    #[test]
    fn join_bound_source_overwritten_in_place_recomputes() {
        let rep = maint_report(
            "define(a, keys(0,1), {Int, Int});
             define(cnt, keys(0), {Int, Int});
             define(v, keys(0,1), {Int, Int});
             a(1, 2);
             cnt(X, count<Y>) :- a(X, Y);
             v(X, Y) :- a(X, Y), cnt(Y, _);",
        );
        match verdict(&rep, 1, 1) {
            MaintVerdict::FullRecompute { code, reason, .. } => {
                assert_eq!(*code, "unbound-head-key");
                assert!(reason.contains("overwrites its rows in place"), "{reason}");
            }
            other => panic!("expected full-recompute, got {other}"),
        }
    }

    #[test]
    fn stateful_builtin_is_hard_full_recompute() {
        let rep = maint_report(
            "define(src, keys(0), {Int});
             define(v, keys(0,1), {Int, Int});
             src(1);
             v(X, I) :- src(X), I := qid();",
        );
        match verdict(&rep, 0, 0) {
            MaintVerdict::FullRecompute {
                code,
                fixable,
                reason,
            } => {
                assert_eq!(*code, "impure-builtin");
                assert!(!fixable, "{reason}");
            }
            other => panic!("expected full-recompute, got {other}"),
        }
    }

    #[test]
    fn non_view_rules_are_absent() {
        let rep = maint_report(
            "event e, {Int};
             define(t, keys(0), {Int});
             t(X) :- e(X);",
        );
        assert!(rep.rules.is_empty(), "{rep:?}");
    }

    #[test]
    fn negated_body_means_rederive() {
        let rep = maint_report(
            "define(a, keys(0), {Int});
             define(b, keys(0), {Int});
             define(v, keys(0), {Int});
             a(1); b(2);
             v(X) :- a(X), notin b(X);",
        );
        assert_eq!(
            verdict(&rep, 0, 0),
            &MaintVerdict::SupportRederive {
                key: vec![0],
                join_bound: false
            }
        );
    }

    #[test]
    fn render_lists_verdicts_and_json_is_tagged() {
        let rep = maint_report(
            "define(src, keys(0), {Int, Int});
             define(v, keys(0,1), {Int, Int});
             src(1, 2);
             v(X, Y) :- src(X, Y);",
        );
        let s = render(&rep);
        assert!(s.contains("view rule `rule#0(v)` -> v"), "{s}");
        assert!(s.contains("delta src: support-rederive(key=[0, 1])"), "{s}");
        let j = render_json(&rep);
        assert!(j.contains("\"verdict\":\"support-rederive\""), "{j}");
    }
}
