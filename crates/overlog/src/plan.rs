//! Rule compilation: join scheduling, semi-naive variants, and the
//! whole-program plan.
//!
//! A rule is compiled into one [`Variant`] per positive body predicate: the
//! variant where that predicate reads the *delta* (tuples new this round)
//! while the others read full tables — the classic semi-naive rewrite.
//! Each variant is lowered in one step, straight from the AST to the
//! kernel the runtime executes ([`crate::kernel::compile_variant`]).
//!
//! All *validation* — reference checking, safety (range restriction),
//! aggregate rules, stratification, view/base conflicts — lives in
//! [`crate::analysis`] and is shared with the standalone `olgcheck`
//! analyzer: this module calls [`crate::analysis::validate_rule`] and then
//! lowers each variant in the execution order it returns (reordered by
//! estimated cardinality), so lowering cannot fail and load-time rejection
//! is byte-for-byte the same check olgcheck reports.

use crate::analysis::card::CostModel;
use crate::analysis::maint::{self, MaintPlan};
use crate::analysis::{self, mono, safety, RuleAnalysis};
use crate::ast::*;
use crate::builtins::rule_reorderable;
use crate::error::Result;
use crate::ids::{IdSet, TableId, TableIds};
use crate::kernel;
use crate::value::{TypeTag, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// One stratum's entry in [`Plan::strata_delta`]: `(table index,
/// [(rule id, variant index)])` pairs sorted by table index.
pub type StratumDeltaIndex = Vec<(usize, Vec<(usize, usize)>)>;

/// One semi-naive variant of a rule.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Which positive predicate (by index among positives) reads the delta;
    /// `None` for rules without positive predicates (run once per tick).
    pub delta_pred: Option<usize>,
    /// The delta scan's literal checks (its `const_checks`), copied up
    /// when the delta scan is scheduled first (empty otherwise). When
    /// no row of a round's delta slice passes these, the evaluator skips
    /// the variant without entering the kernel at all: with zero rows
    /// surviving the first op, the remaining ops would never run, so
    /// the skip is observationally identical (including stateful-builtin
    /// call counts). This is the tick-loop fast path for protocol
    /// dispatch, where dozens of handler rules scan the same event table
    /// and disagree only on a literal discriminator column.
    pub delta_gate: Vec<(usize, Value)>,
    /// The variant lowered into a kernel
    /// ([`crate::kernel::compile_variant`]): what the runtime executes.
    pub kernel: kernel::Kernel,
}

/// The shape of one head argument, as aggregate folding and view
/// maintenance read it (the kernel head computes the values).
#[derive(Debug, Clone)]
pub enum CHeadArg {
    /// A projected expression: in an aggregate rule, a group-key column.
    Key,
    /// An aggregate over the group; `true` when it folds an input
    /// variable (`false` for `count<*>`).
    Agg(AggKind, bool),
}

/// A fully compiled rule.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Stable id (index into the runtime's rule vector).
    pub id: usize,
    /// Human-readable label for traces and errors.
    pub label: String,
    /// Deletion rule?
    pub delete: bool,
    /// Head target table.
    pub head_table: String,
    /// Dense id of the head table.
    pub head_tid: TableId,
    /// Compiled head arguments.
    pub head_args: Vec<CHeadArg>,
    /// Location-specifier argument index, if any.
    pub head_loc: Option<usize>,
    /// Aggregate rule?
    pub aggregate: bool,
    /// Tables of positive body predicates, in order.
    pub positive_tables: Vec<String>,
    /// Dense ids of the positive body predicates, in order.
    pub positive_tids: Vec<TableId>,
    /// Semi-naive variants (one per positive predicate; a single
    /// `delta_pred == None` variant when there are none).
    pub variants: Vec<Variant>,
    /// A *view* rule derives materialized tuples from materialized tuples
    /// only; views are re-derivable and recomputed after deletions.
    pub is_view: bool,
    /// An *inductive* rule updates a materialized table in response to
    /// events. Its local insertions take effect at the **next** timestep
    /// (Dedalus-style), so rules may read a table and conditionally update
    /// it without creating a stratification cycle.
    pub inductive: bool,
    /// Evaluation stratum.
    pub stratum: usize,
}

/// Planner options. `maintenance` is the one live switch (see
/// `OverlogRuntime::set_plan_options`); the other fields are vestigial,
/// survive only because the stack benchmark prints them, and plan
/// construction rejects any value but their default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Vestigial and always `true`: join schedules are always reordered
    /// by estimated cardinality (the [`CostModel`]) unless the rule calls
    /// a builtin outside the pure standard library (DESIGN.md §12).
    pub reorder_joins: bool,
    /// Vestigial and always `true`: view maintenance is always scoped to
    /// the views transitively affected by the dirty tables, and growth
    /// skips the CALM-certified monotonic views (DESIGN.md §12).
    pub scoped_views: bool,
    /// Vestigial and always 1: intra-node sharded evaluation was removed
    /// (DESIGN.md §14). The field survives only because the stack
    /// benchmark prints it; plan construction rejects any other value.
    pub shards: usize,
    /// Maintain views incrementally under retractions where the
    /// maintenance-strategy analysis ([`crate::analysis::maint`])
    /// certifies a strategy, instead of recomputing them. The runtime
    /// falls back to recomputation per view, per round, whenever a dirty
    /// input defeats the compiled strategy — so disabling this changes
    /// cost, never results.
    pub maintenance: bool,
    /// Vestigial and always `true`: compiled kernels are the only rule
    /// evaluator (DESIGN.md §18). The field survives only because the
    /// stack benchmark prints it; plan construction rejects `false`.
    pub kernels: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            reorder_joins: true,
            scoped_views: true,
            shards: 1,
            maintenance: true,
            kernels: true,
        }
    }
}

/// Full compilation output over a set of declarations and rules.
#[derive(Debug, Default)]
pub struct Plan {
    /// Compiled rules (shared so the evaluator can hold one while mutating
    /// tables).
    pub rules: Vec<Arc<CompiledRule>>,
    /// Rule ids grouped per stratum, lowest first.
    pub strata: Vec<Vec<usize>>,
    /// Per stratum, the delta-consumption index driving the semi-naive
    /// fixpoint: `(table index, [(rule id, variant index)])` pairs, sorted
    /// by table index, listing every delta variant that reads that table.
    /// A round only needs to look at these tables (anything else appended
    /// to the tick log is invisible to the stratum's rules) and only needs
    /// to run the variants whose delta slice is non-empty — the evaluator
    /// re-sorts the selected variants by `(rule id, variant index)` so the
    /// execution order is identical to sweeping every rule in the stratum.
    pub strata_delta: Vec<StratumDeltaIndex>,
    /// The table-name interner this plan was compiled against (snapshot);
    /// resolves every `TableId` below back to a name for diagnostics.
    pub ids: TableIds,
    /// Tables derived by view rules.
    pub view_tables: IdSet,
    /// Tables read by view rules (direct inputs; recompute is global so
    /// transitivity is implicit).
    pub view_inputs: IdSet,
    /// Tables appearing **negated** in a view rule's body: insertions into
    /// these can retract view tuples, so they must trigger recomputation
    /// just like deletions (stratified negation is non-monotone).
    pub neg_view_inputs: IdSet,
    /// Transitive input closure per view table: every table whose change
    /// can invalidate the view, walking backwards through view rules
    /// (includes intermediate view tables).
    pub view_deps: HashMap<TableId, IdSet>,
    /// View tables whose whole derivation closure is free of negation and
    /// aggregation — provably monotonic (CALM), so growth of their inputs
    /// never retracts their tuples.
    pub monotonic_views: IdSet,
    /// Per-view maintenance strategies (the [`crate::analysis::maint`]
    /// pass); the runtime consults this to propagate retractions
    /// incrementally instead of recomputing.
    pub maint: MaintPlan,
    /// Per-rule, per-variant kernel verdicts (the [`crate::kernel`]
    /// compiler): which index probes hash typed `i64` keys. Feeds
    /// `olgcheck analyze` and the W0011 lint.
    pub kernel: kernel::KernelPlan,
    /// The options this plan was compiled with.
    pub options: PlanOptions,
}

/// Compile all `rules` against the table `decls` with default options and
/// no fact statistics. Table ids are assigned fresh, in sorted declaration
/// name order (hosts that own an interner use [`compile_with`]).
pub fn compile(decls: &HashMap<String, TableDecl>, rules: &[Rule]) -> Result<Plan> {
    let mut ids = TableIds::new();
    compile_with(
        decls,
        rules,
        &HashMap::new(),
        PlanOptions::default(),
        &mut ids,
    )
}

/// Compile all `rules` against the table `decls`, feeding ground-fact
/// counts into the cardinality model that drives join reordering.
///
/// `ids` is the caller's table-name interner: ids already assigned stay
/// stable (the runtime's `Vec`-indexed storage depends on that), and any
/// declared table not yet interned is added in sorted name order so
/// standalone compilation is deterministic. The plan keeps a snapshot.
///
/// Panics if `options` sets a vestigial field (`reorder_joins`,
/// `scoped_views`, `shards`, `kernels`) to anything but its one legal
/// value.
pub fn compile_with(
    decls: &HashMap<String, TableDecl>,
    rules: &[Rule],
    fact_counts: &HashMap<String, usize>,
    options: PlanOptions,
    ids: &mut TableIds,
) -> Result<Plan> {
    let live = PlanOptions {
        maintenance: options.maintenance,
        ..PlanOptions::default()
    };
    assert_eq!(
        options, live,
        "only PlanOptions::maintenance is live; the other fields' alternative paths \
         were removed (DESIGN.md §12, §14, §18)"
    );
    {
        let mut names: Vec<&str> = decls.keys().map(String::as_str).collect();
        names.sort_unstable();
        for n in names {
            ids.intern(n);
        }
    }
    let ids: &TableIds = ids;
    let cost = {
        let mut deriving: HashMap<String, usize> = HashMap::new();
        for r in rules {
            if !r.delete {
                *deriving.entry(r.head.table.clone()).or_default() += 1;
            }
        }
        CostModel::build(decls, fact_counts, &deriving, |_| false)
    };
    let col_type = |tid: TableId, c: usize| {
        decls
            .get(ids.name(tid))
            .and_then(|d| d.types.get(c))
            .copied()
            .unwrap_or(TypeTag::Any)
    };
    let mut compiled = Vec::with_capacity(rules.len());
    let mut classes = Vec::with_capacity(rules.len());
    let mut kernel_plan = kernel::KernelPlan::default();
    for (i, rule) in rules.iter().enumerate() {
        let mut ra = analysis::validate_rule(i, rule, decls)?;
        if rule_reorderable(rule) {
            let npos = rule.positive_predicates().count();
            for (d, order) in ra.orders.iter_mut().enumerate() {
                let delta = (npos > 0).then_some(d);
                if let Ok(costed) =
                    safety::schedule_order_costed(rule, delta, |t, b| cost.scan_estimate(t, b))
                {
                    *order = costed;
                }
            }
        }
        classes.push(ra.class);
        let (cr, verdicts) = compile_rule(i, rule, &ra, ids, &col_type)?;
        compiled.push(cr);
        kernel_plan.verdicts.push(verdicts);
    }
    let rule_strata = analysis::stratify_rules(decls, rules, &classes)?;
    for (cr, s) in compiled.iter_mut().zip(&rule_strata) {
        cr.stratum = *s;
    }
    let max_stratum = compiled.iter().map(|c| c.stratum).max().unwrap_or(0);
    let mut strata = vec![Vec::new(); max_stratum + 1];
    for cr in compiled.iter() {
        strata[cr.stratum].push(cr.id);
    }
    let strata_delta = strata
        .iter()
        .map(|stratum| {
            let mut by_table: std::collections::BTreeMap<usize, Vec<(usize, usize)>> =
                std::collections::BTreeMap::new();
            for &rid in stratum {
                let cr = &compiled[rid];
                if cr.aggregate {
                    continue;
                }
                for (vi, v) in cr.variants.iter().enumerate() {
                    if let Some(d) = v.delta_pred {
                        by_table
                            .entry(cr.positive_tids[d].idx())
                            .or_default()
                            .push((rid, vi));
                    }
                }
            }
            by_table.into_iter().collect()
        })
        .collect();

    let tid_of = |name: &str| ids.get(name).expect("validated tables are interned");
    let mut view_tables = IdSet::new();
    let mut view_inputs = IdSet::new();
    let mut neg_view_inputs = IdSet::new();
    for (cr, rule) in compiled.iter().zip(rules) {
        if cr.is_view {
            view_tables.insert(cr.head_tid);
            for p in rule.body.iter() {
                if let BodyElem::Pred(p) = p {
                    view_inputs.insert(tid_of(&p.table));
                    if p.negated {
                        neg_view_inputs.insert(tid_of(&p.table));
                    }
                }
            }
        }
    }
    // Transitive input closure per view: start from the direct body
    // tables of each view's rules, then fold in the closures of view
    // dependencies until a fixpoint.
    let mut view_deps: HashMap<TableId, IdSet> = HashMap::new();
    for (cr, rule) in compiled.iter().zip(rules) {
        if cr.is_view {
            let deps = view_deps.entry(cr.head_tid).or_default();
            for b in &rule.body {
                if let BodyElem::Pred(p) = b {
                    deps.insert(tid_of(&p.table));
                }
            }
        }
    }
    loop {
        let mut grew = false;
        let views: Vec<TableId> = view_deps.keys().copied().collect();
        for &v in &views {
            let nested: Vec<TableId> = view_deps[&v]
                .iter()
                .filter(|d| view_deps.contains_key(d) && *d != v)
                .collect();
            for d in nested {
                let before = view_deps[&v].len();
                let extra = view_deps[&d].clone();
                let deps = view_deps.get_mut(&v).unwrap();
                deps.union_with(&extra);
                if deps.len() != before {
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }

    // CALM certificate: views whose derivation closure is free of negation
    // and aggregation can only grow when their inputs grow.
    let taint = mono::derivation_taint(rules);
    let monotonic_views: IdSet = view_tables
        .iter()
        .filter(|t| !taint.contains_key(ids.name(*t)))
        .collect();

    // A table must be either a view (fully re-derivable) or base state, not
    // both: recomputation would silently drop event-derived tuples.
    analysis::view_conflict(rules, &classes)?;

    // The compiled per-view strategies the runtime executes under
    // retraction, certified from the maintenance verdicts per view-rule
    // variant.
    let facts = maint::program_facts(rules, decls);
    let verdicts: Vec<Vec<maint::MaintVerdict>> = rules
        .iter()
        .zip(&classes)
        .map(|(rule, class)| {
            if class.is_view {
                maint::rule_verdicts(rule, decls, &facts)
            } else {
                Vec::new()
            }
        })
        .collect();
    let maint_plan = MaintPlan {
        views: maint::view_strategies(rules, &compiled, decls, ids, &facts, &verdicts),
    };

    Ok(Plan {
        rules: compiled.into_iter().map(Arc::new).collect(),
        strata,
        strata_delta,
        ids: ids.clone(),
        view_tables,
        view_inputs,
        neg_view_inputs,
        view_deps,
        monotonic_views,
        maint: maint_plan,
        kernel: kernel_plan,
        options,
    })
}

/// Lower one validated rule: each variant compiles straight from the AST
/// to a kernel, following the execution order [`analysis::validate_rule`]
/// computed for it, and its kernel verdict is returned alongside.
fn compile_rule(
    id: usize,
    rule: &Rule,
    ra: &RuleAnalysis,
    ids: &TableIds,
    col_type: &dyn Fn(TableId, usize) -> TypeTag,
) -> Result<(CompiledRule, Vec<kernel::KernelVerdict>)> {
    let tid_of = |t: &str| ids.get(t).expect("validated tables are interned");
    let positive_tables: Vec<String> = rule
        .positive_predicates()
        .map(|p| p.table.clone())
        .collect();
    let positive_tids: Vec<TableId> = positive_tables.iter().map(|t| tid_of(t)).collect();

    let mut variants = Vec::with_capacity(ra.orders.len());
    let mut verdicts = Vec::with_capacity(ra.orders.len());
    for (d, order) in ra.orders.iter().enumerate() {
        let delta_pred = (!positive_tables.is_empty()).then_some(d);
        let (kernel, verdict) =
            kernel::compile_variant(rule, order, delta_pred, &tid_of, col_type)?;
        let delta_gate = match kernel.ops.first() {
            Some(kernel::KOp::Scan {
                is_delta: true,
                const_checks,
                ..
            }) => const_checks.clone(),
            _ => Vec::new(),
        };
        verdicts.push(verdict);
        variants.push(Variant {
            delta_pred,
            delta_gate,
            kernel,
        });
    }

    let cr = CompiledRule {
        id,
        label: rule.label(id),
        delete: ra.class.delete,
        head_tid: tid_of(&rule.head.table),
        head_table: rule.head.table.clone(),
        head_args: rule
            .head
            .args
            .iter()
            .map(|a| match a {
                HeadArg::Expr(_) => CHeadArg::Key,
                HeadArg::Agg(kind, var) => CHeadArg::Agg(*kind, var.is_some()),
            })
            .collect(),
        head_loc: rule.head.loc,
        aggregate: ra.class.aggregate,
        positive_tables,
        positive_tids,
        variants,
        is_view: ra.class.is_view,
        inductive: ra.class.inductive,
        stratum: 0,
    };
    Ok((cr, verdicts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::OverlogError;
    use crate::kernel::{KExpr, KOp, KOperand};
    use crate::parser::parse_program;

    fn plan_of(src: &str) -> Result<Plan> {
        let prog = parse_program(src).unwrap();
        let decls: HashMap<String, TableDecl> = prog
            .declarations()
            .map(|d| (d.name.clone(), d.clone()))
            .collect();
        let rules: Vec<Rule> = prog.rules().cloned().collect();
        compile(&decls, &rules)
    }

    #[test]
    fn simple_rule_compiles_with_variants() {
        let p = plan_of(
            "define(e, keys(0,1), {Int, Int});
             define(p, keys(0,1), {Int, Int});
             p(X, Y) :- e(X, Y);
             p(X, Z) :- e(X, Y), p(Y, Z);",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[1].variants.len(), 2);
        assert!(p.rules[1].is_view);
    }

    #[test]
    fn unsafe_head_var_rejected() {
        let err = plan_of(
            "define(q, keys(0), {Int});
             define(p, keys(0,1), {Int, Int});
             p(X, Y) :- q(X);",
        )
        .unwrap_err();
        assert!(matches!(err, OverlogError::UnsafeRule { ref var, .. } if var == "Y"));
    }

    #[test]
    fn unsafe_negation_var_rejected() {
        let err = plan_of(
            "define(q, keys(0), {Int});
             define(r, keys(0), {Int});
             define(p, keys(0), {Int});
             p(X) :- q(X), notin r(Y);",
        )
        .unwrap_err();
        assert!(matches!(err, OverlogError::UnsafeRule { ref var, .. } if var == "Y"));
    }

    #[test]
    fn assignment_chains_schedule() {
        let p = plan_of(
            "define(q, keys(0), {Int});
             define(p, keys(0), {Int});
             p(Z) :- Y := X + 1, q(X), Z := Y * 2;",
        )
        .unwrap();
        // The assignment to Y must be scheduled after the scan of q.
        let ops = &p.rules[0].variants[0].kernel.ops;
        assert!(matches!(ops[0], KOp::Scan { .. }));
        assert!(matches!(ops[1], KOp::Assign(_, _)));
    }

    #[test]
    fn stratification_orders_negation() {
        let p = plan_of(
            "define(a, keys(0), {Int});
             define(b, keys(0), {Int});
             define(c, keys(0), {Int});
             b(X) :- a(X);
             c(X) :- a(X), notin b(X);",
        )
        .unwrap();
        assert!(p.rules[1].stratum > p.rules[0].stratum);
        assert_eq!(p.strata.len(), 2);
    }

    #[test]
    fn negation_in_cycle_rejected() {
        let err = plan_of(
            "define(a, keys(0), {Int});
             define(b, keys(0), {Int});
             a(X) :- b(X);
             b(X) :- a(X), notin b(X);",
        )
        .unwrap_err();
        assert!(matches!(err, OverlogError::Unstratifiable { .. }));
    }

    #[test]
    fn aggregate_forces_higher_stratum_and_key_check() {
        let p = plan_of(
            "define(t, keys(0,1), {Int, Int});
             define(c, keys(0), {Int, Int});
             c(X, count<Y>) :- t(X, Y);",
        )
        .unwrap();
        assert_eq!(p.rules[0].stratum, 1);
        assert!(p.rules[0].aggregate);

        let err = plan_of(
            "define(t, keys(0,1), {Int, Int});
             define(c, keys(0,1), {Int, Int});
             c(X, count<Y>) :- t(X, Y);",
        )
        .unwrap_err();
        assert!(matches!(err, OverlogError::Unstratifiable { .. }));
    }

    #[test]
    fn unknown_table_and_arity_errors() {
        assert!(matches!(
            plan_of("define(p, keys(0), {Int}); p(X) :- q(X);").unwrap_err(),
            OverlogError::UnknownTable { .. }
        ));
        assert!(matches!(
            plan_of(
                "define(q, keys(0), {Int});
                 define(p, keys(0), {Int});
                 p(X) :- q(X, X);"
            )
            .unwrap_err(),
            OverlogError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn event_bodied_rules_are_not_views() {
        let p = plan_of(
            "event ev, {Int};
             define(p, keys(0), {Int});
             p(X) :- ev(X);",
        )
        .unwrap();
        assert!(!p.rules[0].is_view);
        assert!(p.view_tables.is_empty());
    }

    #[test]
    fn delete_rule_runs_in_body_stratum() {
        let p = plan_of(
            "define(a, keys(0), {Int});
             define(b, keys(0), {Int});
             define(g, keys(0), {Int});
             b(X) :- a(X), notin g(X);
             delete a(X) :- b(X);",
        )
        .unwrap();
        let del = p.rules.iter().find(|r| r.delete).unwrap();
        let b_rule = &p.rules[0];
        assert!(del.stratum >= b_rule.stratum);
    }

    fn plan_with(src: &str, facts: &[(&str, usize)], opts: PlanOptions) -> Plan {
        let prog = parse_program(src).unwrap();
        let decls: HashMap<String, TableDecl> = prog
            .declarations()
            .map(|d| (d.name.clone(), d.clone()))
            .collect();
        let rules: Vec<Rule> = prog.rules().cloned().collect();
        let fact_counts: HashMap<String, usize> =
            facts.iter().map(|(t, n)| (t.to_string(), *n)).collect();
        let mut ids = TableIds::new();
        compile_with(&decls, &rules, &fact_counts, opts, &mut ids).unwrap()
    }

    fn scan_tables(p: &Plan, rule: usize, variant: usize) -> Vec<String> {
        p.rules[rule].variants[variant]
            .kernel
            .ops
            .iter()
            .filter_map(|op| match op {
                KOp::Scan { tid, .. } => Some(p.ids.name(*tid).to_string()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn cost_model_reorders_joins_cheapest_first() {
        let src = "event e, {Int};
             define(big, keys(0,1), {Int, Int});
             define(cfg, keys(0,1), {Int, Int});
             define(p, keys(0,1), {Int, Int});
             p(X, Z) :- e(X), big(X, Y), cfg(X, Z);";
        let p = plan_with(src, &[("big", 500), ("cfg", 2)], PlanOptions::default());
        assert_eq!(scan_tables(&p, 0, 0), vec!["e", "cfg", "big"]);

        // The uncosted schedule `validate_rule` hands the planner is the
        // source order `e`, `big`, `cfg`.
        let prog = parse_program(src).unwrap();
        let decls = prog.declarations().map(|d| (d.name.clone(), d.clone()));
        let rule = prog.rules().next().unwrap();
        let ra = analysis::validate_rule(0, rule, &decls.collect()).unwrap();
        assert_eq!(ra.orders[0], vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "only PlanOptions::maintenance is live")]
    fn switched_off_paths_are_rejected() {
        plan_with(
            "define(p, keys(0), {Int}); p(1);",
            &[],
            PlanOptions {
                scoped_views: false,
                ..Default::default()
            },
        );
    }

    #[test]
    fn impure_builtin_pins_source_order() {
        // qid() is host-registered (not in the pure standard library), so
        // the rule keeps its source order even with reordering on.
        let src = "event e, {Int};
             define(big, keys(0,1), {Int, Int});
             define(cfg, keys(0,1), {Int, Int});
             define(p, keys(0,1), {Int, Int});
             p(X, I) :- e(X), big(X, Y), cfg(X, Z), I := qid();";
        let p = plan_with(src, &[("big", 500), ("cfg", 2)], PlanOptions::default());
        assert_eq!(scan_tables(&p, 0, 0), vec!["e", "big", "cfg"]);
    }

    #[test]
    fn view_deps_are_transitive() {
        let p = plan_of(
            "define(base, keys(0), {Int});
             define(mid, keys(0), {Int});
             define(top, keys(0), {Int});
             mid(X) :- base(X);
             top(X) :- mid(X);",
        )
        .unwrap();
        let tid = |n: &str| p.ids.get(n).unwrap();
        assert!(p.view_deps[&tid("top")].contains(tid("mid")));
        assert!(
            p.view_deps[&tid("top")].contains(tid("base")),
            "closure is transitive"
        );
    }

    #[test]
    fn aggregate_views_rederive_by_their_declared_key() {
        use crate::analysis::maint::{Bind, ViewMaint};
        let p = plan_of(
            "define(e, keys(0,1,2), {Int, Int, Int});
             define(f, keys(0,1), {Int, Int});
             define(cnt, keys(1,0), {Int, Int, Int});
             define(tot, keys(0), {Int, Int});
             cnt(X, Z, count<*>) :- e(X, _, Z);
             tot(X, sum<Y>) :- e(X, Y, _);
             tot(X, Y) :- f(X, Y);",
        )
        .unwrap();
        let tid = |n: &str| p.ids.get(n).unwrap();
        // The only rule of `cnt` re-derives its groups by the declared
        // key, whose columns the anchor binds in declared order.
        let Some(ViewMaint::KeyRederive {
            key_cols, rules, ..
        }) = p.maint.views.get(&tid("cnt"))
        else {
            panic!("cnt: {:?}", p.maint.views.get(&tid("cnt")));
        };
        assert_eq!(key_cols, &[1, 0]);
        assert_eq!(rules.len(), 1);
        assert_eq!((rules[0].rule, rules[0].tid), (0, tid("e")));
        assert_eq!(rules[0].binds, [Bind::Col(2), Bind::Col(0)]);
        // A second rule deriving an aggregate head leaves it to fall back.
        assert!(!p.maint.views.contains_key(&tid("tot")));
    }

    #[test]
    fn monotonic_views_exclude_negation_downstream() {
        let p = plan_of(
            "define(a, keys(0), {Int});
             define(g, keys(0), {Int});
             define(pos, keys(0), {Int});
             define(neg, keys(0), {Int});
             define(over, keys(0), {Int});
             pos(X) :- a(X);
             neg(X) :- a(X), notin g(X);
             over(X) :- neg(X);",
        )
        .unwrap();
        let tid = |n: &str| p.ids.get(n).unwrap();
        assert!(p.monotonic_views.contains(tid("pos")));
        assert!(!p.monotonic_views.contains(tid("neg")));
        assert!(
            !p.monotonic_views.contains(tid("over")),
            "taint flows through the closure"
        );
    }

    #[test]
    fn duplicate_var_in_predicate_checks_equality() {
        let p = plan_of(
            "define(q, keys(0,1), {Int, Int});
             define(p, keys(0), {Int});
             p(X) :- q(X, X);",
        )
        .unwrap();
        match &p.rules[0].variants[0].kernel.ops[0] {
            KOp::Scan {
                checks, index_cols, ..
            } => {
                // Column 1 must equal column 0 of the same row.
                let same_row = KExpr::Operand(KOperand::Col { level: 0, col: 0 });
                assert_eq!(checks.len(), 1);
                assert_eq!((checks[0].col, &checks[0].expr), (1, &same_row));
                // The duplicate-variable check binds within the same scan:
                // it cannot drive an index probe.
                assert!(index_cols.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn index_cols_follow_static_boundness() {
        let p = plan_of(
            "define(q, keys(0,1), {Int, Int});
             define(r, keys(0,1), {Int, Int});
             define(p, keys(0,1), {Int, Int});
             p(X, Z) :- q(X, Y), r(Y, Z);",
        )
        .unwrap();
        let ops = &p.rules[0].variants[0].kernel.ops;
        match (&ops[0], &ops[1]) {
            (
                KOp::Scan {
                    index_cols: first, ..
                },
                KOp::Scan {
                    index_cols: second, ..
                },
            ) => {
                assert!(first.is_empty(), "first scan has nothing bound");
                assert_eq!(second, &vec![0], "join column of r is bound by q");
            }
            other => panic!("{other:?}"),
        }
        // The negated probe is fully bound.
        let p = plan_of(
            "define(q, keys(0), {Int});
             define(g, keys(0), {Int});
             define(p, keys(0), {Int});
             p(X) :- q(X), notin g(X);",
        )
        .unwrap();
        let neg = p.rules[0]
            .variants
            .iter()
            .flat_map(|v| &v.kernel.ops)
            .find_map(|op| match op {
                KOp::NegScan { index_cols, .. } => Some(index_cols.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(neg, vec![0]);
    }

    /// Pins the whole lowering: every variant's kernel, gate and verdict.
    #[test]
    fn rules_lower_to_these_kernels() {
        use crate::kernel::{KCheck, Kernel, KernelVerdict};
        let p = plan_of(
            r#"event ev, {String, Int};
             define(t, keys(0,1), {Int, Int});
             define(u, keys(0,1), {Any, Int});
             define(g, keys(0), {Int});
             define(a, keys(0,1), {Int, Int});
             define(b, keys(0), {Int});
             define(c, keys(0), {Int});
             define(d, keys(0,1), {Int, Int});
             define(e, keys(1), {Int, Int, Int});
             a(X, Z) :- ev("go", X), t(X, Y), u(Y, Z);
             b(X) :- t(X, Y), ev("go", Y + 1);
             c(X) :- t(X, X), notin g(X), X > 1 && (X < 9 || X == 20);
             d(X, W) :- W := V + X, t(X, Y), V := Y * 2;
             e(min<Y>, X + 1, count<*>) :- t(X, Y);"#,
        )
        .unwrap();
        let tid = |n: &str| p.ids.get(n).unwrap();
        let (ev, t, u, g) = (tid("ev"), tid("t"), tid("u"), tid("g"));
        let col = |level, col| KExpr::Operand(KOperand::Col { level, col });
        let int = |i| KExpr::Operand(KOperand::Const(Value::Int(i)));
        let go = || Value::str("go");
        let bin = |op, a, b| KExpr::Binary(op, Box::new(a), Box::new(b));
        let check = |col, expr, indexed| KCheck { col, expr, indexed };
        // A scan that only binds: no probe, no checks.
        let bind = |tid, is_delta| KOp::Scan {
            tid,
            arity: 2,
            is_delta,
            index_cols: vec![],
            probes: vec![],
            int_probe: false,
            const_checks: vec![],
            checks: vec![],
        };
        let generic = |cols: &[(&str, usize)]| KernelVerdict::Generic {
            value_cols: cols.iter().map(|(t, c)| (t.to_string(), *c)).collect(),
        };
        type Expect = (Vec<(usize, Value)>, Kernel, KernelVerdict);
        let expect = |rule: usize, variants: Vec<Expect>| {
            assert_eq!(p.rules[rule].variants.len(), variants.len());
            for (vi, (gate, kernel, verdict)) in variants.into_iter().enumerate() {
                let v = &p.rules[rule].variants[vi];
                assert_eq!(v.delta_gate, gate, "rule {rule} variant {vi} gate");
                assert_eq!(v.kernel, kernel, "rule {rule} variant {vi} kernel");
                assert_eq!(
                    p.kernel.verdicts[rule][vi], verdict,
                    "rule {rule} variant {vi}"
                );
            }
        };

        // `a`: the first-scheduled delta scan's literal check becomes the
        // gate; joins probe the all-`Int` `t.0` typed and the `Any` `u.0`
        // generically.
        let ev_go_x = |x: KExpr, is_delta| KOp::Scan {
            tid: ev,
            arity: 2,
            is_delta,
            index_cols: vec![0, 1],
            probes: vec![KExpr::Operand(KOperand::Const(go())), x.clone()],
            int_probe: false,
            const_checks: vec![(0, go())],
            checks: vec![check(1, x, true)],
        };
        let join = |tid, key: KExpr, is_delta| KOp::Scan {
            tid,
            arity: 2,
            is_delta,
            index_cols: vec![0],
            probes: vec![key.clone()],
            int_probe: tid == t,
            const_checks: vec![],
            checks: vec![check(0, key, true)],
        };
        let ev_go = |is_delta| KOp::Scan {
            tid: ev,
            arity: 2,
            is_delta,
            index_cols: vec![0],
            probes: vec![KExpr::Operand(KOperand::Const(go()))],
            int_probe: false,
            const_checks: vec![(0, go())],
            checks: vec![],
        };
        let ev_u = generic(&[("ev", 0), ("u", 0)]);
        let kernel = |ops, head, regs, level_tids| Kernel {
            ops,
            head,
            regs,
            level_tids,
        };
        expect(
            0,
            vec![
                (
                    vec![(0, go())],
                    kernel(
                        vec![
                            ev_go(true),
                            join(t, col(0, 1), false),
                            join(u, col(1, 1), false),
                        ],
                        vec![col(0, 1), col(2, 1)],
                        0,
                        vec![ev, t, u],
                    ),
                    ev_u.clone(),
                ),
                (
                    vec![],
                    kernel(
                        vec![
                            bind(t, true),
                            ev_go_x(col(0, 0), false),
                            join(u, col(0, 1), false),
                        ],
                        vec![col(0, 0), col(2, 1)],
                        0,
                        vec![t, ev, u],
                    ),
                    ev_u.clone(),
                ),
                (
                    vec![],
                    kernel(
                        vec![
                            bind(u, true),
                            ev_go(false),
                            KOp::Scan {
                                tid: t,
                                arity: 2,
                                is_delta: false,
                                index_cols: vec![0, 1],
                                probes: vec![col(1, 1), col(0, 0)],
                                int_probe: true,
                                const_checks: vec![],
                                checks: vec![check(0, col(1, 1), true), check(1, col(0, 0), true)],
                            },
                        ],
                        vec![col(1, 1), col(0, 1)],
                        0,
                        vec![u, ev, t],
                    ),
                    generic(&[("ev", 0)]),
                ),
            ],
        );

        // `b`: the `ev` delta scan waits for `Y`, so it is not first and
        // gates nothing; its probe is a nested expression.
        let y1 = bin(BinOp::Add, col(0, 1), int(1));
        let b_kernel = |t_delta| {
            kernel(
                vec![bind(t, t_delta), ev_go_x(y1.clone(), !t_delta)],
                vec![col(0, 0)],
                0,
                vec![t, ev],
            )
        };
        let ev_only = generic(&[("ev", 0)]);
        expect(
            1,
            vec![
                (vec![], b_kernel(true), ev_only.clone()),
                (vec![], b_kernel(false), ev_only),
            ],
        );

        // `c`: a repeated variable checks its own row unindexed; the filter
        // runs before the (typed, indexed) negated probe.
        let x = col(0, 0);
        expect(
            2,
            vec![(
                vec![],
                kernel(
                    vec![
                        KOp::Scan {
                            tid: t,
                            arity: 2,
                            is_delta: true,
                            index_cols: vec![],
                            probes: vec![],
                            int_probe: false,
                            const_checks: vec![],
                            checks: vec![check(1, x.clone(), false)],
                        },
                        KOp::Filter(KExpr::And(
                            Box::new(bin(BinOp::Gt, x.clone(), int(1))),
                            Box::new(KExpr::Or(
                                Box::new(bin(BinOp::Lt, x.clone(), int(9))),
                                Box::new(bin(BinOp::Eq, x.clone(), int(20))),
                            )),
                        )),
                        KOp::NegScan {
                            tid: g,
                            arity: 1,
                            index_cols: vec![0],
                            probes: vec![x.clone()],
                            int_probe: true,
                            const_checks: vec![],
                            checks: vec![check(0, x.clone(), true)],
                        },
                    ],
                    vec![x.clone()],
                    0,
                    vec![t],
                ),
                KernelVerdict::Typed { int_probes: 1 },
            )],
        );

        // `d`: registers number in schedule order, not source order.
        let reg = |r| KExpr::Operand(KOperand::Reg(r));
        expect(
            3,
            vec![(
                vec![],
                kernel(
                    vec![
                        bind(t, true),
                        KOp::Assign(0, bin(BinOp::Mul, col(0, 1), int(2))),
                        KOp::Assign(1, bin(BinOp::Add, reg(0), col(0, 0))),
                    ],
                    vec![col(0, 0), reg(1)],
                    2,
                    vec![t],
                ),
                KernelVerdict::Typed { int_probes: 0 },
            )],
        );

        // `e`: the aggregate head projects key columns first, then only the
        // aggregates with an input (`count<*>` has none).
        expect(
            4,
            vec![(
                vec![],
                kernel(
                    vec![bind(t, true)],
                    vec![bin(BinOp::Add, col(0, 0), int(1)), col(0, 1)],
                    0,
                    vec![t],
                ),
                KernelVerdict::Typed { int_probes: 0 },
            )],
        );

        // A fact is constant-folded at load, not compiled to a kernel.
        let mut rt = crate::runtime::OverlogRuntime::new("n");
        rt.load("define(f, keys(0), {Int, Int}); f(2 * 3 + 1, -4);")
            .unwrap();
        rt.tick(0).unwrap();
        assert_eq!(*rt.rows("f")[0], vec![Value::Int(7), Value::Int(-4)]);
    }
}
