//! Rule compilation: variable slotting, join scheduling, and semi-naive
//! variants.
//!
//! A rule is compiled into one [`Variant`] per positive body predicate: the
//! variant where that predicate reads the *delta* (tuples new this round)
//! while the others read full tables — the classic semi-naive rewrite.
//!
//! All *validation* — reference checking, safety (range restriction),
//! aggregate rules, stratification, view/base conflicts — lives in
//! [`crate::analysis`] and is shared with the standalone `olgcheck`
//! analyzer: this module calls [`crate::analysis::validate_rule`] and then
//! follows the execution orders it returns when emitting operators, so
//! emission cannot fail and load-time rejection is byte-for-byte the same
//! check olgcheck reports.

use crate::analysis::card::CostModel;
use crate::analysis::maint::{self, MaintPlan};
use crate::analysis::{self, mono, safety, RuleAnalysis};
use crate::ast::*;
use crate::builtins::rule_reorderable;
use crate::error::Result;
use crate::ids::{IdSet, TableId, TableIds};
use crate::kernel;
use crate::value::{TypeTag, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Compiled expression: like [`Expr`] but variables are resolved to
/// slots (the kernel compiler then resolves each slot to a place).
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// Constant.
    Lit(Value),
    /// Variable slot.
    Slot(usize),
    /// Binary operation.
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    /// Unary operation.
    Unary(UnOp, Box<CExpr>),
    /// Builtin call.
    Call(String, Vec<CExpr>),
    /// List construction.
    List(Vec<CExpr>),
}

/// Column pattern inside a positive scan.
#[derive(Debug, Clone, PartialEq)]
pub enum Pat {
    /// Bind this column into a slot (first occurrence of a variable).
    Bind(usize),
    /// Evaluate the expression (fully bound) and require equality.
    Check(CExpr),
    /// `_` — ignore.
    Wild,
}

/// One scheduled operator of a rule variant.
#[derive(Debug, Clone)]
pub enum Op {
    /// Join against a table (or the delta set for the delta predicate).
    Scan {
        /// Table to read.
        tid: TableId,
        /// Index of this predicate among the rule's positive predicates.
        pred_idx: usize,
        /// Per-column patterns.
        pats: Vec<Pat>,
        /// Columns whose `Check` expressions are statically bound when
        /// this op runs (every referenced variable was bound by an earlier
        /// op in the schedule): the secondary index the scan probes. Empty
        /// means a full scan. Computed at plan time so the evaluator's
        /// lookups need no per-row boundness analysis and the runtime can
        /// build the index eagerly.
        index_cols: Vec<usize>,
        /// Literal `Check` columns, extracted so the evaluator rejects
        /// non-matching rows with one direct value comparison — before
        /// binding slots or evaluating any expression. This is the fast
        /// path for discriminator columns (e.g. the op-name column of a
        /// protocol event scanned by every handler rule).
        const_checks: Vec<(usize, Value)>,
    },
    /// Negated predicate: succeed when no matching row exists.
    NegScan {
        /// Table to probe.
        tid: TableId,
        /// Per-column patterns (`Bind` never occurs here).
        pats: Vec<Pat>,
        /// Statically bound check columns (see [`Op::Scan::index_cols`]).
        index_cols: Vec<usize>,
        /// Literal `Check` columns (see [`Op::Scan::const_checks`]).
        const_checks: Vec<(usize, Value)>,
    },
    /// Boolean filter.
    Filter(CExpr),
    /// `X := expr`.
    Assign(usize, CExpr),
}

/// One stratum's entry in [`Plan::strata_delta`]: `(table index,
/// [(rule id, variant index)])` pairs sorted by table index.
pub type StratumDeltaIndex = Vec<(usize, Vec<(usize, usize)>)>;

/// One semi-naive variant of a rule.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Which positive predicate (by index among positives) reads the delta;
    /// `None` for rules without positive predicates (run once per tick).
    pub delta_pred: Option<usize>,
    /// The delta scan's literal `Check` columns, copied up from the first
    /// op when the delta scan is scheduled first (empty otherwise). When
    /// no row of a round's delta slice passes these, the evaluator skips
    /// the variant without entering the kernel at all: with zero rows
    /// surviving the first op, the remaining ops would never run, so
    /// the skip is observationally identical (including stateful-builtin
    /// call counts). This is the tick-loop fast path for protocol
    /// dispatch, where dozens of handler rules scan the same event table
    /// and disagree only on a literal discriminator column.
    pub delta_gate: Vec<(usize, Value)>,
    /// The variant's scheduled operators compiled into a kernel
    /// ([`crate::kernel::compile_variant`]): what the runtime executes.
    pub kernel: kernel::Kernel,
}

/// Compiled head argument.
#[derive(Debug, Clone)]
pub enum CHeadArg {
    /// Plain projection expression.
    Expr(CExpr),
    /// Aggregate over the group; the slot carries the aggregated variable
    /// (`None` for `count<*>`).
    Agg(AggKind, Option<usize>),
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
    /// Number of variable slots.
    pub nslots: usize,
    /// Slot names (diagnostics).
    pub slot_names: Vec<String>,
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
    /// Stratum per table.
    pub table_stratum: HashMap<String, usize>,
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
    /// Per-view maintenance strategies and per-variant verdicts (the
    /// [`crate::analysis::maint`] pass); the runtime consults this to
    /// propagate retractions incrementally instead of recomputing.
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
    let (table_stratum, rule_strata) = analysis::stratify_rules(decls, rules, &classes)?;
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

    // Maintenance verdicts per view-rule variant, plus the compiled
    // per-view strategies the runtime executes under retraction.
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
        verdicts,
    };

    Ok(Plan {
        rules: compiled.into_iter().map(Arc::new).collect(),
        strata,
        strata_delta,
        table_stratum,
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

struct SlotMap {
    names: Vec<String>,
    by_name: HashMap<String, usize>,
}

impl SlotMap {
    fn new() -> Self {
        SlotMap {
            names: Vec::new(),
            by_name: HashMap::new(),
        }
    }
    fn slot(&mut self, name: &str) -> usize {
        if let Some(&s) = self.by_name.get(name) {
            s
        } else {
            let s = self.names.len();
            self.names.push(name.to_string());
            self.by_name.insert(name.to_string(), s);
            s
        }
    }
}

fn compile_expr(e: &Expr, slots: &mut SlotMap) -> CExpr {
    match e {
        Expr::Lit(v) => CExpr::Lit(v.clone()),
        Expr::Var(v) => CExpr::Slot(slots.slot(v)),
        Expr::Wildcard => CExpr::Lit(Value::Null), // only legal in pred args; guarded earlier
        Expr::Binary(op, a, b) => CExpr::Binary(
            *op,
            Box::new(compile_expr(a, slots)),
            Box::new(compile_expr(b, slots)),
        ),
        Expr::Unary(op, a) => CExpr::Unary(*op, Box::new(compile_expr(a, slots))),
        Expr::Call(f, args) => CExpr::Call(
            f.clone(),
            args.iter().map(|a| compile_expr(a, slots)).collect(),
        ),
        Expr::ListLit(items) => CExpr::List(items.iter().map(|a| compile_expr(a, slots)).collect()),
    }
}

/// Compile a constant (fact) expression; the caller guarantees it contains
/// no variables or wildcards.
pub fn compile_fact_expr(e: &Expr) -> CExpr {
    let mut slots = SlotMap::new();
    compile_expr(e, &mut slots)
}

/// Lower one validated rule. `ra` carries the classification and the
/// per-variant execution orders computed by [`analysis::validate_rule`];
/// emission just follows them, so it cannot fail.
/// Lower one validated rule and compile each of its variants into a
/// kernel, returning the per-variant kernel verdicts alongside.
fn compile_rule(
    id: usize,
    rule: &Rule,
    ra: &RuleAnalysis,
    ids: &TableIds,
    col_type: &dyn Fn(TableId, usize) -> TypeTag,
) -> Result<(CompiledRule, Vec<kernel::KernelVerdict>)> {
    let label = rule.label(id);
    let positive_tables: Vec<String> = rule
        .positive_predicates()
        .map(|p| p.table.clone())
        .collect();
    let positive_tids: Vec<TableId> = positive_tables
        .iter()
        .map(|t| ids.get(t).expect("validated tables are interned"))
        .collect();

    // Emit each variant's operators following the analysis-provided
    // orders; the head compiles after every variant so it sees the slots
    // all of them bind.
    let mut slots = SlotMap::new();
    let delta_pred = |d: usize| (!positive_tables.is_empty()).then_some(d);
    let variant_ops: Vec<Vec<Op>> = ra
        .orders
        .iter()
        .map(|order| emit_ops(rule, order, &mut slots, ids))
        .collect();

    // Compile head args; safety of every head variable was already checked.
    let mut head_args = Vec::with_capacity(rule.head.args.len());
    for arg in &rule.head.args {
        match arg {
            HeadArg::Expr(e) => head_args.push(CHeadArg::Expr(compile_expr(e, &mut slots))),
            HeadArg::Agg(kind, var) => {
                let slot = var.as_ref().map(|v| slots.slot(v));
                head_args.push(CHeadArg::Agg(*kind, slot));
            }
        }
    }

    let table_name = |tid: TableId| ids.name(tid).to_string();
    let mut variants = Vec::with_capacity(variant_ops.len());
    let mut verdicts = Vec::with_capacity(variant_ops.len());
    for (d, ops) in variant_ops.into_iter().enumerate() {
        let delta_pred = delta_pred(d);
        let delta_gate = match (delta_pred, ops.first()) {
            (
                Some(d),
                Some(Op::Scan {
                    pred_idx,
                    const_checks,
                    ..
                }),
            ) if *pred_idx == d => const_checks.clone(),
            _ => Vec::new(),
        };
        let (kernel, verdict) = kernel::compile_variant(
            &ops,
            delta_pred,
            &head_args,
            slots.names.len(),
            col_type,
            &table_name,
        )?;
        verdicts.push(verdict);
        variants.push(Variant {
            delta_pred,
            delta_gate,
            kernel,
        });
    }

    let cr = CompiledRule {
        id,
        label,
        delete: ra.class.delete,
        head_tid: ids
            .get(&rule.head.table)
            .expect("validated tables are interned"),
        head_table: rule.head.table.clone(),
        head_args,
        head_loc: rule.head.loc,
        aggregate: ra.class.aggregate,
        positive_tables,
        positive_tids,
        variants,
        is_view: ra.class.is_view,
        inductive: ra.class.inductive,
        stratum: 0,
        nslots: slots.names.len(),
        slot_names: slots.names,
    };
    Ok((cr, verdicts))
}

/// Is every variable of `e` in the `bound` set? Statically mirrors the
/// evaluator's old per-row `cexpr_bound` probe: a check column whose
/// expression is fully bound *before* the scan runs can drive an index
/// lookup.
fn expr_bound(e: &Expr, bound: &HashSet<String>) -> bool {
    let mut vars = Vec::new();
    e.collect_vars(&mut vars);
    vars.iter().all(|v| bound.contains(v))
}

/// Emit the operator sequence for one variant, walking the body elements in
/// the (already validated) execution `order`. Shares `slots` across
/// variants so a variable keeps one slot in every variant of the rule.
/// Extract the literal `Check` columns of a pattern list (see
/// [`Op::Scan::const_checks`]). Comparing the literal directly is exactly
/// what evaluating `CExpr::Lit` and comparing would do, so hoisting these
/// ahead of slot binding changes no outcomes — only the per-row cost.
fn lit_checks(pats: &[Pat]) -> Vec<(usize, Value)> {
    pats.iter()
        .enumerate()
        .filter_map(|(i, p)| match p {
            Pat::Check(CExpr::Lit(v)) => Some((i, v.clone())),
            _ => None,
        })
        .collect()
}

fn emit_ops(rule: &Rule, order: &[usize], slots: &mut SlotMap, ids: &TableIds) -> Vec<Op> {
    let tid_of = |t: &str| ids.get(t).expect("validated tables are interned");
    // Positive-predicate ordinal for each body index.
    let mut pred_counter: HashMap<usize, usize> = HashMap::new();
    let mut n = 0usize;
    for (i, e) in rule.body.iter().enumerate() {
        if let BodyElem::Pred(p) = e {
            if !p.negated {
                pred_counter.insert(i, n);
                n += 1;
            }
        }
    }

    let mut ops = Vec::with_capacity(order.len());
    let mut bound: HashSet<String> = HashSet::new();
    for &bi in order {
        match &rule.body[bi] {
            BodyElem::Pred(p) if !p.negated => {
                // Check columns are index-usable only when their variables
                // were bound before this scan: a duplicate variable bound
                // by an earlier column of the *same* predicate is checked
                // per row, not probed.
                let pre_bound = bound.clone();
                let mut pats = Vec::with_capacity(p.args.len());
                let mut index_cols = Vec::new();
                for (i, a) in p.args.iter().enumerate() {
                    pats.push(match a {
                        Expr::Wildcard => Pat::Wild,
                        Expr::Var(v) if !bound.contains(v) => {
                            bound.insert(v.clone());
                            Pat::Bind(slots.slot(v))
                        }
                        other => {
                            if expr_bound(other, &pre_bound) {
                                index_cols.push(i);
                            }
                            Pat::Check(compile_expr(other, slots))
                        }
                    });
                }
                let const_checks = lit_checks(&pats);
                ops.push(Op::Scan {
                    tid: tid_of(&p.table),
                    pred_idx: pred_counter[&bi],
                    pats,
                    index_cols,
                    const_checks,
                });
            }
            BodyElem::Pred(p) => {
                let mut pats = Vec::with_capacity(p.args.len());
                let mut index_cols = Vec::new();
                for (i, a) in p.args.iter().enumerate() {
                    pats.push(match a {
                        Expr::Wildcard => Pat::Wild,
                        other => {
                            if expr_bound(other, &bound) {
                                index_cols.push(i);
                            }
                            Pat::Check(compile_expr(other, slots))
                        }
                    });
                }
                let const_checks = lit_checks(&pats);
                ops.push(Op::NegScan {
                    tid: tid_of(&p.table),
                    pats,
                    index_cols,
                    const_checks,
                });
            }
            BodyElem::Cond(e) => ops.push(Op::Filter(compile_expr(e, slots))),
            BodyElem::Assign(v, e) => {
                let ce = compile_expr(e, slots);
                bound.insert(v.clone());
                ops.push(Op::Assign(slots.slot(v), ce));
            }
        }
    }
    ops
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
}
