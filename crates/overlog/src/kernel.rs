//! Plan-time kernel compiler: every rule variant becomes a monomorphic
//! scan/probe program over direct column addressing, and the kernel is
//! the runtime's only rule evaluator.
//!
//! [`compile_variant`] lowers a rule variant in one step, at plan build,
//! straight from the AST: it walks the body in the variant's execution
//! order and maps every variable to a *place* as it is bound — a column
//! of a scan level, an assignment register, or a constant. Expressions
//! compile to a [`KExpr`] tree with places at its leaves (nested
//! arithmetic, unary operators, builtin calls, list construction and
//! short-circuit `&&`/`||`), so compilation is total: every variant gets
//! a [`Kernel`].
//! The runtime executes joins without an environment, and index probes
//! over all-`int` key columns hash raw `i64`s into the integer-keyed
//! buckets of the column set's one index
//! ([`crate::table::Table::lookup_int`]); a probe whose runtime value is
//! not an `int` hashes the tagged `Value` into the same index instead.
//!
//! Aggregate rules compile too: their kernel head projects the group-key
//! expressions, then one column per aggregate input (`count<*>` has none),
//! and the runtime folds those rows.
//!
//! The per-variant [`KernelVerdict`] (typed or generic probes) feeds
//! `olgcheck analyze` (the `kernel` report section) and the W0011 lint,
//! mirroring how maintenance verdicts flow out of the planner.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use crate::ast::{BinOp, BodyElem, Expr, HeadArg, Rule, UnOp};
use crate::builtins::Builtins;
use crate::error::{OverlogError, Result};
use crate::ids::TableId;
use crate::value::{eval_binop, eval_unop, Row, TypeTag, Value};

/// Where a kernel operand's value lives at run time.
#[derive(Debug, Clone, PartialEq)]
pub enum KOperand {
    /// A literal from the program text.
    Const(Value),
    /// Column `col` of the candidate row held at scan depth `level`.
    Col { level: usize, col: usize },
    /// An `:=` assignment register.
    Reg(usize),
}

/// A compiled scalar expression: a tree whose leaves are places.
#[derive(Debug, Clone, PartialEq)]
pub enum KExpr {
    Operand(KOperand),
    /// A strict binary operator (never `&&`/`||`): both sides evaluate,
    /// left first.
    Binary(BinOp, Box<KExpr>, Box<KExpr>),
    /// `a && b`: `b` is evaluated only when `a` is truthy.
    And(Box<KExpr>, Box<KExpr>),
    /// `a || b`: `b` is evaluated only when `a` is falsy.
    Or(Box<KExpr>, Box<KExpr>),
    Unary(UnOp, Box<KExpr>),
    /// A builtin call, resolved by name through [`Builtins`] at run time
    /// (hosts may register builtins after loading a program). Arguments
    /// evaluate left to right.
    Call(String, Vec<KExpr>),
    List(Vec<KExpr>),
}

/// One non-constant column equality check inside a scan.
#[derive(Debug, Clone, PartialEq)]
pub struct KCheck {
    /// Column of the candidate row being compared.
    pub col: usize,
    /// Expression the column must equal.
    pub expr: KExpr,
    /// The column participates in the index probe: skip the recheck when
    /// the candidate bucket is exact.
    pub indexed: bool,
}

/// Kernel operator: one step of a rule variant's schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum KOp {
    /// Iterate candidate rows of `tid`, stacking each on the level stack
    /// (the n-th scan of the kernel fills level n).
    Scan {
        tid: TableId,
        /// Declared arity (rows of other widths are skipped).
        arity: usize,
        /// This is the variant's delta scan: read the delta slice when
        /// one is supplied.
        is_delta: bool,
        /// Statically-bound check columns probed through the index.
        index_cols: Vec<usize>,
        /// Probe expressions, aligned with `index_cols`. Evaluated
        /// against *outer* levels only (the planner indexes a column
        /// only when its expression is bound before this scan).
        probes: Vec<KExpr>,
        /// Every probe column is declared `int`: try the typed `i64`
        /// index first when the runtime probe values are all ints.
        int_probe: bool,
        /// Literal equality checks (applied first, always).
        const_checks: Vec<(usize, Value)>,
        /// Non-literal equality checks, in column order.
        checks: Vec<KCheck>,
    },
    /// Require that no row of `tid` matches (negation); binds nothing.
    NegScan {
        tid: TableId,
        arity: usize,
        index_cols: Vec<usize>,
        probes: Vec<KExpr>,
        int_probe: bool,
        const_checks: Vec<(usize, Value)>,
        checks: Vec<KCheck>,
    },
    /// Keep the current path only when the expression is truthy.
    Filter(KExpr),
    /// Evaluate into an assignment register.
    Assign(usize, KExpr),
}

/// A compiled rule variant: operator sequence plus head projection, with
/// every value reference resolved to a place.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    pub ops: Vec<KOp>,
    /// Head projection. A plain rule projects one expression per head
    /// column; an aggregate rule projects its group-key expressions, then
    /// one input column per aggregate that has an input variable.
    pub head: Vec<KExpr>,
    /// Number of assignment registers.
    pub regs: usize,
    /// The table scanned at each level, in scan order: a derivation's
    /// provenance witness pairs each with the row stacked there.
    pub level_tids: Vec<TableId>,
}

/// How specialized a variant's index probes are.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelVerdict {
    /// Every index probe runs over typed `i64` keys.
    Typed {
        /// Number of int-keyed index probes (0 = scan/filter only).
        int_probes: usize,
    },
    /// Some probes hash tagged `Value`s because a probed column is not
    /// declared `int`.
    Generic {
        /// The offending `(table, column)` pairs, in probe order.
        value_cols: Vec<(String, usize)>,
    },
}

impl KernelVerdict {
    /// Render the generic verdict's offending columns as `t.0+u.2`.
    pub fn value_cols_label(cols: &[(String, usize)]) -> String {
        cols.iter()
            .map(|(t, c)| format!("{t}.{c}"))
            .collect::<Vec<_>>()
            .join("+")
    }
}

impl fmt::Display for KernelVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelVerdict::Typed { int_probes: 0 } => write!(f, "kernel(typed)"),
            KernelVerdict::Typed { int_probes } => {
                write!(f, "kernel(typed, int-probes={int_probes})")
            }
            KernelVerdict::Generic { value_cols } => write!(
                f,
                "kernel(generic, value-probes={})",
                Self::value_cols_label(value_cols)
            ),
        }
    }
}

/// Per-variant kernel verdicts, aligned with `Plan::rules` (outer) and
/// each rule's `variants` (inner) — the same shape as `MaintPlan`.
#[derive(Debug, Clone, Default)]
pub struct KernelPlan {
    pub verdicts: Vec<Vec<KernelVerdict>>,
}

/// Where each variable bound so far lives, by name.
type Places<'a> = HashMap<&'a str, KOperand>;

/// Lower one semi-naive variant of a validated rule straight from the AST.
///
/// The walk follows `order`, the analysis's execution order over the rule
/// body, and maps each variable to its place the first time it is bound:
/// a column of a scan level, or an assignment register. `delta_pred` is
/// the ordinal of the positive predicate that reads the delta. `tid_of`
/// resolves table names. `col_type` resolves a column's *declared* type,
/// the soundness source for typed probes: inserts only typecheck declared
/// types, so only declared-`int` columns provably hold ints. The analysis
/// guarantees every variable is bound before it is read, so an error here
/// is an internal plan error.
pub fn compile_variant(
    rule: &Rule,
    order: &[usize],
    delta_pred: Option<usize>,
    tid_of: &dyn Fn(&str) -> TableId,
    col_type: &dyn Fn(TableId, usize) -> TypeTag,
) -> Result<(Kernel, KernelVerdict)> {
    let mut places = Places::new();
    let mut ops = Vec::with_capacity(order.len());
    let mut level_tids = Vec::new();
    let mut regs = 0usize;
    let mut int_probes = 0usize;
    let mut value_cols: Vec<(String, usize)> = Vec::new();

    for &bi in order {
        match &rule.body[bi] {
            BodyElem::Pred(p) => {
                let tid = tid_of(&p.table);
                let level = level_tids.len();
                // A positive scan binds each variable's first occurrence to
                // its column at this level; every other non-`_` column is
                // an equality check.
                let mut check_cols = Vec::new();
                for (col, a) in p.args.iter().enumerate() {
                    match a {
                        Expr::Wildcard => {}
                        Expr::Var(v) if !p.negated && !places.contains_key(v.as_str()) => {
                            places.insert(v, KOperand::Col { level, col });
                        }
                        _ => check_cols.push(col),
                    }
                }
                // A check drives the index probe only when its variables
                // were bound before this scan: a duplicate variable bound
                // by an earlier column of the same predicate is checked
                // per row. Probes run before rows are iterated, so they
                // only ever read outer levels.
                let mut index_cols: Vec<usize> = check_cols
                    .iter()
                    .copied()
                    .filter(|&c| bound_before(&p.args[c], level, &places))
                    .collect();
                let probes = index_cols
                    .iter()
                    .map(|&c| compile_expr(&p.args[c], &places))
                    .collect::<Result<_>>()?;
                // Literal checks run first, as one direct comparison each.
                let mut const_checks = Vec::new();
                let mut checks = Vec::new();
                for &col in &check_cols {
                    match &p.args[col] {
                        Expr::Lit(v) => const_checks.push((col, v.clone())),
                        e => checks.push(KCheck {
                            col,
                            expr: compile_expr(e, &places)?,
                            indexed: index_cols.contains(&col),
                        }),
                    }
                }
                // Kernels live as long as the plan: keep exactly what they use.
                index_cols.shrink_to_fit();
                const_checks.shrink_to_fit();
                checks.shrink_to_fit();
                let int_probe = probe_typing(
                    tid,
                    &p.table,
                    &index_cols,
                    col_type,
                    &mut int_probes,
                    &mut value_cols,
                );
                let arity = p.args.len();
                ops.push(if p.negated {
                    KOp::NegScan {
                        tid,
                        arity,
                        index_cols,
                        probes,
                        int_probe,
                        const_checks,
                        checks,
                    }
                } else {
                    level_tids.push(tid);
                    let ordinal = rule.body[..bi]
                        .iter()
                        .filter(|b| matches!(b, BodyElem::Pred(q) if !q.negated))
                        .count();
                    KOp::Scan {
                        tid,
                        arity,
                        is_delta: delta_pred == Some(ordinal),
                        index_cols,
                        probes,
                        int_probe,
                        const_checks,
                        checks,
                    }
                });
            }
            BodyElem::Cond(e) => ops.push(KOp::Filter(compile_expr(e, &places)?)),
            BodyElem::Assign(v, e) => {
                let expr = compile_expr(e, &places)?;
                // A variant may scan a predicate binding the target before
                // the assignment runs: the assignment then constrains the
                // variable, as that predicate would have in source order.
                if let Some(bound) = places.get(v.as_str()) {
                    let bound = Box::new(KExpr::Operand(bound.clone()));
                    ops.push(KOp::Filter(KExpr::Binary(BinOp::Eq, bound, Box::new(expr))));
                } else {
                    places.insert(v, KOperand::Reg(regs));
                    ops.push(KOp::Assign(regs, expr));
                    regs += 1;
                }
            }
        }
    }

    // Key expressions first, then one input per aggregate that has one.
    let mut head = Vec::with_capacity(rule.head.args.len());
    for arg in &rule.head.args {
        if let HeadArg::Expr(e) = arg {
            head.push(compile_expr(e, &places)?);
        }
    }
    for arg in &rule.head.args {
        if let HeadArg::Agg(_, Some(v)) = arg {
            head.push(KExpr::Operand(place(v, &places)?));
        }
    }

    let verdict = if value_cols.is_empty() {
        KernelVerdict::Typed { int_probes }
    } else {
        KernelVerdict::Generic { value_cols }
    };
    Ok((
        Kernel {
            ops,
            head,
            regs,
            level_tids,
        },
        verdict,
    ))
}

/// Is every variable of `e` bound before the scan filling `level` runs?
fn bound_before(e: &Expr, level: usize, places: &Places) -> bool {
    let mut vars = Vec::new();
    e.collect_vars(&mut vars);
    vars.iter().all(|v| match places.get(v.as_str()) {
        Some(KOperand::Col { level: l, .. }) => *l != level,
        Some(_) => true,
        None => false,
    })
}

/// Classify one scan's probe: typed (`true`) when every probed column is
/// declared `int`; otherwise record the non-`int` columns for the
/// generic verdict. Probeless scans count as typed (nothing to hash).
fn probe_typing(
    tid: TableId,
    table: &str,
    index_cols: &[usize],
    col_type: &dyn Fn(TableId, usize) -> TypeTag,
    int_probes: &mut usize,
    value_cols: &mut Vec<(String, usize)>,
) -> bool {
    if index_cols.is_empty() {
        return false;
    }
    let untyped: Vec<usize> = index_cols
        .iter()
        .copied()
        .filter(|&c| col_type(tid, c) != TypeTag::Int)
        .collect();
    if untyped.is_empty() {
        *int_probes += 1;
        true
    } else {
        value_cols.extend(untyped.into_iter().map(|c| (table.to_string(), c)));
        false
    }
}

/// The place a variable was bound to.
fn place(v: &str, places: &Places) -> Result<KOperand> {
    places.get(v).cloned().ok_or_else(|| {
        OverlogError::Eval(format!(
            "internal plan error: variable {v} read before any binding"
        ))
    })
}

/// Compile an expression against the places bound so far. With no places
/// it compiles constant expressions (facts).
pub(crate) fn compile_expr(e: &Expr, places: &Places) -> Result<KExpr> {
    let sub = |e: &Expr| compile_expr(e, places).map(Box::new);
    let all = |es: &[Expr]| -> Result<Vec<KExpr>> {
        es.iter().map(|e| compile_expr(e, places)).collect()
    };
    Ok(match e {
        Expr::Lit(v) => KExpr::Operand(KOperand::Const(v.clone())),
        // Only legal as a whole predicate argument; the analysis rejects
        // it anywhere else.
        Expr::Wildcard => KExpr::Operand(KOperand::Const(Value::Null)),
        Expr::Var(v) => KExpr::Operand(place(v, places)?),
        Expr::Binary(BinOp::And, a, b) => KExpr::And(sub(a)?, sub(b)?),
        Expr::Binary(BinOp::Or, a, b) => KExpr::Or(sub(a)?, sub(b)?),
        Expr::Binary(op, a, b) => KExpr::Binary(*op, sub(a)?, sub(b)?),
        Expr::Unary(op, a) => KExpr::Unary(*op, sub(a)?),
        Expr::Call(f, args) => KExpr::Call(f.clone(), all(args)?),
        Expr::ListLit(items) => KExpr::List(all(items)?),
    })
}

/// Resolve a kernel operand to its place: a borrowed value, no
/// environment consulted. `levels` holds *borrowed* candidate rows —
/// the kernel stack never clones an `Arc` per scanned row.
pub(crate) fn resolve<'a>(op: &'a KOperand, levels: &[&'a Row], regs: &'a [Value]) -> &'a Value {
    match op {
        KOperand::Const(v) => v,
        KOperand::Col { level, col } => &levels[*level][*col],
        KOperand::Reg(r) => &regs[*r],
    }
}

/// Evaluate an expression, borrowing when it is a bare place: comparisons
/// and probes over plain operands clone nothing.
fn eval_ref<'a>(
    e: &'a KExpr,
    levels: &[&'a Row],
    regs: &'a [Value],
    b: &Builtins,
) -> Result<Cow<'a, Value>> {
    match e {
        KExpr::Operand(o) => Ok(Cow::Borrowed(resolve(o, levels, regs))),
        _ => eval(e, levels, regs, b).map(Cow::Owned),
    }
}

/// Evaluate a kernel expression to an owned value.
pub(crate) fn eval(e: &KExpr, levels: &[&Row], regs: &[Value], b: &Builtins) -> Result<Value> {
    match e {
        KExpr::Operand(o) => Ok(resolve(o, levels, regs).clone()),
        KExpr::Binary(op, x, y) => {
            let va = eval_ref(x, levels, regs, b)?;
            let vb = eval_ref(y, levels, regs, b)?;
            eval_binop(*op, &va, &vb)
        }
        KExpr::And(..) | KExpr::Or(..) => Ok(Value::Bool(truthy(e, levels, regs, b)?)),
        KExpr::Unary(op, x) => {
            let v = eval_ref(x, levels, regs, b)?;
            eval_unop(*op, &v)
        }
        KExpr::Call(f, args) => {
            let vals = args
                .iter()
                .map(|a| eval(a, levels, regs, b))
                .collect::<Result<Vec<_>>>()?;
            b.call(f, &vals)
        }
        KExpr::List(items) => Ok(Value::list(
            items
                .iter()
                .map(|i| eval(i, levels, regs, b))
                .collect::<Result<Vec<_>>>()?,
        )),
    }
}

/// Truthiness of a kernel expression (filters), short-circuiting `&&`
/// and `||` without building intermediate `Bool`s.
pub(crate) fn truthy(e: &KExpr, levels: &[&Row], regs: &[Value], b: &Builtins) -> Result<bool> {
    match e {
        KExpr::And(x, y) => Ok(truthy(x, levels, regs, b)? && truthy(y, levels, regs, b)?),
        KExpr::Or(x, y) => Ok(truthy(x, levels, regs, b)? || truthy(y, levels, regs, b)?),
        _ => Ok(eval_ref(e, levels, regs, b)?.truthy()),
    }
}

/// Does the candidate row satisfy one column check? Operand checks (the
/// common case — join columns) compare borrowed values with zero clones.
pub(crate) fn check(
    ch: &KCheck,
    row: &Row,
    levels: &[&Row],
    regs: &[Value],
    b: &Builtins,
) -> Result<bool> {
    Ok(*eval_ref(&ch.expr, levels, regs, b)? == row[ch.col])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_rendering() {
        assert_eq!(
            KernelVerdict::Typed { int_probes: 0 }.to_string(),
            "kernel(typed)"
        );
        assert_eq!(
            KernelVerdict::Typed { int_probes: 2 }.to_string(),
            "kernel(typed, int-probes=2)"
        );
        assert_eq!(
            KernelVerdict::Generic {
                value_cols: vec![("hb".into(), 1), ("fqpath".into(), 0)]
            }
            .to_string(),
            "kernel(generic, value-probes=hb.1+fqpath.0)"
        );
    }

    fn var(v: &str) -> Box<Expr> {
        Box::new(Expr::Var(v.into()))
    }

    fn lit(i: i64) -> Box<Expr> {
        Box::new(Expr::Lit(Value::Int(i)))
    }

    #[test]
    fn expressions_compile_to_place_trees() {
        let places = Places::from([("X", KOperand::Col { level: 0, col: 2 })]);
        let col = KExpr::Operand(KOperand::Col { level: 0, col: 2 });
        assert_eq!(compile_expr(&var("X"), &places).unwrap(), col);
        // Nested arithmetic, calls and short-circuit booleans all compile.
        let nested = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Binary(BinOp::Mul, var("X"), lit(2))),
            lit(1),
        );
        assert!(matches!(
            compile_expr(&nested, &places).unwrap(),
            KExpr::Binary(BinOp::Add, ref a, _) if matches!(**a, KExpr::Binary(BinOp::Mul, _, _))
        ));
        let call = Expr::Call("qid".into(), vec![]);
        assert_eq!(
            compile_expr(&call, &places).unwrap(),
            KExpr::Call("qid".into(), vec![])
        );
        let or = Expr::Binary(BinOp::Or, var("X"), lit(1));
        assert!(matches!(
            compile_expr(&or, &places).unwrap(),
            KExpr::Or(_, _)
        ));
        // A variable read before its binding is an internal plan error.
        assert!(compile_expr(&var("Y"), &places).is_err());
    }

    #[test]
    fn nested_expressions_evaluate_over_places() {
        let b = Builtins::standard();
        let row: Row = std::sync::Arc::new(vec![Value::Int(3), Value::Int(4)]);
        let places = Places::from([
            ("X", KOperand::Col { level: 0, col: 0 }),
            ("Y", KOperand::Col { level: 0, col: 1 }),
        ]);
        // (X + 1) * Y - abs(-2)
        let e = Expr::Binary(
            BinOp::Sub,
            Box::new(Expr::Binary(
                BinOp::Mul,
                Box::new(Expr::Binary(BinOp::Add, var("X"), lit(1))),
                var("Y"),
            )),
            Box::new(Expr::Call(
                "abs".into(),
                vec![Expr::Unary(UnOp::Neg, lit(2))],
            )),
        );
        let k = compile_expr(&e, &places).unwrap();
        assert_eq!(eval(&k, &[&row], &[], &b).unwrap(), Value::Int(14));
        // Unknown builtins on the unevaluated side of `||` never run.
        let or = Expr::Binary(
            BinOp::Or,
            var("X"),
            Box::new(Expr::Call("missing".into(), vec![])),
        );
        let k = compile_expr(&or, &places).unwrap();
        assert!(truthy(&k, &[&row], &[], &b).unwrap());
    }
}
