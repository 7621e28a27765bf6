//! Plan-time kernel compiler: every planned rule variant becomes a
//! monomorphic scan/probe program over direct column addressing, and the
//! kernel is the runtime's only rule evaluator.
//!
//! [`compile_variant`] walks a planned [`crate::plan::Variant`] once, at
//! plan build, and resolves every slot reference to a *place*: a column
//! of a scan level, an assignment register, or a constant. Expressions compile to a
//! [`KExpr`] tree with places at its leaves (nested arithmetic, unary
//! operators, builtin calls, list construction and short-circuit
//! `&&`/`||`), so compilation is total: every variant gets a [`Kernel`].
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
use std::fmt;

use crate::ast::{BinOp, UnOp};
use crate::builtins::Builtins;
use crate::error::{OverlogError, Result};
use crate::ids::TableId;
use crate::plan::{CExpr, CHeadArg, Op, Pat};
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

/// Kernel operator: the compiled twin of [`Op`].
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

/// Compile one planned variant's operators into a kernel.
///
/// `col_type` resolves a table column to its *declared* type (the
/// soundness source for typed probes: inserts only typecheck declared
/// types, so only declared-`int` columns provably hold ints);
/// `table_name` resolves dense ids for verdict labels. Every planned
/// variant compiles: an error here means the planner emitted a slot read
/// before its binding, an internal plan error.
pub fn compile_variant(
    ops_in: &[Op],
    delta_pred: Option<usize>,
    head_args: &[CHeadArg],
    nslots: usize,
    col_type: &dyn Fn(TableId, usize) -> TypeTag,
    table_name: &dyn Fn(TableId) -> String,
) -> Result<(Kernel, KernelVerdict)> {
    let mut origins: Vec<Option<KOperand>> = vec![None; nslots];
    let mut ops = Vec::with_capacity(ops_in.len());
    let mut level_tids = Vec::new();
    let mut regs = 0usize;
    let mut int_probes = 0usize;
    let mut value_cols: Vec<(String, usize)> = Vec::new();

    for op in ops_in {
        match op {
            Op::Scan {
                tid,
                pred_idx,
                pats,
                index_cols,
                const_checks,
            } => {
                // Probes are evaluated before rows are iterated, so they
                // compile against *pre-scan* origins only (the planner
                // guarantees boundness; this guarantees we never
                // reference a column of the row being probed for).
                let probes = compile_probes(pats, index_cols, &origins)?;
                let level = level_tids.len();
                level_tids.push(*tid);
                for (c, pat) in pats.iter().enumerate() {
                    if let Pat::Bind(slot) = pat {
                        origins[*slot] = Some(KOperand::Col { level, col: c });
                    }
                }
                // Checks run after binds: duplicate-variable patterns
                // legally reference same-row columns.
                let checks = compile_checks(pats, index_cols, &origins)?;
                let int_probe = probe_typing(
                    *tid,
                    index_cols,
                    col_type,
                    table_name,
                    &mut int_probes,
                    &mut value_cols,
                );
                ops.push(KOp::Scan {
                    tid: *tid,
                    arity: pats.len(),
                    is_delta: delta_pred == Some(*pred_idx),
                    index_cols: index_cols.clone(),
                    probes,
                    int_probe,
                    const_checks: const_checks.clone(),
                    checks,
                });
            }
            Op::NegScan {
                tid,
                pats,
                index_cols,
                const_checks,
            } => {
                if pats.iter().any(|p| matches!(p, Pat::Bind(_))) {
                    return Err(internal("bind pattern in negated scan"));
                }
                let probes = compile_probes(pats, index_cols, &origins)?;
                let checks = compile_checks(pats, index_cols, &origins)?;
                let int_probe = probe_typing(
                    *tid,
                    index_cols,
                    col_type,
                    table_name,
                    &mut int_probes,
                    &mut value_cols,
                );
                ops.push(KOp::NegScan {
                    tid: *tid,
                    arity: pats.len(),
                    index_cols: index_cols.clone(),
                    probes,
                    int_probe,
                    const_checks: const_checks.clone(),
                    checks,
                });
            }
            Op::Filter(e) => ops.push(KOp::Filter(compile_expr(e, &origins)?)),
            Op::Assign(slot, e) => {
                let expr = compile_expr(e, &origins)?;
                let r = regs;
                regs += 1;
                origins[*slot] = Some(KOperand::Reg(r));
                ops.push(KOp::Assign(r, expr));
            }
        }
    }

    let mut head = Vec::with_capacity(head_args.len());
    for arg in head_args {
        if let CHeadArg::Expr(e) = arg {
            head.push(compile_expr(e, &origins)?);
        }
    }
    for arg in head_args {
        if let CHeadArg::Agg(_, Some(slot)) = arg {
            head.push(KExpr::Operand(origin(*slot, &origins)?));
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

fn internal(what: &str) -> OverlogError {
    OverlogError::Eval(format!("internal plan error: {what}"))
}

/// Compile the probe expressions of a scan's index columns.
fn compile_probes(
    pats: &[Pat],
    index_cols: &[usize],
    origins: &[Option<KOperand>],
) -> Result<Vec<KExpr>> {
    index_cols
        .iter()
        .map(|&c| match &pats[c] {
            Pat::Check(e) => compile_expr(e, origins),
            _ => Err(internal("index column is not a check")),
        })
        .collect()
}

/// Compile a scan's non-literal check columns, in column order (literal
/// checks are the scan's `const_checks`).
fn compile_checks(
    pats: &[Pat],
    index_cols: &[usize],
    origins: &[Option<KOperand>],
) -> Result<Vec<KCheck>> {
    let mut checks = Vec::new();
    for (c, pat) in pats.iter().enumerate() {
        if let Pat::Check(e) = pat {
            if !matches!(e, CExpr::Lit(_)) {
                checks.push(KCheck {
                    col: c,
                    expr: compile_expr(e, origins)?,
                    indexed: index_cols.contains(&c),
                });
            }
        }
    }
    // Kernels live as long as the plan: keep exactly what they use.
    checks.shrink_to_fit();
    Ok(checks)
}

/// Classify one scan's probe: typed (`true`) when every probed column is
/// declared `int`; otherwise record the non-`int` columns for the
/// generic verdict. Probeless scans count as typed (nothing to hash).
fn probe_typing(
    tid: TableId,
    index_cols: &[usize],
    col_type: &dyn Fn(TableId, usize) -> TypeTag,
    table_name: &dyn Fn(TableId) -> String,
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
        let name = table_name(tid);
        value_cols.extend(untyped.into_iter().map(|c| (name.clone(), c)));
        false
    }
}

/// The place a slot was bound to.
fn origin(slot: usize, origins: &[Option<KOperand>]) -> Result<KOperand> {
    origins
        .get(slot)
        .cloned()
        .flatten()
        .ok_or_else(|| internal(&format!("slot {slot} read before any binding")))
}

/// Compile a planned expression against the places bound so far. With no
/// origins it compiles constant expressions (facts).
pub(crate) fn compile_expr(e: &CExpr, origins: &[Option<KOperand>]) -> Result<KExpr> {
    let sub = |e: &CExpr| compile_expr(e, origins).map(Box::new);
    let all = |es: &[CExpr]| -> Result<Vec<KExpr>> {
        es.iter().map(|e| compile_expr(e, origins)).collect()
    };
    Ok(match e {
        CExpr::Lit(v) => KExpr::Operand(KOperand::Const(v.clone())),
        CExpr::Slot(s) => KExpr::Operand(origin(*s, origins)?),
        CExpr::Binary(BinOp::And, a, b) => KExpr::And(sub(a)?, sub(b)?),
        CExpr::Binary(BinOp::Or, a, b) => KExpr::Or(sub(a)?, sub(b)?),
        CExpr::Binary(op, a, b) => KExpr::Binary(*op, sub(a)?, sub(b)?),
        CExpr::Unary(op, a) => KExpr::Unary(*op, sub(a)?),
        CExpr::Call(f, args) => KExpr::Call(f.clone(), all(args)?),
        CExpr::List(items) => KExpr::List(all(items)?),
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

    fn slot(s: usize) -> Box<CExpr> {
        Box::new(CExpr::Slot(s))
    }

    fn lit(i: i64) -> Box<CExpr> {
        Box::new(CExpr::Lit(Value::Int(i)))
    }

    #[test]
    fn expressions_compile_to_place_trees() {
        let origins = vec![Some(KOperand::Col { level: 0, col: 2 }), None];
        let col = KExpr::Operand(KOperand::Col { level: 0, col: 2 });
        assert_eq!(compile_expr(&CExpr::Slot(0), &origins).unwrap(), col);
        // Nested arithmetic, calls and short-circuit booleans all compile.
        let nested = CExpr::Binary(
            BinOp::Add,
            Box::new(CExpr::Binary(BinOp::Mul, slot(0), lit(2))),
            lit(1),
        );
        assert!(matches!(
            compile_expr(&nested, &origins).unwrap(),
            KExpr::Binary(BinOp::Add, ref a, _) if matches!(**a, KExpr::Binary(BinOp::Mul, _, _))
        ));
        let call = CExpr::Call("qid".into(), vec![]);
        assert_eq!(
            compile_expr(&call, &origins).unwrap(),
            KExpr::Call("qid".into(), vec![])
        );
        let or = CExpr::Binary(BinOp::Or, slot(0), lit(1));
        assert!(matches!(
            compile_expr(&or, &origins).unwrap(),
            KExpr::Or(_, _)
        ));
        // A slot read before its binding is an internal plan error.
        assert!(compile_expr(&CExpr::Slot(1), &origins).is_err());
    }

    #[test]
    fn nested_expressions_evaluate_over_places() {
        let b = Builtins::standard();
        let row: Row = std::sync::Arc::new(vec![Value::Int(3), Value::Int(4)]);
        let origins = vec![
            Some(KOperand::Col { level: 0, col: 0 }),
            Some(KOperand::Col { level: 0, col: 1 }),
        ];
        // (X + 1) * Y - abs(-2)
        let e = CExpr::Binary(
            BinOp::Sub,
            Box::new(CExpr::Binary(
                BinOp::Mul,
                Box::new(CExpr::Binary(BinOp::Add, slot(0), lit(1))),
                slot(1),
            )),
            Box::new(CExpr::Call(
                "abs".into(),
                vec![CExpr::Unary(UnOp::Neg, lit(2))],
            )),
        );
        let k = compile_expr(&e, &origins).unwrap();
        assert_eq!(eval(&k, &[&row], &[], &b).unwrap(), Value::Int(14));
        // Unknown builtins on the unevaluated side of `||` never run.
        let or = CExpr::Binary(
            BinOp::Or,
            slot(0),
            Box::new(CExpr::Call("missing".into(), vec![])),
        );
        let k = compile_expr(&or, &origins).unwrap();
        assert!(truthy(&k, &[&row], &[], &b).unwrap());
    }
}
