//! Plan-time kernel compiler: specialize rule variants into monomorphic
//! scan/probe programs over direct column addressing.
//!
//! The interpreted evaluator ([`crate::runtime`]) executes a variant by
//! threading a `Vec<Option<Value>>` environment through pattern
//! dispatch: every column touch goes bind-slot → env → `eval_cexpr`.
//! This module compiles each planned [`Variant`] — once, at plan build —
//! into a [`Kernel`]: the same operator sequence with every slot
//! reference resolved to a *place* (a column of a scan level, an
//! assignment register, or a constant), so the runtime executes joins
//! without consulting an environment at all, and index probes over
//! all-`int` key columns hash raw `i64`s into the integer-keyed buckets
//! of the column set's one index ([`crate::table::Table::lookup_int`]).
//!
//! Compilation is total but execution is not: a variant whose
//! expressions defeat flattening (builtin calls, short-circuit booleans,
//! list construction, nested arithmetic) gets no kernel and runs on the
//! interpreted path forever; a kernelized variant still falls back
//! per-probe to generic `Value` hashing whenever a runtime probe value
//! is not an `int` (the *fallback lattice*: typed probe → generic probe
//! → interpreted). Every fallback is semantics-free — the kernel
//! mirrors the interpreter's candidate selection, recheck-exemption and
//! emission order exactly, which `tests/engine_equiv.rs` enforces as
//! byte-identical state fingerprints.
//!
//! The per-variant [`KernelVerdict`] feeds `olgcheck analyze` (the
//! `kernel` report section) and the W0011 lint, mirroring how maintenance
//! verdicts flow out of the planner.

use std::fmt;

use crate::ast::BinOp;
use crate::ids::TableId;
use crate::plan::{CExpr, CHeadArg, Op, Pat, Variant};
use crate::value::{TypeTag, Value};

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

/// A flattened scalar expression: one operand, or one binary operation
/// over two operands. Anything deeper defeats kernel compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum KExpr {
    Operand(KOperand),
    Binary(BinOp, KOperand, KOperand),
}

/// One non-constant column equality check inside a scan.
#[derive(Debug, Clone, PartialEq)]
pub struct KCheck {
    /// Column of the candidate row being compared.
    pub col: usize,
    /// Expression the column must equal.
    pub expr: KExpr,
    /// The column participates in the index probe: skip the recheck when
    /// the candidate bucket is exact (mirrors the interpreter's
    /// recheck-exemption rule).
    pub indexed: bool,
}

/// Kernel operator: the compiled twin of [`Op`].
#[derive(Debug, Clone, PartialEq)]
pub enum KOp {
    /// Iterate candidate rows of `tid`, stacking each at `level`.
    Scan {
        tid: TableId,
        /// Scan depth: candidate rows land at `levels[level]`.
        level: usize,
        /// Declared arity (rows of other widths are skipped, as in the
        /// interpreter).
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
    /// Head projection, one expression per head column.
    pub head: Vec<KExpr>,
    /// Number of scan levels (candidate-row stack depth).
    pub levels: usize,
    /// Number of assignment registers.
    pub regs: usize,
}

/// How specialized a variant's execution is — the fallback lattice.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelVerdict {
    /// Fully specialized: every index probe runs over typed `i64` keys.
    Typed {
        /// Number of int-keyed index probes (0 = scan/filter only).
        int_probes: usize,
    },
    /// Specialized control flow, but some probes hash tagged `Value`s
    /// because a probed column is not declared `int`.
    Generic {
        /// The offending `(table, column)` pairs, in probe order.
        value_cols: Vec<(String, usize)>,
    },
    /// No kernel: the variant runs interpreted.
    Interpreted {
        /// What defeated compilation.
        reason: String,
        /// A program change (splitting a nested expression into `:=`
        /// steps) would unlock a kernel.
        fixable: bool,
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
            KernelVerdict::Interpreted { reason, fixable } => {
                if *fixable {
                    write!(f, "interpreted(fixable: {reason})")
                } else {
                    write!(f, "interpreted({reason})")
                }
            }
        }
    }
}

/// Per-variant kernel verdicts, aligned with `Plan::rules` (outer) and
/// each rule's `variants` (inner) — the same shape as `MaintPlan`.
#[derive(Debug, Clone, Default)]
pub struct KernelPlan {
    pub verdicts: Vec<Vec<KernelVerdict>>,
}

/// Compile one planned variant into a kernel, or explain why not.
///
/// `col_type` resolves a table column to its *declared* type (the
/// soundness source for typed probes: inserts only typecheck declared
/// types, so only declared-`int` columns provably hold ints);
/// `table_name` resolves dense ids for verdict labels.
pub fn compile_variant(
    variant: &Variant,
    head_args: &[CHeadArg],
    nslots: usize,
    aggregate: bool,
    col_type: &dyn Fn(TableId, usize) -> TypeTag,
    table_name: &dyn Fn(TableId) -> String,
) -> (Option<Kernel>, KernelVerdict) {
    if aggregate {
        // Group folds run through `fold_groups` on env vectors; the
        // kernel has no aggregation machinery.
        return (
            None,
            KernelVerdict::Interpreted {
                reason: "aggregate fold".into(),
                fixable: false,
            },
        );
    }
    match try_compile(variant, head_args, nslots, col_type, table_name) {
        Ok((kernel, verdict)) => (Some(kernel), verdict),
        Err((reason, fixable)) => (None, KernelVerdict::Interpreted { reason, fixable }),
    }
}

/// Compilation failure: human-readable reason plus whether a program
/// rewrite would fix it.
type Defeat = (String, bool);

fn try_compile(
    variant: &Variant,
    head_args: &[CHeadArg],
    nslots: usize,
    col_type: &dyn Fn(TableId, usize) -> TypeTag,
    table_name: &dyn Fn(TableId) -> String,
) -> Result<(Kernel, KernelVerdict), Defeat> {
    let mut origins: Vec<Option<KOperand>> = vec![None; nslots];
    let mut ops = Vec::with_capacity(variant.ops.len());
    let mut levels = 0usize;
    let mut regs = 0usize;
    let mut int_probes = 0usize;
    let mut value_cols: Vec<(String, usize)> = Vec::new();

    for op in &variant.ops {
        match op {
            Op::Scan {
                tid,
                pred_idx,
                pats,
                index_cols,
                bind_slots: _,
                const_checks,
            } => {
                // Probes are evaluated before rows are iterated, so they
                // must flatten against *pre-scan* origins only (the
                // planner guarantees boundness; this guarantees we never
                // reference a column of the row being probed for).
                let mut probes = Vec::with_capacity(index_cols.len());
                for &c in index_cols {
                    let Pat::Check(e) = &pats[c] else {
                        return Err(("index column is not a check".into(), false));
                    };
                    probes.push(flatten(e, &origins)?);
                }
                let level = levels;
                levels += 1;
                for (c, pat) in pats.iter().enumerate() {
                    if let Pat::Bind(slot) = pat {
                        origins[*slot] = Some(KOperand::Col { level, col: c });
                    }
                }
                // Checks run after binds: duplicate-variable patterns
                // legally reference same-row columns.
                let mut checks = Vec::new();
                for (c, pat) in pats.iter().enumerate() {
                    if let Pat::Check(e) = pat {
                        if matches!(e, CExpr::Lit(_)) {
                            continue; // covered by const_checks
                        }
                        checks.push(KCheck {
                            col: c,
                            expr: flatten(e, &origins)?,
                            indexed: index_cols.contains(&c),
                        });
                    }
                }
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
                    level,
                    arity: pats.len(),
                    is_delta: variant.delta_pred == Some(*pred_idx),
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
                let mut probes = Vec::with_capacity(index_cols.len());
                for &c in index_cols {
                    let Pat::Check(e) = &pats[c] else {
                        return Err(("index column is not a check".into(), false));
                    };
                    probes.push(flatten(e, &origins)?);
                }
                let mut checks = Vec::new();
                for (c, pat) in pats.iter().enumerate() {
                    match pat {
                        Pat::Wild => {}
                        Pat::Check(e) => {
                            if matches!(e, CExpr::Lit(_)) {
                                continue;
                            }
                            checks.push(KCheck {
                                col: c,
                                expr: flatten(e, &origins)?,
                                indexed: index_cols.contains(&c),
                            });
                        }
                        Pat::Bind(_) => {
                            return Err(("bind pattern in negated scan".into(), false));
                        }
                    }
                }
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
            Op::Filter(e) => ops.push(KOp::Filter(flatten(e, &origins)?)),
            Op::Assign(slot, e) => {
                let expr = flatten(e, &origins)?;
                let r = regs;
                regs += 1;
                origins[*slot] = Some(KOperand::Reg(r));
                ops.push(KOp::Assign(r, expr));
            }
        }
    }

    let mut head = Vec::with_capacity(head_args.len());
    for arg in head_args {
        match arg {
            CHeadArg::Expr(e) => head.push(flatten(e, &origins)?),
            CHeadArg::Agg(_, _) => return Err(("aggregate fold".into(), false)),
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
            levels,
            regs,
        },
        verdict,
    ))
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

/// Flatten a planned expression into a kernel expression: a place, or
/// one binary op over two places.
fn flatten(e: &CExpr, origins: &[Option<KOperand>]) -> Result<KExpr, Defeat> {
    match e {
        CExpr::Binary(op, a, b) if !matches!(op, BinOp::And | BinOp::Or) => {
            Ok(KExpr::Binary(*op, place(a, origins)?, place(b, origins)?))
        }
        _ => Ok(KExpr::Operand(place(e, origins)?)),
    }
}

/// Resolve an expression to a single place, or explain the defeat.
fn place(e: &CExpr, origins: &[Option<KOperand>]) -> Result<KOperand, Defeat> {
    match e {
        CExpr::Lit(v) => Ok(KOperand::Const(v.clone())),
        CExpr::Slot(s) => origins
            .get(*s)
            .cloned()
            .flatten()
            .ok_or_else(|| ("slot read before any binding".into(), false)),
        CExpr::Binary(BinOp::And | BinOp::Or, _, _) => Err(("short-circuit boolean".into(), false)),
        // A nested arithmetic operand *could* be kernelized by splitting
        // the expression into `:=` assignment steps — worth a lint nudge
        // (W0011), unlike the hard defeats below.
        CExpr::Binary(_, _, _) => Err(("nested expression".into(), true)),
        CExpr::Unary(_, _) => Err(("unary operator".into(), false)),
        CExpr::Call(f, _) => Err((format!("builtin call {f}()"), false)),
        CExpr::List(_) => Err(("list construction".into(), false)),
    }
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
        assert_eq!(
            KernelVerdict::Interpreted {
                reason: "builtin call qid()".into(),
                fixable: false
            }
            .to_string(),
            "interpreted(builtin call qid())"
        );
        assert_eq!(
            KernelVerdict::Interpreted {
                reason: "nested expression".into(),
                fixable: true
            }
            .to_string(),
            "interpreted(fixable: nested expression)"
        );
    }

    #[test]
    fn flatten_shapes() {
        let origins = vec![Some(KOperand::Col { level: 0, col: 2 }), None];
        // Slot with an origin resolves to its place.
        let e = CExpr::Slot(0);
        assert_eq!(
            flatten(&e, &origins).unwrap(),
            KExpr::Operand(KOperand::Col { level: 0, col: 2 })
        );
        // One binary over places flattens.
        let e = CExpr::Binary(
            BinOp::Add,
            Box::new(CExpr::Slot(0)),
            Box::new(CExpr::Lit(Value::Int(1))),
        );
        assert!(matches!(
            flatten(&e, &origins),
            Ok(KExpr::Binary(BinOp::Add, _, _))
        ));
        // Nested arithmetic is a *fixable* defeat.
        let nested = CExpr::Binary(
            BinOp::Add,
            Box::new(CExpr::Binary(
                BinOp::Mul,
                Box::new(CExpr::Slot(0)),
                Box::new(CExpr::Lit(Value::Int(2))),
            )),
            Box::new(CExpr::Lit(Value::Int(1))),
        );
        let (reason, fixable) = flatten(&nested, &origins).unwrap_err();
        assert_eq!(reason, "nested expression");
        assert!(fixable);
        // Builtin calls are hard defeats.
        let call = CExpr::Call("qid".into(), vec![]);
        let (reason, fixable) = flatten(&call, &origins).unwrap_err();
        assert_eq!(reason, "builtin call qid()");
        assert!(!fixable);
    }
}
