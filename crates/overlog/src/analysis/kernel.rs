//! Kernel-specialization analysis: which semi-naive variants probe their
//! indexes with typed `i64` keys and which hash tagged `Value`s.
//!
//! The verdicts themselves come from the planner ([`crate::kernel`]
//! compiles every variant and records a [`KernelVerdict`]); this pass
//! re-runs plan compilation over the valid rules so `olgcheck analyze`
//! reports exactly what the runtime will execute. On top of the raw
//! verdicts it adds one piece of whole-program knowledge the planner
//! lacks: the type-inference catalog. A probe column that is *declared*
//! untyped but *inferred* `int` by [`super::types`] is a one-line
//! declaration change away from upgrading a generic kernel to the typed
//! `i64` path — those columns are surfaced as `refinable` and drive the
//! W0011 lint.

use super::types::TypedCatalog;
use super::ProgramContext;
use crate::ast::Span;
use crate::kernel::KernelVerdict;
use crate::plan;
use crate::value::TypeTag;

/// One rule's entry in the whole-program [`KernelReport`].
#[derive(Debug, Clone)]
pub struct RuleKernelReport {
    /// The rule's display label.
    pub label: String,
    /// Head table.
    pub head: String,
    /// Source location of the rule (for annotations).
    pub span: Span,
    /// Index into `ProgramContext::rules`.
    pub rule_index: usize,
    /// `(delta table, verdict)` per semi-naive variant, in variant order;
    /// empty when the rule failed the error-level checks.
    pub variants: Vec<(String, KernelVerdict)>,
    /// Probe columns that keep a variant on the generic path but whose
    /// inferred type is a concrete key type: declaring the column would
    /// upgrade the kernel to typed `i64` probes.
    pub refinable: Vec<(String, usize)>,
}

/// Whole-program kernel-specialization report, aligned with
/// `ProgramContext::rules`.
#[derive(Debug, Clone, Default)]
pub struct KernelReport {
    /// Per-rule entries.
    pub rules: Vec<RuleKernelReport>,
}

/// Run the kernel-specialization pass: compile the valid rules exactly as
/// the runtime's planner does and collect the per-variant verdicts,
/// cross-referencing generic probe columns against the inference catalog.
pub fn analyze(ctx: &ProgramContext, rule_ok: &[bool], catalog: &TypedCatalog) -> KernelReport {
    let mut report = KernelReport::default();
    let mut valid_idx = Vec::new();
    let mut rules = Vec::new();
    for (i, rule) in ctx.rules.iter().enumerate() {
        report.rules.push(RuleKernelReport {
            label: rule.label(i),
            head: rule.head.table.clone(),
            span: rule.span,
            rule_index: i,
            variants: Vec::new(),
            refinable: Vec::new(),
        });
        if rule_ok[i] {
            valid_idx.push(i);
            rules.push(rule.clone());
        }
    }
    let Ok(plan) = plan::compile(&ctx.decls, &rules) else {
        // A whole-program failure (stratification, view conflict) leaves
        // every entry empty; the error pass already reported it.
        return report;
    };
    for ((orig, rule), verdicts) in valid_idx.iter().zip(&rules).zip(&plan.kernel.verdicts) {
        let entry = &mut report.rules[*orig];
        let mut deltas: Vec<String> = rule
            .positive_predicates()
            .map(|p| p.table.clone())
            .collect();
        if deltas.is_empty() {
            deltas.push("(none)".into());
        }
        // Variants cycle through the delta predicates in order.
        entry.variants = verdicts
            .iter()
            .enumerate()
            .map(|(d, v)| (deltas[d % deltas.len()].clone(), v.clone()))
            .collect();
        for (_, v) in &entry.variants {
            let KernelVerdict::Generic { value_cols } = v else {
                continue;
            };
            for (table, col) in value_cols {
                let declared = ctx
                    .decls
                    .get(table)
                    .and_then(|d| d.types.get(*col))
                    .copied()
                    .unwrap_or(TypeTag::Any);
                let inferred = catalog
                    .cols
                    .get(table)
                    .and_then(|c| c.get(*col))
                    .copied()
                    .unwrap_or(TypeTag::Any);
                if declared == TypeTag::Any
                    && inferred == TypeTag::Int
                    && !entry.refinable.contains(&(table.clone(), *col))
                {
                    entry.refinable.push((table.clone(), *col));
                }
            }
        }
    }
    report
}

/// Render the report for `olgcheck analyze` (text format).
pub fn render(report: &KernelReport) -> String {
    let mut s = String::from(
        "kernel specialization (typed i64 probes where declared column types \
         allow):\n",
    );
    for r in &report.rules {
        s.push_str(&format!("  rule `{}` -> {}:\n", r.label, r.head));
        if r.variants.is_empty() {
            s.push_str("    skipped (failed error-level checks)\n");
            continue;
        }
        for (delta, v) in &r.variants {
            s.push_str(&format!("    delta {delta}: {v}\n"));
        }
        for (table, col) in &r.refinable {
            s.push_str(&format!(
                "    refinable: `{table}` column {col} is declared untyped but \
                 inferred Int — declare it to unlock typed probes\n"
            ));
        }
    }
    s
}

/// Render the report as a JSON array (one object per rule), for the
/// machine-readable `olgcheck analyze --format json` output.
pub fn render_json(report: &KernelReport) -> String {
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
                KernelVerdict::Typed { int_probes } => out.push_str(&format!(
                    "{{\"delta\":{},\"verdict\":\"typed\",\"int_probes\":{int_probes}}}",
                    json_string(delta)
                )),
                KernelVerdict::Generic { value_cols } => {
                    let cols: Vec<String> = value_cols
                        .iter()
                        .map(|(t, c)| format!("[{},{c}]", json_string(t)))
                        .collect();
                    out.push_str(&format!(
                        "{{\"delta\":{},\"verdict\":\"generic\",\"value_cols\":[{}]}}",
                        json_string(delta),
                        cols.join(",")
                    ));
                }
            }
        }
        out.push(']');
        if !r.refinable.is_empty() {
            let cols: Vec<String> = r
                .refinable
                .iter()
                .map(|(t, c)| format!("[{},{c}]", json_string(t)))
                .collect();
            out.push_str(&format!(",\"refinable\":[{}]", cols.join(",")));
        }
        out.push('}');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::super::{report, ProgramContext, SourceMap};
    use super::*;

    fn kernel_report(src: &str) -> KernelReport {
        let mut ctx = ProgramContext::new();
        let mut map = SourceMap::new();
        assert!(ctx.add_source("t.olg", src, &mut map));
        report(&ctx).kernel
    }

    #[test]
    fn typed_join_gets_typed_kernel() {
        let r = kernel_report(
            "define(a, keys(0), {Int, Int});
             define(b, keys(0), {Int, Int});
             define(j, keys(0,1), {Int, Int});
             j(X, Z) :- a(X, Y), b(Y, Z);",
        );
        let entry = &r.rules[0];
        assert_eq!(entry.variants.len(), 2, "{entry:?}");
        for (_, v) in &entry.variants {
            assert!(
                matches!(v, KernelVerdict::Typed { int_probes } if *int_probes == 1),
                "{v}"
            );
        }
        assert!(entry.refinable.is_empty());
    }

    #[test]
    fn untyped_probe_column_is_refinable_when_inferred_int() {
        // `u` is declared wildcard but only ever written from Int columns,
        // so inference pins its columns to Int: the generic probe over
        // u.0 is one declaration away from a typed kernel.
        let r = kernel_report(
            "define(src, keys(0), {Int, Int});
             define(u, keys(0), {Value, Value});
             define(out, keys(0), {Int, Int});
             u(X, Y) :- src(X, Y);
             out(X, Z) :- src(X, Y), u(Y, Z);",
        );
        let entry = &r.rules[1];
        let generic = entry
            .variants
            .iter()
            .any(|(_, v)| matches!(v, KernelVerdict::Generic { .. }));
        assert!(generic, "{:?}", entry.variants);
        assert_eq!(entry.refinable, vec![("u".to_string(), 0)]);
    }

    #[test]
    fn nested_expressions_and_aggregates_compile() {
        let r = kernel_report(
            "define(t, keys(0), {Int, Int});
             define(o, keys(0), {Int, Int});
             define(m, keys(0), {Int, Int});
             o(X, Y) :- t(X, N), Y := (N + 1) * 2;
             m(X, max<Y>) :- o(X, Y), Y > abs(X - 3);",
        );
        for entry in &r.rules {
            assert!(!entry.variants.is_empty(), "{entry:?}");
            for (_, v) in &entry.variants {
                assert!(matches!(v, KernelVerdict::Typed { .. }), "{v}");
            }
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let r = kernel_report(
            "define(a, keys(0), {Int, Int});
             define(j, keys(0), {Int, Int});
             j(X, Y) :- a(X, Y);",
        );
        let j = render_json(&r);
        assert!(j.starts_with('[') && j.ends_with(']'), "{j}");
        assert!(j.contains("\"verdict\":\"typed\""), "{j}");
    }
}
