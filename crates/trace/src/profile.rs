//! The rule-level profiler: roll the runtime's per-rule counters up into
//! a hot-rules report that tells the next perf PR where to dig.

use boom_overlog::{OverlogRuntime, RuleStats};
use std::collections::BTreeMap;

/// One rule's counters on one simulator node.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Simulator node the runtime belongs to.
    pub node: String,
    /// Rule label (name or positional `rule#i`).
    pub rule: String,
    /// The counters (see [`RuleStats`]).
    pub stats: RuleStats,
}

/// Snapshot one runtime's per-rule counters.
pub fn collect_rule_profile(node: &str, rt: &OverlogRuntime) -> Vec<ProfileRow> {
    rt.rule_stats()
        .into_iter()
        .map(|(rule, stats)| ProfileRow {
            node: node.to_string(),
            rule,
            stats,
        })
        .collect()
}

/// Sum rows by rule label across nodes, sorted by fires (then attempts,
/// then label) descending.
pub fn merge_by_rule(rows: &[ProfileRow]) -> Vec<(String, RuleStats)> {
    let mut by_rule: BTreeMap<&str, RuleStats> = BTreeMap::new();
    for r in rows {
        let s = by_rule.entry(&r.rule).or_default();
        s.fires += r.stats.fires;
        s.attempts += r.stats.attempts;
        s.delta_in += r.stats.delta_in;
        s.maint_evals += r.stats.maint_evals;
        s.kernel_evals += r.stats.kernel_evals;
        s.eval_ns += r.stats.eval_ns;
    }
    let mut out: Vec<(String, RuleStats)> = by_rule
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    out.sort_by(|a, b| (b.1.fires, b.1.attempts, &a.0).cmp(&(a.1.fires, a.1.attempts, &b.0)));
    out
}

/// Render the top-K hot rules as an aligned text table. `with_time`
/// includes the wall-clock `eval_ms` column (non-deterministic; leave it
/// off when output must be reproducible).
pub fn render_hot_rules(rows: &[ProfileRow], k: usize, with_time: bool) -> String {
    let merged = merge_by_rule(rows);
    let shown = merged.iter().take(k);
    let mut out = String::new();
    let total_fires: u64 = merged.iter().map(|(_, s)| s.fires).sum();
    out.push_str(&format!(
        "top {} hot rules (of {}; {} fires total)\n",
        k.min(merged.len()),
        merged.len(),
        total_fires
    ));
    if with_time {
        out.push_str(&format!(
            "{:>4}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>9}  rule\n",
            "rank", "fires", "attempts", "delta_in", "maint", "kernel", "eval_ms"
        ));
    } else {
        out.push_str(&format!(
            "{:>4}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  rule\n",
            "rank", "fires", "attempts", "delta_in", "maint", "kernel"
        ));
    }
    for (i, (rule, s)) in shown.enumerate() {
        if with_time {
            out.push_str(&format!(
                "{:>4}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>9.3}  {rule}\n",
                i + 1,
                s.fires,
                s.attempts,
                s.delta_in,
                s.maint_evals,
                s.kernel_evals,
                s.eval_ns as f64 / 1e6
            ));
        } else {
            out.push_str(&format!(
                "{:>4}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {rule}\n",
                i + 1,
                s.fires,
                s.attempts,
                s.delta_in,
                s.maint_evals,
                s.kernel_evals
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(node: &str, rule: &str, fires: u64, attempts: u64) -> ProfileRow {
        ProfileRow {
            node: node.into(),
            rule: rule.into(),
            stats: RuleStats {
                fires,
                attempts,
                delta_in: fires,
                maint_evals: attempts / 2,
                kernel_evals: fires,
                eval_ns: 1_000_000,
            },
        }
    }

    #[test]
    fn merge_sums_across_nodes_and_sorts_by_fires() {
        let rows = vec![
            row("n1", "cold", 1, 2),
            row("n1", "hot", 10, 20),
            row("n2", "hot", 5, 6),
        ];
        let merged = merge_by_rule(&rows);
        assert_eq!(merged[0].0, "hot");
        assert_eq!(merged[0].1.fires, 15);
        assert_eq!(merged[0].1.attempts, 26);
        assert_eq!(merged[0].1.maint_evals, 13);
        assert_eq!(merged[0].1.kernel_evals, 15);
        assert_eq!(merged[1].0, "cold");
    }

    #[test]
    fn report_is_deterministic_without_time() {
        let rows = vec![row("n1", "a", 3, 3), row("n1", "b", 3, 3)];
        let a = render_hot_rules(&rows, 10, false);
        let b = render_hot_rules(&rows, 10, false);
        assert_eq!(a, b);
        assert!(!a.contains("eval_ms"), "{a}");
        // Equal fires+attempts tie-break alphabetically.
        let ia = a.find(" a\n").unwrap();
        let ib = a.find(" b\n").unwrap();
        assert!(ia < ib, "{a}");
    }

    #[test]
    fn report_truncates_to_k() {
        let rows: Vec<ProfileRow> = (0..20).map(|i| row("n1", &format!("r{i}"), i, i)).collect();
        let text = render_hot_rules(&rows, 5, true);
        assert!(text.contains("top 5 hot rules"), "{text}");
        assert_eq!(text.lines().count(), 2 + 5, "{text}");
    }
}
