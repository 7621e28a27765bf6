//! Metaprogrammed monitoring: generate the watch/logging program for any
//! loaded Overlog program.
//!
//! This is the paper's monitoring revision done the paper's way — the
//! monitoring rules are *themselves Overlog*, derived mechanically from
//! the monitored program's catalog rather than hand-threaded through the
//! system code. For a loaded runtime we emit:
//!
//! * a `watch(t);` for every user table, so inserts/deletes/sends land in
//!   the trace ring buffer, and
//! * a `boomt_rowcount` view with one `count<*>` rule per materialized
//!   table, so table cardinalities are continuously maintained *by the
//!   evaluator itself* and can be watched, queried and exported like any
//!   other relation.
//!
//! [`install_monitor`] turns tracing on for fs/mr/paxos/core alike in one
//! call; the generated program is ordinary Overlog that `olgcheck` can
//! analyze.

use boom_overlog::{is_observation_table, OverlogRuntime, Result, TableKind};

/// Name of the generated row-count view table.
pub const ROWCOUNT_TABLE: &str = "boomt_rowcount";

/// Prefix of generated tables and rules; tables carrying it are never
/// monitored themselves (keeps [`install_monitor`] from monitoring its
/// own instrumentation).
pub const GENERATED_PREFIX: &str = "boomt_";

/// A generated monitoring program.
#[derive(Debug, Clone)]
pub struct MonitorSpec {
    /// Tables the program watches (everything except ambient/generated).
    pub watches: Vec<String>,
    /// Materialized tables covered by a `count<*>` row-count rule.
    pub counted: Vec<String>,
    /// The generated Overlog source (defines, watches, row-count rules).
    pub source: String,
}

impl MonitorSpec {
    /// Number of generated statements (a rough size for reports).
    pub fn statements(&self) -> usize {
        self.source
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .count()
    }
}

/// Generate the monitoring program for everything loaded into `rt`,
/// without installing it.
pub fn generate_monitor(rt: &OverlogRuntime) -> MonitorSpec {
    let mut decls: Vec<(String, usize, TableKind)> = rt
        .table_decls()
        .filter(|d| d.name != "me" && !is_observation_table(&d.name))
        .map(|d| (d.name.clone(), d.types.len(), d.kind))
        .collect();
    decls.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));

    let mut watches = Vec::new();
    let mut counted = Vec::new();
    let mut src = String::from("// generated by boom-trace: metaprogrammed monitoring\n");
    src.push_str(&format!(
        "define({ROWCOUNT_TABLE}, keys(0), {{Str, Int}});\nwatch({ROWCOUNT_TABLE});\n"
    ));
    for (name, _, _) in &decls {
        src.push_str(&format!("watch({name});\n"));
        watches.push(name.clone());
    }
    for (name, arity, kind) in &decls {
        if *kind != TableKind::Materialized || *arity == 0 {
            continue;
        }
        let wildcards = vec!["_"; *arity].join(", ");
        src.push_str(&format!(
            "{GENERATED_PREFIX}rc_{name} {ROWCOUNT_TABLE}(\"{name}\", count<*>) :- \
             {name}({wildcards});\n"
        ));
        counted.push(name.clone());
    }
    MonitorSpec {
        watches,
        counted,
        source: src,
    }
}

/// Generate the monitoring program for `rt` and load it. One call turns
/// full tracing on for any of the shipped programs (fs, mr, paxos, core).
/// Call once per runtime: re-installation duplicates the generated rules.
pub fn install_monitor(rt: &mut OverlogRuntime) -> Result<MonitorSpec> {
    let spec = generate_monitor(rt);
    rt.load(&spec.source)?;
    Ok(spec)
}

/// Remove a previously installed monitor: unload its generated rules
/// (recompiling the program and dropping their now-stale `RuleStats`
/// entries with them), drop its watches, and clear the
/// generated row-count view. Returns `false` if the spec's source was not
/// loaded (already uninstalled).
///
/// The generated `boomt_*` table *declarations* stay in the catalog —
/// Overlog has no `undefine` — but with their deriving rules gone and
/// their rows cleared they are empty, unwatched, and invisible to state
/// fingerprints (observation tables are excluded by prefix).
pub fn uninstall_monitor(rt: &mut OverlogRuntime, spec: &MonitorSpec) -> Result<bool> {
    if !rt.unload(&spec.source)? {
        return Ok(false);
    }
    rt.unwatch(ROWCOUNT_TABLE);
    for t in &spec.watches {
        rt.unwatch(t);
    }
    rt.clear_table(ROWCOUNT_TABLE)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boom_overlog::{OverlogRuntime, TraceOp, Value};
    use std::sync::Arc;

    fn demo_rt() -> OverlogRuntime {
        let mut rt = OverlogRuntime::new("n1");
        rt.load(
            "event req, {Int};
             define(acc, keys(0), {Int});
             define(twice, keys(0,1), {Int, Int});
             acc(X) :- req(X);
             twice(X, Y) :- acc(X), Y := X * 2;",
        )
        .unwrap();
        rt
    }

    #[test]
    fn generated_program_watches_and_counts() {
        let rt = demo_rt();
        let spec = generate_monitor(&rt);
        assert!(spec.watches.contains(&"req".to_string()), "{spec:?}");
        assert!(spec.watches.contains(&"acc".to_string()), "{spec:?}");
        // Events are watched but not counted; materialized tables are both.
        assert!(!spec.counted.contains(&"req".to_string()), "{spec:?}");
        assert!(spec.counted.contains(&"acc".to_string()), "{spec:?}");
        assert!(spec.counted.contains(&"twice".to_string()), "{spec:?}");
        assert!(!spec.watches.contains(&"me".to_string()), "{spec:?}");
        assert!(spec.source.contains("boomt_rc_acc"), "{}", spec.source);
    }

    #[test]
    fn installed_monitor_maintains_rowcounts_and_traces() {
        let mut rt = demo_rt();
        install_monitor(&mut rt).unwrap();
        for i in 0..3 {
            rt.insert("req", Arc::new(vec![Value::Int(i)])).unwrap();
            rt.tick(i as u64).unwrap();
        }
        rt.tick(10).unwrap();
        // The generated view tracks |acc| = 3.
        let rows = rt.rows(ROWCOUNT_TABLE);
        let acc = rows
            .iter()
            .find(|r| r[0] == Value::str("acc"))
            .expect("rowcount for acc");
        assert_eq!(acc[1], Value::Int(3));
        // Derivations into watched tables hit the trace.
        let drain = rt.drain_trace();
        assert!(drain
            .events
            .iter()
            .any(|e| e.table == "twice" && e.op == TraceOp::Insert));
        assert!(drain.events.iter().any(|e| e.table == ROWCOUNT_TABLE));
    }

    #[test]
    fn generated_program_passes_static_analysis() {
        let mut rt = demo_rt();
        rt.insert("req", Arc::new(vec![Value::Int(1)])).unwrap();
        install_monitor(&mut rt).unwrap();
        let diags = rt.check();
        let errors: Vec<_> = diags.iter().filter(|d| d.code.starts_with('E')).collect();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn uninstall_monitor_restores_the_program_and_its_stats() {
        let mut rt = demo_rt();
        rt.insert("req", Arc::new(vec![Value::Int(1)])).unwrap();
        rt.tick(0).unwrap();
        let base_rules = rt.rule_stats().len();
        let spec = install_monitor(&mut rt).unwrap();
        rt.insert("req", Arc::new(vec![Value::Int(2)])).unwrap();
        rt.settle(1).unwrap();
        assert!(rt.rule_stats().len() > base_rules, "monitor rules profiled");
        assert!(!rt.rows(ROWCOUNT_TABLE).is_empty());

        assert!(uninstall_monitor(&mut rt, &spec).unwrap());
        // The stale RuleStats entries for the removed generated rules are
        // gone — the profile is exactly the original program's again.
        assert_eq!(rt.rule_stats().len(), base_rules);
        assert!(rt.rows(ROWCOUNT_TABLE).is_empty(), "rowcount view cleared");
        assert!(rt.watched_tables().is_empty(), "watches removed");
        // The monitored program still runs.
        rt.insert("req", Arc::new(vec![Value::Int(3)])).unwrap();
        rt.settle(2).unwrap();
        assert_eq!(rt.count("acc"), 3);
        assert!(rt.rows(ROWCOUNT_TABLE).is_empty(), "no rule refills it");
        // Second uninstall is a no-op.
        assert!(!uninstall_monitor(&mut rt, &spec).unwrap());
        // And a fresh install works again after an uninstall.
        install_monitor(&mut rt).unwrap();
        rt.insert("req", Arc::new(vec![Value::Int(4)])).unwrap();
        rt.settle(3).unwrap();
        assert!(!rt.rows(ROWCOUNT_TABLE).is_empty());
    }

    #[test]
    fn install_is_one_call_for_a_shipped_style_program() {
        // A miniature of the fs namenode shape: recursive view over base
        // metadata tables.
        let mut rt = OverlogRuntime::new("nn");
        rt.load(
            "define(parent, keys(0,1), {Str, Str});
             define(reach, keys(0,1), {Str, Str});
             reach(X, Y) :- parent(X, Y);
             reach(X, Z) :- parent(X, Y), reach(Y, Z);
             parent(\"/\", \"a\");
             parent(\"a\", \"b\");",
        )
        .unwrap();
        let spec = install_monitor(&mut rt).unwrap();
        assert!(spec.counted.contains(&"reach".to_string()));
        rt.tick(0).unwrap();
        rt.tick(1).unwrap();
        let rows = rt.rows(ROWCOUNT_TABLE);
        let reach = rows
            .iter()
            .find(|r| r[0] == Value::str("reach"))
            .expect("rowcount for reach");
        assert_eq!(reach[1], Value::Int(3));
    }
}
