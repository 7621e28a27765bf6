//! End-to-end semantics tests for the Overlog runtime: timestep model,
//! events, negation, aggregation, deletion rules, views, location
//! specifiers, and timers.

mod oracle;

use boom_overlog::value::row;
use boom_overlog::{OverlogError, OverlogRuntime, PlanOptions, Row, TraceOp, Value};
use std::sync::Arc;

fn rt(src: &str) -> OverlogRuntime {
    let mut r = OverlogRuntime::new("n1");
    r.load(src).expect("program loads");
    r
}

fn ints(rt: &OverlogRuntime, table: &str) -> Vec<Vec<i64>> {
    rt.rows(table)
        .iter()
        .map(|r| r.iter().map(|v| v.as_int().unwrap_or(i64::MIN)).collect())
        .collect()
}

#[test]
fn transitive_closure_fixpoint() {
    let mut r = rt("define(link, keys(0,1), {Int, Int});
                    define(path, keys(0,1), {Int, Int});
                    path(X, Y) :- link(X, Y);
                    path(X, Z) :- link(X, Y), path(Y, Z);");
    for i in 0..10 {
        r.insert("link", row(vec![Value::Int(i), Value::Int(i + 1)]))
            .unwrap();
    }
    r.tick(0).unwrap();
    // 11 nodes in a chain: 10+9+...+1 = 55 paths.
    assert_eq!(r.count("path"), 55);
}

#[test]
fn events_live_for_one_tick() {
    let mut r = rt("event ping, {Int};
                    define(log, keys(0), {Int});
                    log(X) :- ping(X);");
    r.insert("ping", row(vec![Value::Int(7)])).unwrap();
    let res = r.tick(0).unwrap();
    assert_eq!(r.count("ping"), 0, "event cleared at tick boundary");
    assert_eq!(r.count("log"), 0, "inductive insert lands next tick");
    let _ = res;
    r.settle(0).unwrap();
    assert_eq!(ints(&r, "log"), vec![vec![7]], "event effect persisted");
    r.tick(1).unwrap();
    assert_eq!(
        ints(&r, "log"),
        vec![vec![7]],
        "no event, no new derivation"
    );
}

#[test]
fn derived_events_visible_within_the_same_tick() {
    let mut r = rt("event a, {Int};
                    event b, {Int};
                    define(out, keys(0), {Int});
                    b(X + 1) :- a(X);
                    out(Y) :- b(Y);");
    r.insert("a", row(vec![Value::Int(1)])).unwrap();
    r.settle(0).unwrap();
    assert_eq!(ints(&r, "out"), vec![vec![2]]);
}

#[test]
fn negation_is_stratified() {
    let mut r = rt("define(node, keys(0), {Int});
                    define(down, keys(0), {Int});
                    define(up, keys(0), {Int});
                    up(X) :- node(X), notin down(X);");
    r.insert("node", row(vec![Value::Int(1)])).unwrap();
    r.insert("node", row(vec![Value::Int(2)])).unwrap();
    r.insert("down", row(vec![Value::Int(2)])).unwrap();
    r.tick(0).unwrap();
    assert_eq!(ints(&r, "up"), vec![vec![1]]);
}

#[test]
fn aggregates_group_correctly() {
    let mut r = rt("define(task, keys(0,1), {Int, Int});
                    define(stats, keys(0), {Int, Int, Int, Int, Float});
                    stats(J, count<T>, min<T>, max<T>, avg<T>) :- task(J, T);");
    for (j, t) in [(1, 10), (1, 20), (1, 30), (2, 5)] {
        r.insert("task", row(vec![Value::Int(j), Value::Int(t)]))
            .unwrap();
    }
    r.tick(0).unwrap();
    let rows = r.rows("stats");
    assert_eq!(rows.len(), 2);
    assert_eq!(
        rows[0],
        row(vec![
            Value::Int(1),
            Value::Int(3),
            Value::Int(10),
            Value::Int(30),
            Value::Float(20.0)
        ])
    );
    assert_eq!(
        rows[1],
        row(vec![
            Value::Int(2),
            Value::Int(1),
            Value::Int(5),
            Value::Int(5),
            Value::Float(5.0)
        ])
    );
}

#[test]
fn aggregate_updates_when_inputs_grow() {
    let mut r = rt("define(t, keys(0), {Int});
                    define(c, keys(), {Int});
                    c(count<X>) :- t(X);");
    r.insert("t", row(vec![Value::Int(1)])).unwrap();
    r.tick(0).unwrap();
    assert_eq!(ints(&r, "c"), vec![vec![1]]);
    r.insert("t", row(vec![Value::Int(2)])).unwrap();
    r.tick(1).unwrap();
    assert_eq!(
        ints(&r, "c"),
        vec![vec![2]],
        "old count replaced via key overwrite"
    );
}

#[test]
fn count_star_counts_tuples() {
    let mut r = rt("define(t, keys(0,1), {Int, Int});
                    define(c, keys(0), {Int, Int});
                    c(X, count<*>) :- t(X, _);");
    for (a, b) in [(1, 1), (1, 2), (2, 9)] {
        r.insert("t", row(vec![Value::Int(a), Value::Int(b)]))
            .unwrap();
    }
    r.tick(0).unwrap();
    assert_eq!(ints(&r, "c"), vec![vec![1, 2], vec![2, 1]]);
}

#[test]
fn delete_rules_apply_at_tick_boundary() {
    let mut r = rt("define(t, keys(0), {Int});
                    event rm, {Int};
                    event probe, {Int};
                    define(seen_at_delete_time, keys(0), {Int});
                    delete t(X) :- rm(X), t(X);
                    seen_at_delete_time(X) :- probe(_), t(X);");
    r.insert("t", row(vec![Value::Int(5)])).unwrap();
    r.tick(0).unwrap();
    r.insert("rm", row(vec![Value::Int(5)])).unwrap();
    r.insert("probe", row(vec![Value::Int(0)])).unwrap();
    r.settle(1).unwrap();
    // The deletion is deferred: rules in the same tick still saw t(5).
    assert_eq!(ints(&r, "seen_at_delete_time"), vec![vec![5]]);
    assert_eq!(r.count("t"), 0, "deleted at boundary");
}

#[test]
fn views_recompute_after_deletion() {
    let mut r = rt("define(edge, keys(0,1), {Int, Int});
                    define(reach, keys(0,1), {Int, Int});
                    reach(X, Y) :- edge(X, Y);
                    reach(X, Z) :- edge(X, Y), reach(Y, Z);");
    for (a, b) in [(1, 2), (2, 3)] {
        r.insert("edge", row(vec![Value::Int(a), Value::Int(b)]))
            .unwrap();
    }
    r.tick(0).unwrap();
    assert_eq!(r.count("reach"), 3);
    // Remove edge 2→3: derived paths through it must disappear.
    r.delete("edge", row(vec![Value::Int(2), Value::Int(3)]))
        .unwrap();
    let res = r.tick(1).unwrap();
    assert_eq!(ints(&r, "reach"), vec![vec![1, 2]]);
    // The recompute happened at the start of the tick (external delete).
    assert_eq!(r.count("edge"), 1);
    let _ = res;
}

#[test]
fn key_overwrite_semantics() {
    let mut r = rt("define(hb, keys(0), {Int, Int});
                    event beat, {Int, Int};
                    hb(N, T) :- beat(N, T);");
    r.insert("beat", row(vec![Value::Int(1), Value::Int(100)]))
        .unwrap();
    r.settle(0).unwrap();
    r.insert("beat", row(vec![Value::Int(1), Value::Int(200)]))
        .unwrap();
    r.settle(1).unwrap();
    assert_eq!(
        ints(&r, "hb"),
        vec![vec![1, 200]],
        "newer heartbeat replaced older"
    );
}

#[test]
fn location_specifier_routes_remote_tuples() {
    let mut r = rt("event req, {Addr, Int};
                    event resp, {Addr, Int};
                    resp(@Src, X * 10) :- req(Src, X);");
    r.insert("req", row(vec![Value::addr("client7"), Value::Int(4)]))
        .unwrap();
    let out = r.tick(0).unwrap();
    assert_eq!(out.sends.len(), 1);
    let s = &out.sends[0];
    assert_eq!(&*s.dest, "client7");
    assert_eq!(s.table, "resp");
    assert_eq!(s.row, row(vec![Value::addr("client7"), Value::Int(40)]));
    assert_eq!(r.count("resp"), 0, "remote tuple not inserted locally");
}

#[test]
fn location_specifier_local_address_stays_local() {
    let mut r = rt("event req, {Addr, Int};
                    define(resp, keys(0,1), {Addr, Int});
                    resp(@Src, X) :- req(Src, X);");
    r.insert("req", row(vec![Value::addr("n1"), Value::Int(4)]))
        .unwrap();
    let sends = r.settle(0).unwrap();
    assert!(sends.is_empty());
    assert_eq!(r.count("resp"), 1);
}

#[test]
fn me_table_binds_self_address() {
    let mut r = rt("event probe, {Int};
                    define(whoami, keys(0), {Addr});
                    whoami(M) :- probe(_), me(M);");
    r.insert("probe", row(vec![Value::Int(0)])).unwrap();
    r.settle(0).unwrap();
    assert_eq!(r.rows("whoami")[0], row(vec![Value::addr("n1")]));
}

#[test]
fn timers_fire_on_schedule() {
    let mut r = rt("timer(hb, 100);
                    define(fired, keys(0), {Int});
                    fired(T) :- hb(T);");
    r.settle(0).unwrap();
    assert_eq!(r.count("fired"), 1, "fires on first tick");
    r.settle(50).unwrap();
    assert_eq!(r.count("fired"), 1, "not due yet");
    r.settle(100).unwrap();
    assert_eq!(r.count("fired"), 2);
    r.settle(350).unwrap();
    assert_eq!(r.count("fired"), 3, "one firing per tick even when late");
}

#[test]
fn assignments_and_builtins() {
    let mut r = rt(r#"event in, {String};
                    define(out, keys(0,1), {String, Int});
                    out(P, L) :- in(Name), P := "/dir/" ++ Name, L := strlen(P);"#);
    r.insert("in", row(vec![Value::str("f")])).unwrap();
    r.settle(0).unwrap();
    assert_eq!(
        r.rows("out")[0],
        row(vec![Value::str("/dir/f"), Value::Int(6)])
    );
}

#[test]
fn assignment_to_a_bound_variable_constrains_it() {
    // The `small`-delta variant scans `small(M, Z)` before `M := X % 4`
    // runs, so the assignment finds `M` bound: it must filter, not rebind
    // `M` and join every `small` row.
    let mut r = rt("define(base, keys(0), {Int});
                    define(small, keys(0), {Int, Int});
                    define(joined, keys(0,1), {Int, Int});
                    joined(X, Z) :- base(X), M := X % 4, small(M, Z);");
    for x in [1, 6] {
        r.insert("base", row(vec![Value::Int(x)])).unwrap();
    }
    r.tick(0).unwrap();
    for m in 0..4 {
        r.insert("small", row(vec![Value::Int(m), Value::Int(10 + m)]))
            .unwrap();
    }
    r.tick(1).unwrap();
    assert_eq!(ints(&r, "joined"), vec![vec![1, 11], vec![6, 12]]);
}

#[test]
fn custom_builtin_registration() {
    let mut r = OverlogRuntime::new("n1");
    r.register_builtin("triple", |args| {
        Ok(Value::Int(args[0].as_int().unwrap_or(0) * 3))
    });
    r.load(
        "event in, {Int};
         define(out, keys(0), {Int});
         out(Y) :- in(X), Y := triple(X);",
    )
    .unwrap();
    r.insert("in", row(vec![Value::Int(5)])).unwrap();
    r.settle(0).unwrap();
    assert_eq!(ints(&r, "out"), vec![vec![15]]);
}

#[test]
fn budget_guards_divergence() {
    let mut r = rt("define(n, keys(0), {Int});
                    n(X + 1) :- n(X);");
    r.set_budget(1000);
    r.insert("n", row(vec![Value::Int(0)])).unwrap();
    let err = r.tick(0).unwrap_err();
    assert!(matches!(err, OverlogError::Eval(_)));
}

#[test]
fn watch_records_trace() {
    let mut r = rt("define(t, keys(0), {Int});
                    watch(t);
                    event e, {Int};
                    t(X) :- e(X);");
    r.insert("e", row(vec![Value::Int(3)])).unwrap();
    r.settle(0).unwrap();
    let trace = r.take_trace();
    assert!(trace
        .iter()
        .any(|ev| ev.table == "t" && ev.op == TraceOp::Insert));
}

#[test]
fn multiple_programs_merge() {
    let mut r = rt("define(base, keys(0), {Int});");
    r.load(
        "define(derived, keys(0), {Int});
         derived(X * 2) :- base(X);",
    )
    .unwrap();
    r.insert("base", row(vec![Value::Int(4)])).unwrap();
    r.tick(0).unwrap();
    assert_eq!(ints(&r, "derived"), vec![vec![8]]);
}

#[test]
fn conflicting_redefinition_rejected() {
    let mut r = rt("define(t, keys(0), {Int});");
    let err = r.load("define(t, keys(0), {String});").unwrap_err();
    assert!(matches!(err, OverlogError::Redefinition { .. }));
    // Identical redefinition is fine.
    r.load("define(t, keys(0), {Int});").unwrap();
}

#[test]
fn failed_load_leaves_runtime_usable() {
    let mut r = rt("define(t, keys(0), {Int}); t(1);");
    let err = r.load("define(u, keys(0), {Int}); u(X) :- t(X), notin u(X);");
    assert!(err.is_err(), "unstratifiable program rejected");
    // Previous program still works.
    r.tick(0).unwrap();
    assert_eq!(r.count("t"), 1);
}

#[test]
fn deletion_of_missing_row_is_noop() {
    let mut r = rt("define(t, keys(0), {Int});");
    r.delete("t", row(vec![Value::Int(1)])).unwrap();
    let res = r.tick(0).unwrap();
    assert_eq!(res.deletions, 0);
}

#[test]
fn rename_pattern_overwrite_plus_delete_same_tick() {
    // A rename in BOOM-FS overwrites the PK row; a concurrent delete of the
    // stale row must not remove the new one.
    let mut r = rt("define(file, keys(0), {Int, String});
                    event mv, {Int, String};
                    event rmstale, {Int, String};
                    file(F, N) :- mv(F, N);
                    delete file(F, N) :- rmstale(F, N), file(F, N);");
    r.insert("file", Arc::new(vec![Value::Int(1), Value::str("old")]))
        .unwrap();
    r.tick(0).unwrap();
    r.insert("mv", Arc::new(vec![Value::Int(1), Value::str("new")]))
        .unwrap();
    r.insert("rmstale", Arc::new(vec![Value::Int(1), Value::str("old")]))
        .unwrap();
    r.settle(1).unwrap();
    assert_eq!(
        r.rows("file"),
        vec![row(vec![Value::Int(1), Value::str("new")])]
    );
}

#[test]
fn condition_ordering_is_flexible() {
    // Condition written before the predicate that binds its variable.
    let mut r = rt("define(t, keys(0), {Int});
                    define(big, keys(0), {Int});
                    big(X) :- X > 10, t(X);");
    r.insert("t", row(vec![Value::Int(5)])).unwrap();
    r.insert("t", row(vec![Value::Int(15)])).unwrap();
    r.tick(0).unwrap();
    assert_eq!(ints(&r, "big"), vec![vec![15]]);
}

#[test]
fn self_join_with_distinct_bindings() {
    let mut r = rt("define(p, keys(0,1), {Int, Int});
                    define(sib, keys(0,1), {Int, Int});
                    sib(A, B) :- p(X, A), p(X, B), A != B;");
    for (x, c) in [(1, 10), (1, 11), (2, 20)] {
        r.insert("p", row(vec![Value::Int(x), Value::Int(c)]))
            .unwrap();
    }
    r.tick(0).unwrap();
    assert_eq!(ints(&r, "sib"), vec![vec![10, 11], vec![11, 10]]);
}

#[test]
fn derivations_counted() {
    let mut r = rt("define(t, keys(0), {Int});
                    define(u, keys(0), {Int});
                    u(X) :- t(X);");
    r.insert("t", row(vec![Value::Int(1)])).unwrap();
    let res = r.tick(0).unwrap();
    assert!(res.derivations >= 1);
    let fires = r.rule_fire_counts();
    assert_eq!(fires.len(), 1);
    assert_eq!(fires[0].1, 1);
}

/// Index entries touched by overwriting 128 rows of `hb`, whose rows all
/// share one bucket of its index over column 1 (the shape of a DataNode's
/// chunk report). The view's maintainer adds a second `hb` index, over
/// columns (1, 0), the first time `hb` changes; a one-row overwrite builds
/// it before the measured tick.
fn index_work_for_128_overwrites(rows: i64) -> u64 {
    let mut r = rt("define(hb, keys(0), {Int, Int, Int});
                    define(q, keys(0), {Int});
                    define(out, keys(0, 1), {Int, Int});
                    out(N, C) :- q(N), hb(C, N, _);");
    for c in 0..rows {
        r.insert("hb", row(vec![Value::Int(c), Value::Int(7), Value::Int(0)]))
            .unwrap();
    }
    r.tick(0).unwrap();
    r.insert("hb", row(vec![Value::Int(1), Value::Int(7), Value::Int(2)]))
        .unwrap();
    r.tick(1).unwrap();
    let before = r.eval_stats().index_entries_touched;
    for i in 0..128 {
        let c = i * (rows / 128);
        r.insert("hb", row(vec![Value::Int(c), Value::Int(7), Value::Int(1)]))
            .unwrap();
    }
    r.tick(2).unwrap();
    assert_eq!(r.rows("hb").len(), rows as usize);
    r.eval_stats().index_entries_touched - before
}

#[test]
fn index_maintenance_costs_the_delta_not_the_bucket() {
    let small = index_work_for_128_overwrites(1_000);
    let large = index_work_for_128_overwrites(10_000);
    assert!(small > 0, "overwrites are counted");
    assert_eq!(small, large, "cost must not grow with the bucket");
    let indexes = 2;
    assert!(
        small <= 4 * 128 * indexes,
        "{small} entries for 128 overwrites over {indexes} indexes"
    );
}

/// Aggregate fold semantics, pinned with hand-written rows: `min` and
/// `max` skip `null` inputs (and a group of only nulls stays `null`), `min` and
/// `max` order `Int` and `Float` together numerically, `set<>` emits in
/// `BTreeSet` order, `count<*>` counts rows, `sum` stays an `Int` until a
/// `Float` arrives, `avg` over an empty body derives nothing, and groups
/// are emitted sorted by key.
#[test]
fn aggregate_folds_match_hand_computed_rows() {
    let mut r = rt("define(obs, keys(0), {Int, Int, Value});
                    define(num, keys(0), {Int, Int, Value});
                    define(empty, keys(0), {Int});
                    define(lo, keys(0), {Int, Value});
                    define(hi, keys(0), {Int, Value});
                    define(n, keys(0), {Int, Int});
                    define(bag, keys(0), {Int, Value});
                    define(total, keys(0), {Int, Value});
                    define(mean, keys(0), {Int, Value});
                    define(none, keys(), {Value});
                    lo(G, min<V>) :- obs(_, G, V);
                    hi(G, max<V>) :- obs(_, G, V);
                    n(G, count<*>) :- obs(_, G, _);
                    bag(G, set<V>) :- obs(_, G, V);
                    total(G, sum<V>) :- num(_, G, V);
                    mean(G, avg<V>) :- num(_, G, V);
                    none(avg<V>) :- empty(V);
                    watch(n);");
    let obs = [
        (4, Value::Null),
        (4, Value::Int(7)),
        (2, Value::Null),
        (3, Value::Int(3)),
        (3, Value::Float(2.5)),
        (3, Value::Int(4)),
        (1, Value::str("c")),
        (1, Value::str("a")),
        (1, Value::str("b")),
        (1, Value::str("a")),
    ];
    for (k, (g, v)) in obs.into_iter().enumerate() {
        r.insert("obs", row(vec![Value::Int(k as i64), Value::Int(g), v]))
            .unwrap();
    }
    let num = [
        (1, Value::Int(1)),
        (1, Value::Int(2)),
        (2, Value::Int(1)),
        (2, Value::Float(2.5)),
    ];
    for (k, (g, v)) in num.into_iter().enumerate() {
        r.insert("num", row(vec![Value::Int(k as i64), Value::Int(g), v]))
            .unwrap();
    }
    r.tick(0).unwrap();
    let pairs = |t: &str| -> Vec<(i64, Value)> {
        r.table(t)
            .unwrap()
            .sorted_rows()
            .iter()
            .map(|row| (row[0].as_int().unwrap(), row[1].clone()))
            .collect()
    };
    let s = Value::str;
    assert_eq!(
        pairs("hi")[..3],
        [(1, s("c")), (2, Value::Null), (3, Value::Int(4))]
    );
    assert_eq!(pairs("hi")[3], (4, Value::Int(7)), "null never wins max");
    assert_eq!(
        pairs("lo")[..3],
        [(1, s("a")), (2, Value::Null), (3, Value::Float(2.5))]
    );
    let n: Vec<(i64, Value)> = (1..=4).zip([4, 1, 3, 2].map(Value::Int)).collect();
    assert_eq!(pairs("n"), n);
    assert_eq!(
        pairs("bag"),
        vec![
            (1, Value::list(vec![s("a"), s("b"), s("c")])),
            (2, Value::list(vec![Value::Null])),
            (
                3,
                Value::list(vec![Value::Float(2.5), Value::Int(3), Value::Int(4)])
            ),
            (4, Value::list(vec![Value::Null, Value::Int(7)])),
        ]
    );
    assert_eq!(
        pairs("total"),
        vec![(1, Value::Int(3)), (2, Value::Float(3.5))]
    );
    assert_eq!(
        pairs("mean"),
        vec![(1, Value::Float(1.5)), (2, Value::Float(1.75))]
    );
    assert_eq!(r.count("none"), 0, "avg over an empty body derives no row");
    // Groups are dispatched in key order, whatever the scan order.
    let emitted: Vec<i64> = r
        .take_trace()
        .iter()
        .filter(|e| e.op == TraceOp::Insert)
        .map(|e| e.row[0].as_int().unwrap())
        .collect();
    assert_eq!(emitted, vec![1, 2, 3, 4]);
}

/// `min` and `max` skip `null` inputs whatever order the group's rows
/// arrive (and are scanned) in: 20 groups each holding {null, 4, 2},
/// inserted in every permutation, all fold to min 2 and max 4 in both
/// the engine and the oracle.
#[test]
fn min_max_skip_nulls_in_any_order() {
    const SRC: &str = "define(obs, keys(0), {Int, Int, Value});
         define(lo, keys(0), {Int, Value});
         define(hi, keys(0), {Int, Value});
         lo(G, min<V>) :- obs(_, G, V);
         hi(G, max<V>) :- obs(_, G, V);";
    let perms = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let vals = [Value::Null, Value::Int(4), Value::Int(2)];
    let (mut r, mut o) = (rt(SRC), oracle::Oracle::new(SRC));
    for g in 0..20usize {
        for (i, &v) in perms[g % perms.len()].iter().enumerate() {
            let k = Value::Int((3 * g + i) as i64);
            let obs = row(vec![k, Value::Int(g as i64), vals[v].clone()]);
            r.insert("obs", obs.clone()).unwrap();
            o.insert("obs", obs);
        }
    }
    r.tick(0).unwrap();
    o.tick();
    let dump = o.dump();
    for (t, v) in [("lo", 2), ("hi", 4)] {
        let want: Vec<String> = (0..20)
            .map(|g| format!("{t}{:?}", row(vec![Value::Int(g), Value::Int(v)])))
            .collect();
        let engine: Vec<String> = r
            .table(t)
            .unwrap()
            .sorted_rows()
            .iter()
            .map(|x| format!("{t}{x:?}"))
            .collect();
        assert_eq!(engine, want, "engine {t}");
        let oracle: Vec<&str> = dump.lines().filter(|l| l.starts_with(t)).collect();
        assert_eq!(oracle, want, "oracle {t}");
    }
}

/// A group that empties at stratum entry keeps its stale row until the end
/// of the tick: moving `t`'s only row of group 1 to group 2 (a key
/// overwrite, applied before the fixpoint) folds group 1 empty at stratum
/// entry, which emits nothing for it. A later-stratum rule reading `cnt`
/// in the same tick still sees `cnt(1, 1)`; the end-of-tick pass deletes
/// it. The engine and the oracle agree, and the end-of-tick pass folds no
/// group: the only source change came before stratum entry.
#[test]
fn emptied_group_stays_visible_until_the_end_of_its_tick() {
    const SRC: &str = "define(t, keys(1), {Int, Int});
         define(cnt, keys(0), {Int, Int});
         define(saw, keys(0, 1), {Int, Int});
         event probe, {Int};
         cnt(G, count<X>) :- t(G, X);
         saw(G, N) :- probe(_), cnt(G, N);";
    let (mut r, mut o) = (rt(SRC), oracle::Oracle::new(SRC));
    let t = |g: i64| row(vec![Value::Int(g), Value::Int(5)]);
    r.insert("t", t(1)).unwrap();
    o.insert("t", t(1));
    r.tick(0).unwrap();
    o.tick();
    assert_eq!(ints(&r, "cnt"), vec![vec![1, 1]]);
    let before = r.eval_stats();
    for (table, row) in [("t", t(2)), ("probe", row(vec![Value::Int(0)]))] {
        r.insert(table, row.clone()).unwrap();
        o.insert(table, row);
    }
    r.tick(1).unwrap();
    o.tick();
    assert_eq!(
        ints(&r, "cnt"),
        vec![vec![2, 1]],
        "stale group gone after the tick"
    );
    let after = r.eval_stats();
    assert_eq!(after.agg_folds_entry - before.agg_folds_entry, 2);
    assert_eq!(after.agg_folds_maint - before.agg_folds_maint, 0);
    r.tick(2).unwrap();
    o.tick();
    let mut saw = ints(&r, "saw");
    saw.sort();
    assert_eq!(
        saw,
        vec![vec![1, 1], vec![2, 1]],
        "the stale row was read in its tick"
    );
    let engine: Vec<String> = ["cnt", "saw", "t"]
        .iter()
        .flat_map(|t| {
            r.table(t)
                .unwrap()
                .sorted_rows()
                .into_iter()
                .map(move |x| format!("{t}{x:?}"))
        })
        .collect();
    let dump = o.dump();
    let oracle: Vec<&str> = dump
        .lines()
        .filter(|l| {
            ["cnt", "saw", "t"]
                .iter()
                .any(|t| l.starts_with(&format!("{t}[")))
        })
        .collect();
    assert_eq!(engine, oracle);
}

/// An aggregate whose source grows before stratum entry and shrinks after
/// it, through a deferred `delete` rule, in one tick: the stratum-entry
/// fold sees the grown group and the end-of-tick pass folds it again, to
/// the value without the deleted row. Each group is folded once at entry
/// and once at the end of the tick.
#[test]
fn aggregate_refolds_after_a_deferred_delete_in_its_tick() {
    let mut r = rt("event del, {Int, Int};
                    define(t, keys(0, 1), {Int, Int});
                    define(total, keys(0), {Int, Int});
                    delete t(G, X) :- del(G, X), t(G, X);
                    total(G, sum<X>) :- t(G, X);");
    for x in [5, 7] {
        r.insert("t", row(vec![Value::Int(1), Value::Int(x)]))
            .unwrap();
    }
    r.tick(0).unwrap();
    assert_eq!(ints(&r, "total"), vec![vec![1, 12]]);
    let before = r.eval_stats();
    r.insert("t", row(vec![Value::Int(1), Value::Int(9)]))
        .unwrap();
    r.insert("del", row(vec![Value::Int(1), Value::Int(5)]))
        .unwrap();
    r.tick(1).unwrap();
    assert_eq!(ints(&r, "total"), vec![vec![1, 16]]);
    let after = r.eval_stats();
    assert_eq!(after.agg_folds_entry - before.agg_folds_entry, 1);
    assert_eq!(after.agg_folds_maint - before.agg_folds_maint, 1);
    assert_eq!(after.agg_folds_rebuild, 0);
}

/// A runtime over `src` with maintenance on or off.
fn rt_with(src: &str, maintenance: bool) -> OverlogRuntime {
    let mut r = rt(src);
    r.set_plan_options(PlanOptions {
        maintenance,
        ..Default::default()
    });
    r
}

/// Every materialized table but `me`, rows sorted, one `table[row]` per
/// line: the format of [`oracle::Oracle::dump`].
fn dump(r: &OverlogRuntime) -> String {
    let mut tables: Vec<String> = r.table_decls().map(|d| d.name.clone()).collect();
    tables.sort();
    let mut s = String::new();
    for t in tables {
        let table = r.table(&t).expect("declared");
        if table.is_event() || t == "me" {
            continue;
        }
        for row in table.sorted_rows() {
            s.push_str(&format!("{t}{row:?}\n"));
        }
    }
    s
}

/// Rows the maintainer adds before the fixpoint seed it: host-deleting
/// `c(1)` brings `v(1)` back before the fixpoint, and the event rule over
/// `v` fires for it, with maintenance on (the maintainer re-derives the
/// key) and off (the view is rebuilt). A remote rule over `v` ships it.
#[test]
fn rows_a_view_regains_before_the_fixpoint_fire_its_event_rules() {
    const SRC: &str = "define(b, keys(0), {Int});
         define(c, keys(0), {Int});
         define(v, keys(0), {Int});
         define(seen, keys(0), {Int});
         event alert, {Int};
         v(X) :- b(X), notin c(X);
         alert(X) :- v(X);
         seen(X) :- alert(X);";
    let int = |x: i64| row(vec![Value::Int(x)]);
    for maintenance in [false, true] {
        let (mut r, mut o) = (rt_with(SRC, maintenance), oracle::Oracle::new(SRC));
        for (t, x) in [("b", 1), ("b", 2), ("c", 1)] {
            r.insert(t, int(x)).unwrap();
            o.insert(t, int(x));
        }
        // The oracle re-fires `alert` every tick, so it never quiesces:
        // tick both a fixed number of times.
        for now in 0..2 {
            r.tick(now).unwrap();
            o.tick();
        }
        assert_eq!(ints(&r, "seen"), vec![vec![2]]);
        r.delete("c", int(1)).unwrap();
        o.delete("c", int(1));
        for now in 2..4 {
            r.tick(now).unwrap();
            o.tick();
        }
        assert_eq!(
            ints(&r, "seen"),
            vec![vec![1], vec![2]],
            "maintenance={maintenance}"
        );
        assert_eq!(dump(&r), o.dump(), "maintenance={maintenance}");

        let mut r = rt_with(
            &format!("{SRC} event out, {{Addr, Int}}; out(@\"n2\", X) :- v(X);"),
            maintenance,
        );
        for (t, x) in [("b", 1), ("b", 2), ("c", 1)] {
            r.insert(t, int(x)).unwrap();
        }
        r.settle(0).unwrap();
        r.delete("c", int(1)).unwrap();
        let sends = r.tick(1).unwrap().sends;
        let shipped: Vec<(&str, &str, Row)> = sends
            .iter()
            .map(|s| (&*s.dest, s.table.as_str(), s.row.clone()))
            .collect();
        assert_eq!(
            shipped,
            [("n2", "out", row(vec![Value::str("n2"), Value::Int(1)]))],
            "maintenance={maintenance}"
        );
    }
}

/// A row the queue inserts and then removes in one tick leaves no view row
/// behind: the pass that maintains the views before the fixpoint (run
/// because the queue deleted a view input) already saw the removal, so
/// the fixpoint must not re-derive from the removed row.
#[test]
fn a_row_queued_in_and_out_in_one_tick_leaves_no_view_row() {
    const SRC: &str = "define(b, keys(0), {Int});
         define(v, keys(0), {Int});
         v(X) :- b(X);";
    let int = |x: i64| row(vec![Value::Int(x)]);
    for maintenance in [false, true] {
        let (mut r, mut o) = (rt_with(SRC, maintenance), oracle::Oracle::new(SRC));
        r.insert("b", int(1)).unwrap();
        r.delete("b", int(1)).unwrap();
        o.insert("b", int(1));
        o.delete("b", int(1));
        for now in 0..2 {
            r.tick(now).unwrap();
            o.tick();
            assert_eq!(dump(&r), o.dump(), "maintenance={maintenance}");
        }
        assert_eq!(r.count("v"), 0, "maintenance={maintenance}");
    }
}

/// The same for a key overwrite in the queue: `b(1, 20)` replaces
/// `b(1, 10)` in the tick that also deletes `c(5)`, so the views are
/// maintained before the fixpoint, and the whole-row view `v` must hold
/// only `v(1, 20)`.
#[test]
fn a_row_overwritten_in_the_queue_leaves_no_view_row() {
    const SRC: &str = "define(b, keys(0), {Int, Int});
         define(v, keys(0, 1), {Int, Int});
         define(c, keys(0), {Int});
         define(w, keys(0), {Int});
         v(X, Y) :- b(X, Y);
         w(X) :- c(X);";
    let ints_row = |xs: &[i64]| row(xs.iter().map(|&x| Value::Int(x)));
    for maintenance in [false, true] {
        let (mut r, mut o) = (rt_with(SRC, maintenance), oracle::Oracle::new(SRC));
        r.insert("c", ints_row(&[5])).unwrap();
        o.insert("c", ints_row(&[5]));
        r.tick(0).unwrap();
        o.tick();
        for b in [[1, 10], [1, 20]] {
            r.insert("b", ints_row(&b)).unwrap();
            o.insert("b", ints_row(&b));
        }
        r.delete("c", ints_row(&[5])).unwrap();
        o.delete("c", ints_row(&[5]));
        for now in 1..3 {
            r.tick(now).unwrap();
            o.tick();
            assert_eq!(dump(&r), o.dump(), "maintenance={maintenance}");
        }
        assert_eq!(
            ints(&r, "v"),
            vec![vec![1, 20]],
            "maintenance={maintenance}"
        );
    }
}

/// A runtime with a counting builtin `f(X)` (returns `X`) and the call
/// counter it bumps.
fn counting(src: &str) -> (OverlogRuntime, Arc<std::sync::atomic::AtomicUsize>) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let calls = Arc::new(AtomicUsize::new(0));
    let mut r = OverlogRuntime::new("n1");
    let c = Arc::clone(&calls);
    r.register_builtin("f", move |args| {
        c.fetch_add(1, Ordering::SeqCst);
        Ok(args[0].clone())
    });
    r.load(src).unwrap();
    (r, calls)
}

/// `&&` and `||` never evaluate their right side once the left decides,
/// and stateful builtins run exactly once per assignment and per index
/// probe: the call counts below are exact.
#[test]
fn short_circuit_and_stateful_builtin_call_counts() {
    use std::sync::atomic::Ordering;
    let calls_for = |cond: &str, a: bool| {
        let src = format!(
            "event go, {{Int, Bool}};
             define(hit, keys(0), {{Int}});
             hit(K) :- go(K, A), {cond};"
        );
        let (mut r, calls) = counting(&src);
        r.insert("go", row(vec![Value::Int(1), Value::Bool(a)]))
            .unwrap();
        r.settle(0).unwrap();
        (calls.load(Ordering::SeqCst), r.count("hit"))
    };
    assert_eq!(calls_for("A || f(true)", true), (0, 1));
    assert_eq!(calls_for("A || f(true)", false), (1, 1));
    assert_eq!(calls_for("A && f(true)", true), (1, 1));
    assert_eq!(calls_for("A && f(true)", false), (0, 0));

    let (mut r, calls) = counting(
        "event go, {Int};
         define(slot, keys(0), {Int});
         define(assigned, keys(0), {Int, Int});
         define(probed, keys(0), {Int});
         assigned(K, V) :- go(K), V := f(K) * 10;
         probed(K) :- go(K), slot(f(K));",
    );
    for k in 0..4 {
        r.insert("slot", row(vec![Value::Int(k)])).unwrap();
    }
    r.tick(0).unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), 0);
    // Three events: one assignment call and one probe-key call each
    // (the probe misses for 7, and a miss is an empty bucket, not a scan).
    for k in [1, 3, 7] {
        r.insert("go", row(vec![Value::Int(k)])).unwrap();
    }
    r.settle(1).unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), 6);
    assert_eq!(ints(&r, "probed"), vec![vec![1], vec![3]]);
    assert_eq!(r.count("assigned"), 3);
}

mod kernels {
    use super::*;
    use crate::oracle::Oracle;

    /// A workload exercising every kernel op shape: a typed int-keyed
    /// join (the `i64` index path), a string-keyed join (generic
    /// probe), negation, a filter, nested arithmetic, and a deletion
    /// rule.
    const SRC: &str = "event report, {Int, Int};
         define(node, keys(0), {Int, Str});
         define(cap, keys(0), {Int, Int});
         define(owner, keys(0), {Str, Int});
         define(banned, keys(0), {Int});
         define(load, keys(0), {Int, Int});
         define(over, keys(0), {Int, Int, Int});
         define(who, keys(0), {Int, Int});
         load(N, W) :- report(N, W), notin banned(N);
         over(N, W, S) :- load(N, W), cap(N, C), W > C, S := (W + C) * 2 - N;
         who(N, O) :- load(N, _), node(N, Tag), owner(Tag, O);
         delete load(N, W) :- report(N, W), banned(N);";

    /// One host insert: `(table, row)`.
    type Input = (&'static str, Row);

    /// The seed rows, then one burst of `reports` reports.
    fn inputs(reports: i64) -> (Vec<Input>, Vec<Input>) {
        let mut seed = Vec::new();
        for n in 0..16 {
            let tag = Value::str(format!("t{}", n % 3));
            seed.push(("node", row(vec![Value::Int(n), tag])));
            seed.push(("cap", row(vec![Value::Int(n), Value::Int(40)])));
        }
        for g in 0..3 {
            let owner = vec![Value::str(format!("t{g}")), Value::Int(100 + g)];
            seed.push(("owner", row(owner)));
        }
        seed.push(("banned", row(vec![Value::Int(3)])));
        let burst = (0..reports)
            .map(|i| ("report", row(vec![Value::Int(i % 16), Value::Int(i)])))
            .collect();
        (seed, burst)
    }

    fn drive(opts: PlanOptions, reports: i64) -> (String, u64) {
        let mut r = rt(SRC);
        r.set_plan_options(opts);
        let (seed, burst) = inputs(reports);
        for (t, row) in seed {
            r.insert(t, row).unwrap();
        }
        r.tick(0).unwrap();
        for (t, row) in burst {
            r.insert(t, row).unwrap();
        }
        r.tick(1).unwrap();
        r.settle(1).unwrap();
        let kernel_evals: u64 = r.rule_stats().iter().map(|(_, s)| s.kernel_evals).sum();
        (dump(&r), kernel_evals)
    }

    fn oracle(reports: i64) -> String {
        let mut o = Oracle::new(SRC);
        let (seed, burst) = inputs(reports);
        for (t, row) in seed {
            o.insert(t, row);
        }
        o.tick();
        for (t, row) in burst {
            o.insert(t, row);
        }
        o.settle();
        o.dump()
    }

    #[test]
    fn kernel_path_matches_the_oracle() {
        let (got, evals) = drive(PlanOptions::default(), 64);
        assert_eq!(got, oracle(64), "kernels diverged from the oracle");
        assert!(got.contains("over[") && got.contains("who["), "{got}");
        assert!(evals > 0, "no evaluation was counted");
    }

    #[test]
    fn kernels_compose_with_maintenance() {
        let want = oracle(96);
        for maintenance in [false, true] {
            let opts = PlanOptions {
                maintenance,
                ..Default::default()
            };
            assert_eq!(
                drive(opts, 96).0,
                want,
                "kernels diverged at maintenance={maintenance}"
            );
        }
    }
}
