//! Namespace operations maintain the recursive `fqpath` view and its
//! downstream `child`/`ls_dir` views in place: on a 64-directory ×
//! 64-file NameNode, `rm` and `rename` must never fall back to full view
//! recomputation, must touch work proportional to the moved or removed
//! subtree, and must leave every table exactly as a twin that recomputes
//! its views from scratch. The same-tick legs pin the shapes where an
//! input row is added and then removed or overwritten again inside one
//! maintenance window.

use boom::fs::proto::request_row;
use boom::fs::{namenode_runtime, NameNodeConfig};
use boom::overlog::{row, EvalStats, OverlogRuntime, PlanOptions, Row, Value};

const DIRS: usize = 64;
const FILES: usize = 64;
/// The maintained namespace views, tapped in every twin.
const VIEWS: [&str; 3] = ["fqpath", "child", "ls_dir"];

struct Twin {
    rt: OverlogRuntime,
    now: u64,
    req: i64,
}

impl Twin {
    fn new(maintenance: bool) -> Twin {
        Twin::with(maintenance, DIRS, FILES)
    }

    /// A NameNode with `/d0..` holding `/dN/f0..` each, plus `/empty`.
    fn with(maintenance: bool, dirs: usize, files: usize) -> Twin {
        let mut rt = namenode_runtime("nn", &NameNodeConfig::default());
        rt.set_plan_options(PlanOptions {
            maintenance,
            ..Default::default()
        });
        for v in VIEWS {
            assert!(rt.add_tap(v), "{v} is tappable");
        }
        let mut t = Twin { rt, now: 0, req: 0 };
        t.batch("mkdir", (0..dirs).map(|d| vec![format!("/d{d}")]).collect());
        t.batch("mkdir", vec![vec!["/empty".to_string()]]);
        for d in 0..dirs {
            let creates = (0..files).map(|f| vec![format!("/d{d}/f{f}")]).collect();
            t.batch("create", creates);
        }
        t
    }

    /// Queue every request for the same tick, settle, and check that each
    /// one succeeded.
    fn batch(&mut self, cmd: &str, args: Vec<Vec<String>>) {
        let n = args.len();
        let reqs = args.into_iter().map(|a| (cmd, a)).collect();
        let ok = self
            .mixed(reqs)
            .iter()
            .filter(|r| r[2] == Value::Bool(true))
            .count();
        assert_eq!(ok, n, "{cmd}: every request succeeds");
    }

    /// Queue `(command, arguments)` requests for the same tick, settle,
    /// and return the response rows in send order.
    fn mixed(&mut self, reqs: Vec<(&str, Vec<String>)>) -> Vec<Row> {
        for (cmd, a) in reqs {
            self.req += 1;
            let args = a.iter().map(Value::str).collect();
            self.rt
                .insert("request", request_row("client", self.req, cmd, args))
                .expect("request is well-typed");
        }
        self.now += 10;
        let sends = self.rt.settle(self.now).expect("namenode settles");
        sends
            .into_iter()
            .filter(|s| s.table == "response")
            .map(|s| s.row)
            .collect()
    }

    /// Drain the taps, sorted: the rows each view gained and lost.
    fn tap_delta(&mut self) -> Vec<String> {
        sorted_taps(&mut self.rt)
    }

    fn dump(&self) -> Vec<(String, Vec<String>)> {
        let mut names: Vec<String> = self
            .rt
            .table_decls()
            .filter(|d| !self.rt.table(&d.name).expect("declared").is_event())
            .map(|d| d.name.clone())
            .collect();
        names.sort();
        names
            .into_iter()
            .map(|t| {
                let rows = self.rt.table(&t).expect("declared").sorted_rows();
                let rows = rows.iter().map(|r| format!("{r:?}")).collect();
                (t, rows)
            })
            .collect()
    }
}

/// Apply one operation to both twins and check the maintained twin's
/// work bound and state identity.
fn step(maintained: &mut Twin, recomputed: &mut Twin, cmd: &str, args: &[&str], subtree: u64) {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let before: EvalStats = maintained.rt.eval_stats();
    maintained.batch(cmd, vec![args.clone()]);
    recomputed.batch(cmd, vec![args.clone()]);
    let after = maintained.rt.eval_stats();
    assert_eq!(
        after.view_recomputes, before.view_recomputes,
        "{cmd} {args:?} fell back to full view recomputation"
    );
    assert_eq!(after.view_rows_rebuilt, before.view_rows_rebuilt);
    let work = (after.maint_rows_retracted - before.maint_rows_retracted)
        + (after.maint_rows_rederived - before.maint_rows_rederived);
    assert!(
        work <= 4 * (subtree + 1),
        "{cmd} {args:?}: {work} maintained rows for a subtree of {subtree}"
    );
    assert!(work > 0, "{cmd} {args:?}: the maintainer did nothing");
    assert_eq!(
        maintained.dump(),
        recomputed.dump(),
        "{cmd} {args:?}: maintained state diverged from recomputation"
    );
    assert_eq!(
        maintained.tap_delta(),
        recomputed.tap_delta(),
        "{cmd} {args:?}: taps saw more than the rebuild diff"
    );
}

/// Drain a runtime's tap log as sorted `table op row` lines.
fn sorted_taps(rt: &mut OverlogRuntime) -> Vec<String> {
    let mut out: Vec<String> = rt
        .take_tap_delta()
        .iter()
        .map(|t| format!("{} {:?} {:?}", t.table, t.op, t.row))
        .collect();
    out.sort();
    out
}

#[test]
fn namespace_ops_cost_the_subtree_not_the_namespace() {
    let mut m = Twin::new(true);
    let mut r = Twin::new(false);
    assert_eq!(m.dump(), r.dump(), "twins agree after set-up");
    m.tap_delta();
    r.tap_delta();
    assert_eq!(m.rt.count("fqpath"), 1 + DIRS * (FILES + 1) + 1);

    step(&mut m, &mut r, "rm", &["/d0/f0"], 1);
    step(&mut m, &mut r, "rm", &["/empty"], 1);
    step(&mut m, &mut r, "rename", &["/d1/f1", "/d1/g1"], 1);
    step(&mut m, &mut r, "rename", &["/d2", "/e2"], FILES as u64 + 1);
    step(
        &mut m,
        &mut r,
        "rename",
        &["/d3", "/d4/d3"],
        FILES as u64 + 1,
    );
    // The moved subtree resolves under its new parent.
    assert!(m
        .rt
        .rows("fqpath")
        .iter()
        .any(|row| row[0] == Value::str("/d4/d3/f7")));
}

/// Requests that name the same path in one tick. Renaming one file twice
/// overwrites its `file` row twice, and create-then-rm inserts a row that
/// the tick's deferred delete then removes: in both, the delta logs hold
/// added rows that are no longer in the table when maintenance runs.
#[test]
fn same_path_twice_in_one_tick_matches_recomputation() {
    let mut m = Twin::with(true, 6, 4);
    let mut r = Twin::with(false, 6, 4);
    let s = |a: &[&str]| a.iter().map(|x| x.to_string()).collect::<Vec<_>>();
    let schedule: Vec<Vec<(&str, Vec<String>)>> = vec![
        vec![
            ("rename", s(&["/d0/f0", "/d0/b"])),
            ("rename", s(&["/d0/f0", "/d0/c"])),
        ],
        vec![("create", s(&["/d1/n"])), ("rm", s(&["/d1/n"]))],
        vec![
            ("rename", s(&["/d2", "/e2"])),
            ("rename", s(&["/d2", "/e3"])),
        ],
        vec![("rename", s(&["/d3/f0", "/d3/z"])), ("rm", s(&["/d3/f0"]))],
        vec![("create", s(&["/d4/n"]))],
        vec![("rm", s(&["/d4/n"])), ("create", s(&["/d4/n"]))],
        vec![
            ("mkdir", s(&["/d5/sub"])),
            ("rename", s(&["/d5/f1", "/d5/sub/f1"])),
            ("rm", s(&["/d5/f1"])),
        ],
    ];
    for reqs in schedule {
        let what = format!("{reqs:?}");
        assert_eq!(m.mixed(reqs.clone()), r.mixed(reqs), "{what}: responses");
        assert_eq!(m.dump(), r.dump(), "{what}: state");
        assert_eq!(m.tap_delta(), r.tap_delta(), "{what}: taps");
    }
    assert_eq!(m.rt.eval_stats().view_recomputes, 0);
}

/// The same shapes on a recursive reachability view over a keyed
/// successor table: one tick overwrites a node's successor twice, or sets
/// it and also deletes it.
#[test]
fn successor_overwritten_twice_in_one_tick_matches_recomputation() {
    let pair = |a: i64, b: i64| row(vec![Value::Int(a), Value::Int(b)]);
    let mut twins: Vec<OverlogRuntime> = [true, false]
        .iter()
        .map(|&maintenance| {
            let mut rt = OverlogRuntime::new("n0");
            rt.load(
                "event e, {Int, Int};
                 event d, {Int};
                 define(succ, keys(0), {Int, Int});
                 define(reach, keys(0,1), {Int, Int});
                 succ(X, Y) :- e(X, Y);
                 delete succ(X, Y) :- d(X), succ(X, Y);
                 reach(X, Y) :- succ(X, Y);
                 reach(X, Z) :- succ(X, Y), reach(Y, Z);",
            )
            .expect("program loads");
            rt.set_plan_options(PlanOptions {
                maintenance,
                ..Default::default()
            });
            for (a, b) in [(1, 2), (2, 3), (3, 4)] {
                rt.insert("e", pair(a, b)).unwrap();
            }
            rt.settle(1).unwrap();
            rt
        })
        .collect();
    let ticks: [&[(&str, i64, i64)]; 3] = [
        &[("e", 2, 7), ("e", 2, 8)],
        &[("e", 3, 9), ("d", 3, 0)],
        &[("e", 1, 5), ("e", 1, 3), ("d", 2, 0), ("e", 2, 6)],
    ];
    for (i, tick) in ticks.iter().enumerate() {
        for rt in twins.iter_mut() {
            for &(ev, a, b) in tick.iter() {
                let r = if ev == "e" {
                    pair(a, b)
                } else {
                    row(vec![Value::Int(a)])
                };
                rt.insert(ev, r).unwrap();
            }
            rt.settle(2 + i as u64).unwrap();
        }
        for t in ["succ", "reach"] {
            assert_eq!(
                twins[0].table(t).unwrap().sorted_rows(),
                twins[1].table(t).unwrap().sorted_rows(),
                "{t} after {tick:?}"
            );
        }
    }
    assert!(!twins[0].table("reach").unwrap().contains(&pair(2, 7)));
    assert_eq!(twins[0].eval_stats().view_recomputes, 0);
}

/// A diamond: deleting one edge over-deletes paths the other branch still
/// supports, and re-derivation restores them. A tap on the view must see
/// only the rows that are really gone, as it does under recomputation.
#[test]
fn restored_rows_never_reach_a_tap() {
    let edge = |a: i64, b: i64| row(vec![Value::Int(a), Value::Int(b)]);
    let mut twins: Vec<OverlogRuntime> = [true, false]
        .iter()
        .map(|&maintenance| {
            let mut rt = OverlogRuntime::new("n0");
            rt.load(
                "define(edge, keys(0,1), {Int, Int});
                 define(reach, keys(0,1), {Int, Int});
                 reach(X, Y) :- edge(X, Y);
                 reach(X, Z) :- edge(X, Y), reach(Y, Z);",
            )
            .expect("program loads");
            rt.set_plan_options(PlanOptions {
                maintenance,
                ..Default::default()
            });
            assert!(rt.add_tap("reach"));
            for (a, b) in [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)] {
                rt.insert("edge", edge(a, b)).unwrap();
            }
            rt.settle(1).unwrap();
            rt.take_tap_delta();
            rt.delete("edge", edge(2, 4)).unwrap();
            rt.settle(2).unwrap();
            rt
        })
        .collect();
    let stats = twins[0].eval_stats();
    let taps: Vec<Vec<String>> = twins.iter_mut().map(sorted_taps).collect();
    assert_eq!(taps[0], taps[1]);
    assert_eq!(
        taps[0],
        [
            "reach Delete [Int(2), Int(4)]",
            "reach Delete [Int(2), Int(5)]"
        ]
    );
    assert_eq!(stats.view_recomputes, 0);
    assert!(
        stats.maint_rows_rederived > 0,
        "1 -> 4 and 1 -> 5 re-derive"
    );
}
