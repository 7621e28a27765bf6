//! The publication contract: what every committed table change writes to
//! the write-ahead log ([`OverlogRuntime::take_commit_delta`]), the
//! serving taps ([`OverlogRuntime::take_tap_delta`]) and the watch trace
//! ([`OverlogRuntime::take_trace`]), checked record by record.
//!
//! One durable, tapped, watched base table `base` feeds one tapped,
//! watched view `vw`, a `sum` aggregate the maintainer keeps by keyed
//! re-derivation. Its negated input `blocked` binds no group column, so
//! growth of `blocked` forces the fallback rebuild. A watched,
//! non-aggregate view `big` over `vw` falls back with it. The script
//! drives an insert, a key overwrite, a duplicate, a delete, a maintained
//! re-derivation, a fallback rebuild, `clear_table` and
//! `load_snapshot_rows`, and after each step asserts the exact records
//! of all three streams. The rules the records follow:
//!
//! * WAL: durable base tables only; an overwrite logs only the new row.
//! * Taps: an overwrite is a retraction then an insert.
//! * Trace: every change published, an overwrite as an insert; the base
//!   rows `clear_table` and `load_snapshot_rows` remove and install are
//!   not traced.
//! * A view rebuild, aggregate or not, publishes its sorted before/after
//!   diff to the taps and the trace alike: unchanged rows publish
//!   nothing.

use boom_overlog::{CommitOp, OverlogRuntime, Row, TraceOp, Value};

const PROG: &str = "
    define(base, keys(0), {Int, Int, Int});
    define(blocked, keys(0), {Int});
    define(vw, keys(0), {Int, Int});
    define(big, keys(0), {Int});
    watch(base);
    watch(vw);
    watch(big);
    vw(G, sum<V>) :- base(_, G, V), notin blocked(V);
    big(G) :- vw(G, S), S > 20;
";

fn fmt_row(row: &Row) -> String {
    let vals: Vec<String> = row.iter().map(Value::to_string).collect();
    vals.join(",")
}

fn sign(op: CommitOp) -> char {
    match op {
        CommitOp::Insert => '+',
        CommitOp::Delete => '-',
    }
}

/// Every record published since the previous drain, one per line:
/// `wal`, `tap` and `trace` lines in that order, each stream in its own
/// record order.
fn drain(rt: &mut OverlogRuntime) -> Vec<String> {
    let mut out = Vec::new();
    for r in rt.take_commit_delta() {
        out.push(format!(
            "wal {}{}({})",
            sign(r.op),
            r.table,
            fmt_row(&r.row)
        ));
    }
    for r in rt.take_tap_delta() {
        out.push(format!(
            "tap {}{}({}) @{}/{}",
            sign(r.op),
            r.table,
            fmt_row(&r.row),
            r.tick,
            r.time
        ));
    }
    for e in rt.take_trace() {
        let op = match e.op {
            TraceOp::Insert => "insert",
            TraceOp::Delete => "delete",
            TraceOp::Send => "send",
        };
        out.push(format!(
            "trace {op} {}({}) @{}/{}",
            e.table,
            fmt_row(&e.row),
            e.tick,
            e.time
        ));
    }
    out
}

fn ints(vals: &[i64]) -> Row {
    boom_overlog::row(vals.iter().map(|&v| Value::Int(v)))
}

/// Queue host writes, tick once at `time`, and return what was published.
fn step(
    rt: &mut OverlogRuntime,
    time: u64,
    ins: &[(&str, &[i64])],
    del: &[(&str, &[i64])],
) -> Vec<String> {
    for (t, r) in ins {
        rt.insert(t, ints(r)).unwrap();
    }
    for (t, r) in del {
        rt.delete(t, ints(r)).unwrap();
    }
    rt.tick(time).unwrap();
    drain(rt)
}

#[test]
fn every_change_publishes_its_recipe() {
    let mut rt = OverlogRuntime::new("n");
    rt.load(PROG).unwrap();
    rt.set_durable_all();
    assert_eq!(rt.durable_tables(), ["base", "blocked"]);
    assert!(rt.add_tap("base"));
    assert!(rt.add_tap("vw"));
    assert!(rt.plan_options().maintenance);

    // Insert: the base row reaches all three streams, the view row (a
    // delta-path derivation) the tap and the trace.
    let got = step(&mut rt, 10, &[("base", &[1, 7, 10])], &[]);
    assert_eq!(
        got,
        [
            "wal +base(1,7,10)",
            "tap +base(1,7,10) @0/10",
            "tap +vw(7,10) @0/10",
            "trace insert base(1,7,10) @0/10",
            "trace insert vw(7,10) @0/10",
        ]
    );

    // Key overwrite: the WAL logs the new row only, the tap retracts the
    // old row first, the trace records an insert.
    let got = step(&mut rt, 20, &[("base", &[1, 7, 20])], &[]);
    assert_eq!(
        got,
        [
            "wal +base(1,7,20)",
            "tap -base(1,7,10) @1/20",
            "tap +base(1,7,20) @1/20",
            "tap -vw(7,10) @1/20",
            "tap +vw(7,20) @1/20",
            "trace insert base(1,7,20) @1/20",
            "trace insert vw(7,20) @1/20",
        ]
    );

    // Duplicate: nothing changed, nothing published.
    assert!(step(&mut rt, 30, &[("base", &[1, 7, 20])], &[]).is_empty());

    let got = step(&mut rt, 40, &[("base", &[2, 7, 5])], &[]);
    assert_eq!(
        got,
        [
            "wal +base(2,7,5)",
            "tap +base(2,7,5) @3/40",
            "tap -vw(7,20) @3/40",
            "tap +vw(7,25) @3/40",
            "trace insert base(2,7,5) @3/40",
            "trace insert vw(7,25) @3/40",
            "trace insert big(7) @3/40",
        ]
    );

    // Maintained re-derivation: a host delete runs the maintainer before
    // the fixpoint; it overwrites group 7 and creates group 8 in place.
    let before = rt.eval_stats();
    let got = step(
        &mut rt,
        50,
        &[("base", &[3, 8, 1])],
        &[("base", &[2, 7, 5])],
    );
    assert_eq!(
        got,
        [
            "wal +base(3,8,1)",
            "wal -base(2,7,5)",
            "tap +base(3,8,1) @4/50",
            "tap -base(2,7,5) @4/50",
            "tap -vw(7,25) @4/50",
            "tap +vw(7,20) @4/50",
            "tap +vw(8,1) @4/50",
            "trace insert base(3,8,1) @4/50",
            "trace delete base(2,7,5) @4/50",
            "trace insert vw(7,20) @4/50",
            "trace insert vw(8,1) @4/50",
            "trace delete big(7) @4/50",
        ]
    );
    let after = rt.eval_stats();
    assert_eq!(after.maint_rows_rederived - before.maint_rows_rederived, 2);
    assert_eq!(after.view_recomputes, before.view_recomputes);

    // Delete: emptying group 7 makes the maintainer delete its row.
    let before = after;
    let got = step(&mut rt, 60, &[], &[("base", &[1, 7, 20])]);
    assert_eq!(
        got,
        [
            "wal -base(1,7,20)",
            "tap -base(1,7,20) @5/60",
            "tap -vw(7,20) @5/60",
            "trace delete base(1,7,20) @5/60",
            "trace delete vw(7,20) @5/60",
        ]
    );
    let after = rt.eval_stats();
    assert_eq!(after.maint_rows_retracted - before.maint_rows_retracted, 1);
    assert_eq!(after.view_recomputes, before.view_recomputes);

    let got = step(
        &mut rt,
        70,
        &[("base", &[1, 7, 20]), ("base", &[2, 7, 5])],
        &[],
    );
    assert_eq!(
        got,
        [
            "wal +base(1,7,20)",
            "wal +base(2,7,5)",
            "tap +base(1,7,20) @6/70",
            "tap +base(2,7,5) @6/70",
            "tap +vw(7,25) @6/70",
            "trace insert base(1,7,20) @6/70",
            "trace insert base(2,7,5) @6/70",
            "trace insert vw(7,25) @6/70",
            "trace insert big(7) @6/70",
        ]
    );

    // Fallback rebuild: `blocked` cannot name a group, so the view is
    // rebuilt, and `big` with it. Both publish their sorted before/after
    // diff: nothing for the unchanged `vw(8,1)`.
    let before = rt.eval_stats();
    let got = step(&mut rt, 80, &[("blocked", &[5])], &[]);
    assert_eq!(
        got,
        [
            "wal +blocked(5)",
            "tap +vw(7,20) @7/80",
            "tap -vw(7,25) @7/80",
            "trace insert vw(7,20) @7/80",
            "trace delete vw(7,25) @7/80",
            "trace delete big(7) @7/80",
        ]
    );
    assert_eq!(rt.eval_stats().view_recomputes - before.view_recomputes, 1);

    // `clear_table` logs and taps every removed row (in storage order),
    // records no trace for them, and rebuilds the view, which publishes
    // its diff.
    assert_eq!(rt.clear_table("base").unwrap(), 3);
    assert_eq!(
        drain(&mut rt),
        [
            "wal -base(1,7,20)",
            "wal -base(3,8,1)",
            "wal -base(2,7,5)",
            "tap -base(1,7,20) @8/80",
            "tap -base(3,8,1) @8/80",
            "tap -base(2,7,5) @8/80",
            "tap -vw(7,20) @8/80",
            "tap -vw(8,1) @8/80",
            "trace delete vw(7,20) @8/80",
            "trace delete vw(8,1) @8/80",
        ]
    );

    // `load_snapshot_rows` into an empty table: inserts only.
    let shipped = vec![ints(&[4, 9, 2]), ints(&[5, 9, 3])];
    assert_eq!(
        rt.load_snapshot_rows(&[("base".to_string(), shipped)])
            .unwrap(),
        2
    );
    assert_eq!(
        drain(&mut rt),
        [
            "wal +base(4,9,2)",
            "wal +base(5,9,3)",
            "tap +base(4,9,2) @8/80",
            "tap +base(5,9,3) @8/80",
            "tap +vw(9,5) @8/80",
            "trace insert vw(9,5) @8/80",
        ]
    );

    // ... and over existing rows: the clear reaches the WAL and the tap
    // before the installed rows do.
    let shipped = vec![ints(&[4, 9, 6])];
    assert_eq!(
        rt.load_snapshot_rows(&[("base".to_string(), shipped)])
            .unwrap(),
        1
    );
    assert_eq!(
        drain(&mut rt),
        [
            "wal -base(5,9,3)",
            "wal -base(4,9,2)",
            "wal +base(4,9,6)",
            "tap -base(5,9,3) @8/80",
            "tap -base(4,9,2) @8/80",
            "tap +base(4,9,6) @8/80",
            "tap -vw(9,5) @8/80",
            "tap +vw(9,6) @8/80",
            "trace delete vw(9,5) @8/80",
            "trace insert vw(9,6) @8/80",
        ]
    );
}
