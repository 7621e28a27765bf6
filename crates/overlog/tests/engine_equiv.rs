//! Cross-engine equivalence: the same program and input schedule must
//! materialize byte-identical state under every execution configuration
//! — compiled kernels on or off (`PlanOptions::kernels`, the
//! `BOOM_KERNELS=0` fallback), maintained or recomputed views. The
//! kernel compiler and the maintenance planner are both *cost*
//! decisions; these tests are the randomized gate that none of them ever
//! becomes a *semantics* decision. Also home to the column-grouping
//! property: the typed column layouts the delta gates vectorize over
//! must select exactly the rows `Value` equality selects.

use boom_overlog::table::Column;
use boom_overlog::value::row;
use boom_overlog::{OverlogRuntime, PlanOptions, Value};
use proptest::prelude::*;

/// A program crossing every specialization tier: a typed int join
/// (`over`: `i64` probes), a string-keyed join (`who`: generic `Value`
/// probes), negation, an assignment, and event-driven deletion of both
/// a base table and a derived view.
const SRC: &str = "event report, {Int, Int};
     event ban, {Int};
     event unban, {Int};
     define(banned, keys(0), {Int});
     define(cap, keys(0), {Int, Int});
     define(tag, keys(0), {Int, Str});
     define(owner, keys(0), {Str, Int});
     define(load, keys(0), {Int, Int});
     define(over, keys(0), {Int, Int});
     define(who, keys(0), {Int, Int});
     banned(N) :- ban(N);
     delete banned(N) :- unban(N);
     load(N, W) :- report(N, W), notin banned(N);
     delete load(N, W) :- report(N, W), banned(N);
     over(N, S) :- load(N, W), cap(N, C), W > C, S := W + C;
     who(N, O) :- load(N, _), tag(N, T), owner(T, O);";

/// One input action of a randomized schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    Report(i64, i64),
    Ban(i64),
    Unban(i64),
}

/// Run `schedule` (with a tick boundary after every op whose flag is
/// set) under one configuration and dump the full materialized state,
/// sorted per table.
fn drive(schedule: &[(Op, bool)], opts: PlanOptions) -> String {
    let mut r = OverlogRuntime::new("equiv");
    r.load(SRC).expect("program loads");
    r.set_plan_options(opts);
    for n in 0..8i64 {
        r.insert("cap", row(vec![Value::Int(n), Value::Int(20 + n)]))
            .expect("seed cap");
        r.insert(
            "tag",
            row(vec![Value::Int(n), Value::str(format!("t{}", n % 3))]),
        )
        .expect("seed tag");
    }
    for k in 0..3i64 {
        r.insert(
            "owner",
            row(vec![Value::str(format!("t{k}")), Value::Int(k * 100)]),
        )
        .expect("seed owner");
    }
    let mut now = 0u64;
    r.tick(now).expect("seed tick");
    for &(op, tick_after) in schedule {
        match op {
            Op::Report(n, w) => r.insert("report", row(vec![Value::Int(n), Value::Int(w)])),
            Op::Ban(n) => r.insert("ban", row(vec![Value::Int(n)])),
            Op::Unban(n) => r.insert("unban", row(vec![Value::Int(n)])),
        }
        .expect("schedule op");
        if tick_after {
            now += 1;
            r.settle(now).expect("schedule settles");
        }
    }
    now += 1;
    r.settle(now).expect("final settle");
    let mut tables: Vec<String> = r.table_decls().map(|d| d.name.clone()).collect();
    tables.sort();
    let mut s = String::new();
    for t in tables {
        let table = r.table(&t).expect("declared");
        if table.is_event() {
            continue;
        }
        for row in table.sorted_rows() {
            s.push_str(&format!("{t}{row:?}\n"));
        }
    }
    s
}

/// Assert every configuration agrees with the interpreted serial
/// recompute baseline on this schedule.
fn assert_configs_agree(schedule: &[(Op, bool)]) {
    let reference = drive(
        schedule,
        PlanOptions {
            kernels: false,
            maintenance: false,
            ..PlanOptions::default()
        },
    );
    for kernels in [false, true] {
        for maintenance in [false, true] {
            let got = drive(
                schedule,
                PlanOptions {
                    kernels,
                    maintenance,
                    ..PlanOptions::default()
                },
            );
            prop_assert_eq!(
                &got,
                &reference,
                "kernels={} maintenance={} diverged",
                kernels,
                maintenance
            );
        }
    }
}

/// Map a raw generated tuple onto an [`Op`], with `kind` weighting.
fn op_of(kind: u8, n: i64, w: i64, deletion_heavy: bool) -> Op {
    if deletion_heavy {
        match kind % 4 {
            0 => Op::Report(n, w),
            1 => Op::Ban(n),
            2 => Op::Unban(n),
            // Re-report a possibly-banned node: drives the `delete load`
            // rule and keyed overwrites in the same breath.
            _ => Op::Report(n, w + 30),
        }
    } else {
        match kind % 8 {
            0..=4 => Op::Report(n, w),
            5 => Op::Ban(n),
            6 => Op::Unban(n),
            _ => Op::Report(n % 2, w),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Deletion-heavy schedules: bans, unbans and delete-triggering
    /// re-reports dominate, so retractions ripple through the typed
    /// join, the generic join and the negation under all 8
    /// configurations.
    #[test]
    fn deletion_heavy_configs_agree(
        raw in proptest::collection::vec((0u8..4, 0i64..8, 0i64..50, proptest::bool::ANY), 1..40)
    ) {
        let schedule: Vec<(Op, bool)> = raw
            .into_iter()
            .map(|(k, n, w, t)| (op_of(k, n, w, true), t))
            .collect();
        assert_configs_agree(&schedule);
    }

    /// Chaos schedules: uniform random interleavings of reports, bans
    /// and unbans with random tick boundaries — the unbiased sweep over
    /// burst shapes, overwrite storms and mid-burst deletions.
    #[test]
    fn chaos_schedule_configs_agree(
        raw in proptest::collection::vec((0u8..8, 0i64..8, 0i64..50, proptest::bool::ANY), 1..60)
    ) {
        let schedule: Vec<(Op, bool)> = raw
            .into_iter()
            .map(|(k, n, w, t)| (op_of(k, n, w, false), t))
            .collect();
        assert_configs_agree(&schedule);
    }
}

/// Generate one random `Value` drawing from every scalar layout a
/// column can hold (no NaN floats — row equality must be reflexive).
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        (-1000i32..1000).prop_map(|x| Value::Float(f64::from(x) / 8.0)),
        (0usize..8).prop_map(|i| { Value::str(["", "a", "b", "c", "ab", "bc", "ca", "abc"][i]) }),
        Just(Value::Null),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Grouping a column built from any value mix selects, for every
    /// probe value, exactly the row indices `Value` equality selects,
    /// whichever layout (`Int` dense, `Str` dictionary, `Val` fallback)
    /// it picked. `None` (a float probe on an integer column) defers to
    /// the caller's per-row scan, so it asserts nothing.
    #[test]
    fn column_group_selects_equal_values(
        vals in proptest::collection::vec(value_strategy(), 0..40)
    ) {
        let group = Column::from_values(vals.clone()).group();
        for v in &vals {
            let want: Vec<u32> = (0..vals.len() as u32)
                .filter(|&i| vals[i as usize] == *v)
                .collect();
            if let Some(got) = group.select(v) {
                prop_assert_eq!(got, want.as_slice());
            }
        }
    }
}
