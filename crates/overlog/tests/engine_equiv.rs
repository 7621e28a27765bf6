//! Engine-vs-oracle equivalence: the same program and input schedule
//! must materialize byte-identical state with incremental maintenance
//! on and off and agree with `oracle`, a naive evaluator that recomputes
//! every rule over whole tables each tick and shares no planning or
//! evaluation code with the engine. Maintenance is a *cost* decision;
//! these tests are the randomized gate that it never becomes a
//! *semantics* decision. Also home to
//! the column-grouping property: the value groups the delta gates
//! vectorize over must select exactly the rows `Value` equality selects.

mod oracle;

use boom_overlog::table::ColGroup;
use boom_overlog::value::row;
use boom_overlog::{OverlogRuntime, PlanOptions, Row, Value};
use oracle::Oracle;
use proptest::prelude::*;

/// A program crossing every specialization tier: a typed int join
/// (`over`: `i64` probes), a string-keyed join (`who`: generic `Value`
/// probes), negation, a short-circuit filter, nested arithmetic, a pure
/// builtin call (`label`), a `count`/`min`/`max`/`set` aggregate view
/// (`stats`), and event-driven deletion of both a base table and a
/// derived view. Each keyed head has one deriving rule, so key-overwrite
/// winners are defined by arrival order alone.
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
     define(label, keys(0), {Int, Str});
     define(stats, keys(0), {Int, Int, Int, Int, Value});
     banned(N) :- ban(N);
     delete banned(N) :- unban(N);
     load(N, W) :- report(N, W), notin banned(N);
     delete load(N, W) :- report(N, W), banned(N);
     over(N, S) :- load(N, W), cap(N, C), W > C || N == 0, S := (W - C) * 2 + N % 3;
     who(N, O) :- load(N, _), tag(N, T), owner(T, O);
     label(N, L) :- load(N, W), tag(N, T), L := T ++ \":\" ++ tostr(max2(W, 10));
     stats(G, count<*>, min<W>, max<W>, set<N>) :- load(N, W), G := N % 3;";

/// One input action of a randomized schedule.
#[derive(Debug, Clone, Copy)]
enum Step {
    Report(i64, i64),
    Ban(i64),
    Unban(i64),
    /// Host deletion of a seeded `tag` row (a base-table retraction
    /// applied at tick start).
    Untag(i64),
}

fn tag_row(n: i64) -> Row {
    row(vec![Value::Int(n), Value::str(format!("t{}", n % 3))])
}

/// One host input: `(insert?, table, row)`.
type Input = (bool, &'static str, Row);

/// The seed inputs, then the schedule's inputs split into one batch per
/// tick boundary.
fn inputs(schedule: &[(Step, bool)]) -> (Vec<Input>, Vec<Vec<Input>>) {
    let mut seed = Vec::new();
    for n in 0..8i64 {
        seed.push((true, "cap", row(vec![Value::Int(n), Value::Int(20 + n)])));
        seed.push((true, "tag", tag_row(n)));
    }
    for k in 0..3i64 {
        seed.push((
            true,
            "owner",
            row(vec![Value::str(format!("t{k}")), Value::Int(k * 100)]),
        ));
    }
    let mut batches = vec![Vec::new()];
    for &(op, tick_after) in schedule {
        let input = match op {
            Step::Report(n, w) => (true, "report", row(vec![Value::Int(n), Value::Int(w)])),
            Step::Ban(n) => (true, "ban", row(vec![Value::Int(n)])),
            Step::Unban(n) => (true, "unban", row(vec![Value::Int(n)])),
            Step::Untag(n) => (false, "tag", tag_row(n)),
        };
        batches.last_mut().expect("non-empty").push(input);
        if tick_after {
            batches.push(Vec::new());
        }
    }
    (seed, batches)
}

/// Run `schedule` under one configuration and dump the full
/// materialized state, sorted per table (the runtime's own `me` table
/// is not part of the program and is left out).
fn drive(schedule: &[(Step, bool)], opts: PlanOptions) -> String {
    let mut r = OverlogRuntime::new("equiv");
    r.load(SRC).expect("program loads");
    r.set_plan_options(opts);
    let (seed, batches) = inputs(schedule);
    let apply = |r: &mut OverlogRuntime, batch: &[Input]| {
        for (insert, t, row) in batch {
            if *insert {
                r.insert(t, row.clone())
            } else {
                r.delete(t, row.clone())
            }
            .expect("schedule op");
        }
    };
    apply(&mut r, &seed);
    r.tick(0).expect("seed tick");
    for (now, batch) in batches.iter().enumerate() {
        apply(&mut r, batch);
        r.settle(now as u64 + 1).expect("schedule settles");
    }
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

/// The same schedule through the naive oracle.
fn reference(schedule: &[(Step, bool)]) -> String {
    let mut o = Oracle::new(SRC);
    let (seed, batches) = inputs(schedule);
    let apply = |o: &mut Oracle, batch: &[Input]| {
        for (insert, t, row) in batch {
            if *insert {
                o.insert(t, row.clone());
            } else {
                o.delete(t, row.clone());
            }
        }
    };
    apply(&mut o, &seed);
    o.tick();
    for batch in &batches {
        apply(&mut o, batch);
        o.settle();
    }
    o.dump()
}

/// Assert the maintained and the recomputing engine both agree with the
/// oracle on this schedule.
fn assert_configs_agree(schedule: &[(Step, bool)]) {
    let want = reference(schedule);
    for maintenance in [false, true] {
        let opts = PlanOptions {
            maintenance,
            ..PlanOptions::default()
        };
        let got = drive(schedule, opts);
        prop_assert_eq!(&got, &want, "{:?} diverged from the oracle", opts);
    }
}

#[test]
fn fixed_schedule_derives_every_shape() {
    // Overwrite, ban, unban and untag in turn; the oracle and the engine
    // must agree, and every derived table must be populated.
    let schedule = [
        (Step::Report(1, 50), false),
        (Step::Report(2, 5), false),
        (Step::Report(0, 3), true),
        (Step::Report(1, 60), true),
        (Step::Ban(2), true),
        (Step::Report(2, 70), true),
        (Step::Untag(1), false),
        (Step::Unban(2), true),
        (Step::Report(4, 90), true),
    ];
    let want = reference(&schedule);
    for t in ["over[", "who[", "label[", "stats["] {
        assert!(want.contains(t), "oracle derived no {t}: {want}");
    }
    assert_eq!(drive(&schedule, PlanOptions::default()), want);
    assert_configs_agree(&schedule);
}

/// Map a raw generated tuple onto an [`Step`], with `kind` weighting.
fn op_of(kind: u8, n: i64, w: i64, deletion_heavy: bool) -> Step {
    if deletion_heavy {
        match kind % 5 {
            0 => Step::Report(n, w),
            1 => Step::Ban(n),
            2 => Step::Unban(n),
            3 => Step::Untag(n),
            // Re-report a possibly-banned node: drives the `delete load`
            // rule and keyed overwrites in the same breath.
            _ => Step::Report(n, w + 30),
        }
    } else {
        match kind % 8 {
            0..=4 => Step::Report(n, w),
            5 => Step::Ban(n),
            6 => Step::Unban(n),
            _ => Step::Report(n % 2, w),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Deletion-heavy schedules: bans, unbans, host deletions and
    /// delete-triggering re-reports dominate, so retractions ripple
    /// through the joins, the negation and the aggregate under all 8
    /// configurations.
    #[test]
    fn deletion_heavy_configs_agree(
        raw in proptest::collection::vec((0u8..5, 0i64..8, 0i64..50, proptest::bool::ANY), 1..40)
    ) {
        let schedule: Vec<(Step, bool)> = raw
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
        let schedule: Vec<(Step, bool)> = raw
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

    /// Grouping a column of any value mix selects, for every probe
    /// value, exactly the row indices `Value` equality selects. The
    /// probes are the column's own values plus the float twin of every
    /// int (`Int(2) == Float(2.0)`), so cross-type equality is checked
    /// on int, float and mixed columns alike.
    #[test]
    fn column_group_selects_equal_values(
        vals in proptest::collection::vec(value_strategy(), 0..40)
    ) {
        let rows: Vec<Row> = vals.iter().map(|v| row(vec![v.clone()])).collect();
        let group = ColGroup::from_rows(&rows, 0);
        let twins = vals.iter().filter_map(|v| v.as_int()).map(|i| Value::Float(i as f64));
        for v in vals.iter().cloned().chain(twins) {
            let want: Vec<u32> = (0..vals.len() as u32)
                .filter(|&i| vals[i as usize] == v)
                .collect();
            prop_assert_eq!(group.select(&v), want.as_slice());
        }
    }
}
