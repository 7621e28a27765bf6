//! Maintained-vs-recomputed byte identity: incremental view maintenance
//! (`PlanOptions::maintenance`) must leave every table exactly as full
//! recomputation leaves it — graph churn, diamonds with alternative
//! derivations, NameNode namespace churn and delete waves. Unlike
//! `tests/engine_equiv.rs` this suite needs no cargo feature, so it runs
//! in every feature configuration.

mod churn;

/// Maintenance invariance: a runtime whose views span every maintenance
/// strategy — keyed re-derivation (a whole-row-keyed filter, a join keyed
/// entirely off one side, and keyed and global aggregates re-folded by
/// group, two of them over maintained views and one declaring its key
/// with the group columns out of head order), DRed (a recursive
/// reachability view whose rows often have several derivations, so
/// deletions must re-derive), and the recompute fallback (a projection
/// with a computed head key column, which no delta row names) — must
/// produce a byte-identical state fingerprint with incremental
/// maintenance on and off, over arbitrary interleavings of batched
/// inserts, key overwrites, and delete storms. The NameNode
/// namespace-churn legs do the same for `fqpath`/`child`/`ls_dir` (see
/// `tests/churn/`).
mod maint_invariance {
    use boom::overlog::value::row;
    use boom::overlog::{OverlogRuntime, PlanOptions, Value};
    use boom::simnet::{
        overlog_state_fingerprint, set_plan_options_all, OverlogActor, Sim, SimConfig,
    };
    use proptest::prelude::*;

    fn runtime(name: &str) -> OverlogRuntime {
        let mut rt = OverlogRuntime::new(name);
        rt.load(
            "event e, {Int, Int};
             event d, {Int};
             define(base, keys(0,1), {Int, Int});
             define(slot, keys(0), {Int, Int});
             define(small, keys(0), {Int, Int});
             define(kept, keys(0,1), {Int, Int});
             define(doubled, keys(0,1), {Int, Int});
             define(bysum, keys(0), {Int, Int});
             define(joined, keys(0,1), {Int, Int, Int});
             define(dtotal, keys(), {Int});
             define(jcnt, keys(1, 0), {Int, Int, Int});
             define(reach, keys(0,1), {Int, Int});
             small(0, 10); small(1, 11); small(2, 12); small(3, 13);
             base(X, Y) :- e(X, Y);
             slot(X, Y) :- e(X, Y);
             delete base(X, Y) :- d(X), base(X, Y);
             delete slot(X, Y) :- d(X), slot(X, Y);
             kept(X, Y) :- base(X, Y), W := Y % 3, W != 0;
             doubled(X, Y * 2) :- base(X, Y), W := Y % 3, W != 0;
             bysum(X, sum<Y>) :- base(X, Y);
             joined(X, Y, Z) :- base(X, Y), M := X % 4, small(M, Z);
             dtotal(sum<Y>) :- kept(_, Y);
             jcnt(X, Z, count<*>) :- joined(X, _, Z);
             reach(X, Y) :- base(X, Y), X != Y;
             reach(X, Z) :- base(X, Y), X != Y, reach(Y, Z);",
        )
        .expect("program loads");
        rt
    }

    /// Replay `ops` against one node: positive values insert `e(k, v)`
    /// (`slot` makes low keys overwrite), negatives fire the delete rule
    /// for key `k`. Each tranche of consecutive inserts or deletes is one
    /// tick: `base` rows land the tick after their `e` event, so a delete
    /// must come in a later tick than the insert it retracts.
    fn run(maintenance: bool, keyspace: i64, ops: &[(bool, i64, i64)]) -> String {
        let mut sim = Sim::new(SimConfig {
            seed: 9,
            min_latency: 1,
            max_latency: 1,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
        });
        sim.add_node("n0", Box::new(OverlogActor::new(runtime("n0"), 50)));
        set_plan_options_all(
            &mut sim,
            PlanOptions {
                maintenance,
                ..Default::default()
            },
        );
        let k = keyspace.max(1);
        for tranche in ops.chunk_by(|a, b| a.0 == b.0) {
            for &(insert, x, y) in tranche {
                if insert {
                    sim.inject("n0", "e", row(vec![Value::Int(x % k), Value::Int(y)]));
                } else {
                    sim.inject("n0", "d", row(vec![Value::Int(x % k)]));
                }
            }
            sim.run_for(1);
        }
        sim.run_for(3_000);
        overlog_state_fingerprint(&mut sim)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn fingerprints_match_maintained_vs_recomputed(
            keyspace in 1i64..10,
            raw in prop::collection::vec((0u8..10, 0i64..1_000, 0i64..1_000), 8..96),
        ) {
            // ~70% inserts, ~30% delete storms.
            let ops: Vec<(bool, i64, i64)> =
                raw.iter().map(|&(w, x, y)| (w < 7, x, y)).collect();
            let maintained = run(true, keyspace, &ops);
            let recomputed = run(false, keyspace, &ops);
            prop_assert_eq!(maintained, recomputed);
        }
    }

    /// A dense graph: a recursive reachability view (DRed) whose rows
    /// often have several derivations, an aggregate over it, and a keyed
    /// join whose `flag` side is join-bound. A `later` event lands a
    /// `drop` row next tick, together with the edges inserted beside it;
    /// `drop`'s delete rule then removes those edges at the end of the
    /// tick whose stratum entry folded them into `lo`, so `lo` must be
    /// re-folded past its consumption marks. `with_hop` adds a recursive
    /// view anchored on an aggregate, which a view rule overwrites in
    /// place, so it must recompute.
    fn graph_runtime(name: &str, with_hop: bool) -> OverlogRuntime {
        let mut rt = OverlogRuntime::new(name);
        rt.load(
            "event e, {Int, Int};
             event d, {Int};
             event f, {Int};
             event g, {Int};
             event later, {Int};
             define(edge, keys(0,1), {Int, Int});
             define(flag, keys(0), {Int});
             define(reach, keys(0,1), {Int, Int});
             define(fanout, keys(0), {Int, Int});
             define(gated, keys(0,1), {Int, Int});
             define(drop, keys(0), {Int});
             define(lo, keys(0), {Int, Int});
             edge(X, Y) :- e(X, Y);
             delete edge(X, Y) :- d(X), edge(X, Y);
             drop(X) :- later(X);
             delete edge(X, Y) :- drop(X), edge(X, Y);
             delete drop(X) :- drop(X);
             lo(X, min<Y>) :- edge(X, Y);
             flag(M) :- f(M);
             delete flag(M) :- g(M), flag(M);
             reach(X, Y) :- edge(X, Y);
             reach(X, Z) :- edge(X, Y), reach(Y, Z);
             fanout(X, count<Z>) :- reach(X, Z);
             gated(X, Y) :- reach(X, Y), flag(X % 3);",
        )
        .expect("program loads");
        if with_hop {
            rt.load(
                "define(outdeg, keys(0), {Int, Int});
                 define(hop, keys(0,1), {Int, Int});
                 outdeg(X, count<Y>) :- edge(X, Y);
                 hop(X, Y) :- outdeg(X, Y);
                 hop(X, Z) :- outdeg(X, Y), hop(Y, Z);",
            )
            .expect("program loads");
        }
        rt
    }

    /// Replay `ticks` against the graph program, one tick per entry:
    /// `(kind, x, y)` inserts edge `x -> y`, deletes `x`'s out-edges (in
    /// this tick and, through `later`, the next), raises flag `x % 3`, or
    /// lowers it.
    fn run_graph(maintenance: bool, keyspace: i64, ticks: &[Vec<(u8, i64, i64)>]) -> String {
        let mut sim = Sim::new(SimConfig {
            seed: 9,
            min_latency: 1,
            max_latency: 1,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
        });
        sim.add_node(
            "n0",
            Box::new(OverlogActor::new(graph_runtime("n0", true), 50)),
        );
        set_plan_options_all(&mut sim, opts(maintenance));
        let k = keyspace.max(1);
        for tick in ticks {
            for &(kind, x, y) in tick {
                let (x, y) = (Value::Int(x % k), Value::Int(y % k));
                match kind % 6 {
                    0..=2 => sim.inject("n0", "e", row(vec![x, y])),
                    3 => {
                        sim.inject("n0", "d", row(vec![x.clone()]));
                        sim.inject("n0", "later", row(vec![x]));
                    }
                    4 => sim.inject("n0", "f", row(vec![Value::Int(x.as_int().unwrap() % 3)])),
                    _ => sim.inject("n0", "g", row(vec![Value::Int(x.as_int().unwrap() % 3)])),
                }
            }
            sim.run_for(10);
        }
        overlog_state_fingerprint(&mut sim)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn graph_churn_matches_recomputed(
            keyspace in 2i64..9,
            ticks in prop::collection::vec(
                prop::collection::vec((0u8..6, 0i64..100, 0i64..100), 1..6),
                4..24,
            ),
        ) {
            prop_assert_eq!(
                run_graph(true, keyspace, &ticks),
                run_graph(false, keyspace, &ticks)
            );
        }
    }

    /// A diamond: deleting one edge over-deletes paths that the other
    /// branch still supports, so DRed must re-derive them. The host
    /// deletion lands before the tick's fixpoint, the other deletion
    /// after it; both maintenance points must agree with recomputation.
    #[test]
    fn diamond_rederives_surviving_paths() {
        let edge = |a: i64, b: i64| row(vec![Value::Int(a), Value::Int(b)]);
        let mut twins: Vec<OverlogRuntime> = [true, false]
            .iter()
            .map(|&m| {
                let mut rt = graph_runtime("n0", false);
                rt.set_plan_options(opts(m));
                for (a, b) in [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)] {
                    rt.insert("e", edge(a, b)).unwrap();
                }
                rt.insert("f", row(vec![Value::Int(1)])).unwrap();
                rt.settle(1).unwrap();
                rt
            })
            .collect();
        let dump = |rt: &OverlogRuntime, t: &str| rt.table(t).unwrap().sorted_rows();
        let agree = |twins: &[OverlogRuntime]| {
            for t in ["reach", "fanout", "gated"] {
                assert_eq!(dump(&twins[0], t), dump(&twins[1], t), "{t}");
            }
            dump(&twins[0], "reach")
        };
        let before = twins[0].eval_stats();
        for rt in twins.iter_mut() {
            rt.delete("edge", edge(2, 4)).unwrap();
            rt.settle(2).unwrap();
        }
        // 1 -> 4 and 1 -> 5 survive through 3.
        let reach = agree(&twins);
        assert!(reach.contains(&edge(1, 4)) && reach.contains(&edge(1, 5)));
        assert!(!reach.contains(&edge(2, 4)));
        for rt in twins.iter_mut() {
            rt.insert("d", row(vec![Value::Int(3)])).unwrap();
            rt.insert("e", edge(3, 5)).unwrap();
            rt.settle(3).unwrap();
        }
        let reach = agree(&twins);
        assert!(reach.contains(&edge(1, 5)) && !reach.contains(&edge(1, 4)));
        let after = twins[0].eval_stats();
        assert_eq!(after.view_recomputes, before.view_recomputes);
        assert!(after.maint_rows_rederived > before.maint_rows_rederived);
    }

    /// Namespace churn on the NameNode: the recursive `fqpath` view (DRed)
    /// and the join-bound `child` view must land on the bytes full
    /// recomputation produces, responses included.
    #[test]
    fn namespace_churn_matches_recomputed() {
        let script = super::churn::scripted();
        assert_eq!(
            super::churn::run(opts(true), &script),
            super::churn::run(opts(false), &script)
        );
    }

    fn opts(maintenance: bool) -> PlanOptions {
        PlanOptions {
            maintenance,
            ..Default::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn random_namespace_churn_matches_recomputed(
            raw in prop::collection::vec(
                prop::collection::vec((0u8..5, 0u8..12, 0u8..12), 1..4),
                4..16,
            ),
        ) {
            let churn = super::churn::random_batches(&raw);
            prop_assert_eq!(
                super::churn::run(opts(true), &churn),
                super::churn::run(opts(false), &churn)
            );
        }
    }

    /// The worst case for keyed re-derivation and group re-folds: every
    /// insert is eventually retracted, across several waves.
    #[test]
    fn delete_everything_waves_match() {
        let mut ops = Vec::new();
        for wave in 0..4i64 {
            for i in 0..24i64 {
                ops.push((true, i, wave * 100 + i));
            }
            for i in 0..24i64 {
                ops.push((false, i, 0));
            }
        }
        let maintained = run(true, 6, &ops);
        // The last wave deletes every key, so every view over `base` ends
        // empty: the deletes really ran.
        for view in ["base[", "joined[", "jcnt[", "reach["] {
            assert!(!maintained.contains(view), "{view} {maintained}");
        }
        assert_eq!(maintained, run(false, 6, &ops));
    }

    /// A whole-row-keyed filter view (the MR `task_done` shape) and an
    /// aggregate over it maintain in place: delete waves leave both equal
    /// to recomputation without a single view recompute.
    #[test]
    fn filter_view_maintains_without_recompute() {
        let twins: Vec<OverlogRuntime> = [true, false]
            .iter()
            .map(|&m| {
                let mut rt = OverlogRuntime::new("n0");
                rt.load(
                    "event e, {Int, Int};
                     event d, {Int};
                     define(base, keys(0,1), {Int, Int});
                     define(kept, keys(0,1), {Int, Int});
                     define(ktotal, keys(), {Int});
                     base(X, Y) :- e(X, Y);
                     delete base(X, Y) :- d(X), base(X, Y);
                     kept(X, Y) :- base(X, Y), W := Y % 3, W != 0;
                     ktotal(sum<Y>) :- kept(_, Y);",
                )
                .expect("program loads");
                rt.set_plan_options(opts(m));
                for wave in 0..3i64 {
                    for i in 0..12i64 {
                        rt.insert("e", row(vec![Value::Int(i % 5), Value::Int(wave * 10 + i)]))
                            .unwrap();
                    }
                    rt.settle(2 * wave as u64).unwrap();
                    rt.insert("d", row(vec![Value::Int(wave % 5)])).unwrap();
                    rt.settle(2 * wave as u64 + 1).unwrap();
                }
                rt
            })
            .collect();
        for t in ["kept", "ktotal"] {
            let rows = twins[0].table(t).unwrap().sorted_rows();
            assert!(!rows.is_empty(), "{t} is empty");
            assert_eq!(rows, twins[1].table(t).unwrap().sorted_rows(), "{t}");
        }
        let stats = twins[0].eval_stats();
        assert_eq!(stats.view_recomputes, 0, "{stats:?}");
        assert!(stats.views_maintained > 0, "{stats:?}");
    }
}
