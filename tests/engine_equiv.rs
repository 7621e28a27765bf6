//! Engine byte-identity across evaluation modes: with the `parallel`
//! feature on, every shipped scenario must produce exactly the state the
//! serial engine produces — same virtual schedule, same RNG stream, same
//! fault log, same client-visible outputs, and the same
//! `overlog_state_fingerprint` byte for byte — under the parallel
//! simulator engine ([`Sim::set_parallel`]).
//!
//! Each scenario runs three times — serial, serial again (guards against
//! pre-existing nondeterminism) and parallel — and the full observable
//! state is compared as strings. Property tests then sweep randomized
//! latency/drop/duplicate configs and chaos schedules through a chatty
//! cluster under both simulator engines. Maintained-vs-recomputed view
//! identity lives in `tests/maint_equiv.rs`, which needs no feature.
#![cfg(feature = "parallel")]

use boom::core::FullStackBuilder;
use boom::fs::{ControlPlane, FsClusterBuilder};
use boom::mr::workload::synth_text;
use boom::mr::{MrClusterBuilder, MrDriver, MrJob, SpecPolicy};
use boom::simnet::{overlog_state_fingerprint, ChaosSchedule, Sim, SimConfig};

#[derive(Clone, Copy)]
enum Mode {
    Serial,
    /// Parallel same-instant node evaluation in the simulator.
    Parallel,
}

fn enable(sim: &mut Sim, mode: Mode) {
    match mode {
        Mode::Serial => {}
        Mode::Parallel => {
            assert!(
                sim.set_parallel(true),
                "the `parallel` feature must be compiled in for this suite"
            );
        }
    }
}

fn assert_engine_identical(name: &str, run: impl Fn(Mode) -> String) {
    let s1 = run(Mode::Serial);
    let s2 = run(Mode::Serial);
    assert_eq!(s1, s2, "{name}: serial engine is not even self-stable");
    let p = run(Mode::Parallel);
    assert_eq!(s1, p, "{name}: parallel engine diverged from serial");
}

/// BOOM-FS metadata workload: directories, files, a real chunk write,
/// renames and deletions, fingerprinting every Overlog node at the end.
#[test]
fn fs_scenario_is_engine_independent() {
    assert_engine_identical("fs", |mode| {
        let mut c = FsClusterBuilder {
            control: ControlPlane::Declarative,
            datanodes: 3,
            replication: 2,
            ..Default::default()
        }
        .build();
        enable(&mut c.sim, mode);
        let cl = c.client.clone();
        cl.mkdir(&mut c.sim, "/a").unwrap();
        cl.mkdir(&mut c.sim, "/a/b").unwrap();
        for i in 0..4 {
            cl.create(&mut c.sim, &format!("/a/b/f{i}")).unwrap();
        }
        cl.write_file(&mut c.sim, "/a/data", &synth_text(7, 400))
            .unwrap();
        cl.rename(&mut c.sim, "/a/b/f0", "/a/b/g0").unwrap();
        cl.rm(&mut c.sim, "/a/b/f1").unwrap();
        let mut listing = cl.ls(&mut c.sim, "/a/b").unwrap();
        listing.sort();
        let content = cl.read_file(&mut c.sim, "/a/data").unwrap();
        c.sim.run_for(3_000);
        format!(
            "ls={listing:?}\ncontent_len={}\n{}",
            content.len(),
            overlog_state_fingerprint(&mut c.sim)
        )
    });
}

/// FS delete storm: build a directory tree, retract most of it (files
/// first, then the emptied directories), and rebuild part of it — the
/// heaviest retraction-propagation workload the NameNode program has.
/// Every derived view (fqpath, child, ls_dir, chunk placement) must land
/// on the same bytes whether views are maintained incrementally or the
/// tick path runs parallel.
#[test]
fn fs_delete_storm_is_engine_independent() {
    assert_engine_identical("fs-delete-storm", |mode| {
        let mut c = FsClusterBuilder {
            control: ControlPlane::Declarative,
            datanodes: 3,
            replication: 2,
            ..Default::default()
        }
        .build();
        enable(&mut c.sim, mode);
        let cl = c.client.clone();
        for d in ["/a", "/a/b", "/a/c", "/tmp"] {
            cl.mkdir(&mut c.sim, d).unwrap();
        }
        for dir in ["/a/b", "/a/c", "/tmp"] {
            for i in 0..5 {
                cl.create(&mut c.sim, &format!("{dir}/f{i}")).unwrap();
            }
        }
        cl.write_file(&mut c.sim, "/a/data", &synth_text(3, 600))
            .unwrap();
        // The storm: every file in /tmp and /a/c, then the dirs.
        for i in 0..5 {
            cl.rm(&mut c.sim, &format!("/tmp/f{i}")).unwrap();
            cl.rm(&mut c.sim, &format!("/a/c/f{i}")).unwrap();
        }
        cl.rm(&mut c.sim, "/tmp").unwrap();
        cl.rm(&mut c.sim, "/a/c").unwrap();
        // Overwrite-heavy coda: rename survivors onto fresh names and
        // rebuild a deleted subtree.
        cl.rename(&mut c.sim, "/a/b/f0", "/a/b/z0").unwrap();
        cl.mkdir(&mut c.sim, "/a/c").unwrap();
        cl.create(&mut c.sim, "/a/c/again").unwrap();
        cl.rm(&mut c.sim, "/a/data").unwrap();
        let mut listing = cl.ls(&mut c.sim, "/a/b").unwrap();
        listing.sort();
        c.sim.run_for(3_000);
        format!("ls={listing:?}\n{}", overlog_state_fingerprint(&mut c.sim))
    });
}

/// Multi-decree Paxos churn: every decided slot retracts its own
/// bookkeeping (`vote`, `prop_queue`, `pending_prep`, `inflight` all have
/// delete rules), so a burst of decrees is a retraction storm over the
/// acceptor state the decided log is derived from.
#[test]
fn paxos_decide_churn_is_engine_independent() {
    use boom::paxos::{decided_log, paxos_runtime, propose_row, PaxosGroup};
    use boom::simnet::OverlogActor;
    assert_engine_identical("paxos-churn", |mode| {
        let members = ["px0", "px1", "px2"];
        let group = PaxosGroup::new(&members, 4_000);
        let mut sim = Sim::new(SimConfig::default());
        for name in &group.members {
            let g = group.clone();
            sim.add_node(
                name,
                Box::new(OverlogActor::with_factory(
                    Box::new(move |n| paxos_runtime(n, &g)),
                    20,
                    name,
                )),
            );
        }
        enable(&mut sim, mode);
        for i in 0..12 {
            sim.inject(
                "px0",
                "propose",
                propose_row("client", i, &format!("cmd{i}"), vec![]),
            );
            sim.run_for(150);
        }
        sim.run_for(20_000);
        let log = sim.with_actor::<OverlogActor, _>("px0", |a| decided_log(a.runtime_ref()));
        format!("log={log:?}\n{}", overlog_state_fingerprint(&mut sim))
    });
}

/// BOOM-MR wordcount under every shipped (assignment × speculation)
/// policy combination.
#[test]
fn mr_scenarios_are_engine_independent() {
    for (locality, lname) in [(false, "fifo"), (true, "locality")] {
        for (policy, sname) in [
            (SpecPolicy::None, "none"),
            (SpecPolicy::Naive, "naive"),
            (SpecPolicy::Late, "late"),
        ] {
            assert_engine_identical(&format!("mr-{lname}-{sname}"), move |mode| {
                let mut c = MrClusterBuilder {
                    policy,
                    locality,
                    workers: 3,
                    ..Default::default()
                }
                .build();
                enable(&mut c.sim, mode);
                let inputs = c.load_corpus(11, 2, 800).expect("corpus loads");
                let fs = c.fs.clone();
                let mut driver = c.driver.clone();
                let job = MrJob {
                    job_type: "wordcount".into(),
                    inputs,
                    nreduces: 2,
                    outdir: "/out".into(),
                };
                let deadline = c.sim.now() + 50_000_000;
                let (job_id, job_ms) = driver
                    .run(&mut c.sim, &fs, &job, deadline)
                    .expect("job completes");
                let out = MrDriver::collect_output(&mut c.sim, &c.trackers.clone(), job_id);
                format!(
                    "job_ms={job_ms} out={out:?}\n{}",
                    overlog_state_fingerprint(&mut c.sim)
                )
            });
        }
    }
}

/// The full replicated stack — MapReduce over the Paxos-replicated
/// NameNode — under a chaos schedule (DataNode flap mid-write plus a
/// NameNode replica partition), across three seeds. Fault logs, job
/// output, and every node's fingerprint must match byte for byte.
#[test]
fn chaotic_full_stack_is_engine_independent() {
    for seed in [1u64, 7, 23] {
        assert_engine_identical(&format!("full-stack-chaos-seed{seed}"), move |mode| {
            let mut s = FullStackBuilder {
                sim: SimConfig {
                    seed,
                    ..Default::default()
                },
                workers: 3,
                ..Default::default()
            }
            .build();
            enable(&mut s.sim, mode);
            s.fs.mkdir(&mut s.sim, "/input").unwrap();
            let schedule = ChaosSchedule::new("equiv")
                .flap("dn1", 200, 40_000)
                .partition(
                    &["nn2"],
                    &["nn0", "nn1", "dn0", "dn1", "dn2", "client0"],
                    300,
                    12_000,
                );
            s.sim.install_chaos(&schedule);
            for i in 0..2u64 {
                let text = synth_text(50 + i, 800);
                s.fs.write_file(&mut s.sim, &format!("/input/part{i}"), &text)
                    .unwrap();
            }
            let job = MrJob {
                job_type: "wordcount".to_string(),
                inputs: vec!["/input/part0".into(), "/input/part1".into()],
                nreduces: 2,
                outdir: "/out".to_string(),
            };
            let fs = s.fs.clone();
            let deadline = s.sim.now() + 3_600_000;
            let (job_id, job_ms) = s
                .driver
                .run_robust(&mut s.sim, &fs, &job, deadline)
                .expect("job completes under chaos");
            let out = MrDriver::collect_output(&mut s.sim, &s.trackers.clone(), job_id);
            s.sim.run_for(60_000);
            let faults: Vec<String> = s
                .sim
                .fault_log()
                .iter()
                .map(|f| format!("{}:{}", f.at, f.action))
                .collect();
            format!(
                "job_ms={job_ms} out={out:?}\nfaults={faults:?}\n{}",
                overlog_state_fingerprint(&mut s.sim)
            )
        });
    }
}

/// Randomized schedules: chatty imperative actors under random latency
/// spreads, loss/duplication probabilities, and crash/partition/dup-burst
/// chaos. The two engines must agree on the complete delivery record.
mod random_schedules {
    use super::{enable, Mode};
    use boom::overlog::value::row;
    use boom::overlog::{NetTuple, Value};
    use boom::simnet::{Actor, ChaosSchedule, Ctx, Sim, SimConfig};
    use proptest::prelude::*;
    use std::any::Any;

    struct Counter {
        got: Vec<(u64, String)>,
    }
    impl Actor for Counter {
        fn on_tuple(&mut self, ctx: &mut Ctx<'_>, tuple: NetTuple) {
            self.got.push((ctx.now(), format!("{:?}", tuple.row)));
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct Pinger {
        target: String,
        period: u64,
    }
    impl Actor for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_tuple(&mut self, _ctx: &mut Ctx<'_>, _tuple: NetTuple) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            let target = self.target.clone();
            let t = ctx.now() as i64;
            ctx.send(&target, "ping", row(vec![Value::Int(t)]));
            ctx.set_timer(self.period, 0);
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// One random scenario, run under the requested engine. Returns every
    /// observable: counters, per-sink delivery records, and fault log.
    fn run(
        parallel: bool,
        seed: u64,
        max_latency: u64,
        drop_pct: u64,
        dup_pct: u64,
        pingers: usize,
        chaos: &[(u64, u64, u64)],
    ) -> String {
        let mut sim = Sim::new(SimConfig {
            seed,
            min_latency: 1,
            max_latency: max_latency.max(1),
            drop_prob: drop_pct as f64 / 100.0,
            duplicate_prob: dup_pct as f64 / 100.0,
        });
        enable(
            &mut sim,
            if parallel {
                Mode::Parallel
            } else {
                Mode::Serial
            },
        );
        for i in 0..pingers {
            let name = format!("p{i}");
            sim.add_node(
                &name,
                Box::new(Pinger {
                    target: format!("c{}", i % 2),
                    period: 10 + (i as u64 % 3),
                }),
            );
        }
        sim.add_node("c0", Box::new(Counter { got: Vec::new() }));
        sim.add_node("c1", Box::new(Counter { got: Vec::new() }));
        let mut schedule = ChaosSchedule::new("random");
        for &(kind, at, dur) in chaos {
            let at = at % 2_000;
            let dur = 1 + dur % 1_500;
            schedule = match kind % 3 {
                0 => schedule.flap("c0", at, at + dur),
                1 => schedule.partition(&["p0"], &["c0", "c1"], at, at + dur),
                _ => schedule.dup_burst(at, dur, 0.5),
            };
        }
        sim.install_chaos(&schedule);
        sim.run_until(3_000);
        let mut sinks = String::new();
        for c in ["c0", "c1"] {
            let got = sim.with_actor::<Counter, _>(c, |a| a.got.clone());
            sinks.push_str(&format!("{c}: {got:?}\n"));
        }
        let faults: Vec<String> = sim
            .fault_log()
            .iter()
            .map(|f| format!("{}:{}", f.at, f.action))
            .collect();
        format!(
            "delivered={} dropped={} now={}\nfaults={faults:?}\n{sinks}",
            sim.delivered_count(),
            sim.dropped_count(),
            sim.now()
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_schedules_are_engine_independent(
            seed in 0u64..10_000,
            max_latency in 1u64..60,
            drop_pct in 0u64..30,
            dup_pct in 0u64..20,
            pingers in 1usize..6,
            chaos in prop::collection::vec((0u64..3, 0u64..2_000, 0u64..1_500), 0..4),
        ) {
            let serial = run(false, seed, max_latency, drop_pct, dup_pct, pingers, &chaos);
            let parallel = run(true, seed, max_latency, drop_pct, dup_pct, pingers, &chaos);
            prop_assert_eq!(serial, parallel);
        }
    }
}
