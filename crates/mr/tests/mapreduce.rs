//! End-to-end MapReduce tests: full wordcount and grep jobs across the
//! paper's 2×2 system matrix, speculation policies under stragglers, and
//! correctness of results against a reference implementation.

use boom_fs::cluster::ControlPlane;
use boom_mr::{
    reference_wordcount, synth_text, CostModel, MrClusterBuilder, MrDriver, MrJob, SpecPolicy,
    StragglerConfig,
};

fn wordcount_job(inputs: Vec<String>, nreduces: usize) -> MrJob {
    MrJob {
        job_type: "wordcount".to_string(),
        inputs,
        nreduces,
        outdir: "/out".to_string(),
    }
}

#[test]
fn wordcount_on_full_declarative_stack() {
    let mut c = MrClusterBuilder {
        workers: 4,
        chunk_size: 2048,
        cost: CostModel {
            map_ms_per_kib: 200.0,
            reduce_ms_per_krec: 200.0,
            min_ms: 100,
        },
        ..Default::default()
    }
    .build();
    let inputs = c.load_corpus(7, 2, 2_000).unwrap();
    // Reference counts from the same corpus.
    let mut expect = std::collections::BTreeMap::new();
    for i in 0..2u64 {
        for (w, n) in reference_wordcount(&synth_text(7 + i, 2_000)) {
            *expect.entry(w).or_insert(0) += n;
        }
    }
    let fs = c.fs.clone();
    let mut driver = c.driver.clone();
    let job = wordcount_job(inputs, 3);
    let deadline = c.sim.now() + 600_000;
    let (job_id, took) = driver.run(&mut c.sim, &fs, &job, deadline).unwrap();
    assert!(took > 0);
    let got = MrDriver::collect_output(&mut c.sim, &c.trackers.clone(), job_id);
    assert_eq!(got, expect, "wordcount output must match the reference");
    // Task measurements exist for every task.
    let times = c.task_times();
    let maps = times.iter().filter(|t| t.ty == "map").count();
    let reduces = times.iter().filter(|t| t.ty == "reduce").count();
    assert!(maps >= 2, "expected several map tasks, got {maps}");
    assert_eq!(reduces, 3);
    // Reduces start only after every map ended.
    let last_map_end = times
        .iter()
        .filter(|t| t.ty == "map")
        .map(|t| t.end)
        .max()
        .unwrap();
    let first_reduce_start = times
        .iter()
        .filter(|t| t.ty == "reduce")
        .map(|t| t.start)
        .min()
        .unwrap();
    assert!(first_reduce_start >= last_map_end);
}

#[test]
fn all_four_system_combinations_agree() {
    // The paper's performance matrix: {Hadoop, BOOM-MR} × {HDFS, BOOM-FS}.
    let mut outputs = Vec::new();
    for fs_control in [ControlPlane::Declarative, ControlPlane::Baseline] {
        for mr_control in [ControlPlane::Declarative, ControlPlane::Baseline] {
            let mut c = MrClusterBuilder {
                fs_control,
                mr_control,
                workers: 3,
                chunk_size: 2048,
                cost: CostModel {
                    map_ms_per_kib: 100.0,
                    reduce_ms_per_krec: 100.0,
                    min_ms: 50,
                },
                ..Default::default()
            }
            .build();
            let inputs = c.load_corpus(3, 1, 1_500).unwrap();
            let fs = c.fs.clone();
            let mut driver = c.driver.clone();
            let deadline = c.sim.now() + 600_000;
            let (job_id, _) = driver
                .run(&mut c.sim, &fs, &wordcount_job(inputs, 2), deadline)
                .unwrap_or_else(|e| panic!("{fs_control:?}/{mr_control:?}: {e}"));
            outputs.push(MrDriver::collect_output(
                &mut c.sim,
                &c.trackers.clone(),
                job_id,
            ));
        }
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
    assert_eq!(outputs[0], outputs[3]);
    let total: i64 = outputs[0].values().sum();
    assert_eq!(total, 1_500);
}

#[test]
fn grep_job_finds_matching_lines() {
    let mut c = MrClusterBuilder {
        workers: 3,
        chunk_size: 4096,
        cost: CostModel {
            map_ms_per_kib: 100.0,
            reduce_ms_per_krec: 100.0,
            min_ms: 50,
        },
        ..Default::default()
    }
    .build();
    let inputs = c.load_corpus(11, 1, 1_200).unwrap();
    let fs = c.fs.clone();
    let mut driver = c.driver.clone();
    let job = MrJob {
        job_type: "grep:paxos".to_string(),
        inputs,
        nreduces: 2,
        outdir: "/out".to_string(),
    };
    let deadline = c.sim.now() + 600_000;
    let (job_id, _) = driver.run(&mut c.sim, &fs, &job, deadline).unwrap();
    let got = MrDriver::collect_output(&mut c.sim, &c.trackers.clone(), job_id);
    assert!(!got.is_empty(), "corpus contains 'paxos' lines");
    for line in got.keys() {
        assert!(
            line.contains("paxos"),
            "grep output line without match: {line}"
        );
    }
}

#[test]
fn late_speculation_beats_none_with_stragglers() {
    // The paper's LATE reproduction: with a straggler in the cluster, LATE
    // finishes the job substantially faster than no speculation because
    // the straggler's tasks are re-executed elsewhere.
    fn run(policy: SpecPolicy) -> u64 {
        let mut c = MrClusterBuilder {
            policy,
            workers: 5,
            slots: 2,
            chunk_size: 2048,
            stragglers: StragglerConfig {
                fraction: 0.25,
                slow_factor: 0.08,
            },
            sim: boom_simnet::SimConfig {
                seed: 4,
                ..Default::default()
            },
            cost: CostModel {
                map_ms_per_kib: 400.0,
                reduce_ms_per_krec: 400.0,
                min_ms: 200,
            },
            ..Default::default()
        }
        .build();
        assert!(
            !c.straggler_nodes.is_empty(),
            "seed must produce at least one straggler"
        );
        let inputs = c.load_corpus(5, 2, 3_000).unwrap();
        let fs = c.fs.clone();
        let mut driver = c.driver.clone();
        let deadline = c.sim.now() + 3_000_000;
        let (_, took) = driver
            .run(&mut c.sim, &fs, &wordcount_job(inputs, 2), deadline)
            .unwrap();
        took
    }
    let none = run(SpecPolicy::None);
    let late = run(SpecPolicy::Late);
    assert!(
        late * 2 < none,
        "LATE ({late} ms) should be at least 2x faster than no speculation ({none} ms)"
    );
}

#[test]
fn speculative_copies_are_killed_after_first_completion() {
    let mut c = MrClusterBuilder {
        policy: SpecPolicy::Late,
        workers: 5,
        chunk_size: 2048,
        stragglers: StragglerConfig {
            fraction: 0.25,
            slow_factor: 0.08,
        },
        sim: boom_simnet::SimConfig {
            seed: 4,
            ..Default::default()
        },
        cost: CostModel {
            map_ms_per_kib: 400.0,
            reduce_ms_per_krec: 400.0,
            min_ms: 200,
        },
        ..Default::default()
    }
    .build();
    let inputs = c.load_corpus(5, 2, 3_000).unwrap();
    let fs = c.fs.clone();
    let mut driver = c.driver.clone();
    let deadline = c.sim.now() + 3_000_000;
    driver
        .run(&mut c.sim, &fs, &wordcount_job(inputs, 2), deadline)
        .unwrap();
    let killed: u64 = c
        .trackers
        .clone()
        .iter()
        .map(|tt| {
            c.sim
                .with_actor::<boom_mr::TaskTracker, _>(tt, |t| t.killed)
        })
        .sum();
    assert!(killed > 0, "redundant attempts must be reaped");
}

/// Two same-seed wordcount runs in one process must drive the JobTracker
/// identically, counters included: nothing a TaskTracker sends may depend
/// on per-process hash order (simnet draws each send's latency in send
/// order, so reordered sends reorder delivery).
#[test]
fn same_seed_runs_drive_the_jobtracker_identically() {
    use boom_overlog::{EvalStats, RuleStats};
    use boom_simnet::OverlogActor;
    let run = || -> (EvalStats, Vec<(String, RuleStats)>) {
        let mut c = MrClusterBuilder {
            workers: 3,
            slots: 4,
            chunk_size: 1024,
            ..Default::default()
        }
        .build();
        let inputs = c.load_corpus(3, 3, 1_500).unwrap();
        let fs = c.fs.clone();
        let mut driver = c.driver.clone();
        let deadline = c.sim.now() + 600_000;
        driver
            .run(&mut c.sim, &fs, &wordcount_job(inputs, 2), deadline)
            .unwrap();
        c.sim.with_actor::<OverlogActor, _>("jt", |jt| {
            let rt = jt.runtime_ref();
            let mut rules = rt.rule_stats();
            for (_, s) in &mut rules {
                s.eval_ns = 0; // wall-clock, not a deterministic counter
            }
            (rt.eval_stats(), rules)
        })
    };
    assert_eq!(run(), run(), "JobTracker counters differ between runs");
}
