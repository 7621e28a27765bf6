//! Maintained-vs-recomputed byte identity: the default plan (views
//! maintained incrementally under retractions) must be observationally
//! identical to the `maintenance: false` reference, which rebuilds every
//! affected view from scratch, on every shipped scenario. The oracle in
//! `crates/overlog/tests/oracle` cannot run these programs (they call the
//! stateful `newid()` and send through location specifiers), so the
//! recomputing engine is the reference here. Each scenario runs three
//! times — recomputed, recomputed again (guards against pre-existing
//! nondeterminism), and maintained — and the full materialized state of
//! every Overlog node plus the client-visible outputs are compared as
//! strings.

mod churn;

use boom::core::FullStackBuilder;
use boom::fs::{ControlPlane, FsClusterBuilder};
use boom::mr::workload::synth_text;
use boom::mr::{MrClusterBuilder, MrDriver, MrJob, SpecPolicy};
use boom::overlog::PlanOptions;
use boom::simnet::{overlog_state_fingerprint, set_plan_options_all};

fn baseline() -> PlanOptions {
    PlanOptions {
        maintenance: false,
        ..PlanOptions::default()
    }
}

fn assert_ab_identical(name: &str, run: impl Fn(PlanOptions) -> String) {
    let a1 = run(baseline());
    let a2 = run(baseline());
    assert_eq!(
        a1, a2,
        "{name}: recomputing reference is not even self-stable"
    );
    let b = run(PlanOptions::default());
    assert_eq!(a1, b, "{name}: maintained state diverged from recomputed");
}

/// BOOM-FS metadata workload: directories, files, a real chunk write,
/// renames and deletions (deletions drive the scoped view recompute).
#[test]
fn fs_scenario_is_planner_independent() {
    assert_ab_identical("fs", |opts| {
        let mut c = FsClusterBuilder {
            control: ControlPlane::Declarative,
            datanodes: 3,
            replication: 2,
            ..Default::default()
        }
        .build();
        set_plan_options_all(&mut c.sim, opts);
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

/// NameNode namespace churn: deep directory renames, rename-then-rm,
/// renames back and multi-request ticks — the recursive `fqpath` view is
/// maintained by DRed under the default planner and recomputed under the
/// baseline.
#[test]
fn fs_namespace_churn_is_planner_independent() {
    let script = churn::scripted();
    assert_ab_identical("fs-churn", |opts| churn::run(opts, &script));
}

/// BOOM-MR wordcount under every shipped (assignment × speculation)
/// policy combination.
#[test]
fn mr_scenarios_are_planner_independent() {
    for (locality, lname) in [(false, "fifo"), (true, "locality")] {
        for (policy, sname) in [
            (SpecPolicy::None, "none"),
            (SpecPolicy::Naive, "naive"),
            (SpecPolicy::Late, "late"),
        ] {
            assert_ab_identical(&format!("mr-{lname}-{sname}"), move |opts| {
                let mut c = MrClusterBuilder {
                    policy,
                    locality,
                    workers: 3,
                    ..Default::default()
                }
                .build();
                set_plan_options_all(&mut c.sim, opts);
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

/// The full replicated stack: MapReduce over a Paxos-replicated NameNode
/// (fs + paxos + glue + mr in one simulation).
#[test]
fn full_stack_scenario_is_planner_independent() {
    assert_ab_identical("full-stack", |opts| {
        let mut s = FullStackBuilder {
            workers: 3,
            ..Default::default()
        }
        .build();
        set_plan_options_all(&mut s.sim, opts);
        s.fs.mkdir(&mut s.sim, "/input").unwrap();
        for i in 0..2 {
            let text = synth_text(50 + i, 1_000);
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
        let (job_id, _) = s.driver.run(&mut s.sim, &fs, &job, deadline).unwrap();
        let out = MrDriver::collect_output(&mut s.sim, &s.trackers.clone(), job_id);
        let total: i64 = out.values().sum();
        format!(
            "total={total} out={out:?}\n{}",
            overlog_state_fingerprint(&mut s.sim)
        )
    });
}
