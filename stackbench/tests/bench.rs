//! Tests of the benchmark itself: determinism from the seed, the wrapper's
//! transparency, and agreement with `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path stackbench/Cargo.toml`.

use boom_core::ReplicatedFsBuilder;
use boom_fs::cluster::FsClusterBuilder;
use boom_mr::{MrClusterBuilder, MrJob, SpecPolicy};
use boom_simnet::{overlog_state_fingerprint, Sim, SimConfig};
use stackbench::cluster::{fs_stack, mr_stack, replicated_stack, sim_config};
use stackbench::model::{Mix, Namespace, Op, OpGen};
use stackbench::report::{per_layer_names, END_TO_END};
use stackbench::run::{run, Workload};

fn deterministic_counts(w: Workload, steps: u64) -> Vec<(String, f64)> {
    let t = run(w, 7, &[steps], false);
    assert_eq!(t.wrong, 0, "{:?}", t.notes);
    assert_eq!(t.failed, 0, "{:?}", t.notes);
    let mut v: Vec<(String, f64)> = t
        .layers
        .iter()
        .filter(|(k, _)| {
            k.starts_with("simnet.")
                || k.ends_with(".ticks")
                || k.ends_with(".fixpoint_rounds")
                || k.ends_with(".reports_in")
        })
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    v.push(("attempted".into(), t.attempted as f64));
    v.push(("reads".into(), t.reads.len() as f64));
    v.push(("writes".into(), t.writes.len() as f64));
    v.extend(
        t.job_virtual
            .iter()
            .map(|j| ("job_virtual_s".to_string(), *j)),
    );
    v
}

#[test]
fn same_seed_same_counts() {
    for (w, steps) in [
        (Workload::FsMeta, 300),
        (Workload::BlockReport, 40),
        (Workload::PaxosMeta, 120),
        (Workload::WordCount, 1),
    ] {
        let a = deterministic_counts(w, steps);
        assert!(a.iter().any(|(k, v)| k == "simnet.delivered" && *v > 0.0));
        assert_eq!(a, deterministic_counts(w, steps), "{}", w.name());
    }
}

#[test]
fn same_seed_same_ops() {
    let draw = |seed| {
        let dns = vec!["dn0".to_string(), "dn1".to_string()];
        let mut ns = Namespace::new(&dns, 2);
        ns.add_dir("/d0");
        ns.add_dir("/d1");
        ns.add_file("/d0/f0");
        let mut gen = OpGen::new(seed, Mix::METADATA);
        (0..500)
            .map(|_| {
                let op = gen.next(&mut ns);
                ns.apply(&op);
                op
            })
            .collect::<Vec<Op>>()
    };
    assert_eq!(draw(3), draw(3));
    assert_ne!(draw(3), draw(4));
}

/// The scripted FS ops every transparency case replays.
fn fs_script(sim: &mut Sim, fs: &boom_fs::FsClient) {
    fs.mkdir(sim, "/a").unwrap();
    for i in 0..6 {
        fs.create(sim, &format!("/a/f{i}")).unwrap();
    }
    fs.write_file(sim, "/a/data", "some bytes for a chunk")
        .unwrap();
    let (c, _) = fs.new_chunk(sim, "/a/f1").unwrap();
    fs.abandon(sim, "/a/f1", c).unwrap();
    fs.rename(sim, "/a/f2", "/a/g2").unwrap();
    fs.rm(sim, "/a/f3").unwrap();
    assert_eq!(fs.ls(sim, "/a").unwrap().len(), 6);
    sim.run_for(7_000);
}

#[test]
fn wrapper_is_transparent_on_the_fs_stack() {
    let mut wrapped = fs_stack(sim_config(11), 3, None, true);
    let mut bare = fs_stack(sim_config(11), 3, None, false);
    let mut builder = FsClusterBuilder {
        sim: SimConfig {
            seed: 11,
            ..Default::default()
        },
        datanodes: 3,
        ..Default::default()
    }
    .build();
    fs_script(&mut wrapped.sim, &wrapped.fs);
    fs_script(&mut bare.sim, &bare.fs);
    fs_script(&mut builder.sim, &builder.client);
    let fp = overlog_state_fingerprint(&mut wrapped.sim);
    assert!(fp.contains("fqpath"));
    assert_eq!(fp, overlog_state_fingerprint(&mut bare.sim));
    assert_eq!(fp, overlog_state_fingerprint(&mut builder.sim));
    assert_eq!(wrapped.sim.delivered_count(), builder.sim.delivered_count());
    assert!(wrapped.probe.reports_in() > 0);
}

#[test]
fn wrapper_is_transparent_on_the_replicated_stack() {
    let mut wrapped = replicated_stack(5, true);
    let mut bare = replicated_stack(5, false);
    let mut builder = ReplicatedFsBuilder {
        sim: SimConfig {
            seed: 5,
            ..Default::default()
        },
        durable: true,
        ..Default::default()
    }
    .build();
    fs_script(&mut wrapped.sim, &wrapped.fs);
    fs_script(&mut bare.sim, &bare.fs);
    fs_script(&mut builder.sim, &builder.client);
    let fp = overlog_state_fingerprint(&mut wrapped.sim);
    assert_eq!(fp, overlog_state_fingerprint(&mut bare.sim));
    assert_eq!(fp, overlog_state_fingerprint(&mut builder.sim));
}

#[test]
fn wrapper_is_transparent_on_the_mr_stack() {
    let job = |inputs: Vec<String>| MrJob {
        job_type: "wordcount".into(),
        inputs,
        nreduces: 2,
        outdir: "/out".into(),
    };
    let text = boom_mr::synth_text(9, 1_500);
    let mut fps = Vec::new();
    for wrap in [Some(true), Some(false), None] {
        let (mut sim, fs, mut driver) = match wrap {
            Some(w) => {
                let s = mr_stack(3, 8, w);
                (s.sim, s.fs, s.driver.unwrap())
            }
            None => {
                let c = MrClusterBuilder {
                    sim: SimConfig {
                        seed: 3,
                        ..Default::default()
                    },
                    policy: SpecPolicy::Late,
                    locality: true,
                    workers: 8,
                    ..Default::default()
                }
                .build();
                (c.sim, c.fs, c.driver)
            }
        };
        fs.mkdir(&mut sim, "/in").unwrap();
        fs.write_file(&mut sim, "/in/t", &text).unwrap();
        let deadline = sim.now() + 10_000_000;
        let (_, virt) = driver
            .run(&mut sim, &fs, &job(vec!["/in/t".into()]), deadline)
            .unwrap();
        fps.push((
            overlog_state_fingerprint(&mut sim),
            virt,
            sim.delivered_count(),
        ));
    }
    assert_eq!(fps[0], fps[1]);
    assert_eq!(fps[0], fps[2]);
}

/// Names listed in one top-level array of `BENCHMARK.json`.
fn names_in(doc: &str, key: &str) -> Vec<String> {
    let start = doc.find(&format!("\"{key}\"")).expect("key present");
    let section = &doc[start..];
    let end = section.find(']').expect("array closes");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names_in(&doc, "end_to_end"), e2e);
    let layers: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names_in(&doc, "per_layer"), layers);
    let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names_in(&doc, "workloads"), all);
}
