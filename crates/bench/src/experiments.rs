//! Experiment implementations E2–E7. Each function is deterministic given
//! its config and is shared by the `src/bin/e*` binaries (paper-scale
//! parameters) and the integration tests (CI-scale parameters).

use boom_core::ReplicatedFsBuilder;
use boom_fs::client::ClientActor;
use boom_fs::cluster::{ControlPlane, FsClusterBuilder};
use boom_fs::proto as fsproto;
use boom_mr::{CostModel, MrClusterBuilder, MrJob, SpecPolicy, StragglerConfig};
use boom_overlog::Value;
use boom_simnet::metrics::Samples;
use boom_simnet::{OverlogActor, SimConfig};

// ---------------------------------------------------------------------------
// E2 / E3: task-completion CDFs across the 2×2 system matrix
// ---------------------------------------------------------------------------

/// Configuration for the wordcount runs behind E2/E3.
#[derive(Debug, Clone)]
pub struct TaskCdfConfig {
    /// Worker count (each worker = DataNode + TaskTracker).
    pub workers: usize,
    /// Input files.
    pub files: usize,
    /// Words per input file.
    pub words_per_file: usize,
    /// Reduce partitions.
    pub nreduces: usize,
    /// Chunk (= map split) size in bytes.
    pub chunk_size: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for TaskCdfConfig {
    fn default() -> Self {
        TaskCdfConfig {
            workers: 10,
            files: 5,
            words_per_file: 6_000,
            nreduces: 6,
            chunk_size: 2048,
            seed: 42,
        }
    }
}

/// One system combination's results.
#[derive(Debug, Clone)]
pub struct TaskCdfResult {
    /// "BOOM-MR + BOOM-FS" etc.
    pub label: String,
    /// Whole-job completion (virtual ms).
    pub job_ms: u64,
    /// CDF of map task durations (ms, cumulative fraction).
    pub map_cdf: Vec<(f64, f64)>,
    /// CDF of reduce task durations.
    pub reduce_cdf: Vec<(f64, f64)>,
}

fn combo_label(fs: ControlPlane, mr: ControlPlane) -> String {
    let fs_name = match fs {
        ControlPlane::Declarative => "BOOM-FS",
        ControlPlane::Baseline => "HDFS'",
    };
    let mr_name = match mr {
        ControlPlane::Declarative => "BOOM-MR",
        ControlPlane::Baseline => "Hadoop'",
    };
    format!("{mr_name} + {fs_name}")
}

/// Run the wordcount workload on one combination and collect task CDFs.
pub fn run_task_cdf_combo(
    cfg: &TaskCdfConfig,
    fs_control: ControlPlane,
    mr_control: ControlPlane,
) -> TaskCdfResult {
    let mut c = MrClusterBuilder {
        fs_control,
        mr_control,
        workers: cfg.workers,
        chunk_size: cfg.chunk_size,
        sim: SimConfig {
            seed: cfg.seed,
            ..Default::default()
        },
        cost: CostModel::default(),
        ..Default::default()
    }
    .build();
    let inputs = c
        .load_corpus(cfg.seed, cfg.files, cfg.words_per_file)
        .expect("corpus loads");
    let fs = c.fs.clone();
    let mut driver = c.driver.clone();
    let job = MrJob {
        job_type: "wordcount".into(),
        inputs,
        nreduces: cfg.nreduces,
        outdir: "/out".into(),
    };
    let deadline = c.sim.now() + 50_000_000;
    let (_, job_ms) = driver
        .run(&mut c.sim, &fs, &job, deadline)
        .expect("job completes");
    let times = c.task_times();
    let mut maps = Samples::new();
    let mut reduces = Samples::new();
    for t in &times {
        if t.ty == "map" {
            maps.record(t.duration() as f64);
        } else {
            reduces.record(t.duration() as f64);
        }
    }
    TaskCdfResult {
        label: combo_label(fs_control, mr_control),
        job_ms,
        map_cdf: maps.cdf_sampled(40),
        reduce_cdf: reduces.cdf_sampled(40),
    }
}

/// E2/E3: all four combinations.
pub fn run_task_cdfs(cfg: &TaskCdfConfig) -> Vec<TaskCdfResult> {
    let mut out = Vec::new();
    for fs in [ControlPlane::Baseline, ControlPlane::Declarative] {
        for mr in [ControlPlane::Baseline, ControlPlane::Declarative] {
            out.push(run_task_cdf_combo(cfg, fs, mr));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// E4: speculation policies under stragglers
// ---------------------------------------------------------------------------

/// Configuration for the straggler/speculation experiment.
#[derive(Debug, Clone)]
pub struct SpeculationConfig {
    /// Worker count.
    pub workers: usize,
    /// Fraction of straggler workers.
    pub straggler_fraction: f64,
    /// Straggler speed factor.
    pub slow_factor: f64,
    /// Input files.
    pub files: usize,
    /// Words per file.
    pub words_per_file: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            workers: 10,
            straggler_fraction: 0.2,
            slow_factor: 0.08,
            files: 5,
            words_per_file: 5_000,
            seed: 99,
        }
    }
}

/// Result for one speculation policy.
#[derive(Debug, Clone)]
pub struct SpeculationResult {
    /// Policy name.
    pub policy: String,
    /// Job completion (ms).
    pub job_ms: u64,
    /// CDF of task durations (winning attempts).
    pub task_cdf: Vec<(f64, f64)>,
    /// Redundant attempts killed.
    pub killed: u64,
}

/// E4: the same straggled cluster under each policy.
pub fn run_speculation(cfg: &SpeculationConfig) -> Vec<SpeculationResult> {
    let mut out = Vec::new();
    for (policy, name) in [
        (SpecPolicy::None, "none"),
        (SpecPolicy::Naive, "naive"),
        (SpecPolicy::Late, "LATE"),
    ] {
        let mut c = MrClusterBuilder {
            policy,
            workers: cfg.workers,
            chunk_size: 2048,
            stragglers: StragglerConfig {
                fraction: cfg.straggler_fraction,
                slow_factor: cfg.slow_factor,
            },
            sim: SimConfig {
                seed: cfg.seed,
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
        let inputs = c
            .load_corpus(cfg.seed, cfg.files, cfg.words_per_file)
            .expect("corpus loads");
        let fs = c.fs.clone();
        let mut driver = c.driver.clone();
        let job = MrJob {
            job_type: "wordcount".into(),
            inputs,
            nreduces: 4,
            outdir: "/out".into(),
        };
        let deadline = c.sim.now() + 100_000_000;
        let (_, job_ms) = driver
            .run(&mut c.sim, &fs, &job, deadline)
            .expect("job completes");
        let mut tasks = Samples::new();
        for t in c.task_times() {
            tasks.record(t.duration() as f64);
        }
        let killed: u64 = c
            .trackers
            .clone()
            .iter()
            .map(|tt| {
                c.sim
                    .with_actor::<boom_mr::TaskTracker, _>(tt, |t| t.killed)
            })
            .sum();
        out.push(SpeculationResult {
            policy: name.to_string(),
            job_ms,
            task_cdf: tasks.cdf_sampled(40),
            killed,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// E5: NameNode failover and metadata latency vs replica count
// ---------------------------------------------------------------------------

/// Result for one replica-group size.
#[derive(Debug, Clone)]
pub struct FailoverResult {
    /// Replica count (1 = unreplicated NameNode).
    pub replicas: usize,
    /// Mean metadata-op latency before the failure (ms).
    pub latency_mean: f64,
    /// p99 metadata-op latency before the failure (ms).
    pub latency_p99: f64,
    /// Unavailability window after killing the primary (ms); `None` when
    /// service never resumed with intact metadata.
    pub failover_ms: Option<u64>,
    /// Did previously-written metadata survive?
    pub metadata_survived: bool,
}

/// E5: metadata latency and failover behavior for 1/3/5-replica groups.
pub fn run_failover(replica_counts: &[usize], ops_before: usize) -> Vec<FailoverResult> {
    let mut out = Vec::new();
    for &n in replica_counts {
        if n == 1 {
            // Unreplicated: the plain declarative NameNode.
            let mut c = FsClusterBuilder {
                control: ControlPlane::Declarative,
                datanodes: 3,
                replication: 2,
                ..Default::default()
            }
            .build();
            let cl = c.client.clone();
            let mut lat = Samples::new();
            cl.mkdir(&mut c.sim, "/bench").expect("mkdir works");
            for i in 0..ops_before {
                let t0 = c.sim.now();
                cl.create(&mut c.sim, &format!("/bench/f{i}"))
                    .expect("create works");
                lat.record((c.sim.now() - t0) as f64);
            }
            let nn = c.namenodes[0].clone();
            c.sim.schedule_crash(&nn, c.sim.now() + 10);
            c.sim.schedule_restart(&nn, c.sim.now() + 1_000);
            c.sim.run_for(5_000);
            let survived = cl.exists(&mut c.sim, "/bench/f0").unwrap_or(false);
            out.push(FailoverResult {
                replicas: 1,
                latency_mean: lat.mean(),
                latency_p99: lat.percentile(99.0),
                failover_ms: None,
                metadata_survived: survived,
            });
            continue;
        }
        let mut c = ReplicatedFsBuilder {
            replicas: n,
            datanodes: 3,
            replication: 2,
            lease_ms: 2_000,
            rpc_timeout: 1_000,
            ..Default::default()
        }
        .build();
        let cl = c.client.clone();
        let mut lat = Samples::new();
        cl.mkdir(&mut c.sim, "/bench").expect("mkdir works");
        for i in 0..ops_before {
            let t0 = c.sim.now();
            cl.create(&mut c.sim, &format!("/bench/f{i}"))
                .expect("create works");
            lat.record((c.sim.now() - t0) as f64);
        }
        let primary = c.namenodes[0].clone();
        let crash_at = c.sim.now() + 10;
        c.sim.schedule_crash(&primary, crash_at);
        c.sim.run_for(50);
        let mut failover_ms = None;
        let mut survived = false;
        let stall_start = c.sim.now();
        for _ in 0..400 {
            match cl.exists(&mut c.sim, "/bench/f0") {
                Ok(true) => {
                    failover_ms = Some(c.sim.now() - stall_start);
                    survived = true;
                    break;
                }
                Ok(false) => break,
                Err(_) => c.sim.run_for(200),
            }
        }
        out.push(FailoverResult {
            replicas: n,
            latency_mean: lat.mean(),
            latency_p99: lat.percentile(99.0),
            failover_ms,
            metadata_survived: survived,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// E6: partitioned-NameNode metadata throughput
// ---------------------------------------------------------------------------

/// Result for one partition count.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// NameNode partitions.
    pub partitions: usize,
    /// Aggregate metadata throughput: ops divided by the busiest
    /// partition's CPU time — partitions are separate machines, so the
    /// slowest one gates aggregate capacity (the virtual network clock
    /// models latency, wall-clock evaluation time models NameNode CPU).
    pub ops_per_sec: f64,
    /// CPU seconds consumed by the busiest partition.
    pub max_busy_secs: f64,
    /// Total ops completed.
    pub ops: usize,
}

/// E6: fire `nops` concurrent `create` requests from `nclients` clients
/// and measure aggregate completion throughput as partitions scale.
pub fn run_partition_scaleout(
    partition_counts: &[usize],
    nclients: usize,
    nops: usize,
) -> Vec<PartitionResult> {
    let mut out = Vec::new();
    for &p in partition_counts {
        let mut c = FsClusterBuilder {
            control: ControlPlane::Declarative,
            partitions: p,
            datanodes: 2,
            replication: 1,
            ..Default::default()
        }
        .build();
        // Extra client actors for concurrency (client0 exists already).
        let clients: Vec<String> = (0..nclients).map(|i| format!("client{i}")).collect();
        for cl in clients.iter().skip(1) {
            c.sim.add_node(cl, Box::new(ClientActor::new()));
        }
        let root_client = c.client.clone();
        // Directories are replicated to every partition.
        root_client.mkdir(&mut c.sim, "/load").expect("mkdir works");

        // Inject all requests up front, round-robin across clients, routed
        // by path hash exactly like the client library.
        let start = c.sim.now();
        for i in 0..nops {
            let path = format!("/load/file{i}");
            let client = clients[i % nclients].clone();
            let nn = c.namenodes[root_client.partition_for(&path)].clone();
            c.sim.inject(
                &nn,
                fsproto::REQUEST,
                fsproto::request_row(&client, i as i64, "create", vec![Value::str(&path)]),
            );
        }
        // Zero the CPU meters right before the storm so setup cost is
        // excluded.
        for nn in c.namenodes.clone() {
            c.sim
                .with_actor::<OverlogActor, _>(&nn, |a| a.busy = std::time::Duration::ZERO);
        }
        // Run until every response arrived.
        let deadline = c.sim.now() + 10_000_000;
        let clients2 = clients.clone();
        let done = c.sim.run_while(deadline, move |s| {
            let total: usize = clients2
                .iter()
                .map(|cl| s.with_actor::<ClientActor, _>(cl, |a| a.response_count()))
                .sum();
            total >= nops
        });
        assert!(done, "partition scaleout run did not finish");
        let _elapsed_virtual = (c.sim.now() - start).max(1);
        let max_busy = c
            .namenodes
            .clone()
            .iter()
            .map(|nn| c.sim.with_actor::<OverlogActor, _>(nn, |a| a.busy))
            .max()
            .unwrap_or_default();
        let max_busy_secs = max_busy.as_secs_f64().max(1e-9);
        out.push(PartitionResult {
            partitions: p,
            ops_per_sec: nops as f64 / max_busy_secs,
            max_busy_secs,
            ops: nops,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// E7: monitoring overhead
// ---------------------------------------------------------------------------

/// How the NameNode is monitored during a measured run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MonitorMode {
    /// No tracing at all — the baseline.
    Off,
    /// `set_trace_all(true)`: every derivation into the trace ring.
    TraceAll,
    /// The `boom-trace` metaprogrammed monitor: generated watch +
    /// row-count rules installed into the running program.
    Meta,
}

/// Result of the tracing-overhead measurement.
#[derive(Debug, Clone)]
pub struct MonitoringResult {
    /// NameNode CPU microseconds per op without tracing.
    pub cpu_us_off: f64,
    /// NameNode CPU microseconds per op with every derivation traced.
    pub cpu_us_on: f64,
    /// NameNode CPU microseconds per op with the generated
    /// metaprogrammed monitor (watches + row-count views) installed.
    pub cpu_us_meta: f64,
    /// Trace records captured during the trace-all run.
    pub trace_events: usize,
    /// Trace records lost to the ring-buffer cap during the trace-all
    /// run (0 unless the cap was exceeded — never silently swallowed).
    pub trace_dropped: u64,
    /// Rule firings during the trace-all run.
    pub rule_firings: u64,
    /// Statements in the generated monitoring program.
    pub monitor_statements: usize,
    /// Deterministic top-5 hot-rules report from the meta run.
    pub hot_rules: String,
}

/// E7: metadata-op latency with the monitoring revision off vs on —
/// both the engine's trace-all switch and the paper-style generated
/// monitoring program.
pub fn run_monitoring(nops: usize) -> MonitoringResult {
    struct ModeRun {
        cpu_us: f64,
        trace_events: usize,
        trace_dropped: u64,
        rule_firings: u64,
        monitor_statements: usize,
        hot_rules: String,
    }
    let run = |mode: MonitorMode| -> ModeRun {
        let mut c = FsClusterBuilder {
            control: ControlPlane::Declarative,
            datanodes: 2,
            replication: 1,
            ..Default::default()
        }
        .build();
        let monitor_statements = match mode {
            MonitorMode::Off => 0,
            MonitorMode::TraceAll => {
                c.sim
                    .with_actor::<OverlogActor, _>("nn0", |nn| nn.runtime().set_trace_all(true));
                0
            }
            MonitorMode::Meta => c.sim.with_actor::<OverlogActor, _>("nn0", |nn| {
                boom_trace::install_monitor(nn.runtime())
                    .expect("generated monitor loads")
                    .statements()
            }),
        };
        let cl = c.client.clone();
        cl.mkdir(&mut c.sim, "/mon").expect("mkdir works");
        c.sim
            .with_actor::<OverlogActor, _>("nn0", |nn| nn.busy = std::time::Duration::ZERO);
        for i in 0..nops {
            cl.create(&mut c.sim, &format!("/mon/f{i}"))
                .expect("create works");
        }
        let (busy, drain, firings, profile) = c.sim.with_actor::<OverlogActor, _>("nn0", |nn| {
            let busy = nn.busy;
            let rt = nn.runtime();
            let drain = rt.drain_trace();
            let fi: u64 = rt.rule_fire_counts().iter().map(|(_, n)| n).sum();
            let profile = boom_trace::collect_rule_profile("nn0", rt);
            (busy, drain, fi, profile)
        });
        ModeRun {
            cpu_us: busy.as_secs_f64() * 1e6 / nops as f64,
            trace_events: drain.events.len(),
            trace_dropped: drain.dropped,
            rule_firings: firings,
            monitor_statements,
            hot_rules: boom_trace::render_hot_rules(&profile, 5, false),
        }
    };
    let off = run(MonitorMode::Off);
    let on = run(MonitorMode::TraceAll);
    let meta = run(MonitorMode::Meta);
    MonitoringResult {
        cpu_us_off: off.cpu_us,
        cpu_us_on: on.cpu_us,
        cpu_us_meta: meta.cpu_us,
        trace_events: on.trace_events,
        trace_dropped: on.trace_dropped,
        rule_firings: on.rule_firings,
        monitor_statements: meta.monitor_statements,
        hot_rules: meta.hot_rules,
    }
}

// ---------------------------------------------------------------------------
// E10: engine hot path — tuples/sec and serial-vs-parallel wall clock
// ---------------------------------------------------------------------------

/// One measured `(workload, engine)` cell of the E10 table.
#[derive(Debug, Clone)]
pub struct EngineBenchCase {
    /// Workload name (`chunk-churn`, `mr-shuffle`, `partitioned-nn-4`).
    pub workload: String,
    /// Engine mode (`serial` or `parallel`).
    pub mode: String,
    /// Head rows produced by rule-body evaluation during the measured
    /// section, summed over every Overlog node — the engine's tuple
    /// throughput denominator (deterministic, identical across engines).
    pub tuples: u64,
    /// Overlog CPU seconds consumed during the measured section.
    pub busy_secs: f64,
    /// Tuples per CPU second — the hot-path figure of merit.
    pub tuples_per_sec: f64,
    /// Host wall-clock milliseconds for the measured section.
    pub wall_ms: f64,
    /// Variant evaluations served by a compiled kernel during the
    /// measured section, summed over every node — the throughput
    /// attribution for the specialized path (per-rule/per-variant
    /// breakdown: `boomtrace profile`'s `kernel` column).
    pub kernel_evals: u64,
    /// Did this run's final state match the serial run byte for byte?
    /// (Trivially true for the serial rows.)
    pub fingerprint_match: bool,
}

/// Everything one engine run of one workload yields.
struct EngineRun {
    tuples: u64,
    busy_secs: f64,
    wall_ms: f64,
    kernel_evals: u64,
    fingerprint: String,
}

/// Sum `(derived tuples, busy seconds, kernel evaluations)` across every
/// Overlog node. The kernel counter attributes how much of the
/// workload's variant evaluation ran through compiled kernels instead
/// of the interpreter (per-rule/per-variant detail is `boomtrace
/// profile`'s `kernel` column).
fn overlog_meters(sim: &mut boom_simnet::Sim) -> (u64, f64, u64) {
    let mut tuples = 0u64;
    let mut busy = 0f64;
    let mut kernel_evals = 0u64;
    for name in sim.node_names() {
        if let Some((t, b, k)) = sim.try_with_actor::<OverlogActor, _>(&name, |a| {
            let stats = a.runtime().rule_stats();
            let t: u64 = stats.iter().map(|(_, s)| s.attempts).sum();
            let k: u64 = stats.iter().map(|(_, s)| s.kernel_evals).sum();
            (t, a.busy.as_secs_f64(), k)
        }) {
            tuples += t;
            busy += b;
            kernel_evals += k;
        }
    }
    (tuples, busy, kernel_evals)
}

fn engine_mode(sim: &mut boom_simnet::Sim, parallel: bool) {
    if parallel {
        assert!(
            sim.set_parallel(true),
            "E10 parallel rows need the `parallel` feature"
        );
    }
}

/// Directories, and files per directory, of the chunk churn's stable
/// namespace.
const CHURN_DIRS: usize = 8;
const CHURN_FILES_PER_DIR: usize = 20;

/// Chunk-allocation churn against a stable namespace — the GFS/HDFS
/// steady state, where the directory tree barely moves while blocks come
/// and go: each op allocates a chunk and then abandons it (a failed
/// pipeline write). A single NameNode's tick hot path, dominated by
/// semi-naive deltas and view maintenance.
fn bench_chunk_churn(parallel: bool, nops: usize) -> EngineRun {
    use boom_simnet::overlog_state_fingerprint;
    let mut c = FsClusterBuilder {
        control: ControlPlane::Declarative,
        datanodes: 2,
        replication: 1,
        ..Default::default()
    }
    .build();
    engine_mode(&mut c.sim, parallel);
    let cl = c.client.clone();
    cl.mkdir(&mut c.sim, "/data").expect("mkdir works");
    for d in 0..CHURN_DIRS {
        cl.mkdir(&mut c.sim, &format!("/data/d{d}")).expect("mkdir");
        for f in 0..CHURN_FILES_PER_DIR {
            cl.create(&mut c.sim, &format!("/data/d{d}/f{f}"))
                .expect("create");
        }
    }
    let (t0, b0, k0) = overlog_meters(&mut c.sim);
    let wall = std::time::Instant::now();
    for i in 0..nops {
        let path = format!("/data/d{}/f{}", i % CHURN_DIRS, i % CHURN_FILES_PER_DIR);
        let (chunk, _) = cl.new_chunk(&mut c.sim, &path).expect("newchunk");
        cl.abandon(&mut c.sim, &path, chunk).expect("abandon");
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let (t1, b1, k1) = overlog_meters(&mut c.sim);
    EngineRun {
        tuples: t1 - t0,
        busy_secs: (b1 - b0).max(1e-9),
        wall_ms,
        kernel_evals: k1 - k0,
        fingerprint: overlog_state_fingerprint(&mut c.sim),
    }
}

/// A full wordcount job — map scheduling, shuffle, and reduce commit all
/// flow through JobTracker/TaskTracker Overlog programs.
fn bench_mr_shuffle(parallel: bool, words_per_file: usize) -> EngineRun {
    use boom_mr::MrDriver;
    use boom_simnet::overlog_state_fingerprint;
    let mut c = MrClusterBuilder {
        policy: SpecPolicy::Late,
        locality: true,
        workers: 4,
        ..Default::default()
    }
    .build();
    engine_mode(&mut c.sim, parallel);
    let inputs = c.load_corpus(11, 2, words_per_file).expect("corpus loads");
    let fs = c.fs.clone();
    let mut driver = c.driver.clone();
    let job = MrJob {
        job_type: "wordcount".into(),
        inputs,
        nreduces: 3,
        outdir: "/out".into(),
    };
    let (t0, b0, k0) = overlog_meters(&mut c.sim);
    let wall = std::time::Instant::now();
    let deadline = c.sim.now() + 50_000_000;
    let (job_id, _) = driver
        .run(&mut c.sim, &fs, &job, deadline)
        .expect("job completes");
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let (t1, b1, k1) = overlog_meters(&mut c.sim);
    let out = MrDriver::collect_output(&mut c.sim, &c.trackers.clone(), job_id);
    EngineRun {
        tuples: t1 - t0,
        busy_secs: (b1 - b0).max(1e-9),
        wall_ms,
        kernel_evals: k1 - k0,
        fingerprint: format!("{out:?}\n{}", overlog_state_fingerprint(&mut c.sim)),
    }
}

/// The E6 scale-out storm on a 4-way partitioned NameNode: many nodes
/// busy at overlapping instants — the workload the parallel engine is
/// for.
fn bench_partitioned_nn(parallel: bool, nclients: usize, nops: usize) -> EngineRun {
    use boom_simnet::overlog_state_fingerprint;
    let mut c = FsClusterBuilder {
        control: ControlPlane::Declarative,
        partitions: 4,
        datanodes: 2,
        replication: 1,
        ..Default::default()
    }
    .build();
    engine_mode(&mut c.sim, parallel);
    let clients: Vec<String> = (0..nclients).map(|i| format!("client{i}")).collect();
    for cl in clients.iter().skip(1) {
        c.sim.add_node(cl, Box::new(ClientActor::new()));
    }
    let root_client = c.client.clone();
    root_client.mkdir(&mut c.sim, "/load").expect("mkdir works");
    for i in 0..nops {
        let path = format!("/load/file{i}");
        let client = clients[i % nclients].clone();
        let nn = c.namenodes[root_client.partition_for(&path)].clone();
        c.sim.inject(
            &nn,
            fsproto::REQUEST,
            fsproto::request_row(&client, i as i64, "create", vec![Value::str(&path)]),
        );
    }
    let (t0, b0, k0) = overlog_meters(&mut c.sim);
    let wall = std::time::Instant::now();
    let deadline = c.sim.now() + 10_000_000;
    let clients2 = clients.clone();
    let done = c.sim.run_while(deadline, move |s| {
        let total: usize = clients2
            .iter()
            .map(|cl| s.with_actor::<ClientActor, _>(cl, |a| a.response_count()))
            .sum();
        total >= nops
    });
    assert!(done, "partitioned-NN storm did not finish");
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let (t1, b1, k1) = overlog_meters(&mut c.sim);
    EngineRun {
        tuples: t1 - t0,
        busy_secs: (b1 - b0).max(1e-9),
        wall_ms,
        kernel_evals: k1 - k0,
        fingerprint: overlog_state_fingerprint(&mut c.sim),
    }
}

/// E10: run the three engine workloads under the serial engine and (when
/// the `parallel` feature is compiled in) the parallel engine. Every
/// parallel row carries a hard byte-identity verdict against its serial
/// twin's full materialized state.
pub fn run_engine_bench(churn_ops: usize, mr_words: usize, nn_ops: usize) -> Vec<EngineBenchCase> {
    let parallel_available = boom_simnet::Sim::new(SimConfig::default()).set_parallel(true);
    type Workload = (&'static str, Box<dyn Fn(bool) -> EngineRun>);
    let workloads: Vec<Workload> = vec![
        (
            "chunk-churn",
            Box::new(move |p| bench_chunk_churn(p, churn_ops)),
        ),
        (
            "mr-shuffle",
            Box::new(move |p| bench_mr_shuffle(p, mr_words)),
        ),
        (
            "partitioned-nn-4",
            Box::new(move |p| bench_partitioned_nn(p, 4, nn_ops)),
        ),
    ];
    let mut out = Vec::new();
    for (name, run) in workloads {
        let serial = run(false);
        let case = |mode: &str, r: &EngineRun, fingerprint_match: bool| EngineBenchCase {
            workload: name.to_string(),
            mode: mode.to_string(),
            tuples: r.tuples,
            busy_secs: r.busy_secs,
            tuples_per_sec: r.tuples as f64 / r.busy_secs,
            wall_ms: r.wall_ms,
            kernel_evals: r.kernel_evals,
            fingerprint_match,
        };
        out.push(case("serial", &serial, true));
        if parallel_available {
            let par = run(true);
            let identical = par.fingerprint == serial.fingerprint;
            out.push(case("parallel", &par, identical));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// E14: incremental view maintenance — maintained vs full recompute under
// heartbeat churn against a large materialized replica table
// ---------------------------------------------------------------------------

/// One measured `(rows, mode)` cell of the E14 table.
#[derive(Debug, Clone)]
pub struct MaintBenchCase {
    /// `hb_chunk` rows materialized on the NameNode before churn begins —
    /// the size of the state the aggregate views (`chunk_locs`,
    /// `chunk_rep`) fold over.
    pub rows: usize,
    /// `maintained` (`PlanOptions::maintenance` on — the default) or
    /// `recompute` (every affected view rebuilt from scratch per tick).
    pub mode: String,
    /// Churn heartbeat re-reports applied during the measured section.
    /// Identical across modes by construction, which is what makes
    /// `tuples_per_sec` comparable: same work delivered, different cost.
    pub tuples: u64,
    /// Overlog CPU seconds consumed during the measured section.
    pub busy_secs: f64,
    /// Churn tuples per CPU second — the E14 figure of merit.
    pub tuples_per_sec: f64,
    /// Host wall-clock milliseconds for the measured section.
    pub wall_ms: f64,
    /// Maintenance passes that updated at least one view in place.
    pub maint_rounds: u64,
    /// Views updated in place across those passes.
    pub views_maintained: u64,
    /// Full view-recomputation passes during the measured section (the
    /// cost the maintained mode avoids; its own count here is the
    /// fallback rate and should be 0 for this workload).
    pub view_recomputes: u64,
    /// Did this run's final state match the maintained run byte for
    /// byte? (Trivially true for the maintained rows.)
    pub fingerprint_match: bool,
}

/// Everything one `run_maint_bench` sweep yields.
#[derive(Debug, Clone)]
pub struct MaintBenchResult {
    /// The `(rows, mode)` table, maintained row first within each size.
    /// Busy seconds are the minimum over the sweep's repetitions; the
    /// fingerprint gate must hold on every repetition.
    pub cases: Vec<MaintBenchCase>,
    /// Per table size: `busy_recompute / busy_maintained` — how many
    /// times cheaper a churn tick gets when retractions flow through
    /// the analysis-chosen maintenance strategies instead of clearing
    /// and refolding every affected view.
    pub speedups: Vec<(usize, f64)>,
}

/// Everything one `bench_maint_churn` run yields.
struct MaintRun {
    busy_secs: f64,
    wall_ms: f64,
    maint_rounds: u64,
    views_maintained: u64,
    view_recomputes: u64,
    fingerprint: String,
}

/// The E14 workload: a NameNode holding `rows` replica reports
/// (`hb_chunk`, keyed `(node, chunk)`), then `rounds` bursts of `churn`
/// re-reports with changed lengths. Each re-report replaces its keyed
/// row — an insert *plus a retraction* — so every burst pushes signed
/// deltas into the aggregate views `chunk_locs(C, set<N>)` and
/// `chunk_rep(C, count<N>)`. The maintenance analysis certifies both as
/// `group-recompute(group=[0])` over the `hb_chunk` delta: the maintained
/// engine refolds only the touched chunk groups (index lookups), while
/// the recompute engine clears and refolds all `rows` groups per tick.
/// Synthetic DataNode addresses (`sdn*`) keep the real DataNodes'
/// heartbeat traffic out of the measured state.
fn bench_maint_churn(maintenance: bool, rows: usize, rounds: usize, churn: usize) -> MaintRun {
    use boom_overlog::PlanOptions;
    use boom_simnet::{overlog_state_fingerprint, set_plan_options_all};
    use std::sync::Arc;
    let mut c = FsClusterBuilder {
        sim: SimConfig {
            min_latency: 1,
            max_latency: 1,
            ..SimConfig::default()
        },
        control: ControlPlane::Declarative,
        datanodes: 2,
        replication: 1,
        ..Default::default()
    }
    .build();
    set_plan_options_all(
        &mut c.sim,
        PlanOptions {
            maintenance,
            ..PlanOptions::default()
        },
    );
    let nn = c.namenodes[0].clone();
    // The synthetic report storm is far larger than any real tick; both
    // modes get the same raised divergence-guard ceiling.
    c.sim.with_actor::<OverlogActor, _>(&nn, |a| {
        a.runtime().set_budget(200_000_000);
    });
    // Park the staleness window out of reach: the seeded reports carry
    // injection-time stamps and must survive the whole run un-retracted
    // (the churn itself is the only retraction source we measure).
    c.sim
        .inject(&nn, "hb_timeout", Arc::new(vec![Value::Int(1 << 40)]));
    let now = c.sim.now() as i64;
    let report = |cid: usize, len: i64| -> boom_overlog::Row {
        Arc::new(vec![
            Value::addr(format!("sdn{}", cid % 3)),
            Value::Int(cid as i64),
            Value::Int(len),
            Value::Int(now),
        ])
    };
    // Seed every chunk once, in tranches so each tick's event batch (and
    // the recompute engine's per-tick rebuild) stays bounded.
    let mut chunk = 0usize;
    while chunk < rows {
        let end = rows.min(chunk + 250_000);
        for cid in chunk..end {
            c.sim.inject(&nn, fsproto::HB_CHUNK_REPORT, report(cid, 1));
        }
        chunk = end;
        c.sim.run_for(60);
    }
    // Measured section: the churn bursts. A multiplicative stride walks
    // the chunk space so every burst touches spread-out groups.
    let stats0 = c
        .sim
        .with_actor::<OverlogActor, _>(&nn, |a| a.runtime_ref().eval_stats());
    let (_, b0, _) = overlog_meters(&mut c.sim);
    let wall = std::time::Instant::now();
    let mut seq = 0usize;
    for _ in 0..rounds {
        for _ in 0..churn {
            let cid = seq.wrapping_mul(7919) % rows;
            c.sim.inject(
                &nn,
                fsproto::HB_CHUNK_REPORT,
                report(cid, 2 + (seq % 5) as i64),
            );
            seq += 1;
        }
        c.sim.run_for(60);
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let (_, b1, _) = overlog_meters(&mut c.sim);
    let stats1 = c
        .sim
        .with_actor::<OverlogActor, _>(&nn, |a| a.runtime_ref().eval_stats());
    MaintRun {
        busy_secs: (b1 - b0).max(1e-9),
        wall_ms,
        maint_rounds: stats1.maint_rounds - stats0.maint_rounds,
        views_maintained: stats1.views_maintained - stats0.views_maintained,
        view_recomputes: stats1.view_recomputes - stats0.view_recomputes,
        fingerprint: overlog_state_fingerprint(&mut c.sim),
    }
}

/// E14: sweep the heartbeat-churn workload over table sizes × both
/// maintenance modes, gating every recompute row on byte-identity with
/// its maintained twin and recording the busy-second speedup per size.
/// Each cell runs `reps` times keeping the minimum busy time (the
/// standard noise filter for a deterministic workload); the fingerprint
/// gate must hold on *every* repetition.
pub fn run_maint_bench(
    sizes: &[usize],
    rounds: usize,
    churn: usize,
    reps: usize,
) -> MaintBenchResult {
    let reps = reps.max(1);
    let min_of = |maintenance: bool, rows: usize| {
        let mut best: Option<MaintRun> = None;
        for _ in 0..reps {
            let run = bench_maint_churn(maintenance, rows, rounds, churn);
            if let Some(b) = &best {
                assert_eq!(
                    run.fingerprint, b.fingerprint,
                    "E14 repetitions of an identical config must agree"
                );
            }
            if best.as_ref().is_none_or(|b| run.busy_secs < b.busy_secs) {
                best = Some(run);
            }
        }
        best.expect("reps >= 1")
    };
    let tuples = (rounds * churn) as u64;
    let mut cases = Vec::new();
    let mut speedups = Vec::new();
    for &rows in sizes {
        let maintained = min_of(true, rows);
        let recomputed = min_of(false, rows);
        let case = |mode: &str, r: &MaintRun, fingerprint_match: bool| MaintBenchCase {
            rows,
            mode: mode.to_string(),
            tuples,
            busy_secs: r.busy_secs,
            tuples_per_sec: tuples as f64 / r.busy_secs,
            wall_ms: r.wall_ms,
            maint_rounds: r.maint_rounds,
            views_maintained: r.views_maintained,
            view_recomputes: r.view_recomputes,
            fingerprint_match,
        };
        let identical = recomputed.fingerprint == maintained.fingerprint;
        cases.push(case("maintained", &maintained, true));
        cases.push(case("recompute", &recomputed, identical));
        speedups.push((rows, recomputed.busy_secs / maintained.busy_secs));
    }
    MaintBenchResult { cases, speedups }
}

// ---------------------------------------------------------------------------
// Rendering helpers shared by the binaries
// ---------------------------------------------------------------------------

/// Render labeled CDF series in gnuplot-friendly blocks.
pub fn render_cdfs(series: &[(String, Vec<(f64, f64)>)]) -> String {
    let mut out = String::new();
    for (label, cdf) in series {
        out.push_str(&format!("# {label}\n"));
        for (x, f) in cdf {
            out.push_str(&format!("{x:.1}\t{f:.4}\n"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_small_scale_runs_all_combos() {
        let cfg = TaskCdfConfig {
            workers: 3,
            files: 1,
            words_per_file: 1_200,
            nreduces: 2,
            chunk_size: 2048,
            seed: 7,
        };
        let results = run_task_cdfs(&cfg);
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(r.job_ms > 0, "{}", r.label);
            assert!(!r.map_cdf.is_empty());
            assert!(!r.reduce_cdf.is_empty());
            assert!((r.map_cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
        // Performance parity: no combo should be wildly slower (the paper
        // found BOOM within ~20-30% of Hadoop; allow 3x in the simulator).
        let best = results.iter().map(|r| r.job_ms).min().unwrap();
        let worst = results.iter().map(|r| r.job_ms).max().unwrap();
        assert!(worst < best * 3, "{best} vs {worst}");
    }

    #[test]
    fn e5_small_scale_shows_availability_contrast() {
        let results = run_failover(&[1, 3], 3);
        assert_eq!(results.len(), 2);
        assert!(!results[0].metadata_survived, "1 replica loses metadata");
        assert!(results[1].metadata_survived, "3 replicas survive");
        assert!(results[1].failover_ms.is_some());
        // Consensus costs latency: replicated mutations are slower.
        assert!(results[1].latency_mean >= results[0].latency_mean);
    }

    #[test]
    fn e6_small_scale_throughput_grows_with_partitions() {
        // ops_per_sec is wall-clock CPU, which is noisy on shared CI
        // machines; take the best of several trials so a single slow
        // run (scheduler preemption, cold caches) cannot invert the
        // comparison.
        let mut best = [0.0f64; 2];
        for _ in 0..5 {
            let results = run_partition_scaleout(&[1, 2], 4, 120);
            assert_eq!(results.len(), 2);
            for (b, r) in best.iter_mut().zip(&results) {
                *b = b.max(r.ops_per_sec);
            }
            // Two partitions halve the busiest server's load, so
            // aggregate capacity should clearly grow.
            if best[1] > best[0] * 1.2 {
                return;
            }
        }
        assert!(best[0] > 0.0);
        panic!("p1={} p2={}", best[0], best[1]);
    }

    #[test]
    fn e7_small_scale_measures_overhead() {
        let r = run_monitoring(5);
        assert!(r.cpu_us_off > 0.0);
        assert!(r.cpu_us_on > 0.0);
        assert!(r.cpu_us_meta > 0.0);
        assert!(r.trace_events > 0);
        assert_eq!(r.trace_dropped, 0, "tiny run must not overflow the ring");
        assert!(r.rule_firings > 0);
        assert!(r.monitor_statements > 10, "{}", r.monitor_statements);
        assert!(r.hot_rules.contains("hot rules"), "{}", r.hot_rules);
    }
}
