//! The four workloads and the runner that sets each up, drives it in a
//! closed loop, checks every answer, and snapshots layer counters around
//! the measured section.

use crate::cluster::{fs_stack, mr_stack, replicated_stack, sim_config, Stack};
use crate::model::{Answer, Mix, Namespace, Op, OpGen};
use crate::wrap::{Role, Span};
use boom_fs::client::ClientActor;
use boom_fs::proto::{self, FsResponse};
use boom_fs::FsError;
use boom_mr::{reference_wordcount, synth_text, MrDriver, MrJob};
use boom_overlog::Value;
use boom_simnet::{OverlogActor, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Metadata mix on a single Overlog NameNode.
    FsMeta,
    /// Full chunk reports from 3 DataNodes into a 5,000-chunk NameNode,
    /// with a lookup client.
    BlockReport,
    /// Back-to-back wordcount jobs on BOOM-MR over BOOM-FS.
    WordCount,
    /// The fs-meta mix on a durable 3-replica Paxos NameNode.
    PaxosMeta,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::FsMeta,
        Workload::BlockReport,
        Workload::WordCount,
        Workload::PaxosMeta,
    ];

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FsMeta => "fs-meta",
            Workload::BlockReport => "block-report",
            Workload::WordCount => "wordcount",
            Workload::PaxosMeta => "paxos-meta",
        }
    }

    /// Input sizes, as recorded with every run.
    pub fn sizes(self) -> String {
        match self {
            Workload::FsMeta => format!(
                "dirs={FSMETA_DIRS} files_per_dir={FSMETA_FILES} chunked_files={FSMETA_DIRS} \
                 datanodes=3 replication=2 mix=exists40/ls10/chunks10/create15/newchunk15/rm9/rename1"
            ),
            Workload::BlockReport => format!(
                "files={} chunks_per_file=1 datanodes=3 replication=2 hb_ms={BR_HB_MS} hb_phases=staggered \
                 latency_ms={BR_LATENCY_MS} think_ms={BR_THINK_MS:?} mix=locations100",
                BR_DIRS * BR_FILES
            ),
            Workload::WordCount => format!(
                "workers={WC_WORKERS} files={WC_FILES} words_per_file={WC_WORDS} \
                 reduces={WC_REDUCES} spec=late assign=locality"
            ),
            Workload::PaxosMeta => format!(
                "replicas=3 durable=true dirs={PX_DIRS} files_per_dir={PX_FILES} \
                 chunked_files={PX_DIRS} datanodes=4 replication=2 mix=as fs-meta"
            ),
        }
    }

    /// Steps (ops, or jobs on wordcount) per host second at which this
    /// workload ran on the seed code (release build, 2-vCPU x86-64 VM).
    /// It only sizes the run: see [`plan`].
    fn nominal_rate(self) -> f64 {
        match self {
            Workload::FsMeta => 400.0,
            Workload::BlockReport => 180.0,
            Workload::WordCount => 1.05,
            Workload::PaxosMeta => 600.0,
        }
    }
}

/// Fresh set-ups per run: `setup_s` is their median, and the other
/// end-to-end metrics are taken per round.
pub const ROUNDS: usize = 7;

/// Steps per round for a run of about `seconds` measured host seconds.
/// The count depends on the workload and `seconds` alone, never on how
/// fast the program runs, so two builds replay the same op sequence
/// against the same namespace, and a faster build simply finishes sooner.
pub fn plan(w: Workload, seconds: f64) -> Vec<u64> {
    let steps = (seconds * w.nominal_rate() / ROUNDS as f64).round().max(1.0);
    vec![steps as u64; ROUNDS]
}

const FSMETA_DIRS: usize = 64;
const FSMETA_FILES: usize = 64;
const BR_DIRS: usize = 50;
const BR_FILES: usize = 100;
/// Virtual think time between block-report lookups, drawn uniformly from
/// this range: heartbeats and their reports keep flowing while the client
/// waits, and the draw keeps the client's phase from locking onto the
/// heartbeat period.
const BR_THINK_MS: std::ops::RangeInclusive<u64> = 5..=15;
/// block-report's DataNode heartbeat (each carries a full chunk report),
/// with the three DataNodes' phases spread over it, on a fixed link
/// latency so that each report lands in one batch. About 2% of lookups
/// then wait behind exactly one full report, and `read_p99_us` is such a
/// wait. At the 3 s default with phases aligned the overlap is near 1%,
/// and with random latency the number of partial batches a lookup meets
/// varies, so the p99 would flip from run to run.
const BR_HB_MS: u64 = 1_000;
const BR_LATENCY_MS: u64 = 3;
const PX_DIRS: usize = 8;
const PX_FILES: usize = 64;
const WC_WORKERS: usize = 8;
const WC_FILES: usize = 16;
const WC_WORDS: usize = 12_000;
/// Reduce partitions per job.
const WC_REDUCES: usize = 4;

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Host seconds of set-up, one per round.
    pub setup: Vec<f64>,
    /// Host seconds inside measured sections.
    pub measured: f64,
    /// Ops attempted / failed (timeout or unpredicted error). An op is a
    /// client op, or a job on wordcount.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Failed client calls that were timeouts.
    pub timeouts: u64,
    /// Wrong answers (correctness failures), with the first few described.
    pub wrong: u64,
    /// Descriptions of the first wrong answers and failures.
    pub notes: Vec<String>,
    /// Host ns per completed op of any kind (a job on wordcount).
    pub ops: Vec<u64>,
    /// Host ns per read op / write op.
    pub reads: Vec<u64>,
    /// See `reads`.
    pub writes: Vec<u64>,
    /// Host ns per client call, by call.
    pub calls: BTreeMap<&'static str, Vec<u64>>,
    /// Host seconds per wordcount job, and its submit / wait halves.
    pub jobs: Vec<f64>,
    /// See `jobs`.
    pub submit: Vec<f64>,
    /// See `jobs`.
    pub wait: Vec<f64>,
    /// Virtual seconds per job.
    pub job_virtual: Vec<f64>,
    /// Layer counters, summed over measured sections.
    pub layers: BTreeMap<String, f64>,
    /// Layer state at the end of the last round (live rows, WAL length).
    pub end_state: BTreeMap<String, f64>,
    /// Spans of each traced round.
    pub traces: Vec<RoundTrace>,
    /// Where each round ended in the sample lists above.
    pub cuts: Vec<RoundCut>,
}

/// Sample counts and time at the end of a round, so metrics can be taken
/// per round.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundCut {
    /// `ops.len()` (ops completed) then.
    pub ops: usize,
    /// `measured` then.
    pub measured: f64,
}

/// The spans one traced round recorded.
#[derive(Debug, Default)]
pub struct RoundTrace {
    /// Nodes by span node index.
    pub nodes: Vec<(String, Role)>,
    /// Callback and client-op spans.
    pub spans: Vec<Span>,
    /// Spans past the per-round cap.
    pub dropped: u64,
}

impl Tally {
    fn note(&mut self, s: String) {
        if self.notes.len() < 8 {
            self.notes.push(s);
        }
    }
}

/// Per-round seed for the simulator and the generator.
fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round as u64)
        .rotate_left(17)
}

/// One set-up cluster plus the client state driving it.
struct Session {
    stack: Stack,
    ns: Namespace,
    gen: OpGen,
    /// Draws block-report's think times.
    think: Option<StdRng>,
    wc: Option<WordCount>,
}

struct WordCount {
    inputs: Vec<String>,
    expected: BTreeMap<String, i64>,
}

/// Time one client call, recording a span in traced runs.
fn call<T>(
    tally: &mut Tally,
    stack: &mut Stack,
    name: &'static str,
    f: impl FnOnce(&mut Stack) -> Result<T, FsError>,
) -> Result<T, FsError> {
    let span = stack.probe.begin_op();
    let t0 = Instant::now();
    let r = f(stack);
    let ns = t0.elapsed().as_nanos() as u64;
    stack.probe.end_op(name, span);
    match &r {
        Ok(_) => tally.calls.entry(name).or_default().push(ns),
        Err(e) => {
            if matches!(e, FsError::Timeout(_)) {
                tally.timeouts += 1;
            }
            tally.note(format!("{name}: {e}"));
        }
    }
    r
}

fn exec(tally: &mut Tally, s: &mut Stack, op: &Op) -> Result<Answer, FsError> {
    match op {
        Op::Exists(p) => call(tally, s, "exists", |s| s.fs.exists(&mut s.sim, p)).map(Answer::Bool),
        Op::Ls(d) => call(tally, s, "ls", |s| s.fs.ls(&mut s.sim, d)).map(Answer::Names),
        Op::Chunks(f) => {
            call(tally, s, "chunks", |s| s.fs.chunks(&mut s.sim, f)).map(Answer::Chunks)
        }
        Op::Locations(f, c) => {
            call(tally, s, "locations", |s| s.fs.locations(&mut s.sim, f, *c)).map(Answer::Names)
        }
        Op::Create(p) => {
            call(tally, s, "create", |s| s.fs.create(&mut s.sim, p)).map(|_| Answer::Done)
        }
        Op::NewChunk(f) => {
            let (id, targets) = call(tally, s, "newchunk", |s| s.fs.new_chunk(&mut s.sim, f))?;
            call(tally, s, "abandon", |s| s.fs.abandon(&mut s.sim, f, id))?;
            Ok(Answer::Alloc(id, targets))
        }
        Op::Rm(p) => call(tally, s, "rm", |s| s.fs.rm(&mut s.sim, p)).map(|_| Answer::Done),
        Op::Rename(o, n) => {
            call(tally, s, "rename", |s| s.fs.rename(&mut s.sim, o, n)).map(|_| Answer::Done)
        }
    }
}

/// Build a namespace of `dirs` × `files` empty files plus one small
/// single-chunk file per directory, mirroring it in a model.
fn load_namespace(stack: &mut Stack, dirs: usize, files: usize, replication: usize) -> Namespace {
    let mut ns = Namespace::new(&stack.datanodes, replication);
    let (sim, fs) = (&mut stack.sim, &stack.fs);
    for d in 0..dirs {
        let dir = format!("/d{d}");
        fs.mkdir(sim, &dir).expect("setup mkdir");
        ns.add_dir(&dir);
        for f in 0..files {
            let path = format!("{dir}/f{f}");
            fs.create(sim, &path).expect("setup create");
            ns.add_file(&path);
        }
        let data = format!("{dir}/data");
        fs.write_file(sim, &data, &format!("block of {data}"))
            .expect("setup write");
        ns.add_file(&data);
        ns.set_chunks(&data, fs.chunks(sim, &data).expect("setup chunks"));
    }
    ns
}

/// Send one raw request per argument list from the client node, all in
/// flight at once, and return the responses in argument order.
fn batch(stack: &mut Stack, req: &mut i64, cmd: &str, args: Vec<Vec<Value>>) -> Vec<FsResponse> {
    let node = stack.fs.node.clone();
    let nn = stack.fs.cfg.namenodes[0].clone();
    let ids: Vec<i64> = args
        .into_iter()
        .map(|a| {
            *req += 1;
            stack
                .sim
                .inject(&nn, proto::REQUEST, proto::request_row(&node, *req, cmd, a));
            *req
        })
        .collect();
    let deadline = stack.sim.now() + 10_000;
    let n = ids.len();
    let all = stack.sim.run_while(deadline, |s| {
        s.with_actor::<ClientActor, _>(&node, |c| c.response_count() >= n)
    });
    assert!(all, "setup {cmd} batch answered");
    let mut got: HashMap<i64, FsResponse> = stack
        .sim
        .with_actor::<ClientActor, _>(&node, |c| c.drain_responses().into_iter().collect());
    ids.iter()
        .map(|id| got.remove(id).expect("one response per request"))
        .collect()
}

/// block-report's namespace: single-chunk files written a directory at a
/// time with every request of a directory in flight at once, so loading
/// 5,000 files spans a few virtual seconds instead of minutes of
/// heartbeat traffic. Rows follow `boom_fs::proto`; request ids start far
/// above the ones `FsClient` allocates, so the two never collide.
fn bulk_load(stack: &mut Stack, seed: u64) -> Namespace {
    let mut ns = Namespace::new(&stack.datanodes, 2);
    let mut req = 1i64 << 40;
    let me = stack.fs.node.clone();
    for d in 0..BR_DIRS {
        let dir = format!("/b{d}");
        stack.fs.mkdir(&mut stack.sim, &dir).expect("setup mkdir");
        ns.add_dir(&dir);
        let paths: Vec<String> = (0..BR_FILES).map(|f| format!("{dir}/c{f}")).collect();
        let one = |p: &String| vec![Value::str(p)];
        for r in batch(stack, &mut req, "create", paths.iter().map(one).collect()) {
            assert!(r.ok, "setup create: {:?}", r.payload);
        }
        let allocs = batch(stack, &mut req, "newchunk", paths.iter().map(one).collect());
        for (path, r) in paths.iter().zip(allocs) {
            let list = r
                .payload
                .as_list()
                .filter(|_| r.ok)
                .expect("setup newchunk");
            let chunk = list[0].as_int().expect("chunk id");
            let targets: Vec<Value> = list[1..]
                .iter()
                .filter_map(|v| v.as_str().map(Value::addr))
                .collect();
            let head = targets[0].as_str().expect("target").to_string();
            req += 1;
            let row = vec![
                Value::addr(&me),
                Value::Int(req),
                Value::Int(chunk),
                Value::str(format!("chunk of {path} seed {seed}")),
                Value::list(targets[1..].to_vec()),
            ];
            stack.sim.inject(&head, proto::DN_WRITE, Arc::new(row));
            ns.add_file(path);
            ns.set_chunks(path, vec![chunk]);
        }
        // Two pipeline hops at the 5 ms maximum link latency, plus the
        // replicas' reports to the NameNode.
        stack.sim.run_for(20);
    }
    ns
}

impl Session {
    fn setup(w: Workload, seed: u64, round: usize) -> Session {
        let rs = round_seed(seed, round);
        let gen_seed = rs ^ 0x5EED_0F0B;
        match w {
            Workload::FsMeta => {
                let mut stack = fs_stack(sim_config(rs), 3, None, true);
                let ns = load_namespace(&mut stack, FSMETA_DIRS, FSMETA_FILES, 2);
                Session {
                    stack,
                    ns,
                    gen: OpGen::new(gen_seed, Mix::METADATA),
                    think: None,
                    wc: None,
                }
            }
            Workload::PaxosMeta => {
                let mut stack = replicated_stack(rs, true);
                let ns = load_namespace(&mut stack, PX_DIRS, PX_FILES, 2);
                Session {
                    stack,
                    ns,
                    gen: OpGen::new(gen_seed, Mix::METADATA),
                    think: None,
                    wc: None,
                }
            }
            Workload::BlockReport => {
                let net = SimConfig {
                    min_latency: BR_LATENCY_MS,
                    max_latency: BR_LATENCY_MS,
                    ..sim_config(rs)
                };
                let mut stack = fs_stack(net, 3, Some(BR_HB_MS), true);
                let ns = bulk_load(&mut stack, rs);
                Session {
                    stack,
                    ns,
                    gen: OpGen::new(gen_seed, Mix::LOOKUP),
                    think: Some(StdRng::seed_from_u64(gen_seed ^ 0x7417)),
                    wc: None,
                }
            }
            Workload::WordCount => {
                let mut stack = mr_stack(rs, WC_WORKERS, true);
                let (sim, fs) = (&mut stack.sim, &stack.fs);
                fs.mkdir(sim, "/input").expect("setup mkdir");
                let mut inputs = Vec::new();
                let mut expected = BTreeMap::new();
                for i in 0..WC_FILES {
                    let path = format!("/input/part{i}");
                    let text = synth_text(gen_seed.wrapping_add(i as u64), WC_WORDS);
                    fs.write_file(sim, &path, &text).expect("setup write");
                    for (w, n) in reference_wordcount(&text) {
                        *expected.entry(w).or_insert(0) += n;
                    }
                    inputs.push(path);
                }
                let ns = Namespace::new(&stack.datanodes, 2);
                Session {
                    stack,
                    ns,
                    gen: OpGen::new(gen_seed, Mix::METADATA),
                    think: None,
                    wc: Some(WordCount { inputs, expected }),
                }
            }
        }
    }

    /// One closed-loop step: a metadata op (then, on block-report, the
    /// think time), or the `n`th wordcount job.
    fn step(&mut self, tally: &mut Tally, n: u64) {
        if self.wc.is_some() {
            return self.job(tally, n);
        }
        let op = self.gen.next(&mut self.ns);
        tally.attempted += 1;
        let t0 = Instant::now();
        let got = exec(tally, &mut self.stack, &op);
        let ns = t0.elapsed().as_nanos() as u64;
        match got {
            Ok(answer) => {
                tally.ops.push(ns);
                if op.is_write() {
                    &mut tally.writes
                } else {
                    &mut tally.reads
                }
                .push(ns);
                match self.ns.check(&op, &answer) {
                    Ok(()) => self.ns.apply(&op),
                    Err(why) => {
                        tally.wrong += 1;
                        tally.note(format!("wrong answer: {why}"));
                    }
                }
            }
            Err(_) => tally.failed += 1,
        }
        if let Some(rng) = &mut self.think {
            self.stack.sim.run_for(rng.gen_range(BR_THINK_MS));
        }
    }

    fn job(&mut self, tally: &mut Tally, n: u64) {
        let wc = self.wc.as_ref().expect("wordcount session");
        let job = MrJob {
            job_type: "wordcount".into(),
            inputs: wc.inputs.clone(),
            nreduces: WC_REDUCES,
            outdir: format!("/out/j{n}"),
        };
        let s = &mut self.stack;
        let mut driver = s.driver.clone().expect("MapReduce stack has a driver");
        let deadline = s.sim.now() + 50_000_000;
        tally.attempted += 1;
        let start = s.sim.now();
        let t0 = Instant::now();
        let ran = if s.probe.tracing() {
            // The same two calls `MrDriver::run` makes, timed apart.
            let span = s.probe.begin_op();
            let submitted = driver.submit(&mut s.sim, &s.fs, &job);
            s.probe.end_op("mr.submit", span);
            let t1 = Instant::now();
            tally.submit.push((t1 - t0).as_secs_f64());
            submitted.and_then(|id| {
                let span = s.probe.begin_op();
                let done = driver.wait(&mut s.sim, id, deadline);
                s.probe.end_op("mr.wait", span);
                tally.wait.push(t1.elapsed().as_secs_f64());
                done.map(|t| (id, t.saturating_sub(start)))
                    .ok_or_else(|| FsError::Timeout(format!("job {id}")))
            })
        } else {
            let span = s.probe.begin_op();
            let r = driver.run(&mut s.sim, &s.fs, &job, deadline);
            s.probe.end_op("mr.run", span);
            r
        };
        let secs = t0.elapsed().as_secs_f64();
        s.driver = Some(driver);
        let (id, virt_ms) = match ran {
            Ok(r) => r,
            Err(e) => {
                tally.failed += 1;
                if matches!(e, FsError::Timeout(_)) {
                    tally.timeouts += 1;
                }
                tally.note(format!("job {n}: {e}"));
                return;
            }
        };
        tally.ops.push((secs * 1e9) as u64);
        tally.jobs.push(secs);
        tally.job_virtual.push(virt_ms as f64 / 1e3);
        if MrDriver::collect_output(&mut s.sim, &s.trackers, id) != wc.expected {
            tally.wrong += 1;
            tally.note(format!("job {n}: output differs from reference_wordcount"));
        }
    }
}

fn add(map: &mut BTreeMap<String, f64>, key: String, v: f64) {
    *map.entry(key).or_insert(0.0) += v;
}

/// Cumulative layer counters of a cluster right now.
fn counters(s: &mut Stack) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for (node, role) in s.overlog.clone() {
        let layer = role.layer();
        let (busy, stats, es) = s.sim.with_actor::<OverlogActor, _>(&node, |a| {
            (
                a.busy.as_secs_f64(),
                a.runtime_ref().rule_stats(),
                a.runtime_ref().eval_stats(),
            )
        });
        add(&mut m, format!("{layer}.busy_s"), busy);
        let (mut eval_ns, mut fires, mut attempts, mut kernel) = (0u64, 0u64, 0u64, 0u64);
        for (_, r) in stats {
            eval_ns += r.eval_ns;
            fires += r.fires;
            attempts += r.attempts;
            kernel += r.kernel_evals;
        }
        add(&mut m, format!("{layer}.eval_s"), eval_ns as f64 / 1e9);
        add(&mut m, format!("{layer}.fires"), fires as f64);
        add(&mut m, format!("{layer}.rule_attempts"), attempts as f64);
        add(&mut m, format!("{layer}.kernel_evals"), kernel as f64);
        add(&mut m, format!("{layer}.ticks"), es.ticks as f64);
        add(
            &mut m,
            format!("{layer}.fixpoint_rounds"),
            es.fixpoint_rounds as f64,
        );
        add(
            &mut m,
            format!("{layer}.view_recomputes"),
            es.view_recomputes as f64,
        );
        add(
            &mut m,
            format!("{layer}.maint_rounds"),
            es.maint_rounds as f64,
        );
        add(
            &mut m,
            format!("{layer}.views_maintained"),
            es.views_maintained as f64,
        );
        if role == Role::Replicated && leader_of(s, &node).as_deref() == Some(node.as_str()) {
            add(&mut m, "core.replicated.leader_busy_s".into(), busy);
        }
    }
    for dn in s.datanodes.clone() {
        let (w, r) = s
            .sim
            .with_actor::<boom_fs::DataNode, _>(&dn, |d| (d.writes, d.reads));
        add(&mut m, "fs.datanode.writes".into(), w as f64);
        add(&mut m, "fs.datanode.reads".into(), r as f64);
    }
    for tt in s.trackers.clone() {
        let (c, k, l, r) = s.sim.with_actor::<boom_mr::TaskTracker, _>(&tt, |t| {
            (t.completed, t.killed, t.local_reads, t.remote_reads)
        });
        add(&mut m, "mr.tasktracker.completed".into(), c as f64);
        add(&mut m, "mr.tasktracker.killed".into(), k as f64);
        add(&mut m, "mr.tasktracker.local_reads".into(), l as f64);
        add(&mut m, "mr.tasktracker.remote_reads".into(), r as f64);
    }
    if let Some(store) = &s.store {
        for (node, _) in &s.overlog {
            let (appends, checkpoints, _) = store.stats(node);
            add(&mut m, "simnet.durable.appends".into(), appends as f64);
            add(
                &mut m,
                "simnet.durable.checkpoints".into(),
                checkpoints as f64,
            );
        }
    }
    add(
        &mut m,
        "simnet.delivered".into(),
        s.sim.delivered_count() as f64,
    );
    add(
        &mut m,
        "simnet.dropped".into(),
        s.sim.dropped_count() as f64,
    );
    add(&mut m, "simnet.virtual_s".into(), s.sim.now() as f64 / 1e3);
    add(
        &mut m,
        "fs.namenode.reports_in".into(),
        s.probe.reports_in() as f64,
    );
    m
}

/// The replica a Paxos replica currently believes leads.
fn leader_of(s: &mut Stack, node: &str) -> Option<String> {
    s.sim.with_actor::<OverlogActor, _>(node, |a| {
        a.runtime_ref()
            .rows("leader")
            .first()
            .and_then(|r| r.first())
            .and_then(|v| v.as_str().map(str::to_string))
    })
}

/// Live state at the end of a run: rows per Overlog layer, runtime
/// errors, WAL length.
fn end_state(s: &mut Stack) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for (node, role) in s.overlog.clone() {
        let (rows, errors) = s.sim.with_actor::<OverlogActor, _>(&node, |a| {
            let rt = a.runtime_ref();
            let rows: usize = rt
                .table_decls()
                .filter_map(|d| rt.table(&d.name))
                .filter(|t| !t.is_event())
                .map(|t| t.len())
                .sum();
            (rows, a.errors.len())
        });
        add(&mut m, format!("{}.rows", role.layer()), rows as f64);
        add(&mut m, format!("{}.errors", role.layer()), errors as f64);
    }
    if let Some(store) = &s.store {
        for (node, _) in &s.overlog {
            add(
                &mut m,
                "simnet.durable.wal_entries".into(),
                store.wal_entries(node) as f64,
            );
        }
    }
    m
}

/// Run `w` from `seed`: one round per entry of `plan`, each a fresh
/// set-up followed by a measured section of that many steps.
pub fn run(w: Workload, seed: u64, plan: &[u64], trace: bool) -> Tally {
    let mut tally = Tally::default();
    for (round, &steps) in plan.iter().enumerate() {
        // The round's set-up time is the faster of two identical set-ups
        // (the work repeats exactly): on a shared host a set-up of tens
        // of ms often lands in a slow spell, and one retry takes most of
        // them out. The first cluster is dropped untimed.
        let mut session = None;
        let mut setup = f64::INFINITY;
        for _ in 0..2 {
            drop(session.take());
            let t0 = Instant::now();
            session = Some(Session::setup(w, seed, round));
            setup = setup.min(t0.elapsed().as_secs_f64());
        }
        let mut session = session.expect("set up at least once");
        tally.setup.push(setup);
        let before = counters(&mut session.stack);
        session.stack.probe.set_tracing(trace);
        let t1 = Instant::now();
        for n in 1..=steps {
            session.step(&mut tally, n);
        }
        tally.measured += t1.elapsed().as_secs_f64();
        tally.cuts.push(RoundCut {
            ops: tally.ops.len(),
            measured: tally.measured,
        });
        session.stack.probe.set_tracing(false);
        let after = counters(&mut session.stack);
        for (k, v) in after {
            add(
                &mut tally.layers,
                k.clone(),
                v - before.get(&k).copied().unwrap_or(0.0),
            );
        }
        for (k, v) in session.stack.probe.role_times() {
            add(
                &mut tally.layers,
                format!("{}.callbacks", k.layer()),
                v.callbacks as f64,
            );
            add(
                &mut tally.layers,
                format!("{}.cb_busy_s", k.layer()),
                v.busy.as_secs_f64(),
            );
        }
        let mut batches = session.stack.probe.report_batches();
        tally
            .calls
            .entry("nn.report_batch")
            .or_default()
            .append(&mut batches);
        let state = end_state(&mut session.stack);
        for k in [
            "fs.namenode.errors",
            "core.replicated.errors",
            "mr.jobtracker.errors",
        ] {
            add(
                &mut tally.layers,
                k.into(),
                state.get(k).copied().unwrap_or(0.0),
            );
        }
        tally.end_state = state;
        if trace {
            let (spans, dropped) = session.stack.probe.take_spans();
            tally.traces.push(RoundTrace {
                nodes: session.stack.probe.nodes(),
                spans,
                dropped,
            });
        }
    }
    tally
}
