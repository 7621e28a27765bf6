//! The TaskTracker: BOOM-MR's worker. Executes map and reduce attempts
//! with simulated durations (per-node speed factors model heterogeneity
//! and stragglers), reads real chunk data from BOOM-FS DataNodes, shuffles
//! map output between trackers, and reports progress to the JobTracker —
//! the imperative worker half the paper kept from Hadoop.

use crate::proto::{self, Launch};
use crate::workload::CostModel;
use boom_fs::proto as fsproto;
use boom_overlog::{stable_hash, NetTuple, Value};
use boom_simnet::{Actor, Ctx};
use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Key identifying one task attempt.
type AttemptKey = (i64, i64, i64);

/// How long a reducer waits for shuffle responses before declaring the
/// attempt failed (a peer died mid-shuffle).
const FETCH_TIMEOUT_MS: u64 = 8_000;

/// How long a mapper waits for chunk data before moving to the next
/// replica (a DataNode died between placement and the read: the request
/// is silently dropped and no error will ever come back).
const READ_TIMEOUT_MS: u64 = 4_000;

/// TaskTracker configuration.
#[derive(Debug, Clone)]
pub struct TaskTrackerConfig {
    /// The JobTracker node.
    pub jobtracker: String,
    /// Concurrent task slots.
    pub slots: usize,
    /// Heartbeat / progress-report interval (ms).
    pub hb_interval: u64,
    /// All tracker nodes (shuffle targets), including self.
    pub peers: Vec<String>,
    /// Node speed factor: 1.0 nominal, < 1.0 for stragglers.
    pub speed: f64,
    /// Task cost model.
    pub cost: CostModel,
    /// The DataNode sharing this worker's machine, if any: chunk reads
    /// prefer it (free local I/O in real Hadoop; here it feeds the
    /// locality metrics).
    pub colocated_dn: Option<String>,
}

impl Default for TaskTrackerConfig {
    fn default() -> Self {
        TaskTrackerConfig {
            jobtracker: "jt".to_string(),
            slots: 2,
            hb_interval: 500,
            peers: vec![],
            speed: 1.0,
            cost: CostModel::default(),
            colocated_dn: None,
        }
    }
}

#[derive(Debug)]
enum Phase {
    /// Map: waiting for chunk data from a DataNode (replica cursor).
    Reading(usize),
    /// Reduce: waiting for shuffle responses.
    Fetching {
        waiting: HashSet<String>,
        seen_maps: HashSet<i64>,
        acc: BTreeMap<String, i64>,
    },
    /// Crunching until the deadline.
    Computing { finish_at: u64 },
}

#[derive(Debug)]
struct Running {
    launch: Launch,
    start: u64,
    phase: Phase,
}

/// Per-(job, task) map output: one word→count partition per reducer.
type MapOutput = Vec<BTreeMap<String, i64>>;

/// The TaskTracker actor.
pub struct TaskTracker {
    cfg: TaskTrackerConfig,
    running: BTreeMap<AttemptKey, Running>,
    queued: VecDeque<Launch>,
    map_outputs: BTreeMap<(i64, i64), MapOutput>,
    read_reqs: HashMap<i64, AttemptKey>,
    fetch_reqs: HashMap<i64, AttemptKey>,
    fetch_deadlines: HashMap<u64, AttemptKey>,
    read_deadlines: HashMap<u64, i64>,
    next_req: i64,
    timer_keys: HashMap<u64, AttemptKey>,
    next_timer: u64,
    /// Completed reduce outputs: (job, partition) → word counts. Harnesses
    /// collect results from here (the paper's jobs wrote to HDFS; task
    /// timing, which the evaluation measures, is identical either way).
    pub outputs: HashMap<(i64, i64), BTreeMap<String, i64>>,
    /// Attempts completed on this node (instrumentation).
    pub completed: u64,
    /// Attempts killed as redundant copies (instrumentation).
    pub killed: u64,
    /// Map inputs read from the co-located DataNode (instrumentation for
    /// the locality ablation).
    pub local_reads: u64,
    /// Map inputs read from a remote DataNode.
    pub remote_reads: u64,
    /// Incarnation number, bumped on every restart and carried in
    /// `tt_register`: lets the JobTracker detect a tracker that crashed
    /// and came back *faster* than the heartbeat timeout (a flap), whose
    /// map outputs and reduce results are nevertheless gone.
    generation: i64,
}

/// One running attempt in a [`TaskTracker::debug_state`] snapshot:
/// `(job, task, attempt, phase label)`.
pub type AttemptState = (i64, i64, i64, String);

impl TaskTracker {
    /// Diagnostic snapshot: running attempt keys with phase labels, queue
    /// length, and armed completion timers.
    pub fn debug_state(&self) -> (Vec<AttemptState>, usize, usize) {
        let running: Vec<AttemptState> = self
            .running
            .iter()
            .map(|(k, r)| {
                let ph = match &r.phase {
                    Phase::Reading(i) => format!("reading[{i}]"),
                    Phase::Fetching { waiting, .. } => format!("fetching[{}]", waiting.len()),
                    Phase::Computing { finish_at } => format!("computing[{finish_at}]"),
                };
                (k.0, k.1, k.2, ph)
            })
            .collect();
        (running, self.queued.len(), self.timer_keys.len())
    }
}

impl TaskTracker {
    /// Create a tracker.
    pub fn new(cfg: TaskTrackerConfig) -> Self {
        TaskTracker {
            cfg,
            running: BTreeMap::new(),
            queued: VecDeque::new(),
            map_outputs: BTreeMap::new(),
            read_reqs: HashMap::new(),
            fetch_reqs: HashMap::new(),
            fetch_deadlines: HashMap::new(),
            read_deadlines: HashMap::new(),
            next_req: 0,
            timer_keys: HashMap::new(),
            next_timer: 1,
            outputs: HashMap::new(),
            completed: 0,
            killed: 0,
            local_reads: 0,
            remote_reads: 0,
            generation: 0,
        }
    }

    fn fresh_req(&mut self) -> i64 {
        self.next_req += 1;
        self.next_req
    }

    fn register(&self, ctx: &mut Ctx<'_>) {
        let me = ctx.me().to_string();
        ctx.send(
            &self.cfg.jobtracker.clone(),
            proto::TT_REGISTER,
            Arc::new(vec![
                Value::addr(&me),
                Value::Int(self.cfg.slots as i64),
                Value::Int(self.generation),
            ]),
        );
    }

    fn heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me().to_string();
        let now = ctx.now();
        let jt = self.cfg.jobtracker.clone();
        ctx.send(
            &jt,
            proto::TT_HB,
            Arc::new(vec![Value::addr(&me), Value::Int(now as i64)]),
        );
        for (key, r) in &self.running {
            let permille = match &r.phase {
                Phase::Computing { finish_at } => {
                    let total = finish_at.saturating_sub(r.start).max(1);
                    let done = now.saturating_sub(r.start);
                    ((done * 1000 / total) as i64).min(995)
                }
                _ => 0,
            };
            ctx.send(
                &jt,
                proto::PROGRESS_REPORT,
                proto::progress_row(
                    key.0,
                    key.1,
                    key.2,
                    &me,
                    proto::state::RUNNING,
                    permille,
                    now as i64,
                ),
            );
        }
    }

    fn start_or_queue(&mut self, ctx: &mut Ctx<'_>, launch: Launch) {
        let key = (launch.job, launch.task, launch.attempt);
        if self.running.contains_key(&key)
            || self
                .queued
                .iter()
                .any(|l| (l.job, l.task, l.attempt) == key)
        {
            return; // duplicate launch message
        }
        if self.running.len() >= self.cfg.slots {
            self.queued.push_back(launch);
            return;
        }
        self.start_task(ctx, launch);
    }

    fn start_task(&mut self, ctx: &mut Ctx<'_>, launch: Launch) {
        let key = (launch.job, launch.task, launch.attempt);
        let now = ctx.now();
        if launch.ty == "map" {
            let mut launch = launch;
            // Prefer the co-located replica when we hold one.
            if let Some(local) = &self.cfg.colocated_dn {
                if let Some(pos) = launch.locs.iter().position(|l| l == local) {
                    launch.locs.swap(0, pos);
                }
            }
            if let Some(dn) = launch.locs.first().cloned() {
                if Some(&dn) == self.cfg.colocated_dn.as_ref() {
                    self.local_reads += 1;
                } else {
                    self.remote_reads += 1;
                }
                let chunk = launch.chunk;
                self.running.insert(
                    key,
                    Running {
                        launch,
                        start: now,
                        phase: Phase::Reading(0),
                    },
                );
                self.send_read(ctx, key, &dn, chunk);
            } else {
                // No input replica: degenerate empty map.
                let finish_at = now + self.cfg.cost.map_duration(0, self.cfg.speed);
                self.running.insert(
                    key,
                    Running {
                        launch,
                        start: now,
                        phase: Phase::Computing { finish_at },
                    },
                );
                self.arm_completion(ctx, key, finish_at);
            }
        } else {
            // Reduce: shuffle from every tracker.
            let req = self.fresh_req();
            self.fetch_reqs.insert(req, key);
            let me = ctx.me().to_string();
            let mut waiting = HashSet::new();
            let sources = if launch.locs.is_empty() {
                self.cfg.peers.clone()
            } else {
                launch.locs.clone()
            };
            for peer in sources {
                waiting.insert(peer.clone());
                ctx.send(
                    &peer,
                    proto::FETCH_REQ,
                    Arc::new(vec![
                        Value::addr(&peer),
                        Value::addr(&me),
                        Value::Int(launch.job),
                        Value::Int(launch.chunk),
                        Value::Int(req),
                    ]),
                );
            }
            self.running.insert(
                key,
                Running {
                    launch,
                    start: now,
                    phase: Phase::Fetching {
                        waiting,
                        seen_maps: HashSet::new(),
                        acc: BTreeMap::new(),
                    },
                },
            );
            // A peer may die mid-shuffle and never answer: abort the
            // attempt after a deadline so the JobTracker reschedules it
            // once the lost map outputs have been re-executed.
            let tag = self.next_timer;
            self.next_timer += 1;
            self.fetch_deadlines.insert(tag, key);
            ctx.set_timer(FETCH_TIMEOUT_MS, tag);
        }
    }

    /// Send a chunk read to `dn` and arm the replica-advance deadline: a
    /// DataNode that died between placement and the read drops the
    /// request silently, so no error tuple will ever answer it.
    fn send_read(&mut self, ctx: &mut Ctx<'_>, key: AttemptKey, dn: &str, chunk: i64) {
        let req = self.fresh_req();
        self.read_reqs.insert(req, key);
        let tag = self.next_timer;
        self.next_timer += 1;
        self.read_deadlines.insert(tag, req);
        ctx.set_timer(READ_TIMEOUT_MS, tag);
        let me = ctx.me().to_string();
        ctx.send(
            dn,
            fsproto::DN_READ,
            Arc::new(vec![Value::addr(&me), Value::Int(req), Value::Int(chunk)]),
        );
    }

    /// Move a reading attempt to its next replica; with replicas
    /// exhausted, report the attempt failed so the JobTracker reschedules
    /// it (a later resubmission refreshes stale replica locations).
    fn advance_replica(&mut self, ctx: &mut Ctx<'_>, key: AttemptKey) {
        let mut retry: Option<(String, i64)> = None;
        let mut give_up = false;
        if let Some(r) = self.running.get_mut(&key) {
            if let Phase::Reading(idx) = r.phase {
                let next = idx + 1;
                if let Some(dn) = r.launch.locs.get(next) {
                    r.phase = Phase::Reading(next);
                    retry = Some((dn.clone(), r.launch.chunk));
                } else {
                    give_up = true;
                }
            }
        }
        if let Some((dn, chunk)) = retry {
            self.send_read(ctx, key, &dn, chunk);
        } else if give_up {
            self.running.remove(&key);
            let me = ctx.me().to_string();
            ctx.send(
                &self.cfg.jobtracker.clone(),
                proto::PROGRESS_REPORT,
                proto::progress_row(key.0, key.1, key.2, &me, "failed", 0, ctx.now() as i64),
            );
            self.drain_queue(ctx);
        }
    }

    fn arm_completion(&mut self, ctx: &mut Ctx<'_>, key: AttemptKey, finish_at: u64) {
        let tag = self.next_timer;
        self.next_timer += 1;
        self.timer_keys.insert(tag, key);
        ctx.set_timer(finish_at.saturating_sub(ctx.now()), tag);
    }

    /// Apply the job's map function to chunk content, partitioned by
    /// reducer.
    fn map_compute(job_type: &str, content: &str, nreduces: usize) -> MapOutput {
        let mut parts: MapOutput = vec![BTreeMap::new(); nreduces.max(1)];
        let emit = |parts: &mut MapOutput, key: &str| {
            let p = (stable_hash(&Value::str(key)) % parts.len() as u64) as usize;
            *parts[p].entry(key.to_string()).or_insert(0) += 1;
        };
        if let Some(pattern) = job_type.strip_prefix("grep:") {
            for line in content.lines() {
                if line.contains(pattern) {
                    emit(&mut parts, line.trim());
                }
            }
        } else {
            for word in content.split_whitespace() {
                emit(&mut parts, word);
            }
        }
        parts
    }

    fn finish_task(&mut self, ctx: &mut Ctx<'_>, key: AttemptKey) {
        let Some(r) = self.running.remove(&key) else {
            return;
        };
        self.completed += 1;
        if r.launch.ty == "reduce" {
            if let Phase::Computing { .. } = r.phase {
                // Output was staged when the shuffle completed.
            }
        }
        let me = ctx.me().to_string();
        let now = ctx.now() as i64;
        ctx.send(
            &self.cfg.jobtracker.clone(),
            proto::PROGRESS_REPORT,
            proto::progress_row(key.0, key.1, key.2, &me, proto::state::DONE, 1000, now),
        );
        self.drain_queue(ctx);
    }

    fn drain_queue(&mut self, ctx: &mut Ctx<'_>) {
        while self.running.len() < self.cfg.slots {
            let Some(next) = self.queued.pop_front() else {
                break;
            };
            self.start_task(ctx, next);
        }
    }

    fn handle_kill(&mut self, ctx: &mut Ctx<'_>, key: AttemptKey) {
        let was_running = self.running.remove(&key).is_some();
        let before = self.queued.len();
        self.queued.retain(|l| (l.job, l.task, l.attempt) != key);
        if was_running || before != self.queued.len() {
            self.killed += 1;
            let me = ctx.me().to_string();
            ctx.send(
                &self.cfg.jobtracker.clone(),
                proto::PROGRESS_REPORT,
                proto::progress_row(
                    key.0,
                    key.1,
                    key.2,
                    &me,
                    proto::state::KILLED,
                    0,
                    ctx.now() as i64,
                ),
            );
        }
        self.drain_queue(ctx);
    }

    /// Serve a shuffle request: this tracker's map outputs for one
    /// partition, grouped by map task so the reducer can deduplicate
    /// speculative copies.
    fn serve_fetch(&self, ctx: &mut Ctx<'_>, from: &str, job: i64, part: i64, req: i64) {
        let mut entries: Vec<Value> = Vec::new();
        for ((j, map_task), parts) in &self.map_outputs {
            if *j != job {
                continue;
            }
            if let Some(counts) = parts.get(part as usize) {
                let pairs: Vec<Value> = counts
                    .iter()
                    .map(|(w, c)| Value::list(vec![Value::str(w), Value::Int(*c)]))
                    .collect();
                entries.push(Value::list(vec![Value::Int(*map_task), Value::list(pairs)]));
            }
        }
        let me = ctx.me().to_string();
        ctx.send(
            from,
            proto::FETCH_RESP,
            Arc::new(vec![
                Value::addr(&me),
                Value::Int(job),
                Value::Int(part),
                Value::Int(req),
                Value::list(entries),
            ]),
        );
    }

    fn on_fetch_resp(&mut self, ctx: &mut Ctx<'_>, tuple: &NetTuple) {
        let row = &tuple.row;
        let (Some(from), Some(req), Some(entries)) = (
            row.first().and_then(|v| v.as_str()).map(str::to_string),
            row.get(3).and_then(|v| v.as_int()),
            row.get(4).and_then(|v| v.as_list()).map(|l| l.to_vec()),
        ) else {
            return;
        };
        let Some(&key) = self.fetch_reqs.get(&req) else {
            return;
        };
        let now = ctx.now();
        let mut shuffle_done: Option<(usize, AttemptKey)> = None;
        if let Some(r) = self.running.get_mut(&key) {
            if let Phase::Fetching {
                waiting,
                seen_maps,
                acc,
            } = &mut r.phase
            {
                waiting.remove(&from);
                for entry in &entries {
                    let Some(pair) = entry.as_list() else {
                        continue;
                    };
                    let (Some(map_task), Some(pairs)) = (
                        pair.first().and_then(|v| v.as_int()),
                        pair.get(1).and_then(|v| v.as_list()),
                    ) else {
                        continue;
                    };
                    // Deduplicate speculative map copies by map-task id.
                    if !seen_maps.insert(map_task) {
                        continue;
                    }
                    for kv in pairs {
                        if let Some(kv) = kv.as_list() {
                            if let (Some(w), Some(c)) = (
                                kv.first().and_then(|v| v.as_str()),
                                kv.get(1).and_then(|v| v.as_int()),
                            ) {
                                *acc.entry(w.to_string()).or_insert(0) += c;
                            }
                        }
                    }
                }
                if waiting.is_empty() {
                    let records: usize = acc.len();
                    shuffle_done = Some((records, key));
                }
            }
        }
        if let Some((records, key)) = shuffle_done {
            self.fetch_reqs.remove(&req);
            let speed = self.cfg.speed;
            let dur = self.cfg.cost.reduce_duration(records, speed);
            let finish_at = now + dur;
            if let Some(r) = self.running.get_mut(&key) {
                let acc = match std::mem::replace(&mut r.phase, Phase::Computing { finish_at }) {
                    Phase::Fetching { acc, .. } => acc,
                    other => {
                        r.phase = other;
                        return;
                    }
                };
                self.outputs.insert((r.launch.job, r.launch.chunk), acc);
            }
            self.arm_completion(ctx, key, finish_at);
        }
    }

    fn on_chunk_data(&mut self, ctx: &mut Ctx<'_>, tuple: &NetTuple) {
        let row = &tuple.row;
        let (Some(req), Some(content)) = (
            row.get(1).and_then(|v| v.as_int()),
            row.get(3).and_then(|v| v.as_str()).map(str::to_string),
        ) else {
            return;
        };
        let Some(key) = self.read_reqs.remove(&req) else {
            return;
        };
        let now = ctx.now();
        let mut arm: Option<(AttemptKey, u64)> = None;
        if let Some(r) = self.running.get_mut(&key) {
            if matches!(r.phase, Phase::Reading(_)) {
                let output = Self::map_compute(
                    &r.launch.job_type,
                    &content,
                    r.launch.nreduces.max(1) as usize,
                );
                self.map_outputs
                    .insert((r.launch.job, r.launch.task), output);
                let dur = self.cfg.cost.map_duration(content.len(), self.cfg.speed);
                let finish_at = now + dur;
                r.phase = Phase::Computing { finish_at };
                arm = Some((key, finish_at));
            }
        }
        if let Some((key, finish_at)) = arm {
            self.arm_completion(ctx, key, finish_at);
        }
    }

    fn on_chunk_err(&mut self, ctx: &mut Ctx<'_>, tuple: &NetTuple) {
        let Some(req) = tuple.row.get(1).and_then(|v| v.as_int()) else {
            return;
        };
        let Some(key) = self.read_reqs.remove(&req) else {
            return;
        };
        self.advance_replica(ctx, key);
    }
}

impl Actor for TaskTracker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.register(ctx);
        self.heartbeat(ctx);
        ctx.set_timer(self.cfg.hb_interval, 0);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        // A restarted tracker lost its running tasks, map outputs, and
        // staged reduce results; the bumped generation tells the
        // JobTracker even if the outage was shorter than its heartbeat
        // timeout.
        self.generation += 1;
        self.running.clear();
        self.queued.clear();
        self.map_outputs.clear();
        self.read_reqs.clear();
        self.fetch_reqs.clear();
        self.fetch_deadlines.clear();
        self.read_deadlines.clear();
        self.outputs.clear();
        self.register(ctx);
        self.heartbeat(ctx);
        ctx.set_timer(self.cfg.hb_interval, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == 0 {
            self.register(ctx);
            self.heartbeat(ctx);
            ctx.set_timer(self.cfg.hb_interval, 0);
            return;
        }
        if let Some(req) = self.read_deadlines.remove(&tag) {
            // Still waiting on this read? The replica is unresponsive —
            // move on. (If the data already arrived this is a no-op.)
            if let Some(key) = self.read_reqs.remove(&req) {
                self.advance_replica(ctx, key);
            }
            return;
        }
        if let Some(key) = self.fetch_deadlines.remove(&tag) {
            let still_fetching = matches!(
                self.running.get(&key),
                Some(Running {
                    phase: Phase::Fetching { .. },
                    ..
                })
            );
            if still_fetching {
                self.running.remove(&key);
                let me = ctx.me().to_string();
                ctx.send(
                    &self.cfg.jobtracker.clone(),
                    proto::PROGRESS_REPORT,
                    proto::progress_row(key.0, key.1, key.2, &me, "failed", 0, ctx.now() as i64),
                );
                self.drain_queue(ctx);
            }
            return;
        }
        if let Some(key) = self.timer_keys.remove(&tag) {
            self.finish_task(ctx, key);
        }
    }

    fn on_tuple(&mut self, ctx: &mut Ctx<'_>, tuple: NetTuple) {
        match tuple.table.as_str() {
            proto::LAUNCH => {
                if let Some(launch) = proto::parse_launch(&tuple.row) {
                    self.start_or_queue(ctx, launch);
                }
            }
            proto::KILL => {
                let row = &tuple.row;
                if let (Some(j), Some(t), Some(a)) = (
                    row.get(1).and_then(|v| v.as_int()),
                    row.get(2).and_then(|v| v.as_int()),
                    row.get(3).and_then(|v| v.as_int()),
                ) {
                    self.handle_kill(ctx, (j, t, a));
                }
            }
            proto::FETCH_REQ => {
                let row = &tuple.row;
                if let (Some(from), Some(job), Some(part), Some(req)) = (
                    row.get(1).and_then(|v| v.as_str()).map(str::to_string),
                    row.get(2).and_then(|v| v.as_int()),
                    row.get(3).and_then(|v| v.as_int()),
                    row.get(4).and_then(|v| v.as_int()),
                ) {
                    self.serve_fetch(ctx, &from, job, part, req);
                }
            }
            proto::FETCH_RESP => self.on_fetch_resp(ctx, &tuple),
            fsproto::DN_DATA => self.on_chunk_data(ctx, &tuple),
            fsproto::DN_ERR => self.on_chunk_err(ctx, &tuple),
            _ => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_compute_partitions_every_word_once() {
        let parts = TaskTracker::map_compute("wordcount", "a b a c a b", 4);
        let total: i64 = parts.iter().flat_map(|p| p.values()).sum();
        assert_eq!(total, 6);
        let a_count: i64 = parts.iter().filter_map(|p| p.get("a")).sum();
        assert_eq!(a_count, 3);
        // Same word always lands in the same partition.
        let with_a: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.contains_key("a"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(with_a.len(), 1);
    }

    #[test]
    fn grep_compute_matches_lines() {
        let text = "red fox\nblue bird\nred sky";
        let parts = TaskTracker::map_compute("grep:red", text, 2);
        let total: i64 = parts.iter().flat_map(|p| p.values()).sum();
        assert_eq!(total, 2);
        assert!(parts.iter().any(|p| p.contains_key("red fox")));
    }

    #[test]
    fn zero_reduces_still_uses_one_partition() {
        let parts = TaskTracker::map_compute("wordcount", "x", 0);
        assert_eq!(parts.len(), 1);
    }
}
