//! The benchmark-side actor wrapper and the probe it reports to.
//!
//! Every node of a benchmark cluster is a [`Wrapped`] actor around the
//! real one. The wrapper forwards each callback, and `as_any`, to the
//! inner actor, so `Sim::with_actor::<OverlogActor>`,
//! `set_plan_options_all` and `overlog_state_fingerprint` see the inner
//! actor unchanged. Untraced, it only counts the chunk-replica reports a
//! NameNode receives (an end-to-end metric). Traced, it also times each
//! callback and keeps a span per callback, tagged with the client op that
//! was in flight when it ran.

use boom_overlog::NetTuple;
use boom_simnet::{Actor, Ctx};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A node's role; each role is one layer of the per-layer report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// The Overlog NameNode (`namenode_actor`).
    NameNode,
    /// A Paxos-replicated Overlog NameNode (`durable_replicated_nn_actor`).
    Replicated,
    /// The Overlog JobTracker (`jobtracker_actor_cfg`).
    JobTracker,
    /// A BOOM-FS DataNode.
    DataNode,
    /// A BOOM-MR TaskTracker.
    TaskTracker,
    /// The client node's response-collecting actor.
    Client,
}

impl Role {
    /// Every role, in report order.
    pub const ALL: [Role; 6] = [
        Role::NameNode,
        Role::Replicated,
        Role::JobTracker,
        Role::DataNode,
        Role::TaskTracker,
        Role::Client,
    ];

    /// The layer name (a module of the repository) this role reports as.
    pub fn layer(self) -> &'static str {
        match self {
            Role::NameNode => "fs.namenode",
            Role::Replicated => "core.replicated",
            Role::JobTracker => "mr.jobtracker",
            Role::DataNode => "fs.datanode",
            Role::TaskTracker => "mr.tasktracker",
            Role::Client => "fs.client",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }

    fn receives_reports(self) -> bool {
        matches!(self, Role::NameNode | Role::Replicated)
    }
}

/// One recorded span: an actor callback or a client op.
#[derive(Debug, Clone)]
pub struct Span {
    /// Node index (into [`Probe::nodes`]); `None` for a client op.
    pub node: Option<u32>,
    /// Callback kind or op name.
    pub name: &'static str,
    /// Start, host ns since the probe's epoch.
    pub start_ns: u64,
    /// Duration, host ns.
    pub dur_ns: u64,
    /// The client op this span belongs to (its own id for an op span);
    /// 0 means background work during think time or between ops.
    pub op: u64,
}

/// Per-role callback totals from the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoleTime {
    /// Callbacks run.
    pub callbacks: u64,
    /// Host time inside them.
    pub busy: Duration,
}

#[derive(Debug)]
struct State {
    epoch: Instant,
    /// Client op in flight (0 = none: background).
    cause: u64,
    next_op: u64,
    nodes: Vec<(String, Role)>,
    roles: [RoleTime; 6],
    /// Host ns per NameNode callback that carried chunk reports.
    report_batches: Vec<u64>,
    spans: Vec<Span>,
    spans_dropped: u64,
}

/// Spans kept per run; later ones are counted, never silently lost.
const SPAN_CAP: usize = 150_000;

/// Shared sink for every wrapper of one cluster.
#[derive(Debug, Clone)]
pub struct Probe {
    tracing: Arc<AtomicBool>,
    reports: Arc<AtomicU64>,
    state: Arc<Mutex<State>>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            tracing: Arc::new(AtomicBool::new(false)),
            reports: Arc::new(AtomicU64::new(0)),
            state: Arc::new(Mutex::new(State {
                epoch: Instant::now(),
                cause: 0,
                next_op: 1,
                nodes: Vec::new(),
                roles: [RoleTime::default(); 6],
                report_batches: Vec::new(),
                spans: Vec::new(),
                spans_dropped: 0,
            })),
        }
    }
}

impl Probe {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("probe mutex poisoned by a panicking callback")
    }

    /// Turn callback timing on or off.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Is callback timing on?
    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// `hb_chunk_report` tuples delivered to NameNodes so far.
    pub fn reports_in(&self) -> u64 {
        self.reports.load(Ordering::Relaxed)
    }

    /// Nodes in registration order, with their roles.
    pub fn nodes(&self) -> Vec<(String, Role)> {
        self.lock().nodes.clone()
    }

    /// Callback totals per role.
    pub fn role_times(&self) -> Vec<(Role, RoleTime)> {
        let s = self.lock();
        Role::ALL.iter().map(|&r| (r, s.roles[r.idx()])).collect()
    }

    /// Host ns of each NameNode callback that carried chunk reports.
    pub fn report_batches(&self) -> Vec<u64> {
        self.lock().report_batches.clone()
    }

    /// Take the recorded spans and the count of spans past the cap.
    pub fn take_spans(&self) -> (Vec<Span>, u64) {
        let mut s = self.lock();
        (
            std::mem::take(&mut s.spans),
            std::mem::take(&mut s.spans_dropped),
        )
    }

    fn register(&self, name: &str, role: Role) -> u32 {
        let mut s = self.lock();
        s.nodes.push((name.to_string(), role));
        (s.nodes.len() - 1) as u32
    }

    /// Open a client-op span; callbacks until [`Probe::end_op`] belong
    /// to it. Returns its id and start (0 when not tracing).
    pub fn begin_op(&self) -> (u64, u64) {
        if !self.tracing() {
            return (0, 0);
        }
        let mut s = self.lock();
        let id = s.next_op;
        s.next_op += 1;
        s.cause = id;
        (id, s.epoch.elapsed().as_nanos() as u64)
    }

    /// Close the client-op span opened by [`Probe::begin_op`].
    pub fn end_op(&self, name: &'static str, (id, start_ns): (u64, u64)) {
        if id == 0 {
            return;
        }
        let mut s = self.lock();
        s.cause = 0;
        let end = s.epoch.elapsed().as_nanos() as u64;
        push_span(
            &mut s,
            Span {
                node: None,
                name,
                start_ns,
                dur_ns: end.saturating_sub(start_ns),
                op: id,
            },
        );
    }

    fn record(
        &self,
        node: u32,
        role: Role,
        name: &'static str,
        t0: Instant,
        dur: Duration,
        reports: bool,
    ) {
        let mut s = self.lock();
        let rt = &mut s.roles[role.idx()];
        rt.callbacks += 1;
        rt.busy += dur;
        let dur_ns = dur.as_nanos() as u64;
        if reports {
            s.report_batches.push(dur_ns);
        }
        let start_ns = t0.saturating_duration_since(s.epoch).as_nanos() as u64;
        let op = s.cause;
        push_span(
            &mut s,
            Span {
                node: Some(node),
                name,
                start_ns,
                dur_ns,
                op,
            },
        );
    }

    /// Wrap `actor` for node `name`, registering the node.
    pub fn wrap(&self, name: &str, role: Role, actor: Box<dyn Actor>) -> Wrapped {
        Wrapped {
            node: self.register(name, role),
            role,
            inner: actor,
            probe: self.clone(),
        }
    }
}

fn push_span(s: &mut State, span: Span) {
    if s.spans.len() < SPAN_CAP {
        s.spans.push(span);
    } else {
        s.spans_dropped += 1;
    }
}

/// A transparent actor wrapper (see the module docs).
pub struct Wrapped {
    node: u32,
    role: Role,
    inner: Box<dyn Actor>,
    probe: Probe,
}

impl Wrapped {
    fn timed(&mut self, name: &'static str, reports: bool, f: impl FnOnce(&mut dyn Actor)) {
        if !self.probe.tracing() {
            return f(&mut *self.inner);
        }
        let t0 = Instant::now();
        f(&mut *self.inner);
        let dur = t0.elapsed();
        self.probe
            .record(self.node, self.role, name, t0, dur, reports);
    }
}

impl Actor for Wrapped {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.timed("on_start", false, |a| a.on_start(ctx));
    }

    fn on_tuple(&mut self, ctx: &mut Ctx<'_>, tuple: NetTuple) {
        self.on_tuples(ctx, vec![tuple]);
    }

    fn on_tuples(&mut self, ctx: &mut Ctx<'_>, tuples: Vec<NetTuple>) {
        let mut reports = 0;
        if self.role.receives_reports() {
            reports = tuples
                .iter()
                .filter(|t| t.table == boom_fs::proto::HB_CHUNK_REPORT)
                .count() as u64;
            self.probe.reports.fetch_add(reports, Ordering::Relaxed);
        }
        self.timed("on_tuples", reports > 0, |a| a.on_tuples(ctx, tuples));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.timed("on_timer", false, |a| a.on_timer(ctx, tag));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.timed("on_restart", false, |a| a.on_restart(ctx));
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }
}
