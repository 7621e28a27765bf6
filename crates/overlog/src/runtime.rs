//! The Overlog runtime: timestep driver and semi-naive stratified evaluator.
//!
//! One [`OverlogRuntime`] corresponds to one JOL instance on one node. The
//! host (a simulator actor, a test, or an example binary) drives it:
//!
//! 1. queue external tuples with [`OverlogRuntime::insert`] /
//!    [`OverlogRuntime::delete`] / network deliveries,
//! 2. call [`OverlogRuntime::tick`] with the current virtual time,
//! 3. deliver the returned [`NetTuple`]s to their destination runtimes.
//!
//! ## Timestep semantics
//!
//! Within a tick, deductive rules run to fixpoint (semi-naive, stratum by
//! stratum). Three kinds of derivation cross the tick boundary instead of
//! taking effect immediately (Dedalus-style induction):
//!
//! * **deletions** from `delete` rules,
//! * **insertions into materialized tables by event-triggered rules** —
//!   every rule in a tick reads a consistent pre-state, and programs may
//!   check a table (`notin fqpath(...)`) and update it in the same rule
//!   body without a stratification cycle,
//! * **tuples addressed to remote nodes**, which are shipped at the
//!   boundary.
//!
//! Event-table tuples live for exactly one tick; event-to-event rules fire
//! within the tick. Pure materialized-to-materialized rules are *views*,
//! maintained immediately.
//!
//! ## View maintenance
//!
//! Rules whose head and entire body are materialized (and carry no location
//! specifier) define *views*. Views are maintained incrementally on
//! insertion. A deletion or key-overwrite of a view input affects only the
//! views that depend on it; those are updated in place by the strategy
//! [`crate::analysis::maint`] certified for them, or rebuilt (always, with
//! `PlanOptions::maintenance` off).
//!
//! ## One write path, one delta log
//!
//! Every change a tick commits goes through one write path (`publish`):
//! semi-naive derivations, the maintainer's updates, and a view rebuild,
//! which publishes its exact before/after diff. The write path feeds the
//! write-ahead log, the delta taps, the watch trace and the tick's single
//! per-table insert log. That log is the fixpoint's semi-naive delta and
//! the maintainer's input alike, so rows that maintenance or a rebuild
//! adds before the fixpoint seed it like any other insert.

use crate::analysis::maint::{AnchorEval, Bind, DredRule, KeySource, SourceDep, ViewMaint};
use crate::analysis::{self, Diagnostic, SourceMap};
use crate::ast::AggKind;
use crate::ast::{Rule, Span, Statement, TableDecl, TableKind};
use crate::builtins::Builtins;
use crate::error::{OverlogError, Result};
use crate::fx::{FxHashMap, FxHashSet};
use crate::ids::{IdSet, TableId, TableIds};
use crate::kernel::{self, KCheck, KExpr, KOp, Kernel};
use crate::parser::parse_program;
use crate::plan::{self, CHeadArg, CompiledRule, Plan, Variant};
use crate::table::{Candidates, ColGroup, InsertOutcome, Table};
use crate::value::{Row, TypeTag, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// A tuple addressed to another node, produced by a rule whose head carries
/// a location specifier.
#[derive(Debug, Clone, PartialEq)]
pub struct NetTuple {
    /// Destination address (matches another runtime's `addr`).
    pub dest: Arc<str>,
    /// Target table at the destination.
    pub table: String,
    /// The tuple.
    pub row: Row,
}

/// What a single tick did.
#[derive(Debug, Default)]
pub struct TickResult {
    /// Tuples to deliver to other nodes.
    pub sends: Vec<NetTuple>,
    /// Number of rule derivations performed.
    pub derivations: u64,
    /// Number of tuples deleted at the tick boundary.
    pub deletions: usize,
}

/// Capacity of the watch trace's ring buffer: older records are evicted
/// and counted in [`TraceDrain::dropped`].
const TRACE_CAP: usize = 100_000;

/// Cap on retained provenance records: derivations past it are counted in
/// [`OverlogRuntime::prov_drops`] instead of stored.
const PROV_CAP: usize = 200_000;

/// Kind of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Tuple inserted (new or replacing).
    Insert,
    /// Tuple deleted.
    Delete,
    /// Tuple shipped to a remote node.
    Send,
}

/// One record in the watch trace (the paper's monitoring hook).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Tick counter when the event happened.
    pub tick: u64,
    /// Virtual time of the tick.
    pub time: u64,
    /// Affected table.
    pub table: String,
    /// The tuple.
    pub row: Row,
    /// Operation kind.
    pub op: TraceOp,
}

/// A drained watch trace plus the number of records lost to the ring
/// buffer's capacity since the previous drain.
#[derive(Debug, Default)]
pub struct TraceDrain {
    /// The surviving records, oldest first.
    pub events: Vec<TraceEvent>,
    /// Records evicted because the buffer hit its capacity — silently lost
    /// history the consumer must account for.
    pub dropped: u64,
}

/// One why-provenance record: a derived tuple, the rule that produced it,
/// and the positive body tuples that matched (the *first witness* — later
/// re-derivations of the same tuple are not recorded).
#[derive(Debug, Clone)]
pub struct ProvRecord {
    /// Tick counter when the derivation happened.
    pub tick: u64,
    /// Virtual time of the tick.
    pub time: u64,
    /// Label of the deriving rule. Aggregate rules record empty `inputs`
    /// (their support is the whole group).
    pub rule: String,
    /// Head table of the derivation.
    pub table: String,
    /// The derived tuple.
    pub row: Row,
    /// The positive body tuples joined to produce the head, in scan order.
    pub inputs: Vec<(String, Row)>,
}

/// Per-rule evaluation statistics — the rule-level profiler. All fields
/// except `eval_ns` are deterministic for a fixed program and input
/// schedule; `eval_ns` is wall-clock and varies run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Effective derivations (new tuple, remote send, deferred insert, or
    /// deferred delete).
    pub fires: u64,
    /// Head rows produced by body evaluation before set-semantics dedup —
    /// the rule's join fanout.
    pub attempts: u64,
    /// Delta rows consumed by this rule's semi-naive variants.
    pub delta_in: u64,
    /// Scoped evaluations driven by the incremental view maintainer
    /// (group re-folds, keyed re-derivations, DRed passes) — work that
    /// replaced a from-scratch recompute of this rule's head. An
    /// aggregate view's scoped stratum-entry fold counts here too.
    pub maint_evals: u64,
    /// Wall-clock nanoseconds spent evaluating the body, excluding head
    /// dispatch (non-deterministic, excluded from reproducibility checks).
    pub eval_ns: u64,
    /// Variant evaluations of this rule: tick rounds, aggregate folds,
    /// maintenance and view rebuilds. Every evaluation runs a compiled
    /// kernel ([`crate::kernel`]), so this counts them all.
    pub kernel_evals: u64,
}

/// Tick-granularity evaluation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Ticks executed.
    pub ticks: u64,
    /// Total semi-naive fixpoint rounds across all strata and ticks.
    pub fixpoint_rounds: u64,
    /// Full view recomputation *passes* (each pass clears and rebuilds
    /// some set of view tables from scratch). With maintenance on, only
    /// rounds that fell back to recomputation count here.
    pub view_recomputes: u64,
    /// Maintenance passes in which at least one affected view was updated
    /// in place from its input deltas instead of recomputed.
    pub maint_rounds: u64,
    /// Views updated in place across all maintenance passes.
    pub views_maintained: u64,
    /// Rows re-inserted by full view recomputation passes — the work the
    /// maintainer exists to avoid.
    pub view_rows_rebuilt: u64,
    /// View rows the incremental maintainer deleted (retracted keys,
    /// emptied groups, DRed over-deletions).
    pub maint_rows_retracted: u64,
    /// View rows the incremental maintainer inserted or overwrote
    /// (re-derived keys, re-folded groups, DRed re-derivations).
    pub maint_rows_rederived: u64,
    /// Secondary-index bucket entries written, removed or moved, summed
    /// over every table. Each row mutation costs at most three per index,
    /// so this tracks the deltas applied, not the size of the buckets.
    pub index_entries_touched: u64,
    /// Aggregate groups folded by the scoped stratum-entry evaluation:
    /// one per touched group key, a group that folds empty included.
    pub agg_folds_entry: u64,
    /// Aggregate groups re-folded by a maintenance pass (the end-of-tick
    /// pass, or the pre-fixpoint pass after host deletions): one per
    /// group key the delta logs name past the view's consumption marks.
    pub agg_folds_maint: u64,
    /// Aggregate groups produced by a from-scratch fold: a view rebuild
    /// (the recompute fallback, or `maintenance: false`), or an
    /// aggregate evaluated whole at stratum entry or after the fixpoint
    /// (uncertified, unscopable or inductive).
    pub agg_folds_rebuild: u64,
}

#[derive(Debug)]
enum Pending {
    Insert(TableId, Row),
    Delete(TableId, Row),
}

/// One committed change to a table: the unit the write path publishes
/// (see [`OverlogRuntime::publish`]).
#[derive(Debug, Clone, Copy)]
enum Change<'a> {
    /// A row that was not in the table.
    Insert(&'a Row),
    /// A key overwrite: `(old, new)`.
    Overwrite(&'a Row, &'a Row),
    /// A row that left the table.
    Delete(&'a Row),
}

impl<'a> Change<'a> {
    /// The row leaving the table, if any.
    fn leaving(self) -> Option<&'a Row> {
        match self {
            Change::Overwrite(old, _) | Change::Delete(old) => Some(old),
            Change::Insert(_) => None,
        }
    }

    /// The row entering the table, if any.
    fn entering(self) -> Option<&'a Row> {
        match self {
            Change::Insert(new) | Change::Overwrite(_, new) => Some(new),
            Change::Delete(_) => None,
        }
    }
}

#[derive(Debug)]
struct TimerState {
    tid: TableId,
    interval: u64,
    next: u64,
}

/// What happened to a durable table at tick commit: the unit of the
/// write-ahead log (see [`OverlogRuntime::take_commit_delta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOp {
    /// Row inserted (new or key-overwrite; replay re-applies the overwrite).
    Insert,
    /// Row deleted (exact match).
    Delete,
}

/// One committed delta of a durable table. Replaying a log of these with
/// [`OverlogRuntime::restore`] reproduces the base-table state exactly:
/// rows are logged post-coercion, and primary-key overwrite semantics make
/// physical replay idempotent against the snapshot it starts from.
#[derive(Debug, Clone)]
pub struct CommitRecord {
    /// Table name (names, not ids: the log outlives the runtime).
    pub table: String,
    /// The row as stored (coerced).
    pub row: Row,
    /// Insert or delete.
    pub op: CommitOp,
}

/// Table-name prefixes reserved for the *observation plane*: tables
/// generated by boom-trace monitors (`boomt_`) and boom-serve
/// subscriptions (`srv_`). The observe-never-perturb contract says their
/// presence must not change application state, the write-ahead log, or
/// recovery behavior — so observation tables are never marked durable
/// (they are rebuilt by re-installing the monitor / re-subscribing) and
/// state fingerprints exclude them.
pub const OBSERVATION_PREFIXES: [&str; 2] = ["boomt_", "srv_"];

/// Whether a table belongs to the observation plane (see
/// [`OBSERVATION_PREFIXES`]).
pub fn is_observation_table(name: &str) -> bool {
    OBSERVATION_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// One change record drained from a *delta tap* (see
/// [`OverlogRuntime::add_tap`]): the serving tier's unit of subscription
/// propagation. Unlike [`CommitRecord`] (the WAL unit, inserts as stored),
/// a tap reports retractions explicitly: a key-overwrite emits
/// `Delete(old)` then `Insert(new)`, so replaying a tap stream against a
/// full-row mirror reproduces the table exactly.
#[derive(Debug, Clone)]
pub struct TapRecord {
    /// Table name (names, not ids: the stream outlives the runtime).
    pub table: String,
    /// The row as stored (coerced).
    pub row: Row,
    /// Insert or delete (retraction).
    pub op: CommitOp,
    /// Tick ordinal at which the change committed.
    pub tick: u64,
    /// Virtual time of the committing tick — the timestamp propagation
    /// latency is measured against.
    pub time: u64,
}

/// A checkpoint of a runtime's durable state: full contents of every
/// durable table (sorted, for deterministic bytes) plus the values of all
/// tracked host counters (see [`OverlogRuntime::register_counter`]).
#[derive(Debug, Clone, Default)]
pub struct RuntimeSnapshot {
    /// `(table name, sorted rows)`, sorted by table name.
    pub tables: Vec<(String, Vec<Row>)>,
    /// `(counter name, next value)`, in registration order.
    pub counters: Vec<(String, i64)>,
}

impl RuntimeSnapshot {
    /// Total rows across all captured tables.
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(|(_, rows)| rows.len()).sum()
    }
}

/// Which tables are marked durable (see
/// [`OverlogRuntime::set_durable_all`]).
#[derive(Debug, Clone, Default, PartialEq)]
enum DurableMode {
    /// No capture: the WAL hooks reduce to one always-false bitset test.
    #[default]
    Off,
    /// Every eligible (non-event, non-view, non-`me`) table.
    All,
    /// Just these tables (ineligible names are ignored).
    Named(Vec<String>),
}

/// A single-node Overlog runtime (the JOL equivalent).
pub struct OverlogRuntime {
    addr: Arc<str>,
    decls: HashMap<String, TableDecl>,
    /// Table-name interner: `tables` is indexed by [`TableId`], so
    /// `ids.len() == tables.len()` always holds (ids are only assigned
    /// when a table is created).
    ids: TableIds,
    tables: Vec<Table>,
    rule_sources: Vec<Rule>,
    /// Program texts successfully loaded, in order (static re-analysis).
    sources: Vec<String>,
    /// Which contiguous `rule_sources` range each loaded source produced
    /// (`(start, len)`, parallel to `sources`) — the unit
    /// [`OverlogRuntime::unload`] removes.
    source_rule_spans: Vec<(usize, usize)>,
    /// Tables the host has inserted into or deleted from directly; the
    /// analyzer treats them as externally filled.
    host_inserted: HashSet<String>,
    plan: Arc<Plan>,
    plan_opts: plan::PlanOptions,
    /// Ground facts loaded per table — feeds the planner's cardinality
    /// model so join orders reflect actual configuration sizes.
    fact_counts: HashMap<String, usize>,
    builtins: Builtins,
    timers: Vec<TimerState>,
    /// Watched names (API surface; may include not-yet-declared tables).
    watch_names: HashSet<String>,
    /// Ids of watched tables — the hot-path membership test.
    watch_ids: IdSet,
    pending: VecDeque<Pending>,
    trace: VecDeque<TraceEvent>,
    /// Records evicted from `trace` since the last drain.
    trace_dropped: u64,
    /// Count every derivation into the trace, not just watched tables
    /// (the "monitoring revision" toggle measured by experiment E7).
    trace_all: bool,
    /// Why-provenance capture (off by default; see [`ProvRecord`]).
    prov_on: bool,
    prov: Vec<ProvRecord>,
    prov_seen: FxHashSet<(TableId, Row)>,
    prov_dropped: u64,
    budget: u64,
    rule_stats: Vec<RuleStats>,
    eval_stats: EvalStats,
    tick_count: u64,
    now: u64,
    /// Pooled tick workspace: taken at tick start, restored at tick end,
    /// so the per-table delta logs and dedup sets keep their allocations
    /// across ticks instead of being rebuilt.
    scratch: TickCtx,
    /// Durable marking in effect; `durable_ids` is the compiled form.
    durable_mode: DurableMode,
    /// Ids of the tables whose committed deltas are captured. Empty when
    /// durability is off — the hot-path hooks are one bitset test.
    durable_ids: IdSet,
    /// Committed deltas since the last [`OverlogRuntime::take_commit_delta`]
    /// drain (table ids resolve to names at drain time, off the hot path).
    commit_log: Vec<(TableId, Row, CommitOp)>,
    /// Tapped table names (see [`OverlogRuntime::add_tap`]); `tap_ids` is
    /// the compiled hot-path membership test, empty when no taps exist.
    tap_names: HashSet<String>,
    tap_ids: IdSet,
    /// Tap records since the last [`OverlogRuntime::take_tap_delta`] drain.
    tap_log: Vec<(TableId, Row, CommitOp, u64, u64)>,
    /// Host counters registered via [`OverlogRuntime::register_counter`],
    /// snapshot and restored with durable state.
    counters: Vec<(String, Arc<AtomicI64>)>,
}

impl std::fmt::Debug for OverlogRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverlogRuntime")
            .field("addr", &self.addr)
            .field("tables", &self.tables.len())
            .field("rules", &self.plan.rules.len())
            .field("tick", &self.tick_count)
            .finish()
    }
}

/// Per-tick workspace. The tick keeps one insert log per table, `added`,
/// written only by the write path ([`OverlogRuntime::publish`]): every row
/// that entered a table this tick, as stored. The semi-naive delta is
/// *zero-copy*: a round's delta for table `t` is the slice
/// `added[t][cursor[t]..hi[t]]` — references move, rows are never
/// re-cloned into round buffers. The view maintainer reads the same log.
#[derive(Default)]
struct TickCtx {
    /// Append-only per-table log of rows that entered a table this tick
    /// (new inserts and the new side of key-overwrites), indexed by
    /// [`TableId`]. Rows the queue inserted and then removed again are
    /// dropped from it before the pre-fixpoint maintenance pass.
    added: Vec<Vec<Row>>,
    /// Per-table read position of the current semi-naive round; reset to 0
    /// at stratum entry (each stratum reprocesses the whole tick's log).
    cursor: Vec<usize>,
    /// Per-table end of the current round's delta slice (the log length
    /// snapshotted at round start; rows appended during the round are the
    /// next round's delta).
    hi: Vec<usize>,
    deferred_deletes: Vec<(TableId, Row)>,
    deferred_inserts: Vec<(TableId, Row)>,
    deferred_seen: FxHashSet<(TableId, Row)>,
    /// Dedup scratch for applying `deferred_deletes`.
    delete_seen: FxHashSet<(TableId, Row)>,
    outbox: Vec<NetTuple>,
    sent: FxHashSet<(Arc<str>, TableId, Row)>,
    derivations: u64,
    attempts: u64,
    /// View inputs that *shrank* this tick (deletions, key-overwrites):
    /// every view depending on one of these must be rebuilt.
    shrink_dirty: IdSet,
    /// Negated view inputs that *grew* this tick: only non-monotonic
    /// views (negation/aggregation in their closure) can lose tuples to
    /// growth, so the CALM-certified ones skip the rebuild.
    grow_dirty: IdSet,
    changed_tables: IdSet,
    /// Per-table log of rows that *left* a view input this tick (deletions
    /// and the old side of key-overwrites), fed by the write path for view
    /// inputs only. Only the maintenance executor reads it, to scope its
    /// work, so it is fed whatever [`plan::PlanOptions::maintenance`]
    /// says.
    m_del: Vec<Vec<Row>>,
    /// Per-`(view, source)` consumption marks into `added`/`m_del`: how
    /// far the view's maintenance has already read each source's logs.
    /// Three readers consume them in turn, each advancing the marks past
    /// what it read: the pre-fixpoint pass after host deletions, an
    /// aggregate view's scoped stratum-entry fold, and the end-of-tick
    /// pass, which reads the rest. Reset every tick — the logs are
    /// per-tick.
    view_marks: FxHashMap<(TableId, TableId), (usize, usize)>,
    /// `(view, group key)` of every stored aggregate group the scoped
    /// stratum-entry fold found empty. That fold emits nothing for them,
    /// so their stale rows stay visible until the end-of-tick pass
    /// deletes them (see [`OverlogRuntime::maintain_keys`]).
    emptied: Vec<(TableId, Vec<Value>)>,
    /// Pooled evaluator buffers (see [`EvalScratch`]); cleared per use,
    /// not per tick.
    eval: EvalScratch,
    /// Round scratch: `(rule id, variant index, delta table index)` of the
    /// variants selected to run this round, sorted to match sweep order.
    pairs: Vec<(usize, usize, usize)>,
    /// Per-round vectorized delta-gate cache, keyed by `(delta table
    /// index, gate column)`: the round's delta slice for a table is
    /// grouped *once* per gated column, then every variant gating on
    /// that column answers its selection with one hash lookup instead
    /// of an O(delta) scan. Cleared at round start — a new round means
    /// new slices.
    gates: FxHashMap<(usize, usize), ColGroup>,
}

/// The positive body tuples behind one derived row, in scan order: its
/// why-provenance witness (see [`ProvRecord::inputs`]).
type Witness = Vec<(String, Row)>;

/// Pooled per-evaluation buffers: the kernel registers and the index
/// probe-key scratch. Most rule evaluations derive nothing (a delta row
/// rarely matches more than a few of the rules scanning its table), and
/// with these pooled such evaluations allocate nothing at all.
#[derive(Default)]
struct EvalScratch {
    probe_vals: Vec<Value>,
    /// Typed probe-key scratch for `i64` index lookups.
    int_vals: Vec<i64>,
    /// Kernel assignment registers. (The candidate-row stack is a
    /// per-call `Vec<&Row>` — it borrows table rows, so it cannot live in
    /// the pooled scratch.)
    kregs: Vec<Value>,
    /// Head values the last aggregate kernel emitted, row after row
    /// (see [`Emit::Flat`]).
    flat: Vec<Value>,
}

impl TickCtx {
    /// Clear for a fresh tick over `ntables` tables, keeping allocations.
    fn reset(&mut self, ntables: usize) {
        self.added.iter_mut().for_each(Vec::clear);
        self.added.resize_with(ntables, Vec::new);
        self.cursor.clear();
        self.cursor.resize(ntables, 0);
        self.hi.clear();
        self.hi.resize(ntables, 0);
        self.deferred_deletes.clear();
        self.deferred_inserts.clear();
        // Guarded clears: a pooled hash set keeps its high-water capacity,
        // and clearing one sweeps that capacity even when it holds nothing.
        if !self.deferred_seen.is_empty() {
            self.deferred_seen.clear();
        }
        if !self.delete_seen.is_empty() {
            self.delete_seen.clear();
        }
        self.outbox.clear();
        if !self.sent.is_empty() {
            self.sent.clear();
        }
        self.derivations = 0;
        self.attempts = 0;
        self.shrink_dirty.clear();
        self.grow_dirty.clear();
        self.changed_tables.clear();
        self.m_del.iter_mut().for_each(Vec::clear);
        self.m_del.resize_with(ntables, Vec::new);
        if !self.view_marks.is_empty() {
            self.view_marks.clear();
        }
        self.emptied.clear();
    }
}

impl OverlogRuntime {
    /// Create a runtime identified by a node address.
    ///
    /// The runtime pre-declares the table `me(Addr)` holding its own
    /// address, so programs can bind their location:
    /// `response(@Src, Id) :- request(Src, Id), me(Me);`.
    pub fn new(addr: impl AsRef<str>) -> Self {
        let addr: Arc<str> = Arc::from(addr.as_ref());
        let mut rt = OverlogRuntime {
            addr: addr.clone(),
            decls: HashMap::new(),
            ids: TableIds::new(),
            tables: Vec::new(),
            rule_sources: Vec::new(),
            sources: Vec::new(),
            source_rule_spans: Vec::new(),
            host_inserted: HashSet::new(),
            plan: Arc::new(Plan::default()),
            plan_opts: plan::PlanOptions::default(),
            fact_counts: HashMap::new(),
            builtins: Builtins::standard(),
            timers: Vec::new(),
            watch_names: HashSet::new(),
            watch_ids: IdSet::new(),
            pending: VecDeque::new(),
            trace: VecDeque::new(),
            trace_dropped: 0,
            trace_all: false,
            prov_on: false,
            prov: Vec::new(),
            prov_seen: FxHashSet::default(),
            prov_dropped: 0,
            budget: 5_000_000,
            rule_stats: Vec::new(),
            eval_stats: EvalStats::default(),
            tick_count: 0,
            now: 0,
            scratch: TickCtx::default(),
            durable_mode: DurableMode::Off,
            durable_ids: IdSet::new(),
            commit_log: Vec::new(),
            tap_names: HashSet::new(),
            tap_ids: IdSet::new(),
            tap_log: Vec::new(),
            counters: Vec::new(),
        };
        let me = TableDecl {
            name: "me".into(),
            keys: None,
            types: vec![TypeTag::Addr],
            kind: TableKind::Materialized,
            span: Span::default(),
        };
        rt.declare_table(me);
        rt.tables[0]
            .insert(Arc::new(vec![Value::Addr(addr)]))
            .expect("me fact matches its own declaration");
        rt
    }

    /// Create the table for `d`, assigning the next dense [`TableId`]:
    /// `ids` and `tables` grow in lockstep, so every interned name has a
    /// table at `tid.idx()`.
    fn declare_table(&mut self, d: TableDecl) {
        let tid = self.ids.intern(&d.name);
        debug_assert_eq!(
            tid.idx(),
            self.tables.len(),
            "table ids are assigned in creation order"
        );
        if self.watch_names.contains(&d.name) {
            self.watch_ids.insert(tid);
        }
        self.decls.insert(d.name.clone(), d.clone());
        self.tables.push(Table::new(d));
    }

    /// This runtime's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Virtual time of the last tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of ticks executed.
    pub fn ticks(&self) -> u64 {
        self.tick_count
    }

    /// Set the per-tick derivation budget (guards against diverging
    /// recursion through arithmetic).
    pub fn set_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// Enable or disable tracing of *every* derivation (experiment E7's
    /// monitoring toggle). `watch`ed tables are always traced.
    pub fn set_trace_all(&mut self, on: bool) {
        self.trace_all = on;
    }

    /// Register a host-provided builtin function.
    pub fn register_builtin<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    {
        self.builtins.register(name, f);
    }

    /// Load an Overlog program, merging its declarations and rules with
    /// everything loaded before. Facts are queued for the next tick.
    pub fn load(&mut self, src: &str) -> Result<()> {
        let prog = parse_program(src)?;
        // Merge declarations first so facts and rules can target them.
        for stmt in &prog.statements {
            match stmt {
                Statement::Define(d) => {
                    if let Some(existing) = self.decls.get(&d.name) {
                        if !existing.same_schema(d) {
                            return Err(OverlogError::Redefinition {
                                table: d.name.clone(),
                                span: d.span,
                            });
                        }
                    } else {
                        self.declare_table(d.clone());
                    }
                }
                Statement::Timer {
                    name,
                    interval_ms,
                    span,
                } => {
                    if !self.decls.contains_key(name) {
                        self.declare_table(TableDecl {
                            name: name.clone(),
                            keys: None,
                            types: vec![TypeTag::Int],
                            kind: TableKind::Event,
                            span: *span,
                        });
                    } else {
                        let d = &self.decls[name];
                        if d.kind != TableKind::Event || d.arity() != 1 {
                            return Err(OverlogError::Redefinition {
                                table: name.clone(),
                                span: *span,
                            });
                        }
                    }
                    self.timers.push(TimerState {
                        tid: self.ids.get(name).expect("timer table declared above"),
                        interval: *interval_ms,
                        next: 0,
                    });
                }
                _ => {}
            }
        }
        // Watches: validated after the declaration pass so a watch may
        // precede its table's define in the same source.
        for stmt in &prog.statements {
            if let Statement::Watch { table, span } = stmt {
                if !self.decls.contains_key(table) {
                    return Err(OverlogError::UnknownTable {
                        table: table.clone(),
                        rule: None,
                        span: *span,
                    });
                }
                self.watch(table);
            }
        }
        // Facts: constant-fold and queue.
        for stmt in &prog.statements {
            if let Statement::Fact {
                table,
                values,
                span,
            } = stmt
            {
                if !self.decls.contains_key(table) {
                    return Err(OverlogError::UnknownTable {
                        table: table.clone(),
                        rule: None,
                        span: *span,
                    });
                }
                let mut row = Vec::with_capacity(values.len());
                for e in values {
                    let mut vars = Vec::new();
                    e.collect_vars(&mut vars);
                    if !vars.is_empty() || matches!(e, crate::ast::Expr::Wildcard) {
                        return Err(OverlogError::UnsafeRule {
                            rule: format!("fact {table}"),
                            var: vars.into_iter().next().unwrap_or_else(|| "_".into()),
                            span: *span,
                        });
                    }
                    let k = kernel::compile_expr(e, &HashMap::new())?;
                    row.push(kernel::eval(&k, &[], &[], &self.builtins)?);
                }
                *self.fact_counts.entry(table.clone()).or_default() += 1;
                let tid = self.ids.get(table).expect("declared tables are interned");
                self.pending.push_back(Pending::Insert(tid, Arc::new(row)));
            }
        }
        // Rules: append and recompile the whole plan.
        let before = self.rule_sources.len();
        self.rule_sources.extend(prog.rules().cloned());
        match self.recompile() {
            Ok(p) => {
                self.plan = Arc::new(p);
                self.rule_stats
                    .resize(self.plan.rules.len(), RuleStats::default());
                self.build_indexes();
                self.sources.push(src.to_string());
                self.source_rule_spans
                    .push((before, self.rule_sources.len() - before));
                self.refresh_durable_ids();
                self.refresh_tap_ids();
                Ok(())
            }
            Err(e) => {
                // `self.plan` still holds the previous plan.
                self.rule_sources.truncate(before);
                Err(e)
            }
        }
    }

    /// Remove the most recent load of `src`: its rules leave the plan (and
    /// their [`RuleStats`] slots go with them — rule ids are
    /// dense indexes, so surviving rules' counters shift down in lockstep
    /// with their new ids, never pointing at a removed rule's numbers).
    /// This is the uninstall half of dynamic metaprogramming: monitors and
    /// standing subscriptions install rules with [`OverlogRuntime::load`]
    /// and retire them here.
    ///
    /// Declarations, facts, timers and watches contributed by the source
    /// are kept — tables have dense ids and cannot be removed; use
    /// [`OverlogRuntime::unwatch`] and [`OverlogRuntime::clear_table`] to
    /// retire a generated table's watch and contents. Returns `Ok(false)`
    /// when no load of `src` exists. On a recompile error (a later load's
    /// rules depended on this source's derivations) the rules are restored
    /// and the runtime is unchanged.
    pub fn unload(&mut self, src: &str) -> Result<bool> {
        let Some(i) = self.sources.iter().rposition(|s| s == src) else {
            return Ok(false);
        };
        let (start, len) = self.source_rule_spans[i];
        let removed: Vec<Rule> = self.rule_sources.drain(start..start + len).collect();
        match self.recompile() {
            Ok(p) => {
                self.plan = Arc::new(p);
                // Drop the removed rules' stats slots so the dense
                // rule-id indexing stays aligned (the stale-stats fix).
                if start + len <= self.rule_stats.len() {
                    self.rule_stats.drain(start..start + len);
                }
                self.rule_stats
                    .resize(self.plan.rules.len(), RuleStats::default());
                self.sources.remove(i);
                self.source_rule_spans.remove(i);
                for span in &mut self.source_rule_spans[i..] {
                    span.0 -= len;
                }
                self.build_indexes();
                self.refresh_durable_ids();
                self.refresh_tap_ids();
                Ok(true)
            }
            Err(e) => {
                // Splice the rules back where they were; `self.plan` still
                // holds the plan they compiled to.
                self.rule_sources.splice(start..start, removed);
                Err(e)
            }
        }
    }

    /// Empty a table's rows from the host (retiring a generated
    /// observation table after [`OverlogRuntime::unload`]). Durable and
    /// tapped tables log the removals; views depending on the table are
    /// rebuilt. Returns the number of rows removed.
    pub fn clear_table(&mut self, name: &str) -> Result<usize> {
        let Some(tid) = self.ids.get(name) else {
            return Ok(0);
        };
        let n = self.clear_logged(tid);
        if n > 0 && (self.plan.view_inputs.contains(tid) || self.plan.neg_view_inputs.contains(tid))
        {
            self.refresh_views()?;
        }
        Ok(n)
    }

    /// Empty a table from the host, logging each removed row (see
    /// [`Self::log_change`]). Returns the number of rows removed.
    fn clear_logged(&mut self, tid: TableId) -> usize {
        let old: Vec<Row> = self.tables[tid.idx()].scan().cloned().collect();
        for row in &old {
            self.log_change(tid, Change::Delete(row));
        }
        self.tables[tid.idx()].clear();
        old.len()
    }

    fn recompile(&mut self) -> Result<Plan> {
        plan::compile_with(
            &self.decls,
            &self.rule_sources,
            &self.fact_counts,
            self.plan_opts,
            &mut self.ids,
        )
    }

    /// Eagerly build every secondary index the plan's scans probe, so
    /// tick-path lookups go through `&self` (zero-copy candidate slices)
    /// instead of creating indexes lazily under `&mut self`.
    fn build_indexes(&mut self) {
        let plan = Arc::clone(&self.plan);
        for rule in plan.rules.iter() {
            for variant in &rule.variants {
                for op in &variant.kernel.ops {
                    let (tid, cols) = match op {
                        KOp::Scan {
                            tid, index_cols, ..
                        }
                        | KOp::NegScan {
                            tid, index_cols, ..
                        } => (tid, index_cols),
                        _ => continue,
                    };
                    if !cols.is_empty() {
                        self.tables[tid.idx()].ensure_index(cols);
                    }
                }
            }
        }
    }

    /// Set the planner options (see [`plan::PlanOptions`]) and recompile
    /// the plan. Table contents are untouched, so hosts can flip
    /// maintenance mid-run to diff maintained against recomputed state.
    /// Panics on options that plan construction rejects (see
    /// [`plan::compile_with`]).
    pub fn set_plan_options(&mut self, opts: plan::PlanOptions) {
        self.plan_opts = opts;
        let p = self.recompile().expect("loaded sources compiled before");
        self.plan = Arc::new(p);
        self.rule_stats
            .resize(self.plan.rules.len(), RuleStats::default());
        self.build_indexes();
    }

    /// The planner options currently in effect.
    pub fn plan_options(&self) -> plan::PlanOptions {
        self.plan_opts
    }

    /// Queue an external insertion for the next tick.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<()> {
        let tid = self
            .ids
            .get(table)
            .ok_or_else(|| OverlogError::unknown_table(table))?;
        self.tables[tid.idx()].typecheck(&row)?;
        self.host_inserted.insert(table.to_string());
        self.pending.push_back(Pending::Insert(tid, row));
        Ok(())
    }

    /// Queue an external deletion for the next tick.
    pub fn delete(&mut self, table: &str, row: Row) -> Result<()> {
        let tid = self
            .ids
            .get(table)
            .ok_or_else(|| OverlogError::unknown_table(table))?;
        self.host_inserted.insert(table.to_string());
        self.pending.push_back(Pending::Delete(tid, row));
        Ok(())
    }

    /// Deliver a network tuple (same queue as [`OverlogRuntime::insert`]).
    pub fn deliver(&mut self, net: &NetTuple) -> Result<()> {
        self.insert(&net.table, net.row.clone())
    }

    /// Whether any external work is queued (used by hosts to decide whether
    /// a tick is needed).
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.ids.get(name).map(|tid| &self.tables[tid.idx()])
    }

    /// Sorted rows of a table (empty when the table is unknown).
    pub fn rows(&self, name: &str) -> Vec<Row> {
        self.table(name)
            .map(|t| t.sorted_rows())
            .unwrap_or_default()
    }

    /// Number of rows in a table.
    pub fn count(&self, name: &str) -> usize {
        self.table(name).map(|t| t.len()).unwrap_or(0)
    }

    /// Add a watch on a table at runtime. Unknown names are remembered:
    /// the watch takes effect if the table is declared later.
    pub fn watch(&mut self, table: &str) {
        if let Some(tid) = self.ids.get(table) {
            self.watch_ids.insert(tid);
        }
        self.watch_names.insert(table.to_string());
    }

    /// Remove a watch added by [`OverlogRuntime::watch`] or a loaded
    /// `watch(t);` statement — the revert half `uninstall_monitor` needs.
    /// Returns whether the table was watched.
    pub fn unwatch(&mut self, table: &str) -> bool {
        let was = self.watch_names.remove(table);
        if was {
            self.watch_ids.clear();
            for name in &self.watch_names {
                if let Some(tid) = self.ids.get(name) {
                    self.watch_ids.insert(tid);
                }
            }
        }
        was
    }

    /// Attach a *delta tap* to a materialized table: from now on every
    /// committed change to it (insert, retraction of an overwritten row,
    /// deletion, view shrink/regrow) is appended to the tap log for
    /// [`OverlogRuntime::take_tap_delta`] to drain. This is the serving
    /// tier's capture mechanism: cost is proportional to the table's
    /// churn, zero for untapped tables (one bitset test), and zero when no
    /// taps exist. Returns `false` for unknown or event tables (events
    /// clear every tick; subscribe to a view over them instead).
    pub fn add_tap(&mut self, table: &str) -> bool {
        match self.ids.get(table) {
            Some(tid) if !self.tables[tid.idx()].is_event() => {
                self.tap_names.insert(table.to_string());
                self.tap_ids.insert(tid);
                true
            }
            _ => false,
        }
    }

    /// Detach a delta tap. Already-captured records stay in the log until
    /// drained. Returns whether the table was tapped.
    pub fn remove_tap(&mut self, table: &str) -> bool {
        let was = self.tap_names.remove(table);
        if was {
            self.refresh_tap_ids();
        }
        was
    }

    /// Drain the tap records captured since the last drain, in commit
    /// order. Empty (and free) unless taps are attached.
    pub fn take_tap_delta(&mut self) -> Vec<TapRecord> {
        self.tap_log
            .drain(..)
            .map(|(tid, row, op, tick, time)| TapRecord {
                table: self.ids.name(tid).to_string(),
                row,
                op,
                tick,
                time,
            })
            .collect()
    }

    /// Recompile `tap_names` into the hot-path id set (event tables are
    /// ineligible; unknown names wait for their declaration).
    fn refresh_tap_ids(&mut self) {
        self.tap_ids.clear();
        for name in &self.tap_names {
            if let Some(tid) = self.ids.get(name) {
                if !self.tables[tid.idx()].is_event() {
                    self.tap_ids.insert(tid);
                }
            }
        }
    }

    /// Drain the accumulated trace, discarding the drop counter. Prefer
    /// [`OverlogRuntime::drain_trace`], which reports losses.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.drain_trace().events
    }

    /// Drain the accumulated trace together with the number of records the
    /// ring buffer evicted since the last drain; resets the drop counter.
    pub fn drain_trace(&mut self) -> TraceDrain {
        TraceDrain {
            events: self.trace.drain(..).collect(),
            dropped: std::mem::take(&mut self.trace_dropped),
        }
    }

    /// Enable or disable why-provenance capture (off by default; costs one
    /// `(table, row)` clone per joined body tuple while on). Turning it on
    /// records a first witness for every row already materialized in a
    /// non-aggregate view, so derivation trees do not bottom out at view
    /// rows derived before capture began.
    pub fn set_provenance(&mut self, on: bool) {
        let was_on = self.prov_on;
        self.prov_on = on;
        if on && !was_on {
            self.backfill_provenance();
        }
    }

    /// Witness every stored view row by one full evaluation of each view
    /// rule, in stratum order. Stateful builtins are never called: rules
    /// using them are skipped.
    fn backfill_provenance(&mut self) {
        let plan = Arc::clone(&self.plan);
        let mut scratch = EvalScratch::default();
        for &rid in plan.strata.iter().flatten() {
            let rule = &plan.rules[rid];
            if !rule.is_view
                || rule.aggregate
                || crate::builtins::impure_call(&self.rule_sources[rid]).is_some()
            {
                continue;
            }
            let Ok((rows, Some(sups))) =
                self.eval_variant(rule, &rule.variants[0], None, &mut scratch)
            else {
                continue;
            };
            for (row, inputs) in rows.iter().zip(&sups) {
                if self.tables[rule.head_tid.idx()].contains(row) {
                    self.record_prov(rule, row, inputs);
                }
            }
        }
    }

    /// Provenance records captured so far, in derivation order.
    pub fn provenance(&self) -> &[ProvRecord] {
        &self.prov
    }

    /// Derivations not recorded because the provenance store hit its cap.
    pub fn prov_drops(&self) -> u64 {
        self.prov_dropped
    }

    /// Drain captured provenance, resetting the first-witness set and drop
    /// counter (subsequent derivations are recorded afresh).
    pub fn take_provenance(&mut self) -> Vec<ProvRecord> {
        self.prov_seen.clear();
        self.prov_dropped = 0;
        std::mem::take(&mut self.prov)
    }

    /// Per-rule derivation counters, labeled.
    pub fn rule_fire_counts(&self) -> Vec<(String, u64)> {
        self.plan
            .rules
            .iter()
            .map(|r| (r.label.clone(), self.rule_stats[r.id].fires))
            .collect()
    }

    /// Per-rule profiler counters, labeled (see [`RuleStats`]).
    pub fn rule_stats(&self) -> Vec<(String, RuleStats)> {
        self.plan
            .rules
            .iter()
            .map(|r| (r.label.clone(), self.rule_stats[r.id]))
            .collect()
    }

    /// Tick-granularity evaluation counters.
    pub fn eval_stats(&self) -> EvalStats {
        EvalStats {
            index_entries_touched: self.tables.iter().map(Table::index_entries_touched).sum(),
            ..self.eval_stats
        }
    }

    /// All declared tables, including runtime-ambient ones.
    pub fn table_decls(&self) -> impl Iterator<Item = &TableDecl> {
        self.decls.values()
    }

    /// Tables currently watched, sorted.
    pub fn watched_tables(&self) -> Vec<String> {
        let mut w: Vec<String> = self.watch_names.iter().cloned().collect();
        w.sort();
        w
    }

    /// Number of loaded rules.
    pub fn rule_count(&self) -> usize {
        self.plan.rules.len()
    }

    /// Statically analyze everything loaded so far (the `olgcheck` pass,
    /// without executing anything): every load-time check plus the lint
    /// suite. Tables the host has inserted into are treated as externally
    /// filled. Returns the diagnostics; see
    /// [`OverlogRuntime::check_with_sources`] to render them.
    pub fn check(&self) -> Vec<Diagnostic> {
        self.check_with_sources().0
    }

    /// Like [`OverlogRuntime::check`], also returning the [`SourceMap`]
    /// needed to render diagnostics with file/line/column positions.
    pub fn check_with_sources(&self) -> (Vec<Diagnostic>, SourceMap) {
        let mut ctx = analysis::ProgramContext::new();
        for d in analysis::ProgramContext::runtime_ambient() {
            ctx.add_ambient(d);
        }
        let mut map = SourceMap::new();
        for (i, src) in self.sources.iter().enumerate() {
            ctx.add_source(&format!("loaded#{i}"), src, &mut map);
        }
        for t in &self.host_inserted {
            ctx.mark_external(t);
        }
        (analysis::analyze(&ctx), map)
    }

    /// Mark every eligible table durable: committed deltas of non-event,
    /// non-view tables (except the ambient `me` fact, which the
    /// constructor recreates) are appended to the commit log for the host
    /// to persist. Call after loading programs; later `load`s keep the
    /// marking current.
    pub fn set_durable_all(&mut self) {
        self.durable_mode = DurableMode::All;
        self.refresh_durable_ids();
    }

    /// Mark just the named tables durable (ineligible or unknown names are
    /// ignored; see [`OverlogRuntime::set_durable_all`] for eligibility).
    pub fn set_durable_tables(&mut self, names: &[&str]) {
        self.durable_mode = DurableMode::Named(names.iter().map(|s| s.to_string()).collect());
        self.refresh_durable_ids();
    }

    /// Whether any table is marked durable.
    pub fn durable_enabled(&self) -> bool {
        !self.durable_ids.is_empty()
    }

    /// Names of the tables currently marked durable, sorted.
    pub fn durable_tables(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .durable_ids
            .iter()
            .map(|tid| self.ids.name(tid).to_string())
            .collect();
        out.sort();
        out
    }

    /// Recompile `durable_mode` into the hot-path id set. Views are
    /// excluded — they are derived state, rebuilt from the restored bases
    /// by [`OverlogRuntime::restore`] — as are event tables (one-tick
    /// lifetime) and `me` (identity, recreated by the constructor and
    /// wrong to ship between nodes in a snapshot).
    fn refresh_durable_ids(&mut self) {
        self.durable_ids.clear();
        if self.durable_mode == DurableMode::Off {
            return;
        }
        for (i, t) in self.tables.iter().enumerate() {
            let tid = TableId(i as u32);
            if t.is_event() || self.plan.view_tables.contains(tid) || t.name() == "me" {
                continue;
            }
            // Observation-plane tables (monitor rowcounts, subscription
            // views) are never durable: they are rebuilt by re-installing
            // the monitor / re-subscribing, and keeping them out of the
            // WAL keeps its bytes identical with and without observers.
            if is_observation_table(t.name()) {
                continue;
            }
            let wanted = match &self.durable_mode {
                DurableMode::Off => false,
                DurableMode::All => true,
                DurableMode::Named(names) => names.iter().any(|n| n == t.name()),
            };
            if wanted {
                self.durable_ids.insert(tid);
            }
        }
    }

    /// Drain the committed deltas captured since the last drain — the
    /// host appends these to its write-ahead log. Empty (and free) unless
    /// durable tables are marked.
    pub fn take_commit_delta(&mut self) -> Vec<CommitRecord> {
        self.commit_log
            .drain(..)
            .map(|(tid, row, op)| CommitRecord {
                table: self.ids.name(tid).to_string(),
                row,
                op,
            })
            .collect()
    }

    /// Register a monotonically increasing host counter builtin: `name()`
    /// returns `base, base+1, ...`. Unlike [`register_builtin`] closures,
    /// tracked counters are captured in snapshots and restored with
    /// durable state, so physically recovered runtimes do not re-issue
    /// identifiers.
    ///
    /// [`register_builtin`]: OverlogRuntime::register_builtin
    pub fn register_counter(&mut self, name: &str, base: i64) {
        let cell = Arc::new(AtomicI64::new(base));
        let in_builtin = Arc::clone(&cell);
        self.builtins.register(name, move |_args| {
            Ok(Value::Int(in_builtin.fetch_add(1, Ordering::Relaxed)))
        });
        self.counters.retain(|(n, _)| n != name);
        self.counters.push((name.to_string(), cell));
    }

    /// Current values of all tracked counters (the next value each will
    /// return), in registration order.
    pub fn counter_values(&self) -> Vec<(String, i64)> {
        self.counters
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Set a tracked counter's next value (unknown names are ignored).
    pub fn set_counter(&mut self, name: &str, value: i64) {
        if let Some((_, c)) = self.counters.iter().find(|(n, _)| n == name) {
            c.store(value, Ordering::Relaxed);
        }
    }

    /// Snapshot the durable tables and tracked counters — the checkpoint
    /// a host pairs with write-ahead-log truncation. Deterministic: tables
    /// and rows are sorted.
    pub fn snapshot(&self) -> RuntimeSnapshot {
        let mut tables: Vec<(String, Vec<Row>)> = self
            .durable_ids
            .iter()
            .map(|tid| {
                let t = &self.tables[tid.idx()];
                (t.name().to_string(), t.sorted_rows())
            })
            .collect();
        tables.sort_by(|a, b| a.0.cmp(&b.0));
        RuntimeSnapshot {
            tables,
            counters: self.counter_values(),
        }
    }

    /// Recover durable state into a factory-fresh runtime: apply the
    /// queued load-time facts directly (so the first tick cannot overwrite
    /// restored singletons with boot defaults), install the checkpoint
    /// snapshot, physically replay the write-ahead log, set the tracked
    /// counters to their recovered values, and rebuild every view over the
    /// restored bases. Returns the number of snapshot and log rows
    /// applied. Nothing here re-enters the commit log: restored state
    /// becomes durable again only via the next checkpoint.
    pub fn restore(
        &mut self,
        snapshot: Option<&RuntimeSnapshot>,
        log: &[CommitRecord],
        counters: &[(String, i64)],
    ) -> Result<usize> {
        // 1. Drain load-time facts without running rules.
        let work: Vec<Pending> = self.pending.drain(..).collect();
        for p in work {
            match p {
                Pending::Insert(tid, row) => {
                    let t = &mut self.tables[tid.idx()];
                    let row = t.coerce(row);
                    t.insert(row)?;
                }
                Pending::Delete(tid, row) => {
                    self.tables[tid.idx()].delete(&row);
                }
            }
        }
        let mut applied = 0usize;
        // 2. Install the checkpoint snapshot (clear-and-load per table).
        if let Some(snap) = snapshot {
            for (name, rows) in &snap.tables {
                let Some(tid) = self.ids.get(name) else {
                    continue;
                };
                let t = &mut self.tables[tid.idx()];
                t.clear();
                for row in rows {
                    let row = t.coerce(row.clone());
                    t.insert(row)?;
                    applied += 1;
                }
            }
            for (name, v) in &snap.counters {
                self.set_counter(name, *v);
            }
        }
        // 3. Physically replay the log (key-overwrite makes this exact).
        for rec in log {
            let Some(tid) = self.ids.get(&rec.table) else {
                continue;
            };
            let t = &mut self.tables[tid.idx()];
            match rec.op {
                CommitOp::Insert => {
                    let row = t.coerce(rec.row.clone());
                    t.insert(row)?;
                }
                CommitOp::Delete => {
                    t.delete(&rec.row);
                }
            }
            applied += 1;
        }
        // 4. Final counter values (the last batch's capture wins).
        for (name, v) in counters {
            self.set_counter(name, *v);
        }
        // 5. Derived state follows from the bases.
        self.refresh_views()?;
        // Tap records captured before the crash (or emitted by the restore
        // rebuild) describe a stream the restored runtime does not
        // continue — drop them; the serving tier resynchronizes
        // subscribers with a fresh snapshot instead.
        self.tap_log.clear();
        Ok(applied)
    }

    /// Install rows shipped from a peer (snapshot catch-up): clear each
    /// named table, load the rows, log them as durable inserts so the
    /// transfer itself reaches this node's write-ahead log, then rebuild
    /// views. Event and view tables are skipped — only base state can be
    /// installed. Returns rows installed.
    pub fn load_snapshot_rows(&mut self, tables: &[(String, Vec<Row>)]) -> Result<usize> {
        let mut applied = 0usize;
        for (name, rows) in tables {
            let Some(tid) = self.ids.get(name) else {
                continue;
            };
            if self.tables[tid.idx()].is_event() || self.plan.view_tables.contains(tid) {
                continue;
            }
            // The clear must reach the log too, or a later physical replay
            // would resurrect rows the install removed.
            self.clear_logged(tid);
            for row in rows {
                let t = &mut self.tables[tid.idx()];
                let row = t.coerce(row.clone());
                t.insert(row.clone())?;
                self.log_change(tid, Change::Insert(&row));
                applied += 1;
            }
        }
        self.refresh_views()?;
        Ok(applied)
    }

    /// Force a full rebuild of every view table from current base state.
    /// Rebuilding is idempotent (views are deterministic functions of
    /// their inputs), so this never changes observable state — but it
    /// *does* seed views installed after their inputs were already
    /// populated, and the rebuild publishes its exact diff to taps and the
    /// watch trace. The serving tier calls this right after installing a
    /// standing query so the tap stream opens with the query's initial
    /// contents; host writes outside a tick call it to bring the views up
    /// to date.
    pub fn refresh_views(&mut self) -> Result<()> {
        let affected = self.plan.view_tables.clone();
        if affected.is_empty() {
            return Ok(());
        }
        let mut ctx = std::mem::take(&mut self.scratch);
        ctx.reset(self.tables.len());
        let res = self.recompute_views(&affected, &mut ctx);
        self.scratch = ctx;
        res
    }

    /// Tick repeatedly (at the same virtual time) until no queued or
    /// inductively-deferred work remains, collecting all network sends.
    /// Bounded; errors if the program does not quiesce within 64 ticks.
    pub fn settle(&mut self, now: u64) -> Result<Vec<NetTuple>> {
        let mut sends = Vec::new();
        for _ in 0..64 {
            let res = self.tick(now)?;
            sends.extend(res.sends);
            if !self.has_pending() {
                return Ok(sends);
            }
        }
        Err(OverlogError::Eval(
            "settle: runtime did not quiesce within 64 ticks".into(),
        ))
    }

    /// Execute one timestep at virtual time `now`.
    pub fn tick(&mut self, now: u64) -> Result<TickResult> {
        self.now = now;
        let plan = Arc::clone(&self.plan);
        let ntables = self.tables.len();
        let mut ctx = std::mem::take(&mut self.scratch);
        ctx.reset(ntables);

        // 1. Fire due timers.
        for t in &mut self.timers {
            if now >= t.next {
                self.pending.push_back(Pending::Insert(
                    t.tid,
                    Arc::new(vec![Value::Int(now as i64)]),
                ));
                t.next = now + t.interval;
            }
        }

        // 2. Apply externally queued work.
        let mut pre_dirty = false;
        let mut work = std::mem::take(&mut self.pending);
        for p in work.drain(..) {
            match p {
                Pending::Insert(tid, row) => {
                    self.apply_insert(tid, row, false, &mut ctx)?;
                }
                Pending::Delete(tid, row) => {
                    if self.apply_delete(tid, &row, &mut ctx) {
                        ctx.changed_tables.insert(tid);
                        pre_dirty |= plan.view_inputs.contains(tid);
                    }
                }
            }
        }
        self.pending = work;
        if pre_dirty {
            // This pass consumes the inputs' shrinkage, so the fixpoint
            // must not re-derive from rows the queue inserted and then
            // removed again: only rows still stored may seed it. (The
            // removals are in `m_del`, so the maintainer still sees them.)
            for t in ctx.shrink_dirty.iter() {
                let table = &self.tables[t.idx()];
                ctx.added[t.idx()].retain(|row| table.contains(row));
            }
            let affected = self.affected_views(&ctx.shrink_dirty, &ctx.grow_dirty);
            self.update_views(&affected, &mut ctx)?;
            ctx.shrink_dirty.clear();
            ctx.grow_dirty.clear();
        }

        // 3. Stratified semi-naive fixpoint. A round's delta for table `t`
        // is the log slice `ctx.added[t][cursor[t]..hi[t]]` — no cloning.
        for (stratum, stratum_delta) in plan.strata.iter().zip(&plan.strata_delta) {
            // Aggregates and body-less rules run once, at stratum entry.
            for &rid in stratum {
                let rule = &plan.rules[rid];
                if rule.aggregate {
                    // Inductive aggregates (event-fed, materialized head)
                    // run after the fixpoint: their outputs only become
                    // visible next tick anyway, and their event inputs may
                    // still be derived within this stratum.
                    if rule.inductive {
                        continue;
                    }
                    let inputs_changed = rule
                        .positive_tids
                        .iter()
                        .any(|t| ctx.changed_tables.contains(*t));
                    if inputs_changed && !self.scoped_aggregate(rule, &mut ctx)? {
                        self.eval_aggregate(rule, &mut ctx)?;
                    }
                } else if rule.variants[0].delta_pred.is_none() {
                    let t0 = std::time::Instant::now();
                    let (rows, sups) =
                        self.eval_variant(rule, &rule.variants[0], None, &mut ctx.eval)?;
                    self.rule_stats[rid].eval_ns += t0.elapsed().as_nanos() as u64;
                    self.dispatch(rule, rows, sups, &mut ctx)?;
                }
            }
            // Seed the stratum with everything added so far this tick:
            // rewinding the cursors makes the whole log the first delta.
            // Rounds are driven by the plan's delta index: only the tables
            // some variant in this stratum consumes can extend the
            // fixpoint (rows logged for any other table are invisible
            // here and are picked up by later strata, which rewind the
            // cursors again), so `hi`/`cursor` maintenance and the
            // dirty-check touch just those tables, and only the variants
            // whose delta slice is non-empty run — sorted back to the
            // `(rule id, variant)` sweep order so derivation order (and
            // with it key-overwrite conflict resolution) is unchanged.
            ctx.cursor.iter_mut().for_each(|c| *c = 0);
            loop {
                let mut any = false;
                for (t, _) in stratum_delta {
                    ctx.hi[*t] = ctx.added[*t].len();
                    any |= ctx.cursor[*t] < ctx.hi[*t];
                }
                if !any {
                    break;
                }
                self.eval_stats.fixpoint_rounds += 1;
                // New round, new delta slices: drop the vectorized gate
                // groups built over the previous round's slices.
                ctx.gates.clear();
                ctx.pairs.clear();
                for (t, variants) in stratum_delta {
                    if ctx.cursor[*t] < ctx.hi[*t] {
                        ctx.pairs
                            .extend(variants.iter().map(|&(rid, vi)| (rid, vi, *t)));
                    }
                }
                ctx.pairs.sort_unstable();
                let mut pairs = std::mem::take(&mut ctx.pairs);
                for &(rid, vi, dt) in &pairs {
                    let rule = &plan.rules[rid];
                    let variant = &rule.variants[vi];
                    let (lo, hi) = (ctx.cursor[dt], ctx.hi[dt]);
                    self.rule_stats[rid].delta_in += (hi - lo) as u64;
                    // Delta-gate, vectorized: rows failing the scheduled
                    // delta scan's literal checks are rejected by that
                    // scan before any expression runs, so pruning them
                    // up front is observationally identical (see
                    // [`Variant::delta_gate`]). The round's slice is
                    // grouped once per gated column and shared by every
                    // variant gating on it — the protocol-dispatch
                    // pattern where dozens of handler rules disagree
                    // only on a literal discriminator column.
                    let mut pruned: Option<Vec<Row>> = None;
                    if !variant.delta_gate.is_empty() {
                        match gate_select(
                            &mut ctx.gates,
                            &ctx.added[dt][lo..hi],
                            dt,
                            &variant.delta_gate,
                        ) {
                            GateOutcome::Skip => continue,
                            GateOutcome::Full => {}
                            GateOutcome::Rows(rows) => pruned = Some(rows),
                        }
                    }
                    let delta: &[Row] = match &pruned {
                        Some(rows) => rows,
                        None => &ctx.added[dt][lo..hi],
                    };
                    let t0 = std::time::Instant::now();
                    let (rows, sups) =
                        self.eval_variant(rule, variant, Some(delta), &mut ctx.eval)?;
                    // Stop the eval clock before dispatch: insert and
                    // index bookkeeping would dilute the per-rule
                    // evaluation attribution `boomtrace profile` reads.
                    self.rule_stats[rid].eval_ns += t0.elapsed().as_nanos() as u64;
                    self.dispatch(rule, rows, sups, &mut ctx)?;
                }
                pairs.clear();
                ctx.pairs = pairs;
                // Rows appended during this round (beyond the `hi`
                // snapshot) become the next round's delta.
                for (t, _) in stratum_delta {
                    ctx.cursor[*t] = ctx.hi[*t];
                }
            }
        }

        // 3b. Inductive aggregates, now that all event derivations settled.
        for rule in plan.rules.iter().filter(|r| r.aggregate && r.inductive) {
            let inputs_changed = rule
                .positive_tids
                .iter()
                .any(|t| ctx.changed_tables.contains(*t));
            if inputs_changed {
                self.eval_aggregate(rule, &mut ctx)?;
            }
        }

        // 4. Apply deferred deletions.
        let mut deletions = 0usize;
        let deferred = std::mem::take(&mut ctx.deferred_deletes);
        for (tid, row) in &deferred {
            if !ctx.delete_seen.insert((*tid, row.clone())) {
                continue;
            }
            if self.apply_delete(*tid, row, &mut ctx) {
                deletions += 1;
            }
        }
        ctx.deferred_deletes = deferred;

        // 5. Clear event tables (skipping the untouched ones: `clear` on a
        // pooled hash map costs its capacity, not its length).
        for t in &mut self.tables {
            if t.is_event() && !t.is_empty() {
                t.clear();
            }
        }

        // 6. Propagate retractions into the affected views if any input
        // shrank (or a negated input of a non-monotonic view grew):
        // incrementally where the maintenance analysis certified a
        // strategy, by a rebuild otherwise.
        let affected = self.affected_views(&ctx.shrink_dirty, &ctx.grow_dirty);
        if !affected.is_empty() {
            self.update_views(&affected, &mut ctx)?;
        }

        // 7. Queue inductive insertions for the next tick.
        for (tid, row) in ctx.deferred_inserts.drain(..) {
            self.pending.push_back(Pending::Insert(tid, row));
        }

        self.tick_count += 1;
        self.eval_stats.ticks += 1;
        for send in &ctx.outbox {
            if let Some(tid) = self.ids.get(&send.table) {
                self.record_trace(tid, &send.row, TraceOp::Send);
            }
        }
        let result = TickResult {
            sends: std::mem::take(&mut ctx.outbox),
            derivations: ctx.derivations,
            deletions,
        };
        // Return the workspace to the pool so next tick reuses its buffers.
        self.scratch = ctx;
        Ok(result)
    }

    /// Delete a row from a local table and publish the retraction.
    /// Reports whether the row was present.
    fn apply_delete(&mut self, tid: TableId, row: &Row, ctx: &mut TickCtx) -> bool {
        if !self.tables[tid.idx()].delete(row) {
            return false;
        }
        self.publish(tid, Change::Delete(row), ctx);
        if self.plan.view_inputs.contains(tid) {
            ctx.shrink_dirty.insert(tid);
        }
        true
    }

    /// Insert a derived or external row into a local table; reports
    /// whether the insert was new, a key-overwrite, or a duplicate.
    fn apply_insert(
        &mut self,
        tid: TableId,
        row: Row,
        from_view_rule: bool,
        ctx: &mut TickCtx,
    ) -> Result<InsertOutcome> {
        let (row, outcome) = self.store(tid, row)?;
        let change = match &outcome {
            InsertOutcome::New => Change::Insert(&row),
            InsertOutcome::Replaced(old) => Change::Overwrite(old, &row),
            InsertOutcome::Duplicate => return Ok(outcome),
        };
        ctx.changed_tables.insert(tid);
        self.publish(tid, change, ctx);
        // A key-overwrite removes a tuple other derivations may have
        // consumed: views over this table must be rebuilt — unless the
        // overwrite came from a view rule itself (aggregates refreshing
        // their groups), which is self-consistent.
        if matches!(change, Change::Overwrite(..))
            && !from_view_rule
            && self.plan.view_inputs.contains(tid)
        {
            ctx.shrink_dirty.insert(tid);
        }
        // Negation is non-monotone: growing a table that appears negated
        // in a view rule can retract view tuples, so it dirties views
        // exactly like a deletion would — even when the insert itself came
        // from a view rule (one view can feed another's negation).
        if self.plan.neg_view_inputs.contains(tid) {
            ctx.grow_dirty.insert(tid);
        }
        Ok(outcome)
    }

    /// Insert `row` into table `tid` as stored (Addr-coerced), returning
    /// the stored row with the insert's outcome: deltas must hold exactly
    /// what the table holds.
    fn store(&mut self, tid: TableId, row: Row) -> Result<(Row, InsertOutcome)> {
        let t = &mut self.tables[tid.idx()];
        let row = t.coerce(row);
        let outcome = t.insert(row.clone())?;
        Ok((row, outcome))
    }

    /// The write path: publish one change made inside a tick. Writes its
    /// log records (see [`Self::log_change`]) and its watch trace, appends
    /// an entering row to the tick's insert log `added` (its only writer)
    /// and, for a view input, a leaving row to the maintenance log
    /// `m_del`. Every insert, overwrite and delete a tick commits comes
    /// through here: the semi-naive path, the maintainer, and a view
    /// rebuild's diff. Writes that are unpublished on purpose (restore's
    /// replay, DRed's over-delete and re-insert, a rebuild's own inserts
    /// before its diff) call the table directly.
    fn publish(&mut self, tid: TableId, change: Change<'_>, ctx: &mut TickCtx) {
        self.log_change(tid, change);
        match change {
            Change::Insert(row) | Change::Overwrite(_, row) => {
                self.record_trace(tid, row, TraceOp::Insert)
            }
            Change::Delete(row) => self.record_trace(tid, row, TraceOp::Delete),
        }
        if let Some(new) = change.entering() {
            ctx.added[tid.idx()].push(new.clone());
        }
        if self.plan.view_inputs.contains(tid) {
            if let Some(old) = change.leaving() {
                ctx.m_del[tid.idx()].push(old.clone());
            }
        }
    }

    /// The write path's log layer, also called alone by host writes
    /// outside a tick. Appends the change's write-ahead-log record, for
    /// durable tables only: the row as stored, and for an overwrite just
    /// the new row (replay re-applies the overwrite). Appends its tap
    /// records: an overwrite is a retraction then an insert.
    fn log_change(&mut self, tid: TableId, change: Change<'_>) {
        if self.durable_ids.contains(tid) {
            let (row, op) = match change {
                Change::Insert(row) | Change::Overwrite(_, row) => (row, CommitOp::Insert),
                Change::Delete(row) => (row, CommitOp::Delete),
            };
            self.commit_log.push((tid, row.clone(), op));
        }
        if self.tap_ids.contains(tid) {
            let (tick, now) = (self.tick_count, self.now);
            if let Some(old) = change.leaving() {
                self.tap_log
                    .push((tid, old.clone(), CommitOp::Delete, tick, now));
            }
            if let Some(new) = change.entering() {
                self.tap_log
                    .push((tid, new.clone(), CommitOp::Insert, tick, now));
            }
        }
    }

    fn record_trace(&mut self, tid: TableId, row: &Row, op: TraceOp) {
        if self.trace_all || self.watch_ids.contains(tid) {
            if self.trace.len() >= TRACE_CAP {
                self.trace.pop_front();
                self.trace_dropped += 1;
            }
            self.trace.push_back(TraceEvent {
                tick: self.tick_count,
                time: self.now,
                table: self.ids.name(tid).to_string(),
                row: row.clone(),
                op,
            });
        }
    }

    /// First-witness why-provenance: remember which rule and body tuples
    /// produced `row` the first time it was derived.
    fn record_prov(&mut self, rule: &CompiledRule, row: &Row, inputs: &[(String, Row)]) {
        if !self.prov_on {
            return;
        }
        let key = (rule.head_tid, row.clone());
        if self.prov_seen.contains(&key) {
            return;
        }
        if self.prov.len() >= PROV_CAP {
            self.prov_dropped += 1;
            return;
        }
        self.prov_seen.insert(key);
        self.prov.push(ProvRecord {
            tick: self.tick_count,
            time: self.now,
            rule: rule.label.clone(),
            table: rule.head_table.clone(),
            row: row.clone(),
            inputs: inputs.to_vec(),
        });
    }

    /// Route derived rows for a rule: remote sends, deferred deletes, or
    /// local insertion. `supports[i]` (when provenance is on) holds the
    /// positive body tuples behind `rows[i]`.
    fn dispatch(
        &mut self,
        rule: &CompiledRule,
        rows: Vec<Row>,
        supports: Option<Vec<Witness>>,
        ctx: &mut TickCtx,
    ) -> Result<()> {
        for (i, row) in rows.into_iter().enumerate() {
            ctx.attempts += 1;
            self.rule_stats[rule.id].attempts += 1;
            if ctx.attempts > self.budget {
                return Err(OverlogError::Eval(format!(
                    "derivation budget exceeded in tick {} (rule `{}`)",
                    self.tick_count, rule.label
                )));
            }
            let inputs: &[(String, Row)] = supports
                .as_ref()
                .and_then(|s| s.get(i))
                .map(|v| v.as_slice())
                .unwrap_or(&[]);
            if rule.delete {
                ctx.derivations += 1;
                self.rule_stats[rule.id].fires += 1;
                ctx.deferred_deletes.push((rule.head_tid, row));
                continue;
            }
            if let Some(loc) = rule.head_loc {
                let dest = match &row[loc] {
                    Value::Addr(a) | Value::Str(a) => a.clone(),
                    other => {
                        return Err(OverlogError::Eval(format!(
                            "rule `{}`: location specifier is not an address: {other}",
                            rule.label
                        )))
                    }
                };
                if dest != self.addr {
                    // Set semantics: ship each distinct remote tuple once
                    // per tick, even if semi-naive re-derives it.
                    if ctx.sent.insert((dest.clone(), rule.head_tid, row.clone())) {
                        ctx.derivations += 1;
                        self.rule_stats[rule.id].fires += 1;
                        self.record_prov(rule, &row, inputs);
                        ctx.outbox.push(NetTuple {
                            dest,
                            table: rule.head_table.clone(),
                            row,
                        });
                    }
                    continue;
                }
            }
            if rule.inductive {
                // Dedalus-style induction: the update lands at the start of
                // the next timestep, so this tick's rules all read a
                // consistent pre-state.
                let key = (rule.head_tid, row.clone());
                if ctx.deferred_seen.insert(key) {
                    ctx.derivations += 1;
                    self.rule_stats[rule.id].fires += 1;
                    self.record_prov(rule, &row, inputs);
                    ctx.deferred_inserts.push((rule.head_tid, row));
                }
                continue;
            }
            // Effectiveness comes straight from the insert outcome: a new
            // row or a key-overwrite fires the rule, a duplicate does not.
            let outcome = self.apply_insert(rule.head_tid, row.clone(), rule.is_view, ctx)?;
            if !matches!(outcome, InsertOutcome::Duplicate) {
                ctx.derivations += 1;
                self.rule_stats[rule.id].fires += 1;
                self.record_prov(rule, &row, inputs);
            }
        }
        Ok(())
    }

    /// Evaluate one rule variant through its kernel; returns projected
    /// head rows plus (when provenance capture is on) the positive body
    /// tuples behind each row.
    ///
    /// `delta_rows == None` makes the delta predicate read its full table
    /// (used for body-less variants and view recomputation).
    fn eval_variant(
        &mut self,
        rule: &CompiledRule,
        variant: &Variant,
        delta_rows: Option<&[Row]>,
        scratch: &mut EvalScratch,
    ) -> Result<(Vec<Row>, Option<Vec<Witness>>)> {
        let (rows, _, sups) = self.run_kernel(rule, variant, delta_rows, scratch, false)?;
        Ok((rows, sups))
    }

    /// Run `variant`'s kernel. Returns its head rows, or with `fold` set
    /// leaves their values in `scratch.flat` instead (see [`Emit`]), plus
    /// the number of rows and, when provenance capture is on, their
    /// witnesses. Counts one `kernel_evals`. `scratch` also pools the
    /// registers and probe-key buffers: most evaluations derive nothing,
    /// and with pooling they allocate nothing either.
    fn run_kernel(
        &mut self,
        rule: &CompiledRule,
        variant: &Variant,
        delta_rows: Option<&[Row]>,
        scratch: &mut EvalScratch,
        fold: bool,
    ) -> Result<(Vec<Row>, usize, Option<Vec<Witness>>)> {
        // Aggregate provenance records empty inputs: the support of a
        // fold is the whole group, not a single join path.
        let prov = self.prov_on && !rule.aggregate;
        self.rule_stats[rule.id].kernel_evals += 1;
        let EvalScratch {
            probe_vals,
            int_vals,
            kregs,
            flat,
        } = scratch;
        kregs.clear();
        kregs.resize(variant.kernel.regs, Value::Null);
        flat.clear();
        let mut run = KRun {
            rt: self,
            kernel: &variant.kernel,
            delta: delta_rows,
            levels: Vec::with_capacity(variant.kernel.level_tids.len()),
            regs: kregs,
            probe_vals,
            int_vals,
            out: if fold {
                Emit::Flat(flat)
            } else {
                Emit::Rows(Vec::new())
            },
            emitted: 0,
            sups: prov.then(Vec::new),
        };
        run.exec(0)?;
        // Emission order follows the delta's arrival order (the outermost
        // ready dimension): within-tick key overwrites keep last-writer-wins
        // along the event stream. Inner join dimensions come from hash-map
        // lookups, so their relative order carries no semantics with or
        // without planner reordering.
        let rows = match run.out {
            Emit::Rows(rows) => rows,
            Emit::Flat(_) => Vec::new(),
        };
        Ok((rows, run.emitted, run.sups))
    }

    /// Full recomputation of an aggregate rule: evaluate the body, group,
    /// fold, and key-overwrite the head table.
    fn eval_aggregate(&mut self, rule: &CompiledRule, ctx: &mut TickCtx) -> Result<()> {
        let t0 = std::time::Instant::now();
        let rows = self.eval_groups(rule, &rule.variants[0], None, &mut ctx.eval)?;
        self.rule_stats[rule.id].eval_ns += t0.elapsed().as_nanos() as u64;
        self.eval_stats.agg_folds_rebuild += rows.len() as u64;
        self.dispatch(rule, rows, None, ctx)
    }

    /// Evaluate an aggregate rule's body through `variant`'s kernel and
    /// fold the projected rows into head rows, one per group, in group
    /// order. `anchor_rows` scopes the evaluation to the variant's delta
    /// predicate (the remaining predicates join against live tables);
    /// `None` reads every table in full.
    fn eval_groups(
        &mut self,
        rule: &CompiledRule,
        variant: &Variant,
        anchor_rows: Option<&[Row]>,
        scratch: &mut EvalScratch,
    ) -> Result<Vec<Row>> {
        let (_, n, _) = self.run_kernel(rule, variant, anchor_rows, scratch, true)?;
        fold_groups(rule, &scratch.flat, n)
    }

    /// Which view tables must be rebuilt, given the inputs that shrank
    /// (deletions, key-overwrites) and the negated inputs that grew: only
    /// views whose transitive dependency closure intersects the dirty set
    /// are affected — and growth skips the CALM-certified monotonic views
    /// entirely, because insertions were already propagated incrementally
    /// by the delta path.
    fn affected_views(&self, shrink: &IdSet, grow: &IdSet) -> IdSet {
        if shrink.is_empty() && grow.is_empty() {
            return IdSet::new();
        }
        let mut out = IdSet::new();
        for (&v, deps) in &self.plan.view_deps {
            let shrunk = shrink.contains(v) || deps.intersects(shrink);
            let grown = !self.plan.monotonic_views.contains(v)
                && (grow.contains(v) || deps.intersects(grow));
            if shrunk || grown {
                out.insert(v);
            }
        }
        out
    }

    /// Clear the `affected` view tables and re-derive them in one
    /// stratified loop, treating every other materialized table (bases
    /// *and* unaffected views) as stable seed state. An aggregate view
    /// folds its whole body at its stratum's entry; every other view runs
    /// semi-naively over a seed log local to this call, as in `tick`. Then
    /// the rebuild publishes each view's exact before/after diff, in
    /// sorted-row order, so taps, the watch trace and the tick's delta
    /// logs see what changed and nothing else.
    fn recompute_views(&mut self, affected: &IdSet, ctx: &mut TickCtx) -> Result<()> {
        self.eval_stats.view_recomputes += 1;
        let plan = Arc::clone(&self.plan);
        let ntables = self.tables.len();
        let before: Vec<(TableId, Vec<Row>)> = affected
            .iter()
            .map(|v| (v, self.tables[v.idx()].sorted_rows()))
            .collect();
        for v in affected.iter() {
            self.tables[v.idx()].clear();
        }
        // Seed: full contents of every materialized table that is not
        // being rebuilt *and* is actually consumed by an affected rule's
        // positive body. Negated bodies and aggregate inputs read the live
        // tables directly, so they need no seed rows; everything else is
        // dead weight in the seed log.
        let mut needed = IdSet::new();
        for rule in plan.rules.iter() {
            if rule.is_view && !rule.aggregate && affected.contains(rule.head_tid) {
                for t in &rule.positive_tids {
                    needed.insert(*t);
                }
            }
        }
        let mut added: Vec<Vec<Row>> = vec![Vec::new(); ntables];
        let mut cursor = vec![0usize; ntables];
        let mut hi = vec![0usize; ntables];
        for (i, t) in self.tables.iter().enumerate() {
            let tid = TableId(i as u32);
            if t.is_event() || affected.contains(tid) || !needed.contains(tid) {
                continue;
            }
            added[i].extend(t.scan().cloned());
        }
        for stratum in &plan.strata {
            for &rid in stratum {
                let rule = &plan.rules[rid];
                if rule.is_view && rule.aggregate && affected.contains(rule.head_tid) {
                    let rows = self.eval_groups(rule, &rule.variants[0], None, &mut ctx.eval)?;
                    self.eval_stats.agg_folds_rebuild += rows.len() as u64;
                    self.rebuild_rows(rule, rows, None, &mut added, ctx)?;
                }
            }
            // Reseed each stratum with the cumulative log, as in `tick`.
            cursor.iter_mut().for_each(|c| *c = 0);
            loop {
                let mut any = false;
                for t in 0..ntables {
                    hi[t] = added[t].len();
                    any |= cursor[t] < hi[t];
                }
                if !any {
                    break;
                }
                for &rid in stratum {
                    let rule = &plan.rules[rid];
                    if !rule.is_view || rule.aggregate || !affected.contains(rule.head_tid) {
                        continue;
                    }
                    for variant in &rule.variants {
                        let Some(d) = variant.delta_pred else {
                            continue;
                        };
                        let dt = rule.positive_tids[d].idx();
                        let (lo, h) = (cursor[dt], hi[dt]);
                        if lo == h {
                            continue;
                        }
                        let (rows, sups) = self.eval_variant(
                            rule,
                            variant,
                            Some(&added[dt][lo..h]),
                            &mut ctx.eval,
                        )?;
                        self.rebuild_rows(rule, rows, sups, &mut added, ctx)?;
                    }
                }
                cursor.copy_from_slice(&hi);
            }
        }
        // Publish the diff: rows that vanished are deletes, rows that
        // appeared are inserts (sorted merge over the before/after rows).
        for (v, before) in before {
            let after = self.tables[v.idx()].sorted_rows();
            let (mut i, mut j) = (0usize, 0usize);
            loop {
                let change = match (before.get(i), after.get(j)) {
                    (Some(b), Some(a)) if b == a => {
                        i += 1;
                        j += 1;
                        continue;
                    }
                    (Some(b), Some(a)) if b < a => {
                        i += 1;
                        Change::Delete(b)
                    }
                    (Some(b), None) => {
                        i += 1;
                        Change::Delete(b)
                    }
                    (_, Some(a)) => {
                        j += 1;
                        Change::Insert(a)
                    }
                    (None, None) => break,
                };
                self.publish(v, change, ctx);
            }
        }
        Ok(())
    }

    /// Insert a rebuild's rows for `rule` into its cleared head table, with
    /// their provenance witnesses, unpublished (the rebuild publishes its
    /// diff once it is done). Every row that changed the table joins the
    /// seed log `added`.
    fn rebuild_rows(
        &mut self,
        rule: &CompiledRule,
        rows: Vec<Row>,
        sups: Option<Vec<Witness>>,
        added: &mut [Vec<Row>],
        ctx: &mut TickCtx,
    ) -> Result<()> {
        for (i, row) in rows.into_iter().enumerate() {
            ctx.derivations += 1;
            if ctx.derivations > self.budget {
                return Err(OverlogError::Eval(
                    "derivation budget exceeded during view recomputation".into(),
                ));
            }
            let (row, outcome) = self.store(rule.head_tid, row)?;
            if outcome != InsertOutcome::Duplicate {
                self.eval_stats.view_rows_rebuilt += 1;
                let inputs: &[(String, Row)] = sups
                    .as_ref()
                    .and_then(|s| s.get(i))
                    .map(|v| v.as_slice())
                    .unwrap_or(&[]);
                self.record_prov(rule, &row, inputs);
                added[rule.head_tid.idx()].push(row);
            }
        }
        Ok(())
    }

    ///////////////////////////////////////////////////////////////////////
    // Incremental view maintenance (analysis-driven; strategies certified
    // by `crate::analysis::maint`, threaded through `Plan::maint`).
    ///////////////////////////////////////////////////////////////////////

    /// Bring the affected views up to date: update each in place from its
    /// inputs' per-tick delta logs where the analysis certified a
    /// strategy, and rebuild the rest in one batch (every one of them with
    /// [`plan::PlanOptions::maintenance`] off). Falling back never changes
    /// results — a maintained view and a rebuilt view hold byte-identical
    /// rows — only cost.
    fn update_views(&mut self, affected: &IdSet, ctx: &mut TickCtx) -> Result<()> {
        let plan = Arc::clone(&self.plan);
        // Split the affected set: strategy views are ordered topologically
        // (a view reading another view updates after it, so scoped
        // re-evaluation joins against settled upstream state); the rest
        // fall back immediately.
        let mut fallback = IdSet::new();
        let mut remaining: Vec<TableId> = Vec::new();
        for v in affected.iter() {
            if plan.options.maintenance && plan.maint.views.contains_key(&v) {
                remaining.push(v);
            } else {
                fallback.insert(v);
            }
        }
        remaining.sort_by_key(|v| {
            let rid = plan.maint.views[v].first_rule();
            (plan.rules[rid].stratum, v.idx())
        });
        let mut ordered = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let mut rest = Vec::new();
            let before = ordered.len();
            for &v in &remaining {
                let deps = plan.view_deps.get(&v);
                let blocked = remaining
                    .iter()
                    .any(|&w| w != v && deps.is_some_and(|d| d.contains(w)));
                if blocked {
                    rest.push(v);
                } else {
                    ordered.push(v);
                }
            }
            if ordered.len() == before {
                // Unreachable (strategy views are acyclic apart from DRed
                // self-recursion, which the `w != v` test admits; mutual
                // recursion disqualifies a strategy), but never loop on it.
                for v in rest {
                    fallback.insert(v);
                }
                break;
            }
            remaining = rest;
        }
        let mut maintained = 0u64;
        for v in ordered {
            // A source rebuilt from scratch leaves no delta lineage to
            // consume: views downstream of a fallback fall back with it.
            if plan
                .view_deps
                .get(&v)
                .is_some_and(|d| d.intersects(&fallback))
            {
                fallback.insert(v);
                continue;
            }
            let ok = match plan
                .maint
                .views
                .get(&v)
                .expect("ordered views have strategies")
            {
                ViewMaint::KeyRederive {
                    key_cols,
                    rules,
                    sources,
                } => self.maintain_keys(v, key_cols, rules, sources, &plan, ctx)?,
                ViewMaint::Dred { rules, sources } => {
                    self.maintain_dred(v, rules, sources, &plan, ctx)?
                }
            };
            if ok {
                maintained += 1;
            } else {
                fallback.insert(v);
            }
        }
        if maintained > 0 {
            self.eval_stats.maint_rounds += 1;
            self.eval_stats.views_maintained += maintained;
        }
        if !fallback.is_empty() {
            self.recompute_views(&fallback, ctx)?;
            // The rebuild subsumed everything in the fallback views' logs:
            // advance their marks past the logs.
            for v in fallback.iter() {
                match plan.maint.views.get(&v) {
                    Some(ViewMaint::KeyRederive { sources, .. }) => {
                        self.advance_marks(v, sources.iter().map(|s| s.tid), ctx);
                    }
                    Some(ViewMaint::Dred { sources, .. }) => {
                        self.advance_marks(v, sources.iter().copied(), ctx);
                    }
                    None => {}
                }
            }
        }
        Ok(())
    }

    /// Maintain a KeyRederive view: re-derive every touched key rule by
    /// rule in rule order, keeping the last derivation per key — the same
    /// key-overwrite conflict resolution a from-scratch rebuild applies —
    /// then overwrite the keys whose row changed and delete the keys
    /// nothing derives any more. Unchanged keys cost nothing downstream.
    /// For an aggregate view the keys are its groups: emptied groups are
    /// the keys nothing derives. Only the groups logged past the marks are
    /// folded; the groups the stratum-entry fold found empty
    /// ([`TickCtx::emptied`]) join the key loop unfolded, so they are
    /// deleted in key order with the rest unless a later change re-derives
    /// them.
    fn maintain_keys(
        &mut self,
        v: TableId,
        key_cols: &[usize],
        anchors: &[AnchorEval],
        sources: &[SourceDep],
        plan: &Plan,
        ctx: &mut TickCtx,
    ) -> Result<bool> {
        let Some(mut keys) = self.touched_keys(v, sources, key_cols, plan, ctx)? else {
            return Ok(false);
        };
        // A non-recursive view never reads itself, so re-deriving before
        // touching its rows sees the same state deleting first would.
        let mut derived = std::collections::BTreeMap::new();
        if !keys.is_empty() {
            if anchors.iter().any(|a| plan.rules[a.rule].aggregate) {
                self.eval_stats.agg_folds_maint += keys.len() as u64;
            }
            for a in anchors {
                let (rows, mut sups) = self.rederive(a, &keys, plan, ctx)?;
                for (i, row) in rows.into_iter().enumerate() {
                    let inputs = sups
                        .as_mut()
                        .and_then(|sv| sv.get_mut(i))
                        .map(std::mem::take)
                        .unwrap_or_default();
                    let key: Vec<Value> = key_cols.iter().map(|&c| row[c].clone()).collect();
                    derived.insert(key, (a.rule, row, inputs));
                }
            }
        }
        // Groups the stratum-entry fold found empty: deleted below unless
        // re-derived above.
        let mut i = 0;
        while i < ctx.emptied.len() {
            if ctx.emptied[i].0 == v {
                keys.insert(ctx.emptied.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        for key in &keys {
            match derived.remove(key) {
                Some((rid, row, inputs)) => {
                    if self.tables[v.idx()].get_by_key(key) != Some(&row) {
                        self.maint_insert(v, &plan.rules[rid], row, &inputs, ctx)?;
                    }
                }
                None => {
                    if let Some(old) = self.tables[v.idx()].delete_by_key(key) {
                        self.eval_stats.maint_rows_retracted += 1;
                        self.publish(v, Change::Delete(&old), ctx);
                    }
                }
            }
        }
        debug_assert!(derived.is_empty(), "re-derived a key no delta touched");
        self.advance_marks(v, sources.iter().map(|s| s.tid), ctx);
        Ok(true)
    }

    /// Re-derive the touched `keys` through anchored rule `a`: run its
    /// anchor variant over the anchor rows the keys probe. Runs no kernel
    /// when no anchor row matches.
    fn rederive(
        &mut self,
        a: &AnchorEval,
        keys: &std::collections::BTreeSet<Vec<Value>>,
        plan: &Plan,
        ctx: &mut TickCtx,
    ) -> Result<(Vec<Row>, Option<Vec<Witness>>)> {
        let anchor_rows = self.collect_anchor_rows(a, keys);
        if anchor_rows.is_empty() {
            return Ok((Vec::new(), None));
        }
        self.maint_eval(&plan.rules[a.rule], a.variant, &anchor_rows, &mut ctx.eval)
    }

    /// Maintain a Dred view (delete-and-rederive for a self-recursive,
    /// whole-row-keyed view). Over-delete every row a deleted anchor row
    /// derived, closing over the recursive variants against the view's
    /// pre-maintenance contents, and only then remove them. Propagate the
    /// anchors' added rows that are still present, re-derive the
    /// over-deleted rows that still have a derivation by probing each
    /// rule's anchor with their head columns, and push everything inserted
    /// semi-naively through the recursive variants. The result is the
    /// least fixpoint over current inputs — exactly what recomputation
    /// builds — at a cost scaling with the over-deleted subtree.
    ///
    /// Over-deleted rows leave the table unpublished: taps, watch traces
    /// and downstream delta logs see only the rows that end up gone or
    /// new, the same before/after diff a rebuild emits.
    fn maintain_dred(
        &mut self,
        v: TableId,
        rules: &[DredRule],
        sources: &[TableId],
        plan: &Plan,
        ctx: &mut TickCtx,
    ) -> Result<bool> {
        // 1. Over-delete: seeds from deleted anchor rows, then closure.
        let mut over: Vec<Row> = Vec::new();
        let mut seen: FxHashSet<Row> = FxHashSet::default();
        for r in rules {
            let s = r.anchor.tid;
            let (_, d0) = ctx.view_marks.get(&(v, s)).copied().unwrap_or((0, 0));
            if ctx.m_del[s.idx()].len() == d0 {
                continue;
            }
            let rule = &plan.rules[r.anchor.rule];
            let (rows, _) = self.maint_eval(
                rule,
                r.anchor.variant,
                &ctx.m_del[s.idx()][d0..],
                &mut ctx.eval,
            )?;
            for row in rows {
                if self.tables[v.idx()].contains(&row) && seen.insert(row.clone()) {
                    over.push(row);
                }
            }
        }
        let mut lo = 0;
        while lo < over.len() {
            let frontier: Vec<Row> = over[lo..].to_vec();
            lo = over.len();
            for r in rules {
                let rule = &plan.rules[r.anchor.rule];
                for &vi in &r.recursive {
                    let (rows, _) = self.maint_eval(rule, vi, &frontier, &mut ctx.eval)?;
                    for row in rows {
                        if self.tables[v.idx()].contains(&row) && seen.insert(row.clone()) {
                            over.push(row);
                        }
                    }
                }
            }
        }
        for row in &over {
            self.tables[v.idx()].delete(row);
        }
        self.eval_stats.maint_rows_retracted += over.len() as u64;
        // 2. Insert side: derivations through the anchors' added rows.
        // Only rows still in the anchor table count: one window can add a
        // row and then overwrite or delete it again, and the over-delete
        // already removed whatever such a row derived.
        let mut fresh: Vec<Row> = Vec::new();
        for r in rules {
            let s = r.anchor.tid;
            let (a0, _) = ctx.view_marks.get(&(v, s)).copied().unwrap_or((0, 0));
            let added: Vec<Row> = ctx.added[s.idx()][a0..]
                .iter()
                .filter(|row| self.tables[s.idx()].contains(row))
                .cloned()
                .collect();
            if added.is_empty() {
                continue;
            }
            let rule = &plan.rules[r.anchor.rule];
            let (rows, sups) = self.maint_eval(rule, r.anchor.variant, &added, &mut ctx.eval)?;
            self.dred_insert_all(v, rule, rows, sups, &seen, &mut fresh, ctx)?;
        }
        // 3. Re-derive: one step from the surviving state, anchored.
        if !over.is_empty() {
            for r in rules {
                let keys: std::collections::BTreeSet<Vec<Value>> = over
                    .iter()
                    .map(|row| r.head_cols.iter().map(|&c| row[c].clone()).collect())
                    .collect();
                let (rows, sups) = self.rederive(&r.anchor, &keys, plan, ctx)?;
                let rule = &plan.rules[r.anchor.rule];
                self.dred_insert_all(v, rule, rows, sups, &seen, &mut fresh, ctx)?;
            }
        }
        // 4. Propagate everything inserted through the recursive variants.
        while !fresh.is_empty() {
            let delta = std::mem::take(&mut fresh);
            for r in rules {
                let rule = &plan.rules[r.anchor.rule];
                for &vi in &r.recursive {
                    let (rows, sups) = self.maint_eval(rule, vi, &delta, &mut ctx.eval)?;
                    self.dred_insert_all(v, rule, rows, sups, &seen, &mut fresh, ctx)?;
                }
            }
        }
        // 5. Publish the over-deleted rows nothing re-derived.
        for row in &over {
            if !self.tables[v.idx()].contains(row) {
                self.publish(v, Change::Delete(row), ctx);
            }
        }
        self.advance_marks(v, sources.iter().copied(), ctx);
        Ok(true)
    }

    /// Evaluate one variant for the maintainer over explicit delta rows,
    /// charging the rule's maintenance counters and eval clock. An
    /// aggregate rule folds the rows into its group rows, in group order.
    fn maint_eval(
        &mut self,
        rule: &CompiledRule,
        vi: usize,
        delta: &[Row],
        scratch: &mut EvalScratch,
    ) -> Result<(Vec<Row>, Option<Vec<Witness>>)> {
        let t0 = std::time::Instant::now();
        let variant = &rule.variants[vi];
        let out = if rule.aggregate {
            (self.eval_groups(rule, variant, Some(delta), scratch)?, None)
        } else {
            self.eval_variant(rule, variant, Some(delta), scratch)?
        };
        self.rule_stats[rule.id].maint_evals += 1;
        self.rule_stats[rule.id].eval_ns += t0.elapsed().as_nanos() as u64;
        Ok(out)
    }

    /// Insert DRed-derived rows into view `v` in order, with their
    /// provenance witnesses, appending every row that changed the table
    /// to `fresh` (the next semi-naive frontier). A row in `over` (this
    /// round's unpublished over-deletions) goes back in unpublished.
    #[allow(clippy::too_many_arguments)]
    fn dred_insert_all(
        &mut self,
        v: TableId,
        rule: &CompiledRule,
        rows: Vec<Row>,
        sups: Option<Vec<Witness>>,
        over: &FxHashSet<Row>,
        fresh: &mut Vec<Row>,
        ctx: &mut TickCtx,
    ) -> Result<()> {
        for (i, row) in rows.into_iter().enumerate() {
            let inputs: &[(String, Row)] = sups
                .as_ref()
                .and_then(|sv| sv.get(i))
                .map(|x| x.as_slice())
                .unwrap_or(&[]);
            let changed = if over.contains(&row) {
                self.charge_derivation(ctx)?;
                let restored = self.tables[v.idx()].insert(row.clone())? == InsertOutcome::New;
                if restored {
                    self.eval_stats.maint_rows_rederived += 1;
                    self.record_prov(rule, &row, inputs);
                }
                restored
            } else {
                self.maint_insert(v, rule, row.clone(), inputs, ctx)?
            };
            if changed {
                fresh.push(row);
            }
        }
        Ok(())
    }

    /// Scoped stratum-entry evaluation of a certified aggregate view: fold
    /// only the groups the delta logs name past the view's consumption
    /// marks, dispatch them exactly as the full evaluation would, and
    /// advance the marks past the entries read. Unchanged groups dispatch
    /// as duplicates in the full path too, so restricting to touched
    /// groups is invisible. Emptied groups emit nothing in both paths:
    /// their keys are carried in [`TickCtx::emptied`] and their stale
    /// rows stay visible until the end-of-tick pass deletes them. That
    /// pass folds only the groups logged after this fold, so a group is
    /// folded twice in one tick only when its inputs changed again after
    /// stratum entry (a deferred delete, upstream maintenance). Returns
    /// `false` when the rule is not certified or a dirty source cannot
    /// name its groups — the caller runs the full evaluation.
    fn scoped_aggregate(&mut self, rule: &CompiledRule, ctx: &mut TickCtx) -> Result<bool> {
        let plan = Arc::clone(&self.plan);
        if !plan.options.maintenance || !rule.is_view {
            return Ok(false);
        }
        let Some(ViewMaint::KeyRederive {
            key_cols,
            rules,
            sources,
        }) = plan.maint.views.get(&rule.head_tid)
        else {
            return Ok(false);
        };
        // An aggregate view re-derives through its only rule.
        let [anchor] = rules.as_slice() else {
            return Ok(false);
        };
        debug_assert_eq!(anchor.rule, rule.id);
        let v = rule.head_tid;
        let Some(mut keys) = self.touched_keys(v, sources, key_cols, &plan, ctx)? else {
            return Ok(false);
        };
        self.advance_marks(v, sources.iter().map(|s| s.tid), ctx);
        if keys.is_empty() {
            return Ok(true);
        }
        self.eval_stats.agg_folds_entry += keys.len() as u64;
        let (rows, _) = self.rederive(anchor, &keys, &plan, ctx)?;
        for row in &rows {
            keys.remove(
                &key_cols
                    .iter()
                    .map(|&c| row[c].clone())
                    .collect::<Vec<Value>>(),
            );
        }
        let table = &self.tables[v.idx()];
        ctx.emptied.extend(
            keys.into_iter()
                .filter(|key| table.get_by_key(key).is_some())
                .map(|key| (v, key)),
        );
        self.dispatch(rule, rows, None, ctx)?;
        Ok(true)
    }

    /// The set of view keys named by the unconsumed delta log entries of
    /// `sources`, or `None` when some dirty source is
    /// [`KeySource::Unbound`] — the caller falls back. A join-bound source
    /// runs its variant over its added and deleted rows against current
    /// state and projects the derived head rows onto `key_cols`.
    fn touched_keys(
        &mut self,
        v: TableId,
        sources: &[SourceDep],
        key_cols: &[usize],
        plan: &Plan,
        ctx: &mut TickCtx,
    ) -> Result<Option<std::collections::BTreeSet<Vec<Value>>>> {
        let mut keys = std::collections::BTreeSet::new();
        for dep in sources {
            let s = dep.tid.idx();
            let (a0, d0) = ctx.view_marks.get(&(v, dep.tid)).copied().unwrap_or((0, 0));
            if ctx.added[s].len() == a0 && ctx.m_del[s].len() == d0 {
                continue;
            }
            match &dep.keys {
                KeySource::Direct(binds) => {
                    for row in ctx.added[s][a0..].iter().chain(&ctx.m_del[s][d0..]) {
                        keys.insert(
                            binds
                                .iter()
                                .map(|b| match b {
                                    Bind::Col(c) => row[*c].clone(),
                                    Bind::Const(val) => val.clone(),
                                })
                                .collect::<Vec<Value>>(),
                        );
                    }
                }
                &KeySource::Join { rule, variant } => {
                    let rule = &plan.rules[rule];
                    let (mut rows, _) =
                        self.maint_eval(rule, variant, &ctx.added[s][a0..], &mut ctx.eval)?;
                    rows.extend(
                        self.maint_eval(rule, variant, &ctx.m_del[s][d0..], &mut ctx.eval)?
                            .0,
                    );
                    for row in rows {
                        keys.insert(key_cols.iter().map(|&c| row[c].clone()).collect());
                    }
                }
                KeySource::Unbound => return Ok(None),
            }
        }
        Ok(Some(keys))
    }

    /// Gather the anchor-table rows whose key projection lands in `keys`
    /// (they become the scoped re-evaluation's delta). `Col` binds form an
    /// index probe; `Const` binds filter keys the rule can never derive.
    /// Distinct keys probe disjoint rows, so the result has no duplicates.
    fn collect_anchor_rows(
        &mut self,
        anchor: &AnchorEval,
        keys: &std::collections::BTreeSet<Vec<Value>>,
    ) -> Vec<Row> {
        let cols: Vec<usize> = anchor
            .binds
            .iter()
            .filter_map(|b| match b {
                Bind::Col(c) => Some(*c),
                Bind::Const(_) => None,
            })
            .collect();
        let mut out = Vec::new();
        if cols.is_empty() {
            // Fully constant projection: the rule derives exactly one key;
            // if it is touched, every anchor row re-derives it.
            let want: Vec<Value> = anchor
                .binds
                .iter()
                .map(|b| match b {
                    Bind::Const(val) => val.clone(),
                    Bind::Col(_) => unreachable!("cols is empty"),
                })
                .collect();
            if keys.contains(&want) {
                out.extend(self.tables[anchor.tid.idx()].scan().cloned());
            }
            return out;
        }
        self.tables[anchor.tid.idx()].ensure_index(&cols);
        let mut vals: Vec<Value> = Vec::with_capacity(cols.len());
        'keys: for key in keys {
            vals.clear();
            for (b, kv) in anchor.binds.iter().zip(key) {
                match b {
                    Bind::Const(val) => {
                        if val != kv {
                            continue 'keys;
                        }
                    }
                    Bind::Col(_) => vals.push(kv.clone()),
                }
            }
            if let Some(rows) = self.tables[anchor.tid.idx()].lookup(&cols, &vals) {
                out.extend(rows.cloned());
            }
        }
        out
    }

    /// Mark every `(view, source)` delta-log pair fully consumed.
    fn advance_marks(&self, v: TableId, sources: impl Iterator<Item = TableId>, ctx: &mut TickCtx) {
        for s in sources {
            ctx.view_marks
                .insert((v, s), (ctx.added[s.idx()].len(), ctx.m_del[s.idx()].len()));
        }
    }

    /// Insert into a maintained view, published like every tick write
    /// (see [`Self::publish`]): the stored row enters the tick's insert
    /// log, which feeds downstream maintained views and, before the
    /// fixpoint, the fixpoint itself. Returns whether the row changed the
    /// table (new or key-overwrite).
    fn maint_insert(
        &mut self,
        v: TableId,
        rule: &CompiledRule,
        row: Row,
        inputs: &[(String, Row)],
        ctx: &mut TickCtx,
    ) -> Result<bool> {
        self.charge_derivation(ctx)?;
        let (row, outcome) = self.store(v, row)?;
        let change = match &outcome {
            InsertOutcome::New => Change::Insert(&row),
            InsertOutcome::Replaced(old) => Change::Overwrite(old, &row),
            InsertOutcome::Duplicate => return Ok(false),
        };
        self.eval_stats.maint_rows_rederived += 1;
        self.record_prov(rule, &row, inputs);
        self.publish(v, change, ctx);
        Ok(true)
    }

    /// Count one maintenance derivation against the tick's budget.
    fn charge_derivation(&self, ctx: &mut TickCtx) -> Result<()> {
        ctx.derivations += 1;
        if ctx.derivations > self.budget {
            return Err(OverlogError::Eval(
                "derivation budget exceeded during view maintenance".into(),
            ));
        }
        Ok(())
    }
}

/// One aggregate's running value inside a group.
enum Acc {
    Count(i64),
    Sum(Value),
    /// `Null` means unset: the first non-`null` input replaces it, and
    /// `null` inputs are skipped (a group of only `null`s folds to `null`).
    Min(Value),
    Max(Value),
    Avg(f64, i64),
    Set(std::collections::BTreeSet<Value>),
}

impl Acc {
    fn new(kind: AggKind) -> Self {
        match kind {
            AggKind::Count => Acc::Count(0),
            AggKind::Sum => Acc::Sum(Value::Int(0)),
            AggKind::Min => Acc::Min(Value::Null),
            AggKind::Max => Acc::Max(Value::Null),
            AggKind::Avg => Acc::Avg(0.0, 0),
            AggKind::Set => Acc::Set(Default::default()),
        }
    }

    /// Fold one input in (`count<*>` folds `Int(1)`).
    fn add(&mut self, input: &Value) -> Result<()> {
        match self {
            Acc::Count(c) => *c += 1,
            Acc::Sum(s) => *s = add_values(s, input)?,
            Acc::Min(m) => {
                if !matches!(input, Value::Null) && (matches!(m, Value::Null) || *input < *m) {
                    *m = input.clone();
                }
            }
            Acc::Max(m) => {
                if !matches!(input, Value::Null) && (matches!(m, Value::Null) || *input > *m) {
                    *m = input.clone();
                }
            }
            Acc::Avg(sum, n) => {
                *sum += input
                    .as_float()
                    .ok_or_else(|| OverlogError::Eval("avg over non-numeric value".into()))?;
                *n += 1;
            }
            Acc::Set(set) => {
                set.insert(input.clone());
            }
        }
        Ok(())
    }

    fn value(&self) -> Value {
        match self {
            Acc::Count(c) => Value::Int(*c),
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => v.clone(),
            Acc::Avg(_, 0) => Value::Null,
            Acc::Avg(sum, n) => Value::Float(sum / *n as f64),
            Acc::Set(set) => Value::list(set.iter().cloned().collect()),
        }
    }
}

/// Group and fold the `n` rows an aggregate rule's kernel emitted (laid
/// out back to back in `vals`) into head rows, sorted by group key for
/// deterministic emission. Each row holds the group key (the
/// non-aggregate head columns, in head order), then one input per
/// aggregate that has an input variable.
fn fold_groups(rule: &CompiledRule, vals: &[Value], n: usize) -> Result<Vec<Row>> {
    const ONE: Value = Value::Int(1);
    let nkeys = rule
        .head_args
        .iter()
        .filter(|a| matches!(a, CHeadArg::Key))
        .count();
    // Per aggregate: its kind and the row column of its input.
    let mut next = nkeys;
    let aggs: Vec<(AggKind, Option<usize>)> = rule
        .head_args
        .iter()
        .filter_map(|a| match a {
            CHeadArg::Agg(kind, input) => Some((
                *kind,
                input.then(|| {
                    next += 1;
                    next - 1
                }),
            )),
            CHeadArg::Key => None,
        })
        .collect();
    let width = next;
    let mut groups: FxHashMap<Vec<Value>, Vec<Acc>> = FxHashMap::default();
    for i in 0..n {
        let row = &vals[i * width..(i + 1) * width];
        let key = &row[..nkeys];
        if !groups.contains_key(key) {
            let accs = aggs.iter().map(|(kind, _)| Acc::new(*kind)).collect();
            groups.insert(key.to_vec(), accs);
        }
        let accs = groups.get_mut(key).expect("group inserted above");
        for (acc, (_, col)) in accs.iter_mut().zip(&aggs) {
            acc.add(col.map_or(&ONE, |c| &row[c]))?;
        }
    }
    let mut groups: Vec<(Vec<Value>, Vec<Acc>)> = groups.into_iter().collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(groups
        .into_iter()
        .map(|(key, accs)| {
            let (mut keys, mut vals) = (key.into_iter(), accs.iter());
            let row: Vec<Value> = rule
                .head_args
                .iter()
                .map(|a| match a {
                    CHeadArg::Key => keys.next().expect("one key per expr"),
                    CHeadArg::Agg(..) => vals.next().expect("one acc per agg").value(),
                })
                .collect();
            Arc::new(row)
        })
        .collect())
}

fn add_values(a: &Value, b: &Value) -> Result<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_add(*y))),
        _ => {
            let (x, y) = (
                a.as_float()
                    .ok_or_else(|| OverlogError::Eval(format!("sum over non-numeric {a}")))?,
                b.as_float()
                    .ok_or_else(|| OverlogError::Eval(format!("sum over non-numeric {b}")))?,
            );
            Ok(Value::Float(x + y))
        }
    }
}

/// Minimum delta rows before a gate is answered through the vectorized
/// column-group cache; below this the per-row scan is cheaper than
/// building the group.
const GATE_MIN_ROWS: usize = 8;

/// Outcome of the delta-gate pre-pass for one variant.
enum GateOutcome {
    /// No delta row passes the gate: skip the variant entirely.
    Skip,
    /// Every row passes (or, on the per-row scan, some row does):
    /// evaluate over the full slice.
    Full,
    /// A strict subset passes: evaluate over just those rows, kept in
    /// delta-arrival order.
    Rows(Vec<Row>),
}

/// Answer a variant's single-column delta gate from the round's
/// column-group cache, building the group on first touch. Multi-column
/// gates and tiny slices take the per-row all-fail scan instead.
fn gate_select(
    gates: &mut FxHashMap<(usize, usize), ColGroup>,
    slice: &[Row],
    dt: usize,
    gate: &[(usize, Value)],
) -> GateOutcome {
    if let [(col, v)] = gate {
        if slice.len() >= GATE_MIN_ROWS {
            let sel = gates
                .entry((dt, *col))
                .or_insert_with(|| ColGroup::from_rows(slice, *col))
                .select(v);
            return if sel.is_empty() {
                GateOutcome::Skip
            } else if sel.len() == slice.len() {
                GateOutcome::Full
            } else {
                GateOutcome::Rows(sel.iter().map(|&i| slice[i as usize].clone()).collect())
            };
        }
    }
    if slice.iter().all(|r| gate.iter().any(|(i, v)| r[*i] != *v)) {
        GateOutcome::Skip
    } else {
        GateOutcome::Full
    }
}

/// Where a kernel evaluation's head rows go.
enum Emit<'s> {
    /// One shared row per derivation, for dispatch.
    Rows(Vec<Row>),
    /// The values back to back in a pooled buffer, for a fold: no row is
    /// allocated, and the buffer is reused across evaluations.
    Flat(&'s mut Vec<Value>),
}

/// One kernel evaluation in flight: the candidate-row stack (borrowed
/// straight out of the tables and the delta slice — no `Arc` clone per
/// scanned row), the registers and pooled probe buffers, and what it
/// has emitted so far.
struct KRun<'a, 's> {
    rt: &'a OverlogRuntime,
    kernel: &'a Kernel,
    delta: Option<&'a [Row]>,
    levels: Vec<&'a Row>,
    regs: &'s mut Vec<Value>,
    probe_vals: &'s mut Vec<Value>,
    int_vals: &'s mut Vec<i64>,
    out: Emit<'s>,
    emitted: usize,
    /// Provenance witnesses, one per emitted row (capture on only).
    sups: Option<Vec<Witness>>,
}

impl<'a> KRun<'a, '_> {
    /// Recursive nested-loop execution of the kernel's ops from `oi`.
    fn exec(&mut self, oi: usize) -> Result<()> {
        let (rt, kernel) = (self.rt, self.kernel);
        let Some(op) = kernel.ops.get(oi) else {
            return self.emit();
        };
        match op {
            KOp::Assign(r, e) => {
                let v = kernel::eval(e, &self.levels, self.regs, &rt.builtins)?;
                self.regs[*r] = v;
                self.exec(oi + 1)
            }
            KOp::Filter(e) => {
                if kernel::truthy(e, &self.levels, self.regs, &rt.builtins)? {
                    self.exec(oi + 1)?;
                }
                Ok(())
            }
            KOp::NegScan {
                tid,
                arity,
                index_cols,
                probes,
                int_probe,
                const_checks,
                checks,
            } => {
                let (cands, exact) = self.scan_candidates(*tid, index_cols, probes, *int_probe)?;
                'rows: for row in cands {
                    if row.len() != *arity {
                        continue;
                    }
                    for (i, v) in const_checks {
                        if row[*i] != *v {
                            continue 'rows;
                        }
                    }
                    if self.checks_hold(checks, row, exact)? {
                        // A match refutes the negation: prune this path.
                        return Ok(());
                    }
                }
                self.exec(oi + 1)
            }
            KOp::Scan {
                tid,
                arity,
                is_delta,
                index_cols,
                probes,
                int_probe,
                const_checks,
                checks,
            } => {
                let (cands, exact) = match self.delta {
                    Some(delta) if *is_delta => (Candidates::Slice(delta.iter()), false),
                    _ => self.scan_candidates(*tid, index_cols, probes, *int_probe)?,
                };
                // In tail position the scan emits heads inline — no
                // recursion frame per matched row on the innermost (and
                // hottest) join level.
                let tail = oi + 1 == kernel.ops.len();
                'rows: for row in cands {
                    if row.len() != *arity {
                        continue;
                    }
                    for (i, v) in const_checks {
                        if row[*i] != *v {
                            continue 'rows;
                        }
                    }
                    // Stack the row, then check: duplicate-variable
                    // patterns reference same-row columns.
                    self.levels.push(row);
                    if self.checks_hold(checks, row, exact)? {
                        if tail {
                            self.emit()?;
                        } else {
                            self.exec(oi + 1)?;
                        }
                    }
                    self.levels.pop();
                }
                Ok(())
            }
        }
    }

    /// Do the candidate row's non-literal checks hold? In an exact
    /// bucket the indexed columns are already known equal and are not
    /// re-evaluated (so a builtin in a probe key runs once per probe).
    fn checks_hold(&self, checks: &[KCheck], row: &Row, exact: bool) -> Result<bool> {
        for ch in checks {
            if exact && ch.indexed {
                continue;
            }
            if !kernel::check(ch, row, &self.levels, self.regs, &self.rt.builtins)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Project the head over the current level stack and, when capture
    /// is on, record each positive scan's row as the provenance witness.
    fn emit(&mut self) -> Result<()> {
        let (rt, kernel) = (self.rt, self.kernel);
        let mut head = kernel
            .head
            .iter()
            .map(|e| kernel::eval(e, &self.levels, self.regs, &rt.builtins));
        match &mut self.out {
            Emit::Rows(rows) => {
                // Exact capacity: the row is stored for as long as the
                // table holds it.
                let mut row = Vec::with_capacity(kernel.head.len());
                head.try_for_each(|v| v.map(|v| row.push(v)))?;
                rows.push(Arc::new(row));
            }
            Emit::Flat(vals) => head.try_for_each(|v| v.map(|v| vals.push(v)))?,
        }
        self.emitted += 1;
        if let Some(sups) = &mut self.sups {
            sups.push(
                kernel
                    .level_tids
                    .iter()
                    .zip(&self.levels)
                    .map(|(t, r)| (rt.ids.name(*t).to_string(), Row::clone(r)))
                    .collect(),
            );
        }
        Ok(())
    }

    /// Candidate rows for a scan: the prebuilt index over the plan's
    /// statically-bound check columns, or a full scan when there are
    /// none. The flag is true when the rows are an exact-match bucket for
    /// an *uncoerced* probe, so indexed checks can be skipped (a coerced
    /// probe — `Str` widened to `Addr` — keeps its recheck: comparing the
    /// uncoerced value is the binding semantics).
    ///
    /// When every probed column is declared `int` *and* every runtime
    /// probe value is an `int`, the lookup hashes raw `i64`s straight
    /// into the index's integer-keyed buckets ([`Table::lookup_int`]):
    /// the very bucket a `Value` probe reaches (a column set has one
    /// index), and int columns never coerce.
    fn scan_candidates(
        &mut self,
        tid: TableId,
        index_cols: &[usize],
        probes: &[KExpr],
        int_probe: bool,
    ) -> Result<(Candidates<'a>, bool)> {
        let rt = self.rt;
        let t = &rt.tables[tid.idx()];
        if index_cols.is_empty() {
            return Ok((t.all_candidates(), false));
        }
        self.probe_vals.clear();
        if let [KExpr::Operand(op)] = probes {
            // Single-operand probe — the dominant join shape. Resolve by
            // borrow and hash the raw `i64` straight into the typed
            // single-column index: no `Value` clone, no probe staging.
            let v = kernel::resolve(op, &self.levels, self.regs);
            if int_probe {
                if let Value::Int(k) = v {
                    self.int_vals.clear();
                    self.int_vals.push(*k);
                    if let Some(bucket) = t.lookup_int(index_cols, self.int_vals) {
                        return Ok((Candidates::Bucket(bucket), true));
                    }
                }
            }
            self.probe_vals.push(v.clone());
        } else {
            for p in probes {
                let v = kernel::eval(p, &self.levels, self.regs, &rt.builtins)?;
                self.probe_vals.push(v);
            }
            if int_probe && self.probe_vals.iter().all(|v| matches!(v, Value::Int(_))) {
                self.int_vals.clear();
                self.int_vals
                    .extend(self.probe_vals.iter().filter_map(Value::as_int));
                if let Some(bucket) = t.lookup_int(index_cols, self.int_vals) {
                    return Ok((Candidates::Bucket(bucket), true));
                }
            }
        }
        let coerced = t.coerce_probe(index_cols, self.probe_vals);
        let (cands, bucket) = t.lookup_or_scan(index_cols, self.probe_vals);
        Ok((cands, bucket && !coerced))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejected_load_keeps_the_current_plan() {
        let mut rt = OverlogRuntime::new("n");
        rt.load("define(q, keys(0), {Int}); define(p, keys(0,1), {Int, Int}); p(X, X) :- q(X);")
            .unwrap();
        let before = Arc::clone(&rt.plan);
        let err = rt.load("p(X, Y) :- q(X);").unwrap_err();
        assert!(matches!(err, OverlogError::UnsafeRule { .. }), "{err:?}");
        assert!(Arc::ptr_eq(&before, &rt.plan));
        assert_eq!(rt.plan.rules.len(), 1);
    }
}
