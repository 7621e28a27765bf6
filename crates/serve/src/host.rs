//! Server side of the serving tier: a [`ServeHook`] attached to the node
//! that hosts the state of record (e.g. the BOOM-FS NameNode).
//!
//! Subscriptions are metaprogrammed: each unique query becomes an ordinary
//! Overlog view (`define` + one rule) loaded into the running program
//! through the analyzer/planner, so an illegal query is rejected with the
//! same diagnostics `olgcheck` would print. The query view is *tapped* at
//! commit points ([`OverlogRuntime::take_tap_delta`]), so propagation work
//! is proportional to the churn each query observes, never to state size.

use crate::protocol::*;
use boom_overlog::value::row;
use boom_overlog::{OverlogRuntime, Row, Value};
use boom_simnet::{Ctx, ServeHook};
use boom_trace::Registry;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Knobs for backpressure and recovery; defaults suit the simulator's
/// millisecond clock.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-subscription outbound queue bound. An overflowing queue drops
    /// (counted, never silent) and schedules a snapshot resync.
    pub queue_cap: usize,
    /// Max delta records in flight (sent, unacked) per subscription.
    pub window: usize,
    /// With records in flight and no ack for this long, assume the
    /// subscriber lost them (crash, partition) and schedule a resync.
    pub ack_timeout: u64,
    /// Minimum gap between consecutive resyncs of one subscription.
    pub resync_backoff: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: 256,
            window: 128,
            ack_timeout: 2_000,
            resync_backoff: 1_000,
        }
    }
}

/// One installed query: many subscriptions with identical text share one
/// generated view (fan-out sharing), so the evaluator maintains each
/// distinct query exactly once.
struct QueryState {
    table: String,
    source: String,
    /// `(client node, tag)` of every subscription fed by this view.
    subs: BTreeSet<(String, i64)>,
    /// Analyzer warnings (W0010 full recompute, W0011 untyped probe, …)
    /// naming the view, counted when the view was installed.
    warnings: u64,
}

/// A delta record queued for one subscription.
struct Rec {
    seq: u64,
    op: i64,
    tick: u64,
    time: u64,
    row: Row,
}

/// Per-subscription server state: the bounded queue, the ack window, and
/// the drop/resync counters the metrics report.
struct SubState {
    qkey: String,
    queue: VecDeque<Rec>,
    /// Next sequence number to assign to a queued record.
    next_seq: u64,
    /// Highest sequence number flushed to the network.
    sent_seq: u64,
    /// Highest sequence number the client acknowledged.
    acked: u64,
    dropped: u64,
    delivered: u64,
    resyncs: u64,
    needs_resync: bool,
    last_ack_at: u64,
    last_resync_at: u64,
}

impl SubState {
    fn inflight(&self) -> u64 {
        self.sent_seq.saturating_sub(self.acked)
    }

    /// Rough resident size: the struct plus queued rows (for the
    /// per-subscription memory figure E13 reports).
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.qkey.len()
            + self
                .queue
                .iter()
                .map(|r| std::mem::size_of::<Rec>() + r.row.len() * std::mem::size_of::<Value>())
                .sum::<usize>()
    }
}

/// The serving tier's server half: attach to an [`OverlogActor`] with
/// `add_hook`; drive with [`crate::SubscriberActor`] clients (or raw
/// protocol tuples).
///
/// [`OverlogActor`]: boom_simnet::OverlogActor
#[derive(Default)]
pub struct ServeHost {
    cfg: ServeConfig,
    /// Canonical query text → installed view.
    queries: BTreeMap<String, QueryState>,
    /// Generated view table name → canonical query text.
    by_table: BTreeMap<String, String>,
    subs: BTreeMap<(String, i64), SubState>,
    /// Subscriptions with something to do (queued records, resync due, or
    /// records in flight) — the only ones [`ServeHook::after_commit`]
    /// visits, so an idle subscription costs nothing per activation.
    active: BTreeSet<(String, i64)>,
    next_qid: u64,
    /// Drops accumulated over the host's lifetime, including retired
    /// subscriptions.
    pub total_dropped: u64,
    /// Resyncs over the host's lifetime, including retired subscriptions.
    pub total_resyncs: u64,
    /// Delta records flushed to subscribers over the host's lifetime.
    pub total_delivered: u64,
}

impl ServeHost {
    pub fn new(cfg: ServeConfig) -> Self {
        ServeHost {
            cfg,
            queries: BTreeMap::new(),
            by_table: BTreeMap::new(),
            subs: BTreeMap::new(),
            active: BTreeSet::new(),
            next_qid: 0,
            total_dropped: 0,
            total_resyncs: 0,
            total_delivered: 0,
        }
    }

    /// Number of live subscriptions.
    pub fn sub_count(&self) -> usize {
        self.subs.len()
    }

    /// Number of distinct installed queries (≤ subscriptions, thanks to
    /// fan-out sharing).
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// The generated view table serving `spec`, if that query is
    /// installed.
    pub fn query_table(&self, spec: &SubscriptionSpec) -> Option<String> {
        self.queries
            .get(&spec.canonical_key())
            .map(|q| q.table.clone())
    }

    /// Total resident bytes of all subscription state, queues included.
    pub fn mem_bytes(&self) -> usize {
        let subs: usize = self.subs.values().map(|s| s.mem_bytes()).sum();
        let keys: usize = self.subs.keys().map(|(c, _)| c.len() + 8).sum();
        let queries: usize = self
            .queries
            .values()
            .map(|q| q.table.len() + q.source.len() + q.subs.len() * 24)
            .sum();
        subs + keys + queries
    }

    /// Export host-side metrics: totals as counters, per-subscription
    /// queue depth as a sample distribution.
    pub fn export_metrics(&self, reg: &mut Registry) {
        reg.count("srv.dropped", self.total_dropped);
        reg.count("srv.resyncs", self.total_resyncs);
        reg.count("srv.delivered", self.total_delivered);
        reg.gauge("srv.subs", self.subs.len() as f64);
        reg.gauge("srv.queries", self.queries.len() as f64);
        reg.gauge("srv.mem_bytes", self.mem_bytes() as f64);
        for s in self.subs.values() {
            reg.sample("srv.queue_depth", s.queue.len() as f64);
        }
    }

    fn mark_active(&mut self, key: &(String, i64)) {
        self.active.insert(key.clone());
    }

    fn subscribe(
        &mut self,
        rt: &mut OverlogRuntime,
        ctx: &mut Ctx<'_>,
        client: String,
        tag: i64,
        spec: &SubscriptionSpec,
    ) {
        let qkey = spec.canonical_key();
        let key = (client.clone(), tag);
        // Install the view on first use of this query text.
        if !self.queries.contains_key(&qkey) {
            let table = format!("{QUERY_PREFIX}{}", self.next_qid);
            let source = spec.view_source(&table);
            if let Err(e) = rt.load(&source) {
                ctx.send_observed(
                    &client,
                    ERR_TABLE,
                    row(vec![Value::Int(tag), Value::str(format!("{e}"))]),
                );
                return;
            }
            self.next_qid += 1;
            rt.add_tap(&table);
            // Seed the new view from pre-existing base state. The tapped
            // rebuild diff it produces is discarded below (the fresh
            // subscription starts from a snapshot anyway).
            if let Err(e) = rt.refresh_views() {
                ctx.send_observed(
                    &client,
                    ERR_TABLE,
                    row(vec![Value::Int(tag), Value::str(format!("{e}"))]),
                );
                let _ = rt.unload(&source);
                rt.remove_tap(&table);
                return;
            }
            // Surface analyzer warnings (W0010, W0011 et al.) that
            // mention the generated view or its rule.
            let warnings = rt
                .check()
                .iter()
                .filter(|d| d.code.starts_with('W') && d.message.contains(&table))
                .count() as u64;
            self.by_table.insert(table.clone(), qkey.clone());
            self.queries.insert(
                qkey.clone(),
                QueryState {
                    table,
                    source,
                    subs: BTreeSet::new(),
                    warnings,
                },
            );
        }
        // Re-subscribing an existing (client, tag) re-points it (and
        // resets its stream — the client asked to start over).
        if let Some(old) = self.subs.remove(&key) {
            self.retire_sub_from_query(&old.qkey, &key);
            self.total_dropped += old.dropped;
            self.total_resyncs += old.resyncs;
            self.total_delivered += old.delivered;
        }
        let q = self.queries.get_mut(&qkey).expect("installed above");
        q.subs.insert(key.clone());
        let (table, warnings) = (q.table.clone(), q.warnings);
        self.subs.insert(
            key.clone(),
            SubState {
                qkey,
                queue: VecDeque::new(),
                next_seq: 0,
                sent_seq: 0,
                acked: 0,
                dropped: 0,
                delivered: 0,
                resyncs: 0,
                needs_resync: true,
                last_ack_at: ctx.now(),
                last_resync_at: 0,
            },
        );
        self.mark_active(&key);
        ctx.send_observed(
            &client,
            SUB_OK_TABLE,
            row(vec![
                Value::Int(tag),
                Value::str(table),
                Value::Int(warnings as i64),
            ]),
        );
    }

    fn retire_sub_from_query(&mut self, qkey: &str, key: &(String, i64)) {
        if let Some(q) = self.queries.get_mut(qkey) {
            q.subs.remove(key);
        }
    }

    fn unsubscribe(&mut self, rt: &mut OverlogRuntime, client: &str, tag: i64) {
        let key = (client.to_string(), tag);
        let Some(sub) = self.subs.remove(&key) else {
            return;
        };
        self.active.remove(&key);
        self.total_dropped += sub.dropped;
        self.total_resyncs += sub.resyncs;
        self.total_delivered += sub.delivered;
        let qkey = sub.qkey;
        self.retire_sub_from_query(&qkey, &key);
        let retire = self
            .queries
            .get(&qkey)
            .map(|q| q.subs.is_empty())
            .unwrap_or(false);
        if retire {
            let q = self.queries.remove(&qkey).expect("checked above");
            self.by_table.remove(&q.table);
            // Uninstall the generated view: rules leave the plan (their
            // stats slots with them), the tap closes, the rows go.
            rt.remove_tap(&q.table);
            let _ = rt.unload(&q.source);
            let _ = rt.clear_table(&q.table);
        }
    }

    fn ack(&mut self, ctx: &Ctx<'_>, client: &str, entries: &[Value]) {
        for e in entries {
            let Some(pair) = e.as_list() else { continue };
            let (Some(tag), Some(seq)) = (
                pair.first().and_then(Value::as_int),
                pair.get(1).and_then(Value::as_int),
            ) else {
                continue;
            };
            let key = (client.to_string(), tag);
            if let Some(sub) = self.subs.get_mut(&key) {
                sub.acked = sub.acked.max(seq as u64);
                sub.last_ack_at = ctx.now();
                if !sub.queue.is_empty() || sub.needs_resync || sub.inflight() > 0 {
                    self.active.insert(key);
                }
            }
        }
    }

    fn pull(
        &mut self,
        rt: &mut OverlogRuntime,
        ctx: &mut Ctx<'_>,
        client: &str,
        req: i64,
        table: &str,
    ) {
        let ok = rt.table(table).map(|t| !t.is_event()).unwrap_or(false);
        if !ok {
            ctx.send_observed(
                client,
                ERR_TABLE,
                row(vec![
                    Value::Int(req),
                    Value::str(format!("pull: no materialized table `{table}`")),
                ]),
            );
            return;
        }
        let rows: Vec<Value> = rt
            .table(table)
            .expect("checked above")
            .sorted_rows()
            .into_iter()
            .map(|r| Value::list(r.to_vec()))
            .collect();
        // Staleness bound: the snapshot is as of the server's current
        // virtual time; the client sees it one observed-channel hop later.
        ctx.send_observed(
            client,
            PULL_OK_TABLE,
            row(vec![
                Value::Int(req),
                Value::Int(ctx.now() as i64),
                Value::list(rows),
            ]),
        );
    }

    /// Queue freshly committed tap records onto each subscription of the
    /// table's query.
    fn enqueue_taps(&mut self, rt: &mut OverlogRuntime) {
        let taps = rt.take_tap_delta();
        if taps.is_empty() {
            return;
        }
        for rec in taps {
            let Some(qkey) = self.by_table.get(&rec.table) else {
                continue;
            };
            let subs: Vec<(String, i64)> = self
                .queries
                .get(qkey)
                .map(|q| q.subs.iter().cloned().collect())
                .unwrap_or_default();
            let op = match rec.op {
                boom_overlog::CommitOp::Insert => OP_INSERT,
                boom_overlog::CommitOp::Delete => OP_DELETE,
            };
            for key in subs {
                let Some(sub) = self.subs.get_mut(&key) else {
                    continue;
                };
                if sub.needs_resync {
                    continue; // the snapshot will cover this record
                }
                if sub.queue.len() >= self.cfg.queue_cap {
                    // Counted, never silent: the stream is now incomplete,
                    // so the subscriber gets a snapshot instead.
                    sub.dropped += 1;
                    self.total_dropped += 1;
                    sub.needs_resync = true;
                    sub.queue.clear();
                    self.active.insert(key);
                    continue;
                }
                let seq = sub.next_seq;
                sub.next_seq += 1;
                sub.queue.push_back(Rec {
                    seq,
                    op,
                    tick: rec.tick,
                    time: rec.time,
                    row: rec.row.clone(),
                });
                self.active.insert(key);
            }
        }
    }

    /// Resync pass: replace a broken stream with a reset marker plus a
    /// full snapshot of the query view (bypasses the queue cap — a
    /// snapshot is bounded by result size, and re-dropping it would loop).
    fn resync_due(&mut self, rt: &OverlogRuntime, now: u64) {
        let due: Vec<(String, i64)> = self
            .active
            .iter()
            .filter(|k| {
                self.subs
                    .get(*k)
                    .map(|s| {
                        s.needs_resync
                            && now.saturating_sub(s.last_resync_at) >= self.cfg.resync_backoff
                    })
                    .unwrap_or(false)
            })
            .cloned()
            .collect();
        for key in due {
            let sub = self.subs.get_mut(&key).expect("filtered above");
            let table = self
                .queries
                .get(&sub.qkey)
                .map(|q| q.table.clone())
                .expect("sub points at a live query");
            sub.queue.clear();
            let seq = sub.next_seq;
            sub.next_seq += 1;
            sub.queue.push_back(Rec {
                seq,
                op: OP_RESET,
                tick: 0,
                time: now,
                row: row(vec![]),
            });
            if let Some(t) = rt.table(&table) {
                for r in t.sorted_rows() {
                    let seq = sub.next_seq;
                    sub.next_seq += 1;
                    sub.queue.push_back(Rec {
                        seq,
                        op: OP_SNAP,
                        tick: 0,
                        time: now,
                        row: r.clone(),
                    });
                }
            }
            // The snapshot supersedes everything in flight.
            sub.acked = sub.acked.max(sub.sent_seq);
            sub.needs_resync = false;
            sub.resyncs += 1;
            self.total_resyncs += 1;
            sub.last_resync_at = now;
        }
    }

    /// Flush queued records up to each subscription's window, batched into
    /// one `srv_delta` tuple per client node, and retire idle subs from
    /// the active set.
    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        let mut batches: BTreeMap<String, Vec<Value>> = BTreeMap::new();
        let mut idle: Vec<(String, i64)> = Vec::new();
        let now = ctx.now();
        for key in self.active.iter().cloned().collect::<Vec<_>>() {
            let Some(sub) = self.subs.get_mut(&key) else {
                idle.push(key);
                continue;
            };
            while sub.inflight() < self.cfg.window as u64 {
                let Some(rec) = sub.queue.pop_front() else {
                    break;
                };
                sub.sent_seq = sub.sent_seq.max(rec.seq + 1);
                sub.delivered += 1;
                self.total_delivered += 1;
                batches
                    .entry(key.0.clone())
                    .or_default()
                    .push(Value::list(vec![
                        Value::Int(key.1),
                        Value::Int(rec.seq as i64),
                        Value::Int(rec.op),
                        Value::Int(rec.tick as i64),
                        Value::Int(rec.time as i64),
                        Value::list(rec.row.to_vec()),
                    ]));
            }
            // Ack-timeout: in-flight records unacknowledged for too long
            // are presumed lost (crashed or partitioned subscriber).
            if sub.inflight() > 0
                && now.saturating_sub(sub.last_ack_at.max(sub.last_resync_at))
                    >= self.cfg.ack_timeout
            {
                sub.needs_resync = true;
            }
            if sub.queue.is_empty() && !sub.needs_resync && sub.inflight() == 0 {
                idle.push(key);
            }
        }
        for key in idle {
            self.active.remove(&key);
        }
        for (client, entries) in batches {
            let n = entries.len() as i64;
            ctx.send_observed(
                &client,
                DELTA_TABLE,
                row(vec![Value::Int(n), Value::list(entries)]),
            );
        }
    }
}

impl ServeHook for ServeHost {
    fn on_tuple(
        &mut self,
        rt: &mut OverlogRuntime,
        ctx: &mut Ctx<'_>,
        tuple: &boom_overlog::NetTuple,
    ) -> bool {
        match tuple.table.as_str() {
            SUB_TABLE => {
                if let Some((client, tag, spec)) = SubscriptionSpec::from_row(&tuple.row) {
                    self.subscribe(rt, ctx, client, tag, &spec);
                }
                true
            }
            UNSUB_TABLE => {
                if let (Some(client), Some(tag)) = (
                    tuple.row.first().and_then(Value::as_str),
                    tuple.row.get(1).and_then(Value::as_int),
                ) {
                    let client = client.to_string();
                    self.unsubscribe(rt, &client, tag);
                }
                true
            }
            ACK_TABLE => {
                if let (Some(client), Some(entries)) = (
                    tuple.row.first().and_then(Value::as_str),
                    tuple.row.get(1).and_then(Value::as_list),
                ) {
                    let client = client.to_string();
                    let entries = entries.to_vec();
                    self.ack(ctx, &client, &entries);
                }
                true
            }
            PULL_TABLE => {
                if let (Some(client), Some(req), Some(table)) = (
                    tuple.row.first().and_then(Value::as_str),
                    tuple.row.get(1).and_then(Value::as_int),
                    tuple.row.get(2).and_then(Value::as_str),
                ) {
                    let (client, table) = (client.to_string(), table.to_string());
                    self.pull(rt, ctx, &client, req, &table);
                }
                true
            }
            _ => false,
        }
    }

    fn after_commit(&mut self, rt: &mut OverlogRuntime, ctx: &mut Ctx<'_>) {
        self.enqueue_taps(rt);
        self.resync_due(rt, ctx.now());
        self.flush(ctx);
    }

    fn after_restart(&mut self, rt: &mut OverlogRuntime, ctx: &mut Ctx<'_>) {
        // A factory-rebuilt runtime comes back without our generated
        // views (query tables are observation tables, excluded from the
        // WAL): reinstall every installed query and reopen its tap. A
        // runtime that survived in memory still has them — don't
        // double-install.
        for q in self.queries.values() {
            if rt.table(&q.table).is_none() && rt.load(&q.source).is_err() {
                continue;
            }
            rt.add_tap(&q.table);
        }
        let _ = rt.refresh_views();
        // The rebuild diff is stale (pre-crash seqs); drop it.
        let _ = rt.take_tap_delta();
        let keys: Vec<(String, i64)> = self.subs.keys().cloned().collect();
        for key in keys {
            if let Some(sub) = self.subs.get_mut(&key) {
                sub.queue.clear();
                sub.needs_resync = true;
                sub.last_resync_at = 0;
                sub.last_ack_at = ctx.now();
            }
            self.active.insert(key);
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
