//! Adapter hosting an [`OverlogRuntime`] on a simulator node.
//!
//! This is the moral equivalent of the paper's JOL-on-a-JVM deployment: the
//! actor feeds arriving tuples into the runtime, drives its timestep clock,
//! and routes outbound tuples over the simulated network.

use crate::durable::DurableStore;
use crate::{Actor, Ctx};
use boom_overlog::{is_observation_table, NetTuple, OverlogRuntime};
use std::any::Any;

/// Extension point for layers that observe a hosted runtime without being
/// part of its Overlog program — the serving tier (`boom-serve`) is the
/// canonical implementor. Hooks see every control tuple before the runtime
/// does, run after every committed activation, and are told about crash
/// recoveries so they can resynchronize downstream observers.
pub trait ServeHook: Send {
    /// An inbound tuple arrived. Return `true` to consume it (the runtime
    /// never sees it) — used for control-plane tables like `srv_sub` that
    /// are not part of the hosted program.
    fn on_tuple(&mut self, rt: &mut OverlogRuntime, ctx: &mut Ctx<'_>, tuple: &NetTuple) -> bool;
    /// The runtime finished an activation (its deltas are committed and,
    /// in durable mode, persisted). Drain taps and fan out here.
    fn after_commit(&mut self, rt: &mut OverlogRuntime, ctx: &mut Ctx<'_>);
    /// The node crash-restarted and (if durable) recovered. Reinstall any
    /// metaprogrammed state the factory rebuild discarded.
    fn after_restart(&mut self, rt: &mut OverlogRuntime, ctx: &mut Ctx<'_>);
    /// Downcast support so harnesses can reach a concrete hook.
    fn as_any(&mut self) -> &mut dyn Any;
}

/// Factory that (re)builds a node's runtime: used at startup and again
/// after a crash-restart, modeling loss of volatile state.
pub type RuntimeFactory = Box<dyn FnMut(&str) -> OverlogRuntime + Send>;

/// When a durable actor checkpoints: after this many write-ahead-log
/// entries have accumulated since the last snapshot (`0` = never).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once this many log entries accumulate since the last
    /// snapshot; `0` disables checkpointing (unbounded replay).
    pub every_entries: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy { every_entries: 512 }
    }
}

/// What one crash-recovery cost (appended to
/// [`OverlogActor::recoveries`]).
#[derive(Debug, Clone)]
pub struct RecoveryStats {
    /// Virtual time of the restart.
    pub at: u64,
    /// Rows installed from the checkpoint snapshot.
    pub snapshot_rows: usize,
    /// Log entries physically replayed.
    pub replayed_entries: usize,
    /// Log batches the entries came from.
    pub wal_batches: usize,
    /// Wall-clock cost of restore (snapshot install + replay + view
    /// rebuild) — the recovery time E12 measures.
    pub wall: std::time::Duration,
}

/// Durable-mode state: the disk handle, the checkpoint policy, and the
/// bookkeeping between appends.
struct DurableState {
    store: DurableStore,
    policy: CheckpointPolicy,
    /// Log entries appended since the last checkpoint.
    entries_since_ckpt: usize,
    /// Counter values as of the last append (a counters-only change still
    /// needs an append, or recovered runtimes would re-issue ids).
    last_counters: Vec<(String, i64)>,
}

/// An [`Actor`] that executes an Overlog program.
pub struct OverlogActor {
    rt: OverlogRuntime,
    factory: Option<RuntimeFactory>,
    tick_period: u64,
    durable: Option<DurableState>,
    /// Observers attached with [`OverlogActor::add_hook`]; called in
    /// attachment order.
    hooks: Vec<Box<dyn ServeHook>>,
    /// Evaluation errors encountered while ticking (program bugs); the
    /// simulation keeps running so harnesses can inspect them.
    pub errors: Vec<String>,
    /// One entry per crash-recovery performed (durable mode only).
    pub recoveries: Vec<RecoveryStats>,
    /// Accumulated wall-clock time spent evaluating this runtime. The
    /// simulator's virtual clock models the network; this models the
    /// node's CPU, and is what capacity experiments (E6/E7) measure.
    pub busy: std::time::Duration,
}

impl OverlogActor {
    /// Host the given runtime, ticking it every `tick_period` ms of virtual
    /// time (in addition to a tick per arriving tuple). A crashed node
    /// restarts with this same (stale) runtime state — use
    /// [`OverlogActor::with_factory`] to model volatile state.
    pub fn new(rt: OverlogRuntime, tick_period: u64) -> Self {
        OverlogActor {
            rt,
            factory: None,
            tick_period: tick_period.max(1),
            durable: None,
            hooks: Vec::new(),
            errors: Vec::new(),
            recoveries: Vec::new(),
            busy: std::time::Duration::ZERO,
        }
    }

    /// Build the runtime from a factory; a restart after a crash rebuilds
    /// it from scratch (all soft state lost), like the paper's NameNode
    /// failure experiments.
    pub fn with_factory(mut factory: RuntimeFactory, tick_period: u64, name: &str) -> Self {
        let rt = factory(name);
        OverlogActor {
            rt,
            factory: Some(factory),
            tick_period: tick_period.max(1),
            durable: None,
            hooks: Vec::new(),
            errors: Vec::new(),
            recoveries: Vec::new(),
            busy: std::time::Duration::ZERO,
        }
    }

    /// Turn on durability: after every activation the runtime's committed
    /// deltas are appended to `store`, a checkpoint is cut per `policy`,
    /// and a restart recovers (snapshot + log replay) into the
    /// factory-fresh runtime instead of rejoining blank. The hosted
    /// runtime must have durable tables marked (the factory does this, so
    /// the marking survives rebuilds).
    pub fn enable_durability(&mut self, store: DurableStore, policy: CheckpointPolicy) {
        self.durable = Some(DurableState {
            store,
            policy,
            entries_since_ckpt: 0,
            last_counters: self.rt.counter_values(),
        });
    }

    /// Builder-style [`OverlogActor::enable_durability`].
    pub fn with_durability(mut self, store: DurableStore, policy: CheckpointPolicy) -> Self {
        self.enable_durability(store, policy);
        self
    }

    /// Access the hosted runtime (for queries and instrumentation).
    pub fn runtime(&mut self) -> &mut OverlogRuntime {
        &mut self.rt
    }

    /// Read-only access to the hosted runtime.
    pub fn runtime_ref(&self) -> &OverlogRuntime {
        &self.rt
    }

    /// Attach a [`ServeHook`]. Hooks run in attachment order.
    pub fn add_hook(&mut self, hook: Box<dyn ServeHook>) {
        self.hooks.push(hook);
    }

    /// Builder-style [`OverlogActor::add_hook`].
    pub fn with_hook(mut self, hook: Box<dyn ServeHook>) -> Self {
        self.add_hook(hook);
        self
    }

    /// Find the first attached hook of concrete type `T`.
    pub fn hook_mut<T: ServeHook + 'static>(&mut self) -> Option<&mut T> {
        self.hooks
            .iter_mut()
            .find_map(|h| h.as_any().downcast_mut::<T>())
    }

    fn tick_and_route(&mut self, ctx: &mut Ctx<'_>) {
        let t0 = std::time::Instant::now();
        self.tick_and_route_inner(ctx);
        self.busy += t0.elapsed();
    }

    fn tick_and_route_inner(&mut self, ctx: &mut Ctx<'_>) {
        // Tick repeatedly while the runtime keeps producing pending work
        // for itself (bounded to avoid livelock on buggy programs).
        for _ in 0..4 {
            match self.rt.tick(ctx.now()) {
                Ok(res) => {
                    for send in res.sends {
                        ctx.send_tuple(send);
                    }
                }
                Err(e) => {
                    self.errors.push(format!("t={} {e}", ctx.now()));
                    return;
                }
            }
            if !self.rt.has_pending() {
                break;
            }
        }
        self.persist(ctx.now(), ctx.me());
        for h in &mut self.hooks {
            h.after_commit(&mut self.rt, ctx);
        }
    }

    /// Durable mode: append this activation's committed deltas to the
    /// write-ahead log and checkpoint when the policy says so. The append
    /// happens before any tuple sent during the activation can be
    /// delivered (network latency is ≥ the synchronous handler), so state
    /// a peer can observe is always on disk first — an acceptor's promise
    /// is durable before the proposer sees it.
    fn persist(&mut self, now: u64, me: &str) {
        let Some(d) = self.durable.as_mut() else {
            return;
        };
        if !self.rt.durable_enabled() {
            return;
        }
        let delta = self.rt.take_commit_delta();
        let counters = self.rt.counter_values();
        if delta.is_empty() && counters == d.last_counters {
            return;
        }
        d.entries_since_ckpt += delta.len();
        d.last_counters.clone_from(&counters);
        d.store.append(me, now, delta, counters);
        if d.policy.every_entries > 0 && d.entries_since_ckpt >= d.policy.every_entries {
            d.store.checkpoint(me, self.rt.snapshot());
            d.entries_since_ckpt = 0;
        }
    }
}

/// Apply planner options to every Overlog node in the simulation — the
/// switch the byte-identity tests flip between maintained and recomputed
/// views.
pub fn set_plan_options_all(sim: &mut crate::Sim, opts: boom_overlog::PlanOptions) {
    for name in sim.node_names() {
        sim.try_with_actor::<OverlogActor, _>(&name, |a| a.runtime().set_plan_options(opts));
    }
}

/// Canonical dump of every Overlog node's materialized (non-event) state:
/// nodes sorted by name, tables sorted by name, rows sorted. Two runs of
/// the same scenario are behaviorally identical iff these strings are
/// byte-identical.
pub fn overlog_state_fingerprint(sim: &mut crate::Sim) -> String {
    let mut names = sim.node_names();
    names.sort();
    let mut out = String::new();
    for name in names {
        let dump = sim.try_with_actor::<OverlogActor, _>(&name, |a| {
            let rt = a.runtime_ref();
            let mut tables: Vec<String> = rt.table_decls().map(|d| d.name.clone()).collect();
            tables.sort();
            let mut s = String::new();
            for t in tables {
                // Observation tables (generated monitors, serve-tier query
                // views) are excluded: attaching observers must not change
                // the fingerprint ("observe, never perturb").
                if is_observation_table(&t) {
                    continue;
                }
                let table = rt.table(&t).expect("declared table exists");
                if table.is_event() {
                    continue;
                }
                for row in table.sorted_rows() {
                    s.push_str(&format!("  {t}{row:?}\n"));
                }
            }
            s
        });
        if let Some(dump) = dump {
            out.push_str(&format!("node {name}:\n{dump}"));
        }
    }
    out
}

impl Actor for OverlogActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.tick_and_route(ctx);
        ctx.set_timer(self.tick_period, 0);
    }

    fn on_tuple(&mut self, ctx: &mut Ctx<'_>, tuple: NetTuple) {
        self.on_tuples(ctx, vec![tuple]);
    }

    fn on_tuples(&mut self, ctx: &mut Ctx<'_>, tuples: Vec<NetTuple>) {
        let mut any = false;
        'tuples: for tuple in tuples {
            for h in &mut self.hooks {
                if h.on_tuple(&mut self.rt, ctx, &tuple) {
                    any = true;
                    continue 'tuples;
                }
            }
            match self.rt.deliver(&tuple) {
                Ok(()) => any = true,
                Err(e) => self
                    .errors
                    .push(format!("t={} deliver {}: {e}", ctx.now(), tuple.table)),
            }
        }
        if any {
            self.tick_and_route(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        self.tick_and_route(ctx);
        ctx.set_timer(self.tick_period, 0);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(factory) = &mut self.factory {
            self.rt = factory(ctx.me());
        }
        if let Some(d) = self.durable.as_mut() {
            let rec = d.store.recover(ctx.me());
            let t0 = std::time::Instant::now();
            let snapshot_rows = rec.snapshot.as_ref().map(|s| s.row_count()).unwrap_or(0);
            match self
                .rt
                .restore(rec.snapshot.as_ref(), &rec.log, &rec.counters)
            {
                Ok(_) => self.recoveries.push(RecoveryStats {
                    at: ctx.now(),
                    snapshot_rows,
                    replayed_entries: rec.log.len(),
                    wal_batches: rec.batches,
                    wall: t0.elapsed(),
                }),
                Err(e) => self.errors.push(format!("t={} restore: {e}", ctx.now())),
            }
            // Appends continue onto the surviving log; keep counting
            // replay cost from the last checkpoint, not from zero.
            d.entries_since_ckpt = rec.log.len();
            d.last_counters = rec.counters;
        }
        for h in &mut self.hooks {
            h.after_restart(&mut self.rt, ctx);
        }
        self.tick_and_route(ctx);
        ctx.set_timer(self.tick_period, 0);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimConfig};
    use boom_overlog::value::row;
    use boom_overlog::Value;

    fn echo_runtime(name: &str) -> OverlogRuntime {
        let mut rt = OverlogRuntime::new(name);
        rt.load(
            "event req, {Addr, Int};
             event resp, {Addr, Int};
             define(seen, keys(0), {Int});
             resp(@Src, X * 2) :- req(Src, X);
             seen(X) :- req(_, X);",
        )
        .unwrap();
        rt
    }

    #[test]
    fn two_runtimes_exchange_tuples() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(
            "server",
            Box::new(OverlogActor::new(echo_runtime("server"), 50)),
        );
        let mut client = OverlogRuntime::new("client");
        client
            .load(
                "event resp, {Addr, Int};
                 define(answers, keys(0), {Int});
                 answers(X) :- resp(_, X);",
            )
            .unwrap();
        sim.add_node("client", Box::new(OverlogActor::new(client, 50)));
        sim.inject(
            "server",
            "req",
            row(vec![Value::addr("client"), Value::Int(21)]),
        );
        let ok = sim.run_while(5_000, |s| {
            s.with_actor::<OverlogActor, _>("client", |a| a.runtime().count("answers") > 0)
        });
        assert!(ok, "client never got the response");
        sim.with_actor::<OverlogActor, _>("client", |a| {
            assert_eq!(a.runtime().rows("answers")[0], row(vec![Value::Int(42)]));
        });
    }

    #[test]
    fn factory_restart_loses_soft_state() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(
            "server",
            Box::new(OverlogActor::with_factory(
                Box::new(echo_runtime),
                50,
                "server",
            )),
        );
        sim.inject("server", "req", row(vec![Value::addr("x"), Value::Int(1)]));
        sim.run_for(200);
        sim.with_actor::<OverlogActor, _>("server", |a| {
            assert_eq!(a.runtime().count("seen"), 1);
        });
        sim.schedule_crash("server", sim.now() + 10);
        sim.schedule_restart("server", sim.now() + 100);
        sim.run_for(300);
        sim.with_actor::<OverlogActor, _>("server", |a| {
            assert_eq!(a.runtime().count("seen"), 0, "state reset by factory");
        });
    }

    #[test]
    fn durable_factory_restart_recovers_state() {
        let store = crate::DurableStore::new(3);
        let mut sim = Sim::new(SimConfig::default());
        sim.set_durable_store(store.clone());
        let factory = |name: &str| {
            let mut rt = echo_runtime(name);
            rt.set_durable_all();
            rt
        };
        sim.add_node(
            "server",
            Box::new(
                OverlogActor::with_factory(Box::new(factory), 50, "server")
                    .with_durability(store.clone(), CheckpointPolicy { every_entries: 0 }),
            ),
        );
        sim.inject("server", "req", row(vec![Value::addr("x"), Value::Int(1)]));
        sim.inject("server", "req", row(vec![Value::addr("x"), Value::Int(7)]));
        sim.run_for(200);
        sim.schedule_crash("server", sim.now() + 10);
        sim.schedule_restart("server", sim.now() + 100);
        sim.run_for(300);
        sim.with_actor::<OverlogActor, _>("server", |a| {
            assert_eq!(a.runtime().count("seen"), 2, "state recovered from WAL");
            assert_eq!(a.recoveries.len(), 1);
            assert_eq!(a.recoveries[0].replayed_entries, 2);
            assert!(a.errors.is_empty(), "no restore errors: {:?}", a.errors);
        });
        // A second cycle recovers again — and checkpointing bounds replay.
        sim.with_actor::<OverlogActor, _>("server", |a| {
            a.enable_durability(store.clone(), CheckpointPolicy { every_entries: 1 });
        });
        sim.inject("server", "req", row(vec![Value::addr("x"), Value::Int(9)]));
        sim.run_for(200);
        assert!(store.has_snapshot("server"), "policy cut a checkpoint");
        sim.schedule_crash("server", sim.now() + 10);
        sim.schedule_restart("server", sim.now() + 100);
        sim.run_for(300);
        sim.with_actor::<OverlogActor, _>("server", |a| {
            assert_eq!(a.runtime().count("seen"), 3);
            let last = a.recoveries.last().unwrap();
            assert!(
                last.replayed_entries <= 1,
                "replay bounded by churn since checkpoint, got {}",
                last.replayed_entries
            );
            assert!(last.snapshot_rows >= 3, "checkpoint carried the state");
        });
    }

    #[test]
    fn overlog_timers_fire_inside_sim() {
        let mut rt = OverlogRuntime::new("n");
        rt.load(
            "timer(hb, 100);
             define(beats, keys(), {Int});
             beats(count<T>) :- hb_log(T);
             define(hb_log, keys(0), {Int});
             hb_log(T) :- hb(T);",
        )
        .unwrap();
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node("n", Box::new(OverlogActor::new(rt, 50)));
        sim.run_until(1_000);
        sim.with_actor::<OverlogActor, _>("n", |a| {
            let beats = a.runtime().rows("beats");
            let n = beats[0][0].as_int().unwrap();
            assert!((9..=11).contains(&n), "got {n} heartbeats");
        });
    }
}
