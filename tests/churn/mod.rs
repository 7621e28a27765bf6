//! A namespace-churn schedule for the byte-identity suites: a NameNode
//! whose directory tree reaches depth 4, driven through directory
//! renames, rename-then-rm, renames back, and several requests queued in
//! one tick. Every batch lands in one tick (unit latency), and the run
//! reports the client's responses in arrival order plus the NameNode's
//! state fingerprint.
#![allow(dead_code)] // each suite uses a subset

use boom::fs::proto::request_row;
use boom::fs::{namenode_actor, NameNodeConfig};
use boom::overlog::{NetTuple, PlanOptions, Value};
use boom::simnet::{overlog_state_fingerprint, set_plan_options_all, Actor, Ctx, Sim, SimConfig};
use std::any::Any;

/// Requests queued for the same tick: `(command, arguments)`.
pub type Batch = Vec<(&'static str, Vec<String>)>;

fn req(cmd: &'static str, args: &[&str]) -> (&'static str, Vec<String>) {
    (cmd, args.iter().map(|a| a.to_string()).collect())
}

/// The tree every run starts from: `/a/b/c/d` plus files at each level
/// and a sibling `/x`.
fn setup() -> Vec<Batch> {
    vec![
        vec![req("mkdir", &["/a"]), req("mkdir", &["/x"])],
        vec![
            req("mkdir", &["/a/b"]),
            req("create", &["/x/f1"]),
            req("create", &["/x/f2"]),
        ],
        vec![req("mkdir", &["/a/b/c"]), req("create", &["/a/b/f"])],
        vec![req("mkdir", &["/a/b/c/d"]), req("create", &["/a/b/c/g"])],
        vec![req("create", &["/a/b/c/d/h"])],
    ]
}

/// A fixed churn script covering every required shape.
pub fn scripted() -> Vec<Batch> {
    vec![
        // A depth-3 subtree moves under a sibling; a file renames in the
        // same tick.
        vec![
            req("rename", &["/a/b", "/x/b"]),
            req("rename", &["/x/f1", "/x/g1"]),
        ],
        // Rename-then-rm, and a nested directory moves up.
        vec![req("rm", &["/x/g1"]), req("rename", &["/x/b/c", "/x/c2"])],
        // Both directories rename back.
        vec![req("rename", &["/x/c2", "/x/b/c"])],
        vec![req("rename", &["/x/b", "/a/b"])],
        // Several requests in one tick, including a create deep down.
        vec![
            req("rm", &["/a/b/c/d/h"]),
            req("rm", &["/x/f2"]),
            req("create", &["/a/b/c/d/h2"]),
        ],
        // A non-empty rm fails; the top-level directory renames.
        vec![req("rm", &["/a/b/c/d"]), req("rename", &["/a", "/q"])],
        vec![req("rename", &["/q", "/a"]), req("rm", &["/q/b/c/d/h2"])],
        vec![req("rm", &["/a/b/c/d/h2"])],
        vec![req("rm", &["/a/b/c/d"]), req("ls", &["/a/b/c"])],
        // One path twice in one tick: a file renamed to two names, a
        // create racing an rm, and a directory moved to two places.
        vec![
            req("rename", &["/a/b/f", "/a/b/f2"]),
            req("rename", &["/a/b/f", "/a/b/f3"]),
        ],
        vec![req("create", &["/x/n"]), req("rm", &["/x/n"])],
        vec![
            req("rename", &["/a/b/c", "/x/c"]),
            req("rename", &["/a/b/c", "/q"]),
        ],
    ]
}

/// Paths the random schedules draw from.
const POOL: [&str; 12] = [
    "/a",
    "/a/b",
    "/a/b/c",
    "/a/b/c/d",
    "/x",
    "/x/b",
    "/x/f1",
    "/x/g1",
    "/q",
    "/a/b/f",
    "/a/b/c/g",
    "/a/b/c/d/h",
];

/// Turn raw proptest draws — one `(kind, p, q)` list per tick — into a
/// churn schedule. A rename also queues its inverse (rename back) or an
/// rm of its target (rename-then-rm) for the next tick. Requests in one
/// tick may name the same path: two renames of one file overwrite its
/// row twice, and a create with an rm adds a row the tick then deletes.
pub fn random_batches(raw: &[Vec<(u8, u8, u8)>]) -> Vec<Batch> {
    let mut out: Vec<Batch> = Vec::new();
    let mut carry: Batch = Vec::new();
    for tick in raw {
        let mut batch: Batch = std::mem::take(&mut carry);
        for &(kind, p, q) in tick {
            let (p, q) = (POOL[p as usize % POOL.len()], POOL[q as usize % POOL.len()]);
            match kind % 5 {
                0 => {
                    batch.push(req("rename", &[p, q]));
                    carry.push(req("rename", &[q, p]));
                }
                1 => {
                    batch.push(req("rename", &[p, q]));
                    carry.push(req("rm", &[q]));
                }
                2 => batch.push(req("rm", &[p])),
                3 => batch.push(req("create", &[p])),
                _ => batch.push(req("mkdir", &[p])),
            }
        }
        out.push(batch);
    }
    if !carry.is_empty() {
        out.push(carry);
    }
    out
}

struct Sink {
    got: Vec<String>,
}

impl Actor for Sink {
    fn on_tuple(&mut self, ctx: &mut Ctx<'_>, tuple: NetTuple) {
        self.got.push(format!("{} {:?}", ctx.now(), tuple.row));
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Build the tree, run `churn` one tick per batch under `opts`, and
/// render the responses and the state fingerprint.
pub fn run(opts: PlanOptions, churn: &[Batch]) -> String {
    let mut sim = Sim::new(SimConfig {
        seed: 3,
        min_latency: 1,
        max_latency: 1,
        drop_prob: 0.0,
        duplicate_prob: 0.0,
    });
    sim.add_node(
        "nn0",
        Box::new(namenode_actor("nn0", NameNodeConfig::default())),
    );
    sim.add_node("client", Box::new(Sink { got: Vec::new() }));
    set_plan_options_all(&mut sim, opts);
    let mut id = 0;
    for batch in setup().iter().chain(churn) {
        for (cmd, args) in batch {
            id += 1;
            let args = args.iter().map(Value::str).collect();
            sim.inject("nn0", "request", request_row("client", id, cmd, args));
        }
        sim.run_for(100);
    }
    let got = sim.with_actor::<Sink, _>("client", |s| s.got.join("\n"));
    format!("{got}\n{}", overlog_state_fingerprint(&mut sim))
}
