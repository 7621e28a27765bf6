//! The BOOM-FS DataNode: the imperative data plane, as in the paper (chunk
//! storage and transfer stayed Java there; here it is a Rust actor).

use crate::proto;
use boom_overlog::{NetTuple, Value};
use boom_simnet::{Actor, Ctx};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

/// DataNode configuration.
#[derive(Debug, Clone)]
pub struct DataNodeConfig {
    /// NameNodes to heartbeat to (several under the partitioned revision).
    pub namenodes: Vec<String>,
    /// Heartbeat interval in ms (the paper used 3 s).
    pub hb_interval: u64,
}

impl Default for DataNodeConfig {
    fn default() -> Self {
        DataNodeConfig {
            namenodes: vec!["nn".to_string()],
            hb_interval: 3_000,
        }
    }
}

/// A DataNode actor: stores chunks (simulated disk — survives restarts),
/// serves reads/writes with pipelined replication, heartbeats chunk
/// reports, and executes re-replication copies on the NameNode's behalf.
pub struct DataNode {
    cfg: DataNodeConfig,
    /// Chunk store: id → content. Persistent across crash/restart.
    /// Ordered, so heartbeats report chunks in the same order every run.
    chunks: BTreeMap<i64, Arc<str>>,
    /// Total writes served (instrumentation).
    pub writes: u64,
    /// Total reads served (instrumentation).
    pub reads: u64,
}

impl DataNode {
    /// Create an empty DataNode.
    pub fn new(cfg: DataNodeConfig) -> Self {
        DataNode {
            cfg,
            chunks: BTreeMap::new(),
            writes: 0,
            reads: 0,
        }
    }

    /// Number of chunks held.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Does this node hold the chunk?
    pub fn has_chunk(&self, id: i64) -> bool {
        self.chunks.contains_key(&id)
    }

    fn heartbeat(&self, ctx: &mut Ctx<'_>) {
        let me = ctx.me().to_string();
        let now = ctx.now() as i64;
        for nn in &self.cfg.namenodes.clone() {
            // Each replica report carries its own timestamp, so the
            // NameNode's staleness rules tolerate arbitrary interleaving
            // and loss of individual heartbeat messages.
            for (id, content) in &self.chunks {
                ctx.send(
                    nn,
                    proto::HB_CHUNK_REPORT,
                    Arc::new(vec![
                        Value::addr(&me),
                        Value::Int(*id),
                        Value::Int(content.len() as i64),
                        Value::Int(now),
                    ]),
                );
            }
            ctx.send(
                nn,
                proto::HB_REPORT,
                Arc::new(vec![Value::addr(&me), Value::Int(now)]),
            );
        }
    }
}

impl Actor for DataNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.heartbeat(ctx);
        ctx.set_timer(self.cfg.hb_interval, 0);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        // Chunks are on disk; only announce ourselves again.
        self.heartbeat(ctx);
        ctx.set_timer(self.cfg.hb_interval, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        self.heartbeat(ctx);
        ctx.set_timer(self.cfg.hb_interval, 0);
    }

    fn on_tuple(&mut self, ctx: &mut Ctx<'_>, tuple: NetTuple) {
        match tuple.table.as_str() {
            proto::DN_WRITE => {
                // (Src, ReqId, ChunkId, Content, Pipeline)
                let row = &tuple.row;
                let (Some(src), Some(req), Some(chunk), Some(content), Some(pipeline)) = (
                    row.first().and_then(|v| v.as_str()),
                    row.get(1).and_then(|v| v.as_int()),
                    row.get(2).and_then(|v| v.as_int()),
                    row.get(3).and_then(|v| v.as_str()),
                    row.get(4).and_then(|v| v.as_list()),
                ) else {
                    return;
                };
                self.chunks.insert(chunk, Arc::from(content));
                self.writes += 1;
                let me = ctx.me().to_string();
                // Immediate incremental block report (HDFS's blockReceived):
                // the NameNode learns replica locations at write time rather
                // than on the next full heartbeat.
                let now = ctx.now() as i64;
                for nn in self.cfg.namenodes.clone() {
                    ctx.send(
                        &nn,
                        proto::HB_CHUNK_REPORT,
                        Arc::new(vec![
                            Value::addr(&me),
                            Value::Int(chunk),
                            Value::Int(content.len() as i64),
                            Value::Int(now),
                        ]),
                    );
                }
                ctx.send(
                    src,
                    proto::DN_ACK,
                    Arc::new(vec![Value::addr(src), Value::Int(req), Value::addr(&me)]),
                );
                // Pipelined replication: forward to the next node.
                if let Some(next) = pipeline.first().and_then(|v| v.as_str()) {
                    let rest: Vec<Value> = pipeline[1..].to_vec();
                    let next = next.to_string();
                    ctx.send(
                        &next,
                        proto::DN_WRITE,
                        Arc::new(vec![
                            Value::addr(src),
                            Value::Int(req),
                            Value::Int(chunk),
                            Value::str(content),
                            Value::list(rest),
                        ]),
                    );
                }
            }
            proto::DN_READ => {
                // (Src, ReqId, ChunkId)
                let row = &tuple.row;
                let (Some(src), Some(req), Some(chunk)) = (
                    row.first().and_then(|v| v.as_str()),
                    row.get(1).and_then(|v| v.as_int()),
                    row.get(2).and_then(|v| v.as_int()),
                ) else {
                    return;
                };
                match self.chunks.get(&chunk) {
                    Some(content) => {
                        self.reads += 1;
                        ctx.send(
                            src,
                            proto::DN_DATA,
                            Arc::new(vec![
                                Value::addr(src),
                                Value::Int(req),
                                Value::Int(chunk),
                                Value::Str(content.clone()),
                            ]),
                        );
                    }
                    None => {
                        ctx.send(
                            src,
                            proto::DN_ERR,
                            Arc::new(vec![Value::addr(src), Value::Int(req), Value::Int(chunk)]),
                        );
                    }
                }
            }
            proto::DN_COPY => {
                // (Holder, ChunkId, Target) — replicate chunk to target.
                let row = &tuple.row;
                let (Some(chunk), Some(target)) = (
                    row.get(1).and_then(|v| v.as_int()),
                    row.get(2).and_then(|v| v.as_str()),
                ) else {
                    return;
                };
                if let Some(content) = self.chunks.get(&chunk) {
                    let me = ctx.me().to_string();
                    let target = target.to_string();
                    let content = content.clone();
                    ctx.send(
                        &target,
                        proto::DN_WRITE,
                        Arc::new(vec![
                            Value::addr(&me), // acks come back to us; ignored
                            Value::Int(0),
                            Value::Int(chunk),
                            Value::Str(content),
                            Value::list(vec![]),
                        ]),
                    );
                }
            }
            proto::DN_DELETE => {
                // (Holder, ChunkId) — garbage collection after rm.
                if let Some(chunk) = tuple.row.get(1).and_then(|v| v.as_int()) {
                    self.chunks.remove(&chunk);
                }
            }
            // Acks from dn_copy-initiated writes land here; nothing to do.
            proto::DN_ACK => {}
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
    use boom_simnet::{Sim, SimConfig};

    struct Sink {
        rows: Vec<NetTuple>,
    }
    impl Actor for Sink {
        fn on_tuple(&mut self, _ctx: &mut Ctx<'_>, t: NetTuple) {
            self.rows.push(t);
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn write_row(
        src: &str,
        req: i64,
        chunk: i64,
        content: &str,
        pipeline: Vec<&str>,
    ) -> boom_overlog::Row {
        Arc::new(vec![
            Value::addr(src),
            Value::Int(req),
            Value::Int(chunk),
            Value::str(content),
            Value::list(pipeline.into_iter().map(Value::addr).collect()),
        ])
    }

    #[test]
    fn write_pipeline_replicates_and_acks() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node("d1", Box::new(DataNode::new(DataNodeConfig::default())));
        sim.add_node("d2", Box::new(DataNode::new(DataNodeConfig::default())));
        sim.add_node("c", Box::new(Sink { rows: vec![] }));
        sim.inject(
            "d1",
            proto::DN_WRITE,
            write_row("c", 1, 7, "hello", vec!["d2"]),
        );
        sim.run_for(1_000);
        let acks = sim.with_actor::<Sink, _>("c", |s| {
            s.rows.iter().filter(|t| t.table == proto::DN_ACK).count()
        });
        assert_eq!(acks, 2, "one ack per replica");
        sim.with_actor::<DataNode, _>("d2", |d| assert!(d.has_chunk(7)));
    }

    #[test]
    fn read_returns_data_or_error() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node("d1", Box::new(DataNode::new(DataNodeConfig::default())));
        sim.add_node("c", Box::new(Sink { rows: vec![] }));
        sim.inject("d1", proto::DN_WRITE, write_row("c", 1, 7, "hello", vec![]));
        sim.run_for(100);
        sim.inject(
            "d1",
            proto::DN_READ,
            Arc::new(vec![Value::addr("c"), Value::Int(2), Value::Int(7)]),
        );
        sim.inject(
            "d1",
            proto::DN_READ,
            Arc::new(vec![Value::addr("c"), Value::Int(3), Value::Int(99)]),
        );
        sim.run_for(1_000);
        sim.with_actor::<Sink, _>("c", |s| {
            assert!(s
                .rows
                .iter()
                .any(|t| t.table == proto::DN_DATA && t.row[3] == Value::str("hello")));
            assert!(s.rows.iter().any(|t| t.table == proto::DN_ERR));
        });
    }

    #[test]
    fn heartbeats_report_chunks() {
        let mut sim = Sim::new(SimConfig::default());
        let cfg = DataNodeConfig {
            namenodes: vec!["nn".into()],
            hb_interval: 500,
        };
        sim.add_node("d1", Box::new(DataNode::new(cfg)));
        sim.add_node("nn", Box::new(Sink { rows: vec![] }));
        sim.inject("d1", proto::DN_WRITE, write_row("x", 1, 42, "data", vec![]));
        sim.run_for(1_200);
        sim.with_actor::<Sink, _>("nn", |s| {
            assert!(s.rows.iter().any(|t| t.table == proto::HB_REPORT));
            assert!(s
                .rows
                .iter()
                .any(|t| t.table == proto::HB_CHUNK_REPORT && t.row[1] == Value::Int(42)));
        });
    }

    #[test]
    fn copy_replicates_to_target() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node("d1", Box::new(DataNode::new(DataNodeConfig::default())));
        sim.add_node("d2", Box::new(DataNode::new(DataNodeConfig::default())));
        sim.inject(
            "d1",
            proto::DN_WRITE,
            write_row("x", 1, 5, "payload", vec![]),
        );
        sim.run_for(100);
        sim.inject(
            "d1",
            proto::DN_COPY,
            Arc::new(vec![Value::addr("d1"), Value::Int(5), Value::addr("d2")]),
        );
        sim.run_for(1_000);
        sim.with_actor::<DataNode, _>("d2", |d| assert!(d.has_chunk(5)));
    }

    #[test]
    fn chunks_survive_restart() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node("d1", Box::new(DataNode::new(DataNodeConfig::default())));
        sim.inject(
            "d1",
            proto::DN_WRITE,
            write_row("x", 1, 5, "persist", vec![]),
        );
        sim.run_for(100);
        sim.schedule_crash("d1", sim.now() + 10);
        sim.schedule_restart("d1", sim.now() + 200);
        sim.run_for(1_000);
        sim.with_actor::<DataNode, _>("d1", |d| assert!(d.has_chunk(5)));
    }
}
