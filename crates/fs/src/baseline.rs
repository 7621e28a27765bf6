//! The imperative baseline NameNode.
//!
//! Functionally equivalent to the Overlog NameNode and speaking the exact
//! same tuple protocol, but written in conventional imperative style with
//! hash maps — the stand-in for stock HDFS in the paper's "Hadoop vs BOOM"
//! comparisons. Running both through the identical simulator, DataNodes,
//! and clients isolates the declarative-vs-imperative control-plane
//! difference.

use crate::proto;
use boom_overlog::{NetTuple, Value};
use boom_simnet::{Actor, Ctx};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Baseline NameNode configuration.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Replication factor for new chunks.
    pub replication: usize,
    /// Heartbeat timeout before declaring a DataNode dead (ms).
    pub hb_timeout: u64,
    /// Failure-detector sweep interval (ms).
    pub failcheck_interval: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            replication: 3,
            hb_timeout: 15_000,
            failcheck_interval: 2_000,
        }
    }
}

#[derive(Debug, Clone)]
struct FileMeta {
    parent: i64,
    name: String,
    is_dir: bool,
}

/// The imperative NameNode actor. All metadata is volatile: a restart
/// loses the namespace, exactly like the Overlog NameNode without Paxos.
pub struct BaselineNameNode {
    cfg: BaselineConfig,
    next_id: i64,
    files: HashMap<i64, FileMeta>,
    by_path: HashMap<String, i64>,
    children: HashMap<i64, BTreeSet<String>>,
    fchunks: HashMap<i64, Vec<i64>>, // fileid -> ordered chunk ids
    chunk_file: HashMap<i64, i64>,
    datanodes: BTreeMap<String, u64>, // node -> last hb
    chunk_locs: BTreeMap<i64, BTreeMap<String, u64>>, // chunk -> node -> last report
    /// Served request count (instrumentation).
    pub requests_served: u64,
}

impl BaselineNameNode {
    /// Fresh baseline NameNode.
    pub fn new(cfg: BaselineConfig) -> Self {
        let mut nn = BaselineNameNode {
            cfg,
            next_id: 2,
            files: HashMap::new(),
            by_path: HashMap::new(),
            children: HashMap::new(),
            fchunks: HashMap::new(),
            chunk_file: HashMap::new(),
            datanodes: BTreeMap::new(),
            chunk_locs: BTreeMap::new(),
            requests_served: 0,
        };
        nn.reset();
        nn
    }

    fn reset(&mut self) {
        self.next_id = 2;
        self.files.clear();
        self.by_path.clear();
        self.children.clear();
        self.fchunks.clear();
        self.chunk_file.clear();
        self.datanodes.clear();
        self.chunk_locs.clear();
        self.files.insert(
            1,
            FileMeta {
                parent: 0,
                name: String::new(),
                is_dir: true,
            },
        );
        self.by_path.insert("/".to_string(), 1);
    }

    fn dirname(path: &str) -> &str {
        match path.rfind('/') {
            Some(0) | None => "/",
            Some(i) => &path[..i],
        }
    }

    fn basename(path: &str) -> &str {
        match path.rfind('/') {
            Some(i) => &path[i + 1..],
            None => path,
        }
    }

    fn add_entry(&mut self, path: &str, is_dir: bool) -> Result<(), &'static str> {
        if self.by_path.contains_key(path) {
            return Err("exists");
        }
        let parent_path = Self::dirname(path);
        let Some(&parent) = self.by_path.get(parent_path) else {
            return Err("noparent");
        };
        if !self.files[&parent].is_dir {
            return Err("noparent");
        }
        let id = self.next_id;
        self.next_id += 1;
        let name = Self::basename(path).to_string();
        self.files.insert(
            id,
            FileMeta {
                parent,
                name: name.clone(),
                is_dir,
            },
        );
        self.by_path.insert(path.to_string(), id);
        self.children.entry(parent).or_default().insert(name);
        Ok(())
    }

    fn respond(&self, ctx: &mut Ctx<'_>, src: &str, req: i64, ok: bool, payload: Value) {
        ctx.send(
            src,
            proto::RESPONSE,
            proto::response_row(src, req, ok, payload),
        );
    }

    fn handle_request(&mut self, ctx: &mut Ctx<'_>, row: &boom_overlog::Row) {
        let Some((src, req, cmd, args)) = proto::parse_request(row) else {
            return;
        };
        self.requests_served += 1;
        let path_arg = args.first().and_then(|v| v.as_str()).map(str::to_string);
        match cmd.as_str() {
            "mkdir" | "create" => {
                let Some(path) = path_arg else {
                    return self.respond(ctx, &src, req, false, Value::str("badargs"));
                };
                match self.add_entry(&path, cmd == "mkdir") {
                    Ok(()) => self.respond(ctx, &src, req, true, Value::str(&path)),
                    Err(e) => self.respond(ctx, &src, req, false, Value::str(e)),
                }
            }
            "exists" => {
                let Some(path) = path_arg else {
                    return self.respond(ctx, &src, req, false, Value::str("badargs"));
                };
                match self.by_path.get(&path) {
                    Some(&id) => self.respond(ctx, &src, req, true, Value::Int(id)),
                    None => self.respond(ctx, &src, req, false, Value::Null),
                }
            }
            "ls" => {
                let Some(path) = path_arg else {
                    return self.respond(ctx, &src, req, false, Value::str("badargs"));
                };
                match self.by_path.get(&path) {
                    Some(&id) if self.files[&id].is_dir => {
                        let names: Vec<Value> = self
                            .children
                            .get(&id)
                            .map(|c| c.iter().map(Value::str).collect())
                            .unwrap_or_default();
                        self.respond(ctx, &src, req, true, Value::list(names));
                    }
                    Some(_) => self.respond(ctx, &src, req, false, Value::str("notdir")),
                    None => self.respond(ctx, &src, req, false, Value::str("notfound")),
                }
            }
            "rm" => {
                let Some(path) = path_arg else {
                    return self.respond(ctx, &src, req, false, Value::str("badargs"));
                };
                let Some(&id) = self.by_path.get(&path) else {
                    return self.respond(ctx, &src, req, false, Value::str("notfound"));
                };
                if id == 1 {
                    return self.respond(ctx, &src, req, false, Value::str("notempty"));
                }
                if self
                    .children
                    .get(&id)
                    .map(|c| !c.is_empty())
                    .unwrap_or(false)
                {
                    return self.respond(ctx, &src, req, false, Value::str("notempty"));
                }
                let meta = self.files.remove(&id).expect("indexed by by_path");
                self.by_path.remove(&path);
                if let Some(siblings) = self.children.get_mut(&meta.parent) {
                    siblings.remove(&meta.name);
                }
                for chunk in self.fchunks.remove(&id).unwrap_or_default() {
                    self.chunk_file.remove(&chunk);
                }
                self.respond(ctx, &src, req, true, Value::str(&path));
            }
            "rename" => {
                let (Some(old), Some(new)) = (
                    args.first().and_then(|v| v.as_str()).map(str::to_string),
                    args.get(1).and_then(|v| v.as_str()).map(str::to_string),
                ) else {
                    return self.respond(ctx, &src, req, false, Value::str("badargs"));
                };
                let Some(&id) = self.by_path.get(&old) else {
                    return self.respond(ctx, &src, req, false, Value::str("notfound"));
                };
                if id == 1 {
                    return self.respond(ctx, &src, req, false, Value::str("notfound"));
                }
                if self.by_path.contains_key(&new) {
                    return self.respond(ctx, &src, req, false, Value::str("exists"));
                }
                if new.starts_with(&format!("{old}/")) {
                    return self.respond(ctx, &src, req, false, Value::str("intoself"));
                }
                let parent_path = Self::dirname(&new);
                let Some(&np) = self.by_path.get(parent_path) else {
                    return self.respond(ctx, &src, req, false, Value::str("noparent"));
                };
                if !self.files[&np].is_dir {
                    return self.respond(ctx, &src, req, false, Value::str("noparent"));
                }
                // Re-link the node; recompute the path index for the moved
                // subtree (the imperative chore the Overlog version gets
                // for free from view maintenance).
                let meta = self.files.get_mut(&id).expect("indexed by by_path");
                let old_parent = meta.parent;
                let old_name = meta.name.clone();
                meta.parent = np;
                meta.name = Self::basename(&new).to_string();
                let new_name = meta.name.clone();
                if let Some(sib) = self.children.get_mut(&old_parent) {
                    sib.remove(&old_name);
                }
                self.children.entry(np).or_default().insert(new_name);
                let moved: Vec<(String, i64)> = self
                    .by_path
                    .iter()
                    .filter(|(p, _)| **p == old || p.starts_with(&format!("{old}/")))
                    .map(|(p, i)| (p.clone(), *i))
                    .collect();
                for (p, i) in moved {
                    self.by_path.remove(&p);
                    let suffix = &p[old.len()..];
                    self.by_path.insert(format!("{new}{suffix}"), i);
                }
                self.respond(ctx, &src, req, true, Value::str(&new));
            }
            "newchunk" => {
                let Some(path) = path_arg else {
                    return self.respond(ctx, &src, req, false, Value::str("badargs"));
                };
                let Some(&id) = self.by_path.get(&path) else {
                    return self.respond(ctx, &src, req, false, Value::str("nofile"));
                };
                if self.files[&id].is_dir {
                    return self.respond(ctx, &src, req, false, Value::str("nofile"));
                }
                if self.datanodes.is_empty() {
                    return self.respond(ctx, &src, req, false, Value::str("nonodes"));
                }
                let chunk = self.next_id;
                self.next_id += 1;
                self.fchunks.entry(id).or_default().push(chunk);
                self.chunk_file.insert(chunk, id);
                // Same deterministic placement policy as the Overlog rules.
                let live: Vec<Value> = self.datanodes.keys().map(Value::addr).collect();
                let picked = boom_overlog::Builtins::standard()
                    .call(
                        "pick",
                        &[
                            Value::list(live),
                            Value::Int(self.cfg.replication as i64),
                            Value::Int(chunk),
                        ],
                    )
                    .expect("pick on a non-empty list");
                let mut out = vec![Value::Int(chunk)];
                if let Some(nodes) = picked.as_list() {
                    out.extend(nodes.iter().cloned());
                }
                self.respond(ctx, &src, req, true, Value::list(out));
            }
            "chunks" => {
                let Some(path) = path_arg else {
                    return self.respond(ctx, &src, req, false, Value::str("badargs"));
                };
                let Some(&id) = self.by_path.get(&path) else {
                    return self.respond(ctx, &src, req, false, Value::str("notfound"));
                };
                let chunks: Vec<Value> = self
                    .fchunks
                    .get(&id)
                    .map(|c| c.iter().map(|&x| Value::Int(x)).collect())
                    .unwrap_or_default();
                self.respond(ctx, &src, req, true, Value::list(chunks));
            }
            "locations" => {
                let Some(chunk) = args.first().and_then(|v| v.as_int()) else {
                    return self.respond(ctx, &src, req, false, Value::str("badargs"));
                };
                match self.chunk_locs.get(&chunk) {
                    Some(locs) if !locs.is_empty() => {
                        let nodes: Vec<Value> = locs.keys().map(Value::addr).collect();
                        self.respond(ctx, &src, req, true, Value::list(nodes));
                    }
                    _ => self.respond(ctx, &src, req, false, Value::str("nolocations")),
                }
            }
            "abandon" => {
                let Some(chunk) = args.first().and_then(|v| v.as_int()) else {
                    return self.respond(ctx, &src, req, false, Value::str("badargs"));
                };
                if let Some(fid) = self.chunk_file.remove(&chunk) {
                    if let Some(list) = self.fchunks.get_mut(&fid) {
                        list.retain(|&c| c != chunk);
                    }
                }
                self.respond(ctx, &src, req, true, Value::Int(chunk));
            }
            _ => self.respond(ctx, &src, req, false, Value::str("badcmd")),
        }
    }

    fn sweep_failures(&mut self, now: u64) {
        let timeout = self.cfg.hb_timeout;
        let dead: Vec<String> = self
            .datanodes
            .iter()
            .filter(|(_, &last)| now.saturating_sub(last) > timeout)
            .map(|(n, _)| n.clone())
            .collect();
        for node in dead {
            self.datanodes.remove(&node);
            for locs in self.chunk_locs.values_mut() {
                locs.remove(&node);
            }
        }
        for locs in self.chunk_locs.values_mut() {
            locs.retain(|_, &mut last| now.saturating_sub(last) <= timeout);
        }
        self.chunk_locs.retain(|_, locs| !locs.is_empty());
    }
}

impl Actor for BaselineNameNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.cfg.failcheck_interval, 0);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        // Volatile metadata: a restart loses the namespace, like stock HDFS
        // without a secondary NameNode image.
        self.reset();
        ctx.set_timer(self.cfg.failcheck_interval, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        self.sweep_failures(ctx.now());
        // Garbage-collect replicas of chunks no file owns.
        let orphans: Vec<(i64, Vec<String>)> = self
            .chunk_locs
            .iter()
            .filter(|(c, _)| !self.chunk_file.contains_key(c))
            .map(|(c, locs)| (*c, locs.keys().cloned().collect()))
            .collect();
        for (chunk, holders) in orphans {
            for dn in holders {
                ctx.send(
                    &dn,
                    proto::DN_DELETE,
                    Arc::new(vec![Value::addr(&dn), Value::Int(chunk)]),
                );
            }
        }
        ctx.set_timer(self.cfg.failcheck_interval, 0);
    }

    fn on_tuple(&mut self, ctx: &mut Ctx<'_>, tuple: NetTuple) {
        match tuple.table.as_str() {
            proto::REQUEST => self.handle_request(ctx, &tuple.row),
            proto::HB_REPORT => {
                let row = &tuple.row;
                if let (Some(dn), Some(t)) = (
                    row.first().and_then(|v| v.as_str()),
                    row.get(1).and_then(|v| v.as_int()),
                ) {
                    self.datanodes.insert(dn.to_string(), t as u64);
                }
            }
            proto::HB_CHUNK_REPORT => {
                let row = &tuple.row;
                if let (Some(dn), Some(chunk), Some(t)) = (
                    row.first().and_then(|v| v.as_str()),
                    row.get(1).and_then(|v| v.as_int()),
                    row.get(3).and_then(|v| v.as_int()),
                ) {
                    self.chunk_locs
                        .entry(chunk)
                        .or_default()
                        .insert(dn.to_string(), t as u64);
                }
            }
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
    fn path_helpers() {
        assert_eq!(BaselineNameNode::dirname("/a/b"), "/a");
        assert_eq!(BaselineNameNode::dirname("/a"), "/");
        assert_eq!(BaselineNameNode::basename("/a/b"), "b");
    }

    #[test]
    fn add_entry_validates() {
        let mut nn = BaselineNameNode::new(BaselineConfig::default());
        assert_eq!(nn.add_entry("/a", true), Ok(()));
        assert_eq!(nn.add_entry("/a", true), Err("exists"));
        assert_eq!(nn.add_entry("/x/y", false), Err("noparent"));
        assert_eq!(nn.add_entry("/a/f", false), Ok(()));
    }

    #[test]
    fn failure_sweep_expires_nodes_and_replicas() {
        let mut nn = BaselineNameNode::new(BaselineConfig {
            hb_timeout: 100,
            ..Default::default()
        });
        nn.datanodes.insert("d1".into(), 0);
        nn.chunk_locs.entry(7).or_default().insert("d1".into(), 0);
        nn.sweep_failures(50);
        assert_eq!(nn.datanodes.len(), 1);
        nn.sweep_failures(200);
        assert!(nn.datanodes.is_empty());
        assert!(nn.chunk_locs.is_empty());
    }
}
