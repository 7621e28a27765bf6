//! The op generator and the expected-state model every answer is checked
//! against.
//!
//! The generator draws each op from the seed and the model's current
//! namespace, and issues only ops the model predicts to succeed: a wrong
//! answer is a correctness failure, an error is an unpredicted failure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One client op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `exists(path)`.
    Exists(String),
    /// `ls(dir)`.
    Ls(String),
    /// `chunks(file)`.
    Chunks(String),
    /// `locations(file, chunk)`.
    Locations(String, i64),
    /// `create(file)`.
    Create(String),
    /// `new_chunk(file)` followed by `abandon(file, chunk)`.
    NewChunk(String),
    /// `rm(file)`.
    Rm(String),
    /// `rename(old, new)`.
    Rename(String, String),
}

impl Op {
    /// Does the op change the namespace?
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Create(_) | Op::NewChunk(_) | Op::Rm(_) | Op::Rename(..)
        )
    }
}

/// What a client call returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// `exists`.
    Bool(bool),
    /// `ls` names or `locations` DataNodes.
    Names(Vec<String>),
    /// `chunks` ids.
    Chunks(Vec<i64>),
    /// `new_chunk`: chunk id and replica targets.
    Alloc(i64, Vec<String>),
    /// A mutation that returns nothing.
    Done,
}

/// Op mix in percent, in [`Op`] declaration order.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// exists, ls, chunks, locations, create, newchunk, rm, rename.
    pub weights: [u32; 8],
}

impl Mix {
    /// The HDFS-like metadata mix of fs-meta and paxos-meta.
    pub const METADATA: Mix = Mix {
        weights: [40, 10, 10, 0, 15, 15, 9, 1],
    };
    /// block-report's client: replica lookups only.
    pub const LOOKUP: Mix = Mix {
        weights: [0, 0, 0, 1, 0, 0, 0, 0],
    };
}

/// Expected state of the namespace and its chunks.
#[derive(Debug, Clone)]
pub struct Namespace {
    /// Directory path → child names.
    dirs: BTreeMap<String, BTreeSet<String>>,
    dir_list: Vec<String>,
    files: Vec<String>,
    file_pos: HashMap<String, usize>,
    /// Chunk ids of files that have any.
    chunks: HashMap<String, Vec<i64>>,
    /// Files with chunks, for `locations` draws.
    chunked: Vec<String>,
    datanodes: BTreeSet<String>,
    replication: usize,
    fresh: u64,
}

fn split(path: &str) -> (&str, &str) {
    let i = path.rfind('/').expect("model paths are absolute");
    (if i == 0 { "/" } else { &path[..i] }, &path[i + 1..])
}

impl Namespace {
    /// An empty namespace over the given DataNodes.
    pub fn new(datanodes: &[String], replication: usize) -> Self {
        let mut dirs = BTreeMap::new();
        dirs.insert("/".to_string(), BTreeSet::new());
        Namespace {
            dirs,
            dir_list: Vec::new(),
            files: Vec::new(),
            file_pos: HashMap::new(),
            chunks: HashMap::new(),
            chunked: Vec::new(),
            datanodes: datanodes.iter().cloned().collect(),
            replication,
            fresh: 0,
        }
    }

    /// Record a directory created at setup.
    pub fn add_dir(&mut self, path: &str) {
        let (parent, name) = split(path);
        self.dirs
            .get_mut(parent)
            .expect("parent created first")
            .insert(name.to_string());
        self.dirs.insert(path.to_string(), BTreeSet::new());
        self.dir_list.push(path.to_string());
    }

    /// Record a file created at setup or by a `create`.
    pub fn add_file(&mut self, path: &str) {
        let (parent, name) = split(path);
        self.dirs
            .get_mut(parent)
            .expect("parent exists")
            .insert(name.to_string());
        self.file_pos.insert(path.to_string(), self.files.len());
        self.files.push(path.to_string());
    }

    /// Record the chunks a setup write gave a file.
    pub fn set_chunks(&mut self, path: &str, ids: Vec<i64>) {
        if !ids.is_empty() && self.chunks.insert(path.to_string(), ids).is_none() {
            self.chunked.push(path.to_string());
        }
    }

    fn remove_file(&mut self, path: &str) -> Option<Vec<i64>> {
        let (parent, name) = split(path);
        self.dirs.get_mut(parent).map(|d| d.remove(name));
        let pos = self.file_pos.remove(path).expect("removed file exists");
        self.files.swap_remove(pos);
        if let Some(moved) = self.files.get(pos) {
            self.file_pos.insert(moved.clone(), pos);
        }
        let ids = self.chunks.remove(path);
        if ids.is_some() {
            self.chunked.retain(|p| p != path);
        }
        ids
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    /// Check an answer against the model's prediction for `op`.
    pub fn check(&self, op: &Op, answer: &Answer) -> Result<(), String> {
        let ok = match (op, answer) {
            (Op::Exists(p), Answer::Bool(b)) => {
                *b == (self.file_pos.contains_key(p) || self.dirs.contains_key(p))
            }
            (Op::Ls(d), Answer::Names(names)) => self
                .dirs
                .get(d)
                .is_some_and(|kids| kids.iter().eq(names.iter())),
            (Op::Chunks(f), Answer::Chunks(ids)) => {
                let mut got = ids.clone();
                got.sort_unstable();
                got == self.chunks.get(f).cloned().unwrap_or_default()
            }
            (Op::Locations(_, _), Answer::Names(locs)) => {
                let distinct: BTreeSet<&String> = locs.iter().collect();
                !locs.is_empty()
                    && distinct.len() == locs.len()
                    && locs.len() <= self.replication
                    && locs.iter().all(|l| self.datanodes.contains(l))
            }
            (Op::NewChunk(_), Answer::Alloc(id, targets)) => {
                let distinct: BTreeSet<&String> = targets.iter().collect();
                *id > 1
                    && targets.len() == self.replication.min(self.datanodes.len())
                    && distinct.len() == targets.len()
                    && targets.iter().all(|t| self.datanodes.contains(t))
            }
            (Op::Create(_) | Op::Rm(_) | Op::Rename(..), Answer::Done) => true,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{op:?} answered {answer:?}"))
        }
    }

    /// Apply a successful op to the model.
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Create(p) => self.add_file(p),
            Op::Rm(p) => {
                self.remove_file(p);
            }
            Op::Rename(old, new) => {
                let ids = self.remove_file(old);
                self.add_file(new);
                if let Some(ids) = ids {
                    self.set_chunks(new, ids);
                }
            }
            Op::Exists(_) | Op::Ls(_) | Op::Chunks(_) | Op::Locations(..) | Op::NewChunk(_) => {}
        }
    }
}

/// Seeded op generator. Op kinds are dealt from shuffled decks holding
/// each kind exactly as often as the mix says, so every 100 ops carry the
/// exact mix: a run's cost then does not swing with how many expensive
/// ops (rm, rename) the seed happened to draw.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: StdRng,
    mix: Mix,
    deck: Vec<usize>,
}

impl OpGen {
    /// A generator for `mix` from `seed`.
    pub fn new(seed: u64, mix: Mix) -> Self {
        OpGen {
            rng: StdRng::seed_from_u64(seed),
            mix,
            deck: Vec::new(),
        }
    }

    fn deal(&mut self) -> usize {
        if self.deck.is_empty() {
            for (kind, &w) in self.mix.weights.iter().enumerate() {
                self.deck.extend(std::iter::repeat_n(kind, w as usize));
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("a mix has a positive weight")
    }

    fn pick<'a>(&mut self, v: &'a [String]) -> &'a str {
        &v[self.rng.gen_range(0..v.len())]
    }

    /// Draw the next op. Kinds that need a file fall back to `create`
    /// when the namespace has none; the namespace needs a directory.
    pub fn next(&mut self, ns: &mut Namespace) -> Op {
        let mut kind = self.deal();
        let needs_file = matches!(kind, 2 | 5 | 6 | 7);
        if (needs_file && ns.files.is_empty()) || (kind == 3 && ns.chunked.is_empty()) {
            kind = 4;
        }
        match kind {
            0 => {
                let p = match self.rng.gen_range(0..5) {
                    0 => {
                        let dir = self.pick(&ns.dir_list).to_string();
                        format!("{dir}/{}", ns.fresh_name("absent"))
                    }
                    _ if ns.files.is_empty() => self.pick(&ns.dir_list).to_string(),
                    1 => self.pick(&ns.dir_list).to_string(),
                    _ => self.pick(&ns.files).to_string(),
                };
                Op::Exists(p)
            }
            1 => Op::Ls(self.pick(&ns.dir_list).to_string()),
            2 => Op::Chunks(self.pick(&ns.files).to_string()),
            3 => {
                let f = self.pick(&ns.chunked).to_string();
                let ids = &ns.chunks[&f];
                let c = ids[self.rng.gen_range(0..ids.len())];
                Op::Locations(f, c)
            }
            4 => {
                let dir = self.pick(&ns.dir_list).to_string();
                Op::Create(format!("{dir}/{}", ns.fresh_name("n")))
            }
            5 => Op::NewChunk(self.pick(&ns.files).to_string()),
            6 => Op::Rm(self.pick(&ns.files).to_string()),
            _ => {
                let old = self.pick(&ns.files).to_string();
                let dir = self.pick(&ns.dir_list).to_string();
                Op::Rename(old, format!("{dir}/{}", ns.fresh_name("r")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Namespace {
        let dns = vec!["dn0".to_string(), "dn1".to_string(), "dn2".to_string()];
        let mut ns = Namespace::new(&dns, 2);
        ns.add_dir("/d0");
        ns.add_file("/d0/f0");
        ns.add_file("/d0/f1");
        ns.set_chunks("/d0/f0", vec![7]);
        ns
    }

    #[test]
    fn model_accepts_right_answers() {
        let ns = small();
        let ok = [
            (Op::Exists("/d0/f1".into()), Answer::Bool(true)),
            (Op::Exists("/d0/zz".into()), Answer::Bool(false)),
            (
                Op::Ls("/d0".into()),
                Answer::Names(vec!["f0".into(), "f1".into()]),
            ),
            (Op::Chunks("/d0/f0".into()), Answer::Chunks(vec![7])),
            (Op::Chunks("/d0/f1".into()), Answer::Chunks(vec![])),
            (
                Op::Locations("/d0/f0".into(), 7),
                Answer::Names(vec!["dn2".into()]),
            ),
            (
                Op::NewChunk("/d0/f1".into()),
                Answer::Alloc(9, vec!["dn0".into(), "dn1".into()]),
            ),
        ];
        for (op, ans) in ok {
            assert_eq!(ns.check(&op, &ans), Ok(()), "{op:?}");
        }
    }

    #[test]
    fn model_rejects_wrong_answers() {
        let ns = small();
        let wrong = [
            (Op::Exists("/d0/f1".into()), Answer::Bool(false)),
            (Op::Ls("/d0".into()), Answer::Names(vec!["f0".into()])),
            (Op::Chunks("/d0/f0".into()), Answer::Chunks(vec![8])),
            (Op::Locations("/d0/f0".into(), 7), Answer::Names(vec![])),
            (
                Op::Locations("/d0/f0".into(), 7),
                Answer::Names(vec!["dn9".into()]),
            ),
            (
                Op::NewChunk("/d0/f1".into()),
                Answer::Alloc(9, vec!["dn0".into(), "dn0".into()]),
            ),
            (Op::Create("/d0/f2".into()), Answer::Bool(true)),
        ];
        for (op, ans) in wrong {
            assert!(ns.check(&op, &ans).is_err(), "{op:?} accepted {ans:?}");
        }
    }

    #[test]
    fn apply_tracks_renames_and_removals() {
        let mut ns = small();
        ns.apply(&Op::Rename("/d0/f0".into(), "/d0/g".into()));
        assert_eq!(
            ns.check(&Op::Chunks("/d0/g".into()), &Answer::Chunks(vec![7])),
            Ok(())
        );
        assert_eq!(
            ns.check(&Op::Exists("/d0/f0".into()), &Answer::Bool(false)),
            Ok(())
        );
        ns.apply(&Op::Rm("/d0/g".into()));
        assert_eq!(
            ns.check(&Op::Ls("/d0".into()), &Answer::Names(vec!["f1".into()])),
            Ok(())
        );
    }
}
