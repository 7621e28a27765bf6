//! Property-based cross-crate tests.
//!
//! The strongest check in the repository: **differential testing** of the
//! two control planes. The Overlog NameNode and the imperative baseline
//! speak the same protocol and claim the same semantics — so any random
//! sequence of metadata operations must produce identical observable
//! results on both. A divergence is a bug in one of them (historically:
//! in whichever had the subtler update semantics).

use boom::fs::cluster::{ControlPlane, FsCluster, FsClusterBuilder};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum FsOp {
    Mkdir(String),
    Create(String),
    Rm(String),
    Exists(String),
    Ls(String),
    Rename(String, String),
}

fn path_strategy() -> impl Strategy<Value = String> {
    // A small closed path universe so collisions (exists/noparent/notempty)
    // actually happen.
    prop::sample::select(vec![
        "/a".to_string(),
        "/b".to_string(),
        "/a/x".to_string(),
        "/a/y".to_string(),
        "/b/z".to_string(),
        "/a/x/deep".to_string(),
        "/missing/child".to_string(),
    ])
}

fn op_strategy() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        path_strategy().prop_map(FsOp::Mkdir),
        path_strategy().prop_map(FsOp::Create),
        path_strategy().prop_map(FsOp::Rm),
        path_strategy().prop_map(FsOp::Exists),
        path_strategy().prop_map(FsOp::Ls),
        (path_strategy(), path_strategy()).prop_map(|(a, b)| FsOp::Rename(a, b)),
    ]
}

/// Execute an op; normalize the observable outcome to a comparable string.
fn apply(c: &mut FsCluster, op: &FsOp) -> String {
    let cl = c.client.clone();
    let sim = &mut c.sim;
    match op {
        FsOp::Mkdir(p) => format!("mkdir {:?}", cl.mkdir(sim, p).err()),
        FsOp::Create(p) => format!("create {:?}", cl.create(sim, p).err()),
        FsOp::Rm(p) => format!("rm {:?}", cl.rm(sim, p).err()),
        FsOp::Exists(p) => format!("exists {:?}", cl.exists(sim, p)),
        FsOp::Ls(p) => format!("ls {:?}", cl.ls(sim, p)),
        FsOp::Rename(a, b) => format!("rename {:?}", cl.rename(sim, a, b).err()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential test: declarative vs baseline NameNode agree on every
    /// observable outcome of random op sequences.
    #[test]
    fn namenodes_agree_on_random_op_sequences(
        ops in proptest::collection::vec(op_strategy(), 1..25)
    ) {
        let mut decl = FsClusterBuilder {
            control: ControlPlane::Declarative,
            datanodes: 2,
            replication: 1,
            ..Default::default()
        }
        .build();
        let mut base = FsClusterBuilder {
            control: ControlPlane::Baseline,
            datanodes: 2,
            replication: 1,
            ..Default::default()
        }
        .build();
        for (i, op) in ops.iter().enumerate() {
            let a = apply(&mut decl, op);
            let b = apply(&mut base, op);
            prop_assert_eq!(a, b, "divergence at step {} on {:?}", i, op);
        }
    }

    /// The filesystem tree never corrupts: after any op sequence, every
    /// listed child exists, and removed paths do not.
    #[test]
    fn tree_invariants_hold(
        ops in proptest::collection::vec(op_strategy(), 1..20)
    ) {
        let mut c = FsClusterBuilder {
            control: ControlPlane::Declarative,
            datanodes: 2,
            replication: 1,
            ..Default::default()
        }
        .build();
        for op in &ops {
            let _ = apply(&mut c, op);
        }
        let cl = c.client.clone();
        // Walk the tree from the root; every child must report existing.
        let mut stack = vec!["/".to_string()];
        while let Some(dir) = stack.pop() {
            let Ok(children) = cl.ls(&mut c.sim, &dir) else { continue };
            for ch in children {
                let path = if dir == "/" {
                    format!("/{ch}")
                } else {
                    format!("{dir}/{ch}")
                };
                prop_assert!(
                    cl.exists(&mut c.sim, &path).unwrap(),
                    "listed child {} does not exist", path
                );
                stack.push(path);
            }
        }
    }
}
