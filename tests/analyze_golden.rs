//! Golden semantic-analysis reports (monotonicity/CALM, typed catalog,
//! cardinality, maintenance and kernel verdicts) for every shipped
//! program group, plus targeted assertions for the paper's two flagship
//! claims: Paxos has genuine points of order, and BOOM-FS path
//! resolution is a certified monotonic query.
//!
//! Regenerate the goldens with `UPDATE_GOLDEN=1 cargo test --test
//! analyze_golden` after an intentional analysis or program change.

use boom::overlog::analysis;
use boom::shipped;
use std::fs;
use std::path::PathBuf;

fn golden_path(group: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/analyze/{group}.txt"))
}

#[test]
fn analyze_reports_match_goldens() {
    for group in shipped::groups() {
        let (ctx, map) = group.context();
        let rep = analysis::report(&ctx);
        let got = rep.render_semantic(&map);
        let path = golden_path(&group.name);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, &got).unwrap();
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden {} — regenerate with UPDATE_GOLDEN=1",
                path.display()
            )
        });
        assert_eq!(
            got, want,
            "group `{}` semantic report drifted from its golden; \
             regenerate with UPDATE_GOLDEN=1 if the change is intentional",
            group.name
        );
    }
}

#[test]
fn paxos_has_genuine_points_of_order() {
    let group = shipped::groups()
        .into_iter()
        .find(|g| g.name == "paxos")
        .unwrap();
    let (ctx, _) = group.context();
    let rep = analysis::report(&ctx);
    assert!(
        !rep.mono.points_of_order.is_empty(),
        "Paxos must need coordination somewhere"
    );
    // The flagship one: the `promised(max<B>)` ballot aggregate consumes
    // ballots that arrived over the network — exactly where message
    // reordering can change the promise, i.e. why Paxos exists at all.
    assert!(
        rep.mono
            .points_of_order
            .iter()
            .any(|p| p.kind == "aggregation" && p.table == "promised"),
        "ballot aggregation into `promised` is a point of order"
    );
}

#[test]
fn fs_path_resolution_is_certified_monotonic() {
    let group = shipped::groups()
        .into_iter()
        .find(|g| g.name == "fs")
        .unwrap();
    let (ctx, _) = group.context();
    let rep = analysis::report(&ctx);
    // Path resolution (`fqpath`, and the `child` edges it recurses over)
    // is the paper's example of a monotonic computation: its own rules
    // are pure joins/recursion. The only taint is inherited from the
    // (necessarily non-monotonic) file-creation decision upstream.
    for t in ["fqpath", "child"] {
        let v = rep
            .mono
            .verdict(t)
            .unwrap_or_else(|| panic!("`{t}` declared"));
        assert!(
            v.locally_monotonic,
            "`{t}` must be a certified monotonic query"
        );
    }
    assert!(
        rep.mono.certified_queries().any(|t| t == "fqpath"),
        "fqpath appears in the certified list"
    );
    // And no network-facing non-monotonicity: the NameNode coordinates
    // through Paxos (the `core` group), not inside its own program.
    assert!(
        rep.mono.points_of_order.is_empty(),
        "fs alone has no points of order"
    );
}
