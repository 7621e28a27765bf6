//! Code-size accounting for experiment E1: rules and lines of every
//! Overlog program, plus Rust line counts per subsystem — the counting
//! behind the paper's "HDFS ≈ 21k lines of Java vs BOOM-FS ≈ 85 rules /
//! 469 lines of Overlog" table.

use boom_overlog::source_stats;
use std::path::{Path, PathBuf};

/// One row of the code-size table.
#[derive(Debug, Clone)]
pub struct SizeRow {
    /// Subsystem label.
    pub system: String,
    /// Overlog rules (0 for imperative code).
    pub olg_rules: usize,
    /// Overlog source lines (non-blank, non-comment).
    pub olg_lines: usize,
    /// Rust source lines (non-blank, non-comment; tests excluded by the
    /// `#[cfg(test)]`-module heuristic).
    pub rust_lines: usize,
}

/// Count non-blank, non-comment Rust lines in a file, stopping at the
/// `#[cfg(test)]` module (tests are not "system code" in the paper's
/// accounting).
fn rust_loc_of_file(path: &Path) -> usize {
    let Ok(src) = std::fs::read_to_string(path) else {
        return 0;
    };
    let mut n = 0usize;
    for line in src.lines() {
        let t = line.trim();
        if t == "#[cfg(test)]" {
            break;
        }
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        n += 1;
    }
    n
}

fn rust_loc_of_dir(dir: &Path) -> usize {
    let mut total = 0usize;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            total += rust_loc_of_dir(&p);
        } else if p.extension().is_some_and(|x| x == "rs") {
            total += rust_loc_of_file(&p);
        }
    }
    total
}

/// Repository root, resolved from this crate's manifest dir.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Build the full code-size table for the repository.
pub fn size_table() -> Vec<SizeRow> {
    let root = repo_root();
    let olg = |src: &str| source_stats(src);
    let rust = |rel: &str| rust_loc_of_dir(&root.join(rel));

    let (nn_rules, nn_lines) = olg(boom_fs::NAMENODE_OLG);
    let (px_rules, px_lines) = olg(boom_paxos::PAXOS_OLG);
    let (gl_rules, gl_lines) = olg(boom_core::REPLICATED_GLUE_OLG);
    let (jt_rules, jt_lines) = olg(boom_mr::JOBTRACKER_OLG);
    let (late_rules, late_lines) = olg(boom_mr::LATE_OLG);
    let (naive_rules, naive_lines) = olg(boom_mr::NAIVE_OLG);

    vec![
        SizeRow {
            system: "BOOM-FS NameNode (Overlog)".into(),
            olg_rules: nn_rules,
            olg_lines: nn_lines,
            rust_lines: 0,
        },
        SizeRow {
            system: "BOOM-FS data plane + client (Rust)".into(),
            olg_rules: 0,
            olg_lines: 0,
            rust_lines: rust("crates/fs/src"),
        },
        SizeRow {
            system: "Paxos (Overlog)".into(),
            olg_rules: px_rules,
            olg_lines: px_lines,
            rust_lines: 0,
        },
        SizeRow {
            system: "Availability glue (Overlog)".into(),
            olg_rules: gl_rules,
            olg_lines: gl_lines,
            rust_lines: rust("crates/core/src"),
        },
        SizeRow {
            system: "BOOM-MR JobTracker (Overlog)".into(),
            olg_rules: jt_rules,
            olg_lines: jt_lines,
            rust_lines: 0,
        },
        SizeRow {
            system: "LATE policy (Overlog)".into(),
            olg_rules: late_rules,
            olg_lines: late_lines,
            rust_lines: 0,
        },
        SizeRow {
            system: "naive speculation (Overlog)".into(),
            olg_rules: naive_rules,
            olg_lines: naive_lines,
            rust_lines: 0,
        },
        SizeRow {
            system: "BOOM-MR workers + driver (Rust)".into(),
            olg_rules: 0,
            olg_lines: 0,
            rust_lines: rust("crates/mr/src"),
        },
        SizeRow {
            system: "Overlog runtime (JOL equivalent, Rust)".into(),
            olg_rules: 0,
            olg_lines: 0,
            rust_lines: rust("crates/overlog/src"),
        },
        SizeRow {
            system: "Cluster simulator (EC2 substitute, Rust)".into(),
            olg_rules: 0,
            olg_lines: 0,
            rust_lines: rust("crates/simnet/src"),
        },
    ]
}

/// Sorted `(path relative to dir, path)` of every file under `dir` whose
/// extension is `ext`.
fn files_with_ext(dir: &Path, ext: &str) -> Vec<(String, PathBuf)> {
    fn walk(base: &Path, dir: &Path, ext: &str, out: &mut Vec<(String, PathBuf)>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(base, &p, ext, out);
            } else if p.extension().is_some_and(|x| x == ext) {
                let rel = p.strip_prefix(base).unwrap_or(&p);
                out.push((rel.to_string_lossy().into_owned(), p.clone()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, ext, &mut out);
    out.sort();
    out
}

/// The code-size result as `results/BENCH_e1.json`: one case per crate
/// (Rust lines), per `boom-overlog` module (Rust lines), and per shipped
/// Overlog program (rules and lines), all counted as in [`size_table`].
pub fn size_json() -> String {
    let root = repo_root();
    let mut cases = Vec::new();
    let mut crates: Vec<(String, PathBuf)> = std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| {
            let name = format!("boom-{}", e.file_name().to_string_lossy());
            (name, e.path().join("src"))
        })
        .filter(|(_, src)| src.is_dir())
        .collect();
    crates.push(("boom".into(), root.join("src")));
    crates.sort();
    for (name, dir) in &crates {
        cases.push(format!(
            "{{\"kind\":\"crate\",\"name\":\"{name}\",\"rust_lines\":{}}}",
            rust_loc_of_dir(dir)
        ));
    }
    for (rel, path) in files_with_ext(&root.join("crates/overlog/src"), "rs") {
        cases.push(format!(
            "{{\"kind\":\"module\",\"name\":\"overlog/{rel}\",\"rust_lines\":{}}}",
            rust_loc_of_file(&path)
        ));
    }
    for (rel, path) in files_with_ext(&root.join("crates"), "olg") {
        let (rules, lines) = source_stats(&std::fs::read_to_string(&path).unwrap_or_default());
        let name = rel.replace("/src/olg/", "/");
        cases.push(format!(
            "{{\"kind\":\"program\",\"name\":\"{name}\",\"rules\":{rules},\"olg_lines\":{lines}}}"
        ));
    }
    format!(
        "{{\"experiment\":\"e1_code_size\",\"cases\":[{}]}}\n",
        cases.join(",\n")
    )
}

/// Render the table like the paper's LoC table.
pub fn render_size_table(rows: &[SizeRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>9} {:>10} {:>11}\n",
        "system", "olg rules", "olg lines", "rust lines"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<44} {:>9} {:>10} {:>11}\n",
            r.system, r.olg_rules, r.olg_lines, r.rust_lines
        ));
    }
    let olg_total: usize = rows.iter().map(|r| r.olg_lines).sum();
    let rule_total: usize = rows.iter().map(|r| r.olg_rules).sum();
    let rust_total: usize = rows.iter().map(|r| r.rust_lines).sum();
    out.push_str(&format!(
        "{:<44} {:>9} {:>10} {:>11}\n",
        "TOTAL", rule_total, olg_total, rust_total
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_populated_and_paper_scale() {
        let rows = size_table();
        let nn = &rows[0];
        assert!(nn.olg_rules >= 30 && nn.olg_rules <= 150);
        let px = rows.iter().find(|r| r.system.starts_with("Paxos")).unwrap();
        // Paper: Paxos in ~300 lines of Overlog.
        assert!(
            px.olg_lines >= 80 && px.olg_lines <= 400,
            "{}",
            px.olg_lines
        );
        let runtime = rows.iter().find(|r| r.system.contains("JOL")).unwrap();
        assert!(runtime.rust_lines > 1_000);
        let rendered = render_size_table(&rows);
        assert!(rendered.contains("TOTAL"));
    }

    #[test]
    fn json_covers_crates_modules_and_programs() {
        let j = size_json();
        for needle in [
            "\"name\":\"boom-overlog\",\"rust_lines\":",
            "\"name\":\"overlog/runtime.rs\"",
            "\"name\":\"overlog/analysis/maint.rs\"",
            "\"name\":\"fs/namenode.olg\",\"rules\":",
            "\"name\":\"paxos/paxos.olg\"",
        ] {
            assert!(j.contains(needle), "{needle} missing from {j}");
        }
    }
}
