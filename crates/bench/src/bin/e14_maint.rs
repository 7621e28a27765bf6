//! E14 — analysis-driven incremental view maintenance: a NameNode
//! holding 10^5–10^6 replica reports takes bursts of re-reports (each a
//! keyed overwrite, i.e. an insert *plus a retraction*), once with the
//! maintenance planner on and once with every affected view recomputed
//! from scratch per tick. The maintenance analysis certifies the
//! heartbeat aggregates `chunk_locs` / `chunk_rep` as
//! `group-recompute(group=[0])`, so the maintained engine refolds only the
//! churned chunk groups while the recompute engine refolds all of them —
//! the gap is the point of the whole maintenance subsystem.
//!
//! Every recompute row carries a hard byte-identity verdict against its
//! maintained twin, and the maintained rows must show `maint_rounds > 0`
//! (proof the in-place path engaged, not a silent fallback).
//!
//! `--smoke` runs CI-scale sizes and gates byte-identity + path
//! engagement only (CPU speedup is machine-dependent). The full run
//! additionally gates **≥ 5× tuples/CPU-sec at the largest size** and
//! writes `results/e14_maint.txt` and `results/BENCH_e14.json`.

use boom_bench::{run_maint_bench, MaintBenchCase, MaintBenchResult};
use std::fmt::Write as _;
use std::process::ExitCode;

/// The full-run acceptance bar at the largest table size.
const SPEEDUP_FLOOR: f64 = 5.0;

fn render_text(res: &MaintBenchResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# E14: incremental view maintenance — maintained vs full recompute on heartbeat churn"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>11} {:>8} {:>12} {:>12} {:>10} {:>7} {:>7} {:>7} {:>7}",
        "rows",
        "mode",
        "tuples",
        "busy (s)",
        "tuples/cpus",
        "wall (ms)",
        "maint",
        "views",
        "recomp",
        "ident"
    );
    for c in &res.cases {
        let _ = writeln!(
            out,
            "{:>9} {:>11} {:>8} {:>12.4} {:>12.0} {:>10.1} {:>7} {:>7} {:>7} {:>7}",
            c.rows,
            c.mode,
            c.tuples,
            c.busy_secs,
            c.tuples_per_sec,
            c.wall_ms,
            c.maint_rounds,
            c.views_maintained,
            c.view_recomputes,
            c.fingerprint_match
        );
    }
    for (rows, s) in &res.speedups {
        let _ = writeln!(
            out,
            "# speedup @ {rows} rows: {s:.1}x tuples/CPU-sec (recompute busy / maintained busy)"
        );
    }
    out
}

fn render_json(res: &MaintBenchResult) -> String {
    let mut out = String::from("{\"experiment\":\"e14_maint\",\"cases\":[");
    for (i, c) in res.cases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rows\":{},\"mode\":\"{}\",\"tuples\":{},\"busy_secs\":{:.6},\
             \"tuples_per_sec\":{:.1},\"wall_ms\":{:.2},\"maint_rounds\":{},\
             \"views_maintained\":{},\"view_recomputes\":{},\"fingerprint_match\":{}}}",
            c.rows,
            c.mode,
            c.tuples,
            c.busy_secs,
            c.tuples_per_sec,
            c.wall_ms,
            c.maint_rounds,
            c.views_maintained,
            c.view_recomputes,
            c.fingerprint_match
        );
    }
    out.push_str("],\"speedups\":[");
    for (i, (rows, s)) in res.speedups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"rows\":{rows},\"speedup\":{s:.2}}}");
    }
    out.push_str("]}");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let sizes: Option<Vec<usize>> = args
        .iter()
        .position(|a| a == "--sizes")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.split(',').filter_map(|s| s.parse().ok()).collect());
    let res = if smoke {
        eprintln!("E14 smoke: CI-scale tables, byte-identity + maintenance-path gate");
        run_maint_bench(&sizes.unwrap_or_else(|| vec![2_000, 5_000]), 4, 32, 1)
    } else {
        eprintln!("E14: full-scale churn sweep (min of 3 repetitions per cell)");
        run_maint_bench(
            &sizes.unwrap_or_else(|| vec![100_000, 1_000_000]),
            8,
            128,
            3,
        )
    };
    let text = render_text(&res);
    print!("{text}");
    println!("{}", render_json(&res));
    let divergent: Vec<&MaintBenchCase> =
        res.cases.iter().filter(|c| !c.fingerprint_match).collect();
    if !divergent.is_empty() {
        for c in divergent {
            eprintln!(
                "E14 FAIL: {} rows under `{}` diverged from the maintained engine",
                c.rows, c.mode
            );
        }
        return ExitCode::FAILURE;
    }
    if !res
        .cases
        .iter()
        .any(|c| c.mode == "maintained" && c.maint_rounds > 0)
    {
        eprintln!("E14 FAIL: no maintained run ever took the in-place maintenance path");
        return ExitCode::FAILURE;
    }
    if !smoke {
        let (rows, speedup) = *res
            .speedups
            .iter()
            .max_by_key(|(rows, _)| *rows)
            .expect("at least one size");
        if speedup < SPEEDUP_FLOOR {
            eprintln!(
                "E14 FAIL: {speedup:.1}x tuples/CPU-sec at {rows} rows \
                 (acceptance floor is {SPEEDUP_FLOOR}x)"
            );
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write("results/e14_maint.txt", &text))
            .and_then(|()| std::fs::write("results/BENCH_e14.json", render_json(&res)))
        {
            eprintln!("E14: could not write results files: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("E14: wrote results/e14_maint.txt and results/BENCH_e14.json");
    }
    ExitCode::SUCCESS
}
