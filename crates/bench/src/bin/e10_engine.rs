//! E10 — the engine hot path: tuples/sec through the Overlog tick loop
//! (dense table IDs + zero-copy deltas) and serial-vs-parallel wall
//! clock for same-instant node evaluation, on three workloads:
//!
//! * `chunk-churn` — a chunk alloc/abandon storm against a stable
//!   namespace on one NameNode: the semi-naive delta +
//!   view-maintenance hot path, CPU-bound.
//! * `mr-shuffle` — a full wordcount (map schedule, shuffle, reduce
//!   commit) through the JobTracker/TaskTracker Overlog programs.
//! * `partitioned-nn-4` — E6's create storm against a 4-way partitioned
//!   NameNode: many nodes busy at overlapping virtual instants, the
//!   workload parallel evaluation exists for.
//!
//! Every parallel row carries a hard byte-identity verdict: the full
//! `overlog_state_fingerprint` of the run must equal its serial twin's.
//!
//! `--smoke` runs CI-scale sizes and exits non-zero if any parallel row
//! diverged from serial (it does **not** gate speedup — CI machines may
//! have a single core, where parallel evaluation is pure overhead). The
//! full run writes `results/e10_engine.txt` and the machine-readable
//! `results/BENCH_e10.json` perf-trajectory seed.

use boom_bench::{run_engine_bench, EngineBenchCase};
use std::fmt::Write as _;
use std::process::ExitCode;

fn render_text(cases: &[EngineBenchCase]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# E10: engine hot path — tuples per CPU second and serial-vs-parallel wall clock"
    );
    let _ = writeln!(
        out,
        "{:<18} {:>9} {:>12} {:>12} {:>12} {:>10} {:>8} {:>7}",
        "workload", "mode", "tuples", "busy (s)", "tuples/s", "wall (ms)", "kevals", "ident"
    );
    for c in cases {
        let _ = writeln!(
            out,
            "{:<18} {:>9} {:>12} {:>12.4} {:>12.0} {:>10.1} {:>8} {:>7}",
            c.workload,
            c.mode,
            c.tuples,
            c.busy_secs,
            c.tuples_per_sec,
            c.wall_ms,
            c.kernel_evals,
            c.fingerprint_match
        );
    }
    for c in cases.iter().filter(|c| c.mode == "parallel") {
        if let Some(s) = cases
            .iter()
            .find(|s| s.mode == "serial" && s.workload == c.workload)
        {
            let _ = writeln!(
                out,
                "# {}: parallel wall clock {:.2}x serial",
                c.workload,
                s.wall_ms / c.wall_ms.max(1e-9)
            );
        }
    }
    out
}

fn render_json(cases: &[EngineBenchCase]) -> String {
    let mut out = String::from("{\"experiment\":\"e10_engine\",\"cases\":[");
    for (i, c) in cases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"workload\":\"{}\",\"mode\":\"{}\",\"tuples\":{},\"busy_secs\":{:.6},\
             \"tuples_per_sec\":{:.1},\"wall_ms\":{:.2},\"kernel_evals\":{},\
             \"fingerprint_match\":{}}}",
            c.workload,
            c.mode,
            c.tuples,
            c.busy_secs,
            c.tuples_per_sec,
            c.wall_ms,
            c.kernel_evals,
            c.fingerprint_match
        );
    }
    out.push_str("]}");
    out
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cases = if smoke {
        eprintln!("E10 smoke: CI-scale workloads, byte-identity gate");
        run_engine_bench(40, 300, 24)
    } else {
        eprintln!("E10: full-scale engine benchmark");
        run_engine_bench(400, 2_000, 120)
    };
    let text = render_text(&cases);
    print!("{text}");
    println!("{}", render_json(&cases));
    let divergent: Vec<&EngineBenchCase> = cases.iter().filter(|c| !c.fingerprint_match).collect();
    if !divergent.is_empty() {
        for c in divergent {
            eprintln!(
                "E10 FAIL: {} {} diverged from the serial engine",
                c.workload, c.mode
            );
        }
        return ExitCode::FAILURE;
    }
    if !cases.iter().any(|c| c.mode == "parallel") {
        eprintln!("E10 note: built without the `parallel` feature; serial rows only");
    }
    if !smoke {
        if let Err(e) = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write("results/e10_engine.txt", &text))
            .and_then(|()| std::fs::write("results/BENCH_e10.json", render_json(&cases)))
        {
            eprintln!("E10: could not write results files: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("E10: wrote results/e10_engine.txt and results/BENCH_e10.json");
    }
    ExitCode::SUCCESS
}
