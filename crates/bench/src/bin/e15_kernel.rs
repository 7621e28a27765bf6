//! E15 — compiled kernels over columnar storage: a NameNode-shaped
//! runtime takes chunk re-report bursts (typed equijoins against chunk
//! metadata and rack topology, a literal delta gate, and an
//! assignment-bearing usage view), once with the plan's compiled kernels
//! executing and once forced onto the interpreted walk
//! (`PlanOptions::kernels = false`, the `BOOM_KERNELS=0` path). The
//! sweep crosses both engines with both maintenance modes, so the
//! kernels are measured *composed* with incremental maintenance, not in
//! isolation.
//!
//! Every cell carries a hard byte-identity verdict against the
//! interpreted baseline, kernel cells must show
//! `kernel_evals > 0` (the compiled path really engaged) and
//! interpreted cells `kernel_evals == 0` (the baseline really ran
//! interpreted).
//!
//! `--smoke` runs CI-scale sizes and gates identity + path engagement
//! only (CPU speedup is machine-dependent). The full run additionally
//! gates **≥ 2× tuples/CPU-sec on the headline cell** and writes
//! `results/e15_kernel.txt` and `results/BENCH_e15.json`.

use boom_bench::{run_kernel_bench, KernelBenchCase, KernelBenchResult};
use std::fmt::Write as _;
use std::process::ExitCode;

/// The full-run acceptance bar on the `maintenance=off` headline cell: evaluation tuples/CPU-sec, kernels over interpreted.
const SPEEDUP_FLOOR: f64 = 2.0;

fn render_text(res: &KernelBenchResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# E15: compiled kernels — kernel-specialized vs interpreted evaluation on chunk churn"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>8} {:>12} {:>12} {:>10} {:>8} {:>7}",
        "maint", "mode", "tuples", "eval (s)", "tuples/cpus", "wall (ms)", "kevals", "ident"
    );
    for c in &res.cases {
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>8} {:>12.4} {:>12.0} {:>10.1} {:>8} {:>7}",
            c.maintenance,
            c.mode,
            c.tuples,
            c.eval_secs,
            c.tuples_per_sec,
            c.wall_ms,
            c.kernel_evals,
            c.fingerprint_match
        );
    }
    for (maint, s) in &res.speedups {
        let _ = writeln!(
            out,
            "# speedup @ maintenance={maint}: {s:.2}x tuples/CPU-sec \
             (interpreted eval / kernel eval)"
        );
    }
    out
}

fn render_json(res: &KernelBenchResult) -> String {
    let mut out = String::from("{\"experiment\":\"e15_kernel\",\"cases\":[");
    for (i, c) in res.cases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"mode\":\"{}\",\"maintenance\":{},\"tuples\":{},\
             \"eval_secs\":{:.6},\"tuples_per_sec\":{:.1},\"wall_ms\":{:.2},\
             \"kernel_evals\":{},\"fingerprint_match\":{}}}",
            c.mode,
            c.maintenance,
            c.tuples,
            c.eval_secs,
            c.tuples_per_sec,
            c.wall_ms,
            c.kernel_evals,
            c.fingerprint_match
        );
    }
    out.push_str("],\"speedups\":[");
    for (i, (maint, s)) in res.speedups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"maintenance\":{maint},\"speedup\":{s:.2}}}");
    }
    out.push_str("]}");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let arg = |name: &str| -> Option<usize> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    let res = if smoke {
        eprintln!("E15 smoke: CI-scale churn, byte-identity + kernel-path gate");
        run_kernel_bench(arg("--rows").unwrap_or(2_000), 4, 128, 1)
    } else {
        eprintln!("E15: full chunk-churn sweep (min of 5 repetitions per cell)");
        run_kernel_bench(
            arg("--rows").unwrap_or(10_000),
            arg("--rounds").unwrap_or(8),
            arg("--churn").unwrap_or(1_024),
            arg("--reps").unwrap_or(5),
        )
    };
    let text = render_text(&res);
    print!("{text}");
    println!("{}", render_json(&res));
    let divergent: Vec<&KernelBenchCase> =
        res.cases.iter().filter(|c| !c.fingerprint_match).collect();
    if !divergent.is_empty() {
        for c in divergent {
            eprintln!(
                "E15 FAIL: `{}` at maintenance={} diverged from the \
                 interpreted baseline",
                c.mode, c.maintenance
            );
        }
        return ExitCode::FAILURE;
    }
    for c in &res.cases {
        if c.mode == "kernels" && c.kernel_evals == 0 {
            eprintln!(
                "E15 FAIL: kernel run at maintenance={} never took the \
                 compiled path",
                c.maintenance
            );
            return ExitCode::FAILURE;
        }
        if c.mode == "interpreted" && c.kernel_evals != 0 {
            eprintln!(
                "E15 FAIL: interpreted baseline at maintenance={} \
                 executed {} compiled-kernel evaluations",
                c.maintenance, c.kernel_evals
            );
            return ExitCode::FAILURE;
        }
    }
    if !smoke {
        let (_, headline) = *res
            .speedups
            .iter()
            .find(|(maint, _)| !*maint)
            .expect("no-maintenance cell is always swept");
        if headline < SPEEDUP_FLOOR {
            eprintln!(
                "E15 FAIL: {headline:.2}x tuples/CPU-sec on the headline cell \
                 (acceptance floor is {SPEEDUP_FLOOR}x)"
            );
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write("results/e15_kernel.txt", &text))
            .and_then(|()| std::fs::write("results/BENCH_e15.json", render_json(&res)))
        {
            eprintln!("E15: could not write results files: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("E15: wrote results/e15_kernel.txt and results/BENCH_e15.json");
    }
    ExitCode::SUCCESS
}
