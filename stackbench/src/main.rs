//! `stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced, prints the end-to-end metrics; traced, runs the same
//! workload and seed with callback timing on, replays it untraced for
//! the tracing overhead, writes the spans as Chrome trace-event JSON and
//! prints the per-layer metrics. The last line is the JSON result.

use stackbench::report::{self, END_TO_END};
use stackbench::run::{plan, run, Tally, Workload, ROUNDS};
use std::process::ExitCode;

const USAGE: &str = "usage: stackbench --workload <fs-meta|block-report|wordcount|paxos-meta> \
                     --seed <n> --seconds <1..600> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 1..600".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Print the run's configuration, so two runs can be compared.
fn print_config(a: &Args, steps: &[u64]) {
    let opts = boom_overlog::PlanOptions::default();
    let kernels_env = std::env::var("BOOM_KERNELS").ok();
    let par = boom_simnet::Sim::new(boom_simnet::SimConfig::default()).parallelism_report();
    println!(
        "config workload={} seed={} seconds={} trace={} rounds={ROUNDS} steps_per_round={}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        steps[0]
    );
    println!("config sizes {}", a.workload.sizes());
    println!(
        "config plan_options reorder_joins={} scoped_views={} shards={} maintenance={} kernels={} \
         boom_kernels_override={}",
        opts.reorder_joins,
        opts.scoped_views,
        opts.shards,
        opts.maintenance,
        opts.kernels,
        kernels_env.as_deref().unwrap_or("none")
    );
    println!(
        "config simnet parallel_feature={} parallel_enabled={} threads=1 closed_loop_clients=1",
        par.feature_compiled, par.enabled
    );
    println!(
        "config profile={}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
}

fn print_outcome(t: &Tally) {
    println!(
        "ops attempted={} failed={} timeouts={} wrong={}",
        t.attempted, t.failed, t.timeouts, t.wrong
    );
    for n in &t.notes {
        println!("note {n}");
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let steps = plan(args.workload, args.seconds);
    print_config(&args, &steps);
    let t = run(args.workload, args.seed, &steps, args.trace);
    print_outcome(&t);
    let mut correct = t.wrong == 0;
    let metrics: Vec<(String, f64, &str)> = if !args.trace {
        let values = report::end_to_end(&t);
        for ((name, unit), v) in END_TO_END.iter().zip(&values) {
            println!("metric {name} {v} {unit}");
        }
        for (name, v, unit) in report::workload_metrics(args.workload, &t) {
            println!("metric {name} {v} {unit}");
        }
        if !t.jobs.is_empty() {
            println!(
                "samples job_host_s={:?} job_virtual_s={:?}",
                t.jobs, t.job_virtual
            );
        }
        println!(
            "samples ops={} reads={} writes={} measured_s={}",
            t.ops.len(),
            t.reads.len(),
            t.writes.len(),
            t.measured
        );
        println!("samples setup_s={:?}", t.setup);
        println!("samples round_ops_per_s={:?}", report::round_rates(&t));
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (n.to_string(), v, *u))
            .collect()
    } else {
        // The same rounds and steps again with tracing off: the ratio of
        // the two measured times is the tracing overhead.
        let bare = run(args.workload, args.seed, &steps, false);
        let overhead = t.measured / bare.measured;
        let dir = std::path::Path::new("stackbench").join("out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, report::chrome(&t)))
        {
            Ok(()) => println!("chrome trace written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        print!("{}", report::layer_table(&t));
        let names = report::per_layer_names();
        let values = report::per_layer(&t, overhead);
        for ((name, unit), v) in names.iter().zip(&values) {
            println!("metric {name} {v} {unit}");
        }
        if bare.wrong > 0 {
            print_outcome(&bare);
            correct = false;
        }
        names
            .into_iter()
            .zip(values)
            .map(|((n, u), v)| (n, v, u))
            .collect()
    };
    println!(
        "{}",
        report::result_line(correct, t.attempted, t.failed, &metrics)
    );
    ExitCode::SUCCESS
}
