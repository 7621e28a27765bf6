//! `boomtrace` — the observability CLI over the `boom-trace` subsystem.
//!
//! Runs a canonical observed scenario (a BOOM-FS metadata+data workload
//! or a BOOM-MR wordcount on the full declarative stack) with the
//! metaprogrammed monitor installed on every Overlog node, then answers
//! questions about it:
//!
//! ```text
//! boomtrace why <PATTERN>      derivation trees for matching tuples
//! boomtrace profile            top-K hot rules across the cluster
//! boomtrace chrome <OUT.json>  Chrome trace-event JSON of the whole run
//! boomtrace metrics            unified metrics registry as JSON
//! boomtrace meta               print the generated monitoring program
//! ```

use boom_bench::observe::{run_observed, ObserveConfig};
use boom_trace::{generate_monitor, render_hot_rules};
use std::process::ExitCode;

const USAGE: &str = "usage: boomtrace [OPTIONS] <COMMAND> [ARGS]

commands:
  why <PATTERN>     print derivation trees for derived tuples whose
                    rendered form `table(v1, ...)` contains PATTERN
  profile           print the top-K hot rules (fires, attempts, delta_in,
                    maint — scoped evaluations run by the incremental
                    view maintainer instead of a full recompute — and
                    kernel — every evaluation of the rule's compiled
                    kernels: tick rounds, folds, maintenance, rebuilds)
  chrome <OUT>      write a Chrome trace-event JSON of the run to OUT
                    (open in about:tracing or ui.perfetto.dev)
  metrics           print the unified metrics registry as JSON
  meta              print the Overlog monitoring program boom-trace
                    generates for the scenario's nodes (without running)

options:
  --scenario NAME   fs (default) or mr
  --seed N          simulator seed (default 42)
  --top K           rules shown by `profile` (default 10)
  --limit N         trees shown by `why` (default 3)
  --with-time       include the wall-clock eval_ms column in `profile`
                    (non-deterministic across runs)
  -h, --help        this help
";

struct Opts {
    scenario: String,
    seed: u64,
    top: usize,
    limit: usize,
    with_time: bool,
}

fn main() -> ExitCode {
    let mut opts = Opts {
        scenario: "fs".to_string(),
        seed: 42,
        top: 10,
        limit: 3,
        with_time: false,
    };
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut flag_value = |name: &str| -> Result<String, String> {
            args.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--scenario" => match flag_value("--scenario") {
                Ok(v) => opts.scenario = v,
                Err(e) => return usage_error(&e),
            },
            "--seed" | "--top" | "--limit" => {
                let v = match flag_value(&arg)
                    .and_then(|v| v.parse::<u64>().map_err(|e| format!("{arg}: {e}")))
                {
                    Ok(v) => v,
                    Err(e) => return usage_error(&e),
                };
                match arg.as_str() {
                    "--seed" => opts.seed = v,
                    "--top" => opts.top = v as usize,
                    _ => opts.limit = v as usize,
                }
            }
            "--with-time" => opts.with_time = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => return usage_error(&format!("unknown flag `{arg}`")),
            _ => positional.push(arg),
        }
    }
    let Some(command) = positional.first().cloned() else {
        return usage_error("missing command");
    };
    match command.as_str() {
        "why" => {
            let Some(pattern) = positional.get(1) else {
                return usage_error("why needs a PATTERN");
            };
            cmd_why(&opts, pattern)
        }
        "profile" => cmd_profile(&opts),
        "chrome" => {
            let Some(out) = positional.get(1) else {
                return usage_error("chrome needs an output path");
            };
            cmd_chrome(&opts, out)
        }
        "metrics" => cmd_metrics(&opts),
        "meta" => cmd_meta(&opts),
        other => usage_error(&format!("unknown command `{other}`")),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("boomtrace: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn observe(
    opts: &Opts,
    provenance: bool,
    chrome: bool,
) -> Result<boom_bench::ObservedRun, ExitCode> {
    eprintln!(
        "boomtrace: running observed `{}` scenario (seed {})",
        opts.scenario, opts.seed
    );
    let cfg = ObserveConfig {
        seed: opts.seed,
        provenance,
        chrome,
    };
    let run = run_observed(&opts.scenario, &cfg).map_err(|e| usage_error(&e))?;
    // Losses are never silent: say exactly what the ring buffers shed.
    eprintln!(
        "boomtrace: {} trace events ({} dropped), {} provenance records ({} dropped)",
        run.trace_events,
        run.trace_dropped,
        run.prov.len(),
        run.prov_dropped
    );
    Ok(run)
}

fn cmd_why(opts: &Opts, pattern: &str) -> ExitCode {
    let run = match observe(opts, true, false) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let matches = run.prov.find(pattern);
    if matches.is_empty() {
        eprintln!(
            "boomtrace: no derived tuple matches `{pattern}` \
             (only derived tuples have provenance; base facts and host \
             insertions are leaves)"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "{} derived tuple(s) match `{pattern}`; showing {}:",
        matches.len(),
        matches.len().min(opts.limit)
    );
    for (table, row) in matches.iter().take(opts.limit) {
        println!();
        print!("{}", run.prov.derivation(table, row).render());
    }
    ExitCode::SUCCESS
}

fn cmd_profile(opts: &Opts) -> ExitCode {
    let run = match observe(opts, false, false) {
        Ok(r) => r,
        Err(code) => return code,
    };
    print!(
        "{}",
        render_hot_rules(&run.profile, opts.top, opts.with_time)
    );
    ExitCode::SUCCESS
}

fn cmd_chrome(opts: &Opts, out: &str) -> ExitCode {
    let run = match observe(opts, false, true) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let doc = run.chrome_json.expect("chrome recording was on");
    if let Err(e) = std::fs::write(out, &doc) {
        eprintln!("boomtrace: cannot write `{out}`: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({} bytes) — open in about:tracing or ui.perfetto.dev",
        out,
        doc.len()
    );
    ExitCode::SUCCESS
}

fn cmd_metrics(opts: &Opts) -> ExitCode {
    let mut run = match observe(opts, true, false) {
        Ok(r) => r,
        Err(code) => return code,
    };
    println!("{}", run.registry.to_json());
    ExitCode::SUCCESS
}

fn cmd_meta(opts: &Opts) -> ExitCode {
    // Build the scenario's cluster but print the generated program
    // instead of running the workload.
    use boom::simnet::OverlogActor;
    let nodes: &[&str] = match opts.scenario.as_str() {
        "fs" => &["nn0"],
        "mr" => &["nn0", "jt"],
        other => return usage_error(&format!("unknown scenario `{other}`")),
    };
    let mut sim = match opts.scenario.as_str() {
        "fs" => {
            boom::fs::cluster::FsClusterBuilder {
                datanodes: 2,
                ..Default::default()
            }
            .build()
            .sim
        }
        _ => {
            boom::mr::MrClusterBuilder {
                workers: 2,
                ..Default::default()
            }
            .build()
            .sim
        }
    };
    for node in nodes {
        let spec = sim.with_actor::<OverlogActor, _>(node, |a| generate_monitor(a.runtime()));
        println!(
            "// === node {node}: {} watches, {} row-count views, {} statements ===",
            spec.watches.len(),
            spec.counted.len(),
            spec.statements()
        );
        print!("{}", spec.source);
    }
    ExitCode::SUCCESS
}
