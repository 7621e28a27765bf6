//! Metrics from a [`Tally`]: the end-to-end set, the per-layer set, the
//! result line, the layer self-time table and the Chrome trace.

use crate::run::{RoundCut, Tally, Workload};
use crate::wrap::Role;
use boom_trace::chrome::ChromeTrace;
use std::collections::BTreeMap;

/// End-to-end metrics of the result line (`--trace 0`), name and unit.
/// The result line must carry every one on every workload, so these are
/// the ones all four workloads have; an op is a client op, or a job on
/// wordcount. The metrics that apply to some workloads only are printed
/// beside them (see [`workload_metrics`]).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Client calls with a per-call latency metric.
const CALLS: [&str; 9] = [
    "exists",
    "ls",
    "chunks",
    "locations",
    "create",
    "newchunk",
    "abandon",
    "rm",
    "rename",
];

/// The Overlog layers, one per program role.
const OVERLOG_LAYERS: [&str; 3] = ["fs.namenode", "mr.jobtracker", "core.replicated"];

/// Per-program-role metrics, name suffix and unit.
const OVERLOG_METRICS: [(&str, &str); 14] = [
    ("busy_s", "s"),
    ("eval_s", "s"),
    ("other_s", "s"),
    ("cpu_us_per_op", "us"),
    ("ticks", "count"),
    ("fixpoint_rounds", "count"),
    ("view_recomputes", "count"),
    ("maint_rounds", "count"),
    ("views_maintained", "count"),
    ("rule_attempts", "count"),
    ("fire_ratio", "ratio"),
    ("kernel_evals", "count"),
    ("rows", "count"),
    ("errors", "count"),
];

/// Per-layer metrics (`--trace 1`), name and unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = CALLS
        .iter()
        .map(|c| (format!("fs.client.{c}_p50_us"), "us"))
        .collect();
    v.push(("fs.client.timeouts".into(), "count"));
    v.push(("mr.driver.submit_s".into(), "s"));
    v.push(("mr.driver.wait_s".into(), "s"));
    for (n, u) in [
        ("self_s", "s"),
        ("callbacks", "count"),
        ("delivered", "count"),
        ("dropped", "count"),
        ("virtual_s", "s"),
    ] {
        v.push((format!("simnet.{n}"), u));
    }
    for layer in OVERLOG_LAYERS {
        for (n, u) in OVERLOG_METRICS {
            v.push((format!("{layer}.{n}"), u));
        }
    }
    for (n, u) in [
        ("fs.namenode.reports_in", "count"),
        ("fs.namenode.report_batch_p99_ms", "ms"),
        ("mr.jobtracker.job_virtual_s", "s"),
        ("core.replicated.leader_busy_s", "s"),
        ("fs.datanode.busy_s", "s"),
        ("fs.datanode.writes", "count"),
        ("fs.datanode.reads", "count"),
        ("mr.tasktracker.busy_s", "s"),
        ("mr.tasktracker.completed", "count"),
        ("mr.tasktracker.spec_useful", "ratio"),
        ("mr.tasktracker.local_ratio", "ratio"),
        ("simnet.durable.appends", "count"),
        ("simnet.durable.checkpoints", "count"),
        ("simnet.durable.wal_entries", "count"),
        ("trace.overhead", "ratio"),
    ] {
        v.push((n.into(), u));
    }
    v
}

/// Nearest-rank percentile of host ns samples, in µs (0 with no samples).
pub fn pct_us(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / 1e3
}

/// Median of a list of seconds.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Ops that completed.
pub fn ops_done(t: &Tally) -> u64 {
    t.attempted - t.failed
}

/// The end-to-end metric values, in [`END_TO_END`] order.
///
/// `setup_s` is the median over rounds (each round's set-up time is the
/// faster of two identical set-ups). `ops_per_s` and `op_p50_us` are
/// the best round's value (highest rate, lowest latency) — the min-of-k
/// the repository's E14/E15 use: the machine's speed wanders in slow
/// phases of a few seconds, and the best of several rounds takes the
/// program's cost outside them. Every round runs the same number of ops.
pub fn end_to_end(t: &Tally) -> Vec<f64> {
    let rate = round_rates(t).into_iter().fold(0.0, f64::max);
    let p50 = rounds(t)
        .filter(|(ops, _)| !ops.is_empty())
        .map(|(ops, _)| pct_us(ops, 0.50))
        .fold(f64::INFINITY, f64::min);
    vec![median(&t.setup), rate, p50, peak_rss_mib()]
}

/// Each round's completed-op latencies and measured host seconds.
fn rounds(t: &Tally) -> impl Iterator<Item = (&[u64], f64)> {
    let starts = std::iter::once(RoundCut::default()).chain(t.cuts.iter().copied());
    starts
        .zip(&t.cuts)
        .map(|(a, b)| (&t.ops[a.ops..b.ops], b.measured - a.measured))
}

/// Ops completed per measured host second, per round.
pub fn round_rates(t: &Tally) -> Vec<f64> {
    rounds(t)
        .map(|(ops, secs)| ratio(ops.len() as f64, secs))
        .collect()
}

/// The end-to-end metrics that apply to `w` only, name, value and unit,
/// over every sample of the run. They stay out of the result line, which
/// carries the same metrics on every workload.
pub fn workload_metrics(w: Workload, t: &Tally) -> Vec<(&'static str, f64, &'static str)> {
    let reads = [
        ("read_p50_us", pct_us(&t.reads, 0.50), "us"),
        ("read_p99_us", pct_us(&t.reads, 0.99), "us"),
    ];
    let writes = [
        ("write_p50_us", pct_us(&t.writes, 0.50), "us"),
        ("write_p99_us", pct_us(&t.writes, 0.99), "us"),
    ];
    let mut v: Vec<_> = match w {
        Workload::FsMeta | Workload::PaxosMeta => reads.into_iter().chain(writes).collect(),
        Workload::BlockReport => {
            let reports = t.layers.get("fs.namenode.reports_in").copied();
            let mut v = reads.to_vec();
            v.push(("reports_per_s", ratio(reports.unwrap_or(0.0), t.measured), "1/s"));
            v
        }
        Workload::WordCount => vec![("job_s", mean(&t.jobs), "s")],
    };
    v.push((
        "fail_ratio",
        ratio(t.failed as f64, t.attempted as f64),
        "ratio",
    ));
    v
}

/// The per-layer metric values, in [`per_layer_names`] order.
pub fn per_layer(t: &Tally, overhead: f64) -> Vec<f64> {
    let get = |k: &str| t.layers.get(k).copied().unwrap_or(0.0);
    let end = |k: &str| t.end_state.get(k).copied().unwrap_or(0.0);
    let calls = |k: &str| t.calls.get(k).map(Vec::as_slice).unwrap_or(&[]);
    let ops = ops_done(t) as f64;
    let mut v: Vec<f64> = CALLS.iter().map(|c| pct_us(calls(c), 0.50)).collect();
    v.push(t.timeouts as f64);
    v.push(mean(&t.submit));
    v.push(mean(&t.wait));
    let cb_busy: f64 = Role::ALL
        .iter()
        .map(|r| get(&format!("{}.cb_busy_s", r.layer())))
        .sum();
    let callbacks: f64 = Role::ALL
        .iter()
        .map(|r| get(&format!("{}.callbacks", r.layer())))
        .sum();
    v.push(t.measured - cb_busy);
    v.push(callbacks);
    v.push(get("simnet.delivered"));
    v.push(get("simnet.dropped"));
    v.push(get("simnet.virtual_s"));
    for layer in OVERLOG_LAYERS {
        let g = |n: &str| get(&format!("{layer}.{n}"));
        let (busy, eval) = (g("busy_s"), g("eval_s"));
        v.extend([
            busy,
            eval,
            busy - eval,
            ratio(busy * 1e6, ops),
            g("ticks"),
            g("fixpoint_rounds"),
            g("view_recomputes"),
            g("maint_rounds"),
            g("views_maintained"),
            g("rule_attempts"),
            ratio(g("fires"), g("rule_attempts")),
            g("kernel_evals"),
            end(&format!("{layer}.rows")),
            g("errors"),
        ]);
    }
    let completed = get("mr.tasktracker.completed");
    let local = get("mr.tasktracker.local_reads");
    v.extend([
        get("fs.namenode.reports_in"),
        pct_us(calls("nn.report_batch"), 0.99) / 1e3,
        mean(&t.job_virtual),
        get("core.replicated.leader_busy_s"),
        get("fs.datanode.cb_busy_s"),
        get("fs.datanode.writes"),
        get("fs.datanode.reads"),
        get("mr.tasktracker.cb_busy_s"),
        completed,
        ratio(completed, completed + get("mr.tasktracker.killed")),
        ratio(local, local + get("mr.tasktracker.remote_reads")),
        get("simnet.durable.appends"),
        get("simnet.durable.checkpoints"),
        end("simnet.durable.wal_entries"),
        overhead,
    ]);
    v
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Self time per layer over the measured sections: each role's callback
/// time, the client's and benchmark's own code plus the simulator's event
/// loop as `simnet`, against the measured wall time.
pub fn layer_table(t: &Tally) -> String {
    let get = |k: &str| t.layers.get(k).copied().unwrap_or(0.0);
    let mut rows: Vec<(String, f64, f64)> = Role::ALL
        .iter()
        .map(|r| {
            (
                r.layer().to_string(),
                get(&format!("{}.cb_busy_s", r.layer())),
                get(&format!("{}.callbacks", r.layer())),
            )
        })
        .filter(|(_, _, n)| *n > 0.0)
        .collect();
    let cb: f64 = rows.iter().map(|r| r.1).sum();
    rows.push(("simnet (+ client, bench)".into(), t.measured - cb, 0.0));
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = format!(
        "{:<26} {:>10} {:>7} {:>11}\n",
        "layer", "self_s", "share", "callbacks"
    );
    for (name, s, n) in rows {
        out.push_str(&format!(
            "{name:<26} {s:>10.4} {:>6.1}% {n:>11}\n",
            ratio(s, t.measured) * 100.0
        ));
    }
    out.push_str(&format!(
        "{:<26} {:>10.4} {:>6.1}%\n",
        "measured wall", t.measured, 100.0
    ));
    out
}

/// The traced rounds as Chrome trace-event JSON: one process per round
/// for client ops (lane 0) and one per node, spans in host µs.
pub fn chrome(t: &Tally) -> String {
    let mut ct = ChromeTrace::new();
    let mut pid = 0u32;
    for (round, rt) in t.traces.iter().enumerate() {
        let client_pid = pid;
        ct.process_name(client_pid, &format!("round {round}: client ops"));
        let mut pids: BTreeMap<u32, u32> = BTreeMap::new();
        for (i, (node, role)) in rt.nodes.iter().enumerate() {
            pid += 1;
            pids.insert(i as u32, pid);
            ct.process_name(pid, &format!("round {round}: {node} ({})", role.layer()));
        }
        for s in &rt.spans {
            let cause = if s.op == 0 {
                "background".to_string()
            } else {
                format!("op{}", s.op)
            };
            let (p, cat) = match s.node {
                Some(n) => (pids[&n], rt.nodes[n as usize].1.layer()),
                None => (client_pid, "fs.client"),
            };
            ct.complete(
                p,
                0,
                s.name,
                cat,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                &[("parent", cause)],
            );
        }
        if rt.dropped > 0 {
            ct.instant(
                client_pid,
                0,
                "spans dropped",
                "trace",
                0.0,
                &[("count", rt.dropped.to_string())],
            );
        }
        pid += 1;
    }
    ct.render()
}
