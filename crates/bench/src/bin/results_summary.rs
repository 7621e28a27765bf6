//! Merge every `results/BENCH_*.json` into one trajectory table.
//!
//! Each full-scale experiment binary (`e10_engine`, `e14_maint`, …)
//! drops a machine-readable `results/BENCH_e{N}.json` next to its text
//! report, and `results/bench_stack.py` records the stack benchmark's
//! end-to-end medians per workload in `results/BENCH_stack.json`. This
//! bin stitches those files into a single GitHub-flavored
//! markdown table so CI can append the whole perf trajectory to
//! `$GITHUB_STEP_SUMMARY` in one step:
//!
//! ```sh
//! cargo run -q --release -p boom-bench --bin results_summary >> "$GITHUB_STEP_SUMMARY"
//! ```
//!
//! The JSON reader is a deliberately small hand-rolled parser (the
//! workspace carries no serde); it understands exactly the subset our
//! benchmarks emit — objects, arrays, strings, numbers, booleans — and
//! keeps object keys in file order so case labels render the way the
//! experiment wrote them. Experiments this bin does not know by name
//! still show up via a generic fallback (first column as the label, the
//! leading numeric fields as the headline), so a future `BENCH_e16.json`
//! appears in the table without touching this file.
//!
//! This bin is also the CI tripwire for the benchmark artifact set: it
//! exits non-zero when any file in [`REQUIRED`] is absent, when a file
//! fails to parse, or when a parsed document carries no `cases` array —
//! a silently missing or hollow trajectory row must fail the job, not
//! render as a blank line in the step summary.

use std::fmt::Write as _;
use std::process::ExitCode;

// ---------------------------------------------------------------------------
// Minimal JSON value + parser (objects keep insertion order).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render a scalar the way a human would write it in a table cell.
    fn cell(&self) -> String {
        match self {
            Json::Null => "-".into(),
            Json::Bool(b) => if *b { "yes" } else { "NO" }.into(),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => format!("{}", *n as i64),
            Json::Num(n) => format!("{n:.2}"),
            Json::Str(s) => s.clone(),
            Json::Arr(_) | Json::Obj(_) => "…".into(),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .s
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(&b) = self.s.get(self.pos) {
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .s
                        .get(self.pos)
                        .ok_or_else(|| "dangling escape".to_string())?;
                    self.pos += 1;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'u' => {
                            // Benchmarks never emit \u escapes; accept and
                            // substitute rather than failing the summary.
                            self.pos += 4;
                            '?'
                        }
                        other => other as char,
                    });
                }
                other => out.push(other as char),
            }
        }
        Err("unterminated string".into())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("bad array at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("bad object at byte {}", self.pos)),
            }
        }
    }
}

fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser::new(input);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Per-experiment shaping: which fields label a case, which are the headline.
// ---------------------------------------------------------------------------

/// (experiment, label fields, headline fields). Unknown experiments fall
/// back to the first field as label and the next few numerics as headline.
const SHAPES: &[(&str, &[&str], &[&str])] = &[
    (
        "e1_code_size",
        &["kind", "name"],
        &["rust_lines", "rules", "olg_lines"],
    ),
    (
        "e10_engine",
        &["workload", "mode"],
        &["tuples", "tuples_per_sec", "fingerprint_match"],
    ),
    (
        "e12_recovery",
        &["history", "checkpoint_every"],
        &["replayed_entries", "recovery_micros", "fingerprint_match"],
    ),
    (
        "e13_serve",
        &["subs"],
        &[
            "lat_p50_ms",
            "lat_p99_ms",
            "bytes_per_sub",
            "dropped",
            "mirror_matches",
        ],
    ),
    (
        "e14_maint",
        &["rows", "mode"],
        &[
            "tuples_per_sec",
            "maint_rounds",
            "view_recomputes",
            "fingerprint_match",
        ],
    ),
    (
        "stack",
        &["workload"],
        &[
            "ops_per_s",
            "op_p50_us",
            "setup_s",
            "peak_rss_mib",
            "samples",
            "commit",
        ],
    ),
];

fn shape_for(experiment: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    SHAPES
        .iter()
        .find(|(e, _, _)| *e == experiment)
        .map(|(_, l, h)| (*l, *h))
}

fn join_fields(case: &Json, fields: &[&str], sep: &str) -> String {
    fields
        .iter()
        .filter_map(|f| case.get(f).map(|v| v.cell()))
        .collect::<Vec<_>>()
        .join(sep)
}

fn headline(case: &Json, fields: &[&str]) -> String {
    fields
        .iter()
        .filter_map(|f| case.get(f).map(|v| format!("{f}={}", v.cell())))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Fallback shaping for experiments this bin does not know: first field
/// labels the case, the next few fields are the headline.
fn generic_row(case: &Json) -> (String, String) {
    let Json::Obj(pairs) = case else {
        return ("?".into(), case.cell());
    };
    let label = pairs
        .first()
        .map(|(k, v)| format!("{k}={}", v.cell()))
        .unwrap_or_else(|| "-".into());
    let head = pairs
        .iter()
        .skip(1)
        .take(4)
        .map(|(k, v)| format!("{k}={}", v.cell()))
        .collect::<Vec<_>>()
        .join(", ");
    (label, head)
}

/// Render the trajectory table. Returns the markdown plus the names of
/// documents with no `cases` array — hollow files the caller must turn
/// into a non-zero exit.
fn summarize(files: &[(String, Json)]) -> (String, Vec<String>) {
    let mut out = String::from("## Benchmark trajectory\n\n");
    let _ = writeln!(out, "| experiment | case | headline |");
    let _ = writeln!(out, "|---|---|---|");
    let mut total_cases = 0usize;
    let mut hollow = Vec::new();
    for (path, doc) in files {
        let experiment = doc
            .get("experiment")
            .and_then(Json::as_str)
            .unwrap_or(path)
            .to_string();
        let Some(Json::Arr(cases)) = doc.get("cases") else {
            let _ = writeln!(out, "| {experiment} | - | (no `cases` array) |");
            hollow.push(path.clone());
            continue;
        };
        for case in cases {
            total_cases += 1;
            let (label, head) = match shape_for(&experiment) {
                Some((lf, hf)) => (join_fields(case, lf, "/"), headline(case, hf)),
                None => generic_row(case),
            };
            let _ = writeln!(out, "| {experiment} | {label} | {head} |");
        }
    }
    let _ = writeln!(
        out,
        "\n{} experiment file(s), {} case(s).",
        files.len(),
        total_cases
    );
    (out, hollow)
}

/// Every full-scale experiment that commits a machine-readable result.
/// A missing member means a benchmark silently stopped publishing — the
/// summary must fail rather than shrink.
const REQUIRED: &[&str] = &[
    "BENCH_e1.json",
    "BENCH_stack.json",
    "BENCH_e10.json",
    "BENCH_e12.json",
    "BENCH_e13.json",
    "BENCH_e14.json",
];

fn main() -> ExitCode {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "results".into());
    let mut paths: Vec<std::path::PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => {
            eprintln!("results_summary: cannot read `{dir}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    paths.sort();
    if paths.is_empty() {
        eprintln!("results_summary: no BENCH_*.json under `{dir}`");
        return ExitCode::FAILURE;
    }
    let mut files = Vec::new();
    let mut bad = false;
    for p in &paths {
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        match std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|s| parse(&s))
        {
            Ok(doc) => files.push((name, doc)),
            Err(e) => {
                eprintln!("results_summary: skipping {name}: {e}");
                bad = true;
            }
        }
    }
    for req in REQUIRED {
        if !paths
            .iter()
            .any(|p| p.file_name().and_then(|n| n.to_str()) == Some(req))
        {
            eprintln!("results_summary: required artifact `{req}` missing from `{dir}`");
            bad = true;
        }
    }
    let (md, hollow) = summarize(&files);
    print!("{md}");
    for name in hollow {
        eprintln!("results_summary: `{name}` has no `cases` array");
        bad = true;
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_json_subset() {
        let doc = parse(
            r#"{"experiment":"e99_x","cases":[{"n":3,"rate":1.5,"ok":true,"tag":"a\"b"},{"n":4,"rate":-2e1,"ok":false,"nil":null}]}"#,
        )
        .unwrap();
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("e99_x"));
        let Some(Json::Arr(cases)) = doc.get("cases") else {
            panic!("cases missing");
        };
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].get("n"), Some(&Json::Num(3.0)));
        assert_eq!(cases[0].get("tag").unwrap().as_str(), Some("a\"b"));
        assert_eq!(cases[1].get("rate"), Some(&Json::Num(-20.0)));
        assert_eq!(cases[1].get("nil"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn known_experiment_uses_its_shape() {
        let doc = parse(
            r#"{"experiment":"e13_serve","cases":[{"subs":51200,"client_nodes":64,"lat_p50_ms":1,"lat_p99_ms":1,"bytes_per_sub":215.3,"dropped":0,"mirror_matches":9}]}"#,
        )
        .unwrap();
        let (md, hollow) = summarize(&[("BENCH_e13.json".into(), doc)]);
        assert!(md.contains("| e13_serve | 51200 | "));
        assert!(md.contains("lat_p99_ms=1"));
        assert!(md.contains("bytes_per_sub=215.30"));
        assert!(hollow.is_empty());
    }

    #[test]
    fn unknown_experiment_falls_back_generically() {
        let doc = parse(r#"{"experiment":"e16_new","cases":[{"knob":7,"speed":3.5,"ok":true}]}"#)
            .unwrap();
        let (md, hollow) = summarize(&[("BENCH_e16.json".into(), doc)]);
        assert!(md.contains("| e16_new | knob=7 | speed=3.50, ok=yes |"));
        assert!(hollow.is_empty());
    }

    #[test]
    fn e1_shape_labels_by_unit() {
        let doc = parse(
            r#"{"experiment":"e1_code_size","cases":[{"kind":"crate","name":"boom-overlog","rust_lines":9000},{"kind":"program","name":"fs/namenode.olg","rules":70,"olg_lines":189}]}"#,
        )
        .unwrap();
        let (md, hollow) = summarize(&[("BENCH_e1.json".into(), doc)]);
        assert!(md.contains("| e1_code_size | crate/boom-overlog | rust_lines=9000 |"));
        assert!(md.contains("| e1_code_size | program/fs/namenode.olg | rules=70, olg_lines=189 |"));
        assert!(hollow.is_empty());
    }

    #[test]
    fn stack_shape_shows_end_to_end_medians() {
        let doc = parse(
            r#"{"experiment":"stack","cases":[{"workload":"fs-meta","samples":10,"setup_s":0.41,"setup_s_q1":0.4,"setup_s_q3":0.42,"ops_per_s":18900,"op_p50_us":21.5,"peak_rss_mib":42.25,"commit":"abc1234","layers":{"simnet.self_s":0.1}}]}"#,
        )
        .unwrap();
        let (md, hollow) = summarize(&[("BENCH_stack.json".into(), doc)]);
        assert!(md.contains(
            "| stack | fs-meta | ops_per_s=18900, op_p50_us=21.50, setup_s=0.41, \
             peak_rss_mib=42.25, samples=10, commit=abc1234 |"
        ));
        assert!(hollow.is_empty());
    }

    #[test]
    fn hollow_document_is_reported_not_swallowed() {
        let doc = parse(r#"{"experiment":"e1_code_size","programs":[]}"#).unwrap();
        let (md, hollow) = summarize(&[("BENCH_e1.json".into(), doc)]);
        assert!(md.contains("(no `cases` array)"));
        assert_eq!(hollow, vec!["BENCH_e1.json".to_string()]);
    }
}
