//! `olgcheck` — static analysis and lint for Overlog programs.
//!
//! Runs the same checks the runtime applies at load time (plus the lint
//! suite) without executing anything, and renders spanned diagnostics.
//!
//! ```text
//! olgcheck [check|analyze] [--deny-warnings] [--graph]
//!          [--format text|json|github] [FILE.olg ... | GROUP ...]
//! ```
//!
//! With no arguments, every shipped program group is checked (`fs`,
//! `paxos`, `mr-*`, `core` — see `boom::shipped`). Arguments naming
//! existing files are read from disk and checked together as one program;
//! otherwise arguments select shipped groups by name. `--graph` prints
//! each group's table-precedence graph as DOT instead of diagnostics.
//!
//! The `analyze` subcommand renders the semantic passes on top of the
//! diagnostics: the monotonicity / CALM report with points of order, the
//! whole-program typed catalog, cardinality estimates, the per-view-rule
//! maintenance-strategy verdicts (how retractions propagate to each
//! view) and the per-rule kernel verdicts. Under `--format json` the
//! maintenance and kernel verdicts ride along as `"maintenance"` and
//! `"kernel"` arrays per group; under `--format github` each rule also
//! gets `::notice` annotations with its verdicts.
//!
//! Exit codes: `0` clean, `1` errors (or any finding under
//! `--deny-warnings`), `2` usage error, `3` warnings only.

use boom::overlog::analysis::{
    self, render, render_github, render_json, ProgramContext, SourceMap,
};
use boom::shipped;
use std::process::ExitCode;

const USAGE: &str = "usage: olgcheck [check|analyze] [--deny-warnings] [--graph]
                [--format text|json|github] [FILE.olg ... | GROUP ...]

  check            diagnostics only (the default)
  analyze          also render monotonicity (CALM), typed catalog,
                   cardinality, maintenance-strategy and kernel
                   reports per group
  --deny-warnings  treat warnings as errors (exit 1)
  --graph          print the table-precedence graph as DOT and exit
  --format FMT     diagnostic output: text (default), json, github
  -h, --help       this help

With no files or group names, checks every shipped program group.
Shipped groups: fs, paxos, mr-{fifo,locality}-{none,naive,late}, core.
Exit codes: 0 clean, 1 errors, 2 usage, 3 warnings only.
";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Github,
}

fn main() -> ExitCode {
    let mut deny_warnings = false;
    let mut graph = false;
    let mut semantic = false;
    let mut format = Format::Text;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    if let Some(first) = args.peek() {
        match first.as_str() {
            "check" => {
                args.next();
            }
            "analyze" => {
                semantic = true;
                args.next();
            }
            _ => {}
        }
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--graph" => graph = true,
            "--format" => {
                format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("github") => Format::Github,
                    other => {
                        eprintln!(
                            "olgcheck: --format expects text, json or github (got `{}`)\n{USAGE}",
                            other.unwrap_or("")
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("olgcheck: unknown flag `{arg}`\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => rest.push(arg),
        }
    }

    let file_mode = !rest.is_empty() && rest.iter().all(|a| std::path::Path::new(a).is_file());
    let groups: Vec<shipped::ShippedGroup> = if file_mode {
        let mut sources = Vec::new();
        for path in &rest {
            match std::fs::read_to_string(path) {
                Ok(text) => sources.push((path.clone(), text)),
                Err(e) => {
                    eprintln!("olgcheck: cannot read `{path}`: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        vec![shipped::ShippedGroup {
            name: rest.join(" "),
            sources,
            external: vec![],
            observed: vec![],
        }]
    } else {
        let all = shipped::groups();
        if rest.is_empty() {
            all
        } else {
            let mut picked = Vec::new();
            for want in &rest {
                let before = picked.len();
                picked.extend(
                    shipped::groups()
                        .into_iter()
                        .filter(|g| g.name == *want || g.name.starts_with(&format!("{want}-"))),
                );
                if picked.len() == before {
                    let names: Vec<String> = all.iter().map(|g| g.name.clone()).collect();
                    eprintln!(
                        "olgcheck: `{want}` is neither a file nor a shipped group \
                         (groups: {})",
                        names.join(", ")
                    );
                    return ExitCode::from(2);
                }
            }
            picked
        }
    };

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut json_groups: Vec<String> = Vec::new();
    for group in &groups {
        let (ctx, map) = group.context();
        if graph {
            if groups.len() > 1 {
                println!("// group: {}", group.name);
            }
            print!("{}", analysis::dot(&ctx));
            continue;
        }
        let (e, w) = report(&group.name, &ctx, &map, semantic, format, &mut json_groups);
        errors += e;
        warnings += w;
    }
    if format == Format::Json && !graph {
        println!("[{}]", json_groups.join(","));
    }
    if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else if warnings > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// Analyze one group, print its diagnostics (in the chosen format), the
/// semantic report if requested, and a one-line summary. Returns the
/// `(errors, warnings)` counts.
fn report(
    name: &str,
    ctx: &ProgramContext,
    map: &SourceMap,
    semantic: bool,
    format: Format,
    json_groups: &mut Vec<String>,
) -> (usize, usize) {
    let rep = analysis::report(ctx);
    let diags = &rep.diagnostics;
    match format {
        Format::Text => {
            for d in diags {
                eprintln!("{}", render(d, map));
            }
        }
        Format::Github => {
            for d in diags {
                println!("{}", render_github(d, map));
            }
        }
        Format::Json => {
            let semantic_json = if semantic {
                format!(
                    ",\"maintenance\":{},\"kernel\":{}",
                    analysis::maint::render_json(&rep.maint),
                    analysis::kernel::render_json(&rep.kernel)
                )
            } else {
                String::new()
            };
            json_groups.push(format!(
                "{{\"group\":\"{name}\",\"errors\":{},\"warnings\":{},\"diagnostics\":{}{semantic_json}}}",
                diags.iter().filter(|d| d.is_error()).count(),
                diags.iter().filter(|d| !d.is_error()).count(),
                render_json(diags, map)
            ));
        }
    }
    let errors = diags.iter().filter(|d| d.is_error()).count();
    let warnings = diags.len() - errors;
    if semantic && format == Format::Github {
        // One annotation per view rule with its maintenance verdicts, so
        // PRs show how retractions will propagate to each view they touch.
        for r in &rep.maint.rules {
            let (file, line, col) = map.resolve(r.span.start);
            let body = r
                .variants
                .iter()
                .map(|(d, v)| format!("delta {d}: {v}"))
                .collect::<Vec<_>>()
                .join("; ");
            println!(
                "::notice file={file},line={line},col={col},title=maintenance::view rule `{}`: {body}",
                r.label
            );
        }
        // And one per rule with its kernel verdicts, so PRs show which
        // rules run on the compiled fast path and which fall back.
        for r in &rep.kernel.rules {
            let (file, line, col) = map.resolve(r.span.start);
            let body = if r.variants.is_empty() {
                "skipped (failed error-level checks)".to_string()
            } else {
                r.variants
                    .iter()
                    .map(|(d, v)| format!("delta {d}: {v}"))
                    .collect::<Vec<_>>()
                    .join("; ")
            };
            println!(
                "::notice file={file},line={line},col={col},title=kernel::rule `{}`: {body}",
                r.label
            );
        }
    }
    if semantic && format != Format::Json {
        println!("== {name} ==");
        print!("{}", rep.render_semantic(map));
    }
    if format != Format::Json {
        let verdict = if errors > 0 { "FAIL" } else { "ok" };
        println!(
            "olgcheck: {name}: {verdict} ({} rule(s), {} table(s), {errors} error(s), \
             {warnings} warning(s))",
            ctx.rules.len(),
            ctx.decls.len(),
        );
    }
    (errors, warnings)
}
