//! # boom-trace — provenance, profiling & metrics for the BOOM stack
//!
//! The paper's *monitoring revision* argues that because all system state
//! is relational, observability can be **metaprogrammed**: given any
//! Overlog program, the rules that trace it are themselves generated as
//! Overlog. This crate cashes that claim in four pillars:
//!
//! * [`meta`] — generate the watch/rowcount monitoring program for any
//!   loaded runtime, so tracing fs/mr/paxos/core is one call;
//! * [`provenance`] — reconstruct *why* a tuple exists as a derivation
//!   tree, from the runtime's first-witness `(rule, inputs) → head`
//!   records;
//! * [`profile`] — per-rule firing counts, join fanout, delta sizes and
//!   evaluation time, rolled up into a top-K hot-rules report;
//! * [`metrics`] + [`chrome`] — one metrics registry shared by
//!   simnet/fs/mr/paxos/bench, exported as JSON and as Chrome
//!   trace-event JSON (open in `about:tracing` or Perfetto).
//!
//! The crate depends only on `boom-overlog`; the simulator and system
//! crates feed it, the `boomtrace` CLI drives it.

pub mod chrome;
pub mod meta;
pub mod metrics;
pub mod profile;
pub mod provenance;

pub use chrome::{ChromeRecorder, ChromeTrace};
pub use meta::{generate_monitor, install_monitor, uninstall_monitor, MonitorSpec};
pub use metrics::{print_series, Registry, Samples};
pub use profile::{collect_rule_profile, render_hot_rules, ProfileRow};
pub use provenance::{render_tuple, DerivationNode, ProvStore};

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON number (finite values only; NaN/±inf become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_num_guards_non_finite() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(f64::INFINITY), "0");
    }
}
