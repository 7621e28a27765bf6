//! # boom-overlog — an Overlog runtime in Rust
//!
//! A from-scratch implementation of the Overlog language and its runtime,
//! equivalent in role to **JOL** (the Java Overlog Library) used by *Boom
//! Analytics: Exploring Data-Centric, Declarative Programming for the Cloud*
//! (Alvaro et al., EuroSys 2010). All of BOOM-FS's NameNode metadata logic,
//! BOOM-MR's scheduling policies, and the Paxos availability revision in
//! this repository are Overlog programs executed by this crate.
//!
//! ## Language subset
//!
//! * `define(name, keys(..), {types});` — materialized tables with
//!   primary-key overwrite semantics
//! * `event name, {types};` — ephemeral tables whose tuples live one tick
//! * facts, deductive rules, `delete` rules, `notin` negation
//! * head aggregates: `count<X>` / `count<*>` / `sum` / `min` / `max` / `avg`
//! * expressions, `X := expr` assignments, builtin function calls
//! * `@Col` location specifiers — tuples derived with a remote address are
//!   returned from [`OverlogRuntime::tick`] as [`NetTuple`]s for the host to
//!   deliver
//! * `timer(name, ms);` periodic event streams, `watch(table);` tracing
//!
//! ## Quick example
//!
//! ```
//! use boom_overlog::OverlogRuntime;
//!
//! let mut rt = OverlogRuntime::new("node1");
//! rt.load(
//!     "define(link, keys(0,1), {Str, Str});
//!      define(path, keys(0,1), {Str, Str});
//!      path(X, Y) :- link(X, Y);
//!      path(X, Z) :- link(X, Y), path(Y, Z);
//!      link(\"a\", \"b\");
//!      link(\"b\", \"c\");",
//! ).unwrap();
//! rt.tick(0).unwrap();
//! assert_eq!(rt.count("path"), 3); // a→b, b→c, a→c
//! ```

pub mod analysis;
pub mod ast;
pub mod builtins;
pub mod error;
pub mod fx;
pub mod ids;
pub mod kernel;
pub mod parser;
pub mod plan;
pub mod runtime;
pub mod table;
pub mod value;

pub use analysis::{Diagnostic, Severity, SourceMap};
pub use ast::{Program, Rule, Span, Statement, TableDecl, TableKind};
pub use builtins::{stable_hash, Builtins};
pub use error::{OverlogError, Result};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{IdSet, TableId, TableIds};
pub use parser::parse_program;
pub use plan::PlanOptions;
pub use runtime::{
    is_observation_table, CommitOp, CommitRecord, EvalStats, NetTuple, OverlogRuntime, ProvRecord,
    RuleStats, RuntimeSnapshot, TapRecord, TickResult, TraceDrain, TraceEvent, TraceOp,
    OBSERVATION_PREFIXES,
};
pub use table::{Candidates, InsertOutcome, Table};
pub use value::{row, Row, TypeTag, Value};

/// Count the rules and non-blank, non-comment source lines of an Overlog
/// program — the unit the paper's code-size table (experiment E1) reports.
pub fn source_stats(src: &str) -> (usize, usize) {
    let lines = src
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count();
    let rules = parse_program(src).map(|p| p.rules().count()).unwrap_or(0);
    (rules, lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_stats_counts_rules_and_lines() {
        let src = "// comment\n\ndefine(t, keys(0), {Int});\nt(1);\nt(X) :- t(X);\n";
        let (rules, lines) = source_stats(src);
        assert_eq!(rules, 1);
        assert_eq!(lines, 3);
    }
}
