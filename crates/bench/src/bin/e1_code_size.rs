//! E1 — the code-size table (paper: "HDFS ≈ 21,700 lines of Java vs
//! BOOM-FS ≈ 85 rules / 469 lines of Overlog + ~1,400 lines of Java";
//! Paxos ≈ 302 Overlog lines). Prints our table computed with the same
//! counting method (non-blank, non-comment lines; tests excluded), and
//! writes the per-crate, per-module and per-program counts to
//! `results/BENCH_e1.json` (run from the repository root).

use boom_bench::locs::{render_size_table, size_json, size_table};

fn main() {
    println!("E1: code size (declarative vs imperative)\n");
    let rows = size_table();
    print!("{}", render_size_table(&rows));

    let nn = &rows[0];
    let fs_rust: usize = rows
        .iter()
        .filter(|r| r.system.contains("data plane"))
        .map(|r| r.rust_lines)
        .sum();
    println!(
        "\nBOOM-FS control plane: {} rules / {} Overlog lines (paper: 85 / 469)",
        nn.olg_rules, nn.olg_lines
    );
    println!("BOOM-FS imperative data plane + client: {fs_rust} Rust lines (paper: ~1,431 Java)",);
    let px = rows.iter().find(|r| r.system.starts_with("Paxos")).unwrap();
    println!(
        "Paxos: {} rules / {} Overlog lines (paper: ~302 lines)",
        px.olg_rules, px.olg_lines
    );
    let late = rows.iter().find(|r| r.system.starts_with("LATE")).unwrap();
    println!(
        "LATE policy: {} rules / {} lines (paper: a handful of rules)",
        late.olg_rules, late.olg_lines
    );
    match std::fs::write("results/BENCH_e1.json", size_json()) {
        Ok(()) => eprintln!("E1: wrote results/BENCH_e1.json"),
        Err(e) => {
            eprintln!("E1: could not write results/BENCH_e1.json: {e}");
            std::process::exit(1);
        }
    }
}
