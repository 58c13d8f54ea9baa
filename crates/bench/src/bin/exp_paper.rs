//! E1–E21 — the paper's own evaluation (Table 1, Figs. 2–12, Table 2) and
//! the extensions.
//!
//! One process: the shared one-day campaign runs once and stays in memory,
//! every item is evaluated over it (the extensions in worlds of their own),
//! and the verdicts land in `results/paper_verdicts.json` (committed) and
//! the marked table of EXPERIMENTS.md; per-item row dumps go to
//! `results/paper_series.json`. Exits non-zero if any asserted bound is
//! violated.

use ef_bench::{paper, write_json};

fn main() {
    let (verdicts, series) = paper::run(paper::campaign_config());

    println!("\nE1–E21 — paper vs. measured");
    for v in &verdicts {
        println!(
            "{:<4} {}  {}",
            v.id,
            if v.pass { "pass" } else { "FAIL" },
            v.measured
        );
    }
    write_json("paper_verdicts", &verdicts);
    write_json("paper_series", &series);
    paper::update_experiments_md(&verdicts);

    let failed = verdicts.iter().filter(|v| !v.pass).count();
    println!("{}/{} pass", verdicts.len() - failed, verdicts.len());
    if failed > 0 {
        std::process::exit(1);
    }
}
