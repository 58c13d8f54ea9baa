//! Guards on the verdict table (E1–E21): the committed JSON is complete
//! and passing, EXPERIMENTS.md is exactly its rendering, and the item table
//! is deterministic and panic-free on a reduced world — and on a campaign
//! so calm that every population it feeds is empty.

use ef_bench::paper::{self, Campaign, Verdict};
use ef_sim::{scenario, MetricsStore, SimConfig};
use ef_topology::generate;

fn committed() -> Vec<Verdict> {
    serde_json::from_str(include_str!("../../../results/paper_verdicts.json"))
        .expect("results/paper_verdicts.json parses")
}

#[test]
fn committed_verdicts_are_e1_to_e21_and_pass() {
    let verdicts = committed();
    let ids: Vec<&str> = verdicts.iter().map(|v| v.id.as_str()).collect();
    let expected: Vec<String> = (1..=21).map(|i| format!("E{i}")).collect();
    assert_eq!(ids, expected);
    for v in &verdicts {
        assert!(v.pass, "{} violates `{}`: {}", v.id, v.bound, v.measured);
    }
}

#[test]
fn experiments_md_is_rendered_from_the_committed_verdicts() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let block = paper::marked_block(doc).expect("EXPERIMENTS.md carries the exp_paper markers");
    assert_eq!(
        block,
        paper::render_markdown(&committed()),
        "re-run exp_paper to regenerate the verdict table"
    );
}

/// The 4-PoP world of the fault and health items, half an hour long: it
/// holds E16, E17 and E19 at their full size and duration.
fn reduced_world() -> SimConfig {
    scenario()
        .small_topology(7)
        .duration_secs(1800)
        .epoch_secs(60)
        .build()
}

#[test]
fn reduced_world_is_deterministic_and_never_panics() {
    // Most thresholds are tuned for the paper-scale worlds and not asserted
    // here; bounded recovery, refresh-instead-of-reset and health detection
    // run unclamped, so their bounds must hold.
    let first = paper::run(reduced_world()).0;
    assert_eq!(first.len(), 21);
    for v in first
        .iter()
        .filter(|v| ["E16", "E17", "E19"].contains(&v.id.as_str()))
    {
        assert!(v.pass, "{} violates `{}`: {}", v.id, v.bound, v.measured);
    }
    assert_eq!(first, paper::run(reduced_world()).0);
}

#[test]
fn empty_populations_fail_their_verdict_without_aborting_the_run() {
    // A campaign that recorded nothing (no overloads, no episodes, no
    // watched series): every item that reads it has an empty population.
    let cfg = reduced_world();
    let calm = Campaign {
        deployment: generate(&cfg.gen),
        cfg,
        baseline: MetricsStore::new(),
        edge_fabric: MetricsStore::new(),
    };
    let (verdicts, _) = paper::evaluate(&calm);
    assert_eq!(verdicts.len(), 21);
    let own_world = [
        "E1", "E2", "E10", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21",
    ];
    for v in &verdicts {
        let reads_campaign = !own_world.contains(&v.id.as_str());
        assert_eq!(v.measured == "no samples", reads_campaign, "{v:?}");
        assert!(!(reads_campaign && v.pass), "{v:?}");
    }
}
