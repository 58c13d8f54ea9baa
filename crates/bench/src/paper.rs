//! Every experiment — the paper's own evaluation (Table 1, Figs. 2–12,
//! Table 2: E1–E13) and the extensions E14–E21 — as one table-driven run.
//!
//! [`run`] simulates the shared one-day campaign once, in process (a coarse
//! probe to pick the interfaces worth a full time series, then the baseline
//! BGP arm and the Edge Fabric arm on the same deployment), and evaluates
//! the table in `items` over it; items that need a world of their own build
//! it with `Campaign::sub_world`. Every item yields one [`Verdict`] whose
//! `bound` lists the thresholds the reproduction asserts;
//! [`render_markdown`] turns the verdicts into the verdict table of
//! EXPERIMENTS.md, so the document is generated from the same numbers the
//! bounds were checked on.

use serde::{Deserialize, Serialize, Value};

use ef_bgp::route::EgressId;
use ef_sim::{scenario, MetricsStore, ScenarioBuilder, SimConfig};
use ef_topology::{generate, Deployment, GenConfig};

use crate::output::workspace_root;

mod extensions;
mod items;

/// One row of the paper-vs-measured table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Experiment id, `E1`…`E21`.
    pub id: String,
    /// The table, figure or section of the paper the row reproduces.
    pub paper_item: String,
    /// The shape the paper reports.
    pub target: String,
    /// What this run measured.
    pub measured: String,
    /// The asserted thresholds, `; `-separated; all must hold.
    pub bound: String,
    /// Whether every bound held.
    pub pass: bool,
}

/// The per-figure row dumps (CDF points, per-PoP rows, per-arm results),
/// keyed by item id.
pub struct Series(Vec<(&'static str, Value)>);

impl Serialize for Series {
    fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(id, rows)| (id.to_string(), rows.clone()))
                .collect(),
        )
    }
}

/// The shared campaign: one deployment, both arms' metrics in memory.
pub struct Campaign {
    /// The scenario both arms share (the Edge Fabric arm's config).
    pub cfg: SimConfig,
    /// The generated deployment.
    pub deployment: Deployment,
    /// BGP alone: controller disabled, overloads land where BGP puts them.
    pub baseline: MetricsStore,
    /// Edge Fabric enabled.
    pub edge_fabric: MetricsStore,
}

/// The paper-scale scenario: the default 20-PoP deployment, one simulated
/// day of 30-second epochs, production-like sampled rates.
pub fn campaign_config() -> SimConfig {
    scenario()
        .hours(24)
        .epoch_secs(30)
        .telemetry(crate::output::telemetry_from_env())
        .build()
}

impl Campaign {
    /// Runs the probe and both arms of `cfg`.
    pub fn run(cfg: SimConfig) -> Campaign {
        let deployment = generate(&cfg.gen);
        eprintln!("[campaign] probing for the busiest interfaces (coarse baseline run)...");
        let start = std::time::Instant::now();
        let mut probe = ScenarioBuilder::from_config(cfg.clone())
            .baseline()
            .epoch_secs(300) // coarse: 288 epochs over the day
            .exact_rates()
            .engine_with(deployment.clone());
        probe.run();
        let watched: Vec<EgressId> = probe
            .take_metrics()
            .worst_interfaces()
            .iter()
            .take(10)
            .map(|s| EgressId(s.egress))
            .collect();
        eprintln!("[campaign] probe finished in {:?}", start.elapsed());

        let arm = |label: &str, cfg: SimConfig| {
            eprintln!(
                "[campaign] running {label} arm: {} epochs of {}s over {} PoPs...",
                cfg.epochs(),
                cfg.epoch_secs,
                cfg.gen.n_pops
            );
            let mut engine = ScenarioBuilder::from_config(cfg).engine_with(deployment.clone());
            for egress in &watched {
                engine.flag_interface(*egress);
            }
            let start = std::time::Instant::now();
            engine.run();
            eprintln!("[campaign] {label} arm finished in {:?}", start.elapsed());
            assert!(engine.all_sessions_up(), "sessions survived the day");
            engine.take_metrics()
        };
        let baseline = arm("baseline", cfg.clone().baseline());
        let edge_fabric = arm("edge fabric", cfg.clone());
        Campaign {
            cfg,
            deployment,
            baseline,
            edge_fabric,
        }
    }

    /// The world of an item that runs its own scenario: `size`,
    /// `duration_secs` long, in epochs of `epoch_secs` (the campaign's when
    /// `None`), with the campaign's telemetry attached. The shape is
    /// clamped so it never exceeds the campaign's world nor runs more
    /// epochs than the campaign; at paper scale the clamp is the identity.
    fn sub_world(&self, size: Size, duration_secs: u64, epoch_secs: Option<u64>) -> SubWorld {
        let gen = &self.cfg.gen;
        let (n_pops, n_ases, n_prefixes, total_avg_gbps) = size;
        let epoch_secs = epoch_secs.unwrap_or(self.cfg.epoch_secs);
        let epochs = (duration_secs / epoch_secs).min(self.cfg.epochs());
        let cfg = scenario()
            .topology(GenConfig {
                n_pops: n_pops.min(gen.n_pops),
                n_ases: n_ases.min(gen.n_ases),
                n_prefixes: n_prefixes.min(gen.n_prefixes),
                total_avg_gbps: total_avg_gbps.min(gen.total_avg_gbps),
                ..gen.clone()
            })
            .duration_secs(epochs * epoch_secs)
            .epoch_secs(epoch_secs)
            .telemetry(self.cfg.telemetry.clone())
            .build();
        SubWorld {
            cfg,
            requested_secs: duration_secs,
        }
    }
}

/// A world's size: (PoPs, eyeball ASes, prefixes, average demand in Gbps).
type Size = (usize, usize, usize, f64);

/// An item's own world (see [`Campaign::sub_world`]).
struct SubWorld {
    /// The clamped scenario.
    cfg: SimConfig,
    /// The duration the item asked for, before the clamp.
    requested_secs: u64,
}

impl SubWorld {
    /// A builder to derive the item's arms from.
    fn builder(&self) -> ScenarioBuilder {
        ScenarioBuilder::from_config(self.cfg.clone())
    }

    /// A time written against the requested duration, scaled to the
    /// clamped one (unchanged when nothing was clamped).
    fn at(&self, secs: u64) -> u64 {
        secs * self.cfg.duration_secs / self.requested_secs
    }
}

/// What one item measured. `None` from an item means the population it
/// measures was empty (a small or calm world: no overloads, no episodes).
struct ItemResult {
    measured: String,
    /// `(threshold as written, held?)`.
    bounds: Vec<(&'static str, bool)>,
    series: Value,
}

/// One paper item: what it reproduces and how to evaluate it.
struct Item {
    id: &'static str,
    paper_item: &'static str,
    target: &'static str,
    eval: fn(&Campaign) -> Option<ItemResult>,
}

/// Runs the campaign for `cfg` and evaluates every item over it. The
/// paper-scale run passes [`campaign_config`]; tests pass a reduced world.
pub fn run(cfg: SimConfig) -> (Vec<Verdict>, Series) {
    evaluate(&Campaign::run(cfg))
}

/// Evaluates every item over `campaign`, in table order.
pub fn evaluate(campaign: &Campaign) -> (Vec<Verdict>, Series) {
    let mut series = Vec::new();
    let verdicts = items::ITEMS
        .iter()
        .map(|item| {
            eprintln!("[{}] {}...", item.id, item.paper_item);
            let start = std::time::Instant::now();
            let result = (item.eval)(campaign).unwrap_or_else(|| ItemResult {
                measured: "no samples".to_string(),
                bounds: vec![("a non-empty sample", false)],
                series: Value::Null,
            });
            eprintln!("[{}] finished in {:?}", item.id, start.elapsed());
            for (text, _) in result.bounds.iter().filter(|(_, held)| !held) {
                eprintln!("[{}] bound violated: {text}", item.id);
            }
            series.push((item.id, result.series));
            let texts: Vec<&str> = result.bounds.iter().map(|(text, _)| *text).collect();
            Verdict {
                id: item.id.to_string(),
                paper_item: item.paper_item.to_string(),
                target: item.target.to_string(),
                measured: result.measured,
                bound: texts.join("; "),
                pass: result.bounds.iter().all(|(_, held)| *held),
            }
        })
        .collect();
    (verdicts, Series(series))
}

// --- EXPERIMENTS.md -------------------------------------------------------

const BEGIN_MARK: &str =
    "<!-- BEGIN exp_paper verdicts: generated from results/paper_verdicts.json, do not edit -->\n";
const END_MARK: &str = "<!-- END exp_paper verdicts -->";

/// The verdict table of EXPERIMENTS.md: everything between the two marker
/// comments, blank lines included.
pub fn render_markdown(verdicts: &[Verdict]) -> String {
    let mut out = String::from(
        "\n| Exp | Paper item | Paper shape (target) | Measured (seed 7 campaign) | Asserted bound (all must hold) | Verdict |\n|---|---|---|---|---|---|\n",
    );
    for v in verdicts {
        out.push_str(&format!(
            "| {} | {} | {} | {} | `{}` | {} |\n",
            v.id,
            v.paper_item,
            v.target,
            v.measured,
            v.bound,
            if v.pass {
                "✅ shape"
            } else {
                "❌ bound violated"
            }
        ));
    }
    out.push('\n');
    out
}

/// Byte range of the marked block of `doc` (between the marker lines).
fn marked_range(doc: &str) -> Option<std::ops::Range<usize>> {
    let start = doc.find(BEGIN_MARK)? + BEGIN_MARK.len();
    let end = start + doc[start..].find(END_MARK)?;
    Some(start..end)
}

/// The marked block of an EXPERIMENTS.md text, if it has one.
pub fn marked_block(doc: &str) -> Option<&str> {
    marked_range(doc).map(|range| &doc[range])
}

/// Re-renders the marked block of the workspace's EXPERIMENTS.md.
pub fn update_experiments_md(verdicts: &[Verdict]) {
    let path = workspace_root().join("EXPERIMENTS.md");
    let mut doc = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let range = marked_range(&doc).expect("EXPERIMENTS.md carries the exp_paper markers");
    doc.replace_range(range, &render_markdown(verdicts));
    std::fs::write(&path, doc).expect("write EXPERIMENTS.md");
    println!("[rendered {}]", path.display());
}
