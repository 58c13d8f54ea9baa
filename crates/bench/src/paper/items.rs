//! The verdict table — the paper's thirteen items and the eight extensions
//! — and the paper's items: what each measures over the [`Campaign`] (or
//! its own smaller world) and the bounds it asserts.

use std::collections::{BTreeMap, HashMap};

use serde::{Serialize, Value};

use ef_bgp::route::EgressId;
use ef_perf::compare::{compare_paths, summarize};
use ef_perf::rtt::{PathPerfModel, PerfConfig};
use ef_perf::AltPathMeasurer;
use ef_sim::runtime::PopRuntime;
use ef_sim::{
    scenario, InterfaceStats, MetricsStore, PerfSimConfig, PopEpochRecord, ScenarioBuilder,
    SimEngine,
};
use ef_topology::{generate, pop_summaries, route_diversity, Deployment, PopId};
use ef_traffic::demand::DemandPoint;

use super::{extensions, Campaign, Item, ItemResult};
use crate::output::{cdf_points, percentile};

/// Every item, in table order.
pub(super) const ITEMS: [Item; 21] = [
    Item {
        id: "E1",
        paper_item: "Table 1 — PoP interconnectivity",
        target: "~20 PoPs, 2–4 PRs each, transit + PNI + IXP + route-server mix, heavy-tailed peer counts",
        eval: e1_pops,
    },
    Item {
        id: "E2",
        paper_item: "Fig. 2 — route diversity (traffic-weighted)",
        target: "≥95 % of traffic has ≥2 routes at ~every PoP; most traffic has ≥4 routes at most PoPs",
        eval: e2_route_diversity,
    },
    Item {
        id: "E3",
        paper_item: "Fig. 3 — load BGP alone would place on interfaces",
        target: "a minority of interfaces exceed capacity during peaks, worst ~2×",
        eval: e3_unmitigated_load,
    },
    Item {
        id: "E4",
        paper_item: "Fig. 4 — overload duration absent EF",
        target: "overloaded interfaces stay overloaded for hours per day",
        eval: e4_overload_hours,
    },
    Item {
        id: "E5",
        paper_item: "§5 headline — EF prevents overload",
        target: "with EF no sustained overload; drops collapse",
        eval: e5_ef_vs_baseline,
    },
    Item {
        id: "E6",
        paper_item: "detour volume",
        target: "median PoP detours a small share, single-digit % at peak",
        eval: e6_detour_volume,
    },
    Item {
        id: "E7",
        paper_item: "where detours go",
        target: "most detoured traffic egresses via transit",
        eval: e7_detour_destination,
    },
    Item {
        id: "E8",
        paper_item: "detour episode durations",
        target: "heavy-tailed: many single-cycle, tail rides the whole peak",
        eval: e8_detour_durations,
    },
    Item {
        id: "E9",
        paper_item: "§4.4 — override churn",
        target: "stateless recompute yet low BGP churn; steady state quiet; withdraw hysteresis cuts churn",
        eval: e9_override_churn,
    },
    Item {
        id: "E10",
        paper_item: "§6.1 — alternate-path performance",
        target: "preferred ≈ best alternate for most prefixes; ~5 % have an alternate ≥20 ms faster; some alternates much worse",
        eval: e10_altpath_rtt,
    },
    Item {
        id: "E11",
        paper_item: "§6 — performance under congestion",
        target: "without EF the hot path inflates RTT and drops all peak; with EF flat",
        eval: e11_congestion_rtt,
    },
    Item {
        id: "E12",
        paper_item: "Table 2 — reaction time",
        target: "overload mitigated within 1–2 cycles of onset",
        eval: e12_reaction,
    },
    Item {
        id: "E13",
        paper_item: "§6.2 — performance-aware steering",
        target: "the ≥20 ms tail moves to its faster alternate, no new congestion",
        eval: e13_perf_aware,
    },
    Item {
        id: "E14",
        paper_item: "§7 future work — global user→PoP shifting",
        target: "a PoP whose total egress is below its peak demand cannot be saved by per-PoP EF; shifting users to sibling PoPs must engage and at least halve its drops",
        eval: extensions::e14_global_shift,
    },
    Item {
        id: "E15",
        paper_item: "§4.4 — fail-static under injected faults",
        target: "sudden capacity loss mitigated within 2 epochs; a stalled BMP feed never grows the override set and fail-open empties it; controller crash and injector loss revert to plain BGP; overrides return to the fault-free state; same-seed reruns byte-identical",
        eval: extensions::e15_fault_matrix,
    },
    Item {
        id: "E16",
        paper_item: "§4.4 / RFC 7606 — bounded recovery",
        target: "after a fault clears, the faulted PoP is back on the fault-free reference (override count, detoured and dropped volume, interface loads) within 2 epochs for input faults and 3 for crash and session faults; every session re-established; reruns byte-identical",
        eval: extensions::e16_recovery,
    },
    Item {
        id: "E17",
        paper_item: "RFC 2918 / RFC 7313 — refresh instead of reset",
        target: "a treat-as-withdraw burst heals in place over a governed ROUTE-REFRESH within 1 epoch of the window clearing, partial injection loss within 2, both with zero session resets; reruns byte-identical",
        eval: extensions::e17_refresh,
    },
    Item {
        id: "E18",
        paper_item: "§7 future work — DNS vs. anycast steering",
        target: "under a regional blackout plus flash crowd both mechanisms cut total drops ≥10× vs. per-PoP EF alone; anycast's whole-population cutover drains the victim faster than TTL-paced DNS",
        eval: extensions::e18_global_steering,
    },
    Item {
        id: "E19",
        paper_item: "§4.4 — external health detection",
        target: "every injectable fault kind raises an expected alert at the faulted PoP within 2 epochs of onset; a calm run raises none; results identical with the health tier on or off",
        eval: extensions::e19_health_detection,
    },
    Item {
        id: "E20",
        paper_item: "§5 fail-safe at the global layer — split-brain-safe steering",
        target: "when the tier's own inputs break it degrades, never amplifies: each global fault's guard engages within 1 epoch, placements drain within ceil(1/decay) + TTL + hold-down + 2 epochs of the incident's end, and no guarded arm drops more than EF alone",
        eval: extensions::e20_global_faults,
    },
    Item {
        id: "E21",
        paper_item: "interconnection economics (cf. Paid Peering, Settlement-Free Peering, or Both?) — 95/5 billing",
        target: "over a compressed billing month with the incumbent transit priced highest, cost-aware EF saves ≥15 % of transit spend at no higher drop rate; de-peering costs both arms a premium, the cost-aware arm less; an IXP fabric squeeze stays survivable; the top 5 % of 5-minute samples bill free",
        eval: extensions::e21_cost_billing,
    },
];

// --- shared measurements --------------------------------------------------

/// [`percentile`], or `None` for an empty population.
fn pct(values: &[f64], p: f64) -> Option<f64> {
    (!values.is_empty()).then(|| percentile(values, p))
}

/// Interfaces of peering kinds (the capacity-constrained ones), by egress.
fn peering(metrics: &MetricsStore) -> Vec<&InterfaceStats> {
    let mut v: Vec<&InterfaceStats> = metrics
        .interfaces
        .values()
        .filter(|s| s.kind == "private" || s.kind == "public" || s.kind == "route-server")
        .collect();
    v.sort_by_key(|s| s.egress);
    v
}

fn ever_over_capacity(metrics: &MetricsStore) -> usize {
    peering(metrics)
        .iter()
        .filter(|s| s.epochs_over_capacity > 0)
        .count()
}

/// Fraction of offered traffic dropped over the run.
fn drop_fraction(metrics: &MetricsStore) -> f64 {
    let offered: f64 = metrics.pop_epochs.iter().map(|r| r.offered_mbps).sum();
    let dropped: f64 = metrics.pop_epochs.iter().map(|r| r.dropped_mbps).sum();
    dropped / offered
}

/// Longest run of consecutive over-capacity epochs per watched interface,
/// from the recorded series.
fn longest_overloads(metrics: &MetricsStore) -> BTreeMap<EgressId, usize> {
    metrics
        .series
        .iter()
        .filter_map(|(egress, series)| {
            let cap = metrics.interfaces.get(egress)?.capacity_mbps;
            let mut best = 0usize;
            let mut run = 0usize;
            for (_, load) in series {
                if *load > cap {
                    run += 1;
                    best = best.max(run);
                } else {
                    run = 0;
                }
            }
            Some((*egress, best))
        })
        .collect()
}

fn updates(r: &PopEpochRecord) -> f64 {
    (r.churn_announced + r.churn_withdrawn) as f64
}

fn detour_frac(r: &PopEpochRecord) -> f64 {
    r.detoured_mbps / r.offered_mbps.max(1.0)
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len() as f64;
    values.sum::<f64>() / n
}

/// Where each measured prefix egresses right now, per the PoP's live FIB.
fn fib_preferred(
    engine: &SimEngine,
    pop: &PopRuntime,
    measurer: &AltPathMeasurer,
) -> HashMap<u32, EgressId> {
    measurer
        .report()
        .iter()
        .filter_map(|d| {
            let prefix = engine.prefix_of(d.key.prefix_idx);
            pop.router
                .fib_entry(&prefix)
                .map(|e| (d.key.prefix_idx, e.egress))
        })
        .collect()
}

// --- the items ------------------------------------------------------------

fn e1_pops(c: &Campaign) -> Option<ItemResult> {
    let rows = pop_summaries(&c.deployment);
    let range = |f: fn(&ef_topology::PopSummary) -> usize| {
        let min = rows.iter().map(f).min().unwrap_or(0);
        (min, rows.iter().map(f).max().unwrap_or(0))
    };
    let (min_routers, max_routers) = range(|r| r.routers);
    let (min_transit, max_transit) = range(|r| r.transit_peers);
    let (min_private, max_private) = range(|r| r.private_peers);
    let adjacencies: usize = rows
        .iter()
        .map(|r| r.transit_peers + r.private_peers + r.public_peers + r.route_server_peers)
        .sum();
    Some(ItemResult {
        measured: format!(
            "{} PoPs, {min_routers}–{max_routers} PRs each, {adjacencies} adjacencies, {} interfaces, \
             {} prefixes / {} eyeball ASes; per PoP {min_transit}–{max_transit} transit sessions \
             and {min_private}–{max_private} PNIs plus public and route-server peers",
            rows.len(),
            c.deployment.interface_count(),
            c.deployment.universe.prefixes.len(),
            c.deployment.universe.ases.len(),
        ),
        bounds: vec![
            (
                "min_routers >= 2 && max_routers <= 4",
                min_routers >= 2 && max_routers <= 4,
            ),
            ("min_transit_peers >= 2", min_transit >= 2),
            ("max_private_peers >= 10", max_private >= 10),
        ],
        series: rows.to_value(),
    })
}

fn e2_route_diversity(c: &Campaign) -> Option<ItemResult> {
    let rows = route_diversity(&c.deployment);
    let pops = rows.len();
    let pops_ge2_95 = rows.iter().filter(|d| d.frac_traffic_ge[1] >= 0.95).count();
    let mut ge4: Vec<f64> = rows.iter().map(|d| d.frac_traffic_ge[3]).collect();
    ge4.sort_by(|a, b| a.total_cmp(b));
    let median_ge4 = *ge4.get(pops / 2)?;
    Some(ItemResult {
        measured: format!(
            "≥2 routes for ≥95 % of traffic at {pops_ge2_95}/{pops} PoPs; ≥4 routes for {:.1} % \
             of traffic at the median PoP",
            median_ge4 * 100.0
        ),
        bounds: vec![
            ("pops_ge2_95 * 10 >= pops * 9", pops_ge2_95 * 10 >= pops * 9),
            ("median_ge4 > 0.5", median_ge4 > 0.5),
        ],
        series: rows.to_value(),
    })
}

fn e3_unmitigated_load(c: &Campaign) -> Option<ItemResult> {
    // Reconstruct the utilization sample distribution over all peering
    // interfaces from their histograms.
    let ifaces = peering(&c.baseline);
    let mut samples: Vec<f64> = Vec::new();
    let mut over = 0usize;
    for stats in &ifaces {
        for (bucket, count) in stats.util_histogram.iter().enumerate() {
            let util = (bucket as f64 + 0.5) / 50.0;
            samples.resize(samples.len() + *count as usize, util);
            if util > 1.0 {
                over += *count as usize;
            }
        }
    }
    if samples.is_empty() {
        return None;
    }
    let ever_over = ever_over_capacity(&c.baseline);
    let n_peering = ifaces.len();
    let worst_peak_util = ifaces.iter().map(|s| s.peak_util).fold(0.0f64, f64::max);
    Some(ItemResult {
        measured: format!(
            "{ever_over} / {n_peering} peering interfaces ({:.0} %) would exceed capacity; worst \
             peak {:.0} %; {:.1} % of interface-epochs over capacity",
            100.0 * ever_over as f64 / n_peering as f64,
            worst_peak_util * 100.0,
            100.0 * over as f64 / samples.len() as f64
        ),
        bounds: vec![
            ("ever_over > 0", ever_over > 0),
            (
                "ever_over < 0.5 * n_peering",
                (ever_over as f64) < 0.5 * n_peering as f64,
            ),
            ("worst_peak_util > 1.4", worst_peak_util > 1.4),
        ],
        series: cdf_points(&samples, 40).to_value(),
    })
}

#[derive(Serialize)]
struct OverloadRow {
    egress: u32,
    pop: u16,
    kind: String,
    capacity_mbps: f64,
    overload_hours_per_day: f64,
    peak_util: f64,
}

fn e4_overload_hours(c: &Campaign) -> Option<ItemResult> {
    let mut rows: Vec<OverloadRow> = peering(&c.baseline)
        .into_iter()
        .filter(|s| s.epochs_over_capacity > 0)
        .map(|s| OverloadRow {
            egress: s.egress,
            pop: s.pop,
            kind: s.kind.clone(),
            capacity_mbps: s.capacity_mbps,
            overload_hours_per_day: s.overload_hours_per_day(c.cfg.epoch_secs),
            peak_util: s.peak_util,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.overload_hours_per_day
            .total_cmp(&a.overload_hours_per_day)
    });
    let hours: Vec<f64> = rows.iter().map(|r| r.overload_hours_per_day).collect();
    let hours_p90 = pct(&hours, 90.0)?;
    Some(ItemResult {
        measured: format!(
            "of the {} interfaces that overload: median {:.1} h/day over capacity, p90 {:.1} h, \
             max {:.1} h (the whole regional peak)",
            rows.len(),
            pct(&hours, 50.0)?,
            hours_p90,
            pct(&hours, 100.0)?
        ),
        bounds: vec![("hours_p90 > 2.0", hours_p90 > 2.0)],
        series: rows.to_value(),
    })
}

fn e5_ef_vs_baseline(c: &Campaign) -> Option<ItemResult> {
    let base_frac = drop_fraction(&c.baseline);
    let ef_frac = drop_fraction(&c.edge_fabric);
    // Sustained overload: longest consecutive over-capacity run on the
    // watched (worst) interfaces.
    let base_max_run = longest_overloads(&c.baseline).into_values().max()?;
    let ef_max_run = longest_overloads(&c.edge_fabric).into_values().max()?;
    Some(ItemResult {
        measured: format!(
            "drops {:.4} % → {:.4} % of offered ({:.0}×); max consecutive over-capacity epochs \
             {base_max_run} → {ef_max_run} (single-epoch reaction transients); peering \
             interfaces ever over capacity {} → {}",
            base_frac * 100.0,
            ef_frac * 100.0,
            base_frac / ef_frac.max(1e-12),
            ever_over_capacity(&c.baseline),
            ever_over_capacity(&c.edge_fabric),
        ),
        bounds: vec![
            (
                "base_frac > 5.0 * ef_frac.max(1e-12)",
                base_frac > 5.0 * ef_frac.max(1e-12),
            ),
            (
                "ef_max_run <= 4 && base_max_run >= 10",
                ef_max_run <= 4 && base_max_run >= 10,
            ),
        ],
        series: Value::Null,
    })
}

#[derive(Serialize)]
struct DetourRow {
    pop: u16,
    mean_detour_frac: f64,
    peak_detour_frac: f64,
    peak_overrides: usize,
}

fn e6_detour_volume(c: &Campaign) -> Option<ItemResult> {
    let mut by_pop: BTreeMap<u16, Vec<&PopEpochRecord>> = BTreeMap::new();
    for r in &c.edge_fabric.pop_epochs {
        by_pop.entry(r.pop).or_default().push(r);
    }
    let rows: Vec<DetourRow> = by_pop
        .iter()
        .map(|(pop, records)| DetourRow {
            pop: *pop,
            mean_detour_frac: mean(records.iter().map(|r| detour_frac(r))),
            peak_detour_frac: records.iter().map(|r| detour_frac(r)).fold(0.0, f64::max),
            peak_overrides: records
                .iter()
                .map(|r| r.overrides_active)
                .max()
                .unwrap_or(0),
        })
        .collect();
    let means: Vec<f64> = rows.iter().map(|r| r.mean_detour_frac).collect();
    let peaks: Vec<f64> = rows.iter().map(|r| r.peak_detour_frac).collect();
    let median_mean_detour = pct(&means, 50.0)?;
    Some(ItemResult {
        measured: format!(
            "median PoP: {:.2} % mean / {:.1} % peak of its traffic detoured; worst PoP peak \
             {:.1} %",
            median_mean_detour * 100.0,
            pct(&peaks, 50.0)? * 100.0,
            pct(&peaks, 100.0)? * 100.0
        ),
        bounds: vec![("median_mean_detour < 0.15", median_mean_detour < 0.15)],
        series: rows.to_value(),
    })
}

fn e7_detour_destination(c: &Campaign) -> Option<ItemResult> {
    let mut by_kind: BTreeMap<&str, f64> = BTreeMap::new();
    for r in &c.edge_fabric.pop_epochs {
        for (kind, mbps) in &r.detoured_by_kind {
            *by_kind.entry(kind).or_default() += mbps;
        }
    }
    let total: f64 = by_kind.values().sum();
    if total <= 0.0 {
        return None;
    }
    let mut shares: Vec<(&str, f64)> = by_kind.into_iter().map(|(k, v)| (k, v / total)).collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let transit_share = shares
        .iter()
        .find(|(k, _)| *k == "transit")
        .map_or(0.0, |(_, s)| *s);
    let listed: Vec<String> = shares
        .iter()
        .map(|(kind, share)| format!("{:.1} % {kind}", share * 100.0))
        .collect();
    Some(ItemResult {
        measured: format!("of detoured Mbps·epochs: {}", listed.join(", ")),
        bounds: vec![("transit_share > 0.5", transit_share > 0.5)],
        series: shares.to_value(),
    })
}

fn e8_detour_durations(c: &Campaign) -> Option<ItemResult> {
    let epoch = c.cfg.epoch_secs as f64;
    let durations: Vec<f64> = c
        .edge_fabric
        .episodes
        .iter()
        .map(|e| e.duration_secs() as f64)
        .collect();
    let episodes = durations.len();
    let max_secs = pct(&durations, 100.0)?;
    let frac_single_epoch =
        durations.iter().filter(|d| **d <= epoch).count() as f64 / episodes as f64;
    let frac_over_30min =
        durations.iter().filter(|d| **d >= 1800.0).count() as f64 / episodes as f64;
    Some(ItemResult {
        measured: format!(
            "{episodes} episodes; {:.0} % single-epoch, p50 {:.0} s, p90 {:.0} min, p99 {:.0} min, \
             max {:.1} h; {:.1} % last ≥30 min",
            frac_single_epoch * 100.0,
            pct(&durations, 50.0)?,
            pct(&durations, 90.0)? / 60.0,
            pct(&durations, 99.0)? / 60.0,
            max_secs / 3600.0,
            frac_over_30min * 100.0
        ),
        bounds: vec![
            ("episodes > 0", episodes > 0),
            ("frac_single_epoch > 0.2", frac_single_epoch > 0.2),
            ("max_secs >= 3600.0", max_secs >= 3600.0),
        ],
        series: cdf_points(&durations, 40).to_value(),
    })
}

#[derive(Serialize)]
struct HysteresisRow {
    withdraw_hysteresis: f64,
    mean_updates_per_pop_epoch: f64,
    frac_zero_churn: f64,
    mean_detour_frac: f64,
}

fn e9_override_churn(c: &Campaign) -> Option<ItemResult> {
    let records = &c.edge_fabric.pop_epochs;
    let per_epoch: Vec<f64> = records.iter().map(updates).collect();
    let p99_updates = pct(&per_epoch, 99.0)?;
    let zero_churn_frac =
        per_epoch.iter().filter(|u| **u == 0.0).count() as f64 / per_epoch.len() as f64;
    let mean_updates = mean(per_epoch.iter().copied());
    let mean_active = mean(records.iter().map(|r| r.overrides_active as f64));

    // Ablation: withdraw hysteresis vs churn (6 h, 8 PoPs, same seed
    // across arms). Hysteresis must reduce churn, at the cost of slightly
    // more standing detours.
    let ablation: Vec<HysteresisRow> = [0.0, 0.03, 0.08]
        .into_iter()
        .map(|hysteresis| {
            let mut engine = c
                .sub_world((8, 200, 1200, 3000.0), 6 * 3600, None)
                .builder()
                .tune_controller(|cc| cc.withdraw_hysteresis = hysteresis)
                .engine();
            engine.run();
            let m = engine.take_metrics();
            HysteresisRow {
                withdraw_hysteresis: hysteresis,
                mean_updates_per_pop_epoch: mean(m.pop_epochs.iter().map(updates)),
                frac_zero_churn: m.pop_epochs.iter().filter(|r| updates(r) == 0.0).count() as f64
                    / m.pop_epochs.len() as f64,
                mean_detour_frac: mean(m.pop_epochs.iter().map(detour_frac)),
            }
        })
        .collect();
    let churn_at_0 = ablation[0].mean_updates_per_pop_epoch;
    let churn_at_003 = ablation[1].mean_updates_per_pop_epoch;
    Some(ItemResult {
        measured: format!(
            "{:.0} % of pop-epochs send zero updates; mean {mean_updates:.1} updates/epoch (p99 \
             {p99_updates:.0}) vs {mean_active:.1} standing overrides (churn/active = {:.2}). \
             Hysteresis ablation (6 h world): 0 → 0.03 cuts churn {churn_at_0:.2} → \
             {churn_at_003:.2} updates/epoch ({:.0}×) for {:+.2} pp standing detours",
            zero_churn_frac * 100.0,
            mean_updates / mean_active.max(1e-9),
            churn_at_0 / churn_at_003.max(1e-9),
            (ablation[1].mean_detour_frac - ablation[0].mean_detour_frac) * 100.0
        ),
        bounds: vec![
            ("zero_churn_frac > 0.3", zero_churn_frac > 0.3),
            (
                "mean_updates < mean_active.max(1.0)",
                mean_updates < mean_active.max(1.0),
            ),
            ("churn_at_0.03 < churn_at_0", churn_at_003 < churn_at_0),
        ],
        series: ablation.to_value(),
    })
}

fn e10_altpath_rtt(c: &Campaign) -> Option<ItemResult> {
    // 4 h measurement-only scenario over 10 PoPs.
    let mut engine = c
        .sub_world((10, 250, 1500, 4000.0), 4 * 3600, None)
        .builder()
        .perf(PerfSimConfig { steer: false })
        .engine();
    engine.run();

    let mut comparisons = Vec::new();
    for pop in &engine.pops {
        let Some(measurer) = pop.measurer.as_ref() else {
            continue;
        };
        comparisons.extend(compare_paths(
            measurer,
            &fib_preferred(&engine, pop, measurer),
        ));
    }
    if comparisons.is_empty() {
        return None;
    }
    let summary = summarize(&comparisons);
    let improvements: Vec<f64> = comparisons.iter().map(|c| c.improvement_ms).collect();
    Some(ItemResult {
        measured: format!(
            "median improvement {:.1} ms (BGP's choice usually fine); {:.1} % of {} compared \
             prefixes have an alternate ≥20 ms faster; {:.1} % have preferred ≥20 ms faster; \
             {:.1} % within 3 ms",
            summary.median_improvement_ms,
            summary.frac_alt_wins_20ms * 100.0,
            summary.prefixes,
            summary.frac_pref_wins_20ms * 100.0,
            summary.frac_equivalent * 100.0
        ),
        bounds: vec![
            ("prefixes > 500", summary.prefixes > 500),
            (
                "(0.01..0.15).contains(frac_alt_wins_20ms)",
                (0.01..0.15).contains(&summary.frac_alt_wins_20ms),
            ),
            (
                "median_improvement_ms < 0.0",
                summary.median_improvement_ms < 0.0,
            ),
        ],
        series: cdf_points(&improvements, 20).to_value(),
    })
}

#[derive(Serialize)]
struct CongestionPoint {
    t_secs: u64,
    baseline_util: f64,
    ef_util: f64,
    baseline_extra_rtt_ms: f64,
    ef_extra_rtt_ms: f64,
    baseline_loss: f64,
    ef_loss: f64,
}

fn e11_congestion_rtt(c: &Campaign) -> Option<ItemResult> {
    // The RTT/loss inflation model (same knee both arms, by construction).
    let perf = PathPerfModel::new(PerfConfig::default());
    // The watched interface with the worst baseline overload (ties: the
    // highest egress id).
    let (victim, _) = longest_overloads(&c.baseline)
        .into_iter()
        .max_by_key(|(_, run)| *run)?;
    let capacity = c.baseline.interfaces.get(&victim)?.capacity_mbps;
    let points: Vec<CongestionPoint> = c.baseline.series[&victim]
        .iter()
        .zip(c.edge_fabric.series.get(&victim)?)
        .map(|((t, base_load), (_, ef_load))| {
            let (bu, eu) = (base_load / capacity, ef_load / capacity);
            CongestionPoint {
                t_secs: *t,
                baseline_util: bu,
                ef_util: eu,
                baseline_extra_rtt_ms: perf.congestion_delay_ms(bu),
                ef_extra_rtt_ms: perf.congestion_delay_ms(eu),
                baseline_loss: perf.loss_rate(bu),
                ef_loss: perf.loss_rate(eu),
            }
        })
        .collect();
    let peak = |f: fn(&CongestionPoint) -> f64| points.iter().map(f).fold(0.0f64, f64::max);
    let base_peak_rtt = peak(|p| p.baseline_extra_rtt_ms);
    let ef_peak_rtt = peak(|p| p.ef_extra_rtt_ms);
    let base_loss_epochs = points.iter().filter(|p| p.baseline_loss > 0.0).count();
    let ef_loss_epochs = points.iter().filter(|p| p.ef_loss > 0.0).count();
    Some(ItemResult {
        measured: format!(
            "watched interface if{} ({capacity:.0} Mbps): baseline {base_peak_rtt:.0} ms \
             standing-queue penalty and loss in {base_loss_epochs} / {} epochs; EF: \
             {ef_loss_epochs} loss epochs, peak congestion penalty {ef_peak_rtt:.0} ms",
            victim.0,
            points.len()
        ),
        bounds: vec![
            ("base_peak_rtt >= 60.0", base_peak_rtt >= 60.0),
            (
                "ef_loss_epochs * 20 <= base_loss_epochs",
                ef_loss_epochs * 20 <= base_loss_epochs,
            ),
        ],
        series: points.to_value(),
    })
}

#[derive(Serialize)]
struct ReactionTrial {
    seed: u64,
    pop: u16,
    victim_egress: u32,
    capacity_mbps: f64,
    step_util: f64,
    epochs_to_mitigate: u64,
    secs_to_mitigate: u64,
}

/// Hand-drives one PoP of ten small worlds through a demand step onto a
/// private interconnect; independent of the campaign.
fn e12_reaction(_: &Campaign) -> Option<ItemResult> {
    let perf_model = PathPerfModel::new(PerfConfig::default());
    let mut trials = Vec::new();
    for seed in 0..10u64 {
        let cfg = scenario()
            .small_topology(seed)
            .duration_secs(2 * 3600)
            .epoch_secs(60)
            .exact_rates() // isolate reaction time from estimator noise
            .build();
        let deployment = generate(&cfg.gen);

        // Pick a private interconnect and the prefixes its peer originates.
        let pop_id = PopId((seed % deployment.pops.len() as u64) as u16);
        let pop = deployment.pop(pop_id);
        let Some(pni) = pop
            .interfaces
            .iter()
            .find(|i| i.kind() == ef_bgp::peer::PeerKind::PrivatePeer)
        else {
            continue; // small PoP without PNI; skip this seed
        };
        let peer_asn = pop
            .peers
            .iter()
            .find(|p| p.egress == pni.id)
            .expect("pni has a peer")
            .asn;
        let victim_prefixes: Vec<u32> = deployment
            .universe
            .prefixes
            .iter()
            .enumerate()
            .filter(|(_, info)| deployment.universe.origin_of(info).asn == peer_asn)
            .map(|(i, _)| i as u32)
            .collect();
        if victim_prefixes.is_empty() {
            continue;
        }

        let mut runtime = PopRuntime::build(&deployment, pop_id, &cfg);
        runtime.flag_interface(pni.id);

        // Demand helper: spread `total` Mbps across the victim prefixes.
        let demand_at = |total: f64| -> Vec<DemandPoint> {
            victim_prefixes
                .iter()
                .map(|idx| DemandPoint {
                    prefix_idx: *idx,
                    mbps: total / victim_prefixes.len() as f64,
                })
                .collect()
        };

        // 3 quiet epochs at 50% of capacity, then a step to 150%.
        let quiet = demand_at(pni.capacity_mbps * 0.5);
        let step = demand_at(pni.capacity_mbps * 1.5);
        let mut t = 0u64;
        for _ in 0..3 {
            runtime.step(t, &quiet, &perf_model);
            t += cfg.epoch_secs;
        }
        let step_start = t;
        for _ in 0..10 {
            runtime.step(t, &step, &perf_model);
            t += cfg.epoch_secs;
        }
        runtime.finish(t);

        // From the flagged series: first epoch at/after the step where the
        // interface is back under capacity (the end of the run if never).
        let mitigated_at = runtime.metrics.series[&pni.id]
            .iter()
            .filter(|(ts, _)| *ts >= step_start)
            .find(|(_, load)| *load <= pni.capacity_mbps)
            .map_or(t, |(ts, _)| *ts);
        let epochs = (mitigated_at - step_start) / cfg.epoch_secs;
        trials.push(ReactionTrial {
            seed,
            pop: pop_id.0,
            victim_egress: pni.id.0,
            capacity_mbps: pni.capacity_mbps,
            step_util: 1.5,
            epochs_to_mitigate: epochs,
            secs_to_mitigate: epochs * cfg.epoch_secs,
        });
    }
    let worst_epochs = trials.iter().map(|t| t.epochs_to_mitigate).max()?;
    let in_one = trials.iter().filter(|t| t.epochs_to_mitigate <= 1).count();
    Some(ItemResult {
        measured: format!(
            "{in_one}/{} step-overload trials (50 % → 150 % of a PNI) mitigated within 1 epoch; \
             worst case {worst_epochs} epoch(s) = {} s",
            trials.len(),
            worst_epochs * 60
        ),
        bounds: vec![
            ("trials > 0", !trials.is_empty()),
            ("worst_epochs <= 2", worst_epochs <= 2),
        ],
        series: trials.to_value(),
    })
}

struct SteeringArm {
    tail: usize,
    tail_on_best: usize,
    ifaces_over: usize,
    perf_overrides: usize,
}

fn steering_arm(world: ScenarioBuilder, steer: bool, deployment: &Deployment) -> SteeringArm {
    let mut engine = world
        .perf(PerfSimConfig { steer })
        .engine_with(deployment.clone());
    engine.run();

    let mut tail = 0usize;
    let mut tail_on_best = 0usize;
    for pop in &engine.pops {
        let Some(measurer) = pop.measurer.as_ref() else {
            continue;
        };
        let preferred = fib_preferred(&engine, pop, measurer);
        // Tail definition must be arm-independent: compare each prefix's
        // measured digests with the *organic* preferred path (non-override
        // best), not the live FIB.
        let organic_preferred: HashMap<u32, EgressId> = measurer
            .report()
            .iter()
            .filter_map(|d| {
                let prefix = engine.prefix_of(d.key.prefix_idx);
                ef_bgp::best_rec_where(pop.router.candidates(&prefix), |r| !r.is_override())
                    .map(|r| (d.key.prefix_idx, r.egress))
            })
            .collect();
        for cmp in compare_paths(measurer, &organic_preferred) {
            if cmp.improvement_ms >= 20.0 {
                tail += 1;
                // Where does the prefix actually egress right now?
                if preferred.get(&cmp.prefix_idx).map(|e| e.0) == Some(cmp.best_alt_egress) {
                    tail_on_best += 1;
                }
            }
        }
    }
    let ifaces_over = engine
        .take_metrics()
        .interfaces
        .values()
        .filter(|s| s.epochs_over_capacity > 1) // ignore 1-epoch transients
        .count();
    let perf_overrides = engine
        .pops
        .iter()
        .filter_map(|p| p.controller.as_ref())
        .map(|ctl| {
            ctl.active_overrides()
                .iter_sorted()
                .iter()
                .filter(|o| o.reason == edge_fabric::OverrideReason::Performance)
                .count()
        })
        .sum();
    SteeringArm {
        tail,
        tail_on_best,
        ifaces_over,
        perf_overrides,
    }
}

fn e13_perf_aware(c: &Campaign) -> Option<ItemResult> {
    // 2 h over 6 PoPs, both arms on the same deployment.
    let world = c.sub_world((6, 150, 900, 2000.0), 2 * 3600, None);
    let deployment = generate(&world.cfg.gen);
    let measure_only = steering_arm(world.builder(), false, &deployment);
    let steering = steering_arm(world.builder(), true, &deployment);
    Some(ItemResult {
        measured: format!(
            "{}/{} measured tail prefixes egress via their fastest path under steering ({}/{} \
             measure-only); interfaces over capacity for >1 epoch {} → {}; {} performance \
             overrides active at the end",
            steering.tail_on_best,
            steering.tail,
            measure_only.tail_on_best,
            measure_only.tail,
            measure_only.ifaces_over,
            steering.ifaces_over,
            steering.perf_overrides
        ),
        bounds: vec![
            ("tail_steering > 0", steering.tail > 0),
            (
                "on_best_steering > on_best_measure_only",
                steering.tail_on_best > measure_only.tail_on_best,
            ),
            (
                "over_steering <= over_measure_only + 1",
                steering.ifaces_over <= measure_only.ifaces_over + 1,
            ),
        ],
        series: Value::Null,
    })
}
