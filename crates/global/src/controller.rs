//! The global controller: user→PoP placement above per-PoP Edge Fabric.
//!
//! Edge Fabric (the paper's system) runs one controller per PoP and can
//! only shuffle traffic between that PoP's own egresses. When a whole PoP
//! runs out of capacity — a regional blackout, a flash crowd — the fix
//! lives a layer up: move *users* to other PoPs, the job of Facebook's
//! Cartographer and its successors. [`GlobalController`] reproduces that
//! layer:
//!
//! * demand is grouped into named [populations](crate::population) and
//!   optionally *shaped* by scheduled flash crowds;
//! * each epoch every PoP reports up a [`PopReport`] (residual overload,
//!   drops, headroom), and every (population, PoP) cell steps its
//!   [steering mechanism](crate::backend) to a new away-fraction;
//! * before the next epoch the controller *places* the moved demand onto
//!   other PoPs that serve the same prefixes, within per-PoP detour
//!   budgets negotiated from reported headroom — so global steering never
//!   overloads a healthy PoP to save a sick one.
//!
//! Placement conserves demand exactly: whatever cannot be granted a
//! budget stays at its source PoP (and keeps hurting, which keeps the
//! backend shifting). Every placement action is emitted as a
//! [`PlacementRecord`] so `efctl trace` can answer *why* a population
//! moved where it did.

use serde::{Deserialize, Serialize};

use ef_telemetry::{
    PlacementGuard, PlacementRecord, PlacementRejectReason, PlacementTarget, PlacementVerdict,
    RejectedTarget, TelemetryHandle,
};
use ef_topology::{Deployment, PopId};
use ef_traffic::demand::DemandPoint;

use crate::backend::{CellObservation, Steer};
use crate::config::{BackendKind, ConfigError, GlobalConfig};
use crate::population::PopulationMap;

const EPS: f64 = 1e-12;

/// Above this away-fraction a PoP that received nothing is reported as
/// [`PlacementRejectReason::SourceShifted`] (it is mostly withdrawn
/// itself) rather than out of budget.
const SOURCE_SHIFTED_AWAY: f64 = 0.5;

/// Fraction of a PoP's reported headroom the tier may consume as detour
/// budget each epoch. Below 1.0 so global placement never eats the margin
/// the per-PoP controller needs for its own detours.
const HEADROOM_SAFETY: f64 = 0.8;

/// Report-freshness horizon, epochs. A PoP whose last report is `age`
/// epochs old keeps `1 - age/horizon` of its usable budget; at the horizon
/// the budget is zero — the tier stops steering users toward headroom
/// numbers it cannot verify.
const STALENESS_HORIZON_EPOCHS: u64 = 4;

/// Minimum fraction of PoP reports that must arrive in an epoch for the
/// backend to keep updating placements. Below it the tier goes
/// *fail-static*: every away-fraction freezes and no new move is
/// initiated until visibility returns.
const FAIL_STATIC_QUORUM: f64 = 0.5;

/// Per-epoch blast-radius cap: total placed demand may not exceed this
/// fraction of total offered demand. Bounds how far a single bad epoch of
/// inputs can move the world.
const BLAST_RADIUS_FRACTION: f64 = 0.5;

/// Move hysteresis: after a cell's away-fraction rises (a drain step),
/// restores at that cell are suppressed for this many epochs — the
/// anti-thrash guard for populations that would otherwise bounce between
/// PoPs on alternating reports.
pub const HOLD_DOWN_EPOCHS: u64 = 3;

/// Plausibility clamp on negotiated budgets: a PoP's usable budget never
/// exceeds this multiple of its own baseline demand, however much headroom
/// it claims. Bounds the damage of an exporter over-reporting headroom.
pub const BUDGET_PLAUSIBILITY: f64 = 1.0;

/// What one PoP reports up to the global tier after an epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PopReport {
    /// The per-PoP controller saw overload it could not relieve.
    pub residual_overloaded: bool,
    /// Traffic actually dropped at this PoP during the epoch, Mbps.
    pub dropped_mbps: f64,
    /// Total demand offered to this PoP during the epoch, Mbps.
    pub offered_mbps: f64,
    /// Spare egress capacity under the utilization limit, Mbps.
    pub headroom_mbps: f64,
    /// Controller epoch the report describes, stamped by the producer.
    /// Freshness is judged against this stamp, not against delivery —
    /// a frozen exporter that keeps re-sending an old epoch looks exactly
    /// as stale as a partitioned one. Pre-stamp reports deserialize as
    /// epoch 0 (maximally old).
    #[serde(default)]
    pub epoch: u64,
}

/// One epoch's degradation-guard verdicts, for health rules and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GuardSnapshot {
    /// Reports delivered in the last observed epoch.
    pub delivered_reports: usize,
    /// Reports expected per epoch (one per PoP).
    pub expected_reports: usize,
    /// PoPs whose freshest report is at least one epoch old.
    pub stale_pops: usize,
    /// Largest report age across PoPs, epochs (0 = all fresh).
    pub max_report_age: u64,
    /// The last epoch ran fail-static (below report quorum, or crashed).
    pub fail_static: bool,
    /// Total epochs spent fail-static or crashed since start.
    pub frozen_epochs: u64,
    /// Away-fraction direction flips in the last epoch (a drain right
    /// after a restore or vice versa) — the thrash signal.
    pub flips: u64,
    /// Restores suppressed by the hold-down in the last epoch.
    pub suppressed_restores: u64,
    /// The last placement epoch hit the blast-radius cap.
    pub blast_capped: bool,
    /// The last observed epoch clamped at least one PoP's budget to its
    /// plausibility cap — reported headroom exceeded the configured
    /// multiple of the PoP's baseline demand. A richly provisioned healthy
    /// PoP can trip this too; the cap is the point, not the accusation.
    pub plausibility_clamped: bool,
}

/// One population's current placement state, for reports and the CLI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementSummary {
    /// Population name.
    pub population: String,
    /// Away-fraction per PoP (how much of the population's demand at that
    /// PoP is currently steered elsewhere).
    pub away: Vec<f64>,
    /// Demand actually moved in the last epoch, Mbps.
    pub moved_mbps: f64,
    /// The population's average demand per PoP, Mbps.
    pub baseline_mbps: Vec<f64>,
}

/// Everything the tier carries across epochs about one (population, PoP)
/// pair.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Fraction of the population's demand at this PoP steered away,
    /// updated each `observe`.
    away: f64,
    /// Restores still to suppress; every drain re-arms it.
    hold: u64,
    /// Last movement direction: +1 drain, -1 restore, 0 none.
    last_dir: i8,
    /// The steering mechanism's in-flight state; `None` when the tier
    /// only shapes demand.
    steer: Option<Steer>,
}

/// The global steering tier. One instance sits above all PoPs; the
/// simulation engine calls [`shape_demand`](Self::shape_demand) →
/// [`place`](Self::place) before stepping the PoPs and
/// [`observe`](Self::observe) with their reports afterwards.
pub struct GlobalController {
    cfg: GlobalConfig,
    map: PopulationMap,
    /// One cell per (population, PoP), at `population * n_pops + pop`.
    cells: Vec<Cell>,
    /// Per-PoP detour budget (Mbps) from the last `observe`.
    budgets: Vec<f64>,
    /// Demand moved per population in the last `place`, Mbps.
    moved_last: Vec<f64>,
    /// Flash crowds resolved to population indices:
    /// `(population, start_secs, end_secs, multiplier)`.
    crowds: Vec<(usize, u64, u64, f64)>,
    /// `holders[prefix_idx]` — every `(pop_idx, demand_point_idx)` serving
    /// that prefix, in deployment order.
    holders: Vec<Vec<(u32, u32)>>,
    epoch: u64,
    n_pops: usize,
    /// Total baseline demand per PoP, Mbps — the plausibility yardstick
    /// for reported headroom.
    pop_baseline: Vec<f64>,
    /// Freshest report seen per PoP, kept across missed epochs so budgets
    /// decay from the last known headroom instead of snapping to zero.
    last_report: Vec<Option<PopReport>>,
    /// Guard verdicts of the last epoch.
    guards: GuardSnapshot,
    /// The tier is down (crash fault): everything frozen until `observe`.
    crashed: bool,
    /// Blast-radius cap applied in the last `place`, Mbps.
    blast_cap_mbps: f64,
    telemetry: TelemetryHandle,
}

impl std::fmt::Debug for GlobalController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalController")
            .field("backend", &self.backend_name())
            .field("populations", &self.map.len())
            .field("pops", &self.n_pops)
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl GlobalController {
    /// Builds the tier for a deployment, rejecting out-of-range
    /// configuration. Flash crowds naming unknown populations are ignored.
    pub fn new(
        deployment: &Deployment,
        cfg: GlobalConfig,
        telemetry: TelemetryHandle,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let map = PopulationMap::build(deployment);
        let n_pops = deployment.pops.len();
        let n_populations = map.len();
        let cell = Cell {
            away: 0.0,
            hold: 0,
            last_dir: 0,
            steer: cfg.backend.map(Steer::new),
        };
        let mut holders: Vec<Vec<(u32, u32)>> =
            vec![Vec::new(); deployment.universe.prefixes.len()];
        for (pop_idx, pop) in deployment.pops.iter().enumerate() {
            for (point_idx, served) in pop.served.iter().enumerate() {
                if let Some(h) = holders.get_mut(served.prefix_idx as usize) {
                    h.push((pop_idx as u32, point_idx as u32));
                }
            }
        }
        let crowds = cfg
            .flash_crowds
            .iter()
            .filter_map(|spec| {
                map.population_named(&spec.population).map(|pi| {
                    (
                        pi,
                        spec.t_start_secs,
                        spec.t_start_secs.saturating_add(spec.duration_secs),
                        spec.multiplier,
                    )
                })
            })
            .collect();
        let mut pop_baseline = vec![0.0f64; n_pops];
        for population in &map.populations {
            for (j, b) in population.baseline_mbps.iter().enumerate() {
                if let Some(total) = pop_baseline.get_mut(j) {
                    *total += b.max(0.0);
                }
            }
        }
        Ok(GlobalController {
            cells: vec![cell; n_populations * n_pops],
            budgets: vec![0.0; n_pops],
            moved_last: vec![0.0; n_populations],
            crowds,
            holders,
            epoch: 0,
            n_pops,
            pop_baseline,
            last_report: vec![None; n_pops],
            guards: GuardSnapshot {
                expected_reports: n_pops,
                ..GuardSnapshot::default()
            },
            crashed: false,
            blast_cap_mbps: f64::INFINITY,
            cfg,
            map,
            telemetry,
        })
    }

    /// The steering mechanism's name (`"dns"`, `"anycast"`, or
    /// `"shape_only"` when steering is disabled).
    pub fn backend_name(&self) -> &'static str {
        match self.cfg.backend {
            Some(BackendKind::Dns { .. }) => "dns",
            Some(BackendKind::Anycast { .. }) => "anycast",
            None => "shape_only",
        }
    }

    /// True when any population currently has demand steered away.
    fn is_active(&self) -> bool {
        self.cells.iter().any(|c| c.away > EPS)
    }

    /// Population `pi`'s cells, one per PoP in PoP order.
    fn row(&self, pi: usize) -> &[Cell] {
        let n = self.n_pops;
        self.cells.get(pi * n..(pi + 1) * n).unwrap_or(&[])
    }

    /// The largest away-fraction any population has at `pop` — the
    /// successor of the prototype shifter's per-PoP shift fraction.
    pub fn away_fraction(&self, pop: PopId) -> f64 {
        let idx = pop.0 as usize;
        (0..self.map.len())
            .filter_map(|pi| self.row(pi).get(idx))
            .fold(0.0, |acc, c| acc.max(c.away))
    }

    /// Current placement state per population, for reports and `efctl`.
    pub fn placements(&self) -> Vec<PlacementSummary> {
        self.map
            .populations
            .iter()
            .enumerate()
            .map(|(pi, p)| PlacementSummary {
                population: p.name.clone(),
                away: self.row(pi).iter().map(|c| c.away).collect(),
                moved_mbps: self.moved_last.get(pi).copied().unwrap_or(0.0),
                baseline_mbps: p.baseline_mbps.clone(),
            })
            .collect()
    }

    /// Applies scheduled flash crowds to offered demand: every demand
    /// point belonging to an active crowd's population is multiplied, at
    /// every PoP (the crowd raises the population's demand; the serving
    /// footprint splits it as usual).
    pub fn shape_demand(&self, t_secs: u64, demands: &mut [(PopId, Vec<DemandPoint>)]) {
        for &(pi, start, end, mult) in &self.crowds {
            if t_secs < start || t_secs >= end {
                continue;
            }
            for (_, points) in demands.iter_mut() {
                for point in points.iter_mut() {
                    let member = self
                        .map
                        .of_prefix
                        .get(point.prefix_idx as usize)
                        .is_some_and(|p| *p as usize == pi);
                    if member {
                        point.mbps *= mult;
                    }
                }
            }
        }
    }

    /// Moves steered-away demand onto other PoPs serving the same
    /// prefixes, within per-PoP detour budgets. Demand is conserved
    /// exactly: the fraction of a victim's moved demand that no budget
    /// accepts stays at the victim. Emits one [`PlacementRecord`] per
    /// (population, drained PoP) with demand in motion.
    pub fn place(&mut self, t_secs: u64, demands: &mut [(PopId, Vec<DemandPoint>)]) {
        let n_pops = self.n_pops;
        let n_populations = self.map.len();
        for m in &mut self.moved_last {
            *m = 0.0;
        }
        if !self.is_active() || n_pops == 0 {
            return;
        }
        // Map pop index → position in `demands` (callers usually pass
        // deployment order, but don't rely on it).
        let mut arm_of_pop: Vec<usize> = vec![demands.len(); n_pops];
        for (arm, (pop, _)) in demands.iter().enumerate() {
            if let Some(slot) = arm_of_pop.get_mut(pop.0 as usize) {
                *slot = arm;
            }
        }
        let mut remaining = self.budgets.clone();
        // Blast-radius cap: however wrong this epoch's inputs are, at most
        // this much demand moves before the next epoch's reports arrive.
        let total_offered: f64 = demands
            .iter()
            .map(|(_, pts)| pts.iter().map(|p| p.mbps.max(0.0)).sum::<f64>())
            .sum();
        let blast_cap = BLAST_RADIUS_FRACTION * total_offered;
        let mut blast_remaining = blast_cap;
        let mut blast_capped = false;
        // Attribution, indexed [population][src] and [population][src][dst].
        let mut attempted = vec![0.0f64; n_populations * n_pops];
        let mut placed = vec![0.0f64; n_populations * n_pops];
        let mut granted = vec![0.0f64; n_populations * n_pops * n_pops];

        let mut victims: Vec<(usize, usize, usize, f64)> = Vec::new();
        let mut receivers: Vec<(usize, usize, usize, f64)> = Vec::new();
        let mut grants: Vec<f64> = Vec::new();
        for (prefix_idx, holders) in self.holders.iter().enumerate() {
            let Some(pi) = self.map.of_prefix.get(prefix_idx).map(|p| *p as usize) else {
                continue;
            };
            let row = self.row(pi);
            victims.clear();
            receivers.clear();
            let mut moved = 0.0f64;
            let mut total_w = 0.0f64;
            for &(pop_idx, point_idx) in holders {
                let (p, q) = (pop_idx as usize, point_idx as usize);
                let Some(&arm) = arm_of_pop.get(p) else {
                    continue;
                };
                let Some((_, points)) = demands.get(arm) else {
                    continue;
                };
                let Some(point) = points.get(q) else { continue };
                let away = row.get(p).map_or(0.0, |c| c.away).clamp(0.0, 1.0);
                if away > EPS {
                    let contribution = point.mbps * away;
                    if contribution > EPS {
                        moved += contribution;
                        victims.push((arm, q, p, contribution));
                    }
                }
                // Receiver weight fades continuously with the cell's own
                // away-fraction: a fully withdrawn PoP receives nothing, a
                // lightly shifted one (decay residue, a transient blip)
                // stays usable. A hard "must be exactly at home" cutoff
                // regularly leaves *no* receivers, because per-PoP drop
                // blips sprinkle small away-fractions everywhere.
                let receiving = 1.0 - away;
                if receiving > EPS {
                    let budget = remaining.get(p).copied().unwrap_or(0.0).max(0.0);
                    if budget > EPS {
                        let w = budget * receiving;
                        total_w += w;
                        receivers.push((arm, q, p, w));
                    }
                }
            }
            if moved <= EPS {
                continue;
            }
            for &(_, _, src, c) in &victims {
                attempted[pi * n_pops + src] += c;
            }
            if total_w <= EPS {
                continue; // nowhere to place — demand stays and keeps hurting
            }
            // Grant each receiver its budget-proportional share, capped by
            // what is left of that PoP's budget.
            grants.clear();
            let mut total_granted = 0.0f64;
            for &(_, _, dst, w) in &receivers {
                let ideal = moved * w / total_w;
                let cap = remaining.get(dst).copied().unwrap_or(0.0).max(0.0);
                let g = ideal.min(cap);
                grants.push(g);
                total_granted += g;
            }
            if total_granted > blast_remaining {
                blast_capped = true;
                let scale = if total_granted > EPS {
                    (blast_remaining.max(0.0)) / total_granted
                } else {
                    0.0
                };
                for g in grants.iter_mut() {
                    *g *= scale;
                }
                total_granted *= scale;
            }
            if total_granted <= EPS {
                continue;
            }
            blast_remaining -= total_granted;
            // Victims lose exactly what receivers gain, proportionally to
            // their contribution — conservation is exact by construction.
            let scale = total_granted / moved;
            for &(arm, q, src, c) in &victims {
                if let Some((_, points)) = demands.get_mut(arm) {
                    if let Some(point) = points.get_mut(q) {
                        point.mbps = (point.mbps - c * scale).max(0.0);
                    }
                }
                placed[pi * n_pops + src] += c * scale;
            }
            for (ri, &(arm, q, dst, _)) in receivers.iter().enumerate() {
                let g = grants.get(ri).copied().unwrap_or(0.0);
                if g <= EPS {
                    continue;
                }
                if let Some((_, points)) = demands.get_mut(arm) {
                    if let Some(point) = points.get_mut(q) {
                        point.mbps += g;
                    }
                }
                if let Some(r) = remaining.get_mut(dst) {
                    *r -= g;
                }
                for &(_, _, src, c) in &victims {
                    granted[(pi * n_pops + src) * n_pops + dst] += g * c / moved;
                }
            }
        }

        // Roll up per-population totals and emit provenance.
        self.guards.blast_capped = blast_capped;
        self.blast_cap_mbps = blast_cap;
        let now_ms = t_secs.saturating_mul(1000);
        for pi in 0..n_populations {
            let mut population_moved = 0.0f64;
            for src in 0..n_pops {
                let att = attempted[pi * n_pops + src];
                if att <= EPS {
                    continue;
                }
                let plc = placed[pi * n_pops + src];
                population_moved += plc;
                if self.telemetry.enabled() {
                    self.emit_placement(pi, src, plc, &granted, &remaining, now_ms);
                }
            }
            if let Some(m) = self.moved_last.get_mut(pi) {
                *m = population_moved;
            }
        }
    }

    fn emit_placement(
        &self,
        pi: usize,
        src: usize,
        moved_mbps: f64,
        granted: &[f64],
        remaining: &[f64],
        now_ms: u64,
    ) {
        let Some(population) = self.map.populations.get(pi) else {
            return;
        };
        let n_pops = self.n_pops;
        let row = self.row(pi);
        let mut targets = Vec::new();
        let mut rejected = Vec::new();
        for dst in 0..n_pops {
            if dst == src {
                continue;
            }
            let g = granted
                .get((pi * n_pops + src) * n_pops + dst)
                .copied()
                .unwrap_or(0.0);
            if g > EPS {
                targets.push(PlacementTarget {
                    pop: dst as u16,
                    granted_mbps: g,
                });
                continue;
            }
            let baseline = population.baseline_mbps.get(dst).copied().unwrap_or(0.0);
            let away = row.get(dst).map_or(0.0, |c| c.away);
            let stale_age = self
                .report_age(dst)
                .filter(|age| *age >= STALENESS_HORIZON_EPOCHS);
            let reason = if baseline <= EPS {
                PlacementRejectReason::NoFootprint
            } else if away > SOURCE_SHIFTED_AWAY {
                PlacementRejectReason::SourceShifted
            } else if let Some(age_epochs) = stale_age {
                // The budget is zero because the PoP went quiet, not
                // because it reported being full.
                PlacementRejectReason::StaleReport { age_epochs }
            } else {
                PlacementRejectReason::NoHeadroom {
                    budget_mbps: remaining.get(dst).copied().unwrap_or(0.0).max(0.0),
                }
            };
            rejected.push(RejectedTarget {
                pop: dst as u16,
                reason,
            });
        }
        let verdict = if moved_mbps > EPS {
            PlacementVerdict::Applied
        } else {
            PlacementVerdict::NoFeasibleTarget
        };
        let mut guards = Vec::new();
        if self.crashed {
            guards.push(PlacementGuard::ControllerFrozen);
        } else if self.guards.fail_static {
            guards.push(PlacementGuard::FailStatic);
        }
        if self.guards.blast_capped {
            guards.push(PlacementGuard::BlastRadiusCapped {
                cap_mbps: self.blast_cap_mbps,
            });
        }
        let (epochs_left, away_fraction) = row.get(src).map_or((0, 0.0), |c| (c.hold, c.away));
        if epochs_left > 0 {
            guards.push(PlacementGuard::HoldDown { epochs_left });
        }
        let record = PlacementRecord {
            population: population.name.clone(),
            backend: self.backend_name().to_string(),
            trigger: "overload".to_string(),
            from_pop: src as u16,
            away_fraction,
            moved_mbps,
            targets,
            rejected,
            verdict,
            guards,
        };
        self.telemetry.placement(src as u16, now_ms, &record);
    }

    /// Age of PoP `j`'s freshest report in epochs (0 = stamped in the most
    /// recently observed epoch), or `None` if it never reported.
    fn report_age(&self, j: usize) -> Option<u64> {
        self.last_report
            .get(j)
            .and_then(|r| r.as_ref())
            .map(|r| self.epoch.saturating_sub(1).saturating_sub(r.epoch))
    }

    /// Usable-budget multiplier for a report of the given age: linear
    /// decay from 1 at age 0 to 0 at the staleness horizon. The tier
    /// steadily stops trusting headroom it cannot re-verify.
    fn freshness(&self, age: u64) -> f64 {
        let h = STALENESS_HORIZON_EPOCHS;
        1.0 - (age.min(h) as f64) / (h as f64)
    }

    /// The guard verdicts of the last epoch.
    pub fn guard_snapshot(&self) -> GuardSnapshot {
        self.guards
    }

    /// Per-PoP detour budgets from the last `observe`, Mbps.
    pub fn detour_budgets(&self) -> &[f64] {
        &self.budgets
    }

    /// Demand moved by the last placement pass, all populations, Mbps.
    pub fn moved_last_mbps(&self) -> f64 {
        self.moved_last.iter().sum()
    }

    /// Per-PoP baseline demand (summed over populations), Mbps — the
    /// reference the plausibility clamp bounds budgets against.
    pub fn pop_baseline(&self) -> &[f64] {
        &self.pop_baseline
    }

    /// An epoch during which the tier itself is down. Placements, budgets,
    /// away-fractions, and backend state all freeze — issued DNS maps and
    /// anycast announcements outlive the controller that issued them, so
    /// the world keeps the last placement until the tier returns. Only the
    /// epoch counter advances (report ages keep growing, so budgets pick
    /// up decayed on recovery rather than snapping back to stale values).
    pub fn crash_epoch(&mut self) {
        self.epoch = self.epoch.saturating_add(1);
        self.crashed = true;
        self.guards.fail_static = true;
        self.guards.frozen_epochs = self.guards.frozen_epochs.saturating_add(1);
        self.guards.delivered_reports = 0;
        self.guards.flips = 0;
        self.guards.suppressed_restores = 0;
        self.refresh_staleness_counters();
    }

    fn refresh_staleness_counters(&mut self) {
        let mut stale = 0usize;
        let mut max_age = 0u64;
        for j in 0..self.n_pops {
            match self.report_age(j) {
                Some(age) => {
                    if age >= 1 {
                        stale += 1;
                    }
                    max_age = max_age.max(age);
                }
                None => {
                    // Never reported: stale only once epochs have passed.
                    if self.epoch > 0 {
                        stale += 1;
                        max_age = max_age.max(self.epoch);
                    }
                }
            }
        }
        self.guards.stale_pops = stale;
        self.guards.max_report_age = max_age;
    }

    /// Feeds the epoch's per-PoP reports, `None` where a PoP's report did
    /// not arrive. Degradation guards run first:
    ///
    /// * budgets derive from the freshest report each PoP ever sent,
    ///   decayed linearly with the report's age and clamped to
    ///   [`BUDGET_PLAUSIBILITY`] × the PoP's own baseline demand;
    /// * below `FAIL_STATIC_QUORUM` of the reports delivered the epoch is
    ///   *fail-static*: every away-fraction freezes, no move is initiated;
    /// * a cell whose report aged past the staleness horizon is skipped
    ///   (frozen) rather than steered on fiction;
    /// * restores are suppressed while the cell's hold-down is armed — a
    ///   drain re-arms it — so placements cannot thrash on alternating
    ///   reports. Drains are never suppressed: shedding load off a sick
    ///   PoP is always the safe direction.
    pub fn observe(&mut self, reports: &[Option<PopReport>]) {
        self.crashed = false;
        let mut delivered = 0usize;
        for j in 0..self.n_pops {
            if let Some(report) = reports.get(j).and_then(|r| r.as_ref()) {
                delivered += 1;
                let keep = self
                    .last_report
                    .get(j)
                    .and_then(|r| r.as_ref())
                    .is_some_and(|old| old.epoch > report.epoch);
                if !keep {
                    if let Some(slot) = self.last_report.get_mut(j) {
                        *slot = Some(*report);
                    }
                }
            }
        }
        self.epoch = self.epoch.saturating_add(1);

        let mut clamped = false;
        for j in 0..self.n_pops {
            let budget = match self.last_report.get(j).and_then(|r| r.as_ref()) {
                Some(report) => {
                    let age = self.report_age(j).unwrap_or(0);
                    let raw =
                        (report.headroom_mbps * HEADROOM_SAFETY).max(0.0) * self.freshness(age);
                    let cap = (BUDGET_PLAUSIBILITY
                        * self.pop_baseline.get(j).copied().unwrap_or(0.0))
                    .max(0.0);
                    if raw > cap {
                        clamped = true;
                    }
                    raw.min(cap)
                }
                None => 0.0,
            };
            if let Some(slot) = self.budgets.get_mut(j) {
                *slot = budget;
            }
        }
        self.guards.plausibility_clamped = clamped;

        let fail_static = (delivered as f64) < FAIL_STATIC_QUORUM * (self.n_pops as f64);
        self.guards.delivered_reports = delivered;
        self.guards.fail_static = fail_static;
        self.guards.flips = 0;
        self.guards.suppressed_restores = 0;
        self.refresh_staleness_counters();
        if fail_static {
            self.guards.frozen_epochs = self.guards.frozen_epochs.saturating_add(1);
            return; // hold placements; never initiate a move on a dark map
        }

        let n_pops = self.n_pops;
        let mut flips = 0u64;
        let mut suppressed = 0u64;
        for (pi, population) in self.map.populations.iter().enumerate() {
            for j in 0..n_pops {
                let baseline = population.baseline_mbps.get(j).copied().unwrap_or(0.0);
                if baseline <= 0.0 {
                    continue; // no footprint — nothing of this population here
                }
                if reports.get(j).and_then(|r| r.as_ref()).is_none() {
                    continue; // nothing delivered this epoch — cell freezes
                }
                let Some(report) = self.last_report.get(j).and_then(|r| r.as_ref()) else {
                    continue;
                };
                let age = self.epoch.saturating_sub(1).saturating_sub(report.epoch);
                if age >= STALENESS_HORIZON_EPOCHS {
                    continue; // content too old to act on — cell freezes
                }
                let cell = &mut self.cells[pi * n_pops + j];
                let Some(steer) = cell.steer.as_mut() else {
                    continue; // shape-only: nothing steers
                };
                let obs = CellObservation {
                    dropped_mbps: report.dropped_mbps.max(0.0),
                    offered_mbps: report.offered_mbps.max(0.0),
                    headroom_mbps: report.headroom_mbps,
                    baseline_mbps: baseline,
                };
                let fraction = steer.update(&obs, &self.cfg).clamp(0.0, 1.0);
                let dir: i8 = if fraction > cell.away + EPS {
                    1
                } else if fraction < cell.away - EPS {
                    -1
                } else {
                    0
                };
                if dir == -1 && cell.hold > 0 {
                    // Restore: suppressed while the hold-down is armed.
                    cell.hold -= 1;
                    suppressed += 1;
                    continue;
                }
                if dir == 1 {
                    cell.hold = HOLD_DOWN_EPOCHS;
                }
                if dir != 0 {
                    if cell.last_dir != 0 && cell.last_dir != dir {
                        flips += 1;
                    }
                    cell.last_dir = dir;
                    cell.away = fraction;
                }
            }
        }
        self.guards.flips = flips;
        self.guards.suppressed_restores = suppressed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_topology::{generate, GenConfig};
    use proptest::prelude::*;

    fn deployment(pops: u16) -> Deployment {
        generate(&GenConfig {
            n_pops: pops as usize,
            ..GenConfig::small(3)
        })
    }

    fn demands_for(dep: &Deployment) -> Vec<(PopId, Vec<DemandPoint>)> {
        dep.pops
            .iter()
            .map(|pop| {
                (
                    pop.id,
                    pop.served
                        .iter()
                        .map(|s| DemandPoint {
                            prefix_idx: s.prefix_idx,
                            mbps: s.avg_mbps,
                        })
                        .collect(),
                )
            })
            .collect()
    }

    fn total(demands: &[(PopId, Vec<DemandPoint>)]) -> f64 {
        demands
            .iter()
            .map(|(_, pts)| pts.iter().map(|p| p.mbps).sum::<f64>())
            .sum()
    }

    fn pop_total(demands: &[(PopId, Vec<DemandPoint>)], pop: PopId) -> f64 {
        demands
            .iter()
            .find(|(p, _)| *p == pop)
            .map(|(_, pts)| pts.iter().map(|p| p.mbps).sum())
            .unwrap()
    }

    /// Reports for epoch `epoch` where `victim` is overloaded and everyone
    /// else has abundant headroom, all delivered and freshly stamped.
    fn reports(
        dep: &Deployment,
        victim: PopId,
        headroom: f64,
        epoch: u64,
    ) -> Vec<Option<PopReport>> {
        dep.pops
            .iter()
            .map(|p| {
                if p.id == victim {
                    // Dropping half of everything offered: severe enough
                    // that every backend reacts at full tilt.
                    Some(PopReport {
                        residual_overloaded: true,
                        dropped_mbps: 1e9,
                        offered_mbps: 2e9,
                        headroom_mbps: 0.0,
                        epoch,
                    })
                } else {
                    Some(PopReport {
                        residual_overloaded: false,
                        dropped_mbps: 0.0,
                        offered_mbps: 1e9,
                        headroom_mbps: headroom,
                        epoch,
                    })
                }
            })
            .collect()
    }

    /// A controller with telemetry off.
    fn controller(dep: &Deployment, cfg: GlobalConfig) -> GlobalController {
        GlobalController::new(dep, cfg, TelemetryHandle::disabled()).unwrap()
    }

    #[test]
    fn dns_steering_drains_an_overloaded_pop() {
        let dep = deployment(4);
        let mut ctl = controller(&dep, GlobalConfig::dns(1));
        let victim = PopId(0);
        for e in 0..6 {
            ctl.observe(&reports(&dep, victim, 1e9, e));
        }
        assert!(ctl.is_active());
        assert!((ctl.away_fraction(victim) - 0.30).abs() < 1e-9);
        let mut demands = demands_for(&dep);
        let before_total = total(&demands);
        let before_victim = pop_total(&demands, victim);
        ctl.place(3600, &mut demands);
        assert!((total(&demands) - before_total).abs() < 1e-6);
        let after_victim = pop_total(&demands, victim);
        assert!(after_victim < before_victim * 0.75, "{after_victim}");
        let moved: f64 = ctl.placements().iter().map(|p| p.moved_mbps).sum();
        assert!(moved > 0.0);
    }

    #[test]
    fn place_respects_detour_budgets() {
        let dep = deployment(3);
        let mut ctl = controller(&dep, GlobalConfig::dns(1));
        let victim = PopId(0);
        // Zero headroom anywhere: nothing may be placed.
        for e in 0..6 {
            ctl.observe(&reports(&dep, victim, 0.0, e));
        }
        let mut demands = demands_for(&dep);
        let snapshot = demands.clone();
        ctl.place(0, &mut demands);
        for ((pa, a), (pb, b)) in demands.iter().zip(snapshot.iter()) {
            assert_eq!(pa, pb);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x.mbps - y.mbps).abs() < 1e-9);
            }
        }
        // A tiny budget is consumed but never exceeded.
        for e in 6..12 {
            ctl.observe(&reports(&dep, victim, 10.0, e));
        }
        let mut demands = demands_for(&dep);
        let before: Vec<f64> = dep.pops.iter().map(|p| pop_total(&demands, p.id)).collect();
        ctl.place(0, &mut demands);
        for (idx, pop) in dep.pops.iter().enumerate() {
            if pop.id == victim {
                continue;
            }
            let gained = pop_total(&demands, pop.id) - before[idx];
            // budget = headroom × safety = 10 × 0.8
            assert!(gained <= 8.0 + 1e-6, "pop {idx} gained {gained}");
        }
    }

    #[test]
    fn shape_only_never_steers_but_shapes_crowds() {
        let dep = deployment(3);
        let shape_only = GlobalConfig {
            backend: None,
            ..GlobalConfig::default()
        };
        let cfg = shape_only.with_flash_crowd(crate::config::FlashCrowdSpec {
            population: "NA".into(),
            t_start_secs: 100,
            duration_secs: 100,
            multiplier: 2.0,
        });
        let mut ctl = controller(&dep, cfg);
        let victim = PopId(0);
        for e in 0..10 {
            ctl.observe(&reports(&dep, victim, 1e9, e));
        }
        assert!(!ctl.is_active());
        assert_eq!(ctl.backend_name(), "shape_only");
        // The crowd multiplies exactly the NA population's demand.
        let na = ctl.map.population_named("NA").unwrap();
        let mut demands = demands_for(&dep);
        let before = total(&demands);
        let na_before: f64 = demands
            .iter()
            .flat_map(|(_, pts)| pts.iter())
            .filter(|p| ctl.map.of_prefix[p.prefix_idx as usize] as usize == na)
            .map(|p| p.mbps)
            .sum();
        ctl.shape_demand(150, &mut demands);
        assert!((total(&demands) - (before + na_before)).abs() < 1e-6);
        // Outside the window: identity.
        let snapshot = demands.clone();
        ctl.shape_demand(300, &mut demands);
        assert_eq!(demands, snapshot);
    }

    #[test]
    fn placement_records_carry_provenance() {
        let dep = deployment(3);
        let (telemetry, sink) = TelemetryHandle::memory();
        let mut ctl = GlobalController::new(&dep, GlobalConfig::dns(1), telemetry).unwrap();
        let victim = PopId(1);
        for e in 0..6 {
            ctl.observe(&reports(&dep, victim, 1e9, e));
        }
        let mut demands = demands_for(&dep);
        ctl.place(7200, &mut demands);
        let placements = sink.placements();
        assert!(!placements.is_empty());
        for (pop, now_ms, record) in &placements {
            assert_eq!(*pop, victim.0);
            assert_eq!(*now_ms, 7_200_000);
            assert_eq!(record.backend, "dns");
            assert_eq!(record.verdict, ef_telemetry::PlacementVerdict::Applied);
            assert!(!record.targets.is_empty());
            assert!(record.moved_mbps > 0.0);
            assert!(record.away_fraction > 0.0);
        }
    }

    #[test]
    fn anycast_moves_whole_population_after_convergence() {
        let dep = deployment(4);
        let mut ctl = controller(&dep, GlobalConfig::anycast(2));
        let victim = PopId(0);
        // Decision + convergence epochs.
        for e in 0..3 {
            ctl.observe(&reports(&dep, victim, 1e9, e));
        }
        // Every population served at the victim is fully withdrawn.
        assert_eq!(ctl.away_fraction(victim), 1.0);
        let mut demands = demands_for(&dep);
        let before = total(&demands);
        ctl.place(0, &mut demands);
        assert!((total(&demands) - before).abs() < 1e-6);
        // The victim keeps only demand no budget accepted (here: none).
        assert!(pop_total(&demands, victim) < 1e-6);
    }

    #[test]
    fn overload_signal_needs_offered_demand() {
        // Drops at a PoP nobody offers demand to are a counter race, not
        // overload: the cell stays at home. The same drops against real
        // offered demand move it.
        let dep = deployment(3);
        let victim = PopId(0);
        let drops_against = |offered_mbps: f64| {
            let mut ctl = controller(&dep, GlobalConfig::dns(1));
            let mut r = reports(&dep, victim, 1e9, 0);
            r[victim.0 as usize] = Some(PopReport {
                dropped_mbps: 5.0,
                offered_mbps,
                ..PopReport::default()
            });
            ctl.observe(&r);
            ctl.away_fraction(victim)
        };
        assert_eq!(drops_against(0.0), 0.0);
        assert!(drops_against(100.0) > 0.0);
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let dep = deployment(2);
        let cfg = GlobalConfig {
            step: f64::NAN,
            ..GlobalConfig::default()
        };
        assert!(GlobalController::new(&dep, cfg, TelemetryHandle::disabled()).is_err());
    }

    #[test]
    fn stale_reports_decay_budgets_to_zero() {
        let dep = deployment(3);
        let mut ctl = controller(&dep, GlobalConfig::dns(1));
        let victim = PopId(0);
        // Headroom the plausibility clamp leaves alone at every receiver,
        // so what decays is exactly HEADROOM_SAFETY × headroom.
        let headroom = ctl
            .pop_baseline()
            .iter()
            .copied()
            .filter(|b| *b > 0.0)
            .fold(f64::INFINITY, f64::min);
        assert!(headroom.is_finite());
        ctl.observe(&reports(&dep, victim, headroom, 0));
        let fresh: Vec<f64> = ctl.detour_budgets().to_vec();
        for (j, b) in fresh.iter().enumerate() {
            let expect = if j == victim.0 as usize {
                0.0
            } else {
                (HEADROOM_SAFETY * headroom).min(ctl.pop_baseline()[j])
            };
            assert!((b - expect).abs() < 1e-9, "pop {j}: {b} vs {expect}");
        }
        assert!(fresh.iter().any(|b| *b > 0.0));
        // Reports stop arriving: budgets shrink linearly, hitting zero at
        // the horizon.
        let dark: Vec<Option<PopReport>> = vec![None; dep.pops.len()];
        let mut prev = fresh.clone();
        for step in 1..=STALENESS_HORIZON_EPOCHS {
            ctl.observe(&dark);
            for (j, b) in ctl.detour_budgets().iter().enumerate() {
                assert!(*b <= prev[j] + 1e-9, "budget grew while dark");
                if fresh[j] > 0.0 {
                    let expect = fresh[j] * (1.0 - step as f64 / STALENESS_HORIZON_EPOCHS as f64);
                    assert!(
                        (b - expect).abs() < 1e-6,
                        "step {step} pop {j}: {b} vs {expect}"
                    );
                }
            }
            prev = ctl.detour_budgets().to_vec();
        }
        assert!(ctl.detour_budgets().iter().all(|b| *b == 0.0));
        let snap = ctl.guard_snapshot();
        assert_eq!(snap.stale_pops, dep.pops.len());
        assert_eq!(snap.max_report_age, STALENESS_HORIZON_EPOCHS);
    }

    #[test]
    fn fail_static_freezes_away_fractions() {
        let dep = deployment(4);
        let mut ctl = controller(&dep, GlobalConfig::dns(1));
        let victim = PopId(0);
        // Majority of reports missing from the start: the tier must never
        // initiate a move, however loudly the one delivered report screams.
        for e in 0..6 {
            let mut r = reports(&dep, victim, 1e9, e);
            for (j, slot) in r.iter_mut().enumerate() {
                if j != victim.0 as usize {
                    *slot = None;
                }
            }
            ctl.observe(&r);
            assert!(ctl.guard_snapshot().fail_static);
        }
        assert!(!ctl.is_active(), "fail-static initiated a move");
        assert_eq!(ctl.guard_snapshot().frozen_epochs, 6);
        // Once active, losing quorum freezes (not resets) the placement.
        for e in 6..12 {
            ctl.observe(&reports(&dep, victim, 1e9, e));
        }
        let away = ctl.away_fraction(victim);
        assert!(away > 0.0);
        let dark: Vec<Option<PopReport>> = vec![None; dep.pops.len()];
        ctl.observe(&dark);
        assert!(ctl.guard_snapshot().fail_static);
        assert_eq!(ctl.away_fraction(victim), away, "away moved while dark");
    }

    #[test]
    fn crash_epochs_freeze_everything() {
        let dep = deployment(3);
        let mut ctl = controller(&dep, GlobalConfig::dns(1));
        let victim = PopId(0);
        for e in 0..6 {
            ctl.observe(&reports(&dep, victim, 1e9, e));
        }
        let away = ctl.away_fraction(victim);
        let budgets = ctl.detour_budgets().to_vec();
        let epoch = ctl.epoch;
        for _ in 0..3 {
            ctl.crash_epoch();
        }
        assert_eq!(ctl.away_fraction(victim), away);
        assert_eq!(ctl.detour_budgets(), &budgets[..]);
        assert_eq!(ctl.epoch, epoch + 3);
        let snap = ctl.guard_snapshot();
        assert!(snap.fail_static);
        assert_eq!(snap.frozen_epochs, 3);
        // Recovery: fresh reports bring the backend right back.
        ctl.observe(&reports(&dep, victim, 1e9, epoch + 3));
        assert!(!ctl.guard_snapshot().fail_static);
    }

    #[test]
    fn plausibility_clamp_bounds_lied_headroom() {
        let dep = deployment(3);
        let mut ctl = controller(&dep, GlobalConfig::dns(1));
        let victim = PopId(0);
        // An exporter claiming absurd headroom gets a budget no larger
        // than its own baseline demand (BUDGET_PLAUSIBILITY = 1.0).
        ctl.observe(&reports(&dep, victim, 1e18, 0));
        for (j, budget) in ctl.detour_budgets().iter().enumerate() {
            if j == victim.0 as usize {
                continue;
            }
            let cap = ctl
                .map
                .populations
                .iter()
                .map(|p| p.baseline_mbps.get(j).copied().unwrap_or(0.0))
                .sum::<f64>();
            assert!(*budget <= cap + 1e-9, "pop {j}: {budget} > cap {cap}");
            assert!(*budget > 0.0);
        }
    }

    #[test]
    fn a_restore_after_a_drain_counts_one_flip_per_cell() {
        let dep = deployment(3);
        let mut ctl = controller(&dep, GlobalConfig::dns(1));
        let victim = PopId(0);
        for e in 0..6 {
            ctl.observe(&reports(&dep, victim, 1e9, e));
            assert_eq!(ctl.guard_snapshot().flips, 0, "draining on is no flip");
        }
        let drained = ctl
            .map
            .populations
            .iter()
            .filter(|p| p.baseline_mbps[victim.0 as usize] > 0.0)
            .count() as u64;
        assert!(drained > 0);
        // Healthy from here: the hold-down suppresses the first restores,
        // then every drained cell turns around once.
        let healthy = |e: u64| reports(&dep, PopId(u16::MAX), 1e9, e);
        let release = 6 + HOLD_DOWN_EPOCHS;
        for e in 6..release {
            ctl.observe(&healthy(e));
            assert_eq!(ctl.guard_snapshot().flips, 0, "a suppressed restore");
        }
        ctl.observe(&healthy(release));
        assert_eq!(ctl.guard_snapshot().flips, drained);
        ctl.observe(&healthy(release + 1));
        assert_eq!(ctl.guard_snapshot().flips, 0, "restoring on is no flip");
    }

    #[test]
    fn a_report_replayed_to_the_staleness_horizon_stops_steering() {
        let dep = deployment(3);
        let mut ctl = controller(&dep, GlobalConfig::dns(1));
        let victim = PopId(0);
        let horizon = STALENESS_HORIZON_EPOCHS as usize;
        // The victim's exporter froze after epoch 0 and keeps re-sending
        // that report; the other PoPs stay fresh.
        let frozen = reports(&dep, victim, 1e9, 0)[victim.0 as usize];
        let mut away = Vec::new();
        for e in 0..=STALENESS_HORIZON_EPOCHS {
            let mut r = reports(&dep, victim, 1e9, e);
            r[victim.0 as usize] = frozen;
            ctl.observe(&r);
            away.push(ctl.away_fraction(victim));
        }
        // Every age below the horizon steers one more step; a report
        // exactly at the horizon no longer does.
        assert!(away[..horizon].windows(2).all(|w| w[1] > w[0]), "{away:?}");
        assert_eq!(away[horizon], away[horizon - 1], "{away:?}");
    }

    #[test]
    fn a_cell_freezes_in_an_epoch_its_report_is_missing() {
        let dep = deployment(4);
        let mut ctl = controller(&dep, GlobalConfig::dns(1));
        let victim = PopId(0);
        ctl.observe(&reports(&dep, victim, 1e9, 0));
        let away = ctl.away_fraction(victim);
        assert!(away > 0.0);
        // Three of four reports keep quorum, but the victim's did not
        // arrive: its last one, one epoch old and still overloaded, must
        // not steer again.
        let mut r = reports(&dep, victim, 1e9, 1);
        r[victim.0 as usize] = None;
        ctl.observe(&r);
        assert!(!ctl.guard_snapshot().fail_static);
        assert_eq!(ctl.away_fraction(victim), away);
    }

    #[test]
    fn exactly_half_the_reports_is_a_quorum() {
        let dep = deployment(4);
        let mut ctl = controller(&dep, GlobalConfig::dns(1));
        let victim = PopId(0);
        let mut r = reports(&dep, victim, 1e9, 0);
        r[2] = None;
        r[3] = None;
        ctl.observe(&r);
        let snap = ctl.guard_snapshot();
        assert_eq!((snap.delivered_reports, snap.expected_reports), (2, 4));
        assert!(!snap.fail_static);
        assert!(ctl.away_fraction(victim) > 0.0);
    }

    #[test]
    fn a_receiver_dark_for_the_horizon_is_rejected_as_stale() {
        let dep = deployment(4);
        let (telemetry, sink) = TelemetryHandle::memory();
        let mut ctl = GlobalController::new(&dep, GlobalConfig::dns(1), telemetry).unwrap();
        let (victim, dark) = (PopId(0), 1usize);
        for e in 0..6 {
            ctl.observe(&reports(&dep, victim, 1e9, e));
        }
        // PoP 1 goes quiet while the others keep quorum, until its last
        // report is exactly the horizon old.
        for e in 6..6 + STALENESS_HORIZON_EPOCHS {
            let mut r = reports(&dep, victim, 1e9, e);
            r[dark] = None;
            ctl.observe(&r);
        }
        assert_eq!(ctl.report_age(dark), Some(STALENESS_HORIZON_EPOCHS));
        ctl.place(0, &mut demands_for(&dep));
        let stale = PlacementRejectReason::StaleReport {
            age_epochs: STALENESS_HORIZON_EPOCHS,
        };
        let placements = sink.placements();
        assert!(!placements.is_empty());
        assert!(placements.iter().any(|(_, _, r)| r
            .rejected
            .iter()
            .any(|x| x.pop == dark as u16 && x.reason == stale)));
    }

    /// A controller that has drained every cell of `victim` completely,
    /// and a demand vector with every other PoP at a trough: the move the
    /// budgets would grant is then most of the offered total, so the
    /// blast-radius cap is what binds.
    fn drained_at_trough(
        dep: &Deployment,
        telemetry: TelemetryHandle,
        victim: PopId,
    ) -> (GlobalController, Vec<(PopId, Vec<DemandPoint>)>) {
        let cfg = GlobalConfig {
            max_shift: 1.0,
            step: 1.0,
            ..GlobalConfig::dns(1)
        };
        let mut ctl = GlobalController::new(dep, cfg, telemetry).unwrap();
        for e in 0..4 {
            ctl.observe(&reports(dep, victim, 1e9, e));
        }
        assert_eq!(ctl.away_fraction(victim), 1.0);
        let mut demands = demands_for(dep);
        for (pop, points) in &mut demands {
            if *pop != victim {
                for p in points.iter_mut() {
                    p.mbps *= 0.01;
                }
            }
        }
        (ctl, demands)
    }

    #[test]
    fn blast_radius_caps_per_epoch_movement() {
        let dep = deployment(4);
        let victim = PopId(0);
        let (mut ctl, mut demands) = drained_at_trough(&dep, TelemetryHandle::disabled(), victim);
        let before_total = total(&demands);
        // Uncapped, the budgets would take more than the cap allows.
        let grantable: f64 = ctl.detour_budgets().iter().sum();
        assert!(grantable > BLAST_RADIUS_FRACTION * before_total);
        assert!(pop_total(&demands, victim) > BLAST_RADIUS_FRACTION * before_total);
        ctl.place(0, &mut demands);
        assert!((total(&demands) - before_total).abs() < 1e-6);
        let moved: f64 = ctl.placements().iter().map(|p| p.moved_mbps).sum();
        assert!(
            (moved - BLAST_RADIUS_FRACTION * before_total).abs() < 1e-6,
            "moved {moved}, cap {}",
            BLAST_RADIUS_FRACTION * before_total
        );
        assert!(ctl.guard_snapshot().blast_capped);
    }

    #[test]
    fn hold_down_suppresses_restores_not_drains() {
        let dep = deployment(3);
        let mut cfg = GlobalConfig::dns(1);
        cfg.decay = 0.05;
        let mut ctl = controller(&dep, cfg);
        let victim = PopId(0);
        for e in 0..6 {
            ctl.observe(&reports(&dep, victim, 1e9, e));
        }
        let peak = ctl.away_fraction(victim);
        assert!(peak > 0.0);
        // Healthy reports now: the backend wants to restore, but the first
        // HOLD_DOWN_EPOCHS attempts per cell are held down.
        let healthy = |e: u64| reports(&dep, PopId(u16::MAX), 1e9, e);
        let release = 6 + HOLD_DOWN_EPOCHS;
        for (i, e) in (6..release).enumerate() {
            ctl.observe(&healthy(e));
            assert_eq!(
                ctl.away_fraction(victim),
                peak,
                "restore applied during hold-down epoch {i}"
            );
            assert!(ctl.guard_snapshot().suppressed_restores > 0);
        }
        ctl.observe(&healthy(release));
        assert!(
            ctl.away_fraction(victim) < peak,
            "hold-down never released the restore"
        );
    }

    #[test]
    fn guard_provenance_reaches_placement_records() {
        let dep = deployment(3);
        let (telemetry, sink) = TelemetryHandle::memory();
        let (mut ctl, mut demands) = drained_at_trough(&dep, telemetry, PopId(0));
        let before_total = total(&demands);
        ctl.place(0, &mut demands);
        assert!((ctl.moved_last_mbps() - BLAST_RADIUS_FRACTION * before_total).abs() < 1e-6);
        assert!(ctl.guard_snapshot().blast_capped);
        let placements = sink.placements();
        assert!(!placements.is_empty());
        assert!(placements.iter().any(|(_, _, r)| r
            .guards
            .iter()
            .any(|g| matches!(g, ef_telemetry::PlacementGuard::BlastRadiusCapped { .. }))));
    }

    proptest! {
        /// Whatever subset of reports arrives, however stale their stamps:
        /// no PoP ever receives more than its budget, demand is conserved,
        /// and an epoch below the report quorum never initiates a move.
        #[test]
        fn prop_guards_bound_placement(
            seed_pops in 2u16..6,
            victim in 0u16..6,
            epochs in 1usize..12,
            headroom in 0.0f64..100_000.0,
            mask in proptest::collection::vec(any::<bool>(), 12),
            stale_by in 0u64..8,
        ) {
            let dep = deployment(seed_pops);
            let victim = PopId(victim % seed_pops);
            let mut ctl = controller(&dep, GlobalConfig::dns(2));
            for e in 0..epochs {
                let stamp = (e as u64).saturating_sub(stale_by);
                let mut r = reports(&dep, victim, headroom, stamp);
                for (j, slot) in r.iter_mut().enumerate() {
                    if !mask.get((e + j) % mask.len()).copied().unwrap_or(true) {
                        *slot = None;
                    }
                }
                let was_active = ctl.is_active();
                ctl.observe(&r);
                if ctl.guard_snapshot().fail_static && !was_active {
                    prop_assert!(!ctl.is_active(), "fail-static initiated a move");
                }
            }
            let budgets = ctl.detour_budgets().to_vec();
            let mut demands = demands_for(&dep);
            let before_total = total(&demands);
            let before: Vec<f64> =
                dep.pops.iter().map(|p| pop_total(&demands, p.id)).collect();
            ctl.place(0, &mut demands);
            prop_assert!((total(&demands) - before_total).abs() < 1e-6);
            for (idx, pop) in dep.pops.iter().enumerate() {
                let gained = pop_total(&demands, pop.id) - before[idx];
                prop_assert!(
                    gained <= budgets[idx] + 1e-6,
                    "pop {} gained {} over budget {}", idx, gained, budgets[idx]
                );
            }
        }
    }

    proptest! {
        /// DNS placement conserves total demand for any overload pattern,
        /// any headroom distribution, and any number of epochs.
        #[test]
        fn prop_dns_place_conserves_demand(
            seed_pops in 2u16..6,
            victim in 0u16..6,
            epochs in 1usize..12,
            headroom in 0.0f64..100_000.0,
        ) {
            let dep = deployment(seed_pops);
            let victim = PopId(victim % seed_pops);
            let mut ctl = controller(&dep, GlobalConfig::dns(2));
            for e in 0..epochs {
                ctl.observe(&reports(&dep, victim, headroom, e as u64));
            }
            let mut demands = demands_for(&dep);
            let before = total(&demands);
            ctl.place(0, &mut demands);
            prop_assert!((total(&demands) - before).abs() < 1e-6);
            // No demand point ever goes negative.
            for (_, pts) in &demands {
                for p in pts {
                    prop_assert!(p.mbps >= 0.0);
                }
            }
        }
    }
}
