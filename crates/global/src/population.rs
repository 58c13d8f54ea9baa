//! User populations: the unit the global tier steers.
//!
//! Per-PoP Edge Fabric thinks in prefixes; the layer above it thinks in
//! *user populations* — named groups of users whose placement is decided
//! together, because that is the granularity real steering mechanisms
//! operate at (a DNS map entry, an anycast catchment). A
//! [`PopulationMap`] partitions the prefix universe into one population
//! per world region — how flash crowds and regional blackouts actually
//! correlate — and records each population's *baseline*: the average
//! demand it places on every PoP under the generator's serving footprint.
//! Baselines are what
//! backends compare reported headroom against when deciding whether a
//! drained PoP is healthy enough to take its users back.

use serde::{Deserialize, Serialize};

use ef_topology::{Deployment, Region};

/// A named group of users steered as a unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Population {
    /// Display name: the region label (`"NA"`, `"EU"`, …).
    pub name: String,
    /// Average demand this population places on each PoP (Mbps), indexed
    /// by PoP index. Zero means the PoP has no serving footprint for any
    /// of the population's prefixes — users cannot be placed there.
    pub baseline_mbps: Vec<f64>,
}

/// The partition of the prefix universe into populations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct PopulationMap {
    /// All populations, in [`Region::ALL`] order.
    pub populations: Vec<Population>,
    /// Population index of each prefix (indexed by `prefix_idx`).
    pub of_prefix: Vec<u32>,
}

impl PopulationMap {
    /// Partitions `deployment`'s prefix universe by region and computes
    /// baselines from the serving footprint.
    pub(crate) fn build(deployment: &Deployment) -> Self {
        let n_pops = deployment.pops.len();
        let universe = &deployment.universe;
        let mut populations: Vec<Population> = Region::ALL
            .iter()
            .map(|r| Population {
                name: r.label().to_string(),
                baseline_mbps: vec![0.0; n_pops],
            })
            .collect();
        let index_of = |region: Region| -> u32 {
            Region::ALL
                .iter()
                .position(|r| *r == region)
                .map(|i| i as u32)
                .unwrap_or(0)
        };
        let of_prefix: Vec<u32> = universe
            .prefixes
            .iter()
            .map(|p| index_of(universe.origin_of(p).region))
            .collect();
        for (pop_idx, pop) in deployment.pops.iter().enumerate() {
            for served in &pop.served {
                if let Some(pi) = of_prefix.get(served.prefix_idx as usize) {
                    if let Some(p) = populations.get_mut(*pi as usize) {
                        p.baseline_mbps[pop_idx] += served.avg_mbps;
                    }
                }
            }
        }
        PopulationMap {
            populations,
            of_prefix,
        }
    }

    /// Index of the population with the given name, if any.
    pub(crate) fn population_named(&self, name: &str) -> Option<usize> {
        self.populations.iter().position(|p| p.name == name)
    }

    /// Number of populations.
    pub(crate) fn len(&self) -> usize {
        self.populations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_topology::{generate, GenConfig};

    #[test]
    fn by_region_covers_every_prefix_and_baseline_matches_served() {
        let dep = generate(&GenConfig::small(4));
        let map = PopulationMap::build(&dep);
        assert_eq!(map.len(), 8);
        assert_eq!(map.of_prefix.len(), dep.universe.prefixes.len());
        // Baselines sum to the total served demand, exactly partitioned.
        let total_served: f64 = dep.pops.iter().map(|p| p.total_avg_demand_mbps()).sum();
        let total_baseline: f64 = map
            .populations
            .iter()
            .map(|p| p.baseline_mbps.iter().sum::<f64>())
            .sum();
        assert!((total_served - total_baseline).abs() < 1e-6);
        // Names follow the fixed region order.
        assert_eq!(map.populations[0].name, "NA");
        assert_eq!(map.populations[1].name, "EU");
        assert_eq!(map.population_named("EU"), Some(1));
        assert_eq!(map.population_named("XX"), None);
    }

    #[test]
    fn serde_round_trip() {
        let dep = generate(&GenConfig::small(3));
        let map = PopulationMap::build(&dep);
        let json = serde_json::to_string(&map).unwrap();
        let back: PopulationMap = serde_json::from_str(&json).unwrap();
        assert_eq!(map, back);
    }
}
