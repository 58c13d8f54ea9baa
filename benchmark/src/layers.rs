//! The benchmark's whole view of the program under test.
//!
//! Every program symbol the benchmark touches is imported here and
//! nowhere else, so the API surface a refactor has to keep is one list.
//! It deliberately leaves out what ROADMAP.md schedules for deletion —
//! `projection::project`, `PrefixTrie`,
//! `decision::{compare, best_route, best_route_where, rank_routes}`,
//! `ScenarioBuilder::incremental`, `SimConfig::test_small`,
//! `global_shift` / `GlobalShifterConfig` and everything in `ef_bench` —
//! so the "delete the twins" change can land without editing the
//! benchmark. Layers are named after the crate directories.

// topology
pub use ef_topology::{
    generate, BillingMeter, CostModel, Deployment, GenConfig, PopId, Region, RouteSpec,
};
// traffic
pub use ef_traffic::demand::{DemandModel, DemandPoint};
pub use ef_traffic::estimator::RateEstimator;
pub use ef_traffic::sampler::{SamplerConfig, SflowSampler};
// net-types
pub use ef_net_types::{CompressedTrie, Prefix};
// bgp
pub use ef_bgp::attrs::{AsPath, PathAttributes};
pub use ef_bgp::attrstore::RouteRec;
pub use ef_bgp::message::{BgpMessage, UpdateMessage};
pub use ef_bgp::peer::PeerId;
pub use ef_bgp::policy::Policy;
pub use ef_bgp::route::EgressId;
pub use ef_bgp::router::{BgpRouter, PeerAttachment, PeerStub, RouterConfig};
pub use ef_bgp::wire::{decode_message, encode_message};
// core
pub use edge_fabric::allocator::allocate;
pub use edge_fabric::collector::RouteCollector;
pub use edge_fabric::overrides::OverrideSet;
pub use edge_fabric::projection::{project_cached, ProjectionCache};
// perf
pub use ef_perf::compare::compare_paths;
pub use ef_perf::rtt::{PathPerfModel, PerfConfig};
// chaos
pub use ef_chaos::{
    generate as generate_faults, ChaosProfile, FaultEvent, FaultKind, FaultSchedule, FaultTarget,
};
// global
pub use ef_global::{BackendKind, FlashCrowdSpec, GlobalConfig, GlobalController, PopReport};
// health
pub use ef_health::{sample_iface_util, GlobalSignals, HealthConfig, HealthMonitor};
// telemetry
pub use ef_telemetry::{FieldValue, Sink, TelemetryHandle, TelemetryRecord};
// sim
pub use ef_sim::runtime::PopRuntime;
pub use ef_sim::{
    chaos_surface, scenario, MetricsStore, PerfSimConfig, PopEpochRecord, ScenarioBuilder,
    SimConfig, SimEngine,
};
