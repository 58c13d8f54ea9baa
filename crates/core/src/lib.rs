//! # edge-fabric
//!
//! The Edge Fabric controller from *"Engineering Egress with Edge Fabric:
//! Steering Oceans of Content to the World"* (SIGCOMM 2017): a per-PoP
//! control loop that makes BGP egress routing capacity-aware (and,
//! optionally, performance-aware) without replacing BGP.
//!
//! Every ~30 seconds the controller:
//!
//! 1. **Collects routes** ([`collector`]) from a BMP feed exposing every
//!    route each peering router accepted — not just the best ones.
//! 2. **Collects traffic** — per-prefix egress demand estimates, supplied
//!    by the embedding (see `ef-traffic` for the sampling pipeline) as a
//!    [`TrafficView`]: in production a prefix-sorted
//!    [`TrafficTable`] refilled in place each epoch; a
//!    `HashMap<Prefix, f64>` is accepted through the same trait for small
//!    callers such as the quickstart below.
//! 3. **Projects** ([`projection`]) that demand onto the routes BGP would
//!    pick *absent any override*, predicting each interface's load.
//! 4. **Allocates detours** ([`allocator`]) for interfaces whose projected
//!    utilization exceeds the limit, moving just enough prefixes to their
//!    next-best routes — never overloading a detour target.
//! 5. **Injects overrides** ([`Injector`]) as real BGP announcements with a
//!    controller-tier `LOCAL_PREF` over an ordinary session, so the
//!    routers' own decision process installs them; dropping the
//!    announcement reverts the detour.
//!
//! The controller is deliberately stateless across cycles (paper §4.4):
//! every epoch recomputes the full desired override set from fresh inputs,
//! and the injector diffs it against what is currently announced.
//!
//! [`build_perf_overrides`] implements the §6 extension: alternate-path
//! measurements feed overrides that move the small tail of prefixes whose
//! BGP-preferred path is ≥20 ms slower than an alternate.
//!
//! # Quickstart
//!
//! ```
//! use edge_fabric::{ControllerConfig, PopController};
//! use edge_fabric::InterfaceInfo;
//! use ef_bgp::peer::{PeerId, PeerKind};
//! use ef_bgp::policy::Policy;
//! use ef_bgp::route::EgressId;
//! use ef_bgp::router::{BgpRouter, PeerAttachment, PeerStub, RouterConfig};
//! use ef_net_types::Asn;
//! use std::collections::HashMap;
//!
//! // A router with one private peer (capacity 100 Mbps) and one transit.
//! let mut router = BgpRouter::new(RouterConfig {
//!     name: "pop0-pr0".into(),
//!     asn: Asn::LOCAL,
//!     router_id: "10.0.0.1".parse().unwrap(),
//! });
//! for (id, asn, kind, egress) in [
//!     (1u64, 65001u32, PeerKind::PrivatePeer, 1u32),
//!     (2, 65010, PeerKind::Transit, 2),
//! ] {
//!     router.add_peer(PeerAttachment {
//!         peer: PeerId(id),
//!         peer_asn: Asn(asn),
//!         kind,
//!         egress: EgressId(egress),
//!         policy: Policy::default_import(Asn::LOCAL, kind),
//!         max_prefixes: 0,
//!     });
//! }
//! let mut peer = PeerStub::new(PeerId(1), Asn(65001), "10.9.0.1".parse().unwrap());
//! let mut transit = PeerStub::new(PeerId(2), Asn(65010), "10.9.0.2".parse().unwrap());
//! peer.pump(&mut router, 0);
//! transit.pump(&mut router, 0);
//!
//! let prefix = "203.0.113.0/24".parse().unwrap();
//! peer.announce(&mut router, prefix, Default::default(), 0);
//! transit.announce(&mut router, prefix, Default::default(), 0);
//!
//! // Controller watches both interfaces.
//! let interfaces = HashMap::from([
//!     (EgressId(1), InterfaceInfo::new(100.0, PeerKind::PrivatePeer)),
//!     (EgressId(2), InterfaceInfo::new(10_000.0, PeerKind::Transit)),
//! ]);
//! let mut ctl = PopController::new(0, ControllerConfig::default(), interfaces, &mut router);
//! ctl.ingest_bmp(router.drain_bmp());
//!
//! // 150 Mbps of demand cannot fit the 100 Mbps preferred peer link.
//! let traffic = HashMap::from([(prefix, 150.0)]);
//! let report = ctl.run_epoch(&traffic, &mut router, 30_000);
//! assert_eq!(report.overrides_active, 1);
//! assert_eq!(router.fib_entry(&prefix).unwrap().egress, EgressId(2));
//! ```

pub mod allocator;
pub mod collector;
mod config;
mod controller;
mod injector;
pub mod overrides;
mod perf_aware;
pub mod projection;
mod state;

pub use allocator::{AllocationOutcome, DetourStrategy};
pub use collector::RouteCollector;
pub use config::ControllerConfig;
pub use controller::{EpochError, EpochInputs, EpochReport, PopController};
pub use injector::{InjectionLedger, InjectionReport, Injector, InjectorError};
pub use overrides::{Override, OverrideReason, OverrideSet};
pub use perf_aware::{adapt_comparisons, build_perf_overrides, MeasuredComparison, MIN_SAMPLES};
pub use projection::Projection;
pub use state::{total_traffic_mbps, InterfaceInfo, InterfaceMap, TrafficTable, TrafficView};
