//! Topology substrate for the Edge Fabric reproduction.
//!
//! Models the structures the paper's controller operates on (§2):
//!
//! * [`Pop`]s — points of presence, each with a few peering routers and a
//!   set of egress [`Interface`]s with finite capacity;
//! * [`PeerConn`]s — the BGP adjacencies at a PoP, classified by
//!   interconnect kind (transit / private / public / route server);
//! * a prefix [`Universe`] of eyeball networks and their announcements; and
//! * per-PoP [`RouteSpec`]s — who announces what, with which AS path.
//!
//! Since the production data behind the paper is unavailable, the
//! `gen` module synthesizes deployments from a seed, shaped to match the
//! published observations: heavy-tailed peer counts, most traffic covered by
//! ≥2 (usually ≥4) routes per prefix, private interconnects sized so that
//! daily peaks overload a minority of them — the condition that makes
//! Edge Fabric necessary.

mod cost;
mod gen;
mod model;
mod region;
mod stats;

pub use cost::{BillingMeter, CostConfigError, CostModel};
pub use ef_bgp::{EgressPolicy, EgressSpec, PeeringClass};
pub use gen::{generate, GenConfig, PopSizeClass};
pub use model::{
    Deployment, EyeballAs, Interface, PeerConn, Pop, PopId, PrefixInfo, RouteSpec, RouterId,
    ServedPrefix, Universe,
};
pub use region::Region;
pub use stats::{pop_summaries, route_diversity, PopSummary, RouteDiversity};
