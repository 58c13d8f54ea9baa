//! BGP-4 substrate for the Edge Fabric reproduction.
//!
//! Edge Fabric's central trick is that it never replaces BGP: the controller
//! *wins* the standard BGP decision process by injecting routes with a very
//! high `LOCAL_PREF` over an ordinary BGP session. For that trick to be
//! reproduced honestly, the routers in this workspace run a real decision
//! process over real (wire-encodable) BGP routes, with import policy applied
//! at the edge exactly as a production peering router would.
//!
//! The crate provides, bottom-up:
//!
//! * [`attrs`] — path attributes: origin, AS path, MED, local-pref,
//!   communities.
//! * [`attrstore`] — interned attribute pool ([`AttrStore`]) and the compact
//!   per-candidate decision record ([`RouteRec`]) the full-table RIB layout
//!   stores.
//! * [`message`] — the BGP-4 message types, plus ROUTE-REFRESH (RFC 2918
//!   with RFC 7313 BoRR/EoRR demarcation).
//! * [`wire`] — an RFC 4271 binary codec (4-octet ASNs assumed negotiated,
//!   RFC 6793), plus MP_REACH/MP_UNREACH for IPv6 NLRI.
//! * [`peer`] — peer identity and the four interconnect kinds the paper
//!   distinguishes (transit / private peering / public peering / route
//!   server), plus the controller pseudo-peer.
//! * [`PeeringClass`] — typed per-egress peering policy: settlement-free /
//!   PNI / transit / IXP route-server economics, from which the routing
//!   kind (and its `LOCAL_PREF` band) is derived.
//! * [`route`] — a received route bound to its source peer and egress.
//! * [`policy`] — the two import policies a router runs: the paper's
//!   default tiering policy per peer, and the controller's.
//! * `decision` — the best-path selection ladder over compact records;
//!   [`best_rec`], [`best_rec_where`] and [`rank_recs_into`] are its entry
//!   points.
//! * [`LocRib`] — the Loc-RIB: every peer's candidate decision record per
//!   prefix (the router's per-peer Adj-RIB-In holds the attributes).
//! * [`Session`] — a simplified, clock-free BGP FSM, with
//!   RFC 7606 graded error handling on the receive path.
//! * [`ReconnectGovernor`] — seeded-deterministic reconnect governance
//!   (exponential backoff, decorrelated jitter, flap damping).
//! * [`router`] — a peering router: sessions in, policy, RIBs, decision,
//!   FIB out; emits a BMP-style feed.
//! * [`BmpMessage`] — BGP Monitoring Protocol (RFC 7854 subset) messages,
//!   which is how the controller learns *all* routes rather than only best
//!   ones.
//!
//! # Quick taste
//!
//! ```
//! use ef_bgp::attrs::{AsPath, Origin, PathAttributes};
//! use ef_bgp::attrstore::RouteRec;
//! use ef_bgp::best_rec;
//! use ef_bgp::peer::{PeerId, PeerKind};
//! use ef_bgp::route::{EgressId, RouteSource};
//! use ef_net_types::Asn;
//!
//! let peer = RouteSource { peer: PeerId(1), peer_asn: Asn(65001), kind: PeerKind::PrivatePeer };
//! let transit = RouteSource { peer: PeerId(2), peer_asn: Asn(65010), kind: PeerKind::Transit };
//!
//! // Candidates for one prefix, as the RIB stores them: source, egress and
//! // the decision key, no attributes.
//! let mk = |src: RouteSource, lp: u32, path: &[u32]| {
//!     let attrs = PathAttributes {
//!         local_pref: Some(lp),
//!         as_path: AsPath::sequence(path.iter().map(|a| Asn(*a))),
//!         origin: Origin::Igp,
//!         ..Default::default()
//!     };
//!     RouteRec::new(&attrs, src, EgressId(src.peer.0 as u32))
//! };
//!
//! // Peer route with higher local-pref wins over shorter transit path.
//! let routes = vec![mk(transit, 100, &[65010]), mk(peer, 300, &[65001, 64999])];
//! let best = best_rec(&routes).unwrap();
//! assert_eq!(best.source.peer, PeerId(1));
//! ```

pub mod attrs;
pub mod attrstore;
mod backoff;
mod bmp;
mod decision;
mod egress;
pub mod message;
pub mod peer;
pub mod policy;
mod rib;
pub mod route;
pub mod router;
mod session;
pub mod wire;

pub use attrs::{AsPath, Origin, PathAttributes};
pub use attrstore::{AttrId, AttrStore, DecisionKey, RouteRec};
pub use backoff::ReconnectGovernor;
pub use bmp::{BmpMessage, BmpPeerHeader};
pub use decision::{best_rec, best_rec_where, rank_recs_into};
pub use egress::{
    EgressPolicy, EgressSpec, PeeringClass, DEFAULT_PNI_PORT_USD, DEFAULT_TRANSIT_USD_PER_MBPS,
};
pub use message::{
    BgpMessage, NotificationMessage, OpenMessage, RefreshSubtype, RouteRefreshMessage,
    UpdateMessage,
};
pub use peer::{PeerId, PeerKind};
pub use rib::{BestChange, LocRib};
pub use route::{EgressId, Route, RouteSource};
pub use session::{Millis, Session, SessionConfig, SessionError, SessionEvent, SessionStats};
