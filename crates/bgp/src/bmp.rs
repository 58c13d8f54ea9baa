//! BGP Monitoring Protocol (RFC 7854 subset).
//!
//! Edge Fabric's controller does not peer with the routers to *learn*
//! routes — it taps a BMP feed, which exports every route each peering
//! router accepted (the post-policy Adj-RIB-In), not just the decision
//! winners (paper §4.1). This module types the message subset that feed
//! needs: Initiation, Peer Up, Route Monitoring, Peer Down, and
//! Termination. The router hands the controller these typed messages
//! through an in-process queue, so nothing serialises them.

use std::net::Ipv4Addr;

use ef_net_types::Asn;

use crate::message::UpdateMessage;
use crate::peer::PeerId;

/// Identifies the monitored peer a BMP message concerns (RFC 7854 §4.2's
/// per-peer header, plus the simulation-global [`PeerId`] so consumers need
/// no address↔peer map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BmpPeerHeader {
    /// Simulation-global peer identity.
    pub peer: PeerId,
    /// Peer ASN.
    pub peer_asn: Asn,
    /// Peer BGP router ID.
    pub peer_bgp_id: Ipv4Addr,
    /// Timestamp, milliseconds of simulated time.
    pub timestamp_ms: u64,
}

/// A BMP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmpMessage {
    /// Type 4: monitoring session begins; carries the station name.
    Initiation {
        /// sysName TLV contents.
        sys_name: String,
    },
    /// Type 3: a monitored BGP peer came up.
    PeerUp(BmpPeerHeader),
    /// Type 0: a route change on a monitored peer, as a BGP UPDATE.
    RouteMonitoring {
        /// Which peer the routes came from.
        peer: BmpPeerHeader,
        /// The post-policy UPDATE (announcements and/or withdrawals).
        update: UpdateMessage,
    },
    /// Type 2: a monitored BGP peer went down.
    PeerDown {
        /// Which peer.
        peer: BmpPeerHeader,
        /// RFC reason code (1 = local notification, 2 = local no-notify...).
        reason: u8,
    },
    /// Type 5: monitoring session ends.
    Termination,
}
