//! A peering router (PR): BGP sessions in, import policy, RIBs, decision
//! process, FIB out — plus the BMP feed the Edge Fabric controller taps.
//!
//! This is the device the controller manipulates. It has no knowledge of
//! Edge Fabric beyond one extra BGP session (the controller pseudo-peer)
//! whose routes carry a next hop encoding the target egress interface and a
//! `LOCAL_PREF` high enough to win the decision process — exactly the
//! injection mechanism of paper §4.3.
//!
//! The router models the receive side only. It originates nothing and
//! keeps no Adj-RIB-Out, because Edge Fabric reads what a router learns
//! (its BMP feed) and never what it announces to peers. In ROUTE-REFRESH
//! it is a requester only: it asks a peer to replay its routes and sweeps
//! what the replay leaves out, and it ignores a Request from a peer.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::Ipv4Addr;

use bytes::Bytes;

use ef_net_types::{Asn, CompressedTrie, Prefix};

use crate::attrs::PathAttributes;
use crate::attrstore::{AttrId, AttrStore, DecisionKey, RouteRec};
use crate::bmp::{BmpMessage, BmpPeerHeader};
use crate::message::{BgpMessage, RefreshSubtype, RouteRefreshMessage, UpdateMessage};
use crate::peer::{PeerId, PeerKind};
use crate::policy::{Policy, PolicyVerdict};
use crate::rib::{BestChange, LocRib};
use crate::route::{EgressId, RouteSource};
use crate::session::{Millis, Session, SessionConfig, SessionEvent, SessionStats};

/// Static identity of a router.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Human-readable name, e.g. `"pop3-pr1"`; also the BMP sysName.
    pub name: String,
    /// Local ASN (the content provider's).
    pub asn: Asn,
    /// BGP router ID.
    pub router_id: Ipv4Addr,
}

/// How a peer is attached to this router.
#[derive(Debug, Clone)]
pub struct PeerAttachment {
    /// Global peer identity.
    pub peer: PeerId,
    /// Peer's ASN.
    pub peer_asn: Asn,
    /// Interconnect kind (drives default policy and reporting).
    pub kind: PeerKind,
    /// The egress interface routes from this peer forward onto.
    pub egress: EgressId,
    /// Import policy applied to this peer's announcements.
    pub policy: Policy,
    /// Maximum accepted prefixes from this peer (0 = unlimited). Exceeding
    /// the limit tears the session down with a Cease notification, the
    /// standard max-prefix protection against leaks and fat-finger
    /// announcements.
    pub max_prefixes: usize,
}

/// A forwarding entry: where packets for a prefix leave the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FibEntry {
    /// Egress interface.
    pub egress: EgressId,
    /// The peer whose route won (for attribution in reports).
    pub peer: PeerId,
    /// True when the winning route was a controller override.
    pub is_override: bool,
}

struct PeerState {
    attach: PeerAttachment,
    session: Session,
    /// The peer's Adj-RIB-In: each prefix it announced that passed import
    /// policy, with one reference on its post-policy attributes in the
    /// router's store. The route's decision record is the peer's Loc-RIB
    /// candidate for that prefix.
    adj_in: BTreeMap<Prefix, AttrId>,
    up: bool,
    /// Adj-RIB-In prefixes snapshotted when the peer's BoRR arrived; each
    /// re-announcement during the replay removes its prefix, and whatever
    /// remains at EoRR is stale and swept (RFC 7313 §4.2).
    stale_sweep: Option<BTreeSet<Prefix>>,
}

/// A BGP peering router.
pub struct BgpRouter {
    cfg: RouterConfig,
    peers: HashMap<PeerId, PeerState>,
    /// The one copy of every post-policy attribute set the Adj-RIBs-In
    /// hold; the Loc-RIB keeps decision records only.
    store: AttrStore,
    loc_rib: LocRib,
    fib: Fib,
    bmp_queue: Vec<BmpMessage>,
}

/// Most FIB changes the journal retains. A reader that polls once per
/// controller cycle sees a few hundred; a delta longer than this (session
/// flap, table reload) is cheaper to handle as "everything changed" anyway.
const FIB_JOURNAL_CAP: usize = 8192;

/// The forwarding table with its change journal. A separate struct so the
/// update paths can mutate it while holding borrows into `BgpRouter::peers`.
struct Fib {
    trie: CompressedTrie<FibEntry>,
    /// Monotonic counter bumped on every FIB mutation (install, replace,
    /// remove). Embedders can snapshot it to revalidate cached lookup
    /// results without walking the trie.
    version: u64,
    /// The prefixes mutated by the last `journal.len()` version bumps,
    /// oldest first: `journal[i]` took the FIB from version
    /// `version - journal.len() + i` to the next. Bounded by
    /// [`FIB_JOURNAL_CAP`]; the oldest half is dropped when it fills.
    journal: Vec<Prefix>,
}

impl Fib {
    fn new() -> Self {
        Fib {
            trie: CompressedTrie::new(),
            version: 0,
            journal: Vec::new(),
        }
    }

    /// Installs or removes `prefix`'s entry. A write that leaves the table
    /// as it was (the same peer stays best on the same egress with new
    /// attributes) is not a change: no version bump, no journal entry.
    fn apply_best_change(&mut self, prefix: Prefix, change: BestChange) {
        let changed = match change {
            BestChange::Unchanged => false,
            BestChange::NewBest(route) => {
                let entry = FibEntry {
                    egress: route.egress,
                    peer: route.source.peer,
                    is_override: route.is_override(),
                };
                self.trie.insert(prefix, entry) != Some(entry)
            }
            BestChange::Unreachable => self.trie.remove(&prefix).is_some(),
        };
        if changed {
            if self.journal.len() == FIB_JOURNAL_CAP {
                self.journal.drain(..FIB_JOURNAL_CAP / 2);
            }
            self.journal.push(prefix);
            self.version += 1;
        }
    }

    fn changes_since(&self, version: u64) -> Option<&[Prefix]> {
        let oldest = self.version - self.journal.len() as u64;
        let skip = usize::try_from(version.checked_sub(oldest)?).ok()?;
        self.journal.get(skip..)
    }
}

impl BgpRouter {
    /// Creates a router with no peers. Emits a BMP Initiation so any
    /// monitoring station knows the feed (re)started.
    pub fn new(cfg: RouterConfig) -> Self {
        let bmp_queue = vec![BmpMessage::Initiation {
            sys_name: cfg.name.clone(),
        }];
        BgpRouter {
            cfg,
            peers: HashMap::new(),
            store: AttrStore::new(),
            loc_rib: LocRib::new(),
            fib: Fib::new(),
            bmp_queue,
        }
    }

    /// Local ASN.
    pub fn asn(&self) -> Asn {
        self.cfg.asn
    }

    /// Attaches a peer and starts its session (local side). The remote side
    /// must drive the handshake by exchanging bytes via
    /// [`deliver`](Self::deliver) / `collect_outbox`,
    /// or use [`PeerStub::pump`].
    pub fn add_peer(&mut self, attach: PeerAttachment) {
        let mut session = Session::new(SessionConfig::new(self.cfg.asn, self.cfg.router_id));
        session.open();
        self.peers.insert(
            attach.peer,
            PeerState {
                attach,
                session,
                adj_in: BTreeMap::new(),
                up: false,
                stale_sweep: None,
            },
        );
    }

    /// Removes a peer entirely (deprovisioning), flushing its routes.
    pub fn remove_peer(&mut self, peer: PeerId, now: Millis) {
        if let Some(mut state) = self.peers.remove(&peer) {
            clear_adj_in(&mut state.adj_in, &mut self.store);
            self.flush_peer_routes(peer, &state.attach, now, 2);
        }
    }

    /// True if the session with `peer` is established.
    pub fn peer_up(&self, peer: PeerId) -> bool {
        self.peers.get(&peer).map(|p| p.up).unwrap_or(false)
    }

    /// The attachment metadata for a peer.
    pub fn attachment(&self, peer: PeerId) -> Option<&PeerAttachment> {
        self.peers.get(&peer).map(|p| &p.attach)
    }

    /// Peers attached to this router.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        let mut v: Vec<PeerId> = self.peers.keys().copied().collect();
        v.sort();
        v
    }

    /// Feeds bytes arriving from `peer`'s remote endpoint.
    pub fn deliver(&mut self, peer: PeerId, bytes: &[u8], now: Millis) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        let events = state.session.receive_bytes(bytes);
        self.process_events(peer, events, now);
    }

    /// Drains bytes this router wants to send to `peer`'s remote endpoint.
    pub(crate) fn collect_outbox(&mut self, peer: PeerId) -> Vec<Bytes> {
        self.peers
            .get_mut(&peer)
            .map(|p| p.session.take_outbox())
            .unwrap_or_default()
    }

    fn process_events(&mut self, peer: PeerId, events: Vec<SessionEvent>, now: Millis) {
        for ev in events {
            match ev {
                SessionEvent::Up(open) => {
                    if let Some(state) = self.peers.get_mut(&peer) {
                        state.up = true;
                        self.bmp_queue.push(BmpMessage::PeerUp(BmpPeerHeader {
                            peer,
                            peer_asn: open.asn,
                            peer_bgp_id: open.router_id,
                            timestamp_ms: now,
                        }));
                    }
                }
                SessionEvent::Down(_) => {
                    if let Some(state) = self.peers.get_mut(&peer) {
                        state.up = false;
                        clear_adj_in(&mut state.adj_in, &mut self.store);
                        state.stale_sweep = None;
                        let attach = state.attach.clone();
                        self.flush_peer_routes(peer, &attach, now, 1);
                    }
                }
                SessionEvent::Update(update) => self.apply_update(peer, update, now),
                SessionEvent::Refresh(refresh) => self.handle_refresh(peer, refresh, now),
            }
        }
    }

    /// Handles a ROUTE-REFRESH on `peer`'s session. The router is a refresh
    /// requester only: BoRR snapshots the Adj-RIB-In and EoRR sweeps
    /// whatever the peer's replay did not re-announce. It has no
    /// Adj-RIB-Out to replay, so a Request from the peer is ignored (no run
    /// sends one).
    fn handle_refresh(&mut self, peer: PeerId, refresh: RouteRefreshMessage, now: Millis) {
        match refresh.subtype {
            RefreshSubtype::Request => {}
            RefreshSubtype::BoRR => {
                if let Some(state) = self.peers.get_mut(&peer) {
                    state.stale_sweep = Some(state.adj_in.keys().copied().collect());
                }
            }
            RefreshSubtype::EoRR => {
                let stale = self
                    .peers
                    .get_mut(&peer)
                    .and_then(|state| state.stale_sweep.take());
                if let Some(stale) = stale {
                    if !stale.is_empty() {
                        self.apply_update(peer, UpdateMessage::withdraw(stale), now);
                    }
                }
            }
        }
    }

    /// Asks `peer` to replay its Adj-RIB-Out (RFC 2918) — the recovery path
    /// used after RFC 7606 treat-as-withdraw damage instead of a session
    /// bounce. The sweep of stale paths arms itself when the peer's BoRR
    /// arrives.
    pub fn request_refresh(&mut self, peer: PeerId) -> Result<(), crate::session::SessionError> {
        match self.peers.get_mut(&peer) {
            Some(state) => state.session.request_refresh(),
            None => Err(crate::session::SessionError::NotEstablished),
        }
    }

    /// Snapshot of `peer`'s RFC 7606 / refresh counters, for telemetry.
    pub fn session_stats(&self, peer: PeerId) -> Option<SessionStats> {
        self.peers.get(&peer).map(|state| state.session.stats())
    }

    /// Lifetime sum of RFC 7606 treat-as-withdraw downgrades across all
    /// peers. One pass, no allocation — the health tier reads this every
    /// epoch.
    pub fn updates_downgraded_total(&self) -> u64 {
        self.peers
            .values()
            .map(|state| state.session.stats().updates_downgraded)
            .sum()
    }

    fn flush_peer_routes(
        &mut self,
        peer: PeerId,
        attach: &PeerAttachment,
        now: Millis,
        reason: u8,
    ) {
        let changes = self.loc_rib.withdraw_peer(peer);
        for (prefix, change) in changes {
            self.fib.apply_best_change(prefix, change);
        }
        self.bmp_queue.push(BmpMessage::PeerDown {
            peer: BmpPeerHeader {
                peer,
                peer_asn: attach.peer_asn,
                peer_bgp_id: self.cfg.router_id,
                timestamp_ms: now,
            },
            reason,
        });
    }

    /// Applies UPDATEs `peer` sent, decoded, as if each had just arrived on
    /// its established session: the entry [`PeerStub::announce_table`]
    /// loads a full feed through, skipping only the codec round trip of
    /// frames the stub built itself. Each goes through
    /// [`apply_update`](Self::apply_update), the one import path. Stops if
    /// the session is (or goes) down, as frames after a max-prefix
    /// teardown would not be accepted either.
    fn receive_batch(
        &mut self,
        peer: PeerId,
        updates: impl IntoIterator<Item = UpdateMessage>,
        now: Millis,
    ) {
        for update in updates {
            if !self.peer_up(peer) {
                return;
            }
            self.apply_update(peer, update, now);
        }
    }

    /// Applies an UPDATE from `peer`: import policy, RIBs, FIB, BMP.
    fn apply_update(&mut self, peer: PeerId, update: UpdateMessage, now: Millis) {
        let BgpRouter {
            cfg,
            peers,
            store,
            loc_rib,
            fib,
            ..
        } = self;
        let Some(state) = peers.get_mut(&peer) else {
            return;
        };
        let attach = &state.attach;
        let source = RouteSource {
            peer,
            peer_asn: attach.peer_asn,
            kind: attach.kind,
        };
        let UpdateMessage {
            withdrawn,
            attrs: sent,
            announced,
        } = update;

        // During an enhanced-refresh replay, anything the peer re-announces
        // (or explicitly withdraws) is no longer a sweep candidate.
        if let Some(sweep) = state.stale_sweep.as_mut() {
            for prefix in announced.iter().chain(&withdrawn) {
                sweep.remove(prefix);
            }
        }

        // Accepted announcements grouped by post-policy attribute set (they
        // may diverge from the shared wire set), for the BMP mirror. A set
        // is interned once per UPDATE, for its first prefix; each further
        // prefix carrying it takes a reference without hashing, and its
        // decision record is the group's.
        let mut accepted: Vec<(PathAttributes, AttrId, RouteRec, Vec<Prefix>)> = Vec::new();
        let mut rejected: Vec<Prefix> = Vec::new();
        for prefix in &announced {
            let mut attrs = sent.clone();
            match attach.policy.apply(prefix, &mut attrs) {
                PolicyVerdict::Accept => {
                    let (id, rec) = match accepted.iter_mut().find(|(a, ..)| *a == attrs) {
                        Some((_, id, rec, prefixes)) => {
                            store.retain(*id);
                            prefixes.push(*prefix);
                            (*id, *rec)
                        }
                        None => {
                            // Controller routes name their egress via the
                            // synthetic next hop; organic routes use the
                            // attachment's egress.
                            let egress = if attach.kind == PeerKind::Controller {
                                attrs
                                    .next_hop
                                    .and_then(EgressId::from_next_hop)
                                    .unwrap_or(attach.egress)
                            } else {
                                attach.egress
                            };
                            let id = store.intern(&attrs);
                            let rec = RouteRec::new(&attrs, source, egress);
                            accepted.push((attrs, id, rec, vec![*prefix]));
                            (id, rec)
                        }
                    };
                    if let Some(old) = state.adj_in.insert(*prefix, id) {
                        store.release(old);
                    }
                    let change = loc_rib.install(*prefix, rec);
                    fib.apply_best_change(*prefix, change);
                }
                PolicyVerdict::Reject => {
                    // A re-announcement that now fails policy removes any
                    // previously accepted route (treat as withdraw).
                    if let Some(old) = state.adj_in.remove(prefix) {
                        store.release(old);
                        rejected.push(*prefix);
                        let change = loc_rib.withdraw(prefix, peer);
                        fib.apply_best_change(*prefix, change);
                    }
                }
            }
        }

        for prefix in &withdrawn {
            if let Some(old) = state.adj_in.remove(prefix) {
                store.release(old);
            }
            let change = loc_rib.withdraw(prefix, peer);
            fib.apply_best_change(*prefix, change);
        }

        // Max-prefix protection: a peer exceeding its limit is cut off.
        if attach.max_prefixes > 0 && state.adj_in.len() > attach.max_prefixes {
            let _ = state.session.stop();
            state.up = false;
            clear_adj_in(&mut state.adj_in, store);
            let attach = state.attach.clone();
            self.flush_peer_routes(peer, &attach, now, 3);
            return;
        }
        let header = BmpPeerHeader {
            peer,
            peer_asn: attach.peer_asn,
            peer_bgp_id: cfg.router_id,
            timestamp_ms: now,
        };
        // Debug builds check the Adj-RIB-In invariant on every prefix this
        // UPDATE touched.
        if cfg!(debug_assertions) {
            if let Some(state) = self.peers.get(&peer) {
                for prefix in announced.iter().chain(&withdrawn) {
                    if let Some(&id) = state.adj_in.get(prefix) {
                        self.assert_adj_in_route(peer, prefix, id);
                    }
                }
            }
        }

        // Mirror the post-policy view onto the BMP feed: the explicit
        // withdrawals, then policy's, then one message per accepted set.
        let mut withdrawals = withdrawn;
        withdrawals.extend(rejected);
        if !withdrawals.is_empty() {
            self.bmp_queue.push(BmpMessage::RouteMonitoring {
                peer: header,
                update: UpdateMessage::withdraw(withdrawals),
            });
        }
        for (attrs, _, _, announced) in accepted {
            self.bmp_queue.push(BmpMessage::RouteMonitoring {
                peer: header,
                update: UpdateMessage {
                    withdrawn: Vec::new(),
                    attrs,
                    announced,
                },
            });
        }
    }

    /// Monotonic FIB version: changes iff the FIB changed since the last
    /// observation, so `fib_version() == cached_version` proves every cached
    /// [`fib_lookup`](Self::fib_lookup) result is still current.
    pub fn fib_version(&self) -> u64 {
        self.fib.version
    }

    /// The prefixes whose FIB entry was installed, replaced or removed
    /// since the FIB was at `version`, oldest first (a prefix repeats if it
    /// changed more than once); empty at the current version. Longest-match
    /// results can differ from those at `version` only for keys one of
    /// these prefixes contains. `None` when the bounded journal no longer
    /// reaches back to `version`, or the router never issued it: the caller
    /// must assume everything changed.
    pub fn fib_changes_since(&self, version: u64) -> Option<&[Prefix]> {
        self.fib.changes_since(version)
    }

    /// Longest-prefix-match forwarding lookup.
    pub fn fib_lookup(&self, key: Prefix) -> Option<(Prefix, &FibEntry)> {
        self.fib.trie.longest_match(key)
    }

    /// The exact FIB entry for a prefix, if installed.
    pub fn fib_entry(&self, prefix: &Prefix) -> Option<&FibEntry> {
        self.fib.trie.get(prefix)
    }

    /// The router's full view of candidates for a prefix (all peers).
    pub fn candidates(&self, prefix: &Prefix) -> &[RouteRec] {
        self.loc_rib.candidates(prefix)
    }

    /// Candidates ranked best-first into a reused scratch buffer.
    pub fn ranked_into(&self, prefix: &Prefix, out: &mut Vec<RouteRec>) {
        self.loc_rib.ranked_into(prefix, out)
    }

    /// The decision winner for a prefix.
    pub fn best(&self, prefix: &Prefix) -> Option<&RouteRec> {
        self.loc_rib.best(prefix)
    }

    /// Iterates `(prefix, all candidates)`.
    pub fn iter_candidates(&self) -> impl Iterator<Item = (&Prefix, &[RouteRec])> {
        self.loc_rib.iter()
    }

    /// Total candidate routes across all prefixes.
    pub fn rib_route_count(&self) -> usize {
        self.loc_rib.route_count()
    }

    /// Distinct post-policy attribute sets the Adj-RIBs-In hold.
    pub fn rib_distinct_attrs(&self) -> usize {
        self.store.distinct()
    }

    /// Approximate resident bytes of the Loc-RIB's compact layout plus the
    /// attribute store.
    pub fn rib_approx_bytes(&self) -> usize {
        self.loc_rib.approx_bytes() + self.store.approx_bytes()
    }

    /// Re-lays the Loc-RIB pool out prefix-sorted with no slack — call once
    /// after a bulk table load to finish the batched build.
    pub fn compact_rib(&mut self) {
        self.loc_rib.compact()
    }

    /// Drains queued BMP messages (the monitoring feed).
    pub fn drain_bmp(&mut self) -> Vec<BmpMessage> {
        std::mem::take(&mut self.bmp_queue)
    }

    /// The invariant tying `peer`'s Adj-RIB-In route for `prefix` (held as
    /// `id`) to the Loc-RIB: exactly one candidate there comes from `peer`,
    /// and its decision key is the held attributes' key.
    fn assert_adj_in_route(&self, peer: PeerId, prefix: &Prefix, id: AttrId) {
        let mut mine = self
            .loc_rib
            .candidates(prefix)
            .iter()
            .filter(|r| r.source.peer == peer);
        let (rec, extra) = (mine.next(), mine.next());
        assert!(
            extra.is_none() && rec.map(|r| r.key) == Some(DecisionKey::of(self.store.attrs(id))),
            "{prefix} is in {peer:?}'s Adj-RIB-In without exactly one matching Loc-RIB candidate from it"
        );
    }

    /// Produces the initial-state dump a freshly connected BMP station
    /// receives (RFC 7854 §3.3): Initiation, a PeerUp per established
    /// peer, and RouteMonitoring for every route currently in each
    /// Adj-RIB-In, in prefix order. A restarted Edge Fabric controller
    /// resynchronizes its collector from exactly this snapshot.
    pub fn bmp_snapshot(&self, now: Millis) -> Vec<BmpMessage> {
        let mut out = vec![BmpMessage::Initiation {
            sys_name: self.cfg.name.clone(),
        }];
        let mut peers: Vec<&PeerState> = self.peers.values().collect();
        peers.sort_by_key(|p| p.attach.peer);
        for state in peers {
            if !state.up {
                continue;
            }
            let header = BmpPeerHeader {
                peer: state.attach.peer,
                peer_asn: state.attach.peer_asn,
                peer_bgp_id: self.cfg.router_id,
                timestamp_ms: now,
            };
            out.push(BmpMessage::PeerUp(header));
            for (prefix, &id) in &state.adj_in {
                if cfg!(debug_assertions) {
                    self.assert_adj_in_route(state.attach.peer, prefix, id);
                }
                out.push(BmpMessage::RouteMonitoring {
                    peer: header,
                    update: UpdateMessage {
                        withdrawn: Vec::new(),
                        attrs: self.store.attrs(id).clone(),
                        announced: vec![*prefix],
                    },
                });
            }
        }
        out
    }
}

/// Empties an Adj-RIB-In, releasing its references.
fn clear_adj_in(adj_in: &mut BTreeMap<Prefix, AttrId>, store: &mut AttrStore) {
    for id in std::mem::take(adj_in).into_values() {
        store.release(id);
    }
}

/// The next hop a [`PeerStub`] frame carries when an IPv4 announcement
/// has none. Any next hop satisfies the wire requirement; organic peers'
/// egress is fixed by the attachment anyway.
const STUB_NEXT_HOP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// `attrs` as a [`PeerStub`] puts them on the wire for `prefix`: an IPv4
/// announcement without a next hop gets the stub's (192.0.2.1), so the
/// frame encodes validly. Every frame a simulated peer builds goes through
/// this one fill.
pub fn stub_frame_attrs(prefix: &Prefix, mut attrs: PathAttributes) -> PathAttributes {
    if attrs.next_hop.is_none() && prefix.is_v4() {
        attrs.next_hop = Some(STUB_NEXT_HOP);
    }
    attrs
}

/// True when the codec carries `update`'s attribute set unchanged: a
/// one-prefix frame of it encodes, and decodes back equal. This is what
/// makes handing the router a packed UPDATE without the wire round trip
/// the same as sending it.
fn codec_delivers(update: &UpdateMessage) -> bool {
    let Some(&prefix) = update.announced.first() else {
        return true;
    };
    let sent = BgpMessage::Update(UpdateMessage::announce(prefix, update.attrs.clone()));
    let got = crate::wire::encode_message(&sent)
        .and_then(|mut frame| crate::wire::decode_message(&mut frame));
    got.as_ref() == Ok(&sent)
}

/// A minimal remote BGP speaker: holds one session toward a router and
/// sends what its owner tells it to. The topology uses one stub per peer
/// interconnect; the Edge Fabric injector uses the same machinery for the
/// controller pseudo-peer.
///
/// The stub keeps no per-route state. Its owner holds the table the peer
/// announces, as `(prefix, handle)` pairs into an [`AttrStore`], and hands
/// it in whenever the stub must send it: the full feed at session-up
/// ([`announce_table`](Self::announce_table)) and the answer to a
/// ROUTE-REFRESH request, which [`pump`](Self::pump) surfaces and
/// [`answer_refresh`](Self::answer_refresh) sends.
pub struct PeerStub {
    /// Identity this stub registers as on the router.
    pub peer: PeerId,
    session: Session,
}

impl PeerStub {
    /// Creates the stub's session (not yet connected).
    pub fn new(peer: PeerId, asn: Asn, router_id: Ipv4Addr) -> Self {
        let mut session = Session::new(SessionConfig::new(asn, router_id));
        session.open();
        PeerStub { peer, session }
    }

    /// True once the session is established.
    pub fn is_established(&self) -> bool {
        self.session.is_established()
    }

    /// Runs the handshake / delivers pending data both ways until
    /// quiescent. Returns whether the router sent a ROUTE-REFRESH request
    /// meanwhile; the stub does not know its table, so the owner answers
    /// it with [`answer_refresh`](Self::answer_refresh).
    pub fn pump(&mut self, router: &mut BgpRouter, now: Millis) -> bool {
        let mut refresh = false;
        for _ in 0..8 {
            let to_router = self.session.take_outbox();
            let mut moved = !to_router.is_empty();
            for bytes in to_router {
                router.deliver(self.peer, &bytes, now);
            }
            let to_stub = router.collect_outbox(self.peer);
            moved |= !to_stub.is_empty();
            for bytes in to_stub {
                for event in self.session.receive_bytes(&bytes) {
                    refresh |= matches!(
                        event,
                        SessionEvent::Refresh(r) if r.subtype == RefreshSubtype::Request
                    );
                }
            }
            if !moved {
                break;
            }
        }
        refresh
    }

    /// Answers a ROUTE-REFRESH request by replaying `routes`, the owner's
    /// table as handles into `table`: BoRR, one UPDATE per route, EoRR
    /// (RFC 7313), then pumps, so the router's sweep removes whatever the
    /// replay left out.
    pub fn answer_refresh(
        &mut self,
        router: &mut BgpRouter,
        table: &AttrStore,
        routes: impl IntoIterator<Item = (Prefix, AttrId)>,
        now: Millis,
    ) {
        let _ = self.session.send_refresh_marker(RefreshSubtype::BoRR);
        for (prefix, id) in routes {
            let attrs = stub_frame_attrs(&prefix, table.attrs(id).clone());
            let _ = self
                .session
                .send_update(UpdateMessage::announce(prefix, attrs));
        }
        let _ = self.session.send_refresh_marker(RefreshSubtype::EoRR);
        self.pump(router, now);
    }

    /// Announces a prefix with the given attributes and pumps.
    ///
    /// INVARIANT: a single-prefix announce with a next hop is far below the
    /// wire size ceiling, so on an established session this cannot fail;
    /// callers pump/establish first. A refused send is dropped, never
    /// panicked.
    pub fn announce(
        &mut self,
        router: &mut BgpRouter,
        prefix: Prefix,
        attrs: PathAttributes,
        now: Millis,
    ) {
        let update = UpdateMessage::announce(prefix, stub_frame_attrs(&prefix, attrs));
        let _ = self.try_send_update(router, update, now);
    }

    /// Announces a full feed, the table a peer sends right after
    /// session-up, as one batch. The result is what
    /// [`announce`](Self::announce)ing the routes one by one, in order,
    /// leaves on the router: per prefix the same candidates, best route,
    /// FIB entry and `bmp_snapshot`. What differs is the path: the routes
    /// are packed into one UPDATE per (attribute set, address family),
    /// and the router takes them decoded, without the codec round trip or
    /// session pumping (debug builds check that the codec would have
    /// delivered each one unchanged). Each still goes through the router's
    /// one import path: policy, Adj-RIB-In, Loc-RIB, FIB, BMP. Only
    /// distinct prefixes are packed together, since their order does not
    /// matter; a prefix announced again first sends what is packed.
    ///
    /// `routes` name their attribute sets by handle into `table`, so the
    /// stub packs by handle and copies each set once per UPDATE rather
    /// than once per route.
    pub fn announce_table(
        &mut self,
        router: &mut BgpRouter,
        table: &AttrStore,
        routes: impl IntoIterator<Item = (Prefix, AttrId)>,
        now: Millis,
    ) {
        if !self.session.is_established() {
            return;
        }
        // (`table` handle, prefixes), in first-announced order; each
        // pack's position by (handle, is v4); the prefixes packed so far.
        let mut packed: Vec<(AttrId, Vec<Prefix>)> = Vec::new();
        let mut pack_of: HashMap<(AttrId, bool), usize> = HashMap::new();
        let mut pending: HashSet<Prefix> = HashSet::new();
        for (prefix, set) in routes {
            if !pending.insert(prefix) {
                self.send_packed(router, table, &mut packed, now);
                pack_of.clear();
                pending.clear();
                pending.insert(prefix);
            }
            let pack = *pack_of.entry((set, prefix.is_v4())).or_insert_with(|| {
                packed.push((set, Vec::new()));
                packed.len() - 1
            });
            packed[pack].1.push(prefix);
        }
        self.send_packed(router, table, &mut packed, now);
        self.pump(router, now);
    }

    /// Hands the packed UPDATEs to `router` and empties `packed`.
    fn send_packed(
        &self,
        router: &mut BgpRouter,
        table: &AttrStore,
        packed: &mut Vec<(AttrId, Vec<Prefix>)>,
        now: Millis,
    ) {
        let updates = packed.drain(..).map(|(id, announced)| {
            let update = UpdateMessage {
                withdrawn: Vec::new(),
                attrs: stub_frame_attrs(&announced[0], table.attrs(id).clone()),
                announced,
            };
            debug_assert!(
                codec_delivers(&update),
                "the codec would alter this UPDATE: {:?}",
                update.attrs
            );
            update
        });
        router.receive_batch(self.peer, updates, now);
    }

    /// Sends a raw UPDATE and pumps, surfacing session refusal as a typed
    /// error (the override injector's retry path needs to see failures).
    pub fn try_send_update(
        &mut self,
        router: &mut BgpRouter,
        update: UpdateMessage,
        now: Millis,
    ) -> Result<(), crate::session::SessionError> {
        self.session.send_update(update)?;
        self.pump(router, now);
        Ok(())
    }

    /// Tears the session down administratively and pumps the NOTIFICATION.
    pub fn shutdown(&mut self, router: &mut BgpRouter, now: Millis) {
        let _ = self.session.stop();
        self.pump(router, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AsPath, PathAttributes};

    const LOCAL_AS: Asn = Asn(32934);

    fn router() -> BgpRouter {
        BgpRouter::new(RouterConfig {
            name: "pop1-pr1".into(),
            asn: LOCAL_AS,
            router_id: Ipv4Addr::new(10, 0, 0, 1),
        })
    }

    fn attach(peer: u64, asn: u32, kind: PeerKind, egress: u32) -> PeerAttachment {
        PeerAttachment {
            peer: PeerId(peer),
            peer_asn: Asn(asn),
            kind,
            egress: EgressId(egress),
            policy: Policy::default_import(LOCAL_AS, kind),
            max_prefixes: 0,
        }
    }

    fn stub(peer: u64, asn: u32) -> PeerStub {
        PeerStub::new(
            PeerId(peer),
            Asn(asn),
            Ipv4Addr::new(10, 9, (peer & 0xff) as u8, 1),
        )
    }

    fn attrs(path: &[u32]) -> PathAttributes {
        PathAttributes {
            as_path: AsPath::sequence(path.iter().map(|a| Asn(*a))),
            ..Default::default()
        }
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A peer's table as its owner holds it for a refresh answer: each
    /// `(prefix, path)` as a handle into one store.
    fn table(routes: &[(&str, &[u32])]) -> (AttrStore, Vec<(Prefix, AttrId)>) {
        let mut store = AttrStore::new();
        let table = routes
            .iter()
            .map(|(prefix, path)| (p(prefix), store.intern(&attrs(path))))
            .collect();
        (store, table)
    }

    fn wire_peer(r: &mut BgpRouter, peer: u64, asn: u32, kind: PeerKind, egress: u32) -> PeerStub {
        r.add_peer(attach(peer, asn, kind, egress));
        let mut s = stub(peer, asn);
        s.pump(r, 0);
        assert!(s.is_established(), "handshake completed");
        assert!(r.peer_up(PeerId(peer)));
        s
    }

    /// Number of prefixes in the FIB.
    fn fib_size(r: &BgpRouter) -> usize {
        r.fib.trie.len()
    }

    #[test]
    fn peer_establishes_and_announces() {
        let mut r = router();
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        s.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        let best = *r.best(&p("203.0.113.0/24")).unwrap();
        assert_eq!(best.source.peer, PeerId(1));
        assert_eq!(best.egress, EgressId(11));
        assert_eq!(
            best.key.local_pref,
            PeerKind::PrivatePeer.default_local_pref(),
            "import policy applied"
        );
        let fib = r.fib_entry(&p("203.0.113.0/24")).unwrap();
        assert_eq!(fib.egress, EgressId(11));
        assert!(!fib.is_override);
    }

    #[test]
    fn decision_prefers_peer_over_transit() {
        let mut r = router();
        let mut transit = wire_peer(&mut r, 1, 65010, PeerKind::Transit, 10);
        let mut peer = wire_peer(&mut r, 2, 65001, PeerKind::PublicPeer, 20);
        // Transit path is shorter, but the tiered policy prefers the peer.
        transit.announce(&mut r, p("203.0.113.0/24"), attrs(&[65010]), 1);
        peer.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001, 64999]), 1);
        assert_eq!(
            r.fib_entry(&p("203.0.113.0/24")).unwrap().egress,
            EgressId(20)
        );
        assert_eq!(r.candidates(&p("203.0.113.0/24")).len(), 2);
    }

    #[test]
    fn withdraw_falls_back_to_next_best() {
        let mut r = router();
        let mut transit = wire_peer(&mut r, 1, 65010, PeerKind::Transit, 10);
        let mut peer = wire_peer(&mut r, 2, 65001, PeerKind::PrivatePeer, 20);
        transit.announce(&mut r, p("203.0.113.0/24"), attrs(&[65010]), 1);
        peer.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        assert_eq!(
            r.fib_entry(&p("203.0.113.0/24")).unwrap().egress,
            EgressId(20)
        );
        peer.try_send_update(&mut r, UpdateMessage::withdraw([p("203.0.113.0/24")]), 2)
            .unwrap();
        assert_eq!(
            r.fib_entry(&p("203.0.113.0/24")).unwrap().egress,
            EgressId(10)
        );
    }

    #[test]
    fn session_shutdown_flushes_routes() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 2, 65001, PeerKind::PrivatePeer, 20);
        peer.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        assert_eq!(fib_size(&r), 1);
        peer.shutdown(&mut r, 2);
        assert!(!r.peer_up(PeerId(2)));
        assert_eq!(fib_size(&r), 0);
        assert!(r.best(&p("203.0.113.0/24")).is_none());
    }

    #[test]
    fn policy_rejection_keeps_rib_clean() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 1, 65001, PeerKind::PublicPeer, 10);
        // /25 is over-specific under the default policy.
        peer.announce(&mut r, p("203.0.113.0/25"), attrs(&[65001]), 1);
        assert!(r.best(&p("203.0.113.0/25")).is_none());
        assert_eq!(fib_size(&r), 0);
    }

    #[test]
    fn as_loop_is_rejected() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 1, 65001, PeerKind::Transit, 10);
        peer.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001, LOCAL_AS.0]), 1);
        assert!(r.best(&p("203.0.113.0/24")).is_none());
    }

    #[test]
    fn controller_override_steers_fib_and_reverts() {
        let mut r = router();
        let mut organic = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        let mut transit = wire_peer(&mut r, 2, 65010, PeerKind::Transit, 12);
        organic.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        transit.announce(&mut r, p("203.0.113.0/24"), attrs(&[65010]), 1);
        assert_eq!(
            r.fib_entry(&p("203.0.113.0/24")).unwrap().egress,
            EgressId(11)
        );

        // Controller pseudo-peer with a marker-checking policy.
        r.add_peer(PeerAttachment {
            peer: PeerId(100),
            peer_asn: LOCAL_AS,
            kind: PeerKind::Controller,
            egress: EgressId(0),
            policy: Policy::controller_import(),
            max_prefixes: 0,
        });
        let mut ctrl = stub(100, LOCAL_AS.0);
        ctrl.pump(&mut r, 2);
        assert!(r.peer_up(PeerId(100)));

        // Inject an override steering the prefix to the transit interface.
        let mut oattrs = PathAttributes {
            next_hop: Some(EgressId(12).to_next_hop().unwrap()),
            ..Default::default()
        };
        oattrs.add_community(crate::policy::OVERRIDE_MARKER);
        ctrl.announce(&mut r, p("203.0.113.0/24"), oattrs, 3);

        let fib = r.fib_entry(&p("203.0.113.0/24")).unwrap();
        assert_eq!(fib.egress, EgressId(12), "override steered the FIB");
        assert!(fib.is_override);

        // Withdrawal reverts to the organic best.
        ctrl.try_send_update(&mut r, UpdateMessage::withdraw([p("203.0.113.0/24")]), 4)
            .unwrap();
        let fib = r.fib_entry(&p("203.0.113.0/24")).unwrap();
        assert_eq!(fib.egress, EgressId(11));
        assert!(!fib.is_override);
    }

    #[test]
    fn unmarked_controller_route_is_rejected() {
        let mut r = router();
        r.add_peer(PeerAttachment {
            peer: PeerId(100),
            peer_asn: LOCAL_AS,
            kind: PeerKind::Controller,
            egress: EgressId(0),
            policy: Policy::controller_import(),
            max_prefixes: 0,
        });
        let mut ctrl = stub(100, LOCAL_AS.0);
        ctrl.pump(&mut r, 0);
        ctrl.announce(
            &mut r,
            p("203.0.113.0/24"),
            PathAttributes {
                next_hop: Some(EgressId(5).to_next_hop().unwrap()),
                ..Default::default()
            },
            1,
        );
        assert!(r.best(&p("203.0.113.0/24")).is_none());
    }

    #[test]
    fn bmp_feed_reports_lifecycle() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        peer.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 5);
        peer.try_send_update(&mut r, UpdateMessage::withdraw([p("203.0.113.0/24")]), 6)
            .unwrap();
        peer.shutdown(&mut r, 7);

        let feed = r.drain_bmp();
        // Initiation, PeerUp, RouteMonitoring announce, RouteMonitoring
        // withdraw, PeerDown.
        assert!(matches!(
            feed[..],
            [
                BmpMessage::Initiation { .. },
                BmpMessage::PeerUp(_),
                BmpMessage::RouteMonitoring { .. },
                BmpMessage::RouteMonitoring { .. },
                BmpMessage::PeerDown { .. },
            ]
        ));

        // The announce message carries post-policy attributes.
        match &feed[2] {
            BmpMessage::RouteMonitoring { update, .. } => {
                assert_eq!(
                    update.attrs.local_pref,
                    Some(PeerKind::PrivatePeer.default_local_pref())
                );
                assert!(update
                    .attrs
                    .has_community(PeerKind::PrivatePeer.tag_community()));
            }
            other => panic!("expected RouteMonitoring, got {other:?}"),
        }
        // Draining again yields nothing.
        assert!(r.drain_bmp().is_empty());
    }

    #[test]
    fn fib_longest_match() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 1, 65001, PeerKind::Transit, 11);
        peer.announce(&mut r, p("10.0.0.0/8"), attrs(&[65001]), 1);
        peer.announce(&mut r, p("10.1.0.0/16"), attrs(&[65001, 65002]), 1);
        let (matched, _) = r.fib_lookup(p("10.1.2.0/24")).unwrap();
        assert_eq!(matched, p("10.1.0.0/16"));
        let (matched, _) = r.fib_lookup(p("10.2.0.0/24")).unwrap();
        assert_eq!(matched, p("10.0.0.0/8"));
    }

    #[test]
    fn max_prefix_limit_tears_session_down() {
        let mut r = router();
        r.add_peer(PeerAttachment {
            peer: PeerId(1),
            peer_asn: Asn(65001),
            kind: PeerKind::PublicPeer,
            egress: EgressId(10),
            policy: Policy::default_import(LOCAL_AS, PeerKind::PublicPeer),
            max_prefixes: 3,
        });
        let mut s = stub(1, 65001);
        s.pump(&mut r, 0);
        for i in 0..3 {
            s.announce(&mut r, p(&format!("50.0.{i}.0/24")), attrs(&[65001]), 1);
        }
        assert!(r.peer_up(PeerId(1)));
        assert_eq!(fib_size(&r), 3);
        // The fourth prefix breaches the limit: session reset, routes flushed.
        s.announce(&mut r, p("50.0.3.0/24"), attrs(&[65001]), 2);
        assert!(!r.peer_up(PeerId(1)), "session torn down");
        assert_eq!(fib_size(&r), 0, "all routes flushed");
        // BMP reports the PeerDown with the max-prefix reason code.
        let feed = r.drain_bmp();
        assert!(feed
            .iter()
            .any(|m| matches!(m, BmpMessage::PeerDown { reason: 3, .. })));
    }

    #[test]
    fn session_reestablishes_after_teardown() {
        let mut r = router();
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        s.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        s.shutdown(&mut r, 2);
        assert!(!r.peer_up(PeerId(1)));
        assert_eq!(fib_size(&r), 0);

        // Operational recovery: re-provision the peer (fresh sessions both
        // sides) and re-announce.
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        s.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 10);
        assert!(r.peer_up(PeerId(1)));
        assert_eq!(
            r.fib_entry(&p("203.0.113.0/24")).unwrap().egress,
            EgressId(11)
        );
    }

    #[test]
    fn fib_version_tracks_fib_mutations_only() {
        let mut r = router();
        let v0 = r.fib_version();
        let mut transit = wire_peer(&mut r, 1, 65010, PeerKind::Transit, 10);
        let mut peer = wire_peer(&mut r, 2, 65001, PeerKind::PrivatePeer, 20);
        assert_eq!(
            r.fib_version(),
            v0,
            "session handshakes leave the FIB alone"
        );

        transit.announce(&mut r, p("203.0.113.0/24"), attrs(&[65010]), 1);
        let v1 = r.fib_version();
        assert!(v1 > v0, "install bumps the version");

        // A losing candidate changes the RIB but not the FIB best.
        peer.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        let v2 = r.fib_version();
        assert!(v2 > v1, "best switched to the preferred peer");

        // Re-announcing the identical losing route is FIB-invisible.
        transit.announce(&mut r, p("203.0.113.0/24"), attrs(&[65010]), 2);
        assert_eq!(r.fib_version(), v2, "unchanged best leaves the version");

        // The winner re-announces with new attributes and stays best: the
        // RIB reports a new best, the FIB entry written equals the old one.
        peer.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001, 65001]), 2);
        assert_eq!(r.best(&p("203.0.113.0/24")).unwrap().source.peer, PeerId(2));
        assert_eq!(r.fib_version(), v2, "a no-op FIB write is not a change");
        assert_eq!(r.fib_changes_since(v2), Some(&[][..]));

        // A new community is outside the decision key: the record stays,
        // and BMP carries the new set.
        let best = r.best(&p("203.0.113.0/24")).copied();
        let mut tagged = attrs(&[65001, 65001]);
        tagged.add_community(ef_net_types::Community::new(65001, 42));
        peer.announce(&mut r, p("203.0.113.0/24"), tagged, 2);
        assert_eq!(r.best(&p("203.0.113.0/24")).copied(), best);
        assert_eq!(r.fib_version(), v2);
        assert!(snapshot_routes(&r)
            .iter()
            .any(|(_, _, a)| a.has_community(ef_net_types::Community::new(65001, 42))));

        peer.shutdown(&mut r, 3);
        assert!(
            r.fib_version() > v2,
            "flushing a peer's winning route bumps the version"
        );
    }

    #[test]
    fn fib_journal_lists_mutated_prefixes_in_order() {
        let mut r = router();
        let mut transit = wire_peer(&mut r, 1, 65010, PeerKind::Transit, 10);
        let mut peer = wire_peer(&mut r, 2, 65001, PeerKind::PrivatePeer, 20);
        let v0 = r.fib_version();
        assert_eq!(r.fib_changes_since(v0), Some(&[][..]), "empty at current");

        let (a, b) = (p("203.0.113.0/24"), p("198.51.100.0/24"));
        transit.announce(&mut r, a, attrs(&[65010]), 1); // install a
        transit.announce(&mut r, b, attrs(&[65010]), 1); // install b
        let v1 = r.fib_version();
        peer.announce(&mut r, a, attrs(&[65001]), 2); // replace a
        peer.announce(&mut r, b, attrs(&[65001, 65001]), 2); // replace b
        transit.announce(&mut r, a, attrs(&[65010, 65010]), 3); // loser: no change
        transit
            .try_send_update(&mut r, UpdateMessage::withdraw([b]), 3)
            .unwrap(); // loser withdrawn: no change
        peer.try_send_update(&mut r, UpdateMessage::withdraw([b]), 4)
            .unwrap(); // remove b

        assert_eq!(r.fib_changes_since(v0), Some(&[a, b, a, b, b][..]));
        assert_eq!(r.fib_changes_since(v1), Some(&[a, b, b][..]));
        assert_eq!(r.fib_version(), v0 + 5, "one version per journal entry");
        assert_eq!(r.fib_changes_since(r.fib_version()), Some(&[][..]));
        assert_eq!(
            r.fib_changes_since(r.fib_version() + 1),
            None,
            "never issued"
        );
    }

    #[test]
    fn fib_journal_is_bounded_and_reports_overflow() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        let v0 = r.fib_version();
        // Nobody reads the journal while one prefix flaps past its capacity.
        let flapping = p("203.0.113.0/24");
        for round in 0..FIB_JOURNAL_CAP as u64 {
            peer.announce(&mut r, flapping, attrs(&[65001]), round);
            peer.try_send_update(&mut r, UpdateMessage::withdraw([flapping]), round)
                .unwrap();
            assert!(r.fib.journal.len() <= FIB_JOURNAL_CAP);
        }
        assert_eq!(r.fib_version(), v0 + 2 * FIB_JOURNAL_CAP as u64);
        assert!(r.fib.journal.capacity() <= 2 * FIB_JOURNAL_CAP);
        assert_eq!(r.fib_changes_since(v0), None, "wrapped past v0");

        // Whatever the journal still reaches is reported exactly.
        let recent = r.fib_version() - 3;
        assert_eq!(r.fib_changes_since(recent), Some(&[flapping; 3][..]));
    }

    #[test]
    fn refresh_heals_treat_as_withdraw_and_sweeps_stale_paths() {
        let mut r = router();
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        s.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        s.announce(&mut r, p("198.51.100.0/24"), attrs(&[65001]), 1);
        assert_eq!(fib_size(&r), 2);

        // A corrupted re-announcement of the first prefix: RFC 7606
        // downgrades it to a withdrawal instead of resetting the session.
        let mut reattrs = attrs(&[65001]);
        reattrs.next_hop = Some(Ipv4Addr::new(192, 0, 2, 1));
        let update = UpdateMessage::announce(p("203.0.113.0/24"), reattrs);
        let mut raw = crate::wire::encode_message(&crate::message::BgpMessage::Update(update))
            .unwrap()
            .to_vec();
        let wd_len = u16::from_be_bytes([raw[19], raw[20]]) as usize;
        raw[19 + 2 + wd_len + 2 + 2] = 0xEE; // ORIGIN length byte → garbage
        r.deliver(PeerId(1), &raw, 2);
        assert!(r.peer_up(PeerId(1)), "session survived the corruption");
        assert!(r.fib_entry(&p("203.0.113.0/24")).is_none(), "route lost");
        assert_eq!(r.session_stats(PeerId(1)).unwrap().updates_downgraded, 1);

        // A ghost route that is not in the peer's table (as if
        // its withdrawal was lost in the same damage window).
        let mut ghost_attrs = attrs(&[65001]);
        ghost_attrs.next_hop = Some(Ipv4Addr::new(192, 0, 2, 1));
        let ghost = UpdateMessage::announce(p("192.0.2.0/24"), ghost_attrs);
        let ghost_raw =
            crate::wire::encode_message(&crate::message::BgpMessage::Update(ghost)).unwrap();
        r.deliver(PeerId(1), &ghost_raw, 3);
        assert!(r.fib_entry(&p("192.0.2.0/24")).is_some());

        // ROUTE-REFRESH instead of a bounce: the replay of the peer's table
        // restores the lost route and the EoRR sweep removes the ghost.
        let (store, table) = table(&[("203.0.113.0/24", &[65001]), ("198.51.100.0/24", &[65001])]);
        r.request_refresh(PeerId(1)).unwrap();
        assert!(s.pump(&mut r, 4), "the request reached the stub");
        s.answer_refresh(&mut r, &store, table, 4);
        assert!(r.peer_up(PeerId(1)), "no session flap");
        assert!(r.fib_entry(&p("203.0.113.0/24")).is_some(), "healed");
        assert!(r.fib_entry(&p("198.51.100.0/24")).is_some(), "kept");
        assert!(r.fib_entry(&p("192.0.2.0/24")).is_none(), "ghost swept");
        assert_eq!(r.session_stats(PeerId(1)).unwrap().refreshes_sent, 1);
        assert_eq!(s.session.stats().refreshes_answered, 1);
        // No PeerDown appeared on the BMP feed at any point.
        assert!(r
            .drain_bmp()
            .iter()
            .all(|m| !matches!(m, BmpMessage::PeerDown { .. })));
    }

    #[test]
    fn withdraw_during_replay_is_not_resurrected() {
        let mut r = router();
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        s.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        // The peer withdraws before answering: the replay must not bring
        // the prefix back, and the sweep must not double-withdraw.
        s.try_send_update(&mut r, UpdateMessage::withdraw([p("203.0.113.0/24")]), 2)
            .unwrap();
        r.request_refresh(PeerId(1)).unwrap();
        assert!(s.pump(&mut r, 3));
        let (store, table) = table(&[]);
        s.answer_refresh(&mut r, &store, table, 3);
        assert!(r.fib_entry(&p("203.0.113.0/24")).is_none());
        assert!(r.peer_up(PeerId(1)));
    }

    /// The routes `bmp_snapshot` reports per peer: `(peer, prefix, attrs)`.
    fn snapshot_routes(r: &BgpRouter) -> Vec<(PeerId, Prefix, PathAttributes)> {
        r.bmp_snapshot(0)
            .into_iter()
            .filter_map(|m| match m {
                BmpMessage::RouteMonitoring { peer, update } => {
                    Some((peer.peer, update.announced[0], update.attrs))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn adj_rib_in_install_and_withdraw() {
        let mut r = router();
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        s.announce(&mut r, p("1.0.0.0/8"), attrs(&[65001]), 1);
        s.announce(&mut r, p("1.0.0.0/8"), attrs(&[65001, 65001]), 1);
        let routes = snapshot_routes(&r);
        assert_eq!(routes.len(), 1, "a re-announcement replaces");
        assert_eq!(routes[0].2.as_path.decision_len(), 2);
        assert_eq!(
            routes[0].2.local_pref,
            Some(PeerKind::PrivatePeer.default_local_pref()),
            "post-policy attributes"
        );
        s.try_send_update(&mut r, UpdateMessage::withdraw([p("1.0.0.0/8")]), 2)
            .unwrap();
        assert!(snapshot_routes(&r).is_empty());
        assert_eq!(r.rib_distinct_attrs(), 0, "all attrs released");
    }

    #[test]
    fn attrs_are_shared_across_prefixes() {
        let mut r = router();
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        for i in 0..100u8 {
            s.announce(&mut r, p(&format!("{}.0.0.0/8", i + 1)), attrs(&[65001]), 1);
        }
        assert_eq!(r.rib_route_count(), 100);
        assert_eq!(r.rib_distinct_attrs(), 1, "one shared attribute set");
    }

    #[test]
    fn adj_rib_in_clear_drains_everything() {
        let mut r = router();
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        s.announce(&mut r, p("1.0.0.0/8"), attrs(&[65001]), 1);
        s.announce(&mut r, p("2.0.0.0/8"), attrs(&[65001]), 1);
        assert_eq!(snapshot_routes(&r).len(), 2);
        s.shutdown(&mut r, 2);
        assert!(snapshot_routes(&r).is_empty());
        assert_eq!(r.rib_distinct_attrs(), 0);
    }

    #[test]
    fn remove_peer_flushes() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 1, 65001, PeerKind::Transit, 11);
        peer.announce(&mut r, p("10.0.0.0/8"), attrs(&[65001]), 1);
        r.remove_peer(PeerId(1), 2);
        assert_eq!(fib_size(&r), 0);
        assert!(r.attachment(PeerId(1)).is_none());
    }
}
