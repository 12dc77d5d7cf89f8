//! Incremental max–min fair allocation over a multi-hop link graph.
//!
//! [`NetworkGraph`] generalizes `mfc_simnet::FluidLink` from one shared
//! link to a *graph* of shared links: every flow traverses an ordered set
//! of links (its **route**) and additionally carries a private rate cap
//! (its client access link / TCP window).  The allocation is the classic
//! network max–min fairness computed by progressive filling: all flow
//! rates rise together; a flow freezes when it hits its own cap or when
//! any link on its route saturates; a saturated link freezes every flow
//! through it at the link's *water level*.
//!
//! Flows sharing a route are interchangeable up to their caps, so each
//! route's flows live in one [`FairShareSet`] — the same core a
//! `FluidLink` is built on.  The set owns the caps, regimes, the route's
//! fair-share integral and its completion order; the graph only decides
//! each route's level and keeps the per-link byte counters.  The per-event
//! cost stays near O(L² · log C) for L links and C flows — independent of
//! the crowd size except through logarithms:
//!
//! - **Water levels from cap multisets.**  A link's saturation level
//!   solves `Σ_routes demand_r(w) + frozen = C` where `demand_r(w)` is an
//!   O(log C) prefix query over the route set's caps; the threshold cap is
//!   found by a monotone partition walk, never by touching flows
//!   individually.
//! - **Per-route virtual time.**  When a route's bottleneck *moves* to a
//!   different link its set's integral simply continues at the new level;
//!   only flows that flip between the sharing and capped regimes are
//!   touched individually.
//!
//! A graph of one link and one route over it skips the rounds and runs the
//! same single-level fill as `FluidLink`, so the two agree to the bit.
//!
//! [`super::NaiveNetwork`] retains the textbook progressive-filling
//! algorithm as the executable specification; randomized property tests in
//! `tests/properties.rs` assert the two produce the same rates, completion
//! times and completion order under arbitrary add/remove/cap-change/
//! capacity-change/advance interleavings.
//!
//! Every container that is iterated is ordered (`BTreeMap`/`BTreeSet`/
//! `CapMultiset`, route and link vectors), so all float accumulation
//! happens in a reproducible order and repro artifacts stay byte-identical
//! across runs and thread counts.

use std::collections::{BTreeSet, HashMap};

use mfc_simcore::SimTime;
use mfc_simnet::{Bandwidth, FairShareSet, FlowId};

/// Identifies one shared link in a [`NetworkGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Identifies one route (an ordered set of links flows traverse together).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouteId(pub u32);

#[derive(Debug, Clone)]
struct Link {
    capacity: Bandwidth,
    /// Routes traversing this link, in route-id order.
    routes: Vec<RouteId>,
    /// Current aggregate throughput across the link.
    agg_rate: f64,
    bytes_transferred: f64,
}

#[derive(Debug, Clone, Default)]
struct Route {
    links: Vec<LinkId>,
    /// The route's flows, sharing the level of its bottleneck link.
    flows: FairShareSet,
    /// The saturated link that sets the level, for diagnostics.
    bottleneck: Option<LinkId>,
}

/// Applies `over` (a negative, over-drained byte count) to every link of
/// a route, in route order.
fn refund(links: &mut [Link], route_links: &[LinkId], over: f64) {
    for &link in route_links {
        links[link.0 as usize].bytes_transferred += over;
    }
}

/// A multi-hop network of shared links with global max–min fair sharing.
///
/// # Examples
///
/// ```
/// use mfc_simcore::SimTime;
/// use mfc_simnet::{mbps, FlowId};
/// use mfc_topology::NetworkGraph;
///
/// // One thin transit link in front of a fat target access link.
/// let mut net = NetworkGraph::new();
/// let transit = net.add_link(mbps(8.0));
/// let access = net.add_link(mbps(80.0));
/// let behind = net.add_route(&[transit, access]);
/// let direct = net.add_route(&[access]);
///
/// let t0 = SimTime::ZERO;
/// net.start_flow(FlowId(1), behind, 1_000_000.0, f64::INFINITY, t0);
/// net.start_flow(FlowId(2), direct, 1_000_000.0, f64::INFINITY, t0);
/// // Flow 1 is pinned to the 1 MB/s transit link; flow 2 takes the rest
/// // of the access link.
/// assert_eq!(net.current_rate(FlowId(1)), Some(1_000_000.0));
/// assert_eq!(net.current_rate(FlowId(2)), Some(9_000_000.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetworkGraph {
    links: Vec<Link>,
    routes: Vec<Route>,
    /// The route each active flow is on.  Only ever looked up, never
    /// iterated, so its hash order cannot reach any output.
    flows: HashMap<FlowId, RouteId>,
    last_event: SimTime,
}

impl NetworkGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        NetworkGraph::default()
    }

    /// Adds a shared link of the given capacity (bytes/s).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive and finite.
    pub fn add_link(&mut self, capacity: Bandwidth) -> LinkId {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "link capacity must be positive and finite, got {capacity}"
        );
        let id = LinkId(u32::try_from(self.links.len()).expect("too many links"));
        self.links.push(Link {
            capacity,
            routes: Vec::new(),
            agg_rate: 0.0,
            bytes_transferred: 0.0,
        });
        id
    }

    /// Adds a route over the given links.  An empty route is allowed (the
    /// flow is limited only by its own cap) but such flows must carry a
    /// finite cap.
    ///
    /// # Panics
    ///
    /// Panics if any link id is unknown or appears twice.
    pub fn add_route(&mut self, links: &[LinkId]) -> RouteId {
        let id = RouteId(u32::try_from(self.routes.len()).expect("too many routes"));
        let mut seen = BTreeSet::new();
        for &link in links {
            assert!(
                (link.0 as usize) < self.links.len(),
                "route references unknown link {link:?}"
            );
            assert!(seen.insert(link), "route traverses {link:?} twice");
            self.links[link.0 as usize].routes.push(id);
        }
        self.routes.push(Route {
            links: links.to_vec(),
            ..Route::default()
        });
        id
    }

    /// Number of links in the graph.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of routes in the graph.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// The configured capacity of a link in bytes/s.
    pub fn link_capacity(&self, link: LinkId) -> Bandwidth {
        self.links[link.0 as usize].capacity
    }

    /// Current aggregate throughput across a link in bytes/s.
    pub fn link_utilization_bytes_per_sec(&self, link: LinkId) -> f64 {
        self.links[link.0 as usize].agg_rate
    }

    /// Total bytes drained through a link since construction.
    pub fn link_bytes_transferred(&self, link: LinkId) -> f64 {
        self.links[link.0 as usize].bytes_transferred
    }

    /// The saturated link currently limiting a route's sharing flows, or
    /// `None` when no link on the route is saturated.
    pub fn route_bottleneck(&self, route: RouteId) -> Option<LinkId> {
        self.routes[route.0 as usize].bottleneck
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Changes a link's capacity mid-run; in-flight flows keep their
    /// remaining bytes and the global allocation is recomputed.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive and finite.
    pub fn set_link_capacity(&mut self, link: LinkId, capacity: Bandwidth, now: SimTime) {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "link capacity must be positive and finite, got {capacity}"
        );
        self.advance(now);
        self.sweep_completed();
        self.links[link.0 as usize].capacity = capacity;
        self.reallocate();
    }

    /// Starts a transfer of `bytes` bytes over `route` at `now`, privately
    /// capped at `rate_cap` bytes/s.  `bytes` may be `f64::INFINITY` for a
    /// persistent (cross-traffic) flow that never completes.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is active, `bytes` is negative, or the route
    /// is empty and the cap is not finite.
    pub fn start_flow(
        &mut self,
        id: FlowId,
        route: RouteId,
        bytes: f64,
        rate_cap: Bandwidth,
        now: SimTime,
    ) {
        assert!(bytes >= 0.0, "flow size must be non-negative");
        self.advance(now);
        self.sweep_completed();
        assert!(
            !self.flows.contains_key(&id),
            "flow {id:?} is already active"
        );
        let rate_cap = rate_cap.max(0.0);
        let r = &mut self.routes[route.0 as usize];
        assert!(
            !r.links.is_empty() || rate_cap.is_finite(),
            "a flow on an empty route must carry a finite cap"
        );
        r.flows.admit(id, bytes, rate_cap);
        self.flows.insert(id, route);
        self.reallocate();
    }

    /// Removes a flow, returning the bytes it had not yet transferred.
    pub fn finish_flow(&mut self, id: FlowId, now: SimTime) -> Option<f64> {
        self.advance(now);
        let route = self.flows.remove(&id)?;
        let Route {
            links: route_links,
            flows,
            ..
        } = &mut self.routes[route.0 as usize];
        let links = &mut self.links;
        let remaining = flows
            .remove(id, self.last_event, |over| refund(links, route_links, over))
            .expect("a flow is in its route's set");
        self.sweep_completed();
        self.reallocate();
        Some(remaining)
    }

    /// Changes the private rate cap of an active flow.
    pub fn set_rate_cap(&mut self, id: FlowId, rate_cap: Bandwidth, now: SimTime) {
        self.advance(now);
        let Some(&route) = self.flows.get(&id) else {
            return;
        };
        self.sweep_completed();
        let rate_cap = rate_cap.max(0.0);
        let route = &mut self.routes[route.0 as usize];
        assert!(
            !route.links.is_empty() || rate_cap.is_finite(),
            "a flow on an empty route must carry a finite cap"
        );
        route.flows.set_cap(id, rate_cap, self.last_event);
        self.reallocate();
    }

    /// Advances the fluid model to `now`: per-link bytes drain in aggregate
    /// and each route's fair-share integral moves forward.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last_event {
            return;
        }
        let elapsed = (now - self.last_event).as_secs_f64();
        for link in &mut self.links {
            link.bytes_transferred += link.agg_rate * elapsed;
        }
        for route in &mut self.routes {
            route.flows.advance(elapsed);
        }
        self.last_event = now;
    }

    /// The earliest completion if nothing else changes, or `None` when no
    /// active flow has both bytes remaining and a positive rate.  Pure and
    /// stable between mutations, like `FluidLink::peek_completion`.
    pub fn peek_completion(&self) -> Option<(SimTime, FlowId)> {
        self.routes
            .iter()
            .filter_map(|route| route.flows.peek(self.last_event))
            .min()
    }

    /// [`Self::peek_completion`] after advancing the model to `now`.
    pub fn next_completion(&mut self, now: SimTime) -> Option<(SimTime, FlowId)> {
        self.advance(now);
        self.peek_completion()
    }

    /// Remaining bytes for a flow, if it is active.
    pub fn remaining_bytes(&self, id: FlowId) -> Option<f64> {
        let route = self.flows.get(&id)?;
        self.routes[route.0 as usize]
            .flows
            .remaining_bytes(id, self.last_event)
    }

    /// The rate currently allocated to a flow in bytes/s, if it is active.
    pub fn current_rate(&self, id: FlowId) -> Option<Bandwidth> {
        let route = self.flows.get(&id)?;
        self.routes[route.0 as usize].flows.current_rate(id)
    }

    /// Retires flows that already finished, route by route, refunding
    /// over-drained bytes to every link on the route.
    fn sweep_completed(&mut self) {
        let links = &mut self.links;
        for route in &mut self.routes {
            let route_links = &route.links;
            route
                .flows
                .sweep(self.last_event, |over| refund(links, route_links, over));
        }
    }

    /// Recomputes the global max–min allocation after a structural change
    /// and flips flows whose regime changed.
    ///
    /// Water-filling over links in saturation order: each round finds the
    /// unsaturated link with the lowest saturation level (an O(log C)
    /// partition walk per route on the link), saturates it, and freezes the
    /// routes through it; frozen routes contribute a fixed demand to their
    /// other links.  At most `L` rounds, so the whole pass costs
    /// O(L² · R_ℓ · log² C) plus O(log C) per flow that actually flips.
    fn reallocate(&mut self) {
        // One link and one route over it: the allocation is exactly
        // FluidLink's single-level fill — skip the round machinery and its
        // scratch allocations.  This is the shape every pre-topology
        // scenario (a direct `TopologySpec`) runs on each flow event, so it
        // must stay O(log C).
        if let ([link], [route]) = (&mut self.links[..], &mut self.routes[..]) {
            if route.links.len() == 1 {
                let level = route.flows.fill(link.capacity, self.last_event);
                route.bottleneck = level.is_finite().then_some(LinkId(0));
                link.agg_rate = route.flows.aggregate_rate();
                return;
            }
        }
        let link_count = self.links.len();
        let route_count = self.routes.len();
        // Fixed demand contributed to each link by routes frozen at lower
        // levels.
        let mut fixed = vec![0.0f64; link_count];
        let mut saturated = vec![false; link_count];
        let mut frozen = vec![false; route_count];
        let mut new_level = vec![f64::INFINITY; route_count];
        let mut new_bottleneck: Vec<Option<LinkId>> = vec![None; route_count];
        // Routes with no active flows are permanently frozen at ∞ so they
        // never contribute demand.
        for (index, route) in self.routes.iter().enumerate() {
            if route.flows.active() == 0 {
                frozen[index] = true;
            }
        }

        loop {
            let mut best: Option<(f64, usize)> = None;
            for (link_index, link) in self.links.iter().enumerate() {
                if saturated[link_index] {
                    continue;
                }
                let live: Vec<&FairShareSet> = link
                    .routes
                    .iter()
                    .filter(|r| !frozen[r.0 as usize])
                    .map(|r| &self.routes[r.0 as usize].flows)
                    .collect();
                if live.is_empty() {
                    continue;
                }
                // A link whose total demand never reaches its capacity
                // cannot saturate.
                let inf_any = live.iter().any(|r| r.has_uncapped());
                if !inf_any {
                    let total: f64 = live.iter().map(|r| r.caps().sum()).sum();
                    if fixed[link_index] + total <= link.capacity {
                        continue;
                    }
                }
                // Largest cap that stays saturated at the link's level: the
                // predicate "Σ demand(c) ≤ C" is monotone in c, so walk each
                // route's cap treap and keep the global maximum.
                let capacity = link.capacity;
                let fixed_in = fixed[link_index];
                let pred = |c: f64| {
                    let demand: f64 = live.iter().map(|r| r.demand_at(c)).sum();
                    fixed_in + demand <= capacity
                };
                let mut threshold: Option<u64> = None;
                for route in &live {
                    if let Some(bits) = route.caps().partition_max(pred) {
                        threshold = Some(match threshold {
                            Some(t) => t.max(bits),
                            None => bits,
                        });
                    }
                }
                let (sat_count, sat_sum) = match threshold {
                    Some(bits) => live.iter().fold((0u64, 0.0f64), |(c, s), r| {
                        let (rc, rs) = r.caps().prefix(bits);
                        (c + rc, s + rs)
                    }),
                    None => (0, 0.0),
                };
                let total_active: u64 = live.iter().map(|r| r.active()).sum();
                let unsat = total_active - sat_count;
                if unsat == 0 {
                    // Every flow through the link is frozen at its cap below
                    // the capacity; the link has headroom and never binds.
                    continue;
                }
                let level = ((capacity - fixed_in - sat_sum) / unsat as f64).max(0.0);
                match best {
                    Some((b, _)) if b <= level => {}
                    _ => best = Some((level, link_index)),
                }
            }
            let Some((level, link_index)) = best else {
                break;
            };
            saturated[link_index] = true;
            for position in 0..self.links[link_index].routes.len() {
                let index = self.links[link_index].routes[position].0 as usize;
                if frozen[index] {
                    continue;
                }
                frozen[index] = true;
                new_level[index] = level;
                new_bottleneck[index] = Some(LinkId(link_index as u32));
                let demand = self.routes[index].flows.demand_at(level);
                for &other in &self.routes[index].links {
                    if other.0 as usize != link_index {
                        fixed[other.0 as usize] += demand;
                    }
                }
            }
        }

        // Apply the new levels (flipping flows that cross them) and refresh
        // the per-link aggregate rates.
        for (index, route) in self.routes.iter_mut().enumerate() {
            route.bottleneck = new_bottleneck[index];
            route.flows.set_level(new_level[index], self.last_event);
            debug_assert!(
                route.flows.level().is_finite() || !route.flows.has_uncapped(),
                "an uncapped flow on an unsaturated route has unbounded rate"
            );
        }
        for link in &mut self.links {
            link.agg_rate = link
                .routes
                .iter()
                .map(|r| self.routes[r.0 as usize].flows.aggregate_rate())
                .sum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfc_simnet::mbps;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    /// A star: per-group transit links feeding one target access link.
    fn star(transits: &[f64], access: f64) -> (NetworkGraph, Vec<RouteId>, LinkId) {
        let mut net = NetworkGraph::new();
        let access_id = net.add_link(access);
        let routes = transits
            .iter()
            .map(|&c| {
                let transit = net.add_link(c);
                net.add_route(&[transit, access_id])
            })
            .collect();
        (net, routes, access_id)
    }

    #[test]
    fn single_link_behaves_like_a_fluid_link() {
        let mut net = NetworkGraph::new();
        let link = net.add_link(1_000_000.0);
        let route = net.add_route(&[link]);
        net.start_flow(FlowId(1), route, 500_000.0, f64::INFINITY, t(0.0));
        net.start_flow(FlowId(2), route, 500_000.0, f64::INFINITY, t(0.0));
        assert_eq!(net.current_rate(FlowId(1)), Some(500_000.0));
        let (done, id) = net.peek_completion().unwrap();
        assert_eq!(id, FlowId(1));
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((net.link_utilization_bytes_per_sec(link) - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn thin_transit_pins_one_group_without_touching_the_other() {
        let (mut net, routes, access) = star(&[mbps(8.0), mbps(80.0)], mbps(80.0));
        for i in 0..4u64 {
            net.start_flow(FlowId(i), routes[0], 1e6, f64::INFINITY, t(0.0));
            net.start_flow(FlowId(100 + i), routes[1], 1e6, f64::INFINITY, t(0.0));
        }
        // Group 0's four flows split the 1 MB/s transit; group 1's flows
        // split what remains of the 10 MB/s access link.
        assert!((net.current_rate(FlowId(0)).unwrap() - 250_000.0).abs() < 1e-6);
        assert!((net.current_rate(FlowId(100)).unwrap() - 2_250_000.0).abs() < 1e-6);
        assert_eq!(net.route_bottleneck(routes[0]), Some(LinkId(1)));
        assert_eq!(net.route_bottleneck(routes[1]), Some(access));
        // The access link carries everything; it is not saturated.
        assert!((net.link_utilization_bytes_per_sec(access) - 10e6).abs() < 1e-6);
    }

    #[test]
    fn saturated_access_link_constrains_every_group() {
        let (mut net, routes, access) = star(&[mbps(80.0), mbps(80.0)], mbps(8.0));
        for i in 0..5u64 {
            net.start_flow(FlowId(i), routes[0], 1e6, f64::INFINITY, t(0.0));
            net.start_flow(FlowId(100 + i), routes[1], 1e6, f64::INFINITY, t(0.0));
        }
        // All ten flows share the 1 MB/s access link equally.
        for i in 0..5u64 {
            assert!((net.current_rate(FlowId(i)).unwrap() - 100_000.0).abs() < 1e-6);
            assert!((net.current_rate(FlowId(100 + i)).unwrap() - 100_000.0).abs() < 1e-6);
        }
        assert_eq!(net.route_bottleneck(routes[0]), Some(access));
        assert_eq!(net.route_bottleneck(routes[1]), Some(access));
    }

    #[test]
    fn private_caps_freeze_flows_below_the_water_level() {
        let (mut net, routes, _) = star(&[mbps(8.0)], mbps(80.0));
        net.start_flow(FlowId(1), routes[0], 1e6, 100_000.0, t(0.0));
        net.start_flow(FlowId(2), routes[0], 1e6, f64::INFINITY, t(0.0));
        assert_eq!(net.current_rate(FlowId(1)), Some(100_000.0));
        assert!((net.current_rate(FlowId(2)).unwrap() - 900_000.0).abs() < 1e-6);
    }

    #[test]
    fn departure_rebalances_across_links() {
        let (mut net, routes, _) = star(&[mbps(8.0), mbps(8.0)], mbps(12.0));
        net.start_flow(FlowId(1), routes[0], 1e6, f64::INFINITY, t(0.0));
        net.start_flow(FlowId(2), routes[1], 3e6, f64::INFINITY, t(0.0));
        // Access (1.5 MB/s) binds first: 750 kB/s each.
        assert!((net.current_rate(FlowId(1)).unwrap() - 750_000.0).abs() < 1e-6);
        let (done, id) = net.next_completion(t(0.0)).unwrap();
        assert_eq!(id, FlowId(1));
        net.finish_flow(id, done);
        // Flow 2 now gets its full transit-link share (1 MB/s < 1.5 MB/s).
        assert!((net.current_rate(FlowId(2)).unwrap() - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn persistent_cross_traffic_squeezes_the_crowd() {
        let (mut net, routes, _) = star(&[mbps(8.0)], mbps(80.0));
        let cross = net.add_route(&[LinkId(1)]);
        // Two persistent 200 kB/s cross flows on the 1 MB/s transit link.
        net.start_flow(FlowId(900), cross, f64::INFINITY, 200_000.0, t(0.0));
        net.start_flow(FlowId(901), cross, f64::INFINITY, 200_000.0, t(0.0));
        net.start_flow(FlowId(1), routes[0], 600_000.0, f64::INFINITY, t(0.0));
        // The probe gets 1 MB/s − 2×200 kB/s = 600 kB/s.
        assert!((net.current_rate(FlowId(1)).unwrap() - 600_000.0).abs() < 1e-6);
        let (done, id) = net.peek_completion().unwrap();
        assert_eq!(id, FlowId(1), "cross traffic never completes");
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
        net.finish_flow(id, done);
        // The cross flows keep running and never show up as completions.
        assert!(net.peek_completion().is_none());
        assert_eq!(net.active_flows(), 2);
    }

    #[test]
    fn capacity_change_moves_the_bottleneck() {
        let (mut net, routes, access) = star(&[mbps(8.0)], mbps(80.0));
        net.start_flow(FlowId(1), routes[0], 10e6, f64::INFINITY, t(0.0));
        assert_eq!(net.route_bottleneck(routes[0]), Some(LinkId(1)));
        // Shrinking the access link below the transit moves the bottleneck.
        net.set_link_capacity(access, mbps(4.0), t(1.0));
        assert_eq!(net.route_bottleneck(routes[0]), Some(access));
        assert!((net.current_rate(FlowId(1)).unwrap() - 500_000.0).abs() < 1e-6);
        // One second at 1 MB/s drained 1 MB.
        assert!((net.remaining_bytes(FlowId(1)).unwrap() - 9e6).abs() < 1.0);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let (mut net, routes, _) = star(&[mbps(8.0)], mbps(80.0));
        net.start_flow(FlowId(7), routes[0], 0.0, f64::INFINITY, t(1.0));
        let (done, id) = net.next_completion(t(1.0)).unwrap();
        assert_eq!(id, FlowId(7));
        assert_eq!(done, t(1.0));
    }

    #[test]
    fn empty_route_flow_runs_at_its_cap() {
        let mut net = NetworkGraph::new();
        let lonely = net.add_route(&[]);
        net.start_flow(FlowId(1), lonely, 100_000.0, 50_000.0, t(0.0));
        assert_eq!(net.current_rate(FlowId(1)), Some(50_000.0));
        let (done, _) = net.peek_completion().unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lone_link_does_not_limit_a_route_that_skips_it() {
        // One link and one route that does not traverse it: not the
        // single-link shape, so the flow runs at its own cap.
        let mut net = NetworkGraph::new();
        let link = net.add_link(50_000.0);
        let lonely = net.add_route(&[]);
        net.start_flow(FlowId(1), lonely, 100_000.0, 80_000.0, t(0.0));
        assert_eq!(net.current_rate(FlowId(1)), Some(80_000.0));
        assert_eq!(net.route_bottleneck(lonely), None);
        assert_eq!(net.link_utilization_bytes_per_sec(link), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite cap")]
    fn uncapped_empty_route_flow_is_rejected() {
        let mut net = NetworkGraph::new();
        let lonely = net.add_route(&[]);
        net.start_flow(FlowId(1), lonely, 100.0, f64::INFINITY, t(0.0));
    }

    #[test]
    fn backbone_chains_three_hops() {
        let mut net = NetworkGraph::new();
        let access = net.add_link(mbps(80.0));
        let backbone = net.add_link(mbps(16.0));
        let transit_a = net.add_link(mbps(6.4));
        let transit_b = net.add_link(mbps(80.0));
        let route_a = net.add_route(&[transit_a, backbone, access]);
        let route_b = net.add_route(&[transit_b, backbone, access]);
        for i in 0..2u64 {
            net.start_flow(FlowId(i), route_a, 1e6, f64::INFINITY, t(0.0));
            net.start_flow(FlowId(100 + i), route_b, 1e6, f64::INFINITY, t(0.0));
        }
        // Group A pinned by its 0.8 MB/s transit (400 kB/s each); group B
        // gets the backbone's remaining 1.2 MB/s (600 kB/s each) — the
        // backbone is the second bottleneck.
        assert!((net.current_rate(FlowId(0)).unwrap() - 400_000.0).abs() < 1e-6);
        assert!((net.current_rate(FlowId(100)).unwrap() - 600_000.0).abs() < 1e-6);
        assert_eq!(net.route_bottleneck(route_a), Some(transit_a));
        assert_eq!(net.route_bottleneck(route_b), Some(backbone));
    }

    #[test]
    fn advance_is_monotonic_and_bytes_accumulate() {
        let (mut net, routes, access) = star(&[mbps(8.0)], mbps(80.0));
        net.start_flow(FlowId(1), routes[0], 250_000.0, f64::INFINITY, t(0.0));
        net.advance(t(10.0));
        net.advance(t(5.0)); // no-op
        net.finish_flow(FlowId(1), t(10.0));
        assert!((net.link_bytes_transferred(access) - 250_000.0).abs() < 1e-6);
        assert!((net.link_bytes_transferred(LinkId(1)) - 250_000.0).abs() < 1e-6);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn duplicate_flow_id_panics() {
        let (mut net, routes, _) = star(&[mbps(8.0)], mbps(80.0));
        net.start_flow(FlowId(1), routes[0], 10.0, f64::INFINITY, t(0.0));
        net.start_flow(FlowId(1), routes[0], 10.0, f64::INFINITY, t(0.0));
    }

    #[test]
    fn raising_a_cap_speeds_up_the_flow() {
        let (mut net, routes, _) = star(&[mbps(8.0)], mbps(80.0));
        net.start_flow(FlowId(1), routes[0], 400_000.0, 100_000.0, t(0.0));
        assert_eq!(net.current_rate(FlowId(1)), Some(100_000.0));
        net.set_rate_cap(FlowId(1), f64::INFINITY, t(1.0));
        assert_eq!(net.current_rate(FlowId(1)), Some(1_000_000.0));
        let (done, _) = net.peek_completion().unwrap();
        assert!((done.as_secs_f64() - 1.3).abs() < 1e-9);
    }
}
