//! Max–min fair fluid model of a shared bottleneck link.
//!
//! The Large Object stage of an MFC exists to answer one question: at what
//! number of concurrent large transfers does the *server's outbound access
//! link* start inflating response times (paper §2.2.2)?  To reproduce that
//! we need a model of many simultaneous response transfers sharing one link,
//! where each flow may additionally be capped below its fair share by the
//! client's own downlink or by TCP window limits.
//!
//! [`FluidLink`] is a capacity plus one [`FairShareSet`]: on every
//! structural change it asks the link's [`CapMultiset`] for the one water
//! level `w` with `Σ min(cᵢ, w) = C` (O(log n)) and hands it to the set,
//! which flips flows between its sharing and capped regimes and tracks
//! completions in virtual time (see [`crate::fairshare`]).  Processor
//! sharing (`PsResource`) rides the same link with work units for bytes,
//! and each route of `mfc_topology`'s `NetworkGraph` runs the same set and
//! the same single-level fill when the graph is one link.  The executable
//! specification is `mfc_topology`'s `NaiveNetwork`, whose one-link case
//! the property tests and scaling benches compare against.
//!
//! [`CapMultiset`]: crate::CapMultiset

use mfc_simcore::SimTime;

use crate::fairshare::FairShareSet;
use crate::Bandwidth;

/// Identifies one flow (one HTTP response transfer) on a [`FluidLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A shared bottleneck link with max–min fair bandwidth allocation.
///
/// # Examples
///
/// ```
/// use mfc_simcore::SimTime;
/// use mfc_simnet::{FluidLink, FlowId, mbps};
///
/// // A 8 Mbit/s access link (1 MB/s) shared by two transfers.
/// let mut link = FluidLink::new(mbps(8.0));
/// let t0 = SimTime::ZERO;
/// link.start_flow(FlowId(1), 500_000.0, f64::INFINITY, t0);
/// link.start_flow(FlowId(2), 500_000.0, f64::INFINITY, t0);
///
/// // Each flow gets 0.5 MB/s, so both finish after one second.
/// let (t, id) = link.peek_completion().unwrap();
/// assert_eq!((t - t0).as_secs_f64(), 1.0);
/// assert_eq!(id, FlowId(1));
/// ```
#[derive(Debug, Clone)]
pub struct FluidLink {
    capacity: Bandwidth,
    flows: FairShareSet,
    last_event: SimTime,
    bytes_transferred: f64,
}

impl FluidLink {
    /// Creates a link with the given capacity in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    pub fn new(capacity: Bandwidth) -> Self {
        assert!(capacity > 0.0, "link capacity must be positive");
        FluidLink {
            capacity,
            flows: FairShareSet::new(),
            last_event: SimTime::ZERO,
            bytes_transferred: 0.0,
        }
    }

    /// The configured capacity in bytes per second.
    pub fn capacity(&self) -> Bandwidth {
        self.capacity
    }

    /// Changes the link's capacity mid-run (a capacity schedule, an upstream
    /// throttle, an autoscaler resizing a shared uplink).  In-flight flows
    /// keep their remaining bytes; the water level is recomputed and flows
    /// flip between the sharing and capped regimes exactly as they do on an
    /// arrival or departure.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    pub fn set_capacity(&mut self, capacity: Bandwidth, now: SimTime) {
        assert!(capacity > 0.0, "link capacity must be positive");
        self.advance(now);
        self.sweep_completed();
        self.capacity = capacity;
        self.rebalance();
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes drained through the link since construction.
    pub fn bytes_transferred(&self) -> f64 {
        self.bytes_transferred
    }

    /// Current aggregate throughput in bytes per second.
    pub fn utilization_bytes_per_sec(&self) -> f64 {
        self.flows.aggregate_rate()
    }

    /// Starts a new transfer of `bytes` bytes at time `now`, individually
    /// capped at `rate_cap` bytes/s.
    ///
    /// The caller must have advanced the link to `now` (this method does it
    /// defensively).  Adding a flow triggers a re-allocation of rates.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is already active or `bytes` is negative.
    pub fn start_flow(&mut self, id: FlowId, bytes: f64, rate_cap: Bandwidth, now: SimTime) {
        assert!(bytes >= 0.0, "flow size must be non-negative");
        self.advance(now);
        self.sweep_completed();
        self.flows.admit(id, bytes, rate_cap.max(0.0));
        self.rebalance();
    }

    /// Removes a flow (typically after a completion reported by
    /// [`Self::peek_completion`], or because the request timed out).
    /// Returns the number of bytes that had not yet been transferred.
    pub fn finish_flow(&mut self, id: FlowId, now: SimTime) -> Option<f64> {
        self.advance(now);
        let bytes = &mut self.bytes_transferred;
        let remaining = self
            .flows
            .remove(id, self.last_event, |over| *bytes += over)?;
        self.sweep_completed();
        self.rebalance();
        Some(remaining)
    }

    /// Changes the rate cap of an active flow (e.g. a TCP window opening up
    /// as the transfer leaves slow start).  Triggers a re-allocation.
    pub fn set_rate_cap(&mut self, id: FlowId, rate_cap: Bandwidth, now: SimTime) {
        self.advance(now);
        if !self.flows.contains(id) {
            // Like the naive model: an unknown id advances the clock only.
            return;
        }
        // From here on this behaves like the reference model's unconditional
        // reallocate: once the sweep has detached newly-drained flows, a
        // rebalance MUST follow on every path, or the level and aggregate
        // rate keep counting the share of flows the sweep just released.
        self.sweep_completed();
        self.flows.set_cap(id, rate_cap.max(0.0), self.last_event);
        self.rebalance();
    }

    /// Advances the fluid model to `now`, draining bytes in aggregate and
    /// moving the fair-share integral forward.
    ///
    /// Flows whose remaining bytes reach zero stay in the link (at zero
    /// remaining) until [`Self::finish_flow`] removes them, so completion
    /// bookkeeping stays with the caller's event loop.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last_event {
            return;
        }
        let elapsed = (now - self.last_event).as_secs_f64();
        self.bytes_transferred += self.flows.aggregate_rate() * elapsed;
        self.flows.advance(elapsed);
        self.last_event = now;
    }

    /// Returns the time and id of the flow that will complete first if no
    /// flows are added or removed, or `None` when no active flow has both
    /// bytes remaining and a positive rate.
    ///
    /// Pure: does not advance the model.  Completion times are absolute, so
    /// the answer is stable between mutations regardless of how far the
    /// caller's clock has moved — ideal for event-loop rescheduling.
    pub fn peek_completion(&self) -> Option<(SimTime, FlowId)> {
        self.flows.peek(self.last_event)
    }

    /// [`Self::peek_completion`] after advancing the model to `now`.
    ///
    /// Retained for callers that drive the link directly; the engine's
    /// reschedulers use the pure peek instead.
    pub fn next_completion(&mut self, now: SimTime) -> Option<(SimTime, FlowId)> {
        self.advance(now);
        self.peek_completion()
    }

    /// Remaining bytes for a flow, if it is active.
    pub fn remaining_bytes(&self, id: FlowId) -> Option<f64> {
        self.flows.remaining_bytes(id, self.last_event)
    }

    /// The rate currently allocated to a flow in bytes/s, if it is active.
    pub fn current_rate(&self, id: FlowId) -> Option<Bandwidth> {
        self.flows.current_rate(id)
    }

    /// Retires flows that already finished, refunding over-drained bytes.
    fn sweep_completed(&mut self) {
        let bytes = &mut self.bytes_transferred;
        self.flows.sweep(self.last_event, |over| *bytes += over);
    }

    /// Sets the link's single water level after a structural change.
    fn rebalance(&mut self) {
        self.flows.fill(self.capacity, self.last_event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfc_simcore::SimDuration;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn single_flow_uses_full_capacity() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 2_000_000.0, f64::INFINITY, t(0.0));
        let (done, id) = link.next_completion(t(0.0)).unwrap();
        assert_eq!(id, FlowId(1));
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_split_capacity_equally() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 1_000_000.0, f64::INFINITY, t(0.0));
        link.start_flow(FlowId(2), 1_000_000.0, f64::INFINITY, t(0.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(500_000.0));
        assert_eq!(link.current_rate(FlowId(2)), Some(500_000.0));
        let (done, _) = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn capped_flow_leaves_capacity_to_others() {
        let mut link = FluidLink::new(1_000_000.0);
        // A slow client capped at 100 KB/s and a fast one uncapped.
        link.start_flow(FlowId(1), 100_000.0, 100_000.0, t(0.0));
        link.start_flow(FlowId(2), 900_000.0, f64::INFINITY, t(0.0));
        assert!((link.current_rate(FlowId(1)).unwrap() - 100_000.0).abs() < 1e-6);
        assert!((link.current_rate(FlowId(2)).unwrap() - 900_000.0).abs() < 1e-6);
        // Both finish at t = 1s.
        let (done, _) = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_is_work_conserving() {
        let mut link = FluidLink::new(1_000_000.0);
        for i in 0..10 {
            link.start_flow(FlowId(i), 1_000_000.0, 500_000.0, t(0.0));
        }
        let total: f64 = (0..10).map(|i| link.current_rate(FlowId(i)).unwrap()).sum();
        // 10 flows capped at 0.5 MB/s could use 5 MB/s but the link only has
        // 1 MB/s: the allocation must fill the link exactly.
        assert!((total - 1_000_000.0).abs() < 1e-6);
        assert!((link.utilization_bytes_per_sec() - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn departure_speeds_up_remaining_flows() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 500_000.0, f64::INFINITY, t(0.0));
        link.start_flow(FlowId(2), 2_000_000.0, f64::INFINITY, t(0.0));
        // Flow 1 completes at t=1s (500KB at 500KB/s).
        let (done1, id1) = link.next_completion(t(0.0)).unwrap();
        assert_eq!(id1, FlowId(1));
        assert!((done1.as_secs_f64() - 1.0).abs() < 1e-9);
        let leftover = link.finish_flow(FlowId(1), done1).unwrap();
        assert!(leftover.abs() < 1e-6);
        // Flow 2 transferred 500KB so far, 1.5MB left now at full rate.
        assert!((link.remaining_bytes(FlowId(2)).unwrap() - 1_500_000.0).abs() < 1.0);
        let (done2, id2) = link.next_completion(done1).unwrap();
        assert_eq!(id2, FlowId(2));
        assert!((done2.as_secs_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn late_arrival_slows_existing_flow() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 1_000_000.0, f64::INFINITY, t(0.0));
        // Half way through, a second flow arrives.
        link.start_flow(FlowId(2), 1_000_000.0, f64::INFINITY, t(0.5));
        assert!((link.remaining_bytes(FlowId(1)).unwrap() - 500_000.0).abs() < 1.0);
        let (done1, id1) = link.next_completion(t(0.5)).unwrap();
        assert_eq!(id1, FlowId(1));
        // 500KB left at 500KB/s -> finishes at t = 1.5s.
        assert!((done1.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut link = FluidLink::new(1_000.0);
        link.start_flow(FlowId(7), 0.0, f64::INFINITY, t(1.0));
        let (done, id) = link.next_completion(t(1.0)).unwrap();
        assert_eq!(id, FlowId(7));
        assert_eq!(done, t(1.0));
    }

    #[test]
    fn bytes_transferred_accumulates() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 250_000.0, f64::INFINITY, t(0.0));
        link.advance(t(10.0));
        link.finish_flow(FlowId(1), t(10.0));
        assert!((link.bytes_transferred() - 250_000.0).abs() < 1e-6);
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn next_completion_none_when_empty() {
        let mut link = FluidLink::new(1_000.0);
        assert!(link.next_completion(t(0.0)).is_none());
        assert!(link.peek_completion().is_none());
    }

    #[test]
    fn advance_is_monotonic() {
        let mut link = FluidLink::new(1_000.0);
        link.start_flow(FlowId(1), 10_000.0, f64::INFINITY, t(5.0));
        // Going "backwards" in time is a no-op, not a panic.
        link.advance(t(1.0));
        assert!((link.remaining_bytes(FlowId(1)).unwrap() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn duplicate_flow_id_panics() {
        let mut link = FluidLink::new(1_000.0);
        link.start_flow(FlowId(1), 10.0, f64::INFINITY, t(0.0));
        link.start_flow(FlowId(1), 10.0, f64::INFINITY, t(0.0));
    }

    #[test]
    fn utilization_reports_aggregate_rate() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 1_000_000.0, 200_000.0, t(0.0));
        assert!((link.utilization_bytes_per_sec() - 200_000.0).abs() < 1e-6);
        link.start_flow(FlowId(2), 1_000_000.0, f64::INFINITY, t(0.0));
        assert!((link.utilization_bytes_per_sec() - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn completion_survives_many_flows() {
        let mut link = FluidLink::new(10_000_000.0);
        let n = 200;
        for i in 0..n {
            link.start_flow(FlowId(i), 100_000.0, f64::INFINITY, t(0.0));
        }
        // All flows equal: each gets capacity/n, finishing together.
        let expect = 100_000.0 / (10_000_000.0 / n as f64);
        let (done, _) = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - expect).abs() < 1e-9);
        let _ = SimDuration::ZERO;
    }

    #[test]
    fn peek_is_pure_and_stable() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 1_000_000.0, f64::INFINITY, t(0.0));
        let first = link.peek_completion();
        // Peeking again (even "later" in caller time) gives the same answer
        // because nothing mutated the link.
        let second = link.peek_completion();
        assert_eq!(first, second);
        assert_eq!(first.unwrap().0, t(1.0));
    }

    #[test]
    fn raising_a_cap_speeds_up_the_flow() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 400_000.0, 100_000.0, t(0.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(100_000.0));
        // After one second (100KB done) the window opens fully.
        link.set_rate_cap(FlowId(1), f64::INFINITY, t(1.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(1_000_000.0));
        let (done, _) = link.peek_completion().unwrap();
        // 300KB left at 1MB/s.
        assert!((done.as_secs_f64() - 1.3).abs() < 1e-9);
    }

    #[test]
    fn lowering_a_cap_slows_the_flow() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 500_000.0, f64::INFINITY, t(0.0));
        link.set_rate_cap(FlowId(1), 50_000.0, t(0.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(50_000.0));
        let (done, _) = link.peek_completion().unwrap();
        assert!((done.as_secs_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_cap_change_still_releases_a_drained_flows_share() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 1_000_000.0, f64::INFINITY, t(0.0));
        link.start_flow(FlowId(2), 10_000_000.0, 500_000.0, t(0.0));
        // Both run at 500 kB/s; flow 1 truly finishes at t=2 but is left in
        // the link (the caller hasn't harvested the completion yet).
        link.advance(t(3.0));
        // A no-op cap change must still exclude the drained flow from the
        // allocation, exactly like the naive model's unconditional
        // reallocate — a stale aggregate here would accrue phantom bytes.
        link.set_rate_cap(FlowId(2), 500_000.0, t(3.0));
        assert!((link.utilization_bytes_per_sec() - 500_000.0).abs() < 1e-6);
        link.advance(t(4.0));
        link.finish_flow(FlowId(1), t(4.0));
        let leftover = link.finish_flow(FlowId(2), t(4.0)).unwrap();
        // Flow 2 moved 500 kB/s × 4 s = 2 MB; flow 1 moved its full 1 MB.
        assert!((leftover - 8_000_000.0).abs() < 1.0);
        assert!((link.bytes_transferred() - 3_000_000.0).abs() < 1.0);
    }

    #[test]
    fn water_level_flips_follow_arrivals_and_departures() {
        let mut link = FluidLink::new(1_000_000.0);
        // A 300 KB/s-capped flow alone: capped (level would be 1 MB/s).
        link.start_flow(FlowId(1), 10_000_000.0, 300_000.0, t(0.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(300_000.0));
        // Three more uncapped flows: level drops to ~233 KB/s, so flow 1 is
        // no longer capped and shares equally.
        for i in 2..=4 {
            link.start_flow(FlowId(i), 10_000_000.0, f64::INFINITY, t(0.0));
        }
        assert!((link.current_rate(FlowId(1)).unwrap() - 250_000.0).abs() < 1e-6);
        // Remove them again: flow 1 goes back to its cap.
        for i in 2..=4 {
            link.finish_flow(FlowId(i), t(0.0));
        }
        assert_eq!(link.current_rate(FlowId(1)), Some(300_000.0));
    }

    #[test]
    fn shrinking_capacity_slows_sharing_flows() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 1_000_000.0, f64::INFINITY, t(0.0));
        link.start_flow(FlowId(2), 1_000_000.0, f64::INFINITY, t(0.0));
        // Half a second in, the link halves: 750 KB left per flow at
        // 250 KB/s each.
        link.set_capacity(500_000.0, t(0.5));
        assert_eq!(link.current_rate(FlowId(1)), Some(250_000.0));
        let (done, _) = link.peek_completion().unwrap();
        assert!((done.as_secs_f64() - 3.5).abs() < 1e-9, "{done}");
    }

    #[test]
    fn growing_capacity_freezes_capped_flows() {
        let mut link = FluidLink::new(400_000.0);
        // Both flows share 200 KB/s each, below their 300 KB/s caps.
        link.start_flow(FlowId(1), 600_000.0, 300_000.0, t(0.0));
        link.start_flow(FlowId(2), 600_000.0, 300_000.0, t(0.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(200_000.0));
        // Doubling the capacity lifts the water level above the caps: both
        // flows flip into the capped regime at 300 KB/s.
        link.set_capacity(800_000.0, t(1.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(300_000.0));
        // 400 KB left each at 300 KB/s.
        let (done, _) = link.peek_completion().unwrap();
        assert!(
            (done.as_secs_f64() - (1.0 + 400.0 / 300.0)).abs() < 1e-5,
            "{done}"
        );
    }
}
