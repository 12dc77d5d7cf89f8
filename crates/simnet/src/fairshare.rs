//! One set of flows sharing a single max–min water level.
//!
//! Max–min fair sharing shows up three times in the simulator: the
//! server's access link and processor-sharing CPU ([`crate::FluidLink`]) and
//! every route of the multi-hop wide-area graph (`mfc_topology`'s
//! `NetworkGraph`).  In each case a group of flows runs at one common
//! *water level* `w`, except flows whose private cap is below it, which run
//! at their cap.  [`FairShareSet`] is the one implementation of that
//! bookkeeping; its owners only decide the level (one water-level query for
//! a link, water-filling rounds for a graph) and account for link bytes.
//!
//! The set is a **virtual-time** core rather than a per-event
//! progressive-filling pass:
//!
//! - Flows *above* the level all progress at the common rate `w`, so their
//!   remaining bytes never need to be touched individually: one cumulative
//!   fair-share integral `V(t) = ∫ w dt` advances for all of them, and each
//!   flow finishes when `V` reaches its *virtual finish tag* (the value of
//!   `V` at admission plus its size).  They live in an ordered set keyed by
//!   that tag, so the next completion is a peek.  When the level changes,
//!   the integral simply continues at the new rate.
//! - Flows *at or below* the level run at their own constant cap, so their
//!   absolute finish time is fixed while they stay capped; they live in a
//!   second ordered set keyed by wall-clock finish time.
//! - A new level flips flows between the two regimes; flips are found by
//!   range queries over cap-ordered indexes, so each flip costs O(log n)
//!   instead of a rescan.  The caps of all active flows live in a
//!   [`CapMultiset`], which answers the level's demand
//!   `Σ min(cᵢ, w)` in O(log n).
//!
//! The result is O(log n) amortized per flow arrival/departure and an
//! O(log n) [`FairShareSet::peek`], versus O(n²) per event for progressive
//! filling.  `mfc_topology`'s `NaiveNetwork` is the executable
//! specification the property tests compare every owner against.
//!
//! Every container involved is ordered (`BTreeMap`/`BTreeSet`/set-shaped
//! treap), so all float accumulation happens in a reproducible order and
//! repro artifacts stay byte-identical across runs and thread counts.

use std::collections::{BTreeMap, BTreeSet};

use mfc_simcore::{SimDuration, SimTime};

use crate::capset::CapMultiset;
use crate::link::FlowId;
use crate::Bandwidth;

/// Which sharing regime a flow is currently in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Regime {
    /// Rate = the water level; finishes when the fair-share integral `V`
    /// reaches `v_finish`.
    Sharing { v_finish: f64 },
    /// Rate = own cap (constant while capped); `r_ref` bytes remained at
    /// wall-clock `t_ref_secs`, giving the fixed finish time `finish_secs`.
    Capped {
        r_ref: f64,
        t_ref_secs: f64,
        finish_secs: f64,
    },
    /// No bytes left; rate zero, waiting for [`FairShareSet::remove`].
    Drained,
}

#[derive(Debug, Clone, Copy)]
struct Flow {
    /// Per-flow rate ceiling in bytes/s (client downlink, TCP window, …).
    rate_cap: Bandwidth,
    regime: Regime,
}

impl Flow {
    /// Bytes left at `now_secs` given the set's integral `vtime`; negative
    /// when the caller advanced past the exact finish.
    fn left(&self, vtime: f64, now_secs: f64) -> f64 {
        match self.regime {
            Regime::Drained => 0.0,
            Regime::Sharing { v_finish } => v_finish - vtime,
            Regime::Capped {
                r_ref, t_ref_secs, ..
            } => r_ref - self.rate_cap * (now_secs - t_ref_secs),
        }
    }
}

/// The flows that share one water level, with their caps, regimes and
/// completion order.
///
/// The set keeps no clock of its own: every call that needs the time takes
/// the owner's `now`, and [`FairShareSet::advance`] takes the elapsed span.
/// Bytes a flow was over-drained by (the owner advanced a clock tick past
/// its exact finish) are handed back through a `refund` callback, in flow
/// order, so the owner can correct its byte counters.
///
/// # Examples
///
/// ```
/// use mfc_simcore::SimTime;
/// use mfc_simnet::{FairShareSet, FlowId};
///
/// // Two uncapped flows on a 1 MB/s link share it equally.
/// let mut set = FairShareSet::new();
/// set.admit(FlowId(1), 500_000.0, f64::INFINITY);
/// set.admit(FlowId(2), 500_000.0, f64::INFINITY);
/// let level = set.fill(1_000_000.0, SimTime::ZERO);
/// assert_eq!(level, 500_000.0);
/// assert_eq!(set.aggregate_rate(), 1_000_000.0);
/// let (t, id) = set.peek(SimTime::ZERO).unwrap();
/// assert_eq!((t.as_secs_f64(), id), (1.0, FlowId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct FairShareSet {
    flows: BTreeMap<FlowId, Flow>,
    /// Finite caps of all active (non-drained) flows.
    caps: CapMultiset,
    /// Active flows with an infinite cap (always sharing).
    inf_count: u64,
    /// Fair-share integral `V(t)`: advances at the level while any flow is
    /// sharing.
    vtime: f64,
    /// Rate of every sharing flow; `f64::INFINITY` when no level binds
    /// (every flow runs at its own cap).
    level: f64,
    /// Aggregate rate of the active flows at `level`.
    rate: f64,
    /// Sharing flows ordered by virtual finish tag: `(v_finish bits, id)`.
    sharing: BTreeSet<(u64, FlowId)>,
    /// Finite-cap sharing flows ordered by cap, for freeze range queries.
    sharing_by_cap: BTreeSet<(u64, FlowId)>,
    /// Capped flows ordered by absolute finish time: `(finish_secs bits, id)`.
    capped: BTreeSet<(u64, FlowId)>,
    /// Capped flows ordered by cap, for unfreeze range queries.
    capped_by_cap: BTreeSet<(u64, FlowId)>,
    /// Flows with zero bytes remaining (they complete "now").
    drained: BTreeSet<FlowId>,
}

impl Default for FairShareSet {
    // Not derivable: an empty set's level is infinite, not 0.
    fn default() -> Self {
        FairShareSet::new()
    }
}

// The small accessors are `#[inline]`: `mfc_topology`'s water-filling
// rounds call them from another crate once per route per partition step.
impl FairShareSet {
    /// Creates an empty set with no binding level.
    pub fn new() -> Self {
        FairShareSet {
            flows: BTreeMap::new(),
            caps: CapMultiset::new(),
            inf_count: 0,
            vtime: 0.0,
            level: f64::INFINITY,
            rate: 0.0,
            sharing: BTreeSet::new(),
            sharing_by_cap: BTreeSet::new(),
            capped: BTreeSet::new(),
            capped_by_cap: BTreeSet::new(),
            drained: BTreeSet::new(),
        }
    }

    /// Number of flows in the set, drained ones included.
    #[inline]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the set holds no flow at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: FlowId) -> bool {
        self.flows.contains_key(&id)
    }

    /// Number of flows with bytes left (the ones that take a share).
    #[inline]
    pub fn active(&self) -> u64 {
        self.caps.len() + self.inf_count
    }

    /// Whether any active flow has an infinite cap.
    #[inline]
    pub fn has_uncapped(&self) -> bool {
        self.inf_count > 0
    }

    /// The finite caps of the active flows.
    #[inline]
    pub fn caps(&self) -> &CapMultiset {
        &self.caps
    }

    /// The current level: the rate of every sharing flow.
    #[inline]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Aggregate rate of the active flows at the current level.
    #[inline]
    pub fn aggregate_rate(&self) -> f64 {
        self.rate
    }

    /// `Σ min(capᵢ, level)` over the active flows: the bandwidth the set
    /// demands when its flows are filled to a finite `level`.
    #[inline]
    pub fn demand_at(&self, level: f64) -> f64 {
        debug_assert!(level >= 0.0 && level.is_finite());
        let (count, sum) = self.caps.prefix(level.to_bits());
        sum + level * (self.active() - count) as f64
    }

    /// Admits a flow of `bytes` bytes capped at `rate_cap` bytes/s (non-
    /// negative; infinite for no cap).  A zero-byte flow is drained at
    /// once.  The owner sets a level afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is already in the set.
    pub fn admit(&mut self, id: FlowId, bytes: f64, rate_cap: Bandwidth) {
        let regime = if bytes <= 0.0 {
            Regime::Drained
        } else {
            Regime::Sharing {
                v_finish: self.vtime + bytes,
            }
        };
        let previous = self.flows.insert(id, Flow { rate_cap, regime });
        assert!(previous.is_none(), "flow {id:?} is already active");
        match regime {
            Regime::Sharing { v_finish } => {
                self.sharing.insert((v_finish.to_bits(), id));
                self.attach_cap(rate_cap, id);
            }
            _ => {
                self.drained.insert(id);
            }
        }
    }

    /// Removes a flow and returns the bytes it had not yet transferred at
    /// `now`, or `None` when it is not in the set.  Bytes it was
    /// over-drained by go to `refund` as a negative amount.
    pub fn remove(&mut self, id: FlowId, now: SimTime, refund: impl FnMut(f64)) -> Option<f64> {
        let flow = self.flows.remove(&id)?;
        let left = flow.left(self.vtime, now.as_secs_f64());
        self.unindex(&flow, id);
        Some(refunded(left, refund))
    }

    /// Changes the cap of a flow in the set (non-negative; infinite for no
    /// cap).  A capped flow re-enters the sharing regime with its remaining
    /// bytes; the owner's next level re-freezes it if the new cap is still
    /// under water.
    ///
    /// # Panics
    ///
    /// Panics if the flow is not in the set.
    pub fn set_cap(&mut self, id: FlowId, rate_cap: Bandwidth, now: SimTime) {
        let flow = self.flows.get_mut(&id).expect("flow is in the set");
        let old = *flow;
        if old.rate_cap.to_bits() == rate_cap.to_bits() {
            return;
        }
        flow.rate_cap = rate_cap;
        match old.regime {
            Regime::Drained => return,
            Regime::Sharing { .. } => self.detach_cap(old.rate_cap, id, true),
            Regime::Capped { .. } => {
                let v_finish = self.vtime + old.left(self.vtime, now.as_secs_f64()).max(0.0);
                flow.regime = Regime::Sharing { v_finish };
                self.sharing.insert((v_finish.to_bits(), id));
                self.unindex(&old, id);
            }
        }
        self.attach_cap(rate_cap, id);
    }

    /// Moves flows that finished by `now` (as of the current integral) into
    /// the drained state, releasing their share: sharing flows first, then
    /// capped ones, each in index order.  Over-drained bytes go to
    /// `refund`.  This is the lazy analogue of progressive filling's
    /// `remaining > 0` filter.
    pub fn sweep(&mut self, now: SimTime, mut refund: impl FnMut(f64)) {
        let now_secs = now.as_secs_f64();
        while let Some(&(v_bits, id)) = self.sharing.first() {
            if f64::from_bits(v_bits) > self.vtime {
                break;
            }
            self.drain(id, now_secs, &mut refund);
        }
        while let Some(&(f_bits, id)) = self.capped.first() {
            if f64::from_bits(f_bits) > now_secs {
                break;
            }
            self.drain(id, now_secs, &mut refund);
        }
    }

    /// The single-level fill: the max–min level of `capacity` bytes/s
    /// shared by the active flows, applied with [`Self::set_level`].
    /// Returns the level (`f64::INFINITY` when every flow fits under its
    /// own cap).
    pub fn fill(&mut self, capacity: Bandwidth, now: SimTime) -> f64 {
        let level = match self.active() {
            0 => f64::INFINITY,
            active => self.caps.water_level(capacity, active),
        };
        self.set_level(level, now);
        level
    }

    /// Sets the level: capped flows whose cap is above it go back to
    /// sharing, sharing flows whose cap is at or below it freeze at their
    /// cap (an infinite level freezes every finite-cap flow), and the
    /// aggregate rate is recomputed.  O(log n) plus O(log n) per flip.
    pub fn set_level(&mut self, level: f64, now: SimTime) {
        self.level = level;
        let now_secs = now.as_secs_f64();
        let level_bits = level.to_bits();

        // Capped flows whose cap is above the level (the top of the cap
        // index) go back to sharing.
        while let Some(&(cap_bits, id)) = self.capped_by_cap.last() {
            if cap_bits <= level_bits {
                break;
            }
            self.capped_by_cap.pop_last();
            let flow = self.flows.get_mut(&id).expect("indexed flow exists");
            let Regime::Capped { finish_secs, .. } = flow.regime else {
                unreachable!("capped index points at a non-capped flow");
            };
            let v_finish = self.vtime + flow.left(self.vtime, now_secs);
            flow.regime = Regime::Sharing { v_finish };
            self.capped.remove(&(finish_secs.to_bits(), id));
            self.sharing.insert((v_finish.to_bits(), id));
            self.sharing_by_cap.insert((cap_bits, id));
        }

        // Sharing flows whose cap is at or below the level (the bottom of
        // the cap index) freeze at their cap.
        while let Some(&(cap_bits, id)) = self.sharing_by_cap.first() {
            if cap_bits > level_bits {
                break;
            }
            self.sharing_by_cap.pop_first();
            let flow = self.flows.get_mut(&id).expect("indexed flow exists");
            let Regime::Sharing { v_finish } = flow.regime else {
                unreachable!("sharing index points at a non-sharing flow");
            };
            let r_ref = v_finish - self.vtime;
            let finish_secs = now_secs + r_ref / flow.rate_cap;
            flow.regime = Regime::Capped {
                r_ref,
                t_ref_secs: now_secs,
                finish_secs,
            };
            self.sharing.remove(&(v_finish.to_bits(), id));
            self.capped.insert((finish_secs.to_bits(), id));
            self.capped_by_cap.insert((cap_bits, id));
        }

        self.rate = if self.active() == 0 {
            0.0
        } else if level.is_finite() {
            self.demand_at(level)
        } else {
            self.caps.sum()
        };
    }

    /// Moves the fair-share integral forward by `elapsed` seconds at the
    /// current level.
    #[inline]
    pub fn advance(&mut self, elapsed: f64) {
        if !self.sharing.is_empty() {
            self.vtime += self.level * elapsed;
        }
    }

    /// The earliest completion as seen at `now` if nothing changes, or
    /// `None` when no flow has both bytes left and a positive rate.  Pure;
    /// completion times are absolute, so the answer is stable between
    /// mutations.
    pub fn peek(&self, now: SimTime) -> Option<(SimTime, FlowId)> {
        let drained = self.drained.first().map(|&id| (now, id));
        let sharing = self.sharing.first().and_then(|&(v_bits, id)| {
            let v_finish = f64::from_bits(v_bits);
            if v_finish <= self.vtime {
                return Some((now, id));
            }
            let secs = (v_finish - self.vtime) / self.level;
            secs.is_finite().then(|| (now + ceil_micros(secs), id))
        });
        let capped = self.capped.first().and_then(|&(f_bits, id)| {
            let finish_secs = f64::from_bits(f_bits);
            finish_secs.is_finite().then(|| {
                let t = SimTime::from_micros((finish_secs * 1_000_000.0).ceil() as u64);
                (t.max(now), id)
            })
        });
        [drained, sharing, capped].into_iter().flatten().min()
    }

    /// Remaining bytes of a flow at `now`, if it is in the set.
    pub fn remaining_bytes(&self, id: FlowId, now: SimTime) -> Option<f64> {
        let flow = self.flows.get(&id)?;
        Some(flow.left(self.vtime, now.as_secs_f64()).max(0.0))
    }

    /// The rate currently allocated to a flow, if it is in the set.
    pub fn current_rate(&self, id: FlowId) -> Option<Bandwidth> {
        let flow = self.flows.get(&id)?;
        Some(match flow.regime {
            Regime::Drained => 0.0,
            Regime::Sharing { .. } => self.level,
            Regime::Capped { .. } => flow.rate_cap,
        })
    }

    /// Indexes a sharing flow's cap.
    fn attach_cap(&mut self, rate_cap: Bandwidth, id: FlowId) {
        if rate_cap.is_finite() {
            self.caps.insert(rate_cap);
            self.sharing_by_cap.insert((rate_cap.to_bits(), id));
        } else {
            self.inf_count += 1;
        }
    }

    /// Drops a flow's cap from the cap indexes.
    fn detach_cap(&mut self, rate_cap: Bandwidth, id: FlowId, sharing: bool) {
        if rate_cap.is_finite() {
            self.caps.remove(rate_cap);
            let by_cap = if sharing {
                &mut self.sharing_by_cap
            } else {
                &mut self.capped_by_cap
            };
            by_cap.remove(&(rate_cap.to_bits(), id));
        } else {
            self.inf_count -= 1;
        }
    }

    /// Drops every index entry of `flow` as it stood in its regime.
    fn unindex(&mut self, flow: &Flow, id: FlowId) {
        match flow.regime {
            Regime::Drained => {
                self.drained.remove(&id);
            }
            Regime::Sharing { v_finish } => {
                self.sharing.remove(&(v_finish.to_bits(), id));
                self.detach_cap(flow.rate_cap, id, true);
            }
            Regime::Capped { finish_secs, .. } => {
                self.capped.remove(&(finish_secs.to_bits(), id));
                self.detach_cap(flow.rate_cap, id, false);
            }
        }
    }

    /// Retires a finished flow into the drained state.
    fn drain(&mut self, id: FlowId, now_secs: f64, refund: impl FnMut(f64)) {
        let flow = self.flows.get_mut(&id).expect("indexed flow exists");
        let old = *flow;
        flow.regime = Regime::Drained;
        refunded(old.left(self.vtime, now_secs), refund);
        self.unindex(&old, id);
        self.drained.insert(id);
    }
}

/// Hands a negative (over-drained) byte count to `refund` and returns the
/// count clamped at zero.
fn refunded(left: f64, mut refund: impl FnMut(f64)) -> f64 {
    if left < 0.0 {
        refund(left);
    }
    left.max(0.0)
}

/// Rounds a span of seconds *up* to the clock's microsecond resolution so
/// that advancing to the reported completion time always drains the flow
/// completely; rounding to nearest could leave a sliver of bytes behind on
/// very fast links.
fn ceil_micros(secs: f64) -> SimDuration {
    SimDuration::from_micros((secs * 1_000_000.0).ceil().max(0.0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn level_freezes_caps_at_or_below_it_and_releases_the_rest() {
        let mut set = FairShareSet::new();
        set.admit(FlowId(1), 1e6, 100.0);
        set.admit(FlowId(2), 1e6, 300.0);
        set.admit(FlowId(3), 1e6, f64::INFINITY);
        set.set_level(100.0, t(0.0));
        assert_eq!(
            set.current_rate(FlowId(1)),
            Some(100.0),
            "cap == level freezes"
        );
        assert_eq!(set.current_rate(FlowId(2)), Some(100.0));
        assert_eq!(set.aggregate_rate(), 300.0);
        // A higher level freezes the 300 cap; a lower one releases both.
        set.set_level(400.0, t(0.0));
        assert_eq!(set.current_rate(FlowId(2)), Some(300.0));
        assert_eq!(set.aggregate_rate(), 800.0);
        set.set_level(50.0, t(0.0));
        assert_eq!(set.current_rate(FlowId(1)), Some(50.0));
        assert_eq!(set.aggregate_rate(), 150.0);
    }

    #[test]
    fn over_drained_bytes_are_refunded_in_sweep_order() {
        let mut set = FairShareSet::new();
        set.admit(FlowId(1), 100.0, f64::INFINITY);
        set.admit(FlowId(2), 300.0, 100.0);
        set.set_level(100.0, t(0.0));
        // Both flows run at 100 B/s; the owner overshoots to t = 4 s, so the
        // sharing flow is 300 B over and the capped one 100 B over.
        set.advance(4.0);
        let mut refunds = Vec::new();
        set.sweep(t(4.0), |over| refunds.push(over));
        assert_eq!(refunds, vec![-300.0, -100.0]);
        assert_eq!(set.active(), 0);
        assert_eq!(set.peek(t(4.0)), Some((t(4.0), FlowId(1))));
        assert_eq!(
            set.remove(FlowId(1), t(4.0), |_| panic!("no refund")),
            Some(0.0)
        );
    }

    #[test]
    fn a_new_cap_moves_a_capped_flow_back_to_sharing_with_its_bytes() {
        let mut set = FairShareSet::new();
        set.admit(FlowId(1), 1_000.0, 100.0);
        set.set_level(f64::INFINITY, t(0.0));
        set.advance(2.0);
        set.set_cap(FlowId(1), f64::INFINITY, t(2.0));
        assert!(set.has_uncapped());
        set.set_level(500.0, t(2.0));
        assert_eq!(set.remaining_bytes(FlowId(1), t(2.0)), Some(800.0));
        assert_eq!(set.peek(t(2.0)), Some((t(3.6), FlowId(1))));
    }
}
