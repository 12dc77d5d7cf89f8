//! Load-balanced server clusters.
//!
//! The production QTP system the authors tested routes all requests for one
//! IP address to "a specific data center which houses 16 multiprocessor
//! servers in a load-balanced configuration" (§4.1).  The MFC saw no
//! response-time impact even with 375 simultaneous requests because the
//! load spread across those replicas.  [`ServerCluster`] reproduces that
//! arrangement: a front-end balancer distributes arrivals over `n`
//! identical [`ServerEngine`]s, each with its own caches, and merges the
//! results.
//!
//! This module also holds the drive (`drive_controlled_stream`), the one
//! loop that steps [`EngineSession`]s through a run.  Every entry point is
//! a thin wrapper over it: [`ServerCluster::run_controlled_streamed`] feeds
//! it a time-ordered stream, [`ServerCluster::run_controlled`] and the
//! static [`ServerCluster::run`] a batch (sorted by arrival, outcomes put
//! back in submission order), and [`ServerEngine::run`] /
//! [`ServerEngine::run_streamed`] a one-replica fleet.  Static runs use
//! [`NullControl`].  Round robin rotates over the replicas in the order the
//! drive admits requests, i.e. arrival order.

use mfc_simcore::{SimDuration, SimTime, TimeWeighted};
use mfc_simnet::Bandwidth;

use crate::cache::CacheState;
use crate::config::ServerConfig;
use crate::content::ContentCatalog;
use crate::control::{AdmissionVerdict, ControlAction, NullControl, ServerControl, TickSample};
use crate::engine::{EngineSession, RunResult, ServerEngine};
use crate::request::{ArrivalRecord, RequestOutcome, RequestStatus, ServerRequest};
use crate::telemetry::UtilizationReport;

/// How the balancer assigns requests to replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancePolicy {
    /// Strict rotation over the replicas in arrival order.
    RoundRobin,
    /// Assignment by a stable hash of the request id (models flow-hash /
    /// source-hash balancers; keeps a client's retries on one replica).
    HashById,
    /// Each request goes to the replica with the fewest requests currently
    /// in flight (a least-connections balancer).  This is what lets an
    /// autoscaler's freshly provisioned replicas actually absorb load: a
    /// new replica starts with zero outstanding requests and immediately
    /// attracts the incoming tail of the crowd, where round robin would
    /// keep handing it only its 1/n share.
    LeastOutstanding,
}

/// A load-balanced group of identical servers.
///
/// # Examples
///
/// ```
/// use mfc_webserver::{ContentCatalog, ServerCluster, ServerConfig};
///
/// let cluster = ServerCluster::new(
///     ServerConfig::commercial_frontend(),
///     ContentCatalog::typical_site(3),
///     16,
/// );
/// assert_eq!(cluster.replicas(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct ServerCluster {
    engine: ServerEngine,
    replicas: usize,
    /// Replicas currently routable in controlled runs; persists across
    /// runs so an autoscaler's provisioning decisions outlive one epoch.
    active: usize,
    policy: BalancePolicy,
    caches: Vec<CacheState>,
}

impl ServerCluster {
    /// Creates a cluster of `replicas` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(config: ServerConfig, catalog: ContentCatalog, replicas: usize) -> Self {
        assert!(replicas > 0, "a cluster needs at least one replica");
        ServerCluster {
            engine: ServerEngine::new(config, catalog),
            replicas,
            active: replicas,
            policy: BalancePolicy::RoundRobin,
            caches: vec![CacheState::new(); replicas],
        }
    }

    /// Selects the balancing policy (round robin by default).
    pub fn with_policy(mut self, policy: BalancePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Places a shared-bottleneck WAN topology in front of every serving
    /// replica; see [`ServerEngine::with_topology`].  Transit links are
    /// instantiated per serving replica, so for a fixed-size cluster the
    /// caller should pass an aggregate-preserving per-replica share
    /// (`TopologySpec::share_across(replicas)`, as `SimBackend` does); a
    /// replica count that changes mid-run would silently multiply the
    /// shared capacity and is rejected upstream.
    pub fn with_topology(mut self, topology: mfc_topology::TopologySpec) -> Self {
        self.engine.set_topology(topology);
        self
    }

    /// Number of replicas the cluster was configured with.  The static
    /// [`ServerCluster::run`] always spreads over all of them.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Replicas currently routable in [`ServerCluster::run_controlled`]
    /// (changed by `ControlAction::SetReplicas`; starts at the configured
    /// count).
    pub fn active_replicas(&self) -> usize {
        self.active
    }

    /// The per-replica cache states (useful for inspecting warmth).
    pub fn caches(&self) -> &[CacheState] {
        &self.caches
    }

    /// Processes one batch of requests under a [`ServerControl`] loop.
    ///
    /// Requests are swept in arrival order, interleaved deterministically
    /// with the control's telemetry ticks; each arrival is offered to the
    /// control (which may shed it with a 503 or clamp its transfer rate)
    /// and then routed over the currently *active* replicas.  `SetReplicas`
    /// actions take effect immediately for subsequent arrivals: scale-up
    /// replicas start cold, scale-down replicas finish their in-flight
    /// work but stop receiving traffic.  The active count persists to the
    /// next run.  Outcomes are returned in submission order.
    pub fn run_controlled(
        &mut self,
        requests: Vec<ServerRequest>,
        control: &mut dyn ServerControl,
    ) -> RunResult {
        drive_controlled(
            &self.engine,
            &mut self.caches,
            &mut self.active,
            self.policy,
            requests,
            control,
        )
    }

    /// [`ServerCluster::run_controlled`] over a lazily generated,
    /// time-ordered request stream: requests are consumed one at a time as
    /// the sweep's virtual clock reaches them, so a workload stream of
    /// millions of sessions drives the cluster without ever materializing
    /// the request list.  Outcomes are returned in stream (arrival) order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the stream is not time-ordered.
    pub fn run_controlled_streamed<I>(
        &mut self,
        requests: I,
        control: &mut dyn ServerControl,
    ) -> RunResult
    where
        I: IntoIterator<Item = ServerRequest>,
    {
        drive_controlled_stream(
            &self.engine,
            &mut self.caches,
            &mut self.active,
            self.policy,
            requests.into_iter(),
            control,
        )
    }

    /// Processes one batch of requests on the static cluster — every
    /// configured replica routable, no control loop — and returns the
    /// merged result with outcomes in submission order.
    ///
    /// The utilization report aggregates the replicas: CPU utilization and
    /// worker occupancy are averaged, byte and operation counters are
    /// summed, and peak memory is the maximum of any single replica (that
    /// is the machine that would start swapping first).
    pub fn run(&mut self, requests: Vec<ServerRequest>) -> RunResult {
        let mut active = self.replicas;
        drive_controlled(
            &self.engine,
            &mut self.caches,
            &mut active,
            self.policy,
            requests,
            &mut NullControl,
        )
    }
}

/// Where one fed request ended up.
enum Placement {
    /// Routed to this replica; its outcome is that replica's next one.
    Routed(usize),
    /// Shed at the front door; the 503 outcome is recorded directly.
    Shed(RequestOutcome),
}

/// Mutable state of one sweep: the per-replica sessions, the capacity
/// overrides, and the front-door counters.  Methods scope the borrows
/// between the sessions, the cache pool and the overrides.
struct DriveState<'e, 'c> {
    engine: &'e ServerEngine,
    caches: &'c mut Vec<CacheState>,
    sessions: Vec<EngineSession<'e>>,
    /// Replicas currently routable.
    active: usize,
    /// Capacity overrides installed by ControlActions; applied to existing
    /// sessions immediately and to later-created replicas at birth.
    link_override: Option<Bandwidth>,
    cpu_override: Option<f64>,
    arrivals: u64,
    shed_count: u64,
    throttled_count: u64,
    /// Aggregate outbound capacity (active replicas × per-replica link)
    /// over time, so the reported `link_capacity` reflects mid-run
    /// scale-ups and capacity steps instead of only the end-of-run state.
    capacity_series: TimeWeighted,
    /// Latest virtual time the sweep advanced to.
    last_time: SimTime,
}

impl<'e, 'c> DriveState<'e, 'c> {
    fn new(
        engine: &'e ServerEngine,
        caches: &'c mut Vec<CacheState>,
        active: usize,
        t0: SimTime,
    ) -> Self {
        let initial_capacity = active.max(1) as f64 * engine.config().access_link;
        DriveState {
            engine,
            caches,
            sessions: Vec::new(),
            active: active.max(1),
            link_override: None,
            cpu_override: None,
            arrivals: 0,
            shed_count: 0,
            throttled_count: 0,
            capacity_series: TimeWeighted::new(t0, initial_capacity),
            last_time: t0,
        }
    }

    fn aggregate_capacity(&self) -> f64 {
        self.active as f64
            * self
                .link_override
                .unwrap_or(self.engine.config().access_link)
    }

    /// Creates replica sessions up to and including `replica`, borrowing
    /// their cache state from the pool (and growing the pool as needed).
    fn ensure_session(&mut self, replica: usize) {
        while self.sessions.len() <= replica {
            let idx = self.sessions.len();
            if self.caches.len() <= idx {
                self.caches.push(CacheState::new());
            }
            let cache = std::mem::replace(&mut self.caches[idx], CacheState::new());
            let mut session = self.engine.session(cache);
            if let Some(bw) = self.link_override {
                session.set_access_link(bw, SimTime::ZERO);
            }
            if let Some(factor) = self.cpu_override {
                session.scale_cpu(factor, SimTime::ZERO);
            }
            self.sessions.push(session);
        }
    }

    fn advance_all(&mut self, now: SimTime) {
        for session in self.sessions.iter_mut() {
            session.run_until(now);
        }
        self.last_time = self.last_time.max(now);
    }

    fn sample(&self, now: SimTime) -> TickSample {
        let mut sample = TickSample::idle(now, self.active);
        sample.arrivals = self.arrivals;
        sample.shed = self.shed_count;
        // Load counters aggregate every session, including replicas retired
        // by a scale-down that are still draining in-flight work; the
        // utilization means, however, describe the *routable* fleet — a
        // still-booting replica counts as idle (it exists but has no
        // session yet) and a retired one no longer dilutes the average.
        let routable = self.active.min(self.sessions.len());
        for (replica, session) in self.sessions.iter().enumerate() {
            sample.in_flight += session.in_flight();
            sample.busy_workers += u64::from(session.busy_workers());
            sample.queued += session.queued() as u64;
            sample.memory_used += session.memory_used();
            sample.completed += session.completed();
            sample.refused += session.refused();
            if replica < routable {
                sample.cpu_utilization += session.cpu_utilization();
                sample.link_utilization += session.link_utilization();
            }
        }
        sample.cpu_utilization /= self.active as f64;
        sample.link_utilization /= self.active as f64;
        sample
    }

    fn apply(&mut self, action: ControlAction, now: SimTime) {
        match action {
            ControlAction::SetReplicas(n) => {
                self.active = n.max(1);
                self.capacity_series.set(now, self.aggregate_capacity());
            }
            ControlAction::SetAccessLink(bw) => {
                self.link_override = Some(bw);
                for session in self.sessions.iter_mut() {
                    session.set_access_link(bw, now);
                }
                self.capacity_series.set(now, self.aggregate_capacity());
            }
            ControlAction::ScaleCpu(factor) => {
                self.cpu_override = Some(factor);
                for session in self.sessions.iter_mut() {
                    session.scale_cpu(factor, now);
                }
            }
        }
    }

    /// Advances to `now`, hands the control loop a fresh telemetry sample
    /// and applies whatever it decided.
    fn do_tick(&mut self, now: SimTime, control: &mut dyn ServerControl) {
        self.advance_all(now);
        let sample = self.sample(now);
        let mut actions = Vec::new();
        control.on_tick(now, &sample, &mut actions);
        for action in actions {
            self.apply(action, now);
        }
    }

    fn route(&self, policy: BalancePolicy, rr_counter: &mut usize, req: &ServerRequest) -> usize {
        match policy {
            BalancePolicy::RoundRobin => {
                let r = *rr_counter % self.active;
                *rr_counter += 1;
                r
            }
            BalancePolicy::HashById => (req.id as usize) % self.active,
            BalancePolicy::LeastOutstanding => (0..self.active)
                .min_by_key(|&r| self.sessions.get(r).map(|s| s.in_flight()).unwrap_or(0))
                .expect("at least one active replica"),
        }
    }

    /// Time-weighted mean aggregate capacity over the sweep (the value an
    /// `atop`-style monitor would have averaged).
    fn mean_link_capacity(&self) -> f64 {
        self.capacity_series.average_until(self.last_time)
    }
}

/// The batch form of [`drive_controlled_stream`], behind
/// [`ServerEngine::run`], [`ServerCluster::run`] and
/// [`ServerCluster::run_controlled`]: sorts the requests by (arrival,
/// submission index), drives them, and reports outcomes in submission
/// order.
pub(crate) fn drive_controlled(
    engine: &ServerEngine,
    caches: &mut Vec<CacheState>,
    active: &mut usize,
    policy: BalancePolicy,
    requests: Vec<ServerRequest>,
    control: &mut dyn ServerControl,
) -> RunResult {
    let total = requests.len();
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by_key(|&i| (requests[i].arrival, i));
    let mut slots: Vec<Option<ServerRequest>> = requests.into_iter().map(Some).collect();
    let sorted = order
        .iter()
        .map(|&i| slots[i].take().expect("each request consumed once"));
    let mut result = drive_controlled_stream(engine, caches, active, policy, sorted, control);
    // The drive reports outcomes in fed (arrival) order; put them back in
    // submission order.
    let mut outcomes: Vec<Option<RequestOutcome>> = (0..total).map(|_| None).collect();
    for (fed_index, outcome) in result.outcomes.drain(..).enumerate() {
        outcomes[order[fed_index]] = Some(outcome);
    }
    result.outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every request was placed or shed"))
        .collect();
    result
}

/// The drive: the one loop that steps [`EngineSession`]s through a run.
///
/// Every simulated server run comes through here — a single server is a
/// one-replica fleet, a static target runs under [`NullControl`].
/// Requests are consumed lazily in arrival order (a workload stream never
/// has to materialize); each is offered to the control loop, routed over
/// the active replicas and pushed into that replica's session, with the
/// control's telemetry ticks interleaved deterministically between
/// arrivals and during the drain.  Outcomes are reported in the order the
/// requests were fed.
///
/// Tie rule: before a request arriving at `t` is admitted, every session
/// processes all of its events at or before `t`, so work that completes
/// at `t` frees its worker (or queue slot) before the arrival at `t`
/// claims one.  A tick due at `t` fires before the arrival at `t`.
pub(crate) fn drive_controlled_stream(
    engine: &ServerEngine,
    caches: &mut Vec<CacheState>,
    active: &mut usize,
    policy: BalancePolicy,
    requests: impl Iterator<Item = ServerRequest>,
    control: &mut dyn ServerControl,
) -> RunResult {
    let mut requests = requests.peekable();
    let mut placement: Vec<Placement> = Vec::new();
    let mut rr_counter = 0usize;
    let mut shed_log: Vec<ArrivalRecord> = Vec::new();

    let tick = control.tick_interval();
    let t0 = requests.peek().map(|r| r.arrival).unwrap_or(SimTime::ZERO);
    let mut next_tick = tick.map(|d| t0 + d);
    let mut drive = DriveState::new(engine, caches, *active, t0);

    // Arrival sweep.
    let mut last_arrival = t0;
    for req in requests {
        let arrival = req.arrival;
        debug_assert!(
            arrival >= last_arrival,
            "requests must be fed in arrival order"
        );
        last_arrival = arrival;
        while let (Some(d), Some(at)) = (tick, next_tick) {
            if at > arrival {
                break;
            }
            drive.do_tick(at, control);
            next_tick = Some(at + d);
        }
        drive.advance_all(arrival);
        drive.arrivals += 1;
        match control.on_arrival(arrival, &req) {
            AdmissionVerdict::Shed => {
                shed_log.push(ArrivalRecord {
                    id: req.id,
                    arrival,
                    background: req.background,
                });
                placement.push(Placement::Shed(RequestOutcome {
                    id: req.id,
                    arrival,
                    status: RequestStatus::Shed,
                    completion: arrival,
                    body_bytes: 0,
                    background: req.background,
                }));
                drive.shed_count += 1;
            }
            verdict => {
                let mut req = req;
                if let AdmissionVerdict::Throttle(rate) = verdict {
                    req.client_downlink = req.client_downlink.min(rate.max(1.0));
                    drive.throttled_count += 1;
                }
                let replica = drive.route(policy, &mut rr_counter, &req);
                drive.ensure_session(replica);
                placement.push(Placement::Routed(replica));
                drive.sessions[replica].push_request(req);
            }
        }
    }

    // Drain, keeping ticks firing while work remains.
    loop {
        let next_event = drive
            .sessions
            .iter_mut()
            .filter_map(|s| s.next_event_time())
            .min();
        let Some(next_event) = next_event else { break };
        match (tick, next_tick) {
            (Some(d), Some(at)) if at <= next_event => {
                drive.do_tick(at, control);
                next_tick = Some(at + d);
            }
            _ => drive.advance_all(next_event),
        }
    }

    *active = drive.active;
    let link_capacity = drive.mean_link_capacity();
    let DriveState {
        caches,
        sessions,
        shed_count,
        throttled_count,
        ..
    } = drive;

    // Collect per-replica results, handing caches back for the next run.
    let mut replica_results: Vec<RunResult> = Vec::with_capacity(sessions.len());
    for (idx, session) in sessions.into_iter().enumerate() {
        let (result, cache) = session.finish();
        caches[idx] = cache;
        replica_results.push(result);
    }

    // A session reports outcomes in push order, so each replica's outcomes
    // are consumed front to back as the placements name it.
    let mut replica_outcomes: Vec<_> = replica_results
        .iter_mut()
        .map(|r| std::mem::take(&mut r.outcomes).into_iter())
        .collect();
    let outcomes = placement
        .into_iter()
        .map(|slot| match slot {
            Placement::Routed(replica) => replica_outcomes[replica]
                .next()
                .expect("one outcome per routed request"),
            Placement::Shed(outcome) => outcome,
        })
        .collect();

    let mut arrival_log = shed_log;
    for result in &replica_results {
        arrival_log.extend(result.arrival_log.iter().cloned());
    }
    arrival_log.sort_by_key(|r| (r.arrival, r.id));
    // Means average the replicas that served; an empty run reports zeros.
    let reports: Vec<&UtilizationReport> = replica_results.iter().map(|r| &r.utilization).collect();
    let mean = |field: fn(&UtilizationReport) -> f64| {
        if reports.is_empty() {
            0.0
        } else {
            reports.iter().map(|u| field(u)).sum::<f64>() / reports.len() as f64
        }
    };
    let total = |field: fn(&UtilizationReport) -> u64| reports.iter().map(|u| field(u)).sum();
    let peak =
        |field: fn(&UtilizationReport) -> u64| reports.iter().map(|u| field(u)).max().unwrap_or(0);
    let utilization = UtilizationReport {
        window: reports
            .iter()
            .map(|u| u.window)
            .max()
            .unwrap_or(SimDuration::ZERO),
        cpu_utilization: mean(|u| u.cpu_utilization),
        peak_memory_bytes: peak(|u| u.peak_memory_bytes),
        mean_memory_bytes: mean(|u| u.mean_memory_bytes),
        network_bytes_sent: total(|u| u.network_bytes_sent),
        disk_operations: total(|u| u.disk_operations),
        mean_busy_workers: mean(|u| u.mean_busy_workers),
        peak_busy_workers: reports
            .iter()
            .map(|u| u.peak_busy_workers)
            .max()
            .unwrap_or(0),
        refused_requests: total(|u| u.refused_requests),
        completed_requests: total(|u| u.completed_requests),
        shed_requests: shed_count,
        throttled_requests: throttled_count,
        link_capacity,
    };

    RunResult {
        outcomes,
        utilization,
        arrival_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatabaseConfig, WorkerConfig};
    use crate::request::RequestClass;
    use mfc_simcore::SimTime;

    fn head(id: u64) -> ServerRequest {
        ServerRequest {
            id,
            arrival: SimTime::ZERO,
            class: RequestClass::Head,
            path: "/index.html".to_string(),
            client_downlink: 1e7,
            client_rtt: SimDuration::from_millis(40),
            client_addr: id as u32,
            background: false,
        }
    }

    fn query(id: u64, path: &str) -> ServerRequest {
        ServerRequest {
            id,
            arrival: SimTime::ZERO,
            class: RequestClass::Dynamic,
            path: path.to_string(),
            client_downlink: 1e7,
            client_rtt: SimDuration::from_millis(40),
            client_addr: id as u32,
            background: false,
        }
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = ServerCluster::new(
            ServerConfig::lab_apache(),
            ContentCatalog::lab_validation(),
            0,
        );
    }

    #[test]
    fn outcomes_keep_submission_order() {
        let mut cluster = ServerCluster::new(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
            4,
        );
        let requests: Vec<ServerRequest> = (0..20).map(head).collect();
        let result = cluster.run(requests);
        let ids: Vec<u64> = result.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>());
        assert!(result
            .outcomes
            .iter()
            .all(|o| o.status == RequestStatus::Ok));
    }

    #[test]
    fn cluster_absorbs_load_better_than_single_server() {
        let config = ServerConfig::lab_apache();
        let catalog = ContentCatalog::lab_validation();
        let requests: Vec<ServerRequest> =
            (0..64).map(|i| query(i, "/cgi/stats?table=t1")).collect();

        let mut single = ServerCluster::new(config.clone(), catalog.clone(), 1);
        let single_result = single.run(requests.clone());
        let mut cluster = ServerCluster::new(config, catalog, 16);
        let cluster_result = cluster.run(requests);

        let worst_single = single_result
            .outcomes
            .iter()
            .map(|o| o.latency())
            .max()
            .unwrap();
        let worst_cluster = cluster_result
            .outcomes
            .iter()
            .map(|o| o.latency())
            .max()
            .unwrap();
        assert!(
            worst_cluster < worst_single,
            "16 replicas must beat 1: {worst_cluster} vs {worst_single}"
        );
    }

    #[test]
    fn arrival_log_covers_all_requests() {
        let mut cluster = ServerCluster::new(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
            3,
        );
        let result = cluster.run((0..9).map(head).collect());
        assert_eq!(result.arrival_log.len(), 9);
    }

    #[test]
    fn hash_policy_is_deterministic_per_id() {
        let mut a = ServerCluster::new(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
            4,
        )
        .with_policy(BalancePolicy::HashById);
        let mut b = ServerCluster::new(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
            4,
        )
        .with_policy(BalancePolicy::HashById);
        let ra = a.run((0..16).map(head).collect());
        let rb = b.run((0..16).map(head).collect());
        let la: Vec<_> = ra.outcomes.iter().map(|o| o.completion).collect();
        let lb: Vec<_> = rb.outcomes.iter().map(|o| o.completion).collect();
        assert_eq!(la, lb);
    }

    /// A slow dynamic query parked on one replica plus a trickle of HEADs
    /// spaced so each settles before the next arrives: under round robin
    /// every second HEAD lands behind the query and shares the CPU with it;
    /// least-outstanding sees the busy replica's outstanding count and
    /// steers every HEAD to the idle one.
    fn skewed_workload() -> Vec<ServerRequest> {
        let mut requests = vec![ServerRequest {
            id: 0,
            arrival: SimTime::ZERO,
            class: RequestClass::Dynamic,
            path: "/cgi/stats?table=t1".to_string(),
            client_downlink: 1e7,
            client_rtt: SimDuration::from_millis(40),
            client_addr: 0,
            background: false,
        }];
        for id in 1..=6u64 {
            let mut r = head(id);
            r.arrival = SimTime::ZERO + SimDuration::from_millis(25 * id);
            requests.push(r);
        }
        requests
    }

    /// Lab server with an expensive base page and a very slow back end, so
    /// CPU sharing against the parked query visibly inflates HEAD parses.
    fn skewed_config() -> ServerConfig {
        ServerConfig {
            workers: WorkerConfig {
                per_request_cpu: 0.002,
                base_page_cpu: 0.008,
                ..WorkerConfig::default()
            },
            database: DatabaseConfig {
                query_cache: false,
                base_query_cpu: 0.5,
                ..DatabaseConfig::default()
            },
            ..ServerConfig::lab_apache()
        }
    }

    #[test]
    fn least_outstanding_avoids_the_busy_replica() {
        let catalog = ContentCatalog::lab_validation();
        let run_with = |policy: BalancePolicy| {
            let mut cluster =
                ServerCluster::new(skewed_config(), catalog.clone(), 2).with_policy(policy);
            cluster.run(skewed_workload())
        };
        let rr = run_with(BalancePolicy::RoundRobin);
        let lo = run_with(BalancePolicy::LeastOutstanding);

        // Pin the routing against round robin: RR deals HEADs 2, 4, 6 onto
        // the replica stuck with the 500 ms query, where processor sharing
        // doubles their 10 ms parse; LO parses every HEAD at full speed.
        let worst = |result: &RunResult| {
            result.outcomes[1..]
                .iter()
                .map(|o| o.latency())
                .max()
                .unwrap()
        };
        assert!(
            worst(&rr) >= worst(&lo) + SimDuration::from_millis(5),
            "round robin must queue HEADs behind the busy replica: rr {} vs lo {}",
            worst(&rr),
            worst(&lo)
        );
        // Everything still completes under both policies.
        assert!(rr.outcomes.iter().all(|o| o.is_ok()));
        assert!(lo.outcomes.iter().all(|o| o.is_ok()));
        assert_eq!(lo.outcomes.len(), 7);
        // Outcomes stay in submission order through the sweep path.
        let ids: Vec<u64> = lo.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn least_outstanding_is_deterministic() {
        let config = ServerConfig::lab_apache();
        let catalog = ContentCatalog::lab_validation();
        let run_once = || {
            let mut cluster = ServerCluster::new(config.clone(), catalog.clone(), 3)
                .with_policy(BalancePolicy::LeastOutstanding);
            let result = cluster.run(skewed_workload());
            result
                .outcomes
                .iter()
                .map(|o| o.completion)
                .collect::<Vec<_>>()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn controlled_run_with_null_control_matches_plain_run_shape() {
        let run_both = |config: ServerConfig, requests: Vec<ServerRequest>| {
            let catalog = ContentCatalog::lab_validation();
            let plain =
                ServerCluster::new(config.clone(), catalog.clone(), 3).run(requests.clone());
            let controlled = ServerCluster::new(config, catalog, 3)
                .run_controlled(requests, &mut crate::control::NullControl);
            (plain, controlled)
        };

        let (plain, controlled) = run_both(
            ServerConfig::commercial_frontend(),
            (0..12).map(head).collect(),
        );
        assert_eq!(plain.outcomes.len(), controlled.outcomes.len());
        assert_eq!(controlled.utilization.completed_requests, 12);
        assert_eq!(controlled.utilization.shed_requests, 0);
        assert_eq!(plain.outcomes, controlled.outcomes);

        // Staggered arrivals submitted out of arrival order: round robin
        // rotates in arrival order on both paths, so the overlapping parses
        // pile up identically.
        let arrivals_ms = [5u64, 0, 9, 3, 7, 1, 10, 4, 2, 11, 6, 8];
        let requests: Vec<ServerRequest> = arrivals_ms
            .iter()
            .enumerate()
            .map(|(id, &ms)| {
                let mut r = head(id as u64);
                r.arrival = SimTime::ZERO + SimDuration::from_millis(ms);
                r
            })
            .collect();
        let (plain, controlled) = run_both(skewed_config(), requests);
        assert_eq!(plain.outcomes, controlled.outcomes);
        assert_eq!(plain.utilization, controlled.utilization);
        // The arrivals at 0, 1 and 2 ms (ids 1, 5, 8) open one replica
        // each, so each parses alone; rotating by submission index would
        // have stacked ids 5 and 8 on the same replica.
        let latency = |id: usize| controlled.outcomes[id].latency();
        assert_eq!(latency(1), latency(5));
        assert_eq!(latency(1), latency(8));
    }

    #[test]
    fn set_replicas_action_persists_across_runs() {
        use crate::control::{AdmissionVerdict, ControlAction, ServerControl, TickSample};

        /// Scales to a fixed target at the first tick.
        struct ScaleTo(usize);
        impl ServerControl for ScaleTo {
            fn tick_interval(&self) -> Option<SimDuration> {
                Some(SimDuration::from_millis(10))
            }
            fn on_arrival(&mut self, _: SimTime, _: &ServerRequest) -> AdmissionVerdict {
                AdmissionVerdict::Accept
            }
            fn on_tick(&mut self, _: SimTime, _: &TickSample, actions: &mut Vec<ControlAction>) {
                actions.push(ControlAction::SetReplicas(self.0));
            }
        }

        let mut cluster = ServerCluster::new(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
            2,
        );
        assert_eq!(cluster.active_replicas(), 2);
        let mut requests: Vec<ServerRequest> = (0..40).map(head).collect();
        // Spread arrivals so ticks interleave.
        for (i, r) in requests.iter_mut().enumerate() {
            r.arrival = SimTime::ZERO + SimDuration::from_millis(i as u64 * 5);
        }
        let result = cluster.run_controlled(requests, &mut ScaleTo(5));
        assert!(result.outcomes.iter().all(|o| o.is_ok()));
        assert_eq!(cluster.active_replicas(), 5);
        // The caches grew to cover the provisioned replicas.
        assert!(cluster.caches().len() >= 5);
    }

    #[test]
    fn utilization_counters_are_aggregated() {
        let mut cluster = ServerCluster::new(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
            2,
        );
        let result = cluster.run((0..10).map(head).collect());
        assert_eq!(result.utilization.completed_requests, 10);
        assert_eq!(result.utilization.refused_requests, 0);
    }
}
