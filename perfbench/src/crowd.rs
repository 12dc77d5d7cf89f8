//! `crowd`: the DDoS-assessment use.  Well-provisioned targets behind
//! multi-hop WAN topologies get Large Object ladders that climb to
//! thousands of simultaneous clients, and ramping floods of 10k transfers
//! go through an autoscaled, admission-controlled cluster.

use std::time::Instant;

use mfc_core::backend::sim::{SimBackend, SimTargetSpec};
use mfc_core::config::MfcConfig;
use mfc_core::types::Stage;
use mfc_dynamics::{AutoScalerConfig, DefenseConfig};
use mfc_simcore::{SimDuration, SimRng, SimTime};
use mfc_simnet::{mbps, Bandwidth, FlowId, FluidLink, PopulationProfile, WideAreaModel};
use mfc_topology::{BuiltTopology, TopologySpec};
use mfc_webserver::{
    BalancePolicy, ContentCatalog, RequestClass, ServerCluster, ServerConfig, ServerRequest,
    WorkerConfig,
};

use crate::bench::{guarded, profile, run_digest, OpKind, OpResult};
use crate::trace::{span, Counts, Name, TracedControl};
use crate::Scale;

/// Path of the Large Object every ladder and flood requests.
const OBJECT: &str = "/objects/large_100k.bin";
const OBJECT_BYTES: f64 = 100.0 * 1024.0;
/// Access-link capacity of every ladder target.
const ACCESS: Bandwidth = 8e9 / 8.0;

/// One ladder target.
struct Target {
    spec: SimTargetSpec,
    backend_seed: u64,
    coordinator_seed: u64,
}

/// One flood: its cluster, defenses and requests.
pub struct Flood {
    cluster: ServerCluster,
    defenses: DefenseConfig,
    requests: Vec<ServerRequest>,
}

/// A round's inputs.
pub struct Inputs {
    backends: Vec<(SimBackend, u64)>,
    floods: Vec<Flood>,
}

/// The crowd workload.
pub struct Crowd {
    clients: usize,
    config: MfcConfig,
    targets: usize,
    floods: usize,
    flood_size: u64,
}

impl Crowd {
    /// Sizes the workload.
    pub fn new(scale: Scale) -> Crowd {
        let (clients, max_crowd, increment, targets, floods, flood_size) = match scale {
            Scale::Full => (2_000, 2_000, 500, 4, 2, 10_000),
            Scale::Tiny => (200, 150, 50, 2, 1, 1_000),
        };
        Crowd {
            clients,
            config: MfcConfig::standard()
                .with_stages(vec![Stage::LargeObject])
                .with_threshold(SimDuration::from_secs(1))
                .with_max_crowd(max_crowd)
                .with_increment(increment),
            targets,
            floods,
            flood_size,
        }
    }

    /// The WAN in front of target `index`: a thin transit for one vantage
    /// group, a backbone all groups share, and cross traffic on a transit.
    /// Capacities are fixed, so the seed moves the client populations and
    /// the coordinators' choices but not how much sharing work a ladder is.
    fn topology(index: usize) -> TopologySpec {
        let mut transits = [mbps(4_000.0); 4];
        transits[index % 4] = mbps(600.0);
        TopologySpec::star(&transits)
            .with_backbone(mbps(2_000.0))
            .with_cross_traffic((index + 1) % 4, 16, mbps(20.0))
    }

    fn targets(&self, seed: u64) -> Vec<Target> {
        (0..self.targets)
            .map(|index| {
                let server = ServerConfig {
                    access_link: ACCESS,
                    ..ServerConfig::commercial_frontend()
                };
                let defenses = match index % 4 {
                    1 => DefenseConfig::shedding(5_000),
                    3 => DefenseConfig::rate_limited(2.0, 0.01, 256.0 * 1024.0),
                    _ => DefenseConfig::none(),
                };
                let spec = SimTargetSpec::single_server(server, ContentCatalog::lab_validation())
                    .with_topology(Self::topology(index))
                    .with_defenses(defenses);
                Target {
                    spec,
                    backend_seed: backend_seed(seed, index),
                    coordinator_seed: seed.wrapping_add(index as u64),
                }
            })
            .collect()
    }

    /// A ramping flood: arrival_i = T·√(i/n), so the request rate grows
    /// linearly from zero — the flash-crowd onset of `ddos_assessment`.
    fn flood(&self, seed: u64, index: usize) -> Flood {
        let mut rng = SimRng::seed_from(seed).fork_indexed("crowd-flood", index as u64);
        let ramp_secs = rng.uniform(150.0, 250.0);
        let addr_space = rng.uniform_u64(200, 400);
        let n = self.flood_size;
        let requests = (0..n)
            .map(|i| ServerRequest {
                id: i,
                arrival: SimTime::ZERO
                    + SimDuration::from_micros(
                        (ramp_secs * 1e6 * (i as f64 / n as f64).sqrt()) as u64,
                    ),
                class: RequestClass::Static,
                path: OBJECT.to_string(),
                client_downlink: 1e8,
                client_rtt: SimDuration::from_millis(40),
                client_addr: (i % addr_space) as u32,
                background: false,
            })
            .collect();
        let server = ServerConfig {
            workers: WorkerConfig {
                max_workers: 65_536,
                listen_queue: 65_536,
                ..WorkerConfig::default()
            },
            ..ServerConfig::lab_apache()
        };
        let defenses = DefenseConfig {
            autoscaler: Some(AutoScalerConfig {
                min_replicas: 1,
                max_replicas: 8,
                scale_up_load: 6.0,
                scale_down_load: 1.0,
                provisioning_lag: SimDuration::from_secs(3),
                cooldown: SimDuration::from_secs(1),
            }),
            admission: DefenseConfig::shedding(100_000).admission,
            ..DefenseConfig::none()
        };
        let cluster = ServerCluster::new(server, ContentCatalog::lab_validation(), 1)
            .with_policy(BalancePolicy::LeastOutstanding);
        Flood {
            cluster,
            defenses,
            requests,
        }
    }

    /// Builds a round's inputs from `seed`: the ladder targets' backends
    /// and the floods' clusters and requests.
    pub fn setup(&self, seed: u64) -> Inputs {
        let backends = self
            .targets(seed)
            .into_iter()
            .map(|t| {
                let backend = span(Name::BackendNew, || {
                    SimBackend::new(t.spec, self.clients, t.backend_seed)
                });
                (backend, t.coordinator_seed)
            })
            .collect();
        let floods = (0..self.floods).map(|i| self.flood(seed, i)).collect();
        Inputs { backends, floods }
    }

    /// Profiles every target, then runs every flood.
    pub fn run(&self, inputs: Inputs, counts: &mut Counts) -> Vec<OpResult> {
        let mut results: Vec<OpResult> = inputs
            .backends
            .into_iter()
            .map(|(backend, seed)| {
                guarded(OpKind::Profile, || {
                    profile(backend, &self.config, seed, counts)
                })
            })
            .collect();
        for flood in inputs.floods {
            results.push(guarded(OpKind::Flood, || run_flood(flood, counts)));
        }
        results
    }

    /// The ladder transfer set replayed through the sharing cores: for
    /// every target and every crowd of its ladder, that many 100 KB
    /// transfers start within 20 ms of each other from the target's client
    /// population, capped by each client's downlink, while the
    /// topology's cross traffic runs.  Returns the number of flow events.
    pub fn replay(&self, seed: u64) -> (u64, u64) {
        let mut graph_events = 0;
        let mut link_events = 0;
        for index in 0..self.targets {
            let topology = Self::topology(index);
            let population = PopulationProfile::grouped(topology.group_count());
            let wan = WideAreaModel::generate(
                &population,
                self.clients,
                &SimRng::seed_from(backend_seed(seed, index)),
            );
            let mut starts = Vec::new();
            let mut jitter = SimRng::seed_from(seed).fork_indexed("replay", index as u64);
            let mut epoch_start = SimTime::ZERO;
            for crowd in self.config.crowd_schedule() {
                for client in wan.clients().iter().take(crowd) {
                    let at = epoch_start + SimDuration::from_micros(jitter.uniform_u64(0, 20_000));
                    starts.push((at, client.index as u32, client.downlink));
                }
                epoch_start += SimDuration::from_secs(60);
            }
            starts.sort_by_key(|s| s.0);
            graph_events += span(Name::TopologyReplay, || {
                let mut graph = Graph {
                    built: topology.build(ACCESS),
                    groups: topology.group_count() as u32,
                };
                // Persistent cross-traffic flows never complete.
                let mut id = 1u64 << 40;
                for (route, flows, rate) in graph.built.cross.clone() {
                    for _ in 0..flows {
                        graph.built.graph.start_flow(
                            FlowId(id),
                            route,
                            f64::INFINITY,
                            rate,
                            SimTime::ZERO,
                        );
                        id += 1;
                    }
                }
                u64::from(graph.built.cross.iter().map(|c| c.1).sum::<u32>())
                    + replay(&mut graph, &starts)
            });
            link_events += span(Name::LinkReplay, || {
                replay(&mut FluidLink::new(ACCESS), &starts)
            });
        }
        (graph_events, link_events)
    }
}

/// The seed of target `index`'s backend, which draws its client population.
fn backend_seed(seed: u64, index: usize) -> u64 {
    seed ^ (0x51ed + index as u64)
}

fn run_flood(flood: Flood, counts: &mut Counts) -> OpResult {
    let Flood {
        mut cluster,
        defenses,
        requests,
    } = flood;
    let n = requests.len() as u64;
    let mut control = TracedControl::new(defenses.build());
    let start = Instant::now();
    let result = span(Name::EngineRun, || {
        cluster.run_controlled(requests, &mut control)
    });
    let host_ns = start.elapsed().as_nanos() as u64;
    counts.flood_requests += n;
    counts.control_calls += control.calls;
    counts.add_utilization(&result.utilization);
    let u = &result.utilization;
    let summary = format!(
        "flood of {n}: {} served, {} shed, {} replicas at the end",
        u.completed_requests,
        u.shed_requests,
        cluster.active_replicas()
    );
    let (digest, error) = match run_digest(&result, 0..n) {
        Ok(digest) => (digest ^ cluster.active_replicas() as u64, None),
        Err(e) => (0, Some(e)),
    };
    OpResult {
        kind: OpKind::Flood,
        host_ns,
        digest,
        requests: n,
        error,
        summary,
    }
}

/// A sharing core the replay drives: start a transfer, peek at the next
/// completion, finish a transfer.
trait Sharing {
    fn start(&mut self, id: FlowId, addr: u32, cap: Bandwidth, at: SimTime);
    fn peek(&self) -> Option<(SimTime, FlowId)>;
    fn finish(&mut self, id: FlowId, at: SimTime);
}

/// The multi-hop graph: each client's transfer takes its vantage group's
/// route.
struct Graph {
    built: BuiltTopology,
    groups: u32,
}

impl Sharing for Graph {
    fn start(&mut self, id: FlowId, addr: u32, cap: Bandwidth, at: SimTime) {
        let route = self.built.group_routes[(addr % self.groups) as usize];
        self.built
            .graph
            .start_flow(id, route, OBJECT_BYTES, cap, at);
    }

    fn peek(&self) -> Option<(SimTime, FlowId)> {
        self.built.graph.peek_completion()
    }

    fn finish(&mut self, id: FlowId, at: SimTime) {
        self.built.graph.finish_flow(id, at);
    }
}

impl Sharing for FluidLink {
    fn start(&mut self, id: FlowId, _addr: u32, cap: Bandwidth, at: SimTime) {
        self.start_flow(id, OBJECT_BYTES, cap, at);
    }

    fn peek(&self) -> Option<(SimTime, FlowId)> {
        self.peek_completion()
    }

    fn finish(&mut self, id: FlowId, at: SimTime) {
        self.finish_flow(id, at);
    }
}

/// Drives the time-ordered `(start, client address, rate cap)` transfers
/// through `core` until every one has finished.  Returns the number of
/// flow events (starts and finishes).
fn replay(core: &mut impl Sharing, starts: &[(SimTime, u32, Bandwidth)]) -> u64 {
    let mut events = 0u64;
    let mut pending = starts.iter().enumerate().peekable();
    loop {
        let completion = core.peek();
        match (pending.peek(), completion) {
            (Some((_, &(at, _, _))), c) if c.is_none_or(|(t, _)| at <= t) => {
                let (i, &(at, addr, cap)) = pending.next().expect("peeked");
                core.start(FlowId(i as u64), addr, cap, at);
            }
            (_, Some((t, id))) => core.finish(id, t),
            (None, None) => break,
            (Some(_), None) => unreachable!("the first arm takes every start"),
        }
        events += 1;
    }
    events
}
