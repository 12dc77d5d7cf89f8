//! `sessions`: a diurnal browsing-session workload streamed lazily into
//! `ServerEngine::run_streamed` against a heavy-tailed catalog of a few
//! thousand objects — the same engine as `survey`, but a large, cold
//! working set instead of tiny, hot catalogs.

use std::time::Instant;

use mfc_simcore::{SimDuration, SimRng, SimTime};
use mfc_webserver::{CacheState, CatalogSampler, ContentCatalog, ServerConfig, ServerEngine};
use mfc_workload::{
    ArrivalProcess, ClientSpec, SessionModel, TailDistribution, WorkloadSpec, WorkloadStream,
};

use crate::bench::{guarded, run_digest, OpKind, OpResult};
use crate::trace::{span, Counts, Name, TracedIter, TracedSampler};
use crate::Scale;

/// The sessions workload.
pub struct Sessions {
    objects: usize,
    windows: u64,
    window_secs: u64,
    sessions_per_sec: f64,
}

/// A round's inputs.
pub struct Inputs {
    engine: ServerEngine,
    spec: WorkloadSpec,
    seed: u64,
}

impl Sessions {
    /// Sizes the workload.
    pub fn new(scale: Scale) -> Sessions {
        let (objects, windows, window_secs, sessions_per_sec) = match scale {
            Scale::Full => (4_000, 24, 60, 4.0),
            Scale::Tiny => (500, 4, 60, 2.0),
        };
        Sessions {
            objects,
            windows,
            window_secs,
            sessions_per_sec,
        }
    }

    /// Builds a round's inputs from `seed`: the catalog, the engine and
    /// the spec.
    pub fn setup(&self, seed: u64) -> Inputs {
        let mut rng = SimRng::seed_from(seed).fork("sessions-catalog");
        let catalog = ContentCatalog::heavy_tailed_site(
            seed,
            self.objects,
            &TailDistribution::LogNormal {
                median: 24.0 * 1024.0,
                sigma: 1.4,
            },
            &mut rng,
        );
        let engine = ServerEngine::new(ServerConfig::commercial_frontend(), catalog);
        let day_secs = (self.windows * self.window_secs) as f64;
        let spec = WorkloadSpec::sessions(
            ArrivalProcess::diurnal(self.sessions_per_sec, 0.6, day_secs, 24),
            SessionModel::browsing(),
            ClientSpec::default(),
        );
        Inputs { engine, spec, seed }
    }

    /// Streams every window of one simulated day through the engine, with
    /// the cache carried from window to window.
    pub fn run(&self, inputs: Inputs, counts: &mut Counts) -> Vec<OpResult> {
        let mut cache = CacheState::new();
        let master = SimRng::seed_from(inputs.seed).fork("sessions-stream");
        (0..self.windows)
            .map(|w| {
                guarded(OpKind::Stream, || {
                    let start = SimTime::ZERO + SimDuration::from_secs(w * self.window_secs);
                    let end = start + SimDuration::from_secs(self.window_secs);
                    let id_base = w << 32;
                    let mut stream = WorkloadStream::new(
                        &inputs.spec,
                        start,
                        end,
                        id_base,
                        &master.fork_indexed("window", w),
                        TracedSampler(CatalogSampler::foreground(inputs.engine.catalog())),
                    );
                    let clock = Instant::now();
                    let result = span(Name::EngineRun, || {
                        inputs
                            .engine
                            .run_streamed(TracedIter(stream.by_ref()), &mut cache)
                    });
                    let host_ns = clock.elapsed().as_nanos() as u64;
                    let emitted = stream.emitted();
                    counts.stream_requests += emitted;
                    counts.peak_active_sessions = counts
                        .peak_active_sessions
                        .max(stream.peak_active_sessions() as u64);
                    counts.add_utilization(&result.utilization);
                    let (digest, error) = match run_digest(&result, id_base..id_base + emitted) {
                        Ok(digest) => (digest, None),
                        Err(e) => (0, Some(e)),
                    };
                    let u = &result.utilization;
                    OpResult {
                        kind: OpKind::Stream,
                        host_ns,
                        digest,
                        requests: emitted,
                        error,
                        summary: format!(
                            "window {w}: {emitted} requests, {} sessions, {} served, {} refused",
                            stream.sessions_started(),
                            u.completed_requests,
                            u.refused_requests
                        ),
                    }
                })
            })
            .collect()
    }
}
