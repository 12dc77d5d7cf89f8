//! In-memory span tracing around the public boundaries of each crate.
//!
//! Every span has a name, a start, an end and the span that was open when it
//! started (its parent).  Spans are recorded only while tracing is switched
//! on for the current thread; switched off, each boundary costs one
//! thread-local flag read.  The wrappers in this module sit at boundaries
//! the benchmark can reach from outside the program: an [`MfcBackend`]
//! decorator, a [`RequestSampler`] wrapper, an [`Iterator`] wrapper for
//! workload streams and a [`ServerControl`] wrapper; the backend and the
//! control wrapper also keep exact [`Counts`].  Spans inside the crates are
//! out of reach by design.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

use mfc_core::backend::{BaseMeasurement, MfcBackend};
use mfc_core::profile::TargetProfile;
use mfc_core::types::{ClientId, EpochObservation, EpochPlan, RequestSpec};
use mfc_simcore::{SimDuration, SimRng, SimTime};
use mfc_webserver::{
    AdmissionVerdict, ControlAction, ServerControl, ServerRequest, TickSample, UtilizationReport,
};
use mfc_workload::{RequestContext, RequestSampler};

/// What a span wraps.  The first word of each label is the layer (crate)
/// the span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One round of a workload: set-up, operations and output checks.
    Round,
    /// Building a round's inputs.
    Setup,
    /// `SiteClass::generate_site`.
    SitesGenerate,
    /// `SimBackend::new`.
    BackendNew,
    /// `Coordinator::run`.
    CoordinatorRun,
    /// `InferenceReport::from_stages`, called again on a finished report.
    Inference,
    /// `MfcBackend::run_epoch` on the simulation backend.
    RunEpoch,
    /// `MfcBackend::measure_base` on the simulation backend.
    MeasureBase,
    /// The remaining `MfcBackend` calls (registration, ping, crawl, wait).
    BackendOther,
    /// `ServerEngine::run_streamed` or `ServerCluster::run_controlled`.
    EngineRun,
    /// `CatalogSampler::sample`.
    Sampler,
    /// `WorkloadStream::next`.
    Stream,
    /// A `DefenseStack` callback.
    Control,
    /// `NetworkGraph` flow events in the topology replay.
    TopologyReplay,
    /// `FluidLink` flow events in the one-link replay.
    LinkReplay,
}

impl Name {
    /// Every name, in a fixed order.
    pub const ALL: [Name; 15] = [
        Name::Round,
        Name::Setup,
        Name::SitesGenerate,
        Name::BackendNew,
        Name::CoordinatorRun,
        Name::Inference,
        Name::RunEpoch,
        Name::MeasureBase,
        Name::BackendOther,
        Name::EngineRun,
        Name::Sampler,
        Name::Stream,
        Name::Control,
        Name::TopologyReplay,
        Name::LinkReplay,
    ];

    /// The span's label in trace files.
    pub fn label(self) -> &'static str {
        match self {
            Name::Round => "bench.round",
            Name::Setup => "bench.setup",
            Name::SitesGenerate => "sites.generate_site",
            Name::BackendNew => "core.backend.new",
            Name::CoordinatorRun => "core.coordinator.run",
            Name::Inference => "core.inference.from_stages",
            Name::RunEpoch => "core.backend.run_epoch",
            Name::MeasureBase => "core.backend.measure_base",
            Name::BackendOther => "core.backend.other",
            Name::EngineRun => "webserver.engine.run",
            Name::Sampler => "webserver.sampler.sample",
            Name::Stream => "workload.stream.next",
            Name::Control => "dynamics.control",
            Name::TopologyReplay => "topology.flow_event",
            Name::LinkReplay => "simnet.flow_event",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Switches span recording on or off for the current thread.
pub fn set_enabled(enabled: bool) {
    ENABLED.with(|e| e.set(enabled));
}

/// Runs `f` inside a span called `name` (recorded only while enabled).
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    if !ENABLED.with(Cell::get) {
        return f();
    }
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let index = u32::try_from(r.spans.len()).expect("fewer than 2^32 spans");
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(index);
        index
    });
    let _open = OpenSpan(index);
    f()
}

/// Closes its span when dropped, so a panic that unwinds through a span
/// (and is caught as a failed operation) leaves the nesting intact.
struct OpenSpan(u32);

impl Drop for OpenSpan {
    fn drop(&mut self) {
        let _ = RECORDER.try_with(|r| {
            if let Ok(mut r) = r.try_borrow_mut() {
                let end_ns = r.origin.elapsed().as_nanos() as u64;
                r.spans[self.0 as usize].end_ns = end_ns;
                r.open.pop();
            }
        });
    }
}

/// Per-name totals over every span recorded on this thread.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    count: [u64; Name::ALL.len()],
    total_ns: [u64; Name::ALL.len()],
    /// Span durations minus the time their child spans cover.
    self_ns: [u64; Name::ALL.len()],
}

impl Totals {
    /// Span count of `name`.
    pub fn count(&self, name: Name) -> u64 {
        self.count[name.index()]
    }

    /// Summed duration of `name`, in nanoseconds.
    pub fn total(&self, name: Name) -> u64 {
        self.total_ns[name.index()]
    }

    /// Summed self time of `name`, in nanoseconds.
    pub fn self_time(&self, name: Name) -> u64 {
        self.self_ns[name.index()]
    }

    /// Sum of every name's self time: the time the root spans cover.
    pub fn self_sum(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

/// Aggregates the recorded spans.
pub fn totals() -> Totals {
    RECORDER.with(|r| {
        let r = r.borrow();
        let mut totals = Totals::default();
        let mut child_ns = vec![0u64; r.spans.len()];
        for span in &r.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in r.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let i = span.name.index();
            totals.count[i] += 1;
            totals.total_ns[i] += duration;
            totals.self_ns[i] += duration.saturating_sub(children);
        }
        totals
    })
}

/// Writes every recorded span as tab-separated `index name parent start_ns
/// end_ns` lines (parent `-` for a root span).
pub fn write_spans(out: &mut impl Write) -> std::io::Result<()> {
    RECORDER.with(|r| {
        let r = r.borrow();
        writeln!(out, "index\tname\tparent\tstart_ns\tend_ns")?;
        for (index, span) in r.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{index}\t{}\t{parent}\t{}\t{}",
                span.name.label(),
                span.start_ns,
                span.end_ns
            )?;
        }
        Ok(())
    })
}

/// Exact counts of one round, gathered at the crate boundaries whether
/// spans are recorded or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `run_epoch` calls.
    pub epochs: u64,
    /// MFC requests that reached the target: delivered epoch commands plus
    /// one request per base measurement.
    pub mfc_requests: u64,
    /// Background requests the target served during epochs.
    pub background_requests: u64,
    /// Epoch commands lost on the control channel.
    pub commands_lost: u64,
    /// `measure_base` calls.
    pub base_measurements: u64,
    /// Stages whose inference was recomputed.
    pub inference_stages: u64,
    /// Requests emitted by workload streams.
    pub stream_requests: u64,
    /// Requests submitted in floods.
    pub flood_requests: u64,
    /// Largest number of simultaneously active sessions in any stream.
    pub peak_active_sessions: u64,
    /// Control-loop callbacks.
    pub control_calls: u64,
    /// Requests the engine runs completed (epochs, streams and floods).
    pub completed: u64,
    /// Requests refused by a full listen queue.
    pub refused: u64,
    /// Requests shed by a defense.
    pub shed: u64,
    /// Requests throttled by a defense.
    pub throttled: u64,
}

impl Counts {
    /// Adds another set of counts (the session peak is a maximum).
    pub fn add(&mut self, other: &Counts) {
        self.epochs += other.epochs;
        self.mfc_requests += other.mfc_requests;
        self.background_requests += other.background_requests;
        self.commands_lost += other.commands_lost;
        self.base_measurements += other.base_measurements;
        self.inference_stages += other.inference_stages;
        self.stream_requests += other.stream_requests;
        self.flood_requests += other.flood_requests;
        self.peak_active_sessions = self.peak_active_sessions.max(other.peak_active_sessions);
        self.control_calls += other.control_calls;
        self.completed += other.completed;
        self.refused += other.refused;
        self.shed += other.shed;
        self.throttled += other.throttled;
    }

    /// Adds the server-side outcome counts of one engine run.
    pub fn add_utilization(&mut self, u: &UtilizationReport) {
        self.completed += u.completed_requests;
        self.refused += u.refused_requests;
        self.shed += u.shed_requests;
        self.throttled += u.throttled_requests;
    }
}

/// An [`MfcBackend`] decorator: spans around every call and exact counts.
pub struct TracedBackend<B> {
    inner: B,
    /// Counts gathered so far.
    pub counts: Counts,
}

impl<B: MfcBackend> TracedBackend<B> {
    /// Wraps a backend.
    pub fn new(inner: B) -> Self {
        TracedBackend {
            inner,
            counts: Counts::default(),
        }
    }
}

impl<B: MfcBackend> MfcBackend for TracedBackend<B> {
    fn registered_clients(&mut self) -> Vec<ClientId> {
        span(Name::BackendOther, || self.inner.registered_clients())
    }

    fn ping(&mut self, client: ClientId) -> Option<SimDuration> {
        span(Name::BackendOther, || self.inner.ping(client))
    }

    fn measure_base(&mut self, client: ClientId, request: &RequestSpec) -> BaseMeasurement {
        self.counts.base_measurements += 1;
        self.counts.mfc_requests += 1;
        span(Name::MeasureBase, || {
            self.inner.measure_base(client, request)
        })
    }

    fn run_epoch(&mut self, plan: &EpochPlan) -> EpochObservation {
        let observation = span(Name::RunEpoch, || self.inner.run_epoch(plan));
        let c = &mut self.counts;
        c.epochs += 1;
        c.commands_lost += u64::from(observation.lost_commands);
        c.mfc_requests += plan.commands.len() as u64 - u64::from(observation.lost_commands);
        c.background_requests += observation.background_requests;
        if let Some(u) = &observation.server_utilization {
            c.add_utilization(u);
        }
        observation
    }

    fn profile_target(&mut self) -> TargetProfile {
        span(Name::BackendOther, || self.inner.profile_target())
    }

    fn wait(&mut self, gap: SimDuration) {
        span(Name::BackendOther, || self.inner.wait(gap))
    }
}

/// A [`RequestSampler`] wrapper: one span per sampled request.
pub struct TracedSampler<S>(pub S);

impl<S: RequestSampler> RequestSampler for TracedSampler<S> {
    type Request = S::Request;

    fn sample(&mut self, ctx: RequestContext<'_>, rng: &mut SimRng) -> S::Request {
        span(Name::Sampler, || self.0.sample(ctx, rng))
    }
}

/// An [`Iterator`] wrapper: one span per `next` call.
pub struct TracedIter<I>(pub I);

impl<I: Iterator> Iterator for TracedIter<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        span(Name::Stream, || self.0.next())
    }
}

/// A [`ServerControl`] wrapper: one span per callback, and a call count.
pub struct TracedControl<C> {
    inner: C,
    /// Callbacks made so far.
    pub calls: u64,
}

impl<C: ServerControl> TracedControl<C> {
    /// Wraps a control loop.
    pub fn new(inner: C) -> Self {
        TracedControl { inner, calls: 0 }
    }
}

impl<C: ServerControl> ServerControl for TracedControl<C> {
    fn tick_interval(&self) -> Option<SimDuration> {
        self.inner.tick_interval()
    }

    fn on_arrival(&mut self, now: SimTime, request: &ServerRequest) -> AdmissionVerdict {
        self.calls += 1;
        span(Name::Control, || self.inner.on_arrival(now, request))
    }

    fn on_tick(&mut self, now: SimTime, sample: &TickSample, actions: &mut Vec<ControlAction>) {
        self.calls += 1;
        span(Name::Control, || self.inner.on_tick(now, sample, actions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root_even_across_a_panic() {
        set_enabled(true);
        span(Name::Round, || {
            span(Name::Setup, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let caught = std::panic::catch_unwind(|| span(Name::Sampler, || panic!("op failed")));
            assert!(caught.is_err());
            span(Name::Stream, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        set_enabled(false);
        let totals = totals();
        assert_eq!(totals.count(Name::Round), 1);
        assert_eq!(totals.count(Name::Stream), 1);
        assert!(totals.total(Name::Setup) >= 2_000_000);
        // The span the panic unwound through was closed, so the later span
        // nests under the round and the self times cover the root exactly.
        assert_eq!(totals.self_sum(), totals.total(Name::Round));
        assert!(totals.self_time(Name::Round) < totals.total(Name::Round));
    }
}
