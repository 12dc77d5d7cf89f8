//! Pieces every workload shares: operation results, the output digests
//! and the profile operation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mfc_core::backend::sim::SimBackend;
use mfc_core::config::MfcConfig;
use mfc_core::inference::InferenceReport;
use mfc_core::{Coordinator, MfcReport, StageOutcome};
use mfc_webserver::engine::RunResult;
use mfc_webserver::RequestStatus;

use crate::trace::{span, Counts, Name, TracedBackend};

/// What kind of operation a result belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One `Coordinator::run`.
    Profile,
    /// One workload stream run through the engine.
    Stream,
    /// One flood run through a controlled cluster.
    Flood,
}

/// The result of one operation.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Operation kind.
    pub kind: OpKind,
    /// Host time of the measured call, in nanoseconds.
    pub host_ns: u64,
    /// Digest of the operation's outputs.
    pub digest: u64,
    /// Simulated requests run to an outcome.
    pub requests: u64,
    /// Why the operation failed, if it did.
    pub error: Option<String>,
    /// A one-line description of the outputs.
    pub summary: String,
}

impl OpResult {
    fn failed(kind: OpKind, host_ns: u64, error: String) -> OpResult {
        OpResult {
            kind,
            host_ns,
            digest: 0,
            requests: 0,
            error: Some(error),
            summary: String::new(),
        }
    }
}

/// 64-bit FNV-1a over a stream of words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a string in.
    pub fn add_str(&mut self, s: &str) {
        self.add(s.len() as u64);
        for byte in s.bytes() {
            self.add(u64::from(byte));
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Runs `op`, turning a panic into a failed result.
pub fn guarded(kind: OpKind, op: impl FnOnce() -> OpResult) -> OpResult {
    let start = Instant::now();
    catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        OpResult::failed(kind, start.elapsed().as_nanos() as u64, message)
    })
}

/// One MFC profile of a built backend: `Coordinator::run`, timed, then the
/// inference recomputed from the stage reports as a check.
pub fn profile(
    backend: SimBackend,
    config: &MfcConfig,
    coordinator_seed: u64,
    counts: &mut Counts,
) -> OpResult {
    let mut backend = TracedBackend::new(backend);
    let coordinator = Coordinator::new(config.clone()).with_seed(coordinator_seed);
    let start = Instant::now();
    let report = span(Name::CoordinatorRun, || coordinator.run(&mut backend));
    let host_ns = start.elapsed().as_nanos() as u64;
    let report = match report {
        Ok(report) => report,
        Err(e) => return OpResult::failed(OpKind::Profile, host_ns, e.to_string()),
    };
    let inference = span(Name::Inference, || {
        InferenceReport::from_stages(&report.stages, config)
    });
    counts.inference_stages += report.stages.len() as u64;
    let c = backend.counts;
    counts.add(&c);
    if inference != report.inference {
        return OpResult::failed(
            OpKind::Profile,
            host_ns,
            "recomputed inference differs from the report's".to_string(),
        );
    }
    OpResult {
        kind: OpKind::Profile,
        host_ns,
        digest: report_digest(&report, &c),
        requests: c.mfc_requests + c.background_requests,
        error: None,
        summary: report
            .stages
            .iter()
            .zip(&report.inference.constraints)
            .map(|(s, c)| format!("{} {} {:?}", s.stage.name(), s.outcome_cell(), c.cause))
            .collect::<Vec<_>>()
            .join(", "),
    }
}

/// Digest of a profile's verdicts, stopping crowds, causes and simulated
/// outcome counts.
fn report_digest(report: &MfcReport, counts: &Counts) -> u64 {
    let mut d = Digest::default();
    for stage in &report.stages {
        d.add_str(stage.stage.name());
        match stage.outcome {
            StageOutcome::Stopped { crowd_size } => {
                d.add(1);
                d.add(crowd_size as u64);
            }
            StageOutcome::NoStop { max_crowd_tested } => {
                d.add(2);
                d.add(max_crowd_tested as u64);
            }
            StageOutcome::Skipped => d.add(3),
        }
        d.add(stage.epochs.len() as u64);
        for epoch in &stage.epochs {
            d.add(epoch.crowd_size as u64);
            d.add(epoch.requests_observed as u64);
            d.add(u64::from(epoch.commands_lost));
            d.add(epoch.detector_ms.to_bits());
        }
    }
    for constraint in &report.inference.constraints {
        d.add_str(&format!(
            "{:?}/{:?}",
            constraint.provisioning, constraint.cause
        ));
    }
    d.add_str(&format!("{:?}", report.inference.ddos_exposure));
    for word in [
        counts.epochs,
        counts.mfc_requests,
        counts.background_requests,
        counts.commands_lost,
        counts.completed,
        counts.refused,
        counts.shed,
        counts.throttled,
    ] {
        d.add(word);
    }
    d.value()
}

/// Checks that every submitted request id in `ids` got exactly one outcome
/// and digests the run's outcome counts.  `ids` must be the submitted ids
/// in ascending order.
pub fn run_digest(result: &RunResult, ids: std::ops::Range<u64>) -> Result<u64, String> {
    let expected = ids.end - ids.start;
    if result.outcomes.len() as u64 != expected {
        return Err(format!(
            "{} outcomes for {expected} requests",
            result.outcomes.len()
        ));
    }
    let mut seen: Vec<u64> = result.outcomes.iter().map(|o| o.id).collect();
    seen.sort_unstable();
    if !seen.iter().copied().eq(ids) {
        return Err("some request got no outcome or more than one".to_string());
    }
    let mut d = Digest::default();
    let mut by_status = [0u64; 4];
    let mut completion_sum = 0u64;
    for outcome in &result.outcomes {
        by_status[match outcome.status {
            RequestStatus::Ok => 0,
            RequestStatus::Refused => 1,
            RequestStatus::NotFound => 2,
            RequestStatus::Shed => 3,
        }] += 1;
        completion_sum = completion_sum.wrapping_add(outcome.completion.as_micros());
    }
    for word in by_status {
        d.add(word);
    }
    d.add(completion_sum);
    let u = &result.utilization;
    for word in [
        u.completed_requests,
        u.refused_requests,
        u.shed_requests,
        u.throttled_requests,
        u.network_bytes_sent,
    ] {
        d.add(word);
    }
    Ok(d.value())
}
