//! The MFC reproduction's benchmark: one workload per process, a timed
//! phase of whole rounds, output checks, and a traced mode that reports
//! per-layer costs.
//!
//! ```text
//! mfc-perfbench --workload survey|crowd|sessions --seed N --seconds S --trace 0|1
//!               [--size full|tiny] [--record FILE] [--spans FILE]
//! ```
//!
//! A round builds its inputs from the seed and the round's index (set-up)
//! and runs every operation on them: a profile is one `Coordinator::run`, a
//! stream run is one `ServerEngine::run_streamed`, a flood is one
//! `ServerCluster::run_controlled`.  Round 0 runs untimed before the timed
//! phase and again, traced, after it, and the two must give the same
//! digests; `survey` also profiles its sites on a serial and on a threaded
//! `TrialRunner`.  Rounds 1, 2, ... run
//! until the time is up, each after a slice of the host's reference
//! workload (see `cores`).  End-to-end metrics come from untraced rounds,
//! in reference time.
//! With `--trace 1` every round also runs traced: the pairs give the
//! tracing overhead and another digest check, and the traced rounds give
//! the per-layer metrics.  The last line of standard output is the JSON
//! result.

mod bench;
mod cores;
mod crowd;
mod sessions;
mod survey;
mod trace;

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use mfc_core::backend::sim::SimBackend;
use mfc_core::TrialRunner;
use mfc_simcore::SimRng;

use bench::{OpKind, OpResult};
use trace::{span, Counts, Name, Totals};

/// Input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's size.
    Full,
    /// A few operations per round, for the smoke test.
    Tiny,
}

enum Workload {
    Survey(survey::Survey),
    Crowd(crowd::Crowd),
    Sessions(sessions::Sessions),
}

enum Inputs {
    Survey(Vec<(SimBackend, u64)>),
    Crowd(crowd::Inputs),
    Sessions(Box<sessions::Inputs>),
}

impl Workload {
    fn new(name: &str, scale: Scale) -> Option<Workload> {
        Some(match name {
            "survey" => Workload::Survey(survey::Survey::new(scale)),
            "crowd" => Workload::Crowd(crowd::Crowd::new(scale)),
            "sessions" => Workload::Sessions(sessions::Sessions::new(scale)),
            _ => return None,
        })
    }

    fn setup(&self, seed: u64) -> Inputs {
        match self {
            Workload::Survey(w) => Inputs::Survey(w.setup(seed)),
            Workload::Crowd(w) => Inputs::Crowd(w.setup(seed)),
            Workload::Sessions(w) => Inputs::Sessions(Box::new(w.setup(seed))),
        }
    }

    fn run(&self, inputs: Inputs, counts: &mut Counts) -> Vec<OpResult> {
        match (self, inputs) {
            (Workload::Survey(w), Inputs::Survey(i)) => w.run(i, counts),
            (Workload::Crowd(w), Inputs::Crowd(i)) => w.run(i, counts),
            (Workload::Sessions(w), Inputs::Sessions(i)) => w.run(*i, counts),
            _ => unreachable!("inputs come from the same workload"),
        }
    }

    /// The operation the `profile_*` metrics time: a profile, or for
    /// `sessions`, which has no coordinator, a stream run.
    fn primary(&self) -> OpKind {
        match self {
            Workload::Sessions(_) => OpKind::Stream,
            _ => OpKind::Profile,
        }
    }
}

/// The seed of round `index`'s inputs.  Every round draws a fresh
/// population, so a run's figures average over many populations instead
/// of riding on one seed's draw.
fn round_seed(seed: u64, index: u64) -> u64 {
    SimRng::seed_from(seed)
        .fork_indexed("round", index)
        .next_u64()
}

/// One round's measurements.
struct Round {
    setup_ns: u64,
    wall_ns: u64,
    ops: Vec<OpResult>,
    counts: Counts,
}

/// Runs one round on `seed`'s inputs, traced or not.
fn round(workload: &Workload, seed: u64, traced: bool) -> Round {
    trace::set_enabled(traced);
    let mut counts = Counts::default();
    let start = Instant::now();
    let (setup_ns, ops) = span(Name::Round, || {
        let inputs = span(Name::Setup, || workload.setup(seed));
        let setup_ns = start.elapsed().as_nanos() as u64;
        (setup_ns, workload.run(inputs, &mut counts))
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    trace::set_enabled(false);
    Round {
        setup_ns,
        wall_ns,
        ops,
        counts,
    }
}

/// Operations of `round` that failed on their own: errors, panics and
/// failed output checks.
fn errors(round: &Round) -> usize {
    let mut failed = 0;
    for (index, op) in round.ops.iter().enumerate() {
        if let Some(error) = &op.error {
            eprintln!("operation {index} failed: {error}");
            failed += 1;
        }
    }
    failed
}

/// Operations whose digests differ between two rounds of the same inputs,
/// plus one if their counts differ.
fn mismatches(a: &Round, b: &Round) -> usize {
    let mut failed = a.ops.len().abs_diff(b.ops.len());
    for (index, (x, y)) in a.ops.iter().zip(&b.ops).enumerate() {
        if x.error.is_none() && y.error.is_none() && x.digest != y.digest {
            eprintln!("operation {index}: digests differ between runs of the same inputs");
            failed += 1;
        }
    }
    if a.counts != b.counts {
        eprintln!("round counts differ between runs of the same inputs");
        failed += 1;
    }
    failed
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    record: Option<String>,
    spans: Option<String>,
}

const USAGE: &str = "usage: mfc-perfbench --workload survey|crowd|sessions --seed N \
                     --seconds S --trace 0|1 [--size full|tiny] [--record FILE] [--spans FILE]";

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut scale = Scale::Full;
        let mut record = None;
        let mut spans = None;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad {flag}: {value}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace: {value}")),
                    })
                }
                "--size" => {
                    scale = match value.as_str() {
                        "full" => Scale::Full,
                        "tiny" => Scale::Tiny,
                        _ => return Err(format!("bad --size: {value}")),
                    }
                }
                "--record" => record = Some(value),
                "--spans" => spans = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale,
            record,
            spans,
        })
    }
}

/// A named metric with its unit.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Linear-interpolated quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Peak resident set size of this process in MB (VmHWM).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a set of timed rounds adds up to.  Rounds are folded in and
/// dropped, so memory does not grow with the number of rounds.
#[derive(Default)]
struct Tally {
    requests: u64,
    run_s: f64,
    wall_ns: u64,
    profile_ms: Vec<f64>,
    setup_s: Vec<f64>,
    counts: Counts,
}

impl Tally {
    /// Folds `round` in, its times divided by `slowdown`, the host's
    /// slowdown against the reference speed sampled just before it (1
    /// keeps host time).  `wall_ns` stays host time.
    fn add(&mut self, round: &Round, timed: OpKind, slowdown: f64) {
        self.requests += round.ops.iter().map(|o| o.requests).sum::<u64>();
        self.run_s += (round.wall_ns - round.setup_ns) as f64 / 1e9 / slowdown;
        self.wall_ns += round.wall_ns;
        self.profile_ms.extend(
            round
                .ops
                .iter()
                .filter(|o| o.kind == timed)
                .map(|o| o.host_ns as f64 / 1e6 / slowdown),
        );
        self.setup_s.push(round.setup_ns as f64 / 1e9 / slowdown);
        self.counts.add(&round.counts);
    }

    /// The end-to-end metrics.
    fn end_to_end(&self) -> Vec<Metric> {
        let mut profile_ms = self.profile_ms.clone();
        profile_ms.sort_by(f64::total_cmp);
        let profile_s: f64 = profile_ms.iter().sum::<f64>() / 1e3;
        vec![
            metric(
                "sim_requests_per_s",
                "1/s",
                self.requests as f64 / self.run_s,
            ),
            metric("profiles_per_s", "1/s", profile_ms.len() as f64 / profile_s),
            metric("profile_ms_p50", "ms", quantile(&profile_ms, 0.5)),
            metric("profile_ms_p90", "ms", quantile(&profile_ms, 0.9)),
            metric("peak_rss_mb", "MB", peak_rss_mb()),
            metric("setup_s", "s", median(&self.setup_s)),
        ]
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Per-layer metrics from the traced rounds' spans and counts; the exact
/// counts are those of the reference round.
fn per_layer(
    totals: &Totals,
    traced: &Counts,
    reference: &Counts,
    flow_events: (u64, u64),
    overhead_pct: f64,
    self_time_pct: f64,
) -> Vec<Metric> {
    let t = traced;
    let per = |name: Name| ratio(totals.total(name) as f64, totals.count(name) as f64);
    let epoch_requests = t.mfc_requests - t.base_measurements + t.background_requests;
    let engine_requests = t.stream_requests + t.flood_requests;
    let (graph_events, link_events) = flow_events;
    let c = reference;
    vec![
        metric(
            "sites.generate_us_per_site",
            "us",
            per(Name::SitesGenerate) / 1e3,
        ),
        metric("core.backend.new_ms", "ms", per(Name::BackendNew) / 1e6),
        metric(
            "core.backend.run_epoch_us_per_request",
            "us",
            ratio(
                totals.total(Name::RunEpoch) as f64 / 1e3,
                epoch_requests as f64,
            ),
        ),
        metric(
            "core.backend.measure_base_us",
            "us",
            per(Name::MeasureBase) / 1e3,
        ),
        metric(
            "core.coordinator.self_us_per_epoch",
            "us",
            ratio(
                totals.self_time(Name::CoordinatorRun) as f64 / 1e3,
                t.epochs as f64,
            ),
        ),
        metric(
            "core.inference.us_per_stage",
            "us",
            ratio(
                totals.total(Name::Inference) as f64 / 1e3,
                t.inference_stages as f64,
            ),
        ),
        metric(
            "core.run_epoch_pct_of_profile",
            "%",
            100.0
                * ratio(
                    totals.total(Name::RunEpoch) as f64,
                    totals.total(Name::CoordinatorRun) as f64,
                ),
        ),
        metric(
            "webserver.engine_us_per_request",
            "us",
            ratio(
                totals.self_time(Name::EngineRun) as f64 / 1e3,
                engine_requests as f64,
            ),
        ),
        metric("webserver.sampler_ns_per_request", "ns", per(Name::Sampler)),
        metric(
            "workload.stream_ns_per_request",
            "ns",
            ratio(
                totals.self_time(Name::Stream) as f64,
                t.stream_requests as f64,
            ),
        ),
        metric(
            "workload.stream_pct_of_run",
            "%",
            100.0
                * ratio(
                    totals.total(Name::Stream) as f64,
                    totals.total(Name::EngineRun) as f64,
                ),
        ),
        metric("dynamics.control_ns_per_call", "ns", per(Name::Control)),
        metric(
            "topology.ns_per_flow_event",
            "ns",
            ratio(
                totals.total(Name::TopologyReplay) as f64,
                graph_events as f64,
            ),
        ),
        metric(
            "simnet.link_ns_per_flow_event",
            "ns",
            ratio(totals.total(Name::LinkReplay) as f64, link_events as f64),
        ),
        metric("core.epochs", "count", c.epochs as f64),
        metric("core.mfc_requests", "count", c.mfc_requests as f64),
        metric(
            "core.background_requests",
            "count",
            c.background_requests as f64,
        ),
        metric("core.commands_lost", "count", c.commands_lost as f64),
        metric("webserver.completed", "count", c.completed as f64),
        metric("webserver.refused", "count", c.refused as f64),
        metric("webserver.shed", "count", c.shed as f64),
        metric("webserver.throttled", "count", c.throttled as f64),
        metric(
            "workload.peak_active_sessions",
            "count",
            c.peak_active_sessions as f64,
        ),
        metric("dynamics.calls", "count", c.control_calls as f64),
        metric("flow_events", "count", graph_events as f64),
        metric("trace.overhead_pct", "%", overhead_pct),
        metric("trace.self_time_pct", "%", self_time_pct),
    ]
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Digest of the reference round: every operation's digest in order.
fn round_digest(round: &Round) -> u64 {
    let mut d = bench::Digest::default();
    for op in &round.ops {
        d.add(op.digest);
    }
    d.value()
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::new(&args.workload, args.scale) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} size={:?}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.scale
    );
    let (reported_cores, effective_cores, spin_ns) = cores::calibrate();
    println!(
        "cores reported={reported_cores} effective={effective_cores:.3} \
         spin_ns_per_iteration={spin_ns:.4}"
    );

    // Round 0 runs untimed and untraced first: it warms caches and the
    // allocator, and its outputs are checked against a traced run and, for
    // `survey`, against serial and threaded runs once the timed phase is
    // over, so the checks' memory stays out of `peak_rss_mb`.
    let reference_seed = round_seed(args.seed, 0);
    let reference = round(&workload, reference_seed, false);
    let mut attempted = reference.ops.len();
    let mut failed = errors(&reference);

    // The timed phase: whole rounds, each on fresh inputs, until the time
    // is up.  Traced runs run every round's inputs twice, untraced then
    // traced, which checks the digests again and pairs the two for the
    // tracing overhead.  Before each round a slice of the reference
    // workload samples the host's speed, and the round's times are
    // converted to reference time with it; `host_time` keeps them as
    // measured, as does `traced`, whose wall time the span self times
    // must add up to.
    let budget_ns = args.seconds * 1_000_000_000;
    let mut host_speed = cores::Reference::new();
    let mut slowdowns = Vec::new();
    let mut elapsed_ns = 0;
    let mut untraced = Tally::default();
    let mut host_time = Tally::default();
    let mut traced = Tally::default();
    let mut overheads: Vec<f64> = Vec::new();
    let mut rounds = 0;
    while elapsed_ns < budget_ns || rounds == 0 {
        rounds += 1;
        let slowdown = host_speed.slowdown();
        slowdowns.push(slowdown);
        let seed = round_seed(args.seed, rounds);
        let plain = round(&workload, seed, false);
        elapsed_ns += plain.wall_ns;
        attempted += plain.ops.len();
        failed += errors(&plain);
        untraced.add(&plain, workload.primary(), slowdown);
        host_time.add(&plain, workload.primary(), 1.0);
        if args.trace {
            let twin = round(&workload, seed, true);
            elapsed_ns += twin.wall_ns;
            attempted += twin.ops.len();
            failed += errors(&twin) + mismatches(&plain, &twin);
            traced.add(&twin, workload.primary(), 1.0);
            overheads.push(twin.wall_ns as f64 / plain.wall_ns as f64 - 1.0);
        }
    }
    let slowdown = median(&slowdowns);
    println!(
        "host slowdown median {slowdown:.4}, range {:.4}..{:.4} over {} samples \
         (reference {:.1} ns per event)",
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
        slowdowns.len(),
        cores::REFERENCE_NS_PER_EVENT
    );
    let mut correct = true;

    let metrics = if args.trace {
        let flow_events = match &workload {
            Workload::Crowd(crowd) => {
                trace::set_enabled(true);
                let events = crowd.replay(reference_seed);
                trace::set_enabled(false);
                events
            }
            _ => (0, 0),
        };
        let totals = trace::totals();
        let round_self_ns = totals.self_sum()
            - totals.self_time(Name::TopologyReplay)
            - totals.self_time(Name::LinkReplay);
        let self_time_pct = 100.0 * ratio(round_self_ns as f64, traced.wall_ns as f64);
        if !(95.0..=100.5).contains(&self_time_pct) {
            eprintln!("layer self times cover {self_time_pct:.2}% of the traced wall time");
            correct = false;
        }
        for (u, t) in host_time.end_to_end().iter().zip(&traced.end_to_end()) {
            println!(
                "tracing {:<20} untraced {:>14.4} traced {:>14.4} {}",
                u.name, u.value, t.value, u.unit
            );
        }
        per_layer(
            &totals,
            &traced.counts,
            &reference.counts,
            flow_events,
            100.0 * median(&overheads),
            self_time_pct,
        )
    } else {
        for m in host_time.end_to_end().iter().filter(|m| m.unit != "MB") {
            println!("host-time {:<30} {:>16.4} {}", m.name, m.value, m.unit);
        }
        untraced.end_to_end()
    };

    if let Some(path) = &args.spans {
        let written = std::fs::File::create(path).and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            trace::write_spans(&mut out)?;
            out.flush()
        });
        if let Err(e) = written {
            eprintln!("could not write spans to {path}: {e}");
        }
    }

    let traced_reference = round(&workload, reference_seed, true);
    attempted += traced_reference.ops.len();
    failed += errors(&traced_reference) + mismatches(&reference, &traced_reference);
    for (index, op) in reference.ops.iter().enumerate() {
        println!(
            "op {index} {:?} {:.3} ms, {} requests, digest {:016x}: {}",
            op.kind,
            op.host_ns as f64 / 1e6,
            op.requests,
            op.digest,
            op.summary
        );
    }
    let digest = round_digest(&reference);
    println!("digest {} {digest:016x}", args.workload);
    if let Workload::Survey(survey) = &workload {
        for runner in [
            TrialRunner::serial(),
            TrialRunner::with_threads(reported_cores),
        ] {
            let digests = survey.digests_on(reference_seed, &runner);
            attempted += digests.len();
            let mismatched = digests
                .iter()
                .zip(&reference.ops)
                .filter(|(d, r)| **d != Some(r.digest))
                .count();
            failed += mismatched;
            println!(
                "check {} thread(s): {} of {} profile digests match",
                runner.threads(),
                digests.len() - mismatched,
                digests.len()
            );
        }
    }
    correct &= failed == 0;

    for m in &metrics {
        println!("metric {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "rounds {rounds}{}, {} timed operations of the measured kind, failed_frac {}",
        if args.trace {
            " untraced + as many traced"
        } else {
            ""
        },
        untraced.profile_ms.len(),
        ratio(failed as f64, attempted as f64)
    );

    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    if let Some(path) = &args.record {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
             \"digest\": \"{digest:016x}\", \"reported_cores\": {reported_cores}, \
             \"effective_cores\": {effective_cores}, \"spin_ns_per_iteration\": {spin_ns}, \
             \"slowdown\": {slowdown}, \"rounds\": {}, \"result\": {result}}}\n",
            args.workload, args.seed, args.trace as u8, args.seconds, rounds,
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| file.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("could not append the record to {path}: {e}");
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}
