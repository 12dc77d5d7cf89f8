//! Host calibration.
//!
//! Effective cores: the same spin loop on one thread and on every thread
//! `available_parallelism` reports.  On a machine whose reported cores are
//! really shared, N busy threads take about N times as long as one, and
//! the effective count is near 1 whatever `nproc` says.
//!
//! Host speed: a fixed reference workload, run between the timed rounds,
//! measures how fast the host runs code like the program's at the moment.
//! On a shared host that speed drifts by a factor of up to about 2 within
//! minutes, far more than a run can average out; the end-to-end times are
//! reported in reference time, host time divided by the slowdown the
//! reference workload measured just before each round.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn spin(iterations: u64) -> u64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

fn time_threads(threads: usize, iterations: u64) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| spin(iterations));
        }
    });
    start.elapsed()
}

/// Returns `(reported cores, effective cores, ns per spin iteration on one
/// thread)`: `n · t(1) / t(n)` for the median of five trials of a loop that
/// takes about 20 ms on one thread.
pub fn calibrate() -> (usize, f64, f64) {
    let reported = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut iterations = 1u64 << 16;
    while time_threads(1, iterations) < Duration::from_millis(20) {
        iterations *= 2;
    }
    let mut trials: Vec<(f64, f64)> = (0..5)
        .map(|_| {
            let one = time_threads(1, iterations).as_secs_f64();
            let all = time_threads(reported, iterations).as_secs_f64();
            (reported as f64 * one / all, one * 1e9 / iterations as f64)
        })
        .collect();
    trials.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (effective, spin_ns) = trials[2];
    (reported, effective, spin_ns)
}

/// The reference workload's cost per event on the host the benchmark's
/// bounds were set on (2 vCPUs of a 2.1 GHz Xeon), at a quiet time.  Host
/// time times `REFERENCE_NS_PER_EVENT / measured ns per event` is
/// reference time.
pub const REFERENCE_NS_PER_EVENT: f64 = 120.0;

/// A small discrete-event simulation that uses the host the way the
/// program does — a binary heap of events, a hash map of open transfers
/// whose buffers come and go, and scattered updates to a 1 MB state array —
/// but does not depend on the repository's crates, so its speed moves
/// only with the host.  Its state persists from slice to slice, and its
/// hasher has fixed keys, so every slice does the same work; with random
/// keys its speed differed by 8 % from one process to the next.
pub struct Reference {
    rng: u64,
    now: u64,
    events: BinaryHeap<Reverse<(u64, u64)>>,
    state: Vec<f64>,
    open: HashMap<u64, Vec<u32>, BuildHasherDefault<DefaultHasher>>,
}

impl Reference {
    /// Timed events per slice: about 25 ms.
    pub const EVENTS: u64 = 200_000;
    /// Untimed events that first bring the state back into the caches the
    /// round before evicted it from, so that the round's memory use does
    /// not change the slice's time.
    const WARM_UP: u64 = 50_000;

    pub fn new() -> Reference {
        let mut reference = Reference {
            rng: 0x9e37_79b9_7f4a_7c15,
            now: 0,
            events: BinaryHeap::new(),
            state: vec![0.0; 1 << 17],
            open: HashMap::default(),
        };
        for id in 0..256 {
            let at = reference.next() % 1000;
            reference.events.push(Reverse((at, id)));
        }
        reference
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn step(&mut self, events: u64) {
        let mask = self.state.len() - 1;
        for _ in 0..events {
            let Reverse((at, id)) = self.events.pop().expect("the heap never empties");
            self.now = self.now.max(at);
            let r = self.next();
            let slot = r as usize & mask;
            self.state[slot] = self.state[slot] * 0.5 + ((r >> 40) as f64 + 1.0).ln();
            if r & 1 == 0 {
                self.open.insert(id, vec![r as u32; 4 + (r >> 60) as usize]);
            } else if let Some(buffer) = self.open.remove(&(id ^ 1)) {
                self.state[buffer[0] as usize & mask] += buffer.len() as f64;
            }
            self.events
                .push(Reverse((self.now + 1 + (r >> 50) % 1000, id)));
        }
        black_box(&self.state);
    }

    /// Runs one slice and returns the host's slowdown against the
    /// reference speed: its time per timed event over
    /// `REFERENCE_NS_PER_EVENT`.
    pub fn slowdown(&mut self) -> f64 {
        self.step(Self::WARM_UP);
        let start = Instant::now();
        self.step(Self::EVENTS);
        start.elapsed().as_nanos() as f64 / Self::EVENTS as f64 / REFERENCE_NS_PER_EVENT
    }
}
