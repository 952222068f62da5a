//! What every workload shares: its configuration, its outcome, and the
//! helpers that turn measurements and counters into metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Run configuration from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Measured time of the whole run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory inside the checkout (artifacts, traces).
    pub work_dir: std::path::PathBuf,
}

impl Config {
    /// The measured phases of the run: the whole time untraced, or an
    /// untraced half (the tracing-overhead baseline) and a traced half.
    pub fn phase(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }
}

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// No answer fell outside the system's documented semantics.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `throughput_per_s`, `latency_p50_us`, `latency_p99_us`, `setup_s`.
    pub e2e: Metrics,
    /// The workload's own end-to-end metrics, by their specific names
    /// (printed; not part of the result line).
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Free-form report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.insert(name, (finite(value), unit));
    }

    pub fn push_named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, finite(value), unit));
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Paces a measuring thread: a burst of `burst` operations is due every
/// `period`. On a small shared host, timings taken under sustained full
/// load wander by 10–30% between runs as the host throttles; with idle
/// gaps they repeat within a few percent. Operation times exclude the
/// gaps, so throughput stays work per second of operation time.
#[derive(Debug)]
pub struct Pacer {
    start: Instant,
    burst: u64,
    period: Duration,
    seen: u64,
}

impl Pacer {
    /// The first burst is due at `start`.
    pub fn new(start: Instant, burst: u64, period: Duration) -> Pacer {
        Pacer {
            start,
            burst,
            period,
            seen: 0,
        }
    }

    /// Call before each operation: sleeps until the next burst is due
    /// (no-op inside a burst, or when running late).
    pub fn wait(&mut self) {
        if self.seen.is_multiple_of(self.burst) {
            let due = self.start + self.period * (self.seen / self.burst) as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        self.seen += 1;
    }
}

/// Set-ups repeated at the start of each measured segment.
pub const SEGMENT_SETUPS: usize = 4;

/// Set-up times sampled across a run; `setup_s` is their median. The
/// host's speed drifts over seconds, so set-ups timed only before the
/// measured phases give the speed of one moment; set-ups also repeated
/// at the start of every segment, like the other metrics' medians over
/// segments, repeat between runs.
#[derive(Debug, Default)]
pub struct Setups {
    times: Vec<f64>,
}

impl Setups {
    /// Runs `setup` `n` times, idling twice as long as each took before
    /// the next (the duty cycle the measuring threads run at, see
    /// [`Pacer`]), records each wall time, and returns the last result:
    /// the state the caller goes on to measure.
    pub fn run<T>(&mut self, n: usize, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..n {
            drop(last.take());
            let t0 = Instant::now();
            let v = setup();
            let took = t0.elapsed();
            self.times.push(took.as_secs_f64());
            last = Some(v);
            std::thread::sleep(2 * took);
        }
        last.expect("at least one set-up")
    }

    /// The median set-up time in seconds.
    pub fn median_s(&self) -> f64 {
        crate::stats::median_f64(&self.times)
    }
}

#[inline]
pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Hit ratio as a percentage (`0` with no lookups).
pub fn hit_ratio_pct(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        100.0 * hits as f64 / (hits + misses) as f64
    }
}

/// Per-layer names of the engine's, DPF's and ASH's cache counters.
pub const CACHE_LAYERS: [[&str; 4]; 3] = [
    [
        "vcode.cache.engine.hits",
        "vcode.cache.engine.misses",
        "vcode.cache.engine.evictions",
        "vcode.cache.engine.hit_ratio",
    ],
    [
        "vcode.cache.dpf.hits",
        "vcode.cache.dpf.misses",
        "vcode.cache.dpf.evictions",
        "vcode.cache.dpf.hit_ratio",
    ],
    [
        "vcode.cache.ash.hits",
        "vcode.cache.ash.misses",
        "vcode.cache.ash.evictions",
        "vcode.cache.ash.hit_ratio",
    ],
];

/// Counter deltas `after - before` of one cache.
pub fn cache_delta(before: vcode::CacheStats, after: vcode::CacheStats) -> vcode::CacheStats {
    vcode::CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        ..vcode::CacheStats::default()
    }
}

/// Records one client's cache counter deltas under `names`.
pub fn cache_layers(out: &mut Outcome, names: [&'static str; 4], d: vcode::CacheStats) {
    out.layer(names[0], d.hits as f64, "count");
    out.layer(names[1], d.misses as f64, "count");
    out.layer(names[2], d.evictions as f64, "count");
    out.layer(names[3], hit_ratio_pct(d.hits, d.misses), "%");
}

/// Executable-memory pool allocations served from / missing the pool.
pub fn pool_layers(out: &mut Outcome, before: vcode_x64::PoolStats, after: vcode_x64::PoolStats) {
    out.layer(
        "x64.exec.pool_hits",
        (after.hits - before.hits) as f64,
        "count",
    );
    out.layer(
        "x64.exec.pool_misses",
        (after.misses - before.misses) as f64,
        "count",
    );
}

/// The tracing overhead: how much slower the traced half ran than the
/// untraced half, as a percentage of the untraced throughput.
pub fn overhead_layers(out: &mut Outcome, untraced_rate: f64, traced_rate: f64, coverage: f64) {
    let overhead = if untraced_rate > 0.0 {
        100.0 * (untraced_rate - traced_rate) / untraced_rate
    } else {
        0.0
    };
    out.layer("trace.overhead_pct", overhead, "%");
    out.layer("trace.coverage_pct", coverage, "%");
}
