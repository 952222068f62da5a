//! Latency recording, percentiles and medians over segments.

use std::time::Duration;

/// Median of an unsorted list of floats (`0.0` when empty).
pub fn median_f64(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Exact latency distribution in nanoseconds: one counter per
/// nanosecond below [`Lat::DIRECT`], the rare slower samples kept
/// verbatim — exact percentiles at a fixed memory cost however many
/// samples arrive.
#[derive(Debug, Clone)]
pub struct Lat {
    buckets: Vec<u64>,
    slow: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Default for Lat {
    fn default() -> Lat {
        Lat::new()
    }
}

impl Lat {
    const DIRECT: u64 = 1 << 16;

    pub fn new() -> Lat {
        Lat {
            buckets: vec![0; Lat::DIRECT as usize],
            slow: Vec::new(),
            count: 0,
            sum: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        if ns < Lat::DIRECT {
            self.buckets[ns as usize] += 1;
        } else {
            self.slow.push(ns);
        }
        self.count += 1;
        self.sum += u128::from(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn clear(&mut self) {
        self.buckets.fill(0);
        self.slow.clear();
        self.count = 0;
        self.sum = 0;
    }

    /// The `k`-th smallest sample (0-based).
    fn kth(&self, k: u64, slow_sorted: &[u64]) -> u64 {
        let mut seen = 0;
        for (ns, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > k {
                return ns as u64;
            }
        }
        slow_sorted[(k - seen) as usize]
    }

    /// Percentile `p` (0..=100), interpolating linearly between the two
    /// closest ranks (rank `p/100 * (n-1)`, numpy's default definition);
    /// `0.0` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut slow = self.slow.clone();
        slow.sort_unstable();
        let rank = p / 100.0 * (self.count - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        let (a, b) = (self.kth(lo, &slow) as f64, self.kth(hi, &slow) as f64);
        a + (b - a) * (rank - lo as f64)
    }
}

/// Operations measured in consecutive segments, each run against freshly
/// built system state (new services, engines, code mappings and
/// buffers). Throughput and latency percentiles are computed per
/// segment and reported as the median over segments: where code and
/// data happen to land in memory moves one segment, not the result.
#[derive(Debug)]
pub struct Segments {
    cur: Lat,
    cur_busy_ns: u64,
    cur_work: u64,
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    /// Every sample.
    pub all: Lat,
    pub work: u64,
}

impl Default for Segments {
    fn default() -> Segments {
        Segments::new()
    }
}

impl Segments {
    /// Target length of one segment.
    pub const LEN: Duration = Duration::from_secs(2);

    pub fn new() -> Segments {
        Segments {
            cur: Lat::new(),
            cur_busy_ns: 0,
            cur_work: 0,
            rates: Vec::new(),
            p50s: Vec::new(),
            p99s: Vec::new(),
            all: Lat::new(),
            work: 0,
        }
    }

    /// How many segments a phase of `dur` is split into.
    pub fn count_for(dur: Duration) -> u32 {
        (dur.as_secs_f64() / Segments::LEN.as_secs_f64())
            .round()
            .max(1.0) as u32
    }

    /// One operation of `ns` that completed `work` units.
    #[inline]
    pub fn record(&mut self, ns: u64, work: u64) {
        self.cur.record(ns);
        self.all.record(ns);
        self.cur_busy_ns += ns;
        self.cur_work += work;
        self.work += work;
    }

    /// Closes the current segment (no-op when it recorded nothing).
    pub fn end_segment(&mut self) {
        if self.cur.count() == 0 {
            return;
        }
        self.rates
            .push(self.cur_work as f64 / (self.cur_busy_ns.max(1) as f64 / 1e9));
        self.p50s.push(self.cur.percentile(50.0));
        self.p99s.push(self.cur.percentile(99.0));
        self.cur.clear();
        self.cur_busy_ns = 0;
        self.cur_work = 0;
    }

    /// Median over segments of work per second of operation time.
    pub fn rate(&self) -> f64 {
        median_f64(&self.rates)
    }

    /// Median over segments of the per-segment percentile, in ns.
    pub fn p50(&self) -> f64 {
        median_f64(&self.p50s)
    }

    pub fn p99(&self) -> f64 {
        median_f64(&self.p99s)
    }

    pub fn segments(&self) -> usize {
        self.rates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(xs: &[u64]) -> Lat {
        let mut l = Lat::new();
        for &x in xs {
            l.record(x);
        }
        l
    }

    #[test]
    fn percentile_matches_hand_computed_values() {
        let l = lat(&[50, 10, 40, 20, 30]);
        assert_eq!(l.percentile(0.0), 10.0);
        assert_eq!(l.percentile(50.0), 30.0);
        assert_eq!(l.percentile(100.0), 50.0);
        // rank 0.25 * 4 = 1.0 -> 20; rank 0.9 * 4 = 3.6 -> 40 + 0.6 * 10.
        assert_eq!(l.percentile(25.0), 20.0);
        assert_eq!(l.percentile(90.0), 46.0);
        // Even count: the median interpolates halfway.
        assert_eq!(lat(&[1, 2, 3, 4]).percentile(50.0), 2.5);
        // rank 0.99 * 99 = 98.01 over 1..=100 -> 99 + 0.01.
        let p99 = lat(&(1..=100).collect::<Vec<_>>()).percentile(99.0);
        assert!((p99 - 99.01).abs() < 1e-9, "{p99}");
        // Samples past the direct range interpolate the same way.
        let slow = lat(&[1, Lat::DIRECT + 10, Lat::DIRECT + 30]);
        assert_eq!(slow.percentile(75.0), (Lat::DIRECT + 20) as f64);
        assert_eq!(slow.percentile(50.0), (Lat::DIRECT + 10) as f64);
        assert_eq!(lat(&[]).percentile(50.0), 0.0);
        assert_eq!(lat(&[7]).percentile(99.0), 7.0);
        assert_eq!(lat(&[10, 20, 60]).mean_ns(), 30.0);
    }

    #[test]
    fn segments_report_medians() {
        let mut s = Segments::new();
        // Three segments: 10 ops of 100 ns, 10 of 300 ns, 10 of 200 ns.
        for ns in [100u64, 300, 200] {
            for _ in 0..10 {
                s.record(ns, 2);
            }
            s.end_segment();
        }
        s.end_segment();
        assert_eq!(s.segments(), 3);
        assert_eq!(s.p50(), 200.0);
        assert_eq!(s.p99(), 200.0);
        assert_eq!(s.rate(), 2.0 / 200e-9);
        assert_eq!((s.all.count(), s.work), (30, 60));
        assert_eq!(Segments::count_for(Duration::from_secs(20)), 10);
        assert_eq!(Segments::count_for(Duration::from_millis(500)), 1);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
