//! Order statistics for latency samples, and the percentile rule.
//!
//! The rule (choosing-metrics §1): a timing is reported as its median and the
//! highest percentile that still has at least [`MIN_BEYOND`] samples beyond
//! it, with the sample count next to it. A "p99" of 300 samples is the mean
//! of three outliers; the rule reports p95 of those 300 instead and says so.

/// Samples that must lie strictly beyond a percentile's rank for it to count
/// as resolved.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail metric may fall back through, in per-mille.
const LADDER: [u32; 5] = [990, 950, 900, 750, 500];

/// 1-based nearest rank of the `per_mille` percentile among `n` samples
/// (integer arithmetic: `0.99 * 1000.0` is not 990 in binary floating point).
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[u64], per_mille: u32) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[rank(n, per_mille) - 1],
    }
}

/// Whether `per_mille` has at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn resolvable(n: usize, per_mille: u32) -> bool {
    n >= rank(n, per_mille) + MIN_BEYOND
}

/// The tail of an ascending slice under the percentile rule: the value and
/// the per-mille actually used — `wanted` when resolvable, else the highest
/// rung below it that is; the median when nothing is (tiny smoke runs).
pub fn tail(sorted: &[u64], wanted: u32) -> (u64, u32) {
    let used = LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| resolvable(sorted.len(), p))
        .unwrap_or(500);
    (percentile(sorted, used), used)
}

/// Median of unordered floats (upper median for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// How far `values` lie apart: `(max − min) ÷ median`; 0 when there are fewer
/// than two or the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid
    }
}

/// Latencies of one phase, eight bytes a sample so that the harness's own
/// memory stays small beside the system's: completion time in microseconds
/// from the start of the phase, latency in nanoseconds (saturating at 4.29 s).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    points: Vec<(u32, u32)>,
}

impl Samples {
    /// Memory one recorded operation takes.
    pub const BYTES_PER_SAMPLE: usize = std::mem::size_of::<(u32, u32)>();

    /// An empty set with room for `n` operations (no reallocation while timing).
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            points: Vec::with_capacity(n),
        }
    }

    /// Record one operation that completed `done_ns` into the phase.
    pub fn push(&mut self, done_ns: u64, latency_ns: u64) {
        let clamp = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
        self.points
            .push((clamp(done_ns / 1_000), clamp(latency_ns)));
    }

    /// Merge another connection's samples in.
    pub fn absorb(&mut self, other: Samples) {
        self.points.extend(other.points);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Completion time of the last operation, nanoseconds into the phase.
    pub fn last_done_ns(&self) -> u64 {
        self.points
            .iter()
            .map(|p| u64::from(p.0) * 1_000)
            .max()
            .unwrap_or(0)
    }

    /// Latencies (ns), ascending, of the operations that completed in
    /// `[from_ns, to_ns)` of the phase.
    pub fn sorted_between(&self, from_ns: u64, to_ns: u64) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .points
            .iter()
            .filter(|p| (from_ns..to_ns).contains(&(u64::from(p.0) * 1_000)))
            .map(|p| u64::from(p.1))
            .collect();
        v.sort_unstable();
        v
    }

    /// All latencies (ns), ascending.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        self.sorted_between(0, u64::MAX)
    }

    /// Latencies, ascending, of each of `segments` equal slices of a phase
    /// `phase_ns` long (a completion past the end counts in the last slice).
    pub fn segment_latencies(&self, phase_ns: u64, segments: usize) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); segments];
        for &(done_us, lat) in &self.points {
            let k = (u128::from(done_us) * 1_000 * segments as u128 / u128::from(phase_ns.max(1)))
                as usize;
            out[k.min(segments - 1)].push(u64::from(lat));
        }
        for seg in &mut out {
            seg.sort_unstable();
        }
        out
    }
}

/// Nanoseconds → microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Nanoseconds → milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(percentile(&v, 1000), 100);
        assert_eq!(percentile(&[], 500), 0);
        assert_eq!(percentile(&[7], 990), 7);
    }

    #[test]
    fn rule_wants_ten_samples_beyond_the_percentile() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert!(resolvable(1000, 990));
        assert!(!resolvable(999, 990));
        // p95 needs 200, the median 20.
        assert!(resolvable(200, 950));
        assert!(!resolvable(199, 950));
        assert!(resolvable(20, 500));
        assert!(!resolvable(19, 500));
    }

    #[test]
    fn tail_falls_back_to_the_highest_resolvable_rung() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v, 990), (990, 990));
        let v: Vec<u64> = (1..=300).collect();
        assert_eq!(
            tail(&v, 990),
            (285, 950),
            "300 samples resolve p95, not p99"
        );
        assert_eq!(tail(&v, 950), (285, 950));
        let v: Vec<u64> = (1..=50).collect();
        assert_eq!(tail(&v, 990).1, 750);
        let v: Vec<u64> = (1..=5).collect();
        assert_eq!(
            tail(&v, 990),
            (3, 500),
            "nothing resolvable: the median, labelled as such"
        );
    }

    #[test]
    fn spread_is_the_range_over_the_median() {
        assert_eq!(spread(&[90.0, 100.0, 120.0]), 0.3);
        assert_eq!(spread(&[5.0]), 0.0, "one slice has no spread");
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 1.0]), 0.0, "no median to relate it to");
    }

    #[test]
    fn segments_split_by_completion_time() {
        let mut s = Samples::default();
        for i in 0..10u64 {
            s.push(i * 100_000, 10 - i);
        }
        let segs = s.segment_latencies(1_000_000, 2);
        assert_eq!(segs[0], vec![6, 7, 8, 9, 10]);
        assert_eq!(segs[1], vec![1, 2, 3, 4, 5]);
        // A completion stamped at or past the end lands in the last segment.
        s.push(1_000_000, 42);
        s.push(1_700_000, 43);
        assert_eq!(s.segment_latencies(1_000_000, 2)[1].len(), 7);
        assert_eq!(s.last_done_ns(), 1_700_000);
        assert_eq!(s.sorted_between(0, 300_000), vec![8, 9, 10]);
        // Latencies saturate instead of wrapping.
        s.push(0, u64::MAX);
        assert_eq!(s.sorted_latencies().last(), Some(&u64::from(u32::MAX)));
    }
}
