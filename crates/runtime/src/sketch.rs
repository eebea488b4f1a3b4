//! Streaming latency aggregation: deterministic quantile sketches with
//! an exact fallback, so report memory is O(1) in the job count.
//!
//! The buffered approach (`Vec<u64>` of every completion latency) makes
//! memory grow linearly with jobs — fine at 400 jobs, fatal at a
//! million. A [`LatencySketch`] replaces the buffer with a log-bucketed
//! integer histogram (HDR-histogram style): each recorded value lands in
//! a bucket whose width is at most `value / 2^SUB_BITS`, so any
//! percentile read back from the counts is **never below** the exact
//! nearest-rank value and overshoots it by at most one part in
//! 2^[`SUB_BITS`] (< 0.8%). P²/CKMS sketches were considered and
//! rejected: both interpolate in floating point, which would break the
//! workspace's bit-identical-replay contract. The histogram uses integer
//! arithmetic only, is a pure function of the recorded *multiset* (merge
//! and insertion order never change a query), and needs at most 7,424
//! counters regardless of how many values are recorded.
//!
//! Below [`EXACT_THRESHOLD`] recorded values the sketch keeps the exact
//! sample instead ([`SketchMode::Auto`]), so small runs — including the
//! committed 400-job `BENCH_runtime.json` baselines — reproduce the
//! historical nearest-rank percentiles byte-for-byte.

/// Sub-bucket precision: each power-of-two magnitude is split into
/// `2^SUB_BITS` linear buckets, bounding the relative quantile error at
/// `2^-SUB_BITS` (1/128 < 0.8%).
pub const SUB_BITS: u32 = 7;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Job-count threshold below which [`SketchMode::Auto`] keeps the exact
/// sample (byte-identical historical percentiles) instead of sketching.
pub const EXACT_THRESHOLD: usize = 4096;

/// How a [`Simulation`](crate::Simulation) aggregates completion
/// latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchMode {
    /// Exact below [`EXACT_THRESHOLD`] total jobs, sketched at or above
    /// it (the default: small runs stay byte-identical to the historical
    /// exact percentiles, large runs stay O(1) in memory).
    Auto,
    /// Always buffer the exact sample (memory O(jobs)).
    Exact,
    /// Always sketch (memory O(1), percentiles within the documented
    /// error bound).
    Sketched,
}

impl SketchMode {
    /// Resolve the mode against the run's total job count.
    pub fn resolve(self, total_jobs: usize) -> LatencySource {
        match self {
            SketchMode::Exact => LatencySource::Exact,
            SketchMode::Sketched => LatencySource::Sketched,
            SketchMode::Auto if total_jobs < EXACT_THRESHOLD => LatencySource::Exact,
            SketchMode::Auto => LatencySource::Sketched,
        }
    }

    /// Parse a CLI value (`auto`, `exact`, `sketched`).
    pub fn parse(name: &str) -> Option<SketchMode> {
        match name {
            "auto" => Some(SketchMode::Auto),
            "exact" => Some(SketchMode::Exact),
            "sketched" => Some(SketchMode::Sketched),
            _ => None,
        }
    }
}

/// Provenance of a report's latency percentiles (recorded in the
/// `amdrel-simulate/v2` JSON so consumers know whether percentiles are
/// exact nearest-rank values or sketch upper bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencySource {
    /// Percentiles are exact nearest-rank values of the full sample.
    Exact,
    /// Percentiles come from the log-bucketed histogram: never below the
    /// exact value, above it by at most `2^-SUB_BITS` relative.
    Sketched,
}

impl LatencySource {
    /// The JSON/report string (`"exact"` / `"sketched"`).
    pub fn as_str(self) -> &'static str {
        match self {
            LatencySource::Exact => "exact",
            LatencySource::Sketched => "sketched",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    Exact(Vec<u64>),
    /// Bucket counts, lazily grown to the highest occupied index.
    Hist(Vec<u64>),
}

/// A deterministic streaming aggregate of completion latencies.
///
/// Tracks the count and exact maximum in both representations; the
/// percentile machinery is either the exact sample or the log-bucketed
/// histogram depending on the [`LatencySource`] it was built for.
///
/// # Examples
///
/// ```
/// use amdrel_runtime::{LatencySketch, LatencySource};
///
/// let mut sketch = LatencySketch::new(LatencySource::Sketched);
/// for v in [10_000u64, 20_000, 30_000, 40_000] {
///     sketch.record(v);
/// }
/// let p50 = sketch.percentile(50);
/// // Never below the exact nearest-rank value, within 1/128 above it.
/// assert!(p50 >= 20_000 && p50 <= 20_000 + 20_000 / 128);
/// assert_eq!(sketch.max(), 40_000, "the maximum is always exact");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySketch {
    count: u64,
    max: u64,
    repr: Repr,
}

impl LatencySketch {
    /// An empty sketch for the given representation.
    pub fn new(source: LatencySource) -> Self {
        LatencySketch {
            count: 0,
            max: 0,
            repr: match source {
                LatencySource::Exact => Repr::Exact(Vec::new()),
                LatencySource::Sketched => Repr::Hist(Vec::new()),
            },
        }
    }

    /// The representation this sketch records into.
    pub fn source(&self) -> LatencySource {
        match self.repr {
            Repr::Exact(_) => LatencySource::Exact,
            Repr::Hist(_) => LatencySource::Sketched,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Record one latency.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.max = self.max.max(value);
        match &mut self.repr {
            Repr::Exact(sample) => sample.push(value),
            Repr::Hist(counts) => {
                let idx = bucket_index(value);
                if counts.len() <= idx {
                    counts.resize(idx + 1, 0);
                }
                counts[idx] += 1;
            }
        }
    }

    /// Fold `other` into `self`. Exact merges concatenate samples;
    /// sketched merges add counts — both are order-independent.
    ///
    /// # Panics
    ///
    /// Panics if the two sketches use different representations (a
    /// simulation resolves one [`SketchMode`] for the whole run, so
    /// mixed merges indicate a bug).
    pub fn merge_from(&mut self, other: &LatencySketch) {
        self.count += other.count;
        self.max = self.max.max(other.max);
        match (&mut self.repr, &other.repr) {
            (Repr::Exact(sample), Repr::Exact(theirs)) => sample.extend_from_slice(theirs),
            (Repr::Hist(counts), Repr::Hist(theirs)) => {
                if counts.len() < theirs.len() {
                    counts.resize(theirs.len(), 0);
                }
                for (c, t) in counts.iter_mut().zip(theirs) {
                    *c += t;
                }
            }
            _ => panic!("cannot merge an exact sketch with a sketched one"),
        }
    }

    /// Consume `other` and fold it in, returning the merged sketch —
    /// the combinator form of [`LatencySketch::merge_from`] the sharded
    /// runner folds per-shard aggregates with.
    ///
    /// The merge is **exact-associative**: both representations combine
    /// as pure functions of the recorded multiset (exact samples
    /// concatenate counts and values; histogram buckets add), so
    /// `a.merge(&b).merge(&c)` equals `a.merge(&b.clone().merge(&c))`
    /// in every queryable field, and any percentile of the result is
    /// independent of how many shards the sample was split across.
    ///
    /// # Panics
    ///
    /// As [`LatencySketch::merge_from`]: panics if the representations
    /// differ.
    #[must_use]
    pub fn merge(mut self, other: &LatencySketch) -> LatencySketch {
        self.merge_from(other);
        self
    }

    /// Nearest-rank percentile (`q` in percent; 0 for an empty sketch).
    ///
    /// Exact representation: identical to sorting the sample and taking
    /// the nearest-rank element. Sketched: the upper bound of the bucket
    /// holding the nearest-rank element — at least the exact value, at
    /// most `1 + 2^-SUB_BITS` times it.
    pub fn percentile(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count).div_ceil(100).clamp(1, self.count);
        match &self.repr {
            Repr::Exact(sample) => {
                let mut sorted = sample.clone();
                sorted.sort_unstable();
                sorted[(rank - 1) as usize]
            }
            Repr::Hist(counts) => {
                let mut seen = 0u64;
                for (idx, &c) in counts.iter().enumerate() {
                    seen += c;
                    if seen >= rank {
                        return bucket_high(idx);
                    }
                }
                unreachable!("rank {rank} exceeds recorded count {}", self.count)
            }
        }
    }

    /// Counters currently allocated (exact: sample length; sketched:
    /// bucket count, at most 7,424 independent of the recorded count).
    pub fn allocated(&self) -> usize {
        match &self.repr {
            Repr::Exact(sample) => sample.len(),
            Repr::Hist(counts) => counts.len(),
        }
    }
}

/// Bucket of `value`: values below `2^SUB_BITS` map to themselves; a
/// value with most-significant bit `h ≥ SUB_BITS` maps into one of
/// `2^SUB_BITS` linear sub-buckets of magnitude `h`, each of width
/// `2^(h - SUB_BITS)`.
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let h = 63 - value.leading_zeros();
    let shift = h - SUB_BITS;
    let base = ((h - SUB_BITS + 1) as usize) << SUB_BITS;
    base + ((value >> shift) - SUB_BUCKETS) as usize
}

/// Largest value mapping to bucket `idx` (the deterministic
/// representative [`LatencySketch::percentile`] reports).
fn bucket_high(idx: usize) -> u64 {
    if idx < SUB_BUCKETS as usize {
        return idx as u64;
    }
    let magnitude = (idx >> SUB_BITS) as u32; // ≥ 1
    let h = magnitude + SUB_BITS - 1;
    let shift = h - SUB_BITS;
    let sub = (idx as u64) & (SUB_BUCKETS - 1);
    ((SUB_BUCKETS + sub) << shift) + ((1u64 << shift) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Upper bound on histogram counters: `2^SUB_BITS` exact buckets for
    /// the values below `2^SUB_BITS`, then `2^SUB_BITS` sub-buckets for
    /// each of the `64 - SUB_BITS` higher magnitudes.
    const MAX_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

    fn exact_nearest_rank(mut sample: Vec<u64>, q: u64) -> u64 {
        sample.sort_unstable();
        let n = sample.len() as u64;
        let rank = (q * n).div_ceil(100).clamp(1, n);
        sample[(rank - 1) as usize]
    }

    #[test]
    fn buckets_roundtrip_and_bound_error() {
        for v in (0u64..2048).chain([4_095, 4_096, 1 << 20, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            let high = bucket_high(idx);
            assert!(high >= v, "bucket high {high} below value {v}");
            // Relative width bound: high - v < v / 2^SUB_BITS + 1.
            assert!(
                high - v <= v >> SUB_BITS,
                "bucket of {v} overshoots to {high}"
            );
            assert!(idx < MAX_BUCKETS);
        }
        // Small values are exact.
        assert_eq!(bucket_high(bucket_index(97)), 97);
        // The bound the module docs state.
        assert_eq!(MAX_BUCKETS, 7_424);
        assert_eq!(bucket_index(u64::MAX), MAX_BUCKETS - 1);
    }

    #[test]
    fn exact_repr_matches_nearest_rank() {
        let sample = vec![30u64, 10, 20, 90, 50, 40, 80, 60, 70, 100];
        let mut sketch = LatencySketch::new(LatencySource::Exact);
        for &v in &sample {
            sketch.record(v);
        }
        for q in [1, 50, 95, 100] {
            assert_eq!(sketch.percentile(q), exact_nearest_rank(sample.clone(), q));
        }
        assert_eq!(sketch.max(), 100);
        assert_eq!(sketch.count(), 10);
    }

    #[test]
    fn sketched_repr_bounds_the_error() {
        let sample: Vec<u64> = (1..=10_000u64).map(|i| i * 37 + (i % 13) * 1009).collect();
        let mut sketch = LatencySketch::new(LatencySource::Sketched);
        for &v in &sample {
            sketch.record(v);
        }
        for q in [1, 25, 50, 75, 95, 99, 100] {
            let exact = exact_nearest_rank(sample.clone(), q);
            let approx = sketch.percentile(q);
            assert!(approx >= exact, "p{q}: {approx} < exact {exact}");
            assert!(
                approx - exact <= exact >> SUB_BITS,
                "p{q}: {approx} overshoots exact {exact}"
            );
        }
        assert!(sketch.allocated() <= MAX_BUCKETS);
    }

    #[test]
    fn merge_is_order_independent() {
        let (a, b): (Vec<u64>, Vec<u64>) = ((1..500u64).collect(), (300..900u64).collect());
        let build = |values: &[u64]| {
            let mut s = LatencySketch::new(LatencySource::Sketched);
            values.iter().for_each(|&v| s.record(v));
            s
        };
        let mut ab = build(&a);
        ab.merge_from(&build(&b));
        let mut ba = build(&b);
        ba.merge_from(&build(&a));
        assert_eq!(ab, ba);
        assert_eq!(ab.percentile(95), ba.percentile(95));
    }

    #[test]
    fn merge_combinator_is_exact_associative() {
        for source in [LatencySource::Exact, LatencySource::Sketched] {
            let build = |lo: u64, hi: u64| {
                let mut s = LatencySketch::new(source);
                (lo..hi).for_each(|v| s.record(v * 37 % 50_021));
                s
            };
            let (a, b, c) = (build(0, 400), build(400, 900), build(900, 1_700));
            let left = a.clone().merge(&b).merge(&c);
            let right = a.clone().merge(&b.clone().merge(&c));
            assert_eq!(left, right, "{source:?}: associativity");
            // Shard-count invariance: one sketch over the union equals
            // any split-and-merge of the same multiset.
            let whole = build(0, 1_700);
            assert_eq!(left, whole, "{source:?}: split vs whole");
            for q in [1, 50, 95, 100] {
                assert_eq!(left.percentile(q), whole.percentile(q));
            }
            assert_eq!(left.count(), 1_700);
            assert_eq!(left.max(), whole.max());
        }
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn mixed_merge_panics() {
        let mut a = LatencySketch::new(LatencySource::Exact);
        a.merge_from(&LatencySketch::new(LatencySource::Sketched));
    }

    #[test]
    fn auto_mode_resolves_on_threshold() {
        assert_eq!(SketchMode::Auto.resolve(400), LatencySource::Exact);
        assert_eq!(
            SketchMode::Auto.resolve(EXACT_THRESHOLD),
            LatencySource::Sketched
        );
        assert_eq!(SketchMode::Exact.resolve(1 << 30), LatencySource::Exact);
        assert_eq!(SketchMode::Sketched.resolve(1), LatencySource::Sketched);
        assert_eq!(SketchMode::parse("sketched"), Some(SketchMode::Sketched));
        assert_eq!(SketchMode::parse("p2"), None);
    }

    #[test]
    fn memory_is_constant_in_count() {
        let mut s = LatencySketch::new(LatencySource::Sketched);
        for i in 0..200_000u64 {
            s.record(i * 7919 % 1_000_003);
        }
        assert_eq!(s.count(), 200_000);
        assert!(s.allocated() <= MAX_BUCKETS);
    }
}
