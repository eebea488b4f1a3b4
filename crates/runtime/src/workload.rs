//! Seeded workload generation: a stream of job arrivals drawn from an
//! application mix.
//!
//! The generator is built on [`amdrel_core::rng::SplitMix64`] with one
//! forked stream per concern (inter-arrival gaps, app selection, service
//! jitter), so the generated stream is bit-reproducible, independent of
//! how the simulator later consumes randomness (it consumes none), and
//! *prefix-stable*: growing `jobs` extends the stream without changing
//! the jobs already generated.

use crate::profile::{AppProfile, ConfigId};
use amdrel_core::rng::SplitMix64;

/// One application's share of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppShare {
    /// Index into the profile slice passed to [`WorkloadSpec::generate`].
    pub app: usize,
    /// Relative arrival weight (must be nonzero).
    pub weight: u32,
}

/// A generated job instance, ready for the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Job {
    /// Arrival sequence number (0-based; the event tie-breaker).
    pub id: u64,
    /// Index of the application profile this job instantiates.
    pub app: usize,
    /// Arrival time in FPGA cycles.
    pub arrival: u64,
    /// Scheduling priority inherited from the profile.
    pub priority: u8,
    /// Fine-grain demand for this job (profile value × jitter).
    pub fine_cycles: u64,
    /// Coarse-grain + communication demand for this job (× jitter).
    pub coarse_cycles: u64,
    /// The fine-grain configuration the job needs loaded.
    pub config: ConfigId,
}

impl Job {
    /// Total service demand (the shortest-job-first key).
    pub fn service_cycles(&self) -> u64 {
        self.fine_cycles + self.coarse_cycles
    }
}

/// A seeded arrival process over an application mix.
///
/// # Examples
///
/// ```
/// use amdrel_runtime::{AppProfile, AppShare, WorkloadSpec};
///
/// let profiles = vec![
///     AppProfile::synthetic("interactive", 2, 5_000, 1_500, vec![400]),
///     AppProfile::synthetic("batch", 0, 40_000, 9_000, vec![900]),
/// ];
/// let spec = WorkloadSpec {
///     seed: 42,
///     jobs: 64,
///     mean_interarrival: 10_000,
///     mix: vec![AppShare { app: 0, weight: 3 }, AppShare { app: 1, weight: 1 }],
/// };
/// let jobs = spec.generate(&profiles);
/// assert_eq!(jobs.len(), 64);
/// // Prefix-stable: growing the stream never rewrites history.
/// let longer = WorkloadSpec { jobs: 128, ..spec.clone() }.generate(&profiles);
/// assert_eq!(jobs[..], longer[..64]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Master seed; every derived stream forks from it.
    pub seed: u64,
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Mean inter-arrival gap in FPGA cycles (gaps are uniform on
    /// `1..=2×mean`, so the realised mean is `mean + 0.5`).
    pub mean_interarrival: u64,
    /// The application mix (weights need not be normalised).
    pub mix: Vec<AppShare>,
}

/// Per-job service jitter: ±25% around the profile value, in permille
/// steps, so heterogeneous job sizes exercise the size-aware policies.
const JITTER_MIN_PERMILLE: u64 = 750;
const JITTER_SPAN: u64 = 501; // 750..=1250

impl WorkloadSpec {
    /// A uniform mix over all `profiles`, paced so the *fine-grain*
    /// offered load is `load_percent`% of the FPGA's capacity (the
    /// fabric is the contended serial resource; >100 means overload).
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or `load_percent == 0`.
    pub fn uniform(seed: u64, jobs: usize, profiles: &[AppProfile], load_percent: u64) -> Self {
        WorkloadSpec {
            seed,
            jobs,
            mean_interarrival: WorkloadSpec::mean_interarrival_for(profiles, load_percent),
            mix: (0..profiles.len())
                .map(|app| AppShare { app, weight: 1 })
                .collect(),
        }
    }

    /// The mean inter-arrival gap that offers `load_percent`% of
    /// `profiles`' average fine-grain demand — [`Self::uniform`]'s
    /// pacing rule, exposed so callers that pin an absolute arrival
    /// rate (e.g. contention-aware exploration) derive it from the
    /// same convention.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or `load_percent == 0`.
    pub fn mean_interarrival_for(profiles: &[AppProfile], load_percent: u64) -> u64 {
        assert!(!profiles.is_empty(), "need at least one application");
        assert!(load_percent > 0, "offered load must be positive");
        let mean_fine: u64 =
            profiles.iter().map(|p| p.fine_cycles).sum::<u64>() / profiles.len() as u64;
        (mean_fine * 100 / load_percent).max(1)
    }

    /// Generate the arrival stream against `profiles`.
    ///
    /// Equivalent to collecting [`WorkloadSpec::generate_streaming`];
    /// use the iterator directly when the stream is large.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty, a weight is zero, or an app index is
    /// out of range.
    pub fn generate(&self, profiles: &[AppProfile]) -> Vec<Job> {
        self.generate_streaming(profiles).collect()
    }

    /// Generate the arrival stream lazily, one [`Job`] at a time, so a
    /// million-job run never materialises the full `Vec<Job>`. Yields
    /// exactly the sequence [`WorkloadSpec::generate`] returns (the
    /// property tests pin prefix-for-prefix equality), with strictly
    /// increasing arrival times.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty, a weight is zero, or an app index is
    /// out of range.
    pub fn generate_streaming<'a>(&'a self, profiles: &'a [AppProfile]) -> JobStream<'a> {
        assert!(!self.mix.is_empty(), "workload mix must not be empty");
        let total_weight: u64 = self
            .mix
            .iter()
            .map(|s| {
                assert!(s.weight > 0, "mix weights must be nonzero");
                assert!(
                    s.app < profiles.len(),
                    "mix references app {} but only {} profiles given",
                    s.app,
                    profiles.len()
                );
                u64::from(s.weight)
            })
            .sum();

        let mut master = SplitMix64::new(self.seed);
        let arrivals = master.fork();
        let picks = master.fork();
        let jitter = master.fork();

        JobStream {
            profiles,
            mix: &self.mix,
            total_weight,
            arrivals,
            picks,
            jitter,
            mean: self.mean_interarrival.max(1),
            now: 0,
            next_id: 0,
            remaining: self.jobs,
        }
    }
}

/// The lazy job iterator behind [`WorkloadSpec::generate_streaming`].
///
/// Exact-size, and yields jobs in strictly increasing arrival order —
/// the contract [`Simulation::run_streaming`](crate::Simulation::run_streaming)
/// relies on for its lazy arrival merge.
#[derive(Debug, Clone)]
pub struct JobStream<'a> {
    profiles: &'a [AppProfile],
    mix: &'a [AppShare],
    total_weight: u64,
    arrivals: SplitMix64,
    picks: SplitMix64,
    jitter: SplitMix64,
    mean: u64,
    now: u64,
    next_id: u64,
    remaining: usize,
}

impl Iterator for JobStream<'_> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let id = self.next_id;
        self.next_id += 1;
        self.now += 1 + self.arrivals.below(2 * self.mean);
        let mut ticket = self.picks.below(self.total_weight);
        let mut chosen = self.mix[0].app;
        for share in self.mix {
            if ticket < u64::from(share.weight) {
                chosen = share.app;
                break;
            }
            ticket -= u64::from(share.weight);
        }
        let profile = &self.profiles[chosen];
        let fine_scale = JITTER_MIN_PERMILLE + self.jitter.below(JITTER_SPAN);
        let coarse_scale = JITTER_MIN_PERMILLE + self.jitter.below(JITTER_SPAN);
        let coarse_demand = profile.coarse_cycles + profile.comm_cycles;
        Some(Job {
            id,
            app: chosen,
            arrival: self.now,
            priority: profile.priority,
            fine_cycles: scale(profile.fine_cycles, fine_scale),
            coarse_cycles: scale(coarse_demand, coarse_scale),
            config: profile.config.id,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for JobStream<'_> {}

/// `value × permille / 1000`, keeping nonzero values nonzero so a jittered
/// job never degenerates to a zero-length phase.
fn scale(value: u64, permille: u64) -> u64 {
    if value == 0 {
        0
    } else {
        (value.saturating_mul(permille) / 1000).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> Vec<AppProfile> {
        vec![
            AppProfile::synthetic("a", 2, 1_000, 300, vec![400]),
            AppProfile::synthetic("b", 0, 10_000, 2_000, vec![900, 300]),
        ]
    }

    fn spec(jobs: usize) -> WorkloadSpec {
        WorkloadSpec {
            seed: 42,
            jobs,
            mean_interarrival: 2_000,
            mix: vec![
                AppShare { app: 0, weight: 3 },
                AppShare { app: 1, weight: 1 },
            ],
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = profiles();
        assert_eq!(spec(64).generate(&p), spec(64).generate(&p));
    }

    #[test]
    fn growing_jobs_is_prefix_stable() {
        let p = profiles();
        let short = spec(16).generate(&p);
        let long = spec(64).generate(&p);
        assert_eq!(short[..], long[..16]);
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_jitter_bounded() {
        let p = profiles();
        let jobs = spec(200).generate(&p);
        assert_eq!(jobs.len(), 200);
        for w in jobs.windows(2) {
            assert!(w[0].arrival < w[1].arrival);
        }
        for j in &jobs {
            let base = p[j.app].fine_cycles;
            assert!(j.fine_cycles >= base * 750 / 1000);
            assert!(j.fine_cycles <= base * 1250 / 1000);
            assert_eq!(j.config, p[j.app].config.id);
        }
    }

    #[test]
    fn mix_weights_shape_the_stream() {
        let p = profiles();
        let jobs = spec(400).generate(&p);
        let a_count = jobs.iter().filter(|j| j.app == 0).count();
        // 3:1 mix → roughly 300 of 400; allow generous slack.
        assert!((250..=350).contains(&a_count), "a_count = {a_count}");
    }

    #[test]
    fn uniform_targets_fpga_load() {
        let p = profiles();
        let spec = WorkloadSpec::uniform(7, 10, &p, 110);
        // mean fine = (1000 + 10000) / 2 = 5500 → 5500 * 100 / 110 = 5000.
        assert_eq!(spec.mean_interarrival, 5_000);
        assert_eq!(spec.mix.len(), 2);
    }

    #[test]
    fn streaming_yields_the_identical_sequence() {
        let p = profiles();
        let s = spec(128);
        let batch = s.generate(&p);
        let streamed: Vec<Job> = s.generate_streaming(&p).collect();
        assert_eq!(batch, streamed);
        assert_eq!(s.generate_streaming(&p).len(), 128);
    }

    #[test]
    #[should_panic(expected = "mix references app")]
    fn out_of_range_mix_panics() {
        let p = profiles();
        let mut s = spec(4);
        s.mix[0].app = 9;
        s.generate(&p);
    }
}
