//! Seeded, bit-deterministic fault injection and the recovery policy
//! layered on top of it.
//!
//! A [`FaultSpec`] is the fault-injection counterpart of
//! [`WorkloadSpec`](crate::WorkloadSpec): all stochasticity is drawn
//! from forked [`SplitMix64`] streams keyed by the spec's own seed, so
//! fault decisions are
//!
//! * **policy-independent** — a decision is a pure function of
//!   `(fault seed, channel, job id, attempt)`; nothing the scheduler
//!   does perturbs it;
//! * **prefix-stable** — growing or shrinking the job count never
//!   changes any other job's fault draws (each job indexes its own fork
//!   of the per-channel stream in O(1), exactly the discipline
//!   `WorkloadSpec` uses for arrivals/picks/jitter);
//! * **zero-rate inert** — with every rate at zero and no deadline, no
//!   stream is ever consulted and the simulator's behaviour is
//!   byte-identical to a fault-free run.
//!
//! Three fault channels plus a deadline are modelled:
//!
//! 1. **reconfiguration-load failures** — a bitstream load aborts after
//!    stalling the fabric for its full streaming time, scrubbing the
//!    loaded configuration;
//! 2. **transient fabric faults** — an in-flight fine-grain phase is
//!    killed partway (the completed fraction is drawn from the same
//!    per-attempt stream);
//! 3. **CGC slot outages** — a coarse phase is killed partway and the
//!    slot stays down for [`FaultSpec::repair_cycles`];
//! 4. **per-job deadlines** — a job still waiting for the fabric at
//!    `arrival + deadline` is reaped.
//!
//! [`RecoveryPolicy`] decides what the engine does about it: bounded
//! retry with a deterministic exponential
//! [`BackoffSchedule`](crate::BackoffSchedule), and — when retries are
//! exhausted — graceful degradation to the application's
//! coarse-grain-only fallback path
//! ([`AppProfile::fallback_cycles`](crate::AppProfile::fallback_cycles))
//! instead of dropping the job.

use crate::backoff::BackoffSchedule;
use amdrel_core::rng::SplitMix64;
use std::num::NonZeroU64;

/// SplitMix64's additive constant (the golden-ratio gamma). Advancing a
/// stream's state by `i * GAMMA` is exactly "skip to position `i`", so
/// `SplitMix64::new(key + i * GAMMA).next_u64()` is the fork the stream
/// would hand out at position `i` — an O(1) random-access fork.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fault channel indices into the master stream (fixed fork order; new
/// channels append so existing draws never move).
const CH_LOAD: u64 = 0;
const CH_TRANSIENT: u64 = 1;
const CH_OUTAGE: u64 = 2;

/// The `index`-th fork of the stream keyed by `key`, in O(1).
fn fork_at(key: u64, index: u64) -> u64 {
    SplitMix64::new(key.wrapping_add(index.wrapping_mul(GAMMA))).next_u64()
}

/// Multiply `cycles` by `permille`/1000 without overflow.
pub(crate) fn permille_of(cycles: u64, permille: u64) -> u64 {
    ((u128::from(cycles) * u128::from(permille)) / 1000) as u64
}

/// A seeded fault-injection specification. All rates are permille
/// (0..=1000) per *attempt*; `FaultSpec::none()` injects nothing and
/// leaves every report byte-identical to a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Master seed the per-channel streams fork from (independent of
    /// the workload seed).
    pub seed: u64,
    /// Probability (permille) that one bitstream-load attempt fails.
    pub load_fail_permille: u16,
    /// Probability (permille) that one fine-grain execution attempt is
    /// killed by a transient fabric fault.
    pub transient_permille: u16,
    /// Probability (permille) that one coarse-grain execution attempt
    /// is killed by a CGC slot outage.
    pub outage_permille: u16,
    /// Cycles a failed CGC slot stays down before repair returns it to
    /// the pool.
    pub repair_cycles: u64,
    /// Relative per-job deadline: a job still *queued* for the fabric
    /// at `arrival + deadline` is reaped (in-flight and coarse-phase
    /// jobs are committed and run to completion). `None` disables
    /// deadlines.
    pub deadline: Option<NonZeroU64>,
}

impl FaultSpec {
    /// The inert spec: no faults, no deadlines. Simulating under it is
    /// byte-identical to not attaching a spec at all.
    pub fn none() -> FaultSpec {
        FaultSpec {
            seed: 0,
            load_fail_permille: 0,
            transient_permille: 0,
            outage_permille: 0,
            repair_cycles: 0,
            deadline: None,
        }
    }

    /// A uniform spec: the same `rate_permille` on all three fault
    /// channels, a 20 000-cycle slot repair time, no deadline.
    ///
    /// # Panics
    ///
    /// Panics if `rate_permille > 1000`.
    pub fn uniform(seed: u64, rate_permille: u16) -> FaultSpec {
        assert!(
            rate_permille <= 1000,
            "fault rate is permille (0..=1000), got {rate_permille}"
        );
        FaultSpec {
            seed,
            load_fail_permille: rate_permille,
            transient_permille: rate_permille,
            outage_permille: rate_permille,
            repair_cycles: 20_000,
            deadline: None,
        }
    }

    /// `true` if this spec can never influence a run (all rates zero,
    /// no deadline). The engine skips all fault bookkeeping in that
    /// case, which is what makes zero-rate runs byte-identical.
    pub fn is_none(&self) -> bool {
        self.load_fail_permille == 0
            && self.transient_permille == 0
            && self.outage_permille == 0
            && self.deadline.is_none()
    }

    /// The per-`(channel, job, attempt)` decision stream: channel
    /// streams fork from the master seed in fixed order, each job takes
    /// the `job`-th fork of its channel stream, each attempt the
    /// `attempt`-th fork of the job stream. Every level is O(1) and
    /// independent of every sibling, which is what buys prefix
    /// stability across job-count forks.
    fn attempt_stream(&self, channel: u64, job: u64, attempt: u32) -> SplitMix64 {
        let mut master = SplitMix64::new(self.seed);
        let mut channel_key = 0;
        for _ in 0..=channel {
            channel_key = master.next_u64();
        }
        let job_key = fork_at(channel_key, job);
        SplitMix64::new(fork_at(job_key, u64::from(attempt)))
    }

    /// Whether bitstream-load attempt `attempt` of `job` fails. Pure:
    /// the same inputs always answer the same, regardless of call order
    /// or anything else the simulator did.
    pub fn load_fails(&self, job: u64, attempt: u32) -> bool {
        self.load_fail_permille > 0
            && self.attempt_stream(CH_LOAD, job, attempt).below(1000)
                < u64::from(self.load_fail_permille)
    }

    /// Whether fine-grain execution attempt `attempt` of `job` is
    /// killed by a transient fabric fault; `Some(p)` gives the permille
    /// of the phase that completed (and is wasted) before the kill.
    pub fn fabric_kill(&self, job: u64, attempt: u32) -> Option<u64> {
        if self.transient_permille == 0 {
            return None;
        }
        let mut s = self.attempt_stream(CH_TRANSIENT, job, attempt);
        if s.below(1000) >= u64::from(self.transient_permille) {
            return None;
        }
        Some(s.below(1000))
    }

    /// Whether coarse-grain execution attempt `attempt` of `job` is
    /// killed by a CGC slot outage; `Some(p)` as in
    /// [`Self::fabric_kill`].
    pub fn slot_outage(&self, job: u64, attempt: u32) -> Option<u64> {
        if self.outage_permille == 0 {
            return None;
        }
        let mut s = self.attempt_stream(CH_OUTAGE, job, attempt);
        if s.below(1000) >= u64::from(self.outage_permille) {
            return None;
        }
        Some(s.below(1000))
    }

    /// The absolute reap time of a job arriving at `arrival`, if
    /// deadlines are enabled.
    pub fn job_deadline(&self, arrival: u64) -> Option<u64> {
        self.deadline.map(|d| arrival.saturating_add(d.get()))
    }
}

/// What the engine does when a fault fires: how often to retry, how
/// long to wait between retries, and whether exhausted jobs degrade to
/// the coarse-grain-only fallback path or abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecoveryPolicy {
    /// Retries granted per phase (fabric attempts and coarse attempts
    /// each get this budget). 0 means any fault immediately exhausts.
    pub max_retries: u32,
    /// Deterministic delay schedule between fabric retries.
    pub backoff: BackoffSchedule,
    /// When retries are exhausted: `true` reroutes the job to its
    /// application's coarse-grain-only fallback path (fault-immune,
    /// priced by [`AppProfile::fallback_cycles`](crate::AppProfile::fallback_cycles));
    /// `false` aborts the job.
    pub degrade: bool,
}

impl Default for RecoveryPolicy {
    /// 3 retries under the default backoff schedule, abort on
    /// exhaustion (degradation is opt-in, mirroring `--degrade`).
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff: BackoffSchedule::default(),
            degrade: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert_and_uniform_is_not() {
        assert!(FaultSpec::none().is_none());
        assert!(FaultSpec::uniform(7, 0).is_none(), "rate 0 is inert");
        assert!(!FaultSpec::uniform(7, 1).is_none());
        let mut with_deadline = FaultSpec::none();
        with_deadline.deadline = NonZeroU64::new(1_000);
        assert!(!with_deadline.is_none(), "a deadline alone is not inert");
        for job in 0..64 {
            for attempt in 0..4 {
                assert!(!FaultSpec::none().load_fails(job, attempt));
                assert!(FaultSpec::none().fabric_kill(job, attempt).is_none());
                assert!(FaultSpec::none().slot_outage(job, attempt).is_none());
            }
        }
        assert_eq!(FaultSpec::none().job_deadline(5), None);
    }

    #[test]
    #[should_panic(expected = "permille")]
    fn uniform_rejects_rates_over_1000() {
        let _ = FaultSpec::uniform(7, 1001);
    }

    #[test]
    fn rate_1000_always_fires() {
        let spec = FaultSpec::uniform(7, 1000);
        for job in 0..64 {
            assert!(spec.load_fails(job, 0));
            let frac = spec.fabric_kill(job, 0).expect("certain kill");
            assert!(frac < 1000);
            assert!(spec.slot_outage(job, 1).is_some());
        }
    }

    #[test]
    fn decisions_are_pure_functions() {
        let spec = FaultSpec::uniform(42, 300);
        // Re-asking, and asking in any interleaving, never changes an
        // answer — there is no shared stream state to perturb.
        let first: Vec<_> = (0..128)
            .map(|j| (spec.load_fails(j, 0), spec.fabric_kill(j, 1)))
            .collect();
        let shuffled: Vec<_> = (0..128)
            .rev()
            .map(|j| (spec.load_fails(j, 0), spec.fabric_kill(j, 1)))
            .collect();
        let replay: Vec<_> = (0..128)
            .map(|j| (spec.load_fails(j, 0), spec.fabric_kill(j, 1)))
            .collect();
        assert_eq!(first, replay);
        assert_eq!(first, shuffled.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn channels_jobs_and_attempts_draw_independently() {
        let spec = FaultSpec::uniform(2004, 500);
        let load: Vec<bool> = (0..256).map(|j| spec.load_fails(j, 0)).collect();
        let transient: Vec<bool> = (0..256).map(|j| spec.fabric_kill(j, 0).is_some()).collect();
        let outage: Vec<bool> = (0..256).map(|j| spec.slot_outage(j, 0).is_some()).collect();
        assert_ne!(load, transient, "channels are distinct streams");
        assert_ne!(transient, outage);
        let attempt1: Vec<bool> = (0..256).map(|j| spec.load_fails(j, 1)).collect();
        assert_ne!(load, attempt1, "attempts are distinct draws");
        // At 500 permille all three channels fire a plausible fraction.
        for v in [&load, &transient, &outage] {
            let hits = v.iter().filter(|&&b| b).count();
            assert!((64..=192).contains(&hits), "hits {hits} of 256");
        }
    }

    #[test]
    fn seeds_move_every_channel() {
        let a = FaultSpec::uniform(1, 500);
        let b = FaultSpec::uniform(2, 500);
        let draws = |s: &FaultSpec| -> Vec<bool> { (0..256).map(|j| s.load_fails(j, 0)).collect() };
        assert_ne!(draws(&a), draws(&b));
    }

    #[test]
    fn deadline_is_arrival_relative_and_saturating() {
        let mut spec = FaultSpec::none();
        spec.deadline = NonZeroU64::new(500);
        assert_eq!(spec.job_deadline(100), Some(600));
        assert_eq!(spec.job_deadline(u64::MAX - 10), Some(u64::MAX));
    }

    #[test]
    fn default_recovery_aborts_after_three_retries() {
        let r = RecoveryPolicy::default();
        assert_eq!(r.max_retries, 3);
        assert!(!r.degrade);
        assert_eq!(r.backoff, BackoffSchedule::default());
    }
}
