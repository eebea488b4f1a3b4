//! Pure, deterministic retry backoff: a capped exponential schedule
//! with no randomness in the delay itself.
//!
//! The fault-injection layer ([`FaultSpec`](crate::FaultSpec)) decides
//! *whether* an attempt fails; this module decides only *how long* a
//! failed attempt waits before the next try. Keeping the schedule pure
//! — a function of the attempt index alone — preserves the simulator's
//! bit-determinism contract and makes the schedule reusable by future
//! networking / distributed subsystems, where jittered backoff would be
//! layered on top from a seeded stream rather than baked in here.

/// A capped exponential backoff schedule: attempt `k` waits
/// `min(base_cycles << k, cap_cycles)` cycles (saturating, never
/// overflowing).
///
/// # Examples
///
/// ```
/// use amdrel_runtime::BackoffSchedule;
///
/// let b = BackoffSchedule { base_cycles: 100, cap_cycles: 350 };
/// assert_eq!(b.delay(0), 100);
/// assert_eq!(b.delay(1), 200);
/// assert_eq!(b.delay(2), 350); // capped (400 -> 350)
/// assert_eq!(b.delay(63), 350);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackoffSchedule {
    /// Delay of the first retry (attempt 0), cycles.
    pub base_cycles: u64,
    /// Upper bound every delay saturates to.
    pub cap_cycles: u64,
}

impl Default for BackoffSchedule {
    /// 256 cycles doubling up to a 65 536-cycle cap — small next to the
    /// service times of the built-in case studies, so recovery latency
    /// is dominated by re-execution, not waiting.
    fn default() -> Self {
        BackoffSchedule {
            base_cycles: 256,
            cap_cycles: 65_536,
        }
    }
}

impl BackoffSchedule {
    /// The delay before retry number `attempt` (0-based), cycles.
    ///
    /// Doubles per attempt from [`Self::base_cycles`], saturating at
    /// [`Self::cap_cycles`]; immune to shift/multiply overflow at any
    /// `attempt`.
    pub fn delay(&self, attempt: u32) -> u64 {
        if self.base_cycles == 0 {
            return 0;
        }
        let doubled = if attempt >= 64 {
            u64::MAX
        } else {
            self.base_cycles.saturating_mul(1u64 << attempt.min(63))
        };
        doubled.min(self.cap_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_until_the_cap() {
        let b = BackoffSchedule {
            base_cycles: 100,
            cap_cycles: 1_000,
        };
        assert_eq!(b.delay(0), 100);
        assert_eq!(b.delay(1), 200);
        assert_eq!(b.delay(2), 400);
        assert_eq!(b.delay(3), 800);
        assert_eq!(b.delay(4), 1_000, "1600 saturates to the cap");
        assert_eq!(b.delay(5), 1_000);
    }

    #[test]
    fn exact_cap_boundary_is_reachable() {
        // base << 3 == cap exactly: the boundary value itself is legal.
        let b = BackoffSchedule {
            base_cycles: 125,
            cap_cycles: 1_000,
        };
        assert_eq!(b.delay(3), 1_000);
        assert_eq!(b.delay(4), 1_000);
    }

    #[test]
    fn cap_below_base_clamps_the_first_retry() {
        let b = BackoffSchedule {
            base_cycles: 500,
            cap_cycles: 100,
        };
        assert_eq!(b.delay(0), 100);
        assert_eq!(b.delay(40), 100);
    }

    #[test]
    fn zero_base_means_immediate_retries() {
        let b = BackoffSchedule {
            base_cycles: 0,
            cap_cycles: 1_000,
        };
        for a in [0, 1, 63, 64, u32::MAX] {
            assert_eq!(b.delay(a), 0);
        }
    }

    #[test]
    fn zero_cap_means_immediate_retries() {
        let b = BackoffSchedule {
            base_cycles: 256,
            cap_cycles: 0,
        };
        assert_eq!(b.delay(0), 0);
        assert_eq!(b.delay(17), 0);
    }

    #[test]
    fn huge_attempts_never_overflow() {
        let b = BackoffSchedule {
            base_cycles: u64::MAX,
            cap_cycles: u64::MAX,
        };
        assert_eq!(b.delay(0), u64::MAX);
        assert_eq!(b.delay(1), u64::MAX, "saturating_mul, not <<");
        assert_eq!(b.delay(63), u64::MAX);
        assert_eq!(b.delay(64), u64::MAX, "shift amount never reaches 64");
        assert_eq!(b.delay(u32::MAX), u64::MAX);
        let one = BackoffSchedule {
            base_cycles: 1,
            cap_cycles: u64::MAX,
        };
        assert_eq!(one.delay(63), 1u64 << 63);
        assert_eq!(one.delay(64), u64::MAX);
    }

    #[test]
    fn default_schedule_is_sane() {
        let b = BackoffSchedule::default();
        assert_eq!(b.delay(0), 256);
        assert_eq!(b.delay(8), 65_536);
        assert_eq!(b.delay(9), 65_536);
    }
}
