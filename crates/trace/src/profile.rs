//! Opt-in wall-clock self-profiling.
//!
//! A [`Profiler`] accumulates real (host) time per named phase. Wall
//! time is inherently nondeterministic, so this output is quarantined:
//! the CLI prints the `amdrel-profile/v1` block to **stderr**, it never
//! enters a `--json` report, and every byte-identity check excludes it.
//! The cycle-domain trace (`crate::TraceEvent`) is the deterministic
//! twin; this is the "where does simulator wall time go" instrument the
//! sharded-timelines work needs a baseline from.

use amdrel_core::json::{line, Sep};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Accumulated wall-clock cost of one named phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (`explore.strategy`, `sweep.cell`, `sim.run`, …).
    pub name: &'static str,
    /// Times the phase was entered.
    pub calls: u64,
    /// Total wall time spent in the phase, nanoseconds.
    pub wall_ns: u128,
}

/// A thread-safe wall-clock phase accumulator.
///
/// # Examples
///
/// ```
/// use amdrel_trace::Profiler;
///
/// let profiler = Profiler::new();
/// let answer = profiler.time("phase.work", || 6 * 7);
/// assert_eq!(answer, 42);
/// let phases = profiler.phases();
/// assert_eq!((phases[0].name, phases[0].calls), ("phase.work", 1));
/// assert!(profiler.to_json().contains("\"amdrel-profile/v1\""));
/// ```
#[derive(Debug, Default)]
pub struct Profiler {
    phases: Mutex<Vec<PhaseStat>>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Run `f`, charging its wall time to `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    /// Charge an externally measured duration to `name`.
    pub fn record(&self, name: &'static str, elapsed: Duration) {
        let mut phases = self.phases.lock().expect("profiler poisoned");
        match phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.calls += 1;
                p.wall_ns += elapsed.as_nanos();
            }
            None => phases.push(PhaseStat {
                name,
                calls: 1,
                wall_ns: elapsed.as_nanos(),
            }),
        }
    }

    /// Snapshot the per-phase totals, in first-use order.
    pub fn phases(&self) -> Vec<PhaseStat> {
        self.phases.lock().expect("profiler poisoned").clone()
    }

    /// Render the totals as an `amdrel-profile/v1` JSON block. The
    /// values are wall-clock and therefore differ run to run; only the
    /// *shape* is stable.
    pub fn to_json(&self) -> String {
        line(Sep::Tight, |o| {
            o.field("schema", "amdrel-profile/v1");
            o.array("phases", |a| {
                for p in self.phases() {
                    a.elem_object(|phase| {
                        phase.field("name", p.name);
                        phase.field("calls", p.calls);
                        phase.field("wall_ns", p.wall_ns);
                    });
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_in_first_use_order() {
        let profiler = Profiler::new();
        profiler.record("b", Duration::from_nanos(5));
        profiler.record("a", Duration::from_nanos(3));
        profiler.record("b", Duration::from_nanos(2));
        let phases = profiler.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(
            (phases[0].name, phases[0].calls, phases[0].wall_ns),
            ("b", 2, 7)
        );
        assert_eq!((phases[1].name, phases[1].calls), ("a", 1));
    }

    #[test]
    fn json_shape_is_stable() {
        let profiler = Profiler::new();
        profiler.record("x", Duration::from_nanos(1));
        let json = profiler.to_json();
        assert!(json.starts_with("{\"schema\":\"amdrel-profile/v1\",\"phases\":["));
        assert!(json.contains("\"name\":\"x\",\"calls\":1,\"wall_ns\":1"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn json_matches_golden_bytes() {
        let profiler = Profiler::new();
        profiler.record("sim.run", Duration::from_nanos(1_500));
        profiler.record("trace.chrome", Duration::from_nanos(20));
        profiler.record("sim.run", Duration::from_nanos(500));
        assert_eq!(
            profiler.to_json(),
            r#"{"schema":"amdrel-profile/v1","phases":[{"name":"sim.run","calls":2,"wall_ns":2000},{"name":"trace.chrome","calls":1,"wall_ns":20}]}"#
        );
        assert_eq!(
            Profiler::new().to_json(),
            r#"{"schema":"amdrel-profile/v1","phases":[]}"#
        );
    }

    #[test]
    fn time_returns_the_closure_value() {
        let profiler = Profiler::new();
        assert_eq!(profiler.time("t", || "ok"), "ok");
        assert_eq!(profiler.phases()[0].calls, 1);
    }
}
