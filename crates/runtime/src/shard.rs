//! Sharded parallel timelines with a deterministic merge.
//!
//! [`Simulation::shards`] partitions the tenant set across `k`
//! independent shards — application `i` lives on shard
//! [`shard_of(i, k)`](shard_of) — and runs one full platform replica
//! per shard on a scoped thread. Each shard owns a private calendar
//! queue, fabric/CGC/region state and trace log, and simulates exactly
//! the subsequence of the global job stream that targets its
//! applications, with global job ids and arrival times preserved.
//!
//! # Why this is bit-deterministic
//!
//! Three properties of the single-threaded engine make the parallel run
//! mergeable without any cross-thread coordination:
//!
//! * **Disjoint event timelines.** A shard's events are totally ordered
//!   by its own `(time, seq)` keys and never reference another shard's
//!   state, so each replica replays bit-for-bit regardless of what the
//!   other threads are doing.
//! * **Forked fault streams.** [`FaultSpec`](crate::FaultSpec) draws
//!   are pure O(1) functions of `(seed, channel, job id, attempt)` —
//!   there is no shared stream cursor to race on. Because shards see
//!   the global job ids, a job's fault fate is identical under any
//!   shard count.
//! * **Exact sketch merges.** [`LatencySketch`](crate::LatencySketch)
//!   merges are pure functions of the recorded *multiset* (exact
//!   samples concatenate, histogram buckets add), so the folded
//!   percentiles never depend on shard count or fold order. The
//!   [`LatencySource`] is resolved from the *global* job count before
//!   partitioning and forced onto every shard, keeping
//!   `latency_source` shard-count-invariant.
//!
//! The merge itself runs on the calling thread after joining the shard
//! threads **in shard order**: ledgers fold via
//! `Ledger::merge` (counters add, makespan maxes, sketches merge),
//! calendar statistics fold element-wise, and per-shard event logs are
//! replayed into the caller's [`TraceSink`] in shard order — every
//! event keeps its shard-local emission position, the sink restamps the
//! global sequence, and all exporters canonicalise by `(time, seq)`.
//! The result is a pure function of the inputs, independent of `k`'s
//! thread scheduling.
//!
//! `k == 1` never enters this module (the builder routes it through the
//! single-threaded engine untouched), and a workload whose jobs all
//! target one application leaves every shard but one silent — so both
//! degenerate cases are *byte*-identical to the unsharded oracle,
//! report, JSON and trace included.

use crate::calendar::CalendarStats;
use crate::report::RuntimeReport;
use crate::sim::{Engine, Ledger, Simulation};
use crate::sketch::LatencySource;
use crate::workload::Job;
use amdrel_trace::{TraceBuffer, TraceSink};

/// The shard partition function: application `app` lives on shard
/// `app % shards`. Deterministic, total, and independent of the job
/// stream — the same function the sharded benches use to pre-partition
/// work for serial per-shard timing.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_of(app: usize, shards: usize) -> usize {
    assert!(shards > 0, "a simulation needs at least one shard");
    app % shards
}

/// Run `sim` over the time-sorted `jobs` stream with `sim.shards`
/// parallel shards and merge the results deterministically. Callers
/// (the [`Simulation`] dispatch) resolve `source` from the global job
/// count first, so every shard records into the same sketch
/// representation.
pub(crate) fn run_sharded<I: Iterator<Item = Job>>(
    sim: &Simulation<'_>,
    jobs: I,
    source: LatencySource,
) -> RuntimeReport {
    let k = sim.shards;
    debug_assert!(k > 1, "the single-shard path stays on the plain engine");
    // Partition the globally time-sorted stream. Each shard's
    // subsequence keeps its relative order (so per-shard arrivals stay
    // non-decreasing) and every job keeps its global id and arrival —
    // the fault stream and the policies see exactly what the unsharded
    // engine would.
    let mut parts: Vec<Vec<Job>> = vec![Vec::new(); k];
    for job in jobs {
        parts[shard_of(job.app, k)].push(job);
    }
    let tracing = sim.trace.is_some();
    let buffers: Vec<TraceBuffer> = (0..k).map(|_| TraceBuffer::new()).collect();
    let mut folds: Vec<(Ledger, CalendarStats)> = Vec::with_capacity(k);
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .zip(&buffers)
            .map(|(shard_jobs, buffer)| {
                let mut shard_sim = *sim;
                shard_sim.shards = 1;
                shard_sim.trace = tracing.then_some(buffer as &dyn TraceSink);
                scope
                    .spawn(move || Engine::new(&shard_sim, source).run_core(shard_jobs.into_iter()))
            })
            .collect();
        // Join strictly in shard order: whichever thread finishes
        // first, the fold below always consumes shard 0, then 1, … so
        // the merged report cannot depend on the scheduler.
        for handle in handles {
            folds.push(handle.join().expect("shard thread panicked"));
        }
    });

    let mut folds = folds.into_iter();
    let (mut ledger, mut queue) = folds.next().expect("at least one shard ran");
    for (shard_ledger, shard_queue) in folds {
        ledger.merge(shard_ledger);
        // Event and rehash counts add across the disjoint calendars;
        // peak occupancy is the worst single shard. The day width is a
        // pure function of the profiles, which every replica shares.
        queue.events += shard_queue.events;
        queue.rehashes += shard_queue.rehashes;
        queue.peak_occupancy = queue.peak_occupancy.max(shard_queue.peak_occupancy);
        debug_assert_eq!(
            queue.day_width, shard_queue.day_width,
            "replicas share one profile-derived day width"
        );
    }

    if let Some(sink) = sim.trace {
        // Replay the per-shard event logs into the caller's sink in
        // shard order. The sink restamps the global sequence numbers;
        // exporters canonicalise by (time, seq), so the rendered trace
        // is a pure function of the per-shard logs and the shard order.
        for buffer in &buffers {
            for event in buffer.take() {
                sink.record(event);
            }
        }
    }

    let mut report = ledger.into_report(
        sim.profiles,
        sim.policy.name(),
        sim.config,
        sim.platform.datapath.cgcs.len(),
        sim.faults,
        sim.recovery,
    );
    report.queue = queue;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Fcfs;
    use crate::profile::AppProfile;
    use crate::workload::WorkloadSpec;
    use amdrel_core::Platform;

    fn profiles() -> Vec<AppProfile> {
        vec![
            AppProfile::synthetic("interactive", 2, 5_000, 1_500, vec![400, 300]),
            AppProfile::synthetic("batch", 0, 40_000, 9_000, vec![900]),
            AppProfile::synthetic("stream", 1, 12_000, 4_000, vec![600, 200, 200]),
        ]
    }

    #[test]
    fn shard_of_is_the_documented_modulus() {
        assert_eq!(shard_of(0, 3), 0);
        assert_eq!(shard_of(1, 3), 1);
        assert_eq!(shard_of(5, 3), 2);
        assert_eq!(shard_of(7, 1), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        shard_of(0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shard_builder_panics() {
        let platform = Platform::paper(1500, 2);
        let _ = Simulation::new(&platform).shards(0);
    }

    #[test]
    fn sharded_counters_match_the_unsharded_oracle() {
        let profiles = profiles();
        let platform = Platform::paper(1500, 2);
        let spec = WorkloadSpec::uniform(42, 240, &profiles, 120);
        let jobs = spec.generate(&profiles);
        let base = Simulation::new(&platform).profiles(&profiles).policy(&Fcfs);
        let oracle = base.run(&jobs);
        for k in [2, 3, 8] {
            let sharded = base.shards(k).run(&jobs);
            assert_eq!(sharded.arrived(), oracle.arrived(), "k={k}");
            assert_eq!(sharded.completed(), oracle.completed(), "k={k}");
            assert_eq!(sharded.rejected(), oracle.rejected(), "k={k}");
            assert_eq!(sharded.latency_source, oracle.latency_source, "k={k}");
            assert_eq!(
                sharded.fpga_busy_cycles + sharded.cgc_busy_cycles,
                oracle.fpga_busy_cycles + oracle.cgc_busy_cycles,
                "work conservation across replicas, k={k}"
            );
        }
    }

    #[test]
    fn one_shard_is_bit_identical_to_the_plain_engine() {
        let profiles = profiles();
        let platform = Platform::paper(1500, 2);
        let spec = WorkloadSpec::uniform(7, 180, &profiles, 120);
        let jobs = spec.generate(&profiles);
        let base = Simulation::new(&platform).profiles(&profiles).policy(&Fcfs);
        assert_eq!(base.run(&jobs), base.shards(1).run(&jobs));
    }
}
