//! Pluggable scheduling policies and the ordered fabric wait queue.
//!
//! A policy decides which waiting job the FPGA serves next whenever the
//! fabric frees up. Policies are pure functions of job fields and the
//! currently loaded configuration — they consume no randomness, so a
//! seeded workload replays bit-for-bit under any policy. The engine keeps
//! the waiting jobs in a [`DispatchQueue`] ordered by the policy's key,
//! so a dispatch costs O(log n) in the queue depth, not a scan.

use crate::profile::ConfigId;
use crate::workload::Job;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Orders the jobs waiting for the fabric.
///
/// The fabric serves the waiting job with the smallest key
/// `(not_loaded, rank, id, enqueue order)`:
///
/// * `not_loaded` is `false` only for a policy that
///   [`prefers_loaded`](SchedulePolicy::prefers_loaded) and a job whose
///   configuration is resident on the fabric (always `true` before the
///   first load);
/// * [`rank`](SchedulePolicy::rank) is a static function of the job,
///   computed once when it joins the queue;
/// * the arrival sequence number [`Job::id`] breaks rank ties, and jobs
///   with equal `(rank, id)` — possible only in hand-built job slices —
///   leave in the order they joined.
///
/// The key is total, so every dispatch decision, and with it every
/// report, is deterministic.
pub trait SchedulePolicy: std::fmt::Debug + Sync {
    /// Short lowercase identifier (CLI value, report key).
    fn name(&self) -> &'static str;
    /// The job's static rank; smaller is served first.
    fn rank(&self, job: &Job) -> u64;
    /// Serve jobs whose configuration is already loaded before any other
    /// (default `false`).
    fn prefers_loaded(&self) -> bool {
        false
    }
}

/// First-come first-served: strict arrival order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl SchedulePolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn rank(&self, _job: &Job) -> u64 {
        0
    }
}

/// Shortest job first: smallest total service demand, arrival order on
/// ties. Classic mean/percentile latency winner under mixed job sizes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestJobFirst;

impl SchedulePolicy for ShortestJobFirst {
    fn name(&self) -> &'static str {
        "sjf"
    }

    fn rank(&self, job: &Job) -> u64 {
        job.service_cycles()
    }
}

/// Highest priority first (larger `priority` is more urgent), arrival
/// order within a priority class.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityFirst;

impl SchedulePolicy for PriorityFirst {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn rank(&self, job: &Job) -> u64 {
        u64::from(u8::MAX - job.priority)
    }
}

/// Configuration affinity: among the waiting jobs, prefer one whose
/// configuration is already loaded (saving a reconfiguration), falling
/// back to arrival order. A simple stall-aware refinement of FCFS.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConfigAffinity;

impl SchedulePolicy for ConfigAffinity {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn rank(&self, _job: &Job) -> u64 {
        0
    }

    fn prefers_loaded(&self) -> bool {
        true
    }
}

/// Look up a built-in policy by its [`SchedulePolicy::name`].
pub fn policy_by_name(name: &str) -> Option<Box<dyn SchedulePolicy>> {
    match name {
        "fcfs" => Some(Box::new(Fcfs)),
        "sjf" => Some(Box::new(ShortestJobFirst)),
        "priority" => Some(Box::new(PriorityFirst)),
        "affinity" => Some(Box::new(ConfigAffinity)),
        _ => None,
    }
}

/// Where a queued job waits, so a deadline event can reap it in O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ticket {
    /// Position `index` of lane `lane`'s sorted run, counting every
    /// entry the run ever held (positions are never reused).
    Run { lane: u32, index: u64 },
    /// Slab slot `slot` while it holds enqueue number `seq` (slots are
    /// reused, sequence numbers are not).
    Slab { slot: u32, seq: u64 },
}

/// The dispatch order of a waiting job: `(rank, id, enqueue order)`.
/// The enqueue order is the low 32 bits of the enqueue sequence number;
/// it only ranks jobs with equal `(rank, id)`, and is exact unless two
/// of them join 2^32 enqueues apart.
type Key = (u64, u64, u32);

/// Set in the enqueue number of a job that left the queue (dispatched
/// or reaped). The low bits, and with them the key, stay intact.
const GONE: u64 = 1 << 63;

/// A waiting job with its rank and enqueue number.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    rank: u64,
    seq: u64,
    job: Job,
}

impl Waiting {
    fn key(&self) -> Key {
        (self.rank, self.job.id, self.seq as u32)
    }

    fn is_live(&self) -> bool {
        self.seq & GONE == 0
    }
}

/// A heap entry naming a slab slot: 24 bytes, so a sift moves a third
/// of what a whole [`Job`] would. `tie` holds the low 32 bits of the
/// enqueue sequence number above the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    rank: u64,
    id: u64,
    tie: u64,
}

impl Entry {
    fn key(&self) -> Key {
        (self.rank, self.id, (self.tie >> 32) as u32)
    }

    fn slot(&self) -> u32 {
        self.tie as u32
    }
}

/// Jobs that arrived out of key order, in slots reused through a free
/// list.
#[derive(Debug, Default)]
struct Slab {
    slots: Vec<Waiting>,
    free: Vec<u32>,
}

/// A min-queue of waiting jobs. A job whose key is larger than the last
/// one appended joins the sorted `run` in O(1); any other job goes to the
/// slab, and a 24-byte entry naming its slot goes to the binary `heap` in
/// O(log n). The smaller of the two fronts leaves first. A first-come
/// first-served stream (ids rise with arrival) never touches the heap.
/// Reaped jobs stay in place as tombstones until they reach the front.
#[derive(Debug, Default)]
struct Lane {
    run: VecDeque<Waiting>,
    /// Entries dropped off the run's front so far: run position `p`
    /// holds [`Ticket::Run`] index `popped + p`.
    popped: u64,
    heap: BinaryHeap<Reverse<Entry>>,
}

impl Lane {
    fn push(&mut self, lane: u32, waiting: Waiting, slab: &mut Slab) -> Ticket {
        if self
            .run
            .back()
            .is_none_or(|last| last.key() < waiting.key())
        {
            self.run.push_back(waiting);
            let index = self.popped + self.run.len() as u64 - 1;
            return Ticket::Run { lane, index };
        }
        self.push_out_of_order(waiting, slab)
    }

    // Out of line, like `next_lane`, so the in-order path stays small
    // enough to inline into the engine: inlined, these cost the shallow
    // 90%-load FCFS queue of perfbench `simulate_nominal` about 6% of
    // its throughput.
    #[inline(never)]
    fn push_out_of_order(&mut self, waiting: Waiting, slab: &mut Slab) -> Ticket {
        let slot = match slab.free.pop() {
            Some(slot) => {
                slab.slots[slot as usize] = waiting;
                slot
            }
            None => {
                slab.slots.push(waiting);
                u32::try_from(slab.slots.len() - 1).expect("fewer than 2^32 queued jobs")
            }
        };
        self.heap.push(Reverse(Entry {
            rank: waiting.rank,
            id: waiting.job.id,
            tie: (waiting.seq << 32) | u64::from(slot),
        }));
        Ticket::Slab {
            slot,
            seq: waiting.seq,
        }
    }

    /// Whether the smaller front is the run's (`None` when empty).
    fn run_first(&self) -> Option<bool> {
        match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(Reverse(heap))) => Some(run.key() < heap.key()),
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (None, None) => None,
        }
    }

    /// Drop tombstones off the front and return the first live key.
    fn front(&mut self, slab: &mut Slab) -> Option<Key> {
        loop {
            if self.run_first()? {
                let waiting = self.run[0];
                if waiting.is_live() {
                    return Some(waiting.key());
                }
                self.run.pop_front();
                self.popped += 1;
            } else {
                let Reverse(entry) = *self.heap.peek()?;
                if slab.slots[entry.slot() as usize].is_live() {
                    return Some(entry.key());
                }
                self.heap.pop();
                slab.free.push(entry.slot());
            }
        }
    }

    /// Remove the first live job, dropping tombstones on the way.
    fn pop(&mut self, slab: &mut Slab) -> Option<Job> {
        loop {
            if self.run_first()? {
                let waiting = self.run.pop_front()?;
                self.popped += 1;
                if waiting.is_live() {
                    return Some(waiting.job);
                }
            } else {
                let Reverse(entry) = self.heap.pop()?;
                slab.free.push(entry.slot());
                let waiting = &mut slab.slots[entry.slot() as usize];
                if waiting.is_live() {
                    waiting.seq |= GONE;
                    return Some(waiting.job);
                }
            }
        }
    }
}

#[derive(Debug)]
enum Order {
    /// One lane holds every waiting job.
    Global(Lane),
    /// For a policy that prefers the loaded configuration: one lane per
    /// configuration, in first-seen order. Every job is in exactly one.
    ByConfig(Vec<(ConfigId, Lane)>),
}

/// The fabric wait queue, ordered by the policy's key (see
/// [`SchedulePolicy`]).
///
/// Push and pop cost O(log n) at most, and O(1) for jobs that arrive in
/// key order; a policy that prefers the loaded configuration adds
/// O(#configurations) per operation to find the lane and, when the
/// loaded lane is empty, to compare the lane fronts. Reaping a queued
/// job is O(1): it leaves a tombstone that the pop reaching it skips.
#[derive(Debug)]
pub(crate) struct DispatchQueue<'a> {
    policy: &'a dyn SchedulePolicy,
    order: Order,
    slab: Slab,
    next_seq: u64,
    live: usize,
    peak: usize,
}

impl<'a> DispatchQueue<'a> {
    pub(crate) fn new(policy: &'a dyn SchedulePolicy) -> Self {
        let order = if policy.prefers_loaded() {
            Order::ByConfig(Vec::new())
        } else {
            Order::Global(Lane::default())
        };
        DispatchQueue {
            policy,
            order,
            slab: Slab::default(),
            next_seq: 0,
            live: 0,
            peak: 0,
        }
    }

    /// Jobs waiting (reaped ones excluded).
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The most jobs that ever waited at once.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Enqueue `job` and return the ticket [`DispatchQueue::reap`] takes.
    pub(crate) fn push(&mut self, job: Job) -> Ticket {
        let waiting = Waiting {
            rank: self.policy.rank(&job),
            seq: self.next_seq,
            job,
        };
        self.next_seq += 1;
        self.live += 1;
        self.peak = self.peak.max(self.live);
        match &mut self.order {
            Order::Global(lane) => lane.push(0, waiting, &mut self.slab),
            Order::ByConfig(lanes) => {
                let b = lane_of(lanes, job.config);
                lanes[b].1.push(b as u32, waiting, &mut self.slab)
            }
        }
    }

    /// Dequeue the job the policy serves next, given the configuration
    /// resident on the fabric.
    pub(crate) fn pop(&mut self, loaded: Option<ConfigId>) -> Option<Job> {
        if self.live == 0 {
            return None;
        }
        let slab = &mut self.slab;
        let lane = match &mut self.order {
            Order::Global(lane) => lane,
            Order::ByConfig(lanes) => next_lane(lanes, loaded, slab),
        };
        let job = lane.pop(slab).expect("a live job is queued");
        self.live -= 1;
        Some(job)
    }

    /// Remove the job `ticket` names if it is still queued, in O(1).
    /// Returns `None` when it already left (dispatched or reaped).
    pub(crate) fn reap(&mut self, ticket: Ticket) -> Option<Job> {
        let waiting = match ticket {
            Ticket::Run { lane, index } => {
                let lane = match &mut self.order {
                    Order::Global(lane) => lane,
                    Order::ByConfig(lanes) => &mut lanes[lane as usize].1,
                };
                let position = index.checked_sub(lane.popped)?;
                lane.run.get_mut(position as usize)?
            }
            Ticket::Slab { slot, seq } => {
                let waiting = &mut self.slab.slots[slot as usize];
                if waiting.seq != seq {
                    // Dispatched or reaped (`GONE` is set), or the slot
                    // went to a later job.
                    return None;
                }
                waiting
            }
        };
        if !waiting.is_live() {
            return None;
        }
        waiting.seq |= GONE;
        self.live -= 1;
        Some(waiting.job)
    }
}

/// The index of `config`'s lane, opened on first sight.
fn lane_of(lanes: &mut Vec<(ConfigId, Lane)>, config: ConfigId) -> usize {
    match lanes.iter().position(|(c, _)| *c == config) {
        Some(b) => b,
        None => {
            lanes.push((config, Lane::default()));
            lanes.len() - 1
        }
    }
}

/// The lane holding the next job of a policy that prefers the loaded
/// configuration: the loaded configuration's lane if it has a live job,
/// else the lane with the smallest live front. Some lane must have one.
#[inline(never)]
fn next_lane<'l>(
    lanes: &'l mut [(ConfigId, Lane)],
    loaded: Option<ConfigId>,
    slab: &mut Slab,
) -> &'l mut Lane {
    let mut best = loaded
        .and_then(|loaded| lanes.iter().position(|(c, _)| *c == loaded))
        .filter(|&b| lanes[b].1.front(slab).is_some());
    if best.is_none() {
        let mut best_front = None;
        for (b, (_, lane)) in lanes.iter_mut().enumerate() {
            let front = lane.front(slab);
            if front.is_some() && (best_front.is_none() || front < best_front) {
                (best, best_front) = (Some(b), front);
            }
        }
    }
    &mut lanes[best.expect("a live job is queued")].1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, priority: u8, fine: u64, config: u64) -> Job {
        Job {
            id,
            app: 0,
            arrival: id,
            priority,
            fine_cycles: fine,
            coarse_cycles: 0,
            config: ConfigId(config),
        }
    }

    /// Push `jobs` in order, then pop everything with `loaded` resident;
    /// returns the dispatched ids.
    fn drain(policy: &dyn SchedulePolicy, jobs: &[Job], loaded: Option<u64>) -> Vec<u64> {
        let mut q = DispatchQueue::new(policy);
        for &j in jobs {
            q.push(j);
        }
        std::iter::from_fn(|| q.pop(loaded.map(ConfigId)))
            .map(|j| j.id)
            .collect()
    }

    #[test]
    fn fcfs_takes_lowest_sequence() {
        let q = [job(5, 0, 10, 1), job(2, 9, 99, 2), job(7, 0, 1, 3)];
        assert_eq!(drain(&Fcfs, &q, None), [2, 5, 7]);
    }

    #[test]
    fn sjf_takes_shortest_then_sequence() {
        let q = [job(1, 0, 50, 1), job(2, 0, 10, 2), job(3, 0, 10, 3)];
        assert_eq!(drain(&ShortestJobFirst, &q, None), [2, 3, 1]);
    }

    #[test]
    fn priority_takes_most_urgent() {
        let q = [job(1, 1, 50, 1), job(2, 3, 99, 2), job(3, 3, 1, 3)];
        assert_eq!(
            drain(&PriorityFirst, &q, None),
            [2, 3, 1],
            "ties broken by arrival"
        );
    }

    #[test]
    fn affinity_prefers_loaded_config() {
        let q = [job(1, 0, 50, 1), job(2, 0, 10, 2)];
        assert_eq!(drain(&ConfigAffinity, &q, Some(2)), [2, 1]);
        assert_eq!(
            drain(&ConfigAffinity, &q, Some(9)),
            [1, 2],
            "no match → FCFS"
        );
        assert_eq!(drain(&ConfigAffinity, &q, None), [1, 2]);
    }

    #[test]
    fn affinity_falls_back_to_global_id_order_once_the_loaded_bucket_empties() {
        let q = [
            job(4, 0, 1, 1),
            job(1, 0, 1, 2),
            job(3, 0, 1, 1),
            job(2, 0, 1, 3),
            job(0, 0, 1, 2),
        ];
        // Config 1's jobs first, then ids across the other buckets.
        assert_eq!(drain(&ConfigAffinity, &q, Some(1)), [3, 4, 0, 1, 2]);
    }

    #[test]
    fn equal_rank_and_id_dispatch_in_enqueue_order() {
        // Distinct fine cycles tell the duplicates apart.
        let dups = [job(7, 0, 30, 1), job(7, 0, 10, 1), job(7, 0, 20, 1)];
        for policy in [
            &Fcfs as &dyn SchedulePolicy,
            &PriorityFirst,
            &ConfigAffinity,
        ] {
            let mut q = DispatchQueue::new(policy);
            // Job 100 ends the sorted run, so smaller ids go to the slab.
            // Occupy and free three slots first: the duplicates then take
            // reused slots in the reverse of their enqueue order.
            q.push(job(100, 0, 1, 1));
            for id in 50..53 {
                q.push(job(id, 0, 1, 1));
            }
            for _ in 0..3 {
                q.pop(None);
            }
            for &j in &dups {
                assert!(matches!(q.push(j), Ticket::Slab { .. }));
            }
            let order: Vec<u64> = std::iter::from_fn(|| q.pop(Some(ConfigId(1))))
                .map(|j| j.fine_cycles)
                .collect();
            assert_eq!(order, [30, 10, 20, 1], "policy {}", policy.name());
        }
    }

    #[test]
    fn reaping_removes_a_queued_job_and_ignores_a_dispatched_one() {
        // In-order arrivals: every job waits in a lane's sorted run.
        for policy in [&Fcfs as &dyn SchedulePolicy, &ConfigAffinity] {
            let mut q = DispatchQueue::new(policy);
            let first = q.push(job(0, 0, 1, 1));
            let second = q.push(job(1, 0, 1, 2));
            let third = q.push(job(2, 0, 1, 1));
            assert!(matches!(first, Ticket::Run { .. }));
            assert_eq!(q.pop(None).map(|j| j.id), Some(0));
            assert_eq!(q.reap(first), None, "dispatched: a no-op");
            assert_eq!(q.len(), 2);
            assert_eq!(q.reap(second).map(|j| j.id), Some(1));
            assert_eq!(q.reap(second), None, "reaped once");
            assert_eq!(q.len(), 1);
            q.push(job(3, 0, 1, 1));
            let rest: Vec<u64> = std::iter::from_fn(|| q.pop(None)).map(|j| j.id).collect();
            assert_eq!(rest, [2, 3], "the tombstone is skipped");
            assert_eq!(q.reap(third), None);
            assert_eq!(q.len(), 0);
            assert_eq!(q.peak(), 3);
        }
    }

    #[test]
    fn reaping_a_slab_job_survives_slot_reuse() {
        // Falling service demands: all but the first job go to the slab.
        let mut q = DispatchQueue::new(&ShortestJobFirst);
        let long = q.push(job(0, 0, 30, 1));
        let mid = q.push(job(1, 0, 20, 1));
        let short = q.push(job(2, 0, 10, 1));
        assert!(matches!(long, Ticket::Run { .. }));
        assert!(matches!(short, Ticket::Slab { .. }));
        assert_eq!(q.pop(None).map(|j| j.id), Some(2));
        assert_eq!(q.reap(short), None, "dispatched: a no-op");
        // The freed slot goes to a new job; the stale ticket must not
        // reach it.
        let shorter = q.push(job(3, 0, 5, 1));
        let (Ticket::Slab { slot: reused, .. }, Ticket::Slab { slot, .. }) = (shorter, short)
        else {
            panic!("both wait in the slab");
        };
        assert_eq!(reused, slot);
        assert_eq!(q.reap(short), None, "the slot belongs to a new job");
        assert_eq!(q.reap(mid).map(|j| j.id), Some(1));
        assert_eq!(q.reap(mid), None, "reaped once");
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop(None)).map(|j| j.id).collect();
        assert_eq!(rest, [3, 0], "the tombstone is skipped");
        assert_eq!(q.reap(shorter), None);
        assert_eq!(q.reap(long), None);
        assert_eq!(q.len(), 0);
        assert_eq!(q.peak(), 3);
    }

    #[test]
    fn lookup_by_name() {
        for name in ["fcfs", "sjf", "priority", "affinity"] {
            assert_eq!(policy_by_name(name).unwrap().name(), name);
        }
        assert!(policy_by_name("psychic").is_none());
    }
}
