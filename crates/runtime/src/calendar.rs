//! The calendar-queue event scheduler.
//!
//! A classic binary heap prices every operation at O(log n). A calendar
//! queue (Brown 1988) — the event-structure of choice for discrete-event
//! simulators — hashes each event by time into a ring of day buckets and
//! pops by walking the ring, which is O(1) amortised when events are
//! reasonably spread. This implementation adds a timing-wheel-style
//! occupancy bitmap so the walk skips empty days in one `u64` scan per
//! word instead of bucket by bucket, keeping pops cheap even when the
//! next event is many empty days ahead (reconfiguration lulls, sparse
//! arrival tails).
//!
//! Ordering is **total and deterministic**: events are keyed by
//! `(time, seq)` exactly like the retained heap oracle, and the pop
//! always selects the minimum key, so insertion order and bucket layout
//! never influence the processing order — the property the differential
//! tests in `sim.rs` pin down.

/// One scheduled event: `(time, seq)` key plus payload.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

/// Observable internals of the calendar queue — a
/// [`RuntimeReport`](crate::RuntimeReport)'s `queue` field, rendered as
/// the `"queue"` object of the `--json` report.
///
/// All fields derive purely from the deterministic event stream, so
/// two runs of one scenario snapshot identical stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CalendarStats {
    /// Events scheduled over the queue's lifetime (grow-time rehashing
    /// does not recount them).
    pub events: u64,
    /// Ring-doubling rehashes performed.
    pub rehashes: u64,
    /// Peak simultaneous occupancy.
    pub peak_occupancy: u64,
    /// Day width in cycles (a power of two derived from the width hint).
    pub day_width: u64,
}

/// A calendar queue over payloads `T`, totally ordered by `(time, seq)`.
///
/// Days are `width` cycles wide; the ring holds `buckets.len()` days and
/// wraps (an event `k` full rotations ahead shares a bucket with the
/// current rotation and is filtered by its absolute time). The queue
/// grows its ring when occupancy exceeds four events per bucket, keeping
/// bucket scans O(1).
#[derive(Debug)]
pub(crate) struct CalendarQueue<T> {
    buckets: Vec<Vec<Entry<T>>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: Vec<u64>,
    /// Day width in cycles (a power of two, so day math is shifts).
    width_shift: u32,
    /// Ring mask (`buckets.len() - 1`; the length is a power of two).
    mask: u64,
    /// The day of the most recent pop: pops are monotone in time, so the
    /// ring walk starts here.
    current_day: u64,
    len: usize,
    /// Lifetime push count (external pushes only; see [`CalendarStats`]).
    events: u64,
    /// Ring-doubling count.
    rehashes: u64,
    /// Peak `len` observed.
    peak: usize,
}

impl<T: Copy> CalendarQueue<T> {
    /// An empty queue whose day width is sized from `width_hint` (the
    /// expected spacing between events, e.g. the mean service time).
    pub(crate) fn new(width_hint: u64) -> Self {
        // Round the hint up to a power of two so day math is a shift;
        // clamp so `time >> width_shift` always stays meaningful.
        let width_shift = (64 - width_hint.max(1).saturating_sub(1).leading_zeros()).min(40);
        let nbuckets = 64usize;
        CalendarQueue {
            buckets: vec![Vec::new(); nbuckets],
            occupied: vec![0; nbuckets.div_ceil(64)],
            width_shift,
            mask: (nbuckets - 1) as u64,
            current_day: 0,
            len: 0,
            events: 0,
            rehashes: 0,
            peak: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Snapshot the lifetime counters.
    pub(crate) fn stats(&self) -> CalendarStats {
        CalendarStats {
            events: self.events,
            rehashes: self.rehashes,
            peak_occupancy: self.peak as u64,
            day_width: 1u64 << self.width_shift,
        }
    }

    fn day_of(&self, time: u64) -> u64 {
        time >> self.width_shift
    }

    fn bucket_of(&self, day: u64) -> usize {
        (day & self.mask) as usize
    }

    /// Schedule `item` at `time` with tie-breaker `seq`.
    pub(crate) fn push(&mut self, time: u64, seq: u64, item: T) {
        if self.len == self.buckets.len() * 4 {
            self.grow();
        }
        let b = self.bucket_of(self.day_of(time));
        self.buckets[b].push(Entry { time, seq, item });
        self.occupied[b / 64] |= 1 << (b % 64);
        self.len += 1;
        self.events += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Double the ring and rehash every event (amortised O(1) per push).
    fn grow(&mut self) {
        let nbuckets = self.buckets.len() * 2;
        let mut grown = CalendarQueue {
            buckets: vec![Vec::new(); nbuckets],
            occupied: vec![0; nbuckets.div_ceil(64)],
            width_shift: self.width_shift,
            mask: (nbuckets - 1) as u64,
            current_day: self.current_day,
            len: 0,
            events: 0,
            rehashes: 0,
            peak: 0,
        };
        for bucket in &self.buckets {
            for e in bucket {
                grown.push(e.time, e.seq, e.item);
            }
        }
        // Rehashing moves events; it does not re-schedule them. Carry the
        // lifetime counters over instead of the re-push tallies.
        grown.events = self.events;
        grown.rehashes = self.rehashes + 1;
        grown.peak = self.peak;
        *self = grown;
    }

    /// The minimum `(time, seq)` key, or `None` when empty.
    pub(crate) fn peek_key(&self) -> Option<(u64, u64)> {
        self.find_min().map(|(b, i)| {
            let e = &self.buckets[b][i];
            (e.time, e.seq)
        })
    }

    /// Remove and return the minimum-key event.
    pub(crate) fn pop(&mut self) -> Option<(u64, u64, T)> {
        let (b, i) = self.find_min()?;
        let e = self.buckets[b].swap_remove(i);
        if self.buckets[b].is_empty() {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.len -= 1;
        debug_assert!(self.day_of(e.time) >= self.current_day);
        self.current_day = self.day_of(e.time);
        Some((e.time, e.seq, e.item))
    }

    /// Locate the minimum-key event: walk occupied buckets in ring order
    /// from the current day; the first day that owns an event in the
    /// current rotation holds the minimum. If a full rotation turns up
    /// only future-rotation events, fall back to a direct min scan over
    /// the (≤ len) occupied buckets and jump the cursor to it.
    fn find_min(&self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let nbuckets = self.buckets.len();
        let start = self.bucket_of(self.current_day);
        // One rotation from the cursor, in two linear segments: ring
        // offsets 0..nbuckets-start live in buckets start.., offsets
        // nbuckets-start.. wrap into buckets 0..start. Each occupied
        // bucket is visited at most once via the bitmap.
        let mut b = start;
        while let Some(nb) = self.next_occupied_linear(b) {
            let day = self.current_day + (nb - start) as u64;
            if let Some(i) = self.min_in_bucket(nb, Some(day)) {
                return Some((nb, i));
            }
            b = nb + 1;
        }
        let mut b = 0;
        while b < start {
            let Some(nb) = self.next_occupied_linear(b) else {
                break;
            };
            if nb >= start {
                break;
            }
            let day = self.current_day + (nbuckets - start + nb) as u64;
            if let Some(i) = self.min_in_bucket(nb, Some(day)) {
                return Some((nb, i));
            }
            b = nb + 1;
        }
        // Sparse case: every event lies at least one full rotation out.
        // Direct search over occupied buckets (≤ len of them) and jump.
        let mut best: Option<(u64, u64, usize, usize)> = None;
        let mut b = 0;
        while let Some(next) = self.next_occupied_linear(b) {
            if let Some(i) = self.min_in_bucket(next, None) {
                let e = &self.buckets[next][i];
                if best.is_none_or(|(t, s, _, _)| (e.time, e.seq) < (t, s)) {
                    best = Some((e.time, e.seq, next, i));
                }
            }
            b = next + 1;
            if b >= self.buckets.len() {
                break;
            }
        }
        best.map(|(_, _, bucket, idx)| (bucket, idx))
    }

    /// Index of the minimum `(time, seq)` entry in `bucket`, optionally
    /// restricted to events of exactly `day` (the current-rotation
    /// filter).
    fn min_in_bucket(&self, bucket: usize, day: Option<u64>) -> Option<usize> {
        let mut best: Option<(u64, u64, usize)> = None;
        for (i, e) in self.buckets[bucket].iter().enumerate() {
            if let Some(d) = day {
                if self.day_of(e.time) != d {
                    continue;
                }
            }
            if best.is_none_or(|(t, s, _)| (e.time, e.seq) < (t, s)) {
                best = Some((e.time, e.seq, i));
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// First occupied bucket at index ≥ `from`, without wrapping.
    fn next_occupied_linear(&self, from: usize) -> Option<usize> {
        if from >= self.buckets.len() {
            return None;
        }
        let (mut word, bit) = (from / 64, from % 64);
        let mut bits = self.occupied[word] & (!0u64 << bit);
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= self.occupied.len() {
                return None;
            }
            bits = self.occupied[word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain the queue, asserting the pop order is exactly the sorted
    /// `(time, seq)` order.
    fn drain_sorted(q: &mut CalendarQueue<u32>, mut expect: Vec<(u64, u64)>) {
        expect.sort_unstable();
        let mut popped = Vec::new();
        while let Some((t, s, _)) = q.pop() {
            popped.push((t, s));
        }
        assert_eq!(popped, expect);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pops_in_total_key_order() {
        let mut q = CalendarQueue::new(10);
        let keys = [
            (50u64, 0u64),
            (10, 1),
            (10, 0),
            (1_000_000, 2),
            (0, 3),
            (50, 4),
        ];
        for &(t, s) in &keys {
            q.push(t, s, 0);
        }
        assert_eq!(q.peek_key(), Some((0, 3)));
        drain_sorted(&mut q, keys.to_vec());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = CalendarQueue::new(100);
        q.push(5, 0, 0);
        q.push(700, 1, 0);
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((5, 0)));
        // Push an event earlier than the pending one but after the
        // popped one (the simulator only schedules at or after `now`).
        q.push(6, 2, 0);
        q.push(1 << 40, 3, 0);
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((6, 2)));
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((700, 1)));
        assert_eq!(q.peek_key(), Some((1 << 40, 3)));
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((1 << 40, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn growth_rehashes_and_preserves_order() {
        let mut q = CalendarQueue::new(1);
        let mut keys = Vec::new();
        // 4 × 64 initial capacity threshold → several growth rounds.
        for s in 0..2_000u64 {
            let t = (s * 7919) % 50_021;
            q.push(t, s, 0);
            keys.push((t, s));
        }
        assert_eq!(q.len(), 2_000);
        let stats = q.stats();
        assert_eq!(stats.events, 2_000, "rehashing must not recount events");
        assert_eq!(stats.rehashes, 3, "grow at 256, 512 and 1024 pending");
        assert_eq!(stats.peak_occupancy, 2_000);
        assert_eq!(stats.day_width, 1);
        drain_sorted(&mut q, keys);
        assert_eq!(q.stats().peak_occupancy, 2_000, "peak survives the drain");
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        let mut q = CalendarQueue::new(8);
        // All events many rotations beyond the cursor.
        q.push(u64::MAX - 3, 1, 0);
        q.push(1 << 50, 0, 0);
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((1 << 50, 0)));
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((u64::MAX - 3, 1)));
    }

    #[test]
    fn equal_times_break_ties_by_seq_not_insertion() {
        let mut q = CalendarQueue::new(16);
        q.push(42, 9, 1);
        q.push(42, 3, 2);
        q.push(42, 7, 3);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, s, _)| s)).collect();
        assert_eq!(order, vec![3, 7, 9]);
    }
}
