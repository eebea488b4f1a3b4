//! Differential oracle for the exporters.
//!
//! The reference below is the earlier implementation, verbatim: each
//! exporter copies the events, stable-sorts the copy by `(time, seq)`
//! and formats every text column through `fmt`. The exporters must match
//! it byte for byte on seeded traces that stress the canonical order
//! (repeated `(time, seq)` keys) and the column padding (wide cycles,
//! long and non-ASCII names, two-digit slot and region ids). Chrome's
//! per-event record (`metadata`, `render_event`) is shared, not copied:
//! only order and tracks changed there.

use crate::chrome::{metadata, render_event};
use crate::{EventKind, TraceBuffer, TraceEvent, TraceSink, TrackId};
use amdrel_core::json::{document, Sep};
use amdrel_core::rng::SplitMix64;
use std::fmt::Write as _;

fn canonical_order(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut sorted = events.to_vec();
    sorted.sort_by_key(TraceEvent::key);
    sorted
}

fn chrome_trace(events: &[TraceEvent]) -> String {
    let sorted = canonical_order(events);
    let mut tracks: Vec<TrackId> = sorted.iter().map(|e| e.track).collect();
    tracks.sort();
    tracks.dedup();
    let tid = |track: TrackId| -> usize {
        tracks
            .binary_search(&track)
            .expect("every event's track is registered")
    };

    document(|doc| {
        doc.field("schema", "amdrel-trace/v1");
        doc.field("displayTimeUnit", "ms");
        doc.rows("traceEvents", Sep::Tight, |rows| {
            metadata(rows, "process_name", 0, |a| a.field("name", "amdrel-sim"));
            for (i, track) in tracks.iter().enumerate() {
                metadata(rows, "thread_name", i, |a| a.field("name", track.label()));
                metadata(rows, "thread_sort_index", i, |a| a.field("sort_index", i));
            }
            for e in &sorted {
                rows.elem_object(|row| render_event(row, e, tid(e.track)));
            }
        });
    })
}

fn text_timeline(events: &[TraceEvent]) -> String {
    let mut out = String::from("cycle        track      event\n");
    for e in canonical_order(events) {
        let kind = match e.kind {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
            EventKind::JobBegin => "begin",
            EventKind::JobEnd => "end",
        };
        let _ = write!(
            out,
            "{:>12} {:<10} {:<7} {:<12}",
            e.time,
            e.track.label(),
            kind,
            e.name
        );
        if e.dur > 0 {
            let _ = write!(out, " +{}", e.dur);
        }
        if let Some(job) = e.job {
            let _ = write!(out, " job={job}");
        }
        if let Some(arg) = e.arg {
            let _ = write!(out, " arg={arg}");
        }
        out.push('\n');
    }
    out
}

fn resource_gantt(events: &[TraceEvent], width: usize) -> String {
    let width = width.max(1);
    let sorted = canonical_order(events);
    let mut tracks: Vec<TrackId> = sorted
        .iter()
        .map(|e| e.track)
        .filter(|t| *t != TrackId::Scheduler)
        .collect();
    tracks.sort();
    tracks.dedup();
    if tracks.is_empty() {
        return "resource gantt: no resource events\n".to_owned();
    }
    let end = sorted
        .iter()
        .map(|e| e.time + e.dur)
        .max()
        .unwrap_or(0)
        .max(1);
    let per_col = end.div_ceil(width as u64).max(1);
    let cols = end.div_ceil(per_col) as usize;

    let mut rows: Vec<Vec<char>> = vec![vec!['.'; cols]; tracks.len()];
    let row_of = |track: TrackId| -> Option<usize> { tracks.binary_search(&track).ok() };
    for e in &sorted {
        let Some(row) = row_of(e.track) else { continue };
        match e.kind {
            EventKind::Span => {
                let mark = e
                    .name
                    .chars()
                    .next()
                    .map_or('#', |c| c.to_ascii_uppercase());
                let first = (e.time / per_col) as usize;
                let last = ((e.time + e.dur.max(1) - 1) / per_col) as usize;
                for cell in &mut rows[row][first..=last.min(cols - 1)] {
                    *cell = mark;
                }
            }
            EventKind::Instant if e.name.starts_with("fault") => {
                let col = ((e.time / per_col) as usize).min(cols - 1);
                rows[row][col] = '!';
            }
            _ => {}
        }
    }

    let label_width = tracks
        .iter()
        .map(|t| t.label().len())
        .max()
        .unwrap_or(0)
        .max("site\\cycle".len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "resource gantt: 1 column = {per_col} cycles, end = {end}"
    );
    let _ = writeln!(out, "{:<label_width$} |", "site\\cycle");
    for (track, row) in tracks.iter().zip(&rows) {
        let cells: String = row.iter().collect();
        let _ = writeln!(out, "{:<label_width$} |{cells}|", track.label());
    }
    out
}

/// Span, instant and fault names: short, exactly 12 chars, longer, and
/// non-ASCII (multi-byte chars pad differently by bytes and by chars).
const NAMES: [&str; 12] = [
    "fine",
    "load",
    "coarse",
    "backoff",
    "retry",
    "fault_fabric",
    "fault_slot",
    "reconfiguration",
    "",
    "débit",
    "µs→ünïcødé",
    "🙂",
];

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

/// A seeded trace of up to 160 events. Even seeds record through a
/// [`TraceBuffer`] (unique `seq`), odd seeds build events without one
/// (every `seq` 0); times come from a narrow range, so `(time, seq)`
/// keys repeat, or are 12 to 14 digits wide.
fn generated(seed: u64) -> Vec<TraceEvent> {
    let mut rng = SplitMix64::new(seed);
    let wide = rng.below(2) == 1;
    let (tracks, ids) = if rng.below(4) == 0 {
        (1, 1) // scheduler only
    } else {
        (4, 14)
    };
    let events = (0..rng.below(160)).map(|_| {
        let time = if wide {
            100_000_000_000 + rng.below(10_000_000_000_000)
        } else {
            rng.below(40)
        };
        let track = match rng.below(tracks) {
            0 => TrackId::Scheduler,
            1 => TrackId::Fabric,
            2 => TrackId::CgcSlot(rng.below(ids) as u32),
            _ => TrackId::Region(rng.below(ids) as u32),
        };
        let name = pick(&mut rng, &NAMES);
        let mut e = match rng.below(4) {
            0 => TraceEvent::span(track, time, rng.below(3) * rng.below(500), name),
            1 => TraceEvent::instant(track, time, name),
            2 => TraceEvent::job_begin(time, rng.below(1000)),
            _ => TraceEvent::job_end(time, rng.below(1000)),
        };
        if rng.below(2) == 0 {
            e = e.with_job(rng.below(100_000));
        }
        if rng.below(2) == 0 {
            e = e.with_arg(rng.below(20));
        }
        e
    });
    if seed % 2 == 0 {
        let buffer = TraceBuffer::new();
        events.for_each(|e| buffer.record(e));
        buffer.take()
    } else {
        events.collect()
    }
}

#[test]
fn exporters_match_the_copy_and_stable_sort_reference() {
    let mut covered = [false; 5];
    for seed in 0..400 {
        let events = generated(seed);
        let width = seed as usize % 90;
        assert_eq!(
            crate::chrome_trace(&events),
            chrome_trace(&events),
            "seed {seed}"
        );
        assert_eq!(
            crate::text_timeline(&events),
            text_timeline(&events),
            "seed {seed}"
        );
        assert_eq!(
            crate::resource_gantt(&events, width),
            resource_gantt(&events, width),
            "seed {seed}"
        );
        let keys: Vec<(u64, u64)> = events.iter().map(TraceEvent::key).collect();
        covered[0] |= events.is_empty();
        covered[1] |= !events.is_empty() && events.iter().all(|e| e.track == TrackId::Scheduler);
        covered[2] |= (1..keys.len()).any(|i| keys[..i].contains(&keys[i]));
        covered[3] |= events.iter().any(|e| e.time >= 100_000_000_000);
        covered[4] |= events
            .iter()
            .any(|e| matches!(e.track, TrackId::CgcSlot(10..) | TrackId::Region(10..)));
    }
    // Empty, scheduler-only, repeated keys, 12-digit cycles, ids >= 10.
    assert_eq!(covered, [true; 5]);
}
