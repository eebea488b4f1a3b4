//! Chrome trace-event / Perfetto JSON export (`amdrel-trace/v1`).
//!
//! The output is the JSON-object form of the trace-event format: a
//! `traceEvents` array plus top-level metadata, loadable directly in
//! `chrome://tracing` or <https://ui.perfetto.dev>. One simulated FPGA
//! cycle is rendered as one microsecond (the format's `ts` unit), so
//! cycle arithmetic survives the viewer unchanged.
//!
//! Rendering choices that keep the export trivially well-formed:
//!
//! * [`EventKind::Span`] becomes a *complete* event (`ph: "X"` with
//!   `dur`) — the simulator knows every span's length when it schedules
//!   the work, so there are no begin/end pairs to unbalance;
//! * [`EventKind::Instant`] becomes `ph: "i"` with thread scope;
//! * job lifecycles ([`EventKind::JobBegin`]/[`EventKind::JobEnd`])
//!   become async `ph: "b"`/`"e"` pairs keyed by the job id — every
//!   admitted job is eventually disposed (completed, aborted or reaped),
//!   so the pairs always balance;
//! * events are written in canonical `(time, seq)` order, so `ts` is
//!   monotone within every track.

use crate::{canonical, tracks, EventKind, TraceEvent, TrackId};
use amdrel_core::json::{document, Json, Sep};

/// Render `events` as Chrome trace-event JSON (`amdrel-trace/v1`).
///
/// Tracks are mapped to thread ids in [`TrackId`] order (scheduler,
/// fabric, CGC slots, regions) and named via `thread_name` metadata
/// records, so the same scenario always yields the same bytes.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let tracks = tracks(events);
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
            for e in canonical(events) {
                rows.elem_object(|row| render_event(row, e, tid(e.track)));
            }
        });
    })
}

/// Write one metadata (`ph: "M"`) record, its `args` filled by `args`.
pub(crate) fn metadata(
    rows: &mut Json,
    name: &'static str,
    tid: usize,
    args: impl FnOnce(&mut Json),
) {
    rows.elem_object(|m| {
        m.field("name", name);
        m.field("ph", "M");
        m.field("pid", 1u64);
        m.field("tid", tid);
        m.object("args", args);
    });
}

pub(crate) fn render_event(row: &mut Json, e: &TraceEvent, tid: usize) {
    let (name, cat, ph) = match e.kind {
        EventKind::Span => (e.name, "sim", "X"),
        EventKind::Instant => (e.name, "sim", "i"),
        EventKind::JobBegin => ("job", "job", "b"),
        EventKind::JobEnd => ("job", "job", "e"),
    };
    row.field("name", name);
    row.field("cat", cat);
    row.field("ph", ph);
    match e.kind {
        EventKind::Instant => row.field("s", "t"),
        EventKind::JobBegin | EventKind::JobEnd => {
            row.field("id", e.job.expect("job markers carry the job id"));
        }
        EventKind::Span => {}
    }
    row.field("pid", 1u64);
    row.field("tid", tid);
    row.field("ts", e.time);
    if e.kind == EventKind::Span {
        row.field("dur", e.dur);
    }
    row.object("args", |a| {
        a.field("seq", e.seq);
        if let Some(job) = e.job {
            a.field("job", job);
        }
        if let Some(arg) = e.arg {
            a.field("detail", arg);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceBuffer, TraceSink};

    fn sample() -> Vec<TraceEvent> {
        let buffer = TraceBuffer::new();
        buffer.record(TraceEvent::job_begin(0, 7));
        buffer.record(TraceEvent::span(TrackId::Fabric, 0, 40, "load").with_job(7));
        buffer.record(
            TraceEvent::span(TrackId::Fabric, 40, 100, "fine")
                .with_job(7)
                .with_arg(0),
        );
        buffer.record(TraceEvent::instant(TrackId::Region(1), 0, "reprogram").with_job(7));
        buffer.record(TraceEvent::span(TrackId::CgcSlot(0), 140, 60, "coarse").with_job(7));
        buffer.record(TraceEvent::job_end(200, 7));
        buffer.events()
    }

    #[test]
    fn sample_export_matches_golden_bytes() {
        // A pretty top level, one event per line, tight event objects.
        let golden = include_str!("../../../tests/golden/chrome_sample.json");
        assert_eq!(chrome_trace(&sample()), golden);
    }

    #[test]
    fn ts_is_monotone_per_track_in_file_order() {
        let json = chrome_trace(&sample());
        let mut last_ts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for line in json.lines().filter(|l| l.contains("\"ts\":")) {
            let field = |key: &str| -> Option<u64> {
                let at = line.find(key)?;
                let rest = &line[at + key.len()..];
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                digits.parse().ok()
            };
            let (tid, ts) = (field("\"tid\":").unwrap(), field("\"ts\":").unwrap());
            if let Some(&prev) = last_ts.get(&tid) {
                assert!(ts >= prev, "ts regressed on tid {tid}");
            }
            last_ts.insert(tid, ts);
        }
        assert!(!last_ts.is_empty());
    }

    #[test]
    fn async_job_pairs_balance() {
        let json = chrome_trace(&sample());
        let begins = json.matches("\"ph\":\"b\"").count();
        let ends = json.matches("\"ph\":\"e\"").count();
        assert_eq!(begins, 1);
        assert_eq!(begins, ends);
    }
}
