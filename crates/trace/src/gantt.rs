//! Per-resource gantt view of a trace, in the `coarsegrain::gantt`
//! idiom: one fixed-width ASCII row per resource, time bucketed into
//! equal columns, `.` for idle.
//!
//! Span cells show the uppercased initial of the span name (`L`oad,
//! `F`ine, `C`oarse, `B`ackoff, `D`own, `F`allback); fault instants
//! overlay a `!`. Scheduler-track bookkeeping (arrivals, dispositions)
//! is omitted — this is the *resource* view.

use crate::{canonical, tracks, EventKind, TraceEvent, TrackId};
use std::fmt::Write as _;

/// Render the resource rows of `events` bucketed into at most `width`
/// columns. Returns a fully deterministic multi-line string ending in a
/// newline; an empty or scheduler-only trace renders a one-line notice.
pub fn resource_gantt(events: &[TraceEvent], width: usize) -> String {
    let width = width.max(1);
    let mut tracks = tracks(events);
    tracks.retain(|t| *t != TrackId::Scheduler);
    if tracks.is_empty() {
        return "resource gantt: no resource events\n".to_owned();
    }
    let end = events
        .iter()
        .map(|e| e.time.saturating_add(e.dur))
        .max()
        .unwrap_or(0)
        .max(1);
    let per_col = end.div_ceil(width as u64).max(1);
    let cols = end.div_ceil(per_col) as usize;

    let mut rows: Vec<Vec<char>> = vec![vec!['.'; cols]; tracks.len()];
    let row_of = |track: TrackId| -> Option<usize> { tracks.binary_search(&track).ok() };
    for e in canonical(events) {
        let Some(row) = row_of(e.track) else { continue };
        match e.kind {
            EventKind::Span => {
                let mark = e
                    .name
                    .chars()
                    .next()
                    .map_or('#', |c| c.to_ascii_uppercase());
                let first = (e.time / per_col) as usize;
                let last = (e.time.saturating_add(e.dur.max(1) - 1) / per_col) as usize;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_resources_and_mark_faults() {
        let events = vec![
            TraceEvent::span(TrackId::Fabric, 0, 50, "load"),
            TraceEvent::span(TrackId::Fabric, 50, 50, "fine"),
            TraceEvent::span(TrackId::CgcSlot(0), 100, 100, "coarse"),
            TraceEvent::instant(TrackId::Fabric, 80, "fault_fabric"),
            TraceEvent::instant(TrackId::Scheduler, 0, "arrive"),
        ];
        let gantt = resource_gantt(&events, 20);
        assert_eq!(resource_gantt(&events, 20), gantt, "deterministic");
        let lines: Vec<&str> = gantt.lines().collect();
        assert!(lines[0].contains("1 column = 10 cycles"));
        let fabric = lines.iter().find(|l| l.starts_with("fabric")).unwrap();
        assert!(fabric.contains('L') && fabric.contains('F') && fabric.contains('!'));
        let cgc = lines.iter().find(|l| l.starts_with("cgc0")).unwrap();
        assert!(cgc.contains('C') && cgc.contains('.'));
        assert!(!gantt.contains("scheduler"), "scheduler track is omitted");
    }

    #[test]
    fn a_span_ending_past_u64_max_saturates_into_the_last_column() {
        let events = [TraceEvent::span(TrackId::Fabric, u64::MAX - 2, 5, "fine")];
        let gantt = resource_gantt(&events, 10);
        assert!(gantt.contains(&format!("end = {}", u64::MAX)), "{gantt}");
        let fabric = gantt.lines().find(|l| l.starts_with("fabric")).unwrap();
        assert!(fabric.ends_with(".F|"), "{gantt}");
    }

    #[test]
    fn empty_trace_renders_a_notice() {
        assert_eq!(
            resource_gantt(&[], 40),
            "resource gantt: no resource events\n"
        );
    }
}
