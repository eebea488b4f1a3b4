//! Compact line-oriented timeline export.
//!
//! One event per line in canonical `(time, seq)` order — the grep-able
//! counterpart of the Chrome export, sharing its determinism contract.

use crate::{canonical, tracks, EventKind, TraceEvent};
use amdrel_core::json::Value as _;

const HEADER: &str = "cycle        track      event\n";

/// Output bytes reserved per event: lines of a standard-mix trace
/// average about 60.
const LINE_BYTES: usize = 64;

/// Render `events` as a text timeline, one line per event:
///
/// ```text
/// cycle        track      event
///         1260 fabric     span    fine         +5000 job=3 arg=1
/// ```
///
/// `+N` is the span length; `arg` is the event's detail value (see
/// `docs/OBSERVABILITY.md` for the per-event meaning).
pub fn text_timeline(events: &[TraceEvent]) -> String {
    // The columns are `{:>12} {:<10} {:<7} {:<12}` (cycle, track, kind,
    // name), written by hand: each track's padded label is built once,
    // and the integers go through the JSON writer's plain decimal digits.
    let tracks = tracks(events);
    let labels: Vec<String> = tracks
        .iter()
        .map(|t| {
            let mut label = String::new();
            push_left(&mut label, &t.label(), 10);
            label
        })
        .collect();
    let mut out = String::with_capacity(HEADER.len() + events.len() * LINE_BYTES);
    out.push_str(HEADER);
    for e in canonical(events) {
        push_right(&mut out, e.time, 12);
        out.push(' ');
        let track = tracks
            .binary_search(&e.track)
            .expect("every track is labelled");
        out.push_str(&labels[track]);
        out.push(' ');
        out.push_str(match e.kind {
            EventKind::Span => "span   ",
            EventKind::Instant => "instant",
            EventKind::JobBegin => "begin  ",
            EventKind::JobEnd => "end    ",
        });
        out.push(' ');
        push_left(&mut out, e.name, 12);
        if e.dur > 0 {
            out.push_str(" +");
            e.dur.write_json(&mut out);
        }
        if let Some(job) = e.job {
            out.push_str(" job=");
            job.write_json(&mut out);
        }
        if let Some(arg) = e.arg {
            out.push_str(" arg=");
            arg.write_json(&mut out);
        }
        out.push('\n');
    }
    out
}

/// Spaces enough for the widest column (12).
const SPACES: &str = "            ";

/// `s` padded with spaces to `width` chars, as `{:<width}` pads: by
/// `char` count, not bytes.
fn push_left(out: &mut String, s: &str, width: usize) {
    out.push_str(s);
    out.push_str(&SPACES[..width.saturating_sub(s.chars().count())]);
}

/// `n` right-aligned in `width` columns, as `{:>width}` aligns.
fn push_right(out: &mut String, n: u64, width: usize) {
    let digits = n.checked_ilog10().map_or(1, |d| d as usize + 1);
    out.push_str(&SPACES[..width.saturating_sub(digits)]);
    n.write_json(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrackId;

    #[test]
    fn lines_are_time_ordered_and_annotated() {
        let events = vec![
            TraceEvent {
                seq: 1,
                ..TraceEvent::span(TrackId::Fabric, 500, 40, "fine").with_job(2)
            },
            TraceEvent {
                seq: 0,
                ..TraceEvent::instant(TrackId::Scheduler, 700, "retry").with_arg(1)
            },
        ];
        let text = text_timeline(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[1].contains("fine") && lines[1].contains("+40") && lines[1].contains("job=2")
        );
        assert!(lines[2].contains("retry") && lines[2].contains("arg=1"));
        assert_eq!(text_timeline(&events), text, "export is deterministic");
    }
}
