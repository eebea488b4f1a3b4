//! Golden bytes of every deterministic `--json` report, and of the
//! text trace (timeline plus resource gantt).
//!
//! Each test runs the `amdrel` binary from `tests/golden/` (so the
//! echoed source path is the stable `fir.c`) and compares stdout with
//! the committed file byte for byte. Regenerate a golden file only when
//! a report's schema changes on purpose.

use std::path::Path;
use std::process::Command;

fn assert_golden(args: &[&str], golden: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let out = Command::new(env!("CARGO_BIN_EXE_amdrel"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    let expected = std::fs::read_to_string(dir.join(golden)).expect("golden file");
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{args:?}");
}

#[test]
fn sweep_json_matches_golden() {
    assert_golden(
        &[
            "sweep",
            "fir.c",
            "--constraint",
            "4000",
            "--areas",
            "1500,5000",
            "--cgc-list",
            "2,3",
            "--json",
        ],
        "sweep.json",
    );
}

#[test]
fn explore_json_matches_golden() {
    assert_golden(
        &["explore", "fir.c", "--strategy", "exhaustive", "--json"],
        "explore.json",
    );
}

#[test]
fn explore_contention_json_matches_golden() {
    assert_golden(
        &[
            "explore",
            "fir.c",
            "--strategy",
            "exhaustive",
            "--json",
            "--objectives",
            "cycles,area,energy,p95",
        ],
        "explore_p95.json",
    );
}

#[test]
fn faulted_simulate_json_matches_golden() {
    assert_golden(
        &[
            "simulate",
            "--seed",
            "42",
            "--njobs",
            "120",
            "--fault-rate",
            "30",
            "--degrade",
            "--json",
        ],
        "simulate_faulted.json",
    );
}

#[test]
fn text_trace_matches_golden() {
    // Faults, retries, four regions and both CGC slots: every track kind
    // and padding width of the timeline, plus the gantt rows.
    assert_golden(
        &[
            "trace",
            "--app",
            "ofdm",
            "--app",
            "jpeg",
            "--njobs",
            "40",
            "--fault-rate",
            "30",
            "--degrade",
            "--regions",
            "4",
            "--trace-format",
            "text",
        ],
        "trace_text.txt",
    );
}
