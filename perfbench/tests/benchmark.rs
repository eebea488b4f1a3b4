//! Tests of the benchmark itself: short runs of every workload, the
//! seed contract, and agreement with `BENCHMARK.json`. Run them on an
//! optimised build: `cargo test --release`.

use amdrel_perfbench::{request_seed, run, Kind, Options, Report, MODELLED_REQUESTS};
use std::time::Duration;

fn short(kind: Kind, seed: u64, trace: bool) -> Report {
    run(&Options {
        kind,
        seed,
        duration: Duration::ZERO,
        trace,
    })
    .unwrap_or_else(|e| panic!("{}: {e}", kind.name()))
}

/// The `name` values of one array section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..start + json[start..].find(']').expect("closed array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closed string")].to_owned())
        .collect()
}

fn names(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn benchmark_json_lists_every_workload() {
    let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(listed("workloads"), kinds);
}

#[test]
fn every_workload_passes_its_checks_with_every_end_to_end_metric() {
    for kind in Kind::ALL {
        let r = short(kind, 7, false);
        assert_eq!(r.failed, 0, "{}: {:?}", kind.name(), r.failures);
        assert!(r.attempted >= MODELLED_REQUESTS);
        assert_eq!(r.get("failed_share"), Some(0.0));
        assert_eq!(names(&r), listed("end_to_end"), "{}", kind.name());
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {m:?}",
                kind.name()
            );
        }
    }
}

#[test]
fn the_same_seed_repeats_every_modelled_metric() {
    let (a, b) = (
        short(Kind::DesignFlow, 11, false),
        short(Kind::DesignFlow, 11, false),
    );
    for name in ["cycle_reduction_pct", "sim_p95_kcycles"] {
        assert!(a.get(name).is_some(), "{name} missing");
        assert_eq!(a.get(name), b.get(name), "{name}");
    }
    let (a, b) = (
        short(Kind::SimulateNominal, 11, false),
        short(Kind::SimulateNominal, 11, false),
    );
    assert_eq!(a.get("sim_p95_kcycles"), b.get("sim_p95_kcycles"));
    let c = short(Kind::SimulateNominal, 12, false);
    assert_ne!(a.get("sim_p95_kcycles"), c.get("sim_p95_kcycles"));
}

#[test]
fn the_traced_run_prints_every_per_layer_metric() {
    let r = short(Kind::SimulateNominal, 3, true);
    assert_eq!(r.failed, 0, "{:?}", r.failures);
    assert_eq!(names(&r), listed("per_layer"));
    for m in &r.metrics {
        assert!(m.value.is_finite(), "{m:?}");
    }
    for name in [
        "minic.lex.calls",
        "runtime.run_ms.affinity",
        "trace.chrome_ms",
    ] {
        assert!(r.get(name).is_some_and(|v| v > 0.0), "{name}");
    }
    let spans = r.spans_jsonl.lines().count() as f64;
    assert!(spans >= r.get("runtime.run.calls").expect("call count"));
}

#[test]
fn request_seeds_depend_on_seed_and_index() {
    assert_eq!(request_seed(5, 9), request_seed(5, 9));
    assert_ne!(request_seed(5, 9), request_seed(5, 10));
    assert_ne!(request_seed(5, 9), request_seed(6, 9));
}
