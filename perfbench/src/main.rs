//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the run's metrics one per line (name, value, unit, better
//! direction), then, as the last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A traced run also
//! writes its spans to `.bench_spans/<workload>-seed<N>.jsonl`.

use amdrel_perfbench::{run, Kind, Metric, Options};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload design_flow|simulate_nominal|simulate_overload|trace_export \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                let d = Duration::try_from_secs_f64(s).map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(d);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Options {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        duration: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} is not a number ({})", m.name, m.value);
        return ExitCode::FAILURE;
    }
    if opts.trace {
        let path = format!(".bench_spans/{}-seed{}.jsonl", opts.kind.name(), opts.seed);
        if let Err(e) = std::fs::create_dir_all(".bench_spans")
            .and_then(|()| std::fs::write(&path, &report.spans_jsonl))
        {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for f in &report.failures {
        eprintln!("check failed: {f}");
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={}",
        opts.kind.name(),
        opts.seed,
        opts.duration.as_secs_f64(),
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for m in report.named.iter().chain(&report.metrics) {
        println!(
            "metric {:<32} {:>16.6} {:<8} {}",
            m.name, m.value, m.unit, m.better
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        json_metrics(&report.metrics)
    );
    ExitCode::SUCCESS
}
