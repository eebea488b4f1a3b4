//! End-to-end tests of the `amdrel` CLI binary.

use std::io::Write as _;
use std::process::Command;

fn write_source(name: &str, body: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("amdrel-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create");
    f.write_all(body.as_bytes()).expect("write");
    path
}

fn amdrel(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_amdrel"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const FIR: &str = r#"
    int samples[40];
    int taps[4];
    int out[36];
    int main() {
        for (int i = 0; i < 36; i++) {
            int acc = 0;
            for (int t = 0; t < 4; t++) {
                acc += samples[i + t] * taps[t];
            }
            out[i] = acc >> 2;
        }
        return out[0];
    }
"#;

#[test]
fn analyze_prints_kernel_table() {
    let src = write_source("fir_analyze.c", FIR);
    let (ok, stdout, stderr) = amdrel(&[
        "analyze",
        src.to_str().unwrap(),
        "--input",
        "taps=1,2,2,1",
        "--top",
        "4",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("basic blocks"));
    assert!(stdout.contains("total weight"));
}

#[test]
fn partition_reports_moves_and_verdict() {
    let src = write_source("fir_partition.c", FIR);
    let (ok, stdout, stderr) = amdrel(&[
        "partition",
        src.to_str().unwrap(),
        "--constraint",
        "4000",
        "--area",
        "1500",
        "--cgcs",
        "3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("initial (all-FPGA):"), "{stdout}");
    assert!(stdout.contains("final:"), "{stdout}");
    assert!(stdout.contains("constraint"), "{stdout}");
}

#[test]
fn sweep_prints_paper_style_table() {
    let src = write_source("fir_sweep.c", FIR);
    let (ok, stdout, stderr) = amdrel(&[
        "sweep",
        src.to_str().unwrap(),
        "--constraint",
        "4000",
        "--areas",
        "1500,5000",
        "--cgc-list",
        "2,3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Initial cycles"));
    assert!(stdout.contains("% cycles reduction"));
    assert!(stdout.contains("A_FPGA=5000"));
}

#[test]
fn sweep_json_is_machine_readable() {
    let src = write_source("fir_sweep_json.c", FIR);
    let (ok, stdout, stderr) = amdrel(&[
        "sweep",
        src.to_str().unwrap(),
        "--constraint",
        "4000",
        "--areas",
        "1500,5000",
        "--cgc-list",
        "2,3",
        "--jobs",
        "2",
        "--json",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("\"schema\": \"amdrel-sweep/v3\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"cells\""));
    assert!(stdout.contains("\"cache\""));
    assert!(stdout.contains("\"entries\""), "{stdout}");
    // The cache counters are said once, in `cache`, not again in a
    // `metrics` object.
    assert!(!stdout.contains("\"metrics\""), "{stdout}");
    assert!(
        stdout.contains("\"cache\": {\"fine_misses\":2,\"fine_hits\":2,"),
        "{stdout}"
    );
    assert_eq!(stdout.matches("\"area\":").count(), 4, "4 grid cells");
    assert!(!stdout.contains("Initial cycles"), "no table in JSON mode");
}

#[test]
fn explore_prints_frontier_table_and_json() {
    let src = write_source("fir_explore.c", FIR);
    let (ok, stdout, stderr) = amdrel(&[
        "explore",
        src.to_str().unwrap(),
        "--strategy",
        "sa",
        "--seed",
        "42",
        "--budget",
        "24",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("strategy sa (seed 42, budget 24, objectives cycles,area,energy)"),
        "{stdout}"
    );
    assert!(stdout.contains("Pareto frontier"), "{stdout}");
    assert!(stdout.contains("speedup"), "{stdout}");

    let (ok, json, stderr) = amdrel(&[
        "explore",
        src.to_str().unwrap(),
        "--strategy",
        "exhaustive",
        "--jobs",
        "2",
        "--json",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(json.contains("\"schema\": \"amdrel-explore/v4\""), "{json}");
    // Archive churn, once only in `metrics`, now closes `effort`.
    assert!(!json.contains("\"metrics\""), "{json}");
    let effort = json
        .lines()
        .find(|l| l.contains("\"effort\""))
        .expect("effort line");
    assert!(effort.contains("\"archive_inserts\": "), "{effort}");
    assert!(effort.contains("\"archive_pruned\": "), "{effort}");
    assert!(
        json.contains("\"objectives\": [\"cycles\", \"area\", \"energy\"]"),
        "{json}"
    );
    assert!(json.contains("\"frontier\""), "{json}");
    assert!(
        json.contains("\"engine_runs\": 4"),
        "one run per cell: {json}"
    );
    assert!(
        !json.contains("\"contention\""),
        "static objectives carry no contention block: {json}"
    );
}

#[test]
fn explore_rejects_unknown_objectives() {
    let src = write_source("fir_objectives.c", FIR);
    let (ok, _, stderr) = amdrel(&[
        "explore",
        src.to_str().unwrap(),
        "--objectives",
        "cycles,latency",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown objective 'latency'"), "{stderr}");
    assert!(stderr.contains("usage: amdrel"), "{stderr}");
}

#[test]
fn explore_is_seed_deterministic() {
    let src = write_source("fir_explore_det.c", FIR);
    let path = src.to_str().unwrap();

    // Same seed, repeated run: byte-identical annealing output.
    let sa = [
        "explore",
        path,
        "--strategy",
        "sa",
        "--seed",
        "7",
        "--budget",
        "20",
    ];
    let (ok1, out1, _) = amdrel(&sa);
    let (ok2, out2, _) = amdrel(&sa);
    assert!(ok1 && ok2);
    assert_eq!(out1, out2, "same seed must reproduce the frontier");

    // Exhaustive is the strategy that consumes --jobs (parallel cell
    // evaluation): its output must be byte-identical at every setting.
    let exhaustive =
        |jobs: &'static str| amdrel(&["explore", path, "--strategy", "exhaustive", "--jobs", jobs]);
    let (ok1, out1, _) = exhaustive("1");
    let (ok2, out2, _) = exhaustive("4");
    assert!(ok1 && ok2);
    assert_eq!(out1, out2, "frontier must not depend on --jobs");
}

#[test]
fn malformed_flags_exit_nonzero_with_usage() {
    let src = write_source("fir_badflag.c", FIR);
    let (ok, _, stderr) = amdrel(&["sweep", src.to_str().unwrap(), "--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag '--bogus'"), "{stderr}");
    assert!(stderr.contains("usage: amdrel"), "{stderr}");

    let (ok, _, stderr) = amdrel(&["explore", src.to_str().unwrap(), "--strategy", "psychic"]);
    assert!(!ok);
    assert!(stderr.contains("unknown strategy 'psychic'"), "{stderr}");
    assert!(stderr.contains("usage: amdrel"), "{stderr}");

    let (ok, _, stderr) = amdrel(&["explore", src.to_str().unwrap(), "--budget", "a-lot"]);
    assert!(!ok);
    assert!(stderr.contains("--budget"), "{stderr}");
    assert!(stderr.contains("usage: amdrel"), "{stderr}");
}

#[test]
fn simulate_runs_the_builtin_mix() {
    let (ok, stdout, stderr) = amdrel(&[
        "simulate", "--app", "ofdm", "--seed", "42", "--njobs", "24", "--policy", "sjf",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("policy sjf"), "{stdout}");
    assert!(stdout.contains("p95 latency"), "{stdout}");
    assert!(stdout.contains("ofdm"), "{stdout}");
    assert!(stdout.contains("reconfig"), "{stdout}");
}

#[test]
fn simulate_json_is_bit_deterministic() {
    let args = [
        "simulate", "--app", "ofdm", "--seed", "42", "--njobs", "24", "--json",
    ];
    let (ok1, out1, stderr) = amdrel(&args);
    assert!(ok1, "stderr: {stderr}");
    assert!(
        out1.contains("\"schema\": \"amdrel-simulate/v6\""),
        "{out1}"
    );
    assert!(out1.contains("\"apps\""), "{out1}");
    assert!(out1.contains("\"queue\""), "{out1}");
    // The makespan is said once, in `totals`, not again in `metrics`.
    assert!(!out1.contains("\"metrics\""), "{out1}");
    let totals = out1
        .lines()
        .find(|l| l.contains("\"totals\""))
        .expect("totals line");
    assert!(totals.contains("\"makespan\": "), "{totals}");
    assert!(out1.contains("\"latency_source\": \"exact\""), "{out1}");
    assert!(!out1.contains("p95 latency "), "no table in JSON mode");
    let (ok2, out2, _) = amdrel(&args);
    assert!(ok2);
    assert_eq!(out1, out2, "same seed must replay bit-for-bit");

    // Admission and policy knobs change the outcome but stay deterministic.
    let bounded = [
        "simulate",
        "--app",
        "ofdm",
        "--seed",
        "42",
        "--njobs",
        "24",
        "--queue-bound",
        "1",
        "--json",
    ];
    let (ok3, out3, _) = amdrel(&bounded);
    let (ok4, out4, _) = amdrel(&bounded);
    assert!(ok3 && ok4);
    assert_eq!(out3, out4);
}

#[test]
fn simulate_queue_bound_zero_still_means_unbounded() {
    // `--queue-bound 0` predates the Option<NonZeroUsize> config field;
    // it must keep its historical meaning (no admission control).
    let args = |bound: &'static str| {
        [
            "simulate",
            "--app",
            "ofdm",
            "--seed",
            "42",
            "--njobs",
            "24",
            "--queue-bound",
            bound,
            "--json",
        ]
    };
    let (ok_zero, zero, stderr) = amdrel(&args("0"));
    assert!(ok_zero, "stderr: {stderr}");
    let (ok_default, default, _) = amdrel(&[
        "simulate", "--app", "ofdm", "--seed", "42", "--njobs", "24", "--json",
    ]);
    assert!(ok_default);
    assert_eq!(zero, default, "--queue-bound 0 must equal the default");
    assert!(zero.contains("\"queue_bound\": 0"), "{zero}");
    assert!(zero.contains("\"rejected\": 0"), "{zero}");

    let (ok_table, table, _) = amdrel(&[
        "simulate",
        "--app",
        "ofdm",
        "--njobs",
        "8",
        "--queue-bound",
        "0",
    ]);
    assert!(ok_table);
    assert!(table.contains("queue bound unbounded"), "{table}");
}

#[test]
fn simulate_sketch_modes_agree_on_percentile_buckets() {
    let args = |mode: &'static str| {
        [
            "simulate", "--app", "ofdm", "--seed", "42", "--njobs", "24", "--sketch", mode,
            "--json",
        ]
    };
    let (ok_exact, exact, stderr) = amdrel(&args("exact"));
    assert!(ok_exact, "stderr: {stderr}");
    assert!(exact.contains("\"latency_source\": \"exact\""), "{exact}");
    let (ok_sketched, sketched, _) = amdrel(&args("sketched"));
    assert!(ok_sketched);
    assert!(
        sketched.contains("\"latency_source\": \"sketched\""),
        "{sketched}"
    );
    // Sketched runs stay bit-deterministic too.
    let (ok_again, sketched_again, _) = amdrel(&args("sketched"));
    assert!(ok_again);
    assert_eq!(sketched, sketched_again);

    let (ok_bad, _, stderr) = amdrel(&args("psychic"));
    assert!(!ok_bad);
    assert!(stderr.contains("unknown sketch mode 'psychic'"), "{stderr}");
}

#[test]
fn simulate_rejects_bad_app_and_policy() {
    let (ok, _, stderr) = amdrel(&["simulate", "--app", "doom"]);
    assert!(!ok);
    assert!(stderr.contains("unknown app 'doom'"), "{stderr}");

    let (ok, _, stderr) = amdrel(&["simulate", "--policy", "psychic", "--app", "ofdm"]);
    assert!(!ok);
    assert!(stderr.contains("unknown policy 'psychic'"), "{stderr}");

    let (ok, _, stderr) = amdrel(&["simulate", "stray.c"]);
    assert!(!ok);
    assert!(stderr.contains("unexpected arguments"), "{stderr}");

    let (ok, _, stderr) = amdrel(&[
        "simulate",
        "--app",
        "ofdm",
        "--load",
        "150",
        "--arrival",
        "9000",
    ]);
    assert!(!ok);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");

    let (ok, _, stderr) = amdrel(&["simulate", "--app", "ofdm", "--arrival", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--arrival must be a positive"), "{stderr}");
}

#[test]
fn simulate_fault_flags_are_documented_and_validated() {
    // `--help` documents every fault flag on both fault-aware
    // subcommands.
    for cmd in ["simulate", "explore"] {
        let (ok, stdout, stderr) = amdrel(&[cmd, "--help"]);
        assert!(ok, "{cmd} --help (stderr: {stderr})");
        for flag in [
            "--fault-rate",
            "--fault-seed",
            "--deadline",
            "--max-retries",
            "--degrade",
        ] {
            assert!(
                stdout.contains(flag),
                "{cmd} --help must list {flag}: {stdout}"
            );
        }
    }
    let (_, stdout, _) = amdrel(&["explore", "--help"]);
    assert!(stdout.contains("p95_under_faults"), "{stdout}");
    assert!(stdout.contains("degraded_share"), "{stdout}");

    // Malformed fault flags exit nonzero with the usage on stderr.
    for bad in [
        &["simulate", "--fault-rate", "-1"][..],
        &["simulate", "--fault-rate", "1001"],
        &["simulate", "--fault-rate", "many"],
        &["simulate", "--max-retries", "garbage"],
        &["simulate", "--deadline", "0"],
        &["simulate", "--fault-seed", "not-a-number"],
    ] {
        let (ok, _, stderr) = amdrel(bad);
        assert!(!ok, "{bad:?} must fail");
        assert!(stderr.contains("error:"), "{bad:?}: {stderr}");
        assert!(stderr.contains("usage: amdrel"), "{bad:?}: {stderr}");
        assert!(stderr.contains(bad[1]), "{bad:?} names the flag: {stderr}");
    }
}

#[test]
fn region_flags_are_documented_with_their_interactions() {
    // `--help` documents the region flags on both region-aware
    // subcommands, including which flags are mutually exclusive.
    for cmd in ["simulate", "explore"] {
        let (ok, stdout, stderr) = amdrel(&[cmd, "--help"]);
        assert!(ok, "{cmd} --help (stderr: {stderr})");
        for flag in [
            "--reconfig streamed|region|free",
            "--regions N | --region-shape RxC",
        ] {
            assert!(
                stdout.contains(flag),
                "{cmd} --help must list {flag}: {stdout}"
            );
        }
        assert!(
            stdout.contains("imply --reconfig region"),
            "{cmd} --help must document the implied mode: {stdout}"
        );
    }
    // simulate additionally spells out the `--no-config-cache` and
    // `--prefetch` interactions.
    let (_, stdout, _) = amdrel(&["simulate", "--help"]);
    assert!(
        stdout
            .contains("--load/--arrival and --regions/--region-shape are mutually exclusive pairs"),
        "{stdout}"
    );
    assert!(
        stdout.contains("--no-config-cache composes with --reconfig region"),
        "{stdout}"
    );
    assert!(
        stdout.contains("both it and --prefetch are no-ops under --reconfig free"),
        "{stdout}"
    );
    // explore lists the floorplan objectives.
    let (_, stdout, _) = amdrel(&["explore", "--help"]);
    assert!(stdout.contains("fragmentation"), "{stdout}");
    assert!(stdout.contains("worst_region_load"), "{stdout}");
}

#[test]
fn region_flag_conflicts_exit_nonzero() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["simulate", "--regions", "2", "--region-shape", "2x2"],
            "--regions and --region-shape are mutually exclusive",
        ),
        (
            &["simulate", "--regions", "4", "--reconfig", "streamed"],
            "imply --reconfig region",
        ),
        (
            &["simulate", "--region-shape", "2x2", "--reconfig", "free"],
            "imply --reconfig region",
        ),
        (
            &["simulate", "--reconfig", "bogus"],
            "unknown reconfig model",
        ),
        (&["simulate", "--regions", "0"], "positive region count"),
        (&["simulate", "--region-shape", "4"], "wants RxC"),
        (
            &["simulate", "--region-shape", "0x2"],
            "positive dimensions",
        ),
    ];
    for (args, needle) in cases {
        let (ok, _, stderr) = amdrel(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn simulate_region_mode_is_deterministic_and_cuts_reconfig_stall() {
    let streamed = ["simulate", "--seed", "42", "--njobs", "40", "--json"];
    let region = [
        "simulate",
        "--seed",
        "42",
        "--njobs",
        "40",
        "--regions",
        "4",
        "--json",
    ];
    let (ok, s, stderr) = amdrel(&streamed);
    assert!(ok, "stderr: {stderr}");
    let (ok1, r1, _) = amdrel(&region);
    let (ok2, r2, _) = amdrel(&region);
    assert!(ok1 && ok2);
    assert_eq!(r1, r2, "region mode must replay bit-for-bit");
    assert_ne!(s, r1, "region pricing must actually change the outcome");
    let stall = |json: &str| {
        let key = "\"reconfig_stall_cycles\": ";
        let at = json.find(key).expect("reconfig_stall_cycles in the report");
        json[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse::<u64>()
            .expect("numeric stall cycles")
    };
    assert!(
        stall(&r1) < stall(&s),
        "partial reconfiguration must stall less: region {} vs streamed {}",
        stall(&r1),
        stall(&s)
    );

    // A single full-fabric region is the degenerate plan: byte-identical
    // to the default streamed pool.
    let (ok3, one, _) = amdrel(&[
        "simulate",
        "--seed",
        "42",
        "--njobs",
        "40",
        "--regions",
        "1",
        "--json",
    ]);
    assert!(ok3);
    assert_eq!(one, s, "--regions 1 must degenerate to the scalar pool");

    // The human-readable header names the grid.
    let (ok4, table, _) = amdrel(&[
        "simulate",
        "--seed",
        "42",
        "--njobs",
        "8",
        "--region-shape",
        "2x2",
    ]);
    assert!(ok4);
    assert!(
        table.contains("reconfig: region mode, 2x2 grid (4 regions)"),
        "{table}"
    );
}

#[test]
fn simulate_zero_fault_rate_is_byte_identical_to_default() {
    let base = [
        "simulate", "--app", "ofdm", "--seed", "42", "--njobs", "24", "--json",
    ];
    let (ok_default, default, stderr) = amdrel(&base);
    assert!(ok_default, "stderr: {stderr}");
    let (ok_zero, zero, _) = amdrel(&[
        "simulate",
        "--app",
        "ofdm",
        "--seed",
        "42",
        "--njobs",
        "24",
        "--fault-rate",
        "0",
        "--max-retries",
        "5",
        "--degrade",
        "--json",
    ]);
    assert!(ok_zero);
    // Recovery metadata differs, but every simulated quantity must not.
    let strip = |s: &str| {
        s.lines()
            .filter(|l| {
                !l.contains("\"recovery\"")
                    && !l.contains("\"max_retries\"")
                    && !l.contains("\"degrade\"")
                    && !l.contains("\"backoff_")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&default),
        strip(&zero),
        "--fault-rate 0 must be the fault-free simulator"
    );
    assert!(default.contains("\"injected\": 0"), "{default}");
}

#[test]
fn simulate_faulted_runs_are_bit_deterministic() {
    let args = [
        "simulate",
        "--app",
        "ofdm",
        "--seed",
        "42",
        "--njobs",
        "24",
        "--fault-rate",
        "80",
        "--fault-seed",
        "9",
        "--degrade",
        "--json",
    ];
    let (ok1, out1, stderr) = amdrel(&args);
    assert!(ok1, "stderr: {stderr}");
    let (ok2, out2, _) = amdrel(&args);
    assert!(ok2);
    assert_eq!(out1, out2, "faulted runs must replay bit-for-bit");
    assert!(
        !out1.contains("\"injected\": 0"),
        "faults were live: {out1}"
    );
    assert!(out1.contains("\"availability\""), "{out1}");

    // The fault table lines only appear when faults are live.
    let (ok_table, table, _) = amdrel(&[
        "simulate",
        "--app",
        "ofdm",
        "--njobs",
        "24",
        "--fault-rate",
        "80",
    ]);
    assert!(ok_table);
    assert!(table.contains("faults:"), "{table}");
    assert!(table.contains("availability"), "{table}");
}

#[test]
fn per_subcommand_help_exits_zero_with_usage() {
    for cmd in [
        "analyze",
        "partition",
        "sweep",
        "explore",
        "simulate",
        "trace",
        "dot",
    ] {
        let (ok, stdout, stderr) = amdrel(&[cmd, "--help"]);
        assert!(ok, "{cmd} --help must exit 0 (stderr: {stderr})");
        assert!(
            stdout.contains(&format!("usage: amdrel {cmd}")),
            "{cmd}: {stdout}"
        );
    }
}

#[test]
fn unknown_subcommand_lists_the_real_ones() {
    let (ok, _, stderr) = amdrel(&["frobnicate", "x.c"]);
    assert!(!ok, "unknown subcommands exit nonzero");
    assert!(stderr.contains("unknown command 'frobnicate'"), "{stderr}");
    for cmd in [
        "analyze",
        "partition",
        "sweep",
        "explore",
        "simulate",
        "trace",
        "dot",
    ] {
        assert!(stderr.contains(cmd), "{stderr}");
    }
    assert!(stderr.contains("usage: amdrel"), "{stderr}");
}

#[test]
fn dot_emits_graphviz() {
    let src = write_source("fir_dot.c", FIR);
    let (ok, stdout, _) = amdrel(&["dot", src.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
    let (ok, stdout, _) = amdrel(&["dot", src.to_str().unwrap(), "--block", "0"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
}

#[test]
fn helpful_errors() {
    let (ok, _, stderr) = amdrel(&["partition", "/nonexistent.c", "--constraint", "10"]);
    assert!(!ok);
    assert!(stderr.contains("error:"));

    let src = write_source("fir_err.c", FIR);
    let (ok, _, stderr) = amdrel(&["partition", src.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("--constraint"));

    let (ok, _, stderr) = amdrel(&["frobnicate", src.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (ok, _, stderr) = amdrel(&["analyze", src.to_str().unwrap(), "--input", "oops"]);
    assert!(!ok);
    assert!(stderr.contains("name=v"));
}

/// Runs `args` expecting exit code 1 with a stderr of exactly one
/// `error:` line (no panic, no usage line) that contains `needle`.
fn expect_one_line_error(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_amdrel"))
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?}: {stderr}");
    assert!(lines[0].starts_with("error:"), "{args:?}: {stderr}");
    assert!(lines[0].contains(needle), "{args:?}: {stderr}");
}

#[test]
fn empty_loop_exhausts_the_step_budget() {
    let src = write_source("empty_loop.c", "int main() { while (1) { } return 0; }");
    expect_one_line_error(&["analyze", src.to_str().unwrap()], "step limit");
}

#[test]
fn oversized_region_grids_are_usage_errors() {
    expect_one_line_error(&["simulate", "--regions", "64"], "quantise to");
    expect_one_line_error(&["simulate", "--region-shape", "64x64"], "quantise to");
    let src = write_source("fir_regions.c", FIR);
    expect_one_line_error(
        &[
            "explore",
            src.to_str().unwrap(),
            "--objectives",
            "cycles,area,fragmentation",
            "--regions",
            "64",
        ],
        "quantise to",
    );
}

#[test]
fn help_lists_subcommands() {
    let (ok, stdout, _) = amdrel(&["--help"]);
    assert!(ok);
    for cmd in [
        "analyze",
        "partition",
        "sweep",
        "explore",
        "simulate",
        "trace",
        "dot",
    ] {
        assert!(stdout.contains(cmd));
    }
}

#[test]
fn help_groups_flags_into_sections() {
    // The fault-aware subcommands organise their long flag lists into
    // named sections so `--help` stays scannable.
    for cmd in ["simulate", "explore"] {
        let (ok, stdout, stderr) = amdrel(&[cmd, "--help"]);
        assert!(ok, "{cmd} --help (stderr: {stderr})");
        for section in ["workload:", "faults:", "regions:", "observability:"] {
            assert!(
                stdout.contains(section),
                "{cmd} --help must have a {section} section: {stdout}"
            );
        }
    }
    let (_, stdout, _) = amdrel(&["explore", "--help"]);
    assert!(stdout.contains("search:"), "{stdout}");
}

#[test]
fn trace_subcommand_emits_deterministic_chrome_json() {
    let args = ["trace", "--app", "ofdm", "--seed", "42", "--njobs", "24"];
    let (ok1, out1, stderr) = amdrel(&args);
    assert!(ok1, "stderr: {stderr}");
    assert!(out1.contains("\"amdrel-trace/v1\""), "{out1}");
    assert!(out1.contains("\"traceEvents\""), "{out1}");
    assert!(out1.contains("\"ph\":\"X\""), "complete spans: {out1}");
    assert!(out1.contains("\"arrive\""), "{out1}");
    let (ok2, out2, _) = amdrel(&args);
    assert!(ok2);
    assert_eq!(out1, out2, "traces must replay bit-for-bit");
}

#[test]
fn trace_text_format_prints_timeline_and_gantt() {
    let (ok, stdout, stderr) = amdrel(&[
        "trace",
        "--app",
        "ofdm",
        "--njobs",
        "8",
        "--trace-format",
        "text",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("cycle"), "timeline header: {stdout}");
    assert!(stdout.contains("arrive"), "{stdout}");
    assert!(stdout.contains("resource gantt:"), "{stdout}");
    assert!(stdout.contains("fabric"), "{stdout}");

    let (ok, _, stderr) = amdrel(&["trace", "--trace-format", "xml"]);
    assert!(!ok);
    assert!(stderr.contains("unknown trace format 'xml'"), "{stderr}");
}

#[test]
fn simulate_trace_flag_is_a_pure_observer() {
    let dir = std::env::temp_dir().join("amdrel-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("sim_observer.trace.json");
    let trace_path = trace_path.to_str().unwrap();
    let base = [
        "simulate", "--app", "ofdm", "--seed", "42", "--njobs", "24", "--json",
    ];
    let (ok1, plain, stderr) = amdrel(&base);
    assert!(ok1, "stderr: {stderr}");
    let (ok2, traced, stderr) = amdrel(&[
        "simulate", "--app", "ofdm", "--seed", "42", "--njobs", "24", "--json", "--trace",
        trace_path,
    ]);
    assert!(ok2, "stderr: {stderr}");
    assert_eq!(
        plain, traced,
        "attaching a trace sink must not change the report"
    );
    let trace = std::fs::read_to_string(trace_path).expect("trace file written");
    assert!(trace.contains("\"amdrel-trace/v1\""), "{trace}");
}

#[test]
fn traced_faulted_run_records_fault_and_retry_events() {
    let dir = std::env::temp_dir().join("amdrel-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("sim_faulted.trace.txt");
    let trace_path = trace_path.to_str().unwrap();
    let (ok, _, stderr) = amdrel(&[
        "simulate",
        "--seed",
        "42",
        "--njobs",
        "40",
        "--fault-rate",
        "80",
        "--degrade",
        "--trace",
        trace_path,
        "--trace-format",
        "text",
    ]);
    assert!(ok, "stderr: {stderr}");
    let trace = std::fs::read_to_string(trace_path).expect("trace file written");
    assert!(
        trace.contains("fault") || trace.contains("retry"),
        "a faulted run must surface recovery events in the trace: {trace}"
    );
}

#[test]
fn explore_trace_needs_a_runtime_objective() {
    let src = write_source("fir_trace_explore.c", FIR);
    let (ok, _, stderr) = amdrel(&[
        "explore",
        src.to_str().unwrap(),
        "--trace",
        "/tmp/unused.trace.json",
    ]);
    assert!(!ok);
    assert!(stderr.contains("runtime objective"), "{stderr}");

    // With a runtime objective the trace of the best frontier point is
    // written alongside the normal report.
    let dir = std::env::temp_dir().join("amdrel-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("explore_best.trace.json");
    let trace_path = trace_path.to_str().unwrap();
    let (ok, stdout, stderr) = amdrel(&[
        "explore",
        src.to_str().unwrap(),
        "--objectives",
        "cycles,p95",
        "--strategy",
        "random",
        "--budget",
        "6",
        "--njobs",
        "8",
        "--trace",
        trace_path,
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Pareto frontier"), "{stdout}");
    let trace = std::fs::read_to_string(trace_path).expect("trace file written");
    assert!(trace.contains("\"amdrel-trace/v1\""), "{trace}");
    assert!(trace.contains("\"arrive\""), "{trace}");
}

#[test]
fn profile_prints_phase_json_to_stderr_only() {
    let (ok, stdout, stderr) = amdrel(&[
        "simulate",
        "--app",
        "ofdm",
        "--njobs",
        "8",
        "--json",
        "--profile",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("\"amdrel-profile/v1\""), "{stderr}");
    assert!(stderr.contains("sim.run"), "{stderr}");
    assert!(
        !stdout.contains("amdrel-profile"),
        "wall-clock profile output must never contaminate stdout: {stdout}"
    );
    assert!(
        stdout.contains("\"schema\": \"amdrel-simulate/v6\""),
        "{stdout}"
    );
}

#[test]
fn analyze_and_partition_profile_the_front_end_on_stderr_only() {
    let src = write_source("profile_fir.c", FIR);
    let src = src.to_str().unwrap();
    for args in [
        vec!["analyze", src, "--top", "3"],
        vec!["partition", src, "--constraint", "4000"],
    ] {
        let (ok, plain, _) = amdrel(&args);
        assert!(ok, "{args:?}");
        let mut profiled_args = args.clone();
        profiled_args.push("--profile");
        let (ok, stdout, stderr) = amdrel(&profiled_args);
        assert!(ok, "stderr: {stderr}");
        assert_eq!(stdout, plain, "--profile must leave stdout byte-identical");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{stderr}");
        assert!(
            lines[0].starts_with("{\"schema\":\"amdrel-profile/v1\",\"phases\":["),
            "{stderr}"
        );
        let named: Vec<&str> = lines[0]
            .split("\"name\":\"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap())
            .collect();
        assert_eq!(
            named,
            [
                "minic.compile_to_ir",
                "minic.cdfg",
                "profiler.interp",
                "profiler.analysis"
            ],
            "{stderr}"
        );
    }
}

#[test]
fn shards_flag_is_documented_in_the_workload_section() {
    let (ok, stdout, stderr) = amdrel(&["simulate", "--help"]);
    assert!(ok, "stderr: {stderr}");
    let workload = stdout
        .find("workload:")
        .expect("simulate --help has a workload section");
    let next_section = stdout.find("faults:").expect("faults section follows");
    let section = &stdout[workload..next_section];
    assert!(
        section.contains("--shards K"),
        "--shards belongs to the workload section: {stdout}"
    );
    // The help says what a shard is, so nobody compares sharded
    // latencies with unsharded ones.
    for wording in [
        "run K platform replicas",
        "tenant i on replica i % K",
        "comparable with --shards 1",
    ] {
        assert!(section.contains(wording), "{wording:?}: {section}");
    }
}

#[test]
fn bad_shard_counts_exit_nonzero_with_usage() {
    for bad in [
        &["simulate", "--app", "ofdm", "--shards", "0"][..],
        &["simulate", "--app", "ofdm", "--shards", "many"],
        &["trace", "--app", "ofdm", "--shards", "0"],
        &["trace", "--app", "ofdm", "--shards", "-3"],
    ] {
        let (ok, _, stderr) = amdrel(bad);
        assert!(!ok, "{bad:?} must fail");
        assert!(stderr.contains("error:"), "{bad:?}: {stderr}");
        assert!(stderr.contains("--shards"), "{bad:?}: {stderr}");
        assert!(stderr.contains("usage: amdrel"), "{bad:?}: {stderr}");
    }
}

#[test]
fn sharded_single_app_trace_is_byte_identical_to_unsharded() {
    // With one app every job lands on shard 0, so any shard count must
    // reproduce the unsharded chrome trace byte-for-byte — the empty
    // shards contribute nothing and the merge restamps nothing.
    let base = ["trace", "--app", "ofdm", "--seed", "42", "--njobs", "24"];
    let (ok, unsharded, stderr) = amdrel(&base);
    assert!(ok, "stderr: {stderr}");
    for shards in ["1", "2", "8"] {
        let (ok, sharded, stderr) = amdrel(&[
            "trace", "--app", "ofdm", "--seed", "42", "--njobs", "24", "--shards", shards,
        ]);
        assert!(ok, "--shards {shards} (stderr: {stderr})");
        assert_eq!(
            unsharded, sharded,
            "--shards {shards} must not perturb a single-app trace"
        );
    }
}

#[test]
fn sharded_simulate_report_is_bit_deterministic() {
    let args = [
        "simulate", "--seed", "42", "--njobs", "40", "--shards", "3", "--json",
    ];
    let (ok1, out1, stderr) = amdrel(&args);
    assert!(ok1, "stderr: {stderr}");
    let (ok2, out2, _) = amdrel(&args);
    assert!(ok2);
    assert_eq!(out1, out2, "sharded runs must replay bit-for-bit");
}

#[test]
fn bad_source_is_reported_with_position() {
    let src = write_source("broken.c", "int main() { return q; }");
    expect_one_line_error(
        &["analyze", src.to_str().unwrap()],
        "1:21: undeclared variable 'q'",
    );
}

#[test]
fn runtime_errors_print_no_usage_line() {
    let src = write_source("div_zero.c", "int main() { int z = 0; return 1 / z; }");
    expect_one_line_error(&["analyze", src.to_str().unwrap()], "division by zero");
}

#[test]
fn deeply_nested_sources_are_rejected_not_stack_overflows() {
    let n = 20_000;
    let parens = format!(
        "int main() {{ return {}1{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    );
    let ifs = format!(
        "int main() {{ {}return 1; {}return 0; }}",
        "if (1) { ".repeat(n),
        "} ".repeat(n)
    );
    for (name, body) in [("deep_parens.c", parens), ("deep_ifs.c", ifs)] {
        let src = write_source(name, &body);
        expect_one_line_error(&["analyze", src.to_str().unwrap()], "nesting deeper than");
    }
}

#[test]
fn long_operator_chains_are_rejected_not_stack_overflows() {
    for op in ["+", "-", "*"] {
        let chain = format!(
            "int main() {{ int x = 1{}; return x; }}",
            format!(" {op} 1").repeat(50_000)
        );
        let src = write_source("long_chain.c", &chain);
        expect_one_line_error(&["analyze", src.to_str().unwrap()], "nesting deeper than");
    }
}

/// Every flag the binary knows, with a value it accepts.
const FLAG_TABLE: &[(&str, Option<&str>)] = &[
    ("--input", Some("x=1")),
    ("--constraint", Some("100")),
    ("--area", Some("1500")),
    ("--cgcs", Some("2")),
    ("--areas", Some("1500")),
    ("--cgc-list", Some("2")),
    ("--top", Some("3")),
    ("--block", Some("0")),
    ("--skip-unprofitable", None),
    ("--strategy", Some("sa")),
    ("--seed", Some("1")),
    ("--budget", Some("4")),
    ("--jobs", Some("1")),
    ("--json", None),
    ("--max-kernels", Some("2")),
    ("--objectives", Some("cycles")),
    ("--app", Some("ofdm")),
    ("--policy", Some("fcfs")),
    ("--njobs", Some("1")),
    ("--arrival", Some("1000")),
    ("--load", Some("100")),
    ("--queue-bound", Some("1")),
    ("--no-config-cache", None),
    ("--prefetch", None),
    ("--sketch", Some("auto")),
    ("--fault-rate", Some("0")),
    ("--fault-seed", Some("1")),
    ("--deadline", Some("100")),
    ("--max-retries", Some("1")),
    ("--degrade", None),
    ("--shards", Some("1")),
    ("--trace", Some("unused.json")),
    ("--trace-format", Some("text")),
    ("--profile", None),
    ("--reconfig", Some("streamed")),
    ("--regions", Some("1")),
    ("--region-shape", Some("1x1")),
];

/// The `--flags` a help text names.
fn flags_in(help: &str) -> std::collections::BTreeSet<String> {
    help.split("--")
        .skip(1)
        .map(|rest| {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            format!("--{name}")
        })
        .collect()
}

#[test]
fn each_subcommand_takes_exactly_the_flags_its_usage_lists() {
    let (_, simulate_help, _) = amdrel(&["simulate", "--help"]);
    for cmd in [
        "analyze",
        "partition",
        "sweep",
        "explore",
        "simulate",
        "trace",
        "dot",
    ] {
        let (ok, help, _) = amdrel(&[cmd, "--help"]);
        assert!(ok, "{cmd} --help");
        let mut listed = flags_in(&help);
        if cmd == "trace" {
            listed.extend(flags_in(&simulate_help));
        }
        for flag in &listed {
            assert!(
                FLAG_TABLE.iter().any(|(f, _)| f == flag),
                "{cmd} lists {flag}, which the flag table lacks"
            );
        }
        for &(flag, value) in FLAG_TABLE {
            // Two stray positionals fail every subcommand right after
            // its flags parse, before any work starts.
            let mut args = vec![cmd, flag];
            args.extend(value);
            args.extend(["a.c", "b.c"]);
            let (ok, _, stderr) = amdrel(&args);
            assert!(!ok, "{args:?}");
            if listed.contains(flag) {
                assert!(
                    stderr.starts_with("error: unexpected arguments"),
                    "{cmd} must take {flag}: {stderr}"
                );
            } else {
                assert!(
                    stderr.starts_with(&format!("error: unknown flag '{flag}' for {cmd}\n")),
                    "{cmd} must reject {flag}: {stderr}"
                );
                assert!(stderr.contains(&format!("usage: amdrel {cmd}")), "{stderr}");
            }
        }
    }
}
