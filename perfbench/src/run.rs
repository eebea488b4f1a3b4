//! Running the benchmark: set-up, the closed request loop, and the
//! metrics of the untraced and the traced run.
//!
//! Every timed interval sits between two runs of the reference kernel
//! and is scaled to reference speed (see [`crate::reference`]); the
//! raw wall-clock figures are reported beside the scaled ones.

use crate::reference::{kernel_ms, scale, REFERENCE_MS};
use crate::spans::{layer_stats, LayerStat, Tracer};
use crate::work::{doubling_ratio, parallel_speedup, Kind, Outcome, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Times the untraced run builds the workload state (plus one warm-up
/// request); `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Requests whose modelled figures (`sim_p95_kcycles`,
/// `cycle_reduction_pct`) the untraced run averages; the loop always
/// runs them, so those figures depend on the seed alone. A multiple of
/// every workload's rotation.
pub const MODELLED_REQUESTS: u64 = 96;
/// Exhaustive-explore pairs behind `explore.parallel_speedup`.
const SPEEDUP_REPS: u32 = 10;
/// Runs per size and policy behind `runtime.doubling_ratio`.
const DOUBLING_REPS: u32 = 2;
/// Untraced/traced pairs of each first-rotation request behind
/// `tracing_overhead`.
const OVERHEAD_REPS: u32 = 4;

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the request loop runs (the untraced loop always
    /// completes [`MODELLED_REQUESTS`]).
    pub duration: Duration,
    /// Traced run (per-layer metrics) instead of the untraced run
    /// (end-to-end metrics).
    pub trace: bool,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        better,
    }
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that errored or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` lists for this mode.
    pub metrics: Vec<Metric>,
    /// Further figures for reading: the workload-specific names,
    /// raw wall-clock times, failure share.
    pub named: Vec<Metric>,
    /// The traced run's spans as JSON lines (empty untraced).
    pub spans_jsonl: String,
}

impl Report {
    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.named)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Run the benchmark.
///
/// # Errors
///
/// A set-up failure (including a failed warm-up request).
pub fn run(opts: &Options) -> Result<Report, String> {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

/// A request's outcome and its scale to reference speed.
struct Sample {
    outcome: Outcome,
    scale: f64,
}

impl Sample {
    fn wall_ms(&self) -> f64 {
        self.outcome.elapsed.as_secs_f64() * 1e3
    }

    fn ms(&self) -> f64 {
        self.wall_ms() * self.scale
    }
}

/// Runs requests one at a time, numbering them across the whole
/// process (span request ids) and remembering each one's scale: the
/// reference speed over the kernel runs just before and just after
/// the request (each kernel run serves both of its neighbours).
struct Runner<'t> {
    tracer: &'t Tracer,
    scales: Vec<f64>,
    last_kernel_ms: f64,
}

impl<'t> Runner<'t> {
    fn new(tracer: &'t Tracer) -> Runner<'t> {
        Runner {
            tracer,
            scales: Vec::new(),
            last_kernel_ms: kernel_ms(),
        }
    }

    /// Run `f`, then the kernel; return `f`'s result and the scale of
    /// the interval between the two kernel runs around it.
    fn scaled<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let out = f();
        let after = kernel_ms();
        let scale = scale((self.last_kernel_ms + after) / 2.0);
        self.last_kernel_ms = after;
        (out, scale)
    }

    fn request(&mut self, work: &dyn Workload, index: u64) -> Sample {
        let tracer = self.tracer;
        tracer.set_request(self.scales.len() as u64 + 1);
        let (outcome, scale) =
            self.scaled(|| tracer.span("request", || work.request(index, tracer)));
        tracer.set_request(0);
        self.scales.push(scale);
        Sample { outcome, scale }
    }

    /// Requests `first..` one after another until `duration` has
    /// passed and at least `min_requests` ran.
    fn closed_loop(
        &mut self,
        work: &dyn Workload,
        first: u64,
        duration: Duration,
        min_requests: u64,
    ) -> Vec<Sample> {
        let start = Instant::now();
        let mut out = Vec::new();
        while start.elapsed() < duration || (out.len() as u64) < min_requests {
            out.push(self.request(work, first + out.len() as u64));
        }
        out
    }

    /// Request indices `0..rotation` of `work`.
    fn rotation(&mut self, work: &dyn Workload) -> Vec<Sample> {
        (0..work.rotation())
            .map(|i| self.request(work, i))
            .collect()
    }

    /// The scale of request id `id` (1 outside requests).
    fn scale_of(&self, id: u64) -> f64 {
        id.checked_sub(1)
            .and_then(|i| self.scales.get(i as usize))
            .copied()
            .unwrap_or(1.0)
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100).
fn percentile(mut values: Vec<f64>, q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
    sum / f64::from(n.max(1))
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// `(attempted, failed, first few failure messages)`.
fn tally(samples: &[Sample]) -> (u64, u64, Vec<String>) {
    let failures: Vec<&String> = samples
        .iter()
        .filter_map(|s| s.outcome.failure.as_ref())
        .collect();
    (
        samples.len() as u64,
        failures.len() as u64,
        failures.into_iter().take(5).cloned().collect(),
    )
}

fn run_untraced(opts: &Options) -> Result<Report, String> {
    let off = Tracer::new(false);
    let mut runner = Runner::new(&off);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut work = None;
    for _ in 0..SETUP_REPEATS {
        let (built, scale) = runner.scaled(|| {
            let start = Instant::now();
            let w = opts.kind.setup(opts.seed)?;
            // Warm-up: let lazy set-up and caches settle before timing.
            match w.request(0, &off).failure {
                Some(e) => Err(format!("warm-up request failed: {e}")),
                None => Ok((w, start.elapsed().as_secs_f64())),
            }
        });
        let (w, wall_s) = built?;
        setup_s.push(wall_s * scale);
        work = Some(w);
    }
    let work = work.expect("SETUP_REPEATS > 0");
    let samples = runner.closed_loop(work.as_ref(), 0, opts.duration, MODELLED_REQUESTS);
    let (attempted, failed, failures) = tally(&samples);

    let items: u64 = samples.iter().map(|s| s.outcome.items).sum();
    let per_s = |ms: f64| items as f64 * 1e3 / ms;
    let scaled: Vec<f64> = samples.iter().map(Sample::ms).collect();
    let wall: Vec<f64> = samples.iter().map(Sample::wall_ms).collect();
    let items_per_s = per_s(scaled.iter().sum());
    let (p50, p90) = (percentile(scaled.clone(), 50.0), percentile(scaled, 90.0));
    let first = || {
        samples[..MODELLED_REQUESTS as usize]
            .iter()
            .map(|s| &s.outcome)
    };
    let p95_kcycles = mean(first().filter_map(|o| o.p95_cycles).map(|c| c as f64 / 1e3));

    let metrics = vec![
        metric("setup_s", median(setup_s), "s", "lower"),
        metric("items_per_s", items_per_s, "1/s", "higher"),
        metric("request_ms_p50", p50, "ms", "lower"),
        metric("request_ms_p90", p90, "ms", "lower"),
        metric("peak_rss_mib", peak_rss_mib()?, "MiB", "lower"),
        metric("sim_p95_kcycles", p95_kcycles, "kcycles", "lower"),
    ];
    let mut named = vec![
        metric(opts.kind.items_name(), items_per_s, "1/s", "higher"),
        metric(
            "failed_share",
            failed as f64 / attempted as f64,
            "ratio",
            "lower",
        ),
        metric("requests", attempted as f64, "count", "higher"),
        metric(
            "wall.items_per_s",
            per_s(wall.iter().sum()),
            "1/s",
            "higher",
        ),
        metric(
            "wall.request_ms_p50",
            percentile(wall.clone(), 50.0),
            "ms",
            "lower",
        ),
        metric("wall.request_ms_p90", percentile(wall, 90.0), "ms", "lower"),
        metric(
            "wall.reference_ms",
            median(runner.scales.iter().map(|s| REFERENCE_MS / s).collect()),
            "ms",
            "lower",
        ),
    ];
    if opts.kind == Kind::DesignFlow {
        named.push(metric("design_ms_p50", p50, "ms", "lower"));
        named.push(metric("design_ms_p90", p90, "ms", "lower"));
        named.push(metric(
            "cycle_reduction_pct",
            mean(first().filter_map(|o| o.reduction_pct)),
            "%",
            "higher",
        ));
    }
    Ok(Report {
        attempted,
        failed,
        failures,
        metrics,
        named,
        spans_jsonl: String::new(),
    })
}

fn run_traced(opts: &Options) -> Result<Report, String> {
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let mut runner = Runner::new(&tracer);
    let mut untraced = Runner::new(&off);
    let own = tracer.span("bench.setup", || opts.kind.setup(opts.seed))?;
    let mut samples = Vec::new();

    // Tracing overhead: each first-rotation request untraced and
    // traced back to back, alternating which goes first.
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    for rep in 0..OVERHEAD_REPS {
        for i in 0..own.rotation() {
            let mut pair = |traced: bool| {
                if traced {
                    let s = runner.request(own.as_ref(), i);
                    traced_ms += s.ms();
                    samples.push(s);
                } else {
                    untraced_ms += untraced.request(own.as_ref(), i).ms();
                }
            };
            pair(rep % 2 == 0);
            pair(rep % 2 == 1);
        }
    }

    // Coverage: one traced rotation of every other workload, so every
    // layer has spans whichever workload this run measures.
    for kind in Kind::ALL.into_iter().filter(|&k| k != opts.kind) {
        let work = tracer.span("bench.setup", || kind.setup(opts.seed))?;
        samples.extend(runner.rotation(work.as_ref()));
    }
    let speedup = parallel_speedup(opts.seed, SPEEDUP_REPS, &tracer)?;
    let doubling = doubling_ratio(opts.seed, DOUBLING_REPS, &tracer)?;

    samples.extend(runner.closed_loop(own.as_ref(), own.rotation(), opts.duration, 1));
    let (attempted, failed, failures) = tally(&samples);
    let stats = layer_stats(&tracer.spans(), |id| runner.scale_of(id));
    let mut metrics = layer_metrics(&stats, &tracer);
    metrics.push(metric(
        "explore.parallel_speedup",
        speedup,
        "ratio",
        "higher",
    ));
    metrics.push(metric("runtime.doubling_ratio", doubling, "ratio", "lower"));
    metrics.push(metric(
        "tracing_overhead",
        traced_ms / untraced_ms,
        "ratio",
        "lower",
    ));
    // Zero on these workloads (a few completions are ever in flight,
    // so the calendar never outgrows its first ring): printed for
    // reading, not tracked.
    let rehashes = tracer.counter("runtime.rehashes")
        / stats.get("runtime.run").map_or(1, |s| s.calls.max(1)) as f64;
    Ok(Report {
        attempted,
        failed,
        failures,
        metrics,
        named: vec![metric(
            "runtime.calendar_rehashes",
            rehashes,
            "count",
            "lower",
        )],
        spans_jsonl: tracer.to_jsonl(),
    })
}

/// Spans whose mean self time per call is a per-layer metric, with
/// the metric's name.
const TIMED_SPANS: [(&str, &str); 20] = [
    ("minic.lex", "minic.lex_ms"),
    ("minic.parse", "minic.parse_ms"),
    ("minic.sema", "minic.sema_ms"),
    ("minic.cdfg", "minic.cdfg_ms"),
    ("profiler.interp", "profiler.interp_ms"),
    ("profiler.analysis", "profiler.analysis_ms"),
    ("finegrain.map", "finegrain.map_ms"),
    ("coarsegrain.map", "coarsegrain.map_ms"),
    ("core.engine", "core.engine_ms"),
    ("explore.static", "explore.static_ms"),
    ("explore.contention", "explore.contention_ms"),
    ("runtime.generate", "runtime.generate_ms"),
    ("runtime.run", "runtime.run_ms"),
    ("runtime.run.fcfs", "runtime.run_ms.fcfs"),
    ("runtime.run.sjf", "runtime.run_ms.sjf"),
    ("runtime.run.priority", "runtime.run_ms.priority"),
    ("runtime.run.affinity", "runtime.run_ms.affinity"),
    ("trace.record", "trace.record_ms"),
    ("trace.chrome", "trace.chrome_ms"),
    ("trace.text", "trace.text_ms"),
];

fn layer_metrics(stats: &BTreeMap<&'static str, LayerStat>, tracer: &Tracer) -> Vec<Metric> {
    let stat = |name: &str| stats.get(name).copied().unwrap_or_default();
    let ms = |name: &str| stat(name).self_ms_per_call();
    let total_ms = |name: &str| stat(name).total_ms;
    let per_call =
        |counter: &str, span: &str| tracer.counter(counter) / stat(span).calls.max(1) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut m: Vec<Metric> = TIMED_SPANS
        .iter()
        .map(|&(span, name)| metric(name, ms(span), "ms", "lower"))
        .collect();
    // compile_to_ir repeats lex, parse and sema internally.
    let ir = ms("minic.compile_to_ir") - ms("minic.lex") - ms("minic.parse") - ms("minic.sema");
    m.push(metric("minic.ir_ms", ir, "ms", "lower"));
    m.push(metric(
        "minic.cdfg_ops",
        per_call("minic.cdfg_ops", "minic.cdfg"),
        "count",
        "lower",
    ));
    m.push(metric(
        "profiler.instrs_per_s",
        ratio(
            tracer.counter("profiler.instrs") * 1e3,
            total_ms("profiler.interp"),
        ),
        "1/s",
        "higher",
    ));
    m.push(metric(
        "core.cache_hit_ratio",
        ratio(
            tracer.counter("core.cache_hits"),
            tracer.counter("core.cache_lookups"),
        ),
        "ratio",
        "higher",
    ));
    m.push(metric(
        "core.cycle_reduction_pct",
        per_call("core.reduction_pct", "core.engine"),
        "%",
        "higher",
    ));
    m.push(metric(
        "explore.cell_hit_ratio",
        ratio(
            tracer.counter("explore.cell_hits"),
            tracer.counter("explore.points"),
        ),
        "ratio",
        "higher",
    ));
    m.push(metric(
        "explore.sim_runs",
        per_call("explore.sim_runs", "explore.contention"),
        "count",
        "lower",
    ));
    m.push(metric(
        "runtime.ns_per_event",
        ratio(
            total_ms("runtime.run") * 1e6,
            tracer.counter("runtime.events"),
        ),
        "ns",
        "lower",
    ));
    m.push(metric(
        "runtime.calendar_peak",
        per_call("runtime.peak", "runtime.run"),
        "count",
        "lower",
    ));
    m.push(metric(
        "trace.record_ratio",
        ratio(total_ms("trace.record"), total_ms("runtime.run_mix")),
        "ratio",
        "lower",
    ));
    let events = tracer.counter("trace.events");
    m.push(metric(
        "trace.export_ns_per_event",
        ratio(
            (total_ms("trace.chrome") + total_ms("trace.text")) * 1e6,
            events,
        ),
        "ns",
        "lower",
    ));
    m.push(metric(
        "trace.bytes_per_event",
        ratio(tracer.counter("trace.bytes"), events),
        "B",
        "lower",
    ));
    for (span, _) in TIMED_SPANS {
        m.push(metric(
            format!("{span}.calls"),
            stat(span).calls as f64,
            "count",
            "higher",
        ));
    }
    m
}
