//! The four workloads. Each request derives its inputs from the
//! benchmark seed and the request index, calls the library's public
//! API (timed), then checks every output against an independent
//! reference or invariant (untimed).

use crate::reference::{kernel_ms, scale};
use crate::spans::Tracer;
use amdrel::apps::runtime::{
    standard_mix, CONTENTION_LOAD, CONTENTION_NJOBS, CONTENTION_SEED, PROFILE_SEED,
    SOBEL_RUNTIME_DIM,
};
use amdrel::apps::{jpeg, ofdm, paper, sobel, Workload as AppInput};
use amdrel::coarsegrain::CdfgCoarseGrainMapping;
use amdrel::core::rng::SplitMix64;
use amdrel::core::{EnergyModel, MappingCache, PartitionResult, PartitioningEngine, Platform};
use amdrel::explore::{
    explore, DesignSpace, Evaluator, Exhaustive, ExploreConfig, ExploreReport, ObjectiveSet,
    RuntimeEvaluator, SearchStrategy, SimulatedAnnealing,
};
use amdrel::finegrain::CdfgFineGrainMapping;
use amdrel::minic::{self, CompiledProgram};
use amdrel::profiler::{AnalysisReport, Execution, Interpreter, WeightTable};
use amdrel::runtime::{
    policy_by_name, AppProfile, Fcfs, RuntimeReport, ShortestJobFirst, Simulation, SketchMode,
    WorkloadSpec,
};
use amdrel::trace::{chrome_trace, resource_gantt, text_timeline, EventKind, TraceBuffer};
use std::time::{Duration, Instant};

/// Sobel frame edge length of the design flow (the runtime profile's
/// size; the paper has no Sobel case study).
const SOBEL_DIM: usize = SOBEL_RUNTIME_DIM;
/// Evaluation budget of the simulated-annealing explore (the CLI default).
const SA_BUDGET: usize = 64;
/// Objectives of the contention-aware explore.
const CONTENTION_OBJECTIVES: &str = "cycles,area,energy,p95";
/// Dispatch policies in rotation order.
const POLICIES: [&str; 4] = ["fcfs", "sjf", "priority", "affinity"];
/// Gantt width of the text trace rendering (the CLI's).
const GANTT_WIDTH: usize = 72;

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's design-time flow, one case study per request.
    DesignFlow,
    /// One 200k-job simulation at 90% load per request.
    SimulateNominal,
    /// One 10k-job simulation at 400% load per request.
    SimulateOverload,
    /// One traced 10k-job simulation plus its rendering per request.
    TraceExport,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::DesignFlow,
        Kind::SimulateNominal,
        Kind::SimulateOverload,
        Kind::TraceExport,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DesignFlow => "design_flow",
            Kind::SimulateNominal => "simulate_nominal",
            Kind::SimulateOverload => "simulate_overload",
            Kind::TraceExport => "trace_export",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// What one work item of the workload is, as a throughput name.
    pub fn items_name(self) -> &'static str {
        match self {
            Kind::DesignFlow => "designs_per_s",
            Kind::SimulateNominal | Kind::SimulateOverload => "sim_jobs_per_s",
            Kind::TraceExport => "trace_events_per_s",
        }
    }

    /// Build the workload's fixed state (profiles, constraints).
    ///
    /// # Errors
    ///
    /// A profile or constraint that fails to build.
    pub fn setup(self, seed: u64) -> Result<Box<dyn Workload>, String> {
        let platform = Platform::paper(1500, 2);
        Ok(match self {
            Kind::DesignFlow => Box::new(DesignFlow::setup(seed, platform)?),
            Kind::SimulateNominal => Box::new(Simulate {
                seed,
                profiles: amdrel_bench::synthetic_tenants(32),
                platform,
                jobs: 200_000,
                load: 90,
                classes: &[("fcfs", "runtime.run")],
                sketch: SketchMode::Sketched,
                calendar_counters: true,
            }),
            Kind::SimulateOverload => Box::new(Simulate {
                seed,
                profiles: mix(&platform)?,
                platform,
                jobs: 10_000,
                load: 400,
                classes: &[
                    ("fcfs", "runtime.run.fcfs"),
                    ("sjf", "runtime.run.sjf"),
                    ("priority", "runtime.run.priority"),
                    ("affinity", "runtime.run.affinity"),
                ],
                sketch: SketchMode::Auto,
                calendar_counters: false,
            }),
            Kind::TraceExport => Box::new(TraceExport {
                seed,
                profiles: mix(&platform)?,
                platform,
                jobs: 10_000,
                load: 90,
            }),
        })
    }
}

/// One workload's requests.
pub trait Workload {
    /// Requests per rotation over the workload's request classes.
    fn rotation(&self) -> u64;
    /// Run request `index`.
    fn request(&self, index: u64, tracer: &Tracer) -> Outcome;
}

/// What one request produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Wall time of the library calls (input generation and checks
    /// excluded).
    pub elapsed: Duration,
    /// Work items completed: designs, simulated jobs or trace events.
    pub items: u64,
    /// Modelled cycle reduction of the partitioning, percent.
    pub reduction_pct: Option<f64>,
    /// Modelled p95 job latency of the request's simulation, cycles.
    pub p95_cycles: Option<u64>,
    /// Why the request failed (a library error or a failed check).
    pub failure: Option<String>,
}

/// The checked result of a successful request.
#[derive(Debug, Default)]
struct Checked {
    items: u64,
    reduction_pct: Option<f64>,
    p95_cycles: Option<u64>,
}

/// Time `produce`, then check its output under a `bench.check` span.
fn measure<O>(
    tracer: &Tracer,
    produce: impl FnOnce() -> Result<O, String>,
    check: impl FnOnce(O) -> Result<Checked, String>,
) -> Outcome {
    let start = Instant::now();
    let produced = produce();
    let elapsed = start.elapsed();
    match produced.and_then(|out| tracer.span("bench.check", || check(out))) {
        Ok(c) => Outcome {
            elapsed,
            items: c.items,
            reduction_pct: c.reduction_pct,
            p95_cycles: c.p95_cycles,
            failure: None,
        },
        Err(e) => Outcome {
            elapsed,
            items: 0,
            reduction_pct: None,
            p95_cycles: None,
            failure: Some(e),
        },
    }
}

/// The seed of request `index`: a pure function of both, so any
/// request can be replayed alone.
pub fn request_seed(seed: u64, index: u64) -> u64 {
    SplitMix64::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

fn mix(platform: &Platform) -> Result<Vec<AppProfile>, String> {
    standard_mix(platform).map_err(|e| format!("standard mix: {e}"))
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

// ---------------------------------------------------------------- design_flow

/// The paper's design-time flow, rotating OFDM → JPEG 256×256 →
/// Sobel 32×32.
struct DesignFlow {
    seed: u64,
    platform: Platform,
    /// Per case study (mix order: ofdm, jpeg, sobel): the other two
    /// standard-mix tenants and the candidate's priority.
    backgrounds: Vec<(Vec<AppProfile>, u8)>,
    /// Mean interarrival of the contention simulations.
    arrival: u64,
    sobel_constraint: u64,
}

/// One design request's inputs.
struct Case {
    name: &'static str,
    input: AppInput,
    constraint: u64,
    space: DesignSpace,
    /// Index into the standard mix.
    tenant: usize,
}

/// Everything a design request produced.
struct DesignOut {
    exec: Execution,
    result: PartitionResult,
    exhaustive: ExploreReport,
    sa: ExploreReport,
    contention: ExploreReport,
}

/// Compile `src` through the public frontend. Traced, each stage is a
/// span of its own: lex, parse and sema are called directly, then
/// `compile_to_ir` (which repeats them internally) and the CDFG build.
fn compile(src: &str, tracer: &Tracer) -> Result<CompiledProgram, String> {
    if !tracer.enabled() {
        return minic::compile(src, "main").map_err(|e| e.to_string());
    }
    let tokens = tracer
        .span("minic.lex", || minic::lexer::lex(src))
        .map_err(|e| e.to_string())?;
    let ast = tracer
        .span("minic.parse", || minic::parser::parse(&tokens))
        .map_err(|e| e.to_string())?;
    tracer
        .span("minic.sema", || minic::sema::check(&ast, "main"))
        .map_err(|e| e.to_string())?;
    let ir = tracer
        .span("minic.compile_to_ir", || minic::compile_to_ir(src, "main"))
        .map_err(|e| e.to_string())?;
    let cdfg = tracer.span("minic.cdfg", || minic::to_cdfg::program_to_cdfg(&ir));
    let ops: usize = cdfg.iter().map(|(_, bb)| bb.dfg.len()).sum();
    tracer.add("minic.cdfg_ops", ops as f64);
    Ok(CompiledProgram { ir, cdfg })
}

impl DesignFlow {
    fn setup(seed: u64, platform: Platform) -> Result<DesignFlow, String> {
        let mix = mix(&platform)?;
        let arrival = WorkloadSpec::mean_interarrival_for(&mix, CONTENTION_LOAD);
        let backgrounds = (0..mix.len())
            .map(|i| {
                let others = mix
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, p)| p.clone())
                    .collect();
                (others, mix[i].priority)
            })
            .collect();
        // Sobel has no published constraint: like the CLI without
        // --constraint, target half its all-FPGA cycles.
        let (program, exec) = sobel::workload(SOBEL_DIM, PROFILE_SEED)
            .compile_and_profile()
            .map_err(|e| format!("sobel: {e}"))?;
        let analysis =
            AnalysisReport::analyze(&program.cdfg, &exec.block_counts, &WeightTable::paper());
        let initial = PartitioningEngine::new(&program.cdfg, &analysis, &platform)
            .run(u64::MAX)
            .map_err(|e| format!("sobel: {e}"))?
            .initial_cycles;
        Ok(DesignFlow {
            seed,
            platform,
            backgrounds,
            arrival,
            sobel_constraint: (initial / 2).max(1),
        })
    }

    fn case(&self, index: u64) -> Case {
        let s = request_seed(self.seed, index);
        match index % 3 {
            0 => Case {
                name: "ofdm",
                input: ofdm::workload(s),
                constraint: paper::OFDM_CONSTRAINT,
                space: ofdm::design_space(),
                tenant: 0,
            },
            1 => Case {
                name: "jpeg",
                input: jpeg::workload(jpeg::PAPER_DIM, s),
                constraint: paper::JPEG_CONSTRAINT,
                space: jpeg::design_space(),
                tenant: 1,
            },
            _ => Case {
                name: "sobel",
                input: sobel::workload(SOBEL_DIM, s),
                constraint: self.sobel_constraint,
                space: sobel::design_space(self.sobel_constraint),
                tenant: 2,
            },
        }
    }

    fn produce(&self, case: &Case, s: u64, tracer: &Tracer) -> Result<DesignOut, String> {
        let program = compile(&case.input.source, tracer)?;
        let cdfg = &program.cdfg;
        let exec = tracer
            .span("profiler.interp", || {
                Interpreter::new(&program.ir).run(&case.input.input_refs())
            })
            .map_err(|e| e.to_string())?;
        tracer.add("profiler.instrs", exec.instrs_retired as f64);
        let analysis = tracer.span("profiler.analysis", || {
            AnalysisReport::analyze(cdfg, &exec.block_counts, &WeightTable::paper())
        });
        if tracer.enabled() {
            // The engine maps through its cache; these direct calls time
            // each fabric mapper on its own.
            tracer
                .span("finegrain.map", || {
                    CdfgFineGrainMapping::map(cdfg, &self.platform.fpga)
                })
                .map_err(|e| e.to_string())?;
            tracer
                .span("coarsegrain.map", || {
                    CdfgCoarseGrainMapping::map(
                        cdfg,
                        &self.platform.datapath,
                        &self.platform.scheduler,
                    )
                })
                .map_err(|e| e.to_string())?;
        }
        let cache = MappingCache::new();
        let result = tracer
            .span("core.engine", || {
                PartitioningEngine::new(cdfg, &analysis, &self.platform)
                    .with_mapping_cache(&cache)
                    .run(case.constraint)
            })
            .map_err(|e| e.to_string())?;
        let evaluator = || {
            Evaluator::new(
                case.name,
                cdfg,
                &analysis,
                &self.platform,
                EnergyModel::default(),
                &cache,
            )
        };
        let config = ExploreConfig {
            seed: s,
            eval_budget: SA_BUDGET,
            jobs: 0,
        };
        let run = |name: &'static str, eval: &Evaluator<'_>, strategy: &dyn SearchStrategy| {
            tracer
                .span(name, || explore(eval, &case.space, strategy, &config))
                .map_err(|e| e.to_string())
        };
        let exhaustive = run("explore.static", &evaluator(), &Exhaustive)?;
        let sa = run(
            "explore.static",
            &evaluator(),
            &SimulatedAnnealing::default(),
        )?;
        let (background, priority) = &self.backgrounds[case.tenant];
        let runtime = RuntimeEvaluator::new(background.clone(), Box::new(ShortestJobFirst))
            .with_priority(*priority)
            .with_seed(CONTENTION_SEED)
            .with_njobs(CONTENTION_NJOBS)
            .with_load(CONTENTION_LOAD)
            .with_arrival(self.arrival);
        let objectives = ObjectiveSet::parse(CONTENTION_OBJECTIVES)?;
        let contention_eval = evaluator()
            .with_objectives(objectives)
            .with_runtime(&runtime);
        let contention = run("explore.contention", &contention_eval, &Exhaustive)?;

        for report in [&exhaustive, &sa, &contention] {
            tracer.add("explore.points", report.stats.points_evaluated as f64);
            tracer.add("explore.cell_hits", report.stats.cell_hits as f64);
        }
        tracer.add("explore.sim_runs", contention.stats.sim_runs as f64);
        let cache_stats = cache.stats();
        tracer.add("core.cache_hits", cache_stats.hits() as f64);
        tracer.add(
            "core.cache_lookups",
            (cache_stats.hits() + cache_stats.misses()) as f64,
        );
        tracer.add("core.reduction_pct", result.reduction_percent());
        Ok(DesignOut {
            exec,
            result,
            exhaustive,
            sa,
            contention,
        })
    }

    fn check(case: &Case, out: DesignOut) -> Result<Checked, String> {
        let exec = &out.exec;
        let global = |name: &str| {
            exec.global(name)
                .ok_or_else(|| format!("{}: global {name} missing", case.name))
        };
        // The first input array: the OFDM payload bits or the image.
        let data = &case.input.inputs[0].1;
        match case.tenant {
            0 => {
                let frame = ofdm::transmit(data);
                ensure(exec.return_value == Some(frame.checksum), || {
                    "ofdm: checksum differs from the reference".into()
                })?;
                ensure(global("out_re")? == &frame.re[..], || {
                    "ofdm: out_re differs".into()
                })?;
                ensure(global("out_im")? == &frame.im[..], || {
                    "ofdm: out_im differs".into()
                })?;
            }
            1 => {
                let expected = jpeg::encode(data, jpeg::PAPER_DIM);
                ensure(exec.return_value == Some(expected.bit_count), || {
                    "jpeg: bit count differs from the reference".into()
                })?;
                let bits = global("bitstream")?;
                ensure(
                    bits.get(..expected.bits.len()) == Some(&expected.bits[..]),
                    || "jpeg: bitstream differs from the reference".into(),
                )?;
            }
            _ => {
                let threshold = case.input.inputs[1].1[0];
                let expected = sobel::detect(data, SOBEL_DIM, threshold);
                ensure(exec.return_value == Some(expected.count), || {
                    "sobel: edge count differs from the reference".into()
                })?;
                ensure(global("edges")? == &expected.edges[..], || {
                    "sobel: edges differ from the reference".into()
                })?;
            }
        }
        let r = &out.result;
        ensure(r.final_cycles() <= r.initial_cycles, || {
            format!(
                "{}: final {} > initial {}",
                case.name,
                r.final_cycles(),
                r.initial_cycles
            )
        })?;
        ensure(r.met == (r.final_cycles() <= case.constraint), || {
            format!(
                "{}: met={} disagrees with final {} vs constraint {}",
                case.name,
                r.met,
                r.final_cycles(),
                case.constraint
            )
        })?;
        let ex = &out.exhaustive;
        ensure(ex.stats.engine_runs == ex.space_cells as u64, || {
            format!(
                "{}: exhaustive ran {} engines over {} cells",
                case.name, ex.stats.engine_runs, ex.space_cells
            )
        })?;
        let best = |r: &ExploreReport| r.best_cycles().map(|p| p.cycles);
        let (ex_best, sa_best) = (best(ex), best(&out.sa));
        ensure(
            matches!((ex_best, sa_best), (Some(e), Some(s)) if e <= s),
            || {
                format!(
                    "{}: exhaustive best {ex_best:?} worse than SA best {sa_best:?}",
                    case.name
                )
            },
        )?;
        let p95 = out
            .contention
            .best_p95()
            .and_then(|p| p.contention)
            .map(|c| c.p95_latency)
            .ok_or_else(|| format!("{}: contention frontier has no p95", case.name))?;
        Ok(Checked {
            items: 1,
            reduction_pct: Some(r.reduction_percent()),
            p95_cycles: Some(p95),
        })
    }
}

impl Workload for DesignFlow {
    fn rotation(&self) -> u64 {
        3
    }

    fn request(&self, index: u64, tracer: &Tracer) -> Outcome {
        let case = self.case(index);
        let s = request_seed(self.seed, index);
        measure(
            tracer,
            || self.produce(&case, s, tracer),
            |out| DesignFlow::check(&case, out),
        )
    }
}

// ------------------------------------------------------- simulate_nominal/overload

/// One seeded simulation per request, rotating over dispatch policies.
struct Simulate {
    seed: u64,
    platform: Platform,
    profiles: Vec<AppProfile>,
    jobs: usize,
    load: u64,
    /// `(policy, span name of its traced Simulation::run)` in rotation
    /// order.
    classes: &'static [(&'static str, &'static str)],
    sketch: SketchMode,
    /// Record calendar-queue counters for the traced runs.
    calendar_counters: bool,
}

impl Simulate {
    fn spec(&self, index: u64) -> WorkloadSpec {
        WorkloadSpec::uniform(
            request_seed(self.seed, index),
            self.jobs,
            &self.profiles,
            self.load,
        )
    }

    /// Untraced, the job stream is generated lazily inside `run_mix`;
    /// traced, generation and the run are timed apart.
    fn run(&self, spec: &WorkloadSpec, class: usize, tracer: &Tracer) -> RuntimeReport {
        let (policy, span) = self.classes[class];
        let policy = policy_by_name(policy).expect("the rotation names built-in policies");
        let sim = Simulation::new(&self.platform)
            .profiles(&self.profiles)
            .policy(policy.as_ref())
            .sketch_mode(self.sketch);
        if !tracer.enabled() {
            return sim.run_mix(spec);
        }
        let jobs = tracer.span("runtime.generate", || spec.generate(&self.profiles));
        let report = tracer.span(span, || sim.run(&jobs));
        if self.calendar_counters {
            tracer.add("runtime.events", report.queue.events as f64);
            tracer.add("runtime.rehashes", report.queue.rehashes as f64);
            tracer.add("runtime.peak", report.queue.peak_occupancy as f64);
        }
        report
    }
}

fn check_report(report: &RuntimeReport, jobs: usize) -> Result<Checked, String> {
    ensure(
        report.arrived() == jobs as u64 && report.completed() + report.rejected() == jobs as u64,
        || {
            format!(
                "{} arrived, {} completed + {} rejected, of {jobs} jobs",
                report.arrived(),
                report.completed(),
                report.rejected()
            )
        },
    )?;
    ensure(report.p95_latency >= report.p50_latency, || {
        format!("p95 {} < p50 {}", report.p95_latency, report.p50_latency)
    })?;
    Ok(Checked {
        items: report.completed(),
        reduction_pct: None,
        p95_cycles: Some(report.p95_latency),
    })
}

impl Workload for Simulate {
    fn rotation(&self) -> u64 {
        self.classes.len() as u64
    }

    fn request(&self, index: u64, tracer: &Tracer) -> Outcome {
        let spec = self.spec(index);
        let class = (index % self.rotation()) as usize;
        measure(
            tracer,
            || Ok(self.run(&spec, class, tracer)),
            |report| check_report(&report, self.jobs),
        )
    }
}

// ---------------------------------------------------------------- trace_export

/// The `amdrel simulate --trace` shape: a traced standard-mix run,
/// rendered alternately as a Chrome trace and as text.
struct TraceExport {
    seed: u64,
    platform: Platform,
    profiles: Vec<AppProfile>,
    jobs: usize,
    load: u64,
}

enum Rendered {
    Chrome(String),
    Text { timeline: String, gantt: String },
}

struct TraceOut {
    spec: WorkloadSpec,
    report: RuntimeReport,
    events: Vec<amdrel::trace::TraceEvent>,
    rendered: Rendered,
}

fn count(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

impl TraceExport {
    fn sim(&self) -> Simulation<'_> {
        Simulation::new(&self.platform)
            .profiles(&self.profiles)
            .policy(&Fcfs)
    }

    fn produce(&self, index: u64, tracer: &Tracer) -> TraceOut {
        let spec = WorkloadSpec::uniform(
            request_seed(self.seed, index),
            self.jobs,
            &self.profiles,
            self.load,
        );
        let buffer = TraceBuffer::new();
        let report = tracer.span("trace.record", || self.sim().trace(&buffer).run_mix(&spec));
        let events = buffer.take();
        let rendered = if index.is_multiple_of(2) {
            Rendered::Chrome(tracer.span("trace.chrome", || chrome_trace(&events)))
        } else {
            tracer.span("trace.text", || Rendered::Text {
                timeline: text_timeline(&events),
                gantt: resource_gantt(&events, GANTT_WIDTH),
            })
        };
        let bytes = match &rendered {
            Rendered::Chrome(s) => s.len(),
            Rendered::Text { timeline, gantt } => timeline.len() + gantt.len(),
        };
        tracer.add("trace.events", events.len() as f64);
        tracer.add("trace.bytes", bytes as f64);
        TraceOut {
            spec,
            report,
            events,
            rendered,
        }
    }

    fn check(&self, out: TraceOut, tracer: &Tracer) -> Result<Checked, String> {
        // Observer rule: the sink must not change the outcome.
        let untraced = tracer.span("runtime.run_mix", || self.sim().run_mix(&out.spec));
        ensure(untraced == out.report, || {
            "the traced run's report differs from the untraced run's".into()
        })?;
        let n = out.events.len();
        let begins = out
            .events
            .iter()
            .filter(|e| e.kind == EventKind::JobBegin)
            .count();
        let ends = out
            .events
            .iter()
            .filter(|e| e.kind == EventKind::JobEnd)
            .count();
        ensure(begins > 0 && begins == ends, || {
            format!("{begins} job begins vs {ends} job ends recorded")
        })?;
        let (records, b, e) = match &out.rendered {
            Rendered::Chrome(json) => (
                count(json, "\"cat\":\"sim\"") + count(json, "\"cat\":\"job\""),
                count(json, "\"ph\":\"b\""),
                count(json, "\"ph\":\"e\""),
            ),
            Rendered::Text { timeline, gantt } => {
                ensure(!gantt.is_empty(), || "empty resource gantt".into())?;
                let kinds: Vec<&str> = timeline
                    .lines()
                    .skip(1)
                    .filter_map(|l| l.split_whitespace().nth(2))
                    .collect();
                let of = |k: &str| kinds.iter().filter(|&&x| x == k).count();
                (kinds.len(), of("begin"), of("end"))
            }
        };
        ensure(records == n && b == begins && e == ends, || {
            format!("rendered {records} records ({b} begins, {e} ends) for {n} events ({begins} begins)")
        })?;
        let mut checked = check_report(&out.report, self.jobs)?;
        checked.items = n as u64;
        Ok(checked)
    }
}

impl Workload for TraceExport {
    fn rotation(&self) -> u64 {
        2
    }

    fn request(&self, index: u64, tracer: &Tracer) -> Outcome {
        measure(
            tracer,
            || Ok(self.produce(index, tracer)),
            |out| self.check(out, tracer),
        )
    }
}

// ---------------------------------------------------------------- probes

/// Wall time of an exhaustive static explore of OFDM at `jobs`
/// workers (0 = automatic), divided as `jobs=1` over `jobs=0`, summed
/// over `reps` alternating pairs, each with a cold mapping cache (times
/// scaled to reference speed).
///
/// # Errors
///
/// A compile, profile or explore failure.
pub fn parallel_speedup(seed: u64, reps: u32, tracer: &Tracer) -> Result<f64, String> {
    let platform = Platform::paper(1500, 2);
    let input = ofdm::workload(request_seed(seed, 0));
    let (program, exec) = input.compile_and_profile().map_err(|e| e.to_string())?;
    let analysis =
        AnalysisReport::analyze(&program.cdfg, &exec.block_counts, &WeightTable::paper());
    let space = ofdm::design_space();
    let time = |jobs: usize| -> Result<f64, String> {
        let cache = MappingCache::new();
        let eval = Evaluator::new(
            "ofdm",
            &program.cdfg,
            &analysis,
            &platform,
            EnergyModel::default(),
            &cache,
        );
        let config = ExploreConfig {
            jobs,
            ..ExploreConfig::default()
        };
        let start = Instant::now();
        tracer
            .span("probe.explore", || {
                explore(&eval, &space, &Exhaustive, &config)
            })
            .map_err(|e| e.to_string())?;
        Ok(start.elapsed().as_secs_f64() * scale(kernel_ms()))
    };
    let (mut serial, mut parallel) = (0.0, 0.0);
    for _ in 0..reps {
        serial += time(1)?;
        parallel += time(0)?;
    }
    Ok(serial / parallel)
}

/// Geometric mean over the four policies of `run_mix` wall time at
/// 10k jobs divided by 5k jobs (each summed over `reps` runs), standard
/// mix at 400% load: about 4 while dispatch is quadratic in the queue
/// depth, about 2 once it is O(log n). Times are scaled to reference
/// speed.
///
/// # Errors
///
/// A standard-mix profile that fails to build.
pub fn doubling_ratio(seed: u64, reps: u32, tracer: &Tracer) -> Result<f64, String> {
    let platform = Platform::paper(1500, 2);
    let profiles = mix(&platform)?;
    let mut log_sum = 0.0;
    for name in POLICIES {
        let policy = policy_by_name(name).expect("built-in policy");
        let sim = Simulation::new(&platform)
            .profiles(&profiles)
            .policy(policy.as_ref());
        let time = |jobs: usize| {
            let spec = WorkloadSpec::uniform(request_seed(seed, 0), jobs, &profiles, 400);
            let start = Instant::now();
            tracer.span("probe.run_mix", || std::hint::black_box(sim.run_mix(&spec)));
            start.elapsed().as_secs_f64() * scale(kernel_ms())
        };
        let (mut full, mut half) = (0.0, 0.0);
        for _ in 0..reps {
            full += time(10_000);
            half += time(5_000);
        }
        log_sum += (full / half).ln();
    }
    Ok((log_sum / POLICIES.len() as f64).exp())
}
