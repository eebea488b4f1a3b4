//! Print the paper-profile reproduction, the platform sweeps and the
//! ablation tables.
//!
//! * Tables 2/3 regenerated from the authors' own Table 1 profiles
//!   (synthesised CDFGs carrying the published `exec_freq`/`bb_weight`
//!   pairs), removing our frontend and applications from the loop;
//! * FPGA area vs. cycles on OFDM, locating where the all-FPGA mapping
//!   meets the constraint on its own (the flow's step-2 exit);
//! * CGC count and geometry vs. kernel cycles in the CGC datapath;
//! * Figure 3 temporal-partition counts on synthetic DFGs;
//! * ablations of CGC chaining, shared-memory communication cost,
//!   energy budgets, scheduler priority and reconfiguration policy.
//!
//! The claims behind each table are asserted in `tests/ablations.rs`
//! and `tests/paper_tables.rs`; this example only prints. Tables 1–3 for
//! our own applications print from the `ofdm_transmitter` and
//! `jpeg_encoder` examples.
//!
//! Run with: `cargo run --release --example ablations`

use amdrel_apps::paper;
use amdrel_bench::{jpeg_small_prepared, ofdm_prepared, Prepared};
use amdrel_cdfg::synth::{random_dfg, SynthConfig};
use amdrel_coarsegrain::{schedule_dfg, CgcDatapath, CgcGeometry, Priority, SchedulerConfig};
use amdrel_core::{
    format_paper_table, partition_for_energy, run_grid, CommModel, EnergyModel, EngineConfig,
    OpEnergyTable, PartitioningEngine, Platform,
};
use amdrel_finegrain::{temporal_partition, FpgaDevice, ReconfigPolicy};
use amdrel_profiler::{AnalysisReport, WeightTable};

type Res = Result<(), Box<dyn std::error::Error>>;

fn heading(title: &str) {
    println!("\n========== {title} ==========");
}

fn paper_profile() -> Res {
    heading("Paper-profile reproduction (engine driven by the authors' Table 1)");
    // Table 1 names OFDM BBs up to 42 and JPEG BBs up to 22, so each
    // synthetic CDFG is sized to the largest listed id; the extra
    // blocks are light glue.
    for (name, rows, blocks, constraint) in [
        (
            "OFDM (paper profile)",
            &paper::OFDM_TABLE1[..],
            44,
            paper::OFDM_CONSTRAINT,
        ),
        (
            "JPEG (paper profile)",
            &paper::JPEG_TABLE1[..],
            24,
            paper::JPEG_CONSTRAINT,
        ),
    ] {
        let profile = paper::synthesize_profile(rows, blocks);
        let analysis =
            AnalysisReport::analyze(&profile.cdfg, &profile.exec_freq, &WeightTable::paper());
        let grid = run_grid(
            name,
            &profile.cdfg,
            &analysis,
            &Platform::paper(1500, 2),
            &[1500, 5000],
            &[CgcDatapath::two_2x2(), CgcDatapath::three_2x2()],
            constraint,
        )?;
        println!("{}", format_paper_table(&grid));
    }
    Ok(())
}

fn area_sweep(ofdm: &Prepared) -> Res {
    heading("Area sweep (OFDM, three 2x2 CGCs, constraint 60000)");
    println!(
        "{:>8} {:>12} {:>12} {:>8} {:>18}",
        "A_FPGA", "initial", "final", "moves", "met w/o partition?"
    );
    for area in [1200u64, 1500, 2500, 5000, 10_000, 20_000, 40_000, 80_000] {
        let r = PartitioningEngine::new(
            &ofdm.program.cdfg,
            &ofdm.analysis,
            &Platform::paper(area, 3),
        )
        .run(paper::OFDM_CONSTRAINT)?;
        println!(
            "{:>8} {:>12} {:>12} {:>8} {:>18}",
            area,
            r.initial_cycles,
            r.final_cycles(),
            r.moves.len(),
            if r.met_without_partitioning {
                "yes (step-2 exit)"
            } else {
                "no"
            },
        );
    }
    Ok(())
}

fn cgc_sweep(apps: &[Prepared]) {
    heading("CGC sweep: kernel cycles in CGC");
    let configs = [1usize, 2, 3, 4, 6]
        .iter()
        .map(|&k| (format!("{k}x 2x2"), CgcGeometry::TWO_BY_TWO, k))
        .chain([
            ("1x 3x3".to_owned(), CgcGeometry::new(3, 3), 1),
            ("2x 3x3".to_owned(), CgcGeometry::new(3, 3), 2),
            ("1x 4x4".to_owned(), CgcGeometry::new(4, 4), 1),
        ]);
    print!("{:<12}", "datapath");
    for app in apps {
        print!(" {:>26}", app.name);
    }
    println!();
    for (label, geometry, count) in configs {
        let dp = CgcDatapath::uniform(count, geometry);
        print!("{label:<12}");
        for app in apps {
            print!(
                " {:>26}",
                app.kernel_cgc_cycles(&dp, &SchedulerConfig::default())
            );
        }
        println!();
    }
}

fn fig3_partition_counts() -> Res {
    heading("Figure 3 algorithm: partition counts");
    println!("{:>8} {:>12} {:>12}", "nodes", "parts@1500", "parts@5000");
    for nodes in [32usize, 128, 512, 2048] {
        let dfg = random_dfg(
            7,
            &SynthConfig {
                nodes,
                ..SynthConfig::default()
            },
        );
        let p1500 = temporal_partition(&dfg, &FpgaDevice::new(1500))?;
        let p5000 = temporal_partition(&dfg, &FpgaDevice::new(5000))?;
        println!("{:>8} {:>12} {:>12}", nodes, p1500.len(), p5000.len());
    }
    Ok(())
}

fn chaining(apps: &[Prepared]) {
    heading("Ablation: CGC chaining");
    println!(
        "{:<28} {:>12} {:>14} {:>14} {:>8}",
        "app", "datapath", "CGC cyc (on)", "CGC cyc (off)", "speedup"
    );
    let on = SchedulerConfig::default();
    let off = SchedulerConfig {
        chaining: false,
        ..on
    };
    for app in apps {
        for dp in [CgcDatapath::two_2x2(), CgcDatapath::three_2x2()] {
            let with = app.kernel_cgc_cycles(&dp, &on);
            let without = app.kernel_cgc_cycles(&dp, &off);
            println!(
                "{:<28} {:>12} {:>14} {:>14} {:>7.2}x",
                app.name,
                dp.describe().replace(" CGCs", ""),
                with,
                without,
                without as f64 / with.max(1) as f64
            );
        }
    }
}

fn comm_cost(ofdm: &Prepared) -> Res {
    heading("Ablation: communication cost (OFDM, A=1500, three 2x2)");
    println!(
        "{:>10} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "cyc/word", "final", "t_comm", "met", "final(skip)", "moves(skip)"
    );
    for cycles_per_word in [0u64, 1, 2, 4, 8, 16, 32] {
        let platform = Platform::paper(1500, 3).with_comm(CommModel {
            cycles_per_word,
            setup_cycles: 2,
        });
        let engine = PartitioningEngine::new(&ofdm.program.cdfg, &ofdm.analysis, &platform);
        let faithful = engine.run(paper::OFDM_CONSTRAINT)?;
        let skipping = engine
            .with_config(EngineConfig {
                skip_unprofitable: true,
            })
            .run(paper::OFDM_CONSTRAINT)?;
        println!(
            "{:>10} {:>12} {:>12} {:>10} {:>12} {:>10}",
            cycles_per_word,
            faithful.final_cycles(),
            faithful.breakdown.t_comm,
            if faithful.met { "yes" } else { "NO" },
            skipping.final_cycles(),
            skipping.moves.len(),
        );
    }
    Ok(())
}

fn energy(ofdm: &Prepared) -> Res {
    heading("Ablation: energy budgets (OFDM, A=1500, three 2x2)");
    let platform = Platform::paper(1500, 3);
    let (cdfg, analysis) = (&ofdm.program.cdfg, &ofdm.analysis);
    let floor = partition_for_energy(cdfg, analysis, &platform, &EnergyModel::default(), 0)?;
    let ceiling = floor.initial.total();
    let floor_e = floor.energy.total();
    println!(
        "all-FPGA {ceiling} units, floor {floor_e} units ({:.1}% max reduction)",
        floor.reduction_percent()
    );
    println!(
        "{:>12} {:>8} {:>12} {:>6}",
        "budget", "moves", "final", "met"
    );
    for pct in [95u64, 80, 60, 40, 20, 5] {
        let budget = floor_e + (ceiling - floor_e) * pct / 100;
        let r = partition_for_energy(cdfg, analysis, &platform, &EnergyModel::default(), budget)?;
        println!(
            "{:>12} {:>8} {:>12} {:>6}",
            budget,
            r.moves.len(),
            r.energy.total(),
            if r.met { "yes" } else { "NO" }
        );
    }

    println!(
        "\nASIC/LUT per-op energy ratio sweep (budget = floor, i.e. move-everything-that-pays):"
    );
    println!(
        "{:>8} {:>12} {:>8} {:>10}",
        "ratio", "final", "moves", "red%"
    );
    for ratio in [1u64, 2, 4, 8, 16] {
        let model = EnergyModel {
            cgc: OpEnergyTable {
                alu: 8 / ratio.min(8),
                mul: 40 / ratio.min(40),
                div: 160 / ratio.min(160),
                mem: 12,
            },
            ..EnergyModel::default()
        };
        let r = partition_for_energy(cdfg, analysis, &platform, &model, 0)?;
        println!(
            "{:>7}x {:>12} {:>8} {:>9.1}%",
            ratio,
            r.energy.total(),
            r.moves.len(),
            r.reduction_percent()
        );
    }
    Ok(())
}

fn priority(apps: &[Prepared]) {
    heading("Ablation: scheduler priority (kernel CGC cycles, two 2x2)");
    let priorities = [Priority::LongestPath, Priority::Mobility, Priority::Fifo];
    println!(
        "{:<28} {:>14} {:>14} {:>14}",
        "app", "LongestPath", "Mobility", "Fifo"
    );
    let dp = CgcDatapath::two_2x2();
    for app in apps {
        print!("{:<28}", app.name);
        for priority in priorities {
            let cfg = SchedulerConfig {
                chaining: true,
                priority,
            };
            let cycles: u64 = app
                .analysis
                .kernels()
                .iter()
                .map(|&k| {
                    let dfg = &app.program.cdfg.block(k).dfg;
                    let freq = app.analysis.block(k).exec_freq;
                    schedule_dfg(dfg, &dp, &cfg).expect("schedules").length() * freq
                })
                .sum();
            print!(" {cycles:>14}");
        }
        println!();
    }
}

fn reconfig(ofdm: &Prepared, jpeg: &Prepared) -> Res {
    heading("Ablation: reconfiguration policy");
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>8}",
        "app/policy", "A_FPGA", "initial", "final", "red%"
    );
    // JPEG runs at 64x64, so its constraint scales by 1/16.
    for (app, constraint) in [
        (ofdm, paper::OFDM_CONSTRAINT),
        (jpeg, paper::JPEG_CONSTRAINT / 16),
    ] {
        for policy in [ReconfigPolicy::PerExecution, ReconfigPolicy::Resident] {
            for area in [1500u64, 5000] {
                let mut platform = Platform::paper(area, 3);
                platform.fpga.reconfig_policy = policy;
                let r = PartitioningEngine::new(&app.program.cdfg, &app.analysis, &platform)
                    .run(constraint)?;
                println!(
                    "{:<28} {:>10} {:>12} {:>12} {:>7.1}%",
                    format!("{} {:?}", app.name, policy),
                    area,
                    r.initial_cycles,
                    r.final_cycles(),
                    r.reduction_percent()
                );
            }
        }
    }
    Ok(())
}

fn main() -> Res {
    let apps = [ofdm_prepared(), jpeg_small_prepared()];
    paper_profile()?;
    area_sweep(&apps[0])?;
    cgc_sweep(&apps);
    fig3_partition_counts()?;
    chaining(&apps);
    comm_cost(&apps[0])?;
    energy(&apps[0])?;
    priority(&apps);
    reconfig(&apps[0], &apps[1])
}
