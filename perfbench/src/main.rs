//! The benchmark command.
//!
//! ```text
//! perfbench --workload eval-quick|paper-graph|replay-sweep
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs the workload again and again, each time in a fresh child
//! process (so peak memory and CPU time are per run), for about
//! `--seconds`. While a run goes on, the parent's host meter times fixed
//! kernels, and the run's host times are scaled to the reference host
//! speed (see [`coolpim_perfbench::calib`]). `--trace 0` reports the end-to-end
//! metrics, the median over the runs; `--trace 1` alternates untraced and
//! traced runs and reports the per-layer split. Every cell of every run
//! is checked; the last stdout line is the JSON result.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use coolpim_perfbench::calib::HostMeter;
use coolpim_perfbench::metrics::{
    end_to_end, median, peak_rss_mib, per_layer, process_cpu_s, result_line, unit_of, END_TO_END,
    PER_LAYER,
};
use coolpim_perfbench::runs::{child_output, medians, normalise, parse_child, ChildRun, Tally};
use coolpim_perfbench::workload::{run, Bench, Plan};

const USAGE: &str = "usage: perfbench --workload eval-quick|paper-graph|replay-sweep \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run the workload once in this process and report on stdout
    /// (what the parent spawns).
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut bench = None;
    let mut args = Args {
        bench: Bench::EvalQuick,
        seed: 42,
        seconds: 40,
        trace: false,
        child: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                bench = Some(Bench::from_name(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.bench = bench.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.child {
        if let Err(e) = child(&args) {
            eprintln!("perfbench child: {e}");
            std::process::exit(1);
        }
        return;
    }
    std::process::exit(parent(&args));
}

/// Runs the workload once and writes one `metric` line per figure and
/// one `cell` line per co-simulated cell.
fn child(args: &Args) -> Result<(), String> {
    let plan = Plan::new(args.bench, args.seed);
    let cpu0 = process_cpu_s()?;
    let report = run(&plan, args.trace);
    let cpu_s = process_cpu_s()? - cpu0;
    let mut figures = end_to_end(&report, cpu_s, peak_rss_mib()?);
    if args.trace {
        figures.extend(per_layer(&report));
    }
    print!("{}", child_output(&figures, &report.cells));
    Ok(())
}

fn spawn_child(args: &Args, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", "--workload", args.bench.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    parse_child(&String::from_utf8_lossy(&out.stdout))
}

fn parent(args: &Args) -> i32 {
    let mut tally = Tally::new(Plan::new(args.bench, args.seed).cell_count());
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut meter = HostMeter::new();
    let mut scales = Vec::new();
    // One child run, its host times scaled by the host's speed during it.
    let mut measured = |traced: bool| {
        let (run, samples) = meter.during(|| spawn_child(args, traced));
        run.and_then(|mut run| {
            let wall_s = run.metrics.get("wall_s").copied().unwrap_or(f64::NAN);
            let scale = normalise(&mut run, &samples)?;
            println!(
                "# run {}{}: wall_s {wall_s:.4} s as measured; host speed vs reference: \
                 set-up {:.4}, cells {:.4}, whole {:.4}",
                scales.len() + 1,
                if traced { " (traced)" } else { "" },
                scale.setup,
                scale.cells,
                scale.whole,
            );
            scales.push(scale.whole);
            Ok(run)
        })
    };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut longest = Duration::ZERO;
    // Runs until another round would overrun the budget; always at
    // least one round.
    loop {
        let round = Instant::now();
        let run = measured(false);
        tally.absorb("untraced", &run);
        untraced.extend(run.ok());
        if args.trace {
            let run = measured(true);
            tally.absorb("traced", &run);
            traced.extend(run.ok());
        }
        longest = longest.max(round.elapsed());
        if started.elapsed() + longest > budget {
            break;
        }
    }
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        eprintln!("perfbench: no run completed; nothing measured");
        return 1;
    }

    let plain = medians(untraced.iter());
    let defs = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut figures = if args.trace {
        medians(traced.iter())
    } else {
        plain.clone()
    };
    figures.insert(
        "tracing_overhead_pct".into(),
        100.0 * (figures["wall_s"] / plain["wall_s"] - 1.0),
    );
    figures.insert(
        "fail_ratio".into(),
        tally.failed as f64 / tally.attempted as f64,
    );
    let mut correct = tally.failed == 0;
    let mut metrics = Vec::new();
    for def in defs {
        match figures.get(def.name) {
            Some(v) if v.is_finite() => metrics.push((def.name, *v)),
            v => {
                eprintln!("perfbench: metric {} is {v:?}", def.name);
                correct = false;
                metrics.push((def.name, 0.0));
            }
        }
    }
    println!(
        "# {} seed {}: {} untraced + {} traced runs in {:.1} s, {} of {} cells failed",
        args.bench.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        started.elapsed().as_secs_f64(),
        tally.failed,
        tally.attempted
    );
    println!(
        "# host speed vs reference, median over runs: {:.4}; \
         host times below are scaled to the reference speed",
        median(&scales)
    );
    for (name, value) in &metrics {
        println!("# {name:<26} {value:>18.6} {}", unit_of(name).unwrap_or(""));
    }
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    0
}
