//! The three benchmark workloads, each run once per call, untraced or
//! traced.
//!
//! An untraced run drives the program only through its public entry
//! points (`GraphSpec::build`, `run_matrix`, `RecordingSource`,
//! `WorkloadTrace::{encode,decode}`, `run_source_sweep`). A traced run
//! replaces the two pools with an equivalent one built here, so every
//! cell can be wrapped in the [`crate::probe`] adapters and timed.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use coolpim_core::cosim::CoSimConfig;
use coolpim_core::experiment::{run_matrix, run_source_sweep, SweepCell};
use coolpim_core::{CoSim, CoSimResult, Policy};
use coolpim_gpu::source::InstructionSource;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::{make_kernel, Workload};
use coolpim_thermal::solver::TransientState;
use coolpim_thermal::HmcThermalModel;
use coolpim_trace::{RecordingSource, TraceReplaySource, WorkloadTrace};

use crate::check::{cell_error, mismatch, roundtrip_error, trace_digest, Counters};
use crate::probe::{CtrlTally, SolveTally, SourceTally, TimedController, TimedSolve, TimedSource};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// The Figs. 10–13 matrix (10 workloads × 5 policies) on the
    /// 2^16-vertex quick-scale graph.
    EvalQuick,
    /// The paper-scale graph build, then `kcore` under all 5 policies.
    PaperGraph,
    /// Record `pagerank` once, then replay it over the 8-cell sweep.
    ReplaySweep,
}

impl Bench {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Bench; 3] = [Bench::EvalQuick, Bench::PaperGraph, Bench::ReplaySweep];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::EvalQuick => "eval-quick",
            Bench::PaperGraph => "paper-graph",
            Bench::ReplaySweep => "replay-sweep",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|b| b.name() == name)
    }
}

/// Everything one run of a workload needs, fixed by the workload and
/// the seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub bench: Bench,
    /// The graph every cell runs on (its seed is the workload seed).
    pub graph: GraphSpec,
    /// Matrix rows (`eval-quick`, `paper-graph`).
    pub workloads: Vec<Workload>,
    /// Matrix columns (`eval-quick`, `paper-graph`).
    pub policies: Vec<Policy>,
    /// The recorded workload and the policy it is recorded under
    /// (`replay-sweep`).
    pub record: (Workload, Policy),
    /// The replayed sweep (`replay-sweep`).
    pub cells: Vec<SweepCell>,
    /// Co-simulation parameters shared by every cell.
    pub cfg: CoSimConfig,
}

impl Plan {
    /// The full-size plan for `bench` at `seed`.
    pub fn new(bench: Bench, seed: u64) -> Self {
        let ldbc = GraphSpec {
            seed,
            ..GraphSpec::ldbc_like()
        };
        let (graph, workloads) = match bench {
            // What `COOLPIM_SCALE=quick eval_all` runs.
            Bench::EvalQuick => (
                GraphSpec {
                    scale: 16,
                    avg_degree: 12,
                    ..ldbc
                },
                Workload::ALL.to_vec(),
            ),
            Bench::PaperGraph => (ldbc, vec![Workload::KCore]),
            Bench::ReplaySweep => (
                GraphSpec {
                    scale: 18,
                    avg_degree: 12,
                    ..ldbc
                },
                Vec::new(),
            ),
        };
        let cfg = CoSimConfig::default();
        let (policies, cells) = match bench {
            Bench::ReplaySweep => (Vec::new(), SweepCell::matrix8(cfg.warning_threshold_c)),
            _ => (Policy::ALL.to_vec(), Vec::new()),
        };
        Self {
            bench,
            graph,
            workloads,
            policies,
            record: (Workload::PageRank, Policy::CoolPimHw),
            cells,
            cfg,
        }
    }

    /// Co-simulated cells one run attempts (the recording run counts as
    /// one on `replay-sweep`).
    pub fn cell_count(&self) -> usize {
        match self.bench {
            Bench::ReplaySweep => 1 + self.cells.len(),
            _ => self.workloads.len() * self.policies.len(),
        }
    }
}

/// The outcome of one co-simulated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// `workload/policy[/cooling/threshold]`, without spaces.
    pub label: String,
    /// Its exact simulated statistics.
    pub counters: Counters,
    /// Why the cell failed a check, if it did.
    pub error: Option<String>,
}

impl CellOutcome {
    fn new(label: String, r: &CoSimResult) -> Self {
        let counters = Counters::of(r);
        Self {
            label: label.replace(' ', "_"),
            error: cell_error(&counters),
            counters,
        }
    }
}

/// Host time and work of the traced run, per layer. Times are host
/// seconds summed over cells.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Graph build (host s).
    pub graph_build_s: f64,
    /// Directed edges built.
    pub graph_edges: u64,
    /// Kernel construction (`make_kernel`, host s).
    pub init_s: f64,
    /// Live instruction generation.
    pub generate: SourceTally,
    /// Recording tee on top of generation (host s).
    pub record_s: f64,
    /// Trace replay.
    pub replay: SourceTally,
    /// `WorkloadTrace::encode` (host s).
    pub encode_s: f64,
    /// `WorkloadTrace::decode` (host s).
    pub decode_s: f64,
    /// Encoded trace size (bytes).
    pub trace_bytes: u64,
    /// Offload controllers.
    pub ctrl: CtrlTally,
    /// Thermal solver.
    pub solve: SolveTally,
    /// Cell co-sim wall minus every timed layer inside it (host s).
    pub gpu_hmc_s: f64,
    /// Pool threads.
    pub workers: usize,
    /// Worker-seconds of the pool phase spent outside any cell.
    pub idle_s: f64,
    /// Wall seconds of the pool phase the timed layers and the idle
    /// time account for: (their worker-seconds) ÷ workers.
    pub pool_covered_s: f64,
    /// Wall seconds of the run covered by no timed span.
    pub unattributed_s: f64,
}

/// One run of one workload.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Host wall from workload start to the last result (s).
    pub wall_s: f64,
    /// Host wall before the first measured cell starts (s).
    pub setup_s: f64,
    /// Host wall of the measured cells, first start to last end (s).
    pub sim_s: f64,
    /// Warp instructions simulated by the measured cells.
    pub sim_instructions: u64,
    /// Every cell, set-up cells first.
    pub cells: Vec<CellOutcome>,
    /// The per-layer split (traced runs only).
    pub layers: Option<Layers>,
}

/// Host time of one traced cell.
#[derive(Debug, Clone, Copy, Default)]
struct CellTiming {
    /// Source construction (host s).
    init_s: f64,
    /// `run_with_controller` (host s).
    cosim_s: f64,
    /// The whole pool task, construction and teardown included (host s).
    cell_s: f64,
    source: SourceTally,
    ctrl: CtrlTally,
    solve: SolveTally,
}

impl CellTiming {
    /// The cell's co-sim wall not inside any other timed layer.
    fn gpu_hmc_s(&self) -> f64 {
        self.cosim_s - self.source.s - self.source.probe_s - self.ctrl.s - self.solve.s
    }

    /// The part of the cell the timed layers account for.
    fn covered_s(&self) -> f64 {
        self.init_s + self.cosim_s - self.source.probe_s
    }
}

/// A running host-time stopwatch.
struct Clock(Instant);

impl Clock {
    fn start() -> Self {
        Self(Instant::now())
    }
    fn s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Runs `plan` once; `traced` selects the per-layer split.
pub fn run(plan: &Plan, traced: bool) -> RunReport {
    match plan.bench {
        Bench::EvalQuick | Bench::PaperGraph => run_matrix_bench(plan, traced),
        Bench::ReplaySweep => run_replay_bench(plan, traced),
    }
}

fn run_matrix_bench(plan: &Plan, traced: bool) -> RunReport {
    let wall = Clock::start();
    let graph = plan.graph.build();
    let setup_s = wall.s();
    let sim = Clock::start();
    let mut layers = traced.then(Layers::default);
    let results: Vec<CoSimResult> = match layers.as_mut() {
        None => run_matrix(&graph, &plan.workloads, &plan.policies, plan.cfg.clone())
            .into_iter()
            .flat_map(|w| w.runs)
            .collect(),
        Some(layers) => {
            let tasks: Vec<(Workload, Policy)> = plan
                .workloads
                .iter()
                .flat_map(|&w| plan.policies.iter().map(move |&p| (w, p)))
                .collect();
            let (results, workers) = traced_pool(tasks.len(), |i| {
                let (w, p) = tasks[i];
                let init = Clock::start();
                let mut kernel = make_kernel(w, &graph);
                let init_s = init.s();
                let (r, mut t) = traced_cell(kernel.as_mut(), p, plan.cfg.clone());
                t.init_s = init_s;
                (r, t)
            });
            let sim_s = sim.s();
            for (_, t) in &results {
                layers.init_s += t.init_s;
                layers.generate.add(&t.source);
            }
            fold_pool(layers, &results, workers, sim_s);
            results.into_iter().map(|(r, _)| r).collect()
        }
    };
    let sim_s = sim.s();
    let wall_s = wall.s();
    let cells: Vec<CellOutcome> = results
        .iter()
        .map(|r| CellOutcome::new(format!("{}/{}", r.workload, r.policy.name()), r))
        .collect();
    if let Some(layers) = layers.as_mut() {
        layers.graph_build_s = setup_s;
        layers.graph_edges = graph.edge_count() as u64;
        layers.unattributed_s = wall_s - setup_s - layers.pool_covered_s;
    }
    RunReport {
        wall_s,
        setup_s,
        sim_s,
        sim_instructions: results.iter().map(|r| r.gpu.instructions).sum(),
        cells,
        layers,
    }
}

fn run_replay_bench(plan: &Plan, traced: bool) -> RunReport {
    let wall = Clock::start();
    // Correctness checks run inside the set-up phase but are not part of
    // what a user pays; their time is taken out of every figure.
    let mut check_s = 0.0;
    let mut layers = traced.then(Layers::default);

    let build = Clock::start();
    let graph = plan.graph.build();
    let graph_build_s = build.s();
    let graph_edges = graph.edge_count() as u64;

    let (workload, policy) = plan.record;
    let init = Clock::start();
    let mut kernel = make_kernel(workload, &graph);
    let init_s = init.s();
    let params = format!(
        "workload={} scale={} degree={} seed={}",
        workload.name(),
        plan.graph.scale,
        plan.graph.avg_degree,
        plan.graph.seed
    );
    let mut recorded_covered_s = 0.0;
    let (live, recording) = if let Some(layers) = layers.as_mut() {
        let mut generate = TimedSource::new(kernel.as_mut());
        let mut tee = RecordingSource::new(&mut generate);
        let mut teed = TimedSource::new(&mut tee);
        let (live, mut t) = traced_cell_on(&mut teed, policy, plan.cfg.clone());
        let outer = teed.tally;
        let finish = Clock::start();
        let recording = tee.finish(plan.graph.config_hash(), &params);
        let finish_s = finish.s();
        let inner = generate.tally;
        // The outer probe times generation, the inner probe's counting
        // and the tee together; the tee is what is left.
        layers.record_s += outer.s - inner.s - inner.probe_s + finish_s;
        layers.init_s += init_s;
        layers.generate.add(&inner);
        t.init_s = init_s;
        t.source = SourceTally {
            probe_s: outer.probe_s + inner.probe_s,
            s: outer.s - inner.probe_s,
            ..outer
        };
        recorded_covered_s = t.covered_s() + finish_s;
        fold_cell(layers, &t);
        (live, recording)
    } else {
        let mut tee = RecordingSource::new(kernel.as_mut());
        let live = CoSim::new(policy, plan.cfg.clone()).run(&mut tee);
        (live, tee.finish(plan.graph.config_hash(), &params))
    };
    drop(kernel);
    drop(graph);

    let encode = Clock::start();
    let bytes = recording.encode();
    let encode_s = encode.s();
    let check = Clock::start();
    let recorded_digest = trace_digest(&recording);
    check_s += check.s();
    let release = Clock::start();
    drop(recording);
    let release_s = release.s();
    if let Some(layers) = layers.as_mut() {
        layers.record_s += release_s;
        recorded_covered_s += release_s;
    }
    let decode = Clock::start();
    let decoded = WorkloadTrace::decode(&bytes, "in-memory trace");
    let decode_s = decode.s();
    let trace_bytes = bytes.len() as u64;
    drop(bytes);

    let check = Clock::start();
    let live_cell = CellOutcome::new(format!("{}/{}/record", live.workload, policy.name()), &live);
    let trace_error = match &decoded {
        Ok(d) => roundtrip_error(recorded_digest, d),
        Err(e) => Some(format!("decode failed: {e}")),
    };
    check_s += check.s();
    let setup_s = wall.s() - check_s;

    let sim = Clock::start();
    let mut cells = vec![live_cell];
    let mut sim_instructions = 0;
    if let Ok(trace) = decoded {
        let trace = Arc::new(trace);
        let results: Vec<CoSimResult> = match layers.as_mut() {
            None => run_source_sweep(
                || Box::new(TraceReplaySource::new(trace.clone())),
                &plan.cells,
                plan.cfg.clone(),
            ),
            Some(layers) => {
                let (results, workers) = traced_pool(plan.cells.len(), |i| {
                    let cell = plan.cells[i];
                    let mut source = TraceReplaySource::new(trace.clone());
                    traced_cell(&mut source, cell.policy, sweep_cfg(&plan.cfg, &cell))
                });
                let sim_s = sim.s();
                for (_, t) in &results {
                    layers.replay.add(&t.source);
                }
                fold_pool(layers, &results, workers, sim_s);
                results.into_iter().map(|(r, _)| r).collect()
            }
        };
        sim_instructions = results.iter().map(|r| r.gpu.instructions).sum();
        for (cell, r) in plan.cells.iter().zip(&results) {
            let mut outcome = CellOutcome::new(
                format!(
                    "{}/{}/{}/{}",
                    r.workload,
                    cell.policy.name(),
                    cell.cooling.name(),
                    cell.warning_threshold_c
                ),
                r,
            );
            let replays_recording = cell.policy == policy
                && cell.cooling == plan.cfg.cooling
                && cell.warning_threshold_c == plan.cfg.warning_threshold_c;
            if outcome.error.is_none() && replays_recording {
                outcome.error = mismatch(&cells[0].counters, &outcome.counters).map(|m| {
                    format!("replay of the recorded config differs from the live run: {m}")
                });
            }
            cells.push(outcome);
        }
    }
    let sim_s = sim.s();
    let wall_s = wall.s() - check_s;
    if let Some(e) = trace_error {
        for cell in &mut cells[1..] {
            cell.error.get_or_insert_with(|| e.clone());
        }
        if cells.len() == 1 {
            cells.extend(plan.cells.iter().map(|c| CellOutcome {
                label: format!("{}/{}", workload.name(), c.policy.name()).replace(' ', "_"),
                counters: Counters::default(),
                error: Some(e.clone()),
            }));
        }
    }
    if let Some(layers) = layers.as_mut() {
        layers.graph_build_s = graph_build_s;
        layers.graph_edges = graph_edges;
        layers.encode_s = encode_s;
        layers.decode_s = decode_s;
        layers.trace_bytes = trace_bytes;
        layers.unattributed_s = wall_s
            - graph_build_s
            - recorded_covered_s
            - encode_s
            - decode_s
            - layers.pool_covered_s;
    }
    RunReport {
        wall_s,
        setup_s,
        sim_s,
        sim_instructions,
        cells,
        layers,
    }
}

/// The config of one sweep cell, as `run_source_sweep` derives it.
fn sweep_cfg(base: &CoSimConfig, cell: &SweepCell) -> CoSimConfig {
    CoSimConfig {
        cooling: cell.cooling,
        warning_threshold_c: cell.warning_threshold_c,
        ..base.clone()
    }
}

/// Runs one cell on `source` with every layer probed, exactly as
/// `CoSim::run` would run it untraced.
fn traced_cell<K: InstructionSource + ?Sized>(
    source: &mut K,
    policy: Policy,
    cfg: CoSimConfig,
) -> (CoSimResult, CellTiming) {
    traced_cell_on(&mut TimedSource::new(source), policy, cfg)
}

/// [`traced_cell`] on a source the caller has already probed: wraps the
/// controller and the thermal solver, and times the co-sim.
fn traced_cell_on<K: InstructionSource + ?Sized>(
    source: &mut TimedSource<'_, K>,
    policy: Policy,
    cfg: CoSimConfig,
) -> (CoSimResult, CellTiming) {
    let cosim = Clock::start();
    let mut ctrl = policy.controller(&source.profile());
    let mut ctrl = TimedController::new(ctrl.as_mut());
    let solve = Rc::new(RefCell::new(SolveTally::default()));
    let thermal = HmcThermalModel::hmc20(cfg.cooling).with_solver(|grid, ambient, c_scale| {
        TimedSolve::new(TransientState::new(grid, ambient, c_scale), solve.clone())
    });
    let r = CoSim::new(policy, cfg)
        .with_thermal_model(thermal)
        .run_with_controller(source, &mut ctrl, policy.thermal_feedback());
    let cosim_s = cosim.s();
    let t = CellTiming {
        cosim_s,
        source: source.tally,
        ctrl: ctrl.tally,
        solve: *solve.borrow(),
        ..CellTiming::default()
    };
    (r, t)
}

/// Runs `n` cells on the same pool shape as the program's own
/// (`available_parallelism` workers claiming the next cell index),
/// returning results in cell order and the worker count.
fn traced_pool<F>(n: usize, cell: F) -> (Vec<(CoSimResult, CellTiming)>, usize)
where
    F: Fn(usize) -> (CoSimResult, CellTiming) + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(n)
        .max(1);
    let next = AtomicUsize::new(0);
    let slots = Mutex::new(vec![None; n]);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let started = Clock::start();
                let (r, mut t) = cell(i);
                t.cell_s = started.s();
                slots.lock().expect("a pool worker panicked")[i] = Some((r, t));
            });
        }
    });
    let results = slots
        .into_inner()
        .expect("a pool worker panicked")
        .into_iter()
        .map(|s| s.expect("every cell ran"))
        .collect();
    (results, workers)
}

/// Adds one cell's controller, solver and residual time.
fn fold_cell(layers: &mut Layers, t: &CellTiming) {
    layers.ctrl.add(&t.ctrl);
    layers.solve.add(&t.solve);
    layers.gpu_hmc_s += t.gpu_hmc_s();
}

/// Adds a pool phase: every cell, the worker count, and the
/// worker-seconds no cell covered.
fn fold_pool(
    layers: &mut Layers,
    results: &[(CoSimResult, CellTiming)],
    workers: usize,
    sim_s: f64,
) {
    for (_, t) in results {
        fold_cell(layers, t);
    }
    let busy: f64 = results.iter().map(|(_, t)| t.cell_s).sum();
    let covered: f64 = results.iter().map(|(_, t)| t.covered_s()).sum();
    layers.workers = workers;
    layers.idle_s = workers as f64 * sim_s - busy;
    layers.pool_covered_s = (covered + layers.idle_s) / workers as f64;
}
