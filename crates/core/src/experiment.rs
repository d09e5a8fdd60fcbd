//! Parallel experiment harness: the matrix of workloads × policies
//! behind the paper's Figures 10–13.
//!
//! Each cell is an independent co-simulated run; cells fan out over a
//! bounded worker pool (a shared atomic task index over scoped threads —
//! no external runtime needed) and results are gathered
//! deterministically by index.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use coolpim_graph::csr::Csr;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::{make_kernel, Workload};
use coolpim_telemetry::{MetricsSnapshot, MonitorHub, Tracer};

use crate::cosim::{CoSim, CoSimConfig, CoSimResult};
use crate::policy::Policy;

/// Results of one workload across all requested policies, in request
/// order.
#[derive(Debug, Clone)]
pub struct WorkloadResults {
    /// The workload.
    pub workload: Workload,
    /// One result per requested policy.
    pub runs: Vec<CoSimResult>,
}

impl WorkloadResults {
    /// The run for `policy`, if requested.
    pub fn run(&self, policy: Policy) -> Option<&CoSimResult> {
        self.runs.iter().find(|r| r.policy == policy)
    }

    /// Speedup of `policy` over the non-offloading baseline (requires
    /// both runs present).
    pub fn speedup(&self, policy: Policy) -> Option<f64> {
        let base = self.run(Policy::NonOffloading)?;
        let run = self.run(policy)?;
        (run.exec_s > 0.0).then(|| base.exec_s / run.exec_s)
    }

    /// Bandwidth consumption of `policy` normalised to the baseline.
    pub fn normalized_bandwidth(&self, policy: Policy) -> Option<f64> {
        let base = self.run(Policy::NonOffloading)?;
        let run = self.run(policy)?;
        (base.ext_data_bytes > 0.0).then(|| run.ext_data_bytes / base.ext_data_bytes)
    }
}

/// Runs the full matrix in parallel. Results keep the order of
/// `workloads` and, within each, of `policies`.
pub fn run_matrix(
    graph: &Csr,
    workloads: &[Workload],
    policies: &[Policy],
    cfg: CoSimConfig,
) -> Vec<WorkloadResults> {
    run_matrix_inner(graph, workloads, policies, cfg, None, None)
}

/// [`run_matrix`] with a hierarchical trace timeline: each
/// pool worker owns a `worker-N` track on `tracer` and brackets every
/// cell it claims in a span named after the cell's workload, so the
/// exported timeline shows how the matrix fanned out over threads —
/// which worker ran what, when, and where the pool sat idle.
pub fn run_matrix_traced(
    graph: &Csr,
    workloads: &[Workload],
    policies: &[Policy],
    cfg: CoSimConfig,
    tracer: &Tracer,
) -> Vec<WorkloadResults> {
    run_matrix_inner(graph, workloads, policies, cfg, None, Some(tracer))
}

/// [`run_matrix`] with every run publishing live epoch
/// observations into `hub`. The cells run concurrently, so the hub
/// shows an interleaved view of whichever runs are in flight — status
/// identity (run id, config hash) should be stamped by the caller via
/// [`MonitorHub::begin_run`] before the matrix starts. The attached
/// monitor makes every run report its `telemetry_overhead_pct`.
pub fn run_matrix_monitored(
    graph: &Csr,
    workloads: &[Workload],
    policies: &[Policy],
    cfg: CoSimConfig,
    hub: MonitorHub,
) -> Vec<WorkloadResults> {
    run_matrix_inner(graph, workloads, policies, cfg, Some(hub), None)
}

fn run_matrix_inner(
    graph: &Csr,
    workloads: &[Workload],
    policies: &[Policy],
    cfg: CoSimConfig,
    hub: Option<MonitorHub>,
    tracer: Option<&Tracer>,
) -> Vec<WorkloadResults> {
    let cfg = &cfg;
    if let Some(hub) = &hub {
        hub.expect_runs((workloads.len() * policies.len()) as u64);
    }
    let tasks: Vec<(usize, Workload, usize, Policy)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, &w)| {
            policies
                .iter()
                .enumerate()
                .map(move |(pi, &p)| (wi, w, pi, p))
        })
        .collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let threads = threads.min(tasks.len()).max(1);

    // Work distribution: each worker claims the next unclaimed task
    // index. Slots are pre-sized so workers write disjoint cells and the
    // output order is independent of scheduling.
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![Vec::<Option<CoSimResult>>::new(); workloads.len()]);
    {
        let mut guard = results.lock().expect("results poisoned");
        for slot in guard.iter_mut() {
            slot.resize_with(policies.len(), || None);
        }
    }

    // Workers borrow the one shared `&Csr` — scoped threads make the
    // lifetime work without a per-worker clone of the graph.
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let next = &next;
            let tasks = &tasks;
            let results = &results;
            let hub = hub.clone();
            scope.spawn(move || {
                // Per-worker timeline track: one span per claimed cell,
                // named after the cell's workload. The gaps between
                // spans are the pool's idle/imbalance time.
                let mut track = tracer.map(|t| t.track(&format!("worker-{worker}")));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(wi, w, pi, p)) = tasks.get(i) else {
                        break;
                    };
                    let tok = track.as_mut().map(|t| t.begin(w.name()));
                    let started = std::time::Instant::now();
                    let mut kernel = make_kernel(w, graph);
                    let mut sim = CoSim::new(p, cfg.clone());
                    if let Some(hub) = hub.clone() {
                        sim = sim.with_monitor(hub);
                    }
                    let r = sim.run(kernel.as_mut());
                    eprintln!(
                        "# {:<10} {:<18} {:>8.3} ms simulated ({:>5.1} s wall)",
                        w.name(),
                        p.name(),
                        r.exec_s * 1e3,
                        started.elapsed().as_secs_f64()
                    );
                    results.lock().expect("results poisoned")[wi][pi] = Some(r);
                    if let (Some(t), Some(tok)) = (track.as_mut(), tok) {
                        t.end(tok);
                    }
                }
                if let Some(t) = track.as_mut() {
                    t.flush();
                }
            });
        }
    });

    results
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .zip(workloads)
        .map(|(runs, &workload)| WorkloadResults {
            workload,
            runs: runs.into_iter().map(|r| r.expect("missing run")).collect(),
        })
        .collect()
}

/// Runs one workload × policy cell once per seed in `seeds`, each
/// replicate over a freshly generated graph from `spec` re-seeded with
/// that replicate's seed. Results come back in seed order regardless of
/// scheduling.
///
/// This is the engine behind `sim --replicates` / `bench --replicates`:
/// the co-simulator itself is deterministic for a fixed graph, so the
/// only run-to-run variation the stack exposes is the graph draw — each
/// replicate therefore needs its own [`GraphSpec::build`], which is why
/// this pool cannot share [`run_matrix`]'s single borrowed `&Csr`.
pub fn run_replicates(
    spec: GraphSpec,
    workload: Workload,
    policy: Policy,
    cfg: CoSimConfig,
    seeds: &[u64],
) -> Vec<CoSimResult> {
    let cfg = &cfg;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(seeds.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let results = Mutex::new({
        let mut v = Vec::<Option<CoSimResult>>::new();
        v.resize_with(seeds.len(), || None);
        v
    });
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let results = &results;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else {
                    break;
                };
                let started = std::time::Instant::now();
                let graph = GraphSpec { seed, ..spec }.build();
                let mut kernel = make_kernel(workload, &graph);
                let r = CoSim::new(policy, cfg.clone()).run(kernel.as_mut());
                eprintln!(
                    "# replicate seed={seed:<6} {:<10} {:<18} {:>8.3} ms simulated ({:>5.1} s wall)",
                    workload.name(),
                    policy.name(),
                    r.exec_s * 1e3,
                    started.elapsed().as_secs_f64()
                );
                results.lock().expect("results poisoned")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|r| r.expect("missing replicate"))
        .collect()
}

/// One point of a (policy × cooling × warning-threshold) sweep over a
/// single instruction stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCell {
    /// Offloading policy for this cell.
    pub policy: Policy,
    /// Cooling solution for this cell.
    pub cooling: coolpim_thermal::cooling::Cooling,
    /// Thermal-warning threshold (°C) for this cell.
    pub warning_threshold_c: f64,
}

impl SweepCell {
    /// The fixed 8-cell (policy × cooling × threshold) sweep shared by
    /// `sim --matrix` and the BENCH_7 replay benchmark: both CoolPIM
    /// policies, commodity vs high-end cooling, the base warning
    /// threshold and one 5 °C tighter.
    pub fn matrix8(base_threshold_c: f64) -> Vec<SweepCell> {
        use coolpim_thermal::cooling::Cooling;
        let mut cells = Vec::new();
        for &policy in &[Policy::CoolPimSw, Policy::CoolPimHw] {
            for &cooling in &[Cooling::CommodityServer, Cooling::HighEndActive] {
                for &threshold in &[base_threshold_c, base_threshold_c - 5.0] {
                    cells.push(SweepCell {
                        policy,
                        cooling,
                        warning_threshold_c: threshold,
                    });
                }
            }
        }
        cells
    }
}

/// Fans one instruction stream out across `cells` on the shared worker
/// pool. `make_source` builds a fresh source per cell — for a live
/// baseline that means regenerating graph + kernel (the honest per-cell
/// cost [`run_replicates`] also pays); for a trace replay it is an
/// `Arc` clone of one immutable decoded stream, which is the
/// ROADMAP-item-2 "record once, replay everywhere" sweep. The factory
/// returns any owning pointer to an
/// [`coolpim_gpu::InstructionSource`] — `Box<dyn Kernel>` and a boxed
/// replay source both fit. Results come back in cell order regardless
/// of scheduling.
pub fn run_source_sweep<S, F>(
    make_source: F,
    cells: &[SweepCell],
    cfg: CoSimConfig,
) -> Vec<CoSimResult>
where
    S: std::ops::DerefMut,
    S::Target: coolpim_gpu::InstructionSource,
    F: Fn() -> S + Sync,
{
    let cfg = &cfg;
    let make_source = &make_source;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cells.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let results = Mutex::new({
        let mut v = Vec::<Option<CoSimResult>>::new();
        v.resize_with(cells.len(), || None);
        v
    });
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let results = &results;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else {
                    break;
                };
                let cell_cfg = CoSimConfig {
                    cooling: cell.cooling,
                    warning_threshold_c: cell.warning_threshold_c,
                    ..cfg.clone()
                };
                let mut source = make_source();
                let r = CoSim::new(cell.policy, cell_cfg).run(&mut *source);
                results.lock().expect("results poisoned")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|r| r.expect("missing sweep cell"))
        .collect()
}

/// Arithmetic mean of per-workload speedups for `policy` (the paper's
/// "on average" figures).
pub fn mean_speedup(results: &[WorkloadResults], policy: Policy) -> f64 {
    let speedups: Vec<f64> = results.iter().filter_map(|r| r.speedup(policy)).collect();
    if speedups.is_empty() {
        return 0.0;
    }
    speedups.iter().sum::<f64>() / speedups.len() as f64
}

/// Folds every run's metrics snapshot for `policy` into one (pass
/// `None` to aggregate across all policies): counters sum, gauges keep
/// their maximum, histograms combine.
pub fn aggregate_metrics(results: &[WorkloadResults], policy: Option<Policy>) -> MetricsSnapshot {
    let mut agg = MetricsSnapshot::default();
    for wr in results {
        for run in &wr.runs {
            if policy.is_none_or(|p| p == run.policy) {
                agg.merge(&run.metrics);
            }
        }
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolpim_graph::generate::GraphSpec;
    use coolpim_hmc::ns_to_ps;

    #[test]
    fn matrix_runs_in_parallel_and_keeps_order() {
        let g = GraphSpec::test_medium().build();
        let workloads = [Workload::Dc, Workload::KCore];
        let policies = [Policy::NonOffloading, Policy::NaiveOffloading];
        let cfg = CoSimConfig {
            gpu: coolpim_gpu::GpuConfig::tiny(),
            max_sim_time: ns_to_ps(1.0e9),
            ..CoSimConfig::default()
        };
        let res = run_matrix(&g, &workloads, &policies, cfg);
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].workload, Workload::Dc);
        assert_eq!(res[0].runs[0].policy, Policy::NonOffloading);
        assert_eq!(res[0].runs[1].policy, Policy::NaiveOffloading);
        let s = res[0].speedup(Policy::NaiveOffloading).unwrap();
        assert!(s > 0.1 && s < 10.0, "speedup {s} out of sanity range");
        let nb = res[0]
            .normalized_bandwidth(Policy::NaiveOffloading)
            .unwrap();
        assert!(nb < 1.0, "offloading must reduce bandwidth (got {nb})");
    }

    #[test]
    fn mean_speedup_of_baseline_is_one() {
        let g = GraphSpec::tiny().build();
        let res = run_matrix(
            &g,
            &[Workload::Dc],
            &[Policy::NonOffloading],
            CoSimConfig::default(),
        );
        let m = mean_speedup(&res, Policy::NonOffloading);
        assert!((m - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replicates_keep_seed_order_and_are_deterministic() {
        let spec = GraphSpec::tiny();
        let cfg = CoSimConfig::default();
        let seeds = [3u64, 1, 2];
        let a = run_replicates(
            spec,
            Workload::Dc,
            Policy::NonOffloading,
            cfg.clone(),
            &seeds,
        );
        let b = run_replicates(spec, Workload::Dc, Policy::NonOffloading, cfg, &seeds);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            // Bit-identical across invocations: the pool order may
            // differ, the results must not.
            assert_eq!(x.exec_s.to_bits(), y.exec_s.to_bits());
            assert_eq!(x.ext_data_bytes.to_bits(), y.ext_data_bytes.to_bits());
            assert_eq!(x.max_peak_dram_c.to_bits(), y.max_peak_dram_c.to_bits());
        }
        // Different seeds draw different graphs, so at least one pair of
        // replicates must differ somewhere.
        assert!(
            a.iter()
                .any(|r| r.exec_s.to_bits() != a[0].exec_s.to_bits())
                || a.iter()
                    .any(|r| r.ext_data_bytes.to_bits() != a[0].ext_data_bytes.to_bits()),
            "seed variation produced identical replicates"
        );
    }

    #[test]
    fn source_sweep_keeps_cell_order_and_matches_direct_runs() {
        use coolpim_thermal::cooling::Cooling;
        let g = GraphSpec::tiny().build();
        let cfg = CoSimConfig::default();
        let cells = [
            SweepCell {
                policy: Policy::NonOffloading,
                cooling: Cooling::CommodityServer,
                warning_threshold_c: 85.0,
            },
            SweepCell {
                policy: Policy::NaiveOffloading,
                cooling: Cooling::HighEndActive,
                warning_threshold_c: 80.0,
            },
        ];
        let sweep = run_source_sweep(|| make_kernel(Workload::Dc, &g), &cells, cfg.clone());
        assert_eq!(sweep.len(), 2);
        for (r, cell) in sweep.iter().zip(&cells) {
            assert_eq!(r.policy, cell.policy);
            // Same cell run directly must agree bit-for-bit.
            let mut kernel = make_kernel(Workload::Dc, &g);
            let direct_cfg = CoSimConfig {
                cooling: cell.cooling,
                warning_threshold_c: cell.warning_threshold_c,
                ..cfg.clone()
            };
            let direct = CoSim::new(cell.policy, direct_cfg).run(kernel.as_mut());
            assert_eq!(r.exec_s.to_bits(), direct.exec_s.to_bits());
            assert_eq!(
                r.max_peak_dram_c.to_bits(),
                direct.max_peak_dram_c.to_bits()
            );
        }
    }
}
