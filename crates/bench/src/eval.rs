//! Shared evaluation driver for the `fig10`–`fig14` binaries.

use coolpim_core::cosim::CoSimConfig;
use coolpim_core::experiment::{run_matrix, run_matrix_monitored, WorkloadResults};
use coolpim_core::policy::Policy;
use coolpim_graph::csr::Csr;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::Workload;
use coolpim_telemetry::{MonitorHub, MonitorServer};

/// Resolves the evaluation graph from `COOLPIM_SCALE` (see crate docs).
pub fn eval_graph_spec() -> GraphSpec {
    graph_spec_for(std::env::var("COOLPIM_SCALE").ok().as_deref())
}

/// Pure form of [`eval_graph_spec`]: maps a `COOLPIM_SCALE` value (`None`
/// = unset) to a graph spec, without reading the environment — testable
/// regardless of what the test process inherited.
pub fn graph_spec_for(scale: Option<&str>) -> GraphSpec {
    let mut spec = GraphSpec::ldbc_like();
    match scale {
        None | Some("full") => {}
        Some("quick") => {
            spec.scale = 16;
            spec.avg_degree = 12;
        }
        Some(n) => {
            let scale: u32 = n.parse().unwrap_or_else(|_| {
                panic!("COOLPIM_SCALE must be 'full', 'quick', or an integer, got {n:?}")
            });
            assert!(
                (8..=24).contains(&scale),
                "COOLPIM_SCALE {scale} out of range 8..=24"
            );
            spec.scale = scale;
        }
    }
    spec
}

/// The live-monitor bind address requested via the `COOLPIM_MONITOR`
/// environment variable (e.g. `127.0.0.1:9090`), if any. When set, the
/// evaluation binaries serve `/metrics`, `/status`, and `/series` for
/// the duration of the matrix — point `watch --addr` at it.
pub fn monitor_addr_requested() -> Option<String> {
    std::env::var("COOLPIM_MONITOR")
        .ok()
        .filter(|s| !s.is_empty())
}

/// Runs the full evaluation matrix (all ten workloads × the five system
/// configurations) at the configured scale.
pub fn run_eval_matrix() -> Vec<WorkloadResults> {
    let spec = eval_graph_spec();
    eprintln!(
        "# generating LDBC-like graph: 2^{} vertices, avg degree {} (seed {})",
        spec.scale, spec.avg_degree, spec.seed
    );
    let graph = spec.build();
    eprintln!(
        "# graph ready: {} vertices, {} edges; running {} co-simulations...",
        graph.vertices(),
        graph.edge_count(),
        Workload::ALL.len() * Policy::ALL.len()
    );
    run_eval_subset_on(&graph, &Workload::ALL, &Policy::ALL)
}

/// Runs a subset of the matrix (used by the quicker figure binaries).
/// Honours `COOLPIM_MONITOR` exactly like [`run_eval_matrix`].
pub fn run_eval_subset(workloads: &[Workload], policies: &[Policy]) -> Vec<WorkloadResults> {
    let graph = eval_graph_spec().build();
    run_eval_subset_on(&graph, workloads, policies)
}

/// [`run_eval_subset`] with the graph injected; the full matrix runs
/// through here too. With `COOLPIM_MONITOR` set, the matrix runs with a
/// live monitor endpoint bound for its duration (so the runs carry
/// `telemetry_overhead_pct`).
pub fn run_eval_subset_on(
    graph: &Csr,
    workloads: &[Workload],
    policies: &[Policy],
) -> Vec<WorkloadResults> {
    if let Some(addr) = monitor_addr_requested() {
        let hub = MonitorHub::new();
        hub.begin_run("eval-matrix", "0");
        let mut server = match MonitorServer::start(&addr, hub.clone()) {
            Ok(s) => {
                eprintln!("# monitor: http://{}", s.local_addr());
                s
            }
            Err(e) => {
                eprintln!("failed to bind monitor on {addr}: {e}");
                std::process::exit(1);
            }
        };
        let results = run_matrix_monitored(graph, workloads, policies, CoSimConfig::default(), hub);
        server.stop();
        eprintln!("# monitor stopped");
        return results;
    }
    run_matrix(graph, workloads, policies, CoSimConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_full() {
        // Pure mapping — immune to whatever COOLPIM_SCALE the test
        // process inherited.
        assert_eq!(graph_spec_for(None).scale, GraphSpec::ldbc_like().scale);
        assert_eq!(
            graph_spec_for(Some("full")).scale,
            GraphSpec::ldbc_like().scale
        );
    }

    #[test]
    fn quick_and_numeric_scales_resolve() {
        let quick = graph_spec_for(Some("quick"));
        assert_eq!(quick.scale, 16);
        assert_eq!(quick.avg_degree, 12);
        assert_eq!(graph_spec_for(Some("12")).scale, 12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_scale_panics() {
        let _ = graph_spec_for(Some("30"));
    }
}
