//! Metric names, units and directions, the per-layer figures of a traced
//! run, process statistics, and the result line.

use crate::check::Counters;
use crate::workload::RunReport;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the workload sees, measured untraced. Times are host
/// time.
pub const END_TO_END: [MetricDef; 6] = [
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("sim_s", "s", "lower"),
    m("sim_minst_per_s", "Minst/s", "higher"),
    m("cpu_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// The per-layer split of the traced run. Times are host seconds summed
/// over cells; counts are exact simulated or work counts.
pub const PER_LAYER: [MetricDef; 44] = [
    m("graph.build_s", "s", "lower"),
    m("graph.edges", "count", "lower"),
    m("workloads.init_s", "s", "lower"),
    m("workloads.block_trace_s", "s", "lower"),
    m("workloads.blocks", "count", "lower"),
    m("workloads.warp_ops", "count", "lower"),
    m("workloads.lane_addrs", "count", "lower"),
    m("trace.record_s", "s", "lower"),
    m("trace.encode_s", "s", "lower"),
    m("trace.decode_s", "s", "lower"),
    m("trace.bytes", "B", "lower"),
    m("trace.block_trace_s", "s", "lower"),
    m("trace.blocks", "count", "lower"),
    m("ctrl.s", "s", "lower"),
    m("ctrl.block_launches", "count", "lower"),
    m("ctrl.warp_queries", "count", "lower"),
    m("ctrl.throttle_steps", "count", "lower"),
    m("ctrl.offload_fraction", "ratio", "higher"),
    m("thermal.solve_s", "s", "lower"),
    m("thermal.solves", "count", "lower"),
    m("thermal.substeps", "count", "lower"),
    m("thermal.sweeps", "count", "lower"),
    m("thermal.fastpath_hits", "count", "higher"),
    m("gpu_hmc.s", "s", "lower"),
    m("gpu.instructions", "count", "lower"),
    m("gpu.loads", "count", "lower"),
    m("gpu.stores", "count", "lower"),
    m("gpu.pim_lane_ops", "count", "higher"),
    m("gpu.host_lane_ops", "count", "lower"),
    m("gpu.l2_hit_rate", "ratio", "higher"),
    m("hmc.reads", "count", "lower"),
    m("hmc.writes", "count", "lower"),
    m("hmc.pim_ops", "count", "higher"),
    m("hmc.flits", "count", "lower"),
    m("hmc.row_hit_rate", "ratio", "higher"),
    m("hmc.queue_wait_ps", "ps", "lower"),
    m("cosim.cells", "count", "higher"),
    m("cosim.epochs", "count", "lower"),
    m("cosim.sim_ms", "ms", "lower"),
    m("pool.workers", "count", "higher"),
    m("pool.idle_s", "s", "lower"),
    m("unattributed_pct", "%", "lower"),
    m("tracing_overhead_pct", "%", "lower"),
    m("fail_ratio", "ratio", "lower"),
];

/// The end-to-end figures of one run, given the process's CPU seconds
/// and peak resident MiB over it.
pub fn end_to_end(r: &RunReport, cpu_s: f64, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("wall_s", r.wall_s),
        ("setup_s", r.setup_s),
        ("sim_s", r.sim_s),
        ("sim_minst_per_s", r.sim_instructions as f64 / r.sim_s / 1e6),
        ("cpu_s", cpu_s),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// The per-layer figures of a traced run, except `tracing_overhead_pct`
/// and `fail_ratio`, which need the untraced runs and every check.
///
/// # Panics
/// If `r` is not from a traced run.
pub fn per_layer(r: &RunReport) -> Vec<(&'static str, f64)> {
    let l = r
        .layers
        .as_ref()
        .expect("per-layer figures need a traced run");
    let sum = |f: fn(&Counters) -> u64| r.cells.iter().map(|c| f(&c.counters)).sum::<u64>() as f64;
    let mean_bits = |f: fn(&Counters) -> u64| {
        r.cells
            .iter()
            .map(|c| f64::from_bits(f(&c.counters)))
            .sum::<f64>()
            / r.cells.len() as f64
    };
    let launches = l.ctrl.block_launches.max(1) as f64;
    vec![
        ("graph.build_s", l.graph_build_s),
        ("graph.edges", l.graph_edges as f64),
        ("workloads.init_s", l.init_s),
        ("workloads.block_trace_s", l.generate.s),
        ("workloads.blocks", l.generate.blocks as f64),
        ("workloads.warp_ops", l.generate.warp_ops as f64),
        ("workloads.lane_addrs", l.generate.lane_addrs as f64),
        ("trace.record_s", l.record_s),
        ("trace.encode_s", l.encode_s),
        ("trace.decode_s", l.decode_s),
        ("trace.bytes", l.trace_bytes as f64),
        ("trace.block_trace_s", l.replay.s),
        ("trace.blocks", l.replay.blocks as f64),
        ("ctrl.s", l.ctrl.s),
        ("ctrl.block_launches", l.ctrl.block_launches as f64),
        ("ctrl.warp_queries", l.ctrl.warp_queries as f64),
        ("ctrl.throttle_steps", sum(|c| c.throttle_steps)),
        (
            "ctrl.offload_fraction",
            l.ctrl.pim_launches as f64 / launches,
        ),
        ("thermal.solve_s", l.solve.s),
        ("thermal.solves", l.solve.solves as f64),
        ("thermal.substeps", sum(|c| c.thermal_substeps)),
        ("thermal.sweeps", sum(|c| c.thermal_sweeps)),
        ("thermal.fastpath_hits", sum(|c| c.thermal_fastpath_hits)),
        ("gpu_hmc.s", l.gpu_hmc_s),
        ("gpu.instructions", sum(|c| c.instructions)),
        ("gpu.loads", sum(|c| c.loads)),
        ("gpu.stores", sum(|c| c.stores)),
        ("gpu.pim_lane_ops", sum(|c| c.pim_lane_ops)),
        ("gpu.host_lane_ops", sum(|c| c.host_lane_ops)),
        ("gpu.l2_hit_rate", mean_bits(|c| c.l2_hit_rate_bits)),
        ("hmc.reads", sum(|c| c.hmc_reads)),
        ("hmc.writes", sum(|c| c.hmc_writes)),
        ("hmc.pim_ops", sum(|c| c.hmc_pim_ops)),
        ("hmc.flits", sum(|c| c.hmc_flits)),
        ("hmc.row_hit_rate", mean_bits(|c| c.row_hit_rate_bits)),
        ("hmc.queue_wait_ps", sum(|c| c.queue_wait_ps)),
        ("cosim.cells", r.cells.len() as f64),
        ("cosim.epochs", sum(|c| c.epochs)),
        ("cosim.sim_ms", sum(|c| c.end_ps) * 1e-9),
        ("pool.workers", l.workers as f64),
        ("pool.idle_s", l.idle_s),
        ("unattributed_pct", 100.0 * l.unattributed_s / r.wall_s),
    ]
}

/// The unit of a metric listed in [`END_TO_END`] or [`PER_LAYER`].
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// User plus system CPU seconds of this process so far, all threads
/// included (`/proc/self/stat`, in USER_HZ = 100 ticks per second).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| format!("malformed /proc/self/stat field {i}"))
    };
    Ok(ticks(11)? + ticks(12)?)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The benchmark's last output line: one JSON object with the check
/// verdict, the cell counts and every metric with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name).unwrap_or("")
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
