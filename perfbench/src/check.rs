//! Per-cell correctness checks and the exact simulated counters they
//! compare.
//!
//! The simulator is deterministic at a fixed seed, so every simulated
//! statistic of a cell is an exact value: two runs of the same cell —
//! repeated, traced or replayed — must agree on all of them. Floating
//! point results are compared bit for bit.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use coolpim_core::CoSimResult;
use coolpim_gpu::isa::WarpOp;
use coolpim_trace::WorkloadTrace;

/// Declares [`Counters`] with its field list written once: the struct,
/// [`COUNTER_NAMES`], and the conversions to and from a flat array (the
/// form a child process reports them in).
macro_rules! counters {
    ($($(#[doc = $doc:literal])* $name:ident,)*) => {
        /// The simulated statistics of one co-simulated cell, exactly.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[doc = $doc])* pub $name: u64,)*
        }

        /// Field names of [`Counters`], in [`Counters::words`] order.
        pub const COUNTER_NAMES: [&str; [$(stringify!($name)),*].len()] = [$(stringify!($name)),*];

        impl Counters {
            /// All fields in [`COUNTER_NAMES`] order.
            pub fn words(&self) -> [u64; COUNTER_NAMES.len()] {
                [$(self.$name),*]
            }

            /// The inverse of [`Counters::words`].
            pub fn from_words(words: [u64; COUNTER_NAMES.len()]) -> Self {
                let [$($name),*] = words;
                Self { $($name),* }
            }
        }
    };
}

counters! {
    /// Simulated end time (ps).
    end_ps,
    /// Warp instructions issued.
    instructions,
    /// Global loads.
    loads,
    /// Global stores.
    stores,
    /// Atomic lanes offloaded as PIM instructions (GPU side).
    pim_lane_ops,
    /// Atomic lanes executed as host atomics.
    host_lane_ops,
    /// Blocks launched PIM-enabled.
    pim_blocks,
    /// Blocks launched with the non-PIM body.
    non_pim_blocks,
    /// Kernel launches.
    launches,
    /// Thermal warnings the GPU saw.
    warnings_seen,
    /// Cube reads.
    hmc_reads,
    /// Cube writes.
    hmc_writes,
    /// PIM operations the cube served.
    hmc_pim_ops,
    /// Link flits.
    hmc_flits,
    /// Summed vault queue wait (simulated ps; histogram mean × count).
    queue_wait_ps,
    /// Source-throttling control actions.
    throttle_steps,
    /// Thermal epochs.
    epochs,
    /// Implicit thermal sub-steps solved.
    thermal_substeps,
    /// Gauss–Seidel sweeps across those sub-steps.
    thermal_sweeps,
    /// Thermal steps the settled-field fast path skipped.
    thermal_fastpath_hits,
    /// Hottest peak DRAM temperature (f64 bits).
    max_peak_dram_bits,
    /// L2 hit rate (f64 bits).
    l2_hit_rate_bits,
    /// DRAM row-buffer hit rate (f64 bits).
    row_hit_rate_bits,
    /// External data bytes (f64 bits).
    ext_data_bits,
    /// Cube energy (f64 bits).
    cube_energy_bits,
    /// 1 when the safety time cap was hit.
    timed_out,
    /// 1 when the cube shut down.
    shutdown,
}

impl Counters {
    /// The counters of a finished run.
    pub fn of(r: &CoSimResult) -> Self {
        let queue_wait_ps = r
            .metrics
            .histogram("hmc_queue_wait_ps")
            .map_or(0, |h| (h.mean * h.count as f64).round() as u64);
        Self {
            end_ps: r.gpu.end_ps,
            instructions: r.gpu.instructions,
            loads: r.gpu.loads,
            stores: r.gpu.stores,
            pim_lane_ops: r.gpu.pim_lane_ops,
            host_lane_ops: r.gpu.host_lane_ops,
            pim_blocks: r.gpu.pim_blocks,
            non_pim_blocks: r.gpu.non_pim_blocks,
            launches: r.gpu.launches,
            warnings_seen: r.gpu.warnings_seen,
            hmc_reads: r.hmc.reads,
            hmc_writes: r.hmc.writes,
            hmc_pim_ops: r.hmc.pim_ops,
            hmc_flits: r.hmc.flits,
            queue_wait_ps,
            throttle_steps: r.throttle_steps,
            epochs: r.timeline.len() as u64,
            thermal_substeps: r.metrics.counter("thermal_substeps"),
            thermal_sweeps: r.metrics.counter("thermal_gs_sweeps"),
            thermal_fastpath_hits: r.metrics.counter("thermal_fastpath_hits"),
            max_peak_dram_bits: r.max_peak_dram_c.to_bits(),
            l2_hit_rate_bits: r.l2_hit_rate.to_bits(),
            row_hit_rate_bits: r.metrics.gauge("hmc_row_hit_rate").unwrap_or(0.0).to_bits(),
            ext_data_bits: r.ext_data_bytes.to_bits(),
            cube_energy_bits: r.cube_energy_j.to_bits(),
            timed_out: u64::from(r.timed_out),
            shutdown: u64::from(r.shutdown),
        }
    }
}

/// The checks every cell must pass on its own: the run finished before
/// the safety cap, and every PIM lane the GPU offloaded was served by
/// the cube.
pub fn cell_error(c: &Counters) -> Option<String> {
    if c.timed_out != 0 {
        return Some("run hit the simulated-time cap".into());
    }
    if c.pim_lane_ops != c.hmc_pim_ops {
        return Some(format!(
            "GPU offloaded {} PIM lanes but the cube served {}",
            c.pim_lane_ops, c.hmc_pim_ops
        ));
    }
    None
}

/// Names the first counter where `got` differs from `want`.
pub fn mismatch(want: &Counters, got: &Counters) -> Option<String> {
    want.words()
        .iter()
        .zip(got.words())
        .zip(COUNTER_NAMES)
        .find(|((w, g), _)| **w != *g)
        .map(|((w, g), name)| format!("{name} is {g}, expected {w}"))
}

/// A digest of everything a trace holds, so a decoded trace can be
/// checked against a recording that is no longer in memory (holding both
/// would double the peak memory the benchmark reports).
pub fn trace_digest(t: &WorkloadTrace) -> u64 {
    let mut h = DefaultHasher::new();
    t.name.hash(&mut h);
    t.params.hash(&mut h);
    t.config_hash.hash(&mut h);
    t.warps_per_block.hash(&mut h);
    t.profile.pim_intensity.to_bits().hash(&mut h);
    t.profile.divergence_ratio.to_bits().hash(&mut h);
    for launch in &t.launches {
        launch.len().hash(&mut h);
        for block in launch {
            block.warps.len().hash(&mut h);
            for warp in &block.warps {
                warp.ops.len().hash(&mut h);
                for op in &warp.ops {
                    match op {
                        WarpOp::Compute(cycles) => (0u8, cycles).hash(&mut h),
                        WarpOp::Load(addrs) => (1u8, addrs).hash(&mut h),
                        WarpOp::Store(addrs) => (2u8, addrs).hash(&mut h),
                        WarpOp::Atomic { op, addrs } => (3u8, op, addrs).hash(&mut h),
                    }
                }
            }
        }
    }
    h.finish()
}

/// Whether a decoded trace reproduces the recording whose
/// [`trace_digest`] was `recorded`.
pub fn roundtrip_error(recorded: u64, decoded: &WorkloadTrace) -> Option<String> {
    (trace_digest(decoded) != recorded).then(|| {
        format!(
            "decode(encode(trace)) differs from the recording ({} blocks, {} ops decoded)",
            decoded.total_blocks(),
            decoded.total_ops()
        )
    })
}
