//! Exact-result pins of the GPU + HMC timing engine.
//!
//! The engine is deterministic, so every simulated statistic of a cell
//! is an exact value. These tests fold the statistics that the
//! scheduler, the caches, the vaults and the links produce into one
//! FNV-1a digest per cell and compare it with a committed value. A
//! rewrite of the hot path that changes any simulated bit fails here,
//! naming the cell.
//!
//! * [`fixed_cells_are_pinned`] (tier 1, a few seconds at the dev
//!   profile): four workloads under four policies on a 2^14-vertex
//!   graph, plus one hot cell whose cube runs through the Extended and
//!   Critical derating phases.
//! * [`eval_quick_matrix_is_pinned`] (ignored; run it in release with
//!   `cargo test --release --test engine_pin -- --ignored`, ~15 s on
//!   2 cores): every cell of the Figs. 10–13 quick-scale matrix.

use coolpim::core::cosim::{CoSim, CoSimConfig, CoSimResult};
use coolpim::prelude::*;
use coolpim::thermal::Cooling;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The digest of one finished cell.
///
/// Two statistics enter through exact proxies, because the result
/// carries them in that form: the queue-wait sum as the histogram's
/// `(count, mean bits)` (the mean is the sum over the count, so for
/// sums below 2^53 the pair fixes the sum), and the row hits and misses
/// as the row-hit-rate bits over the known access total
/// `reads + writes + pim_ops`.
fn cell_digest(r: &CoSimResult) -> u64 {
    let hist = |name: &str| {
        let h = r.metrics.histogram(name).copied().unwrap_or_default();
        [h.count, h.mean.to_bits()]
    };
    let [wait_n, wait_mean] = hist("hmc_queue_wait_ps");
    let [service_n, service_mean] = hist("hmc_service_time_ps");
    fnv1a(&[
        r.gpu.end_ps,
        r.gpu.instructions,
        r.gpu.loads,
        r.gpu.stores,
        r.gpu.pim_lane_ops,
        r.gpu.host_lane_ops,
        r.hmc.reads,
        r.hmc.writes,
        r.hmc.pim_ops,
        r.hmc.flits,
        wait_n,
        wait_mean,
        service_n,
        service_mean,
        r.metrics.gauge("hmc_row_hit_rate").unwrap_or(0.0).to_bits(),
        r.l2_hit_rate.to_bits(),
        r.throttle_steps,
        r.max_peak_dram_c.to_bits(),
    ])
}

/// Tiny GPU, 10 µs epochs: short cells that still cross many epoch
/// boundaries, so the engine pauses and resumes often. The 30 °C
/// warning threshold makes both throttling controllers act, so the
/// CoolPIM cells differ from the Naive ones.
fn small_cfg() -> CoSimConfig {
    CoSimConfig {
        gpu: GpuConfig::tiny(),
        epoch: 10_000_000,
        warning_threshold_c: 30.0,
        ..CoSimConfig::default()
    }
}

fn run_cell(g: &Csr, w: Workload, p: Policy, cfg: CoSimConfig) -> CoSimResult {
    let mut k = make_kernel(w, g);
    CoSim::new(p, cfg).run(k.as_mut())
}

/// `(cell, digest)`, taken from the engine before its hot path was
/// restructured.
const FIXED_PINS: [(&str, u64); 17] = [
    ("dc/Non-Offloading", 0xad77afa9c9248e80),
    ("dc/Naive-Offloading", 0x5595595f9d08731e),
    ("dc/CoolPIM(SW)", 0x5595595f9d08731e),
    ("dc/CoolPIM(HW)", 0x7d20b13477a50232),
    ("bfs-ta/Non-Offloading", 0x4e46f90c90cc5ac4),
    ("bfs-ta/Naive-Offloading", 0xa18ce0c0eebedbb4),
    ("bfs-ta/CoolPIM(SW)", 0x7e1d37a43c23081f),
    ("bfs-ta/CoolPIM(HW)", 0x1877ad2f627906ef),
    ("pagerank/Non-Offloading", 0x80d6194eadc6c6c5),
    ("pagerank/Naive-Offloading", 0x690febf27af5c198),
    ("pagerank/CoolPIM(SW)", 0x662d3fb967fc6328),
    ("pagerank/CoolPIM(HW)", 0xe76674cc98ca4deb),
    ("sssp-dtc/Non-Offloading", 0x9dadc957645126bd),
    ("sssp-dtc/Naive-Offloading", 0x26551712d961c399),
    ("sssp-dtc/CoolPIM(SW)", 0x149f814997dd8046),
    ("sssp-dtc/CoolPIM(HW)", 0xf6bb66e4f215e1ea),
    ("hot/pagerank/CoolPIM(SW)", 0x2f4e3f60fec2b65c),
];

#[test]
fn fixed_cells_are_pinned() {
    let g = GraphSpec::test_medium().build();
    let mut got = Vec::new();
    for w in [
        Workload::Dc,
        Workload::BfsTa,
        Workload::PageRank,
        Workload::SsspDtc,
    ] {
        for p in [
            Policy::NonOffloading,
            Policy::NaiveOffloading,
            Policy::CoolPimSw,
            Policy::CoolPimHw,
        ] {
            let r = run_cell(&g, w, p, small_cfg());
            assert!(!r.shutdown && !r.timed_out, "{}/{}", w.name(), p.name());
            got.push((format!("{}/{}", w.name(), p.name()), cell_digest(&r)));
        }
    }

    // A 3.2 °C/W sink heats the cube past 95 °C but not to shutdown, so
    // it swings between the Extended and Critical phases (each with its
    // own derated vault costs) while SW-DynT throttles.
    let hot = CoSimConfig {
        cooling: Cooling::Custom { resistance: 3200 },
        ..small_cfg()
    };
    let r = run_cell(&g, Workload::PageRank, Policy::CoolPimSw, hot);
    let phases: Vec<_> = r.timeline.iter().map(|s| s.phase).collect();
    for phase in [TempPhase::Extended, TempPhase::Critical] {
        assert!(phases.contains(&phase), "hot cell never reached {phase:?}");
    }
    assert!(!r.shutdown && r.throttle_steps > 0);
    got.push(("hot/pagerank/CoolPIM(SW)".into(), cell_digest(&r)));

    let report: String = got
        .iter()
        .map(|(cell, d)| format!("    (\"{cell}\", {d:#018x}),\n"))
        .collect();
    let expected: Vec<_> = FIXED_PINS
        .iter()
        .map(|&(c, d)| (c.to_string(), d))
        .collect();
    assert_eq!(got, expected, "cell digests moved; now:\n{report}");
}

/// Digest of the whole eval-quick matrix (cell digests folded in
/// workload-major, policy-minor order), taken from the engine before
/// its hot path was restructured.
const EVAL_QUICK_PIN: u64 = 0x8d5bdaa64ca2f015;

#[test]
#[ignore = "release-only: the 50-cell quick-scale matrix"]
fn eval_quick_matrix_is_pinned() {
    let g = GraphSpec {
        scale: 16,
        avg_degree: 12,
        seed: 42,
        ..GraphSpec::ldbc_like()
    }
    .build();
    let results = run_matrix(&g, &Workload::ALL, &Policy::ALL, CoSimConfig::default());
    let mut cells = Vec::new();
    for wr in &results {
        for r in &wr.runs {
            let d = cell_digest(r);
            println!("{}/{}: {d:#018x}", wr.workload.name(), r.policy.name());
            cells.push(d);
        }
    }
    assert_eq!(cells.len(), Workload::ALL.len() * Policy::ALL.len());
    let digest = fnv1a(&cells);
    assert_eq!(
        digest, EVAL_QUICK_PIN,
        "matrix digest moved: {digest:#018x}"
    );
}
