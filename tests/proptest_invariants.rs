//! Randomized tests over the cross-crate invariants.
//!
//! Deterministic seeded sweeps (via the workspace's own
//! [`coolpim::telemetry::rng`] PRNG) stand in for an external
//! property-testing framework: each test draws a few dozen random cases
//! from a fixed seed, so failures reproduce exactly and the suite needs
//! no third-party dependencies.

use coolpim::graph::builder;
use coolpim::graph::reference;
use coolpim::graph::workloads::bfs::{BfsKernel, BfsVariant};
use coolpim::graph::workloads::sssp::{SsspKernel, SsspVariant};
use coolpim::prelude::*;
use coolpim::telemetry::rng::SplitMix64;

/// Random small weighted digraph.
fn random_graph(rng: &mut SplitMix64) -> Csr {
    let n = rng.gen_range_u32(2, 40) as usize;
    let m = rng.gen_range_u64(300) as usize;
    let edges: Vec<(u32, u32, u32)> = (0..m)
        .map(|_| {
            (
                rng.gen_range_u32(0, n as u32),
                rng.gen_range_u32(0, n as u32),
                rng.gen_range_u32(1, 64),
            )
        })
        .collect();
    builder::from_weighted_edges(n, &edges)
}

fn run_kernel(kernel: &mut dyn coolpim::gpu::Kernel, policy: Policy) {
    let cfg = coolpim::core::cosim::CoSimConfig {
        gpu: GpuConfig::tiny(),
        ..coolpim::core::cosim::CoSimConfig::default()
    };
    let r = CoSim::new(policy, cfg).run(kernel);
    assert!(!r.shutdown && !r.timed_out);
}

#[test]
fn bfs_matches_reference_on_random_graphs() {
    let mut rng = SplitMix64::seed_from_u64(0xB_F5);
    for case in 0..24 {
        let g = random_graph(&mut rng);
        let src = rng.gen_range_u32(0, g.vertices() as u32);
        let offload = rng.next_u64().is_multiple_of(2);
        let expect = reference::bfs_levels(&g, src);
        let mut k = BfsKernel::new(g.clone(), BfsVariant::Dwc, src);
        run_kernel(
            &mut k,
            if offload {
                Policy::NaiveOffloading
            } else {
                Policy::NonOffloading
            },
        );
        assert_eq!(
            k.levels(),
            &expect[..],
            "case {case}: src {src}, offload {offload}"
        );
    }
}

#[test]
fn sssp_matches_dijkstra_on_random_graphs() {
    let mut rng = SplitMix64::seed_from_u64(0x55_5B);
    for case in 0..24 {
        let g = random_graph(&mut rng);
        let src = rng.gen_range_u32(0, g.vertices() as u32);
        let expect = reference::sssp_distances(&g, src);
        let mut k = SsspKernel::new(g.clone(), SsspVariant::Dwc, src);
        run_kernel(&mut k, Policy::NaiveOffloading);
        assert_eq!(k.distances(), &expect[..], "case {case}: src {src}");
    }
}

#[test]
fn thermal_model_is_monotone_in_load() {
    let mut rng = SplitMix64::seed_from_u64(0x7E_A7);
    for case in 0..24 {
        let bw_gb = rng.gen_f64() * 320.0;
        let extra_gb = 1.0 + rng.gen_f64() * 79.0;
        let rate = rng.gen_f64() * 3.0;
        let extra_rate = 0.1 + rng.gen_f64() * 1.9;
        let mut m = HmcThermalModel::hmc20(Cooling::CommodityServer);
        let base = m
            .steady_state(&TrafficSample::with_pim(bw_gb * 1e9, rate, 1e-3))
            .peak_dram_c;
        let more_bw = m
            .steady_state(&TrafficSample::with_pim(
                (bw_gb + extra_gb) * 1e9,
                rate,
                1e-3,
            ))
            .peak_dram_c;
        let more_pim = m
            .steady_state(&TrafficSample::with_pim(
                bw_gb * 1e9,
                rate + extra_rate,
                1e-3,
            ))
            .peak_dram_c;
        assert!(more_bw > base, "case {case}: bw {bw_gb}+{extra_gb} GB/s");
        assert!(more_pim > base, "case {case}: pim rate {rate}+{extra_rate}");
    }
}

#[test]
fn hmc_completions_are_sane() {
    let mut rng = SplitMix64::seed_from_u64(0x4A_5C);
    for _ in 0..24 {
        let mut hmc = Hmc::hmc20();
        let ops = 1 + rng.gen_range_u64(199);
        for _ in 0..ops {
            let addr = rng.gen_range_u64(1 << 26) & !0x3f;
            let req = match rng.gen_range_u64(3) {
                0 => Request::read(addr),
                1 => Request::write(addr),
                _ => Request::pim(PimOp::SignedAdd, addr),
            };
            let c = hmc.submit(0, &req);
            assert!(c.finish_ps > 0);
            assert!(c.req_accepted_ps <= c.finish_ps);
            assert!(!c.shutdown);
        }
        let t = hmc.totals();
        assert_eq!(t.raw_bytes() % 16, 0);
    }
}

#[test]
fn pim_ops_are_idempotent_where_expected() {
    // Boolean/comparison PIM ops are idempotent: applying twice with
    // the same immediate equals applying once.
    let mut rng = SplitMix64::seed_from_u64(0x1D_E8);
    for _ in 0..256 {
        let old = rng.next_u64();
        let imm = rng.next_u64();
        for op in [
            PimOp::And,
            PimOp::Or,
            PimOp::CasEqual,
            PimOp::CasGreater,
            PimOp::CasSmaller,
            PimOp::Swap,
            PimOp::BitWrite,
        ] {
            let once = op.apply(old, imm);
            let twice = op.apply(once, imm);
            assert_eq!(
                once, twice,
                "{op:?} not idempotent for old={old:#x} imm={imm:#x}"
            );
        }
    }
}
