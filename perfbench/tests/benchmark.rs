//! The benchmark's own tests, on `GraphSpec::tiny()`-sized plans.

use coolpim_core::experiment::SweepCell;
use coolpim_core::Policy;
use coolpim_gpu::isa::WarpOp;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::{make_kernel, Workload};
use coolpim_perfbench::calib::{Kernel, Sample};
use coolpim_perfbench::check::{cell_error, mismatch, roundtrip_error, trace_digest, Counters};
use coolpim_perfbench::metrics::{end_to_end, per_layer, END_TO_END, PER_LAYER};
use coolpim_perfbench::runs::{child_output, normalise, parse_child, ChildRun, Tally};
use coolpim_perfbench::workload::{run, Bench, Plan, RunReport};
use coolpim_thermal::Cooling;
use coolpim_trace::RecordingSource;

/// `bench` at full shape but on the tiny graph, with a few workloads so
/// debug builds stay quick.
fn tiny_plan(bench: Bench) -> Plan {
    let mut plan = Plan::new(bench, 7);
    plan.graph = GraphSpec::tiny();
    if bench != Bench::ReplaySweep {
        plan.workloads = vec![Workload::Dc, Workload::KCore, Workload::PageRank];
    }
    plan
}

fn assert_same_cells(plain: &RunReport, traced: &RunReport) {
    assert_eq!(plain.cells.len(), traced.cells.len());
    for (p, t) in plain.cells.iter().zip(&traced.cells) {
        assert_eq!(p.label, t.label);
        assert_eq!(p.error, None, "{}", p.label);
        assert_eq!(mismatch(&p.counters, &t.counters), None, "{}", p.label);
    }
}

#[test]
fn adapters_leave_matrix_cells_identical() {
    let plan = tiny_plan(Bench::EvalQuick);
    let plain = run(&plan, false);
    let traced = run(&plan, true);
    assert_eq!(plain.cells.len(), plan.cell_count());
    assert_same_cells(&plain, &traced);
    let layers = traced.layers.expect("traced run has layers");
    assert!(layers.generate.blocks > 0 && layers.ctrl.block_launches > 0);
    assert!(layers.solve.solves > 0 && layers.gpu_hmc_s > 0.0);
    assert_eq!(layers.replay.blocks, 0);
}

#[test]
fn adapters_leave_replay_cells_identical() {
    let plan = tiny_plan(Bench::ReplaySweep);
    let plain = run(&plan, false);
    let traced = run(&plan, true);
    assert_eq!(plain.cells.len(), plan.cell_count());
    assert_same_cells(&plain, &traced);
    let layers = traced.layers.expect("traced run has layers");
    // Every replayed cell sees the whole recording.
    assert_eq!(
        layers.replay.blocks,
        layers.generate.blocks * plan.cells.len() as u64
    );
    assert!(layers.trace_bytes > 0 && layers.record_s > 0.0);
}

#[test]
fn traced_cell_matches_plain_cosim_run() {
    // One cell straight through `CoSim::run`, no benchmark pool around it.
    let mut plan = tiny_plan(Bench::PaperGraph);
    plan.workloads = vec![Workload::KCore];
    plan.policies = vec![Policy::CoolPimHw];
    let traced = run(&plan, true);
    let graph = plan.graph.build();
    let mut kernel = make_kernel(Workload::KCore, &graph);
    let direct = coolpim_core::CoSim::new(Policy::CoolPimHw, plan.cfg.clone()).run(kernel.as_mut());
    assert_eq!(
        mismatch(&Counters::of(&direct), &traced.cells[0].counters),
        None
    );
}

#[test]
fn cell_checks_fire_on_violations() {
    let graph = GraphSpec::tiny().build();
    let mut kernel = make_kernel(Workload::Dc, &graph);
    let r = coolpim_core::CoSim::paper(Policy::NaiveOffloading).run(kernel.as_mut());
    let good = Counters::of(&r);
    assert!(good.pim_lane_ops > 0);
    assert_eq!(cell_error(&good), None);

    let timed_out = Counters {
        timed_out: 1,
        ..good
    };
    assert!(cell_error(&timed_out).unwrap().contains("cap"));
    let lost = Counters {
        hmc_pim_ops: good.pim_lane_ops - 1,
        ..good
    };
    assert!(cell_error(&lost).unwrap().contains("PIM lanes"));
    let drifted = Counters {
        hmc_flits: good.hmc_flits + 1,
        ..good
    };
    assert!(mismatch(&good, &drifted).unwrap().starts_with("hmc_flits"));
}

#[test]
fn roundtrip_check_fires_on_a_changed_trace() {
    let graph = GraphSpec::tiny().build();
    let mut kernel = make_kernel(Workload::Dc, &graph);
    let mut tee = RecordingSource::new(kernel.as_mut());
    coolpim_core::CoSim::paper(Policy::CoolPimSw).run(&mut tee);
    let recording = tee.finish(0, "tiny");
    let digest = trace_digest(&recording);
    let mut decoded =
        coolpim_trace::WorkloadTrace::decode(&recording.encode(), "test").expect("decodes");
    assert_eq!(roundtrip_error(digest, &decoded), None);
    let addr = decoded
        .launches
        .iter_mut()
        .flatten()
        .flat_map(|b| &mut b.warps)
        .flat_map(|w| &mut w.ops)
        .find_map(|op| match op {
            WarpOp::Load(a) | WarpOp::Store(a) | WarpOp::Atomic { addrs: a, .. } => a.first_mut(),
            WarpOp::Compute(_) => None,
        })
        .expect("a memory op");
    *addr += 64;
    assert!(roundtrip_error(digest, &decoded).is_some());
}

#[test]
fn replay_of_recorded_config_is_checked_against_the_live_run() {
    // Record under CoolPIM(HW) but replay a sweep whose matching cell is
    // the recorded config: that cell must agree with the live run.
    let plan = tiny_plan(Bench::ReplaySweep);
    assert!(plan.cells.contains(&SweepCell {
        policy: plan.record.1,
        cooling: Cooling::CommodityServer,
        warning_threshold_c: plan.cfg.warning_threshold_c,
    }));
    let report = run(&plan, false);
    assert!(report.cells.iter().all(|c| c.error.is_none()));
}

#[test]
fn tally_fails_cells_that_differ_between_runs() {
    let plan = tiny_plan(Bench::PaperGraph);
    let report = run(&plan, false);
    let figures = end_to_end(&report, 1.0, 1.0);
    let text = child_output(&figures, &report.cells);
    let first = parse_child(&text).expect("parses");
    assert_eq!(first.cells, report.cells);

    let mut tally = Tally::new(plan.cell_count());
    tally.absorb("untraced", &Ok(first));
    assert_eq!(
        (tally.attempted, tally.failed),
        (plan.cell_count() as u64, 0)
    );

    let mut drifted = parse_child(&text).expect("parses");
    drifted.cells[2].counters.instructions += 1;
    tally.absorb("traced", &Ok(drifted));
    assert_eq!(tally.failed, 1);

    tally.absorb("untraced", &Err("crashed".into()));
    assert_eq!(tally.failed, 1 + plan.cell_count() as u64);
    assert_eq!(tally.attempted, 3 * plan.cell_count() as u64);
}

#[test]
fn host_times_are_scaled_by_the_host_speed_of_their_span() {
    let mut run = ChildRun {
        metrics: [
            ("wall_s", 10.0),
            ("setup_s", 2.0),
            ("sim_s", 8.0),
            ("sim_minst_per_s", 5.0),
            ("cpu_s", 20.0),
            ("peak_rss_mb", 100.0),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect(),
        cells: Vec::new(),
    };
    // The host runs every kernel at half the reference speed during set-up
    // and at a quarter of it afterwards.
    let samples: Vec<Sample> = (0..60)
        .map(|i| {
            let at_s = i as f64 * 0.1;
            let kernel = Kernel::ALL[i % Kernel::ALL.len()];
            let slow = if at_s < 2.0 { 2.0 } else { 4.0 };
            Sample {
                at_s,
                kernel,
                took_s: slow * kernel.reference_s(),
            }
        })
        .collect();
    let scale = normalise(&mut run, &samples).expect("every kernel sampled");
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
    assert!(
        close(scale.setup, 0.5) && close(scale.cells, 0.25),
        "{scale:?}"
    );
    let m = &run.metrics;
    assert!(close(m["setup_s"], 1.0));
    assert!(close(m["sim_s"], 2.0));
    assert!(close(m["sim_minst_per_s"], 20.0));
    assert!(close(m["wall_s"], 3.0));
    assert!(close(m["cpu_s"], 6.0));
    assert_eq!(m["peak_rss_mb"], 100.0);
    assert!(normalise(&mut run, &samples[..1]).is_err());
}

#[test]
fn every_listed_metric_is_emitted_with_a_valid_name() {
    let valid = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let plan = tiny_plan(Bench::ReplaySweep);
    let report = run(&plan, true);
    let mut emitted: Vec<&str> = end_to_end(&report, 1.0, 1.0)
        .into_iter()
        .chain(per_layer(&report))
        .map(|(n, v)| {
            assert!(v.is_finite(), "{n} = {v}");
            n
        })
        .collect();
    // Added by the parent from every run of an invocation.
    emitted.extend(["tracing_overhead_pct", "fail_ratio"]);
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid(def.name), "{}", def.name);
        assert!(emitted.contains(&def.name), "{} never emitted", def.name);
        assert!(["lower", "higher"].contains(&def.better));
    }
    for name in &emitted {
        assert!(valid(name), "{name}");
    }

    // BENCHMARK.json lists exactly these metrics and workloads.
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let listed: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote"))
        .collect();
    let mut expected: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
    expected.extend(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name));
    assert_eq!(listed, expected);
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            def.name, def.unit, def.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
