//! Timing ⟷ thermal co-simulation (the paper's SST-style composition of
//! MacSim + VaultSim + KitFox/3D-ICE).
//!
//! The GPU/HMC timing model advances in **thermal epochs** (default
//! 100 µs). At each epoch boundary the cube's windowed activity counters
//! are drained into a traffic sample, the transient RC solver advances by
//! the epoch, and the resulting peak DRAM temperature is pushed back into
//! the cube — updating its operating phase (frequency derating, doubled
//! refresh, shutdown) and the ERRSTAT thermal-warning bit that CoolPIM's
//! source throttling consumes.

use std::path::PathBuf;
use std::time::Instant;

use coolpim_gpu::source::InstructionSource;
use coolpim_gpu::stats::GpuStats;
use coolpim_gpu::system::{GpuSystem, RunOutcome};
use coolpim_hmc::stats::StatsTotals;
use coolpim_hmc::{ns_to_ps, Hmc, Ps, TempPhase};
use coolpim_telemetry::flight::{FlightRecorder, PostmortemBundle};
use coolpim_telemetry::monitor::EpochObservation;
use coolpim_telemetry::{
    MetricsSnapshot, MonitorHub, Telemetry, TelemetryEvent, TraceTrack, Tracer,
};
use coolpim_thermal::cooling::Cooling;
use coolpim_thermal::model::HmcThermalModel;
use coolpim_thermal::power::TrafficSample;
use coolpim_thermal::solver::{ThermalSolve, TransientState};

use crate::policy::Policy;

/// Co-simulation parameters.
#[derive(Debug, Clone)]
pub struct CoSimConfig {
    /// Host GPU configuration.
    pub gpu: coolpim_gpu::GpuConfig,
    /// Thermal epoch length (ps).
    pub epoch: Ps,
    /// Cooling solution on the cube.
    pub cooling: Cooling,
    /// ERRSTAT warning threshold (°C).
    pub warning_threshold_c: f64,
    /// Safety cap on simulated time (ps); runs exceeding it abort.
    pub max_sim_time: Ps,
    /// Start the cube at the steady-state temperature of the first
    /// epoch's traffic instead of at ambient. The paper's evaluation
    /// measures the steady regime (GPU kernels are launched over and
    /// over), so the cold-start transient is excluded by default.
    pub warm_start: bool,
}

impl Default for CoSimConfig {
    fn default() -> Self {
        Self {
            gpu: coolpim_gpu::GpuConfig::paper(),
            epoch: ns_to_ps(100_000.0), // 100 µs
            cooling: Cooling::CommodityServer,
            warning_threshold_c: 84.0,
            max_sim_time: ns_to_ps(4.0e9), // 4 s
            warm_start: true,
        }
    }
}

/// Flight-recorder configuration (see
/// [`coolpim_telemetry::flight`]): sampling cadence, ring depth, and
/// where anomaly dumps go.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Frames retained in the ring (default 64 — 6.4 ms of history at
    /// the default 100 µs epoch and cadence 1).
    pub capacity: usize,
    /// Sample every N co-sim epochs (default 1; floored at 1).
    pub every_epochs: u64,
    /// Directory for post-mortem bundles (None keeps dumps in-memory
    /// only: the `FlightDump` event and `flight_dumps` counter still
    /// fire).
    pub postmortem_dir: Option<PathBuf>,
    /// Maximum bundles per run (default 8).
    pub max_dumps: usize,
    /// Minimum epochs between dumps, so one hot episode cannot spam
    /// near-identical bundles (default 16).
    pub min_gap_epochs: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            every_epochs: 1,
            postmortem_dir: None,
            max_dumps: 8,
            min_gap_epochs: 16,
        }
    }
}

/// Per-run flight-recorder state (built at run start so the ring sizes
/// itself to the cube actually attached).
struct FlightState {
    cfg: FlightConfig,
    rec: FlightRecorder,
    /// Scratch for the per-vault temperature reduction (no per-epoch
    /// allocation).
    temps: Vec<f64>,
    /// Whether the previous epoch's peak was above the warning
    /// threshold (overshoot-episode edge detection).
    over: bool,
    last_dump_epoch: Option<u64>,
    dumps: Vec<PathBuf>,
}

/// One epoch's telemetry (the per-millisecond samples of Fig. 14 are
/// aggregated from these).
#[derive(Debug, Clone, Copy)]
pub struct TimelineSample {
    /// End-of-epoch simulation time (s).
    pub t_s: f64,
    /// Average PIM rate over the epoch (op/ns).
    pub pim_rate_op_ns: f64,
    /// Average external data bandwidth over the epoch (bytes/s).
    pub data_bw: f64,
    /// Peak DRAM temperature at the end of the epoch (°C).
    pub peak_dram_c: f64,
    /// Operating phase after the thermal update.
    pub phase: TempPhase,
}

/// Result of one co-simulated run.
#[derive(Debug, Clone)]
pub struct CoSimResult {
    /// Which policy ran.
    pub policy: Policy,
    /// Workload name.
    pub workload: String,
    /// Total execution time (s).
    pub exec_s: f64,
    /// Hottest peak-DRAM temperature seen (°C).
    pub max_peak_dram_c: f64,
    /// Whole-run average PIM rate (op/ns).
    pub avg_pim_rate_op_ns: f64,
    /// Total external data traffic (bytes, Table I data-equivalent).
    pub ext_data_bytes: f64,
    /// GPU engine statistics.
    pub gpu: GpuStats,
    /// Cube totals.
    pub hmc: StatsTotals,
    /// Per-epoch telemetry.
    pub timeline: Vec<TimelineSample>,
    /// Whether the cube thermally shut down.
    pub shutdown: bool,
    /// Whether the safety time cap was hit.
    pub timed_out: bool,
    /// L2 hit rate over the whole run.
    pub l2_hit_rate: f64,
    /// Cube energy over the run (J): static + link + DRAM + PIM power
    /// integrated over the thermal epochs.
    pub cube_energy_j: f64,
    /// Cooling (fan) energy over the run (J).
    pub fan_energy_j: f64,
    /// End-of-run metrics: epoch/warning counters, pool/cap/temperature
    /// gauges, and the cube's service-time and queue-wait histograms.
    pub metrics: MetricsSnapshot,
    /// Source-throttling control actions applied: SW-DynT token-pool
    /// shrinks plus HW-DynT PCU warp-cap updates.
    pub throttle_steps: u64,
    /// Observer self-overhead (flight sampling and dumps, monitor
    /// samples, sink emits and flush, tracer recording) as a percentage
    /// of the run's wall time. Exactly 0 when no sink, flight recorder,
    /// monitor or tracer is attached.
    pub telemetry_overhead_pct: f64,
    /// Post-mortem bundles written by the flight recorder, in dump
    /// order.
    pub postmortem_dumps: Vec<PathBuf>,
}

impl CoSimResult {
    /// Average external data bandwidth over the run (bytes/s).
    pub fn avg_data_bw(&self) -> f64 {
        if self.exec_s > 0.0 {
            self.ext_data_bytes / self.exec_s
        } else {
            0.0
        }
    }

    /// Total memory-system energy (cube + fan) in Joules.
    pub fn total_energy_j(&self) -> f64 {
        self.cube_energy_j + self.fan_energy_j
    }
}

/// The co-simulator: GPU + HMC timing coupled to the thermal plant.
///
/// Generic over the thermal model's [`ThermalSolve`] seam (default: the
/// optimized [`TransientState`]); [`Self::with_thermal_model`] swaps the
/// whole plant, e.g. for one driven by the reference solver.
pub struct CoSim<S: ThermalSolve = TransientState> {
    sys: GpuSystem,
    thermal: HmcThermalModel<S>,
    policy: Policy,
    cfg: CoSimConfig,
    telemetry: Telemetry,
    flight_cfg: Option<FlightConfig>,
    monitor: Option<MonitorHub>,
    heartbeat_s: Option<f64>,
    /// The cube's timeline track (window roll-over / event-drain spans
    /// plus per-epoch activity counters), when trace timelines are on.
    hmc_trace: Option<TraceTrack>,
}

// Constructors stay on the defaulted type so `CoSim::paper(...)` keeps
// resolving without annotation (default type parameters don't take part
// in inference).
impl CoSim {
    /// Paper configuration: Table IV GPU + HMC 2.0 + commodity-server
    /// cooling.
    pub fn paper(policy: Policy) -> Self {
        Self::new(policy, CoSimConfig::default())
    }

    /// Custom co-simulation parameters.
    pub fn new(policy: Policy, cfg: CoSimConfig) -> Self {
        let mut hmc = Hmc::hmc20();
        hmc.set_warning_threshold(cfg.warning_threshold_c);
        let sys = GpuSystem::new(cfg.gpu.clone(), hmc);
        let thermal = HmcThermalModel::hmc20(cfg.cooling);
        Self {
            sys,
            thermal,
            policy,
            cfg,
            telemetry: Telemetry::disabled(),
            flight_cfg: None,
            monitor: None,
            heartbeat_s: None,
            hmc_trace: None,
        }
    }
}

impl<S: ThermalSolve> CoSim<S> {
    /// Replaces the GPU system (test hook for smaller configurations).
    pub fn with_system(mut self, sys: GpuSystem) -> Self {
        self.sys = sys;
        self
    }

    /// Replaces the thermal plant wholesale — the solver-swap hook the
    /// lockstep oracle uses, e.g.
    /// `CoSim::paper(p).with_thermal_model(model.with_solver(ReferenceTransient::new))`.
    /// Pair it with a model built for the same cooling solution as the
    /// config, or the run answers a different question than configured.
    pub fn with_thermal_model<S2: ThermalSolve>(self, thermal: HmcThermalModel<S2>) -> CoSim<S2> {
        CoSim {
            sys: self.sys,
            thermal,
            policy: self.policy,
            cfg: self.cfg,
            telemetry: self.telemetry,
            flight_cfg: self.flight_cfg,
            monitor: self.monitor,
            heartbeat_s: self.heartbeat_s,
            hmc_trace: self.hmc_trace,
        }
    }

    /// Attaches a hierarchical trace timeline (see
    /// [`coolpim_telemetry::Tracer`]): opens three tracks on `tracer` —
    /// `sim` (the epoch span tree with thermal children, counter
    /// samples, and warning→throttle flow events), `gpu` (the engine's
    /// scheduling/dispatch spans), and `hmc` (the cube's window and
    /// event-drain spans). Call **after** [`Self::with_telemetry`]: the
    /// `sim` track rides inside the telemetry bundle, so a later
    /// `with_telemetry` replaces it.
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.telemetry.trace = Some(tracer.track("sim"));
        self.sys.set_trace(tracer.track("gpu"));
        self.hmc_trace = Some(tracer.track("hmc"));
        self
    }

    /// Attaches a telemetry bundle (event sink and/or trace track). The
    /// default is [`Telemetry::disabled`], which costs one branch per
    /// epoch.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables the spatial flight recorder: per-vault frames sampled
    /// every `cfg.every_epochs` epochs into a fixed ring, snapshotted to
    /// post-mortem bundles on thermal anomalies (warning raised, phase
    /// change out of Normal, overshoot-episode start).
    pub fn with_flight_recorder(mut self, cfg: FlightConfig) -> Self {
        self.flight_cfg = Some(cfg);
        self
    }

    /// Publishes one [`EpochObservation`] per thermal epoch into `hub`
    /// so a [`coolpim_telemetry::MonitorServer`] (or any other observer
    /// holding the hub) can watch the run live. The per-epoch cost is
    /// one mutex lock plus ring pushes and a registry `clone_from`; it
    /// is traced under the `monitor_sample` span and counted into
    /// `telemetry_overhead_pct`.
    pub fn with_monitor(mut self, hub: MonitorHub) -> Self {
        self.monitor = Some(hub);
        self
    }

    /// Prints a one-line progress summary (epoch, peak temp, phase,
    /// epochs/s) to stderr every `secs` wall seconds, and emits a
    /// [`TelemetryEvent::Heartbeat`] alongside — headless runs stop
    /// being silent until completion.
    pub fn with_heartbeat(mut self, secs: f64) -> Self {
        self.heartbeat_s = Some(secs.max(0.1));
        self
    }

    /// Runs `kernel` to completion under this policy. The source may be a
    /// live [`coolpim_gpu::Kernel`] (every kernel is an
    /// [`InstructionSource`] via the blanket impl) or a trace replay.
    pub fn run<K: InstructionSource + ?Sized>(self, kernel: &mut K) -> CoSimResult {
        let profile = kernel.profile();
        let mut ctrl = self.policy.controller(&profile);
        let feedback = self.policy.thermal_feedback();
        self.run_with_controller(kernel, ctrl.as_mut(), feedback)
    }

    /// Runs `kernel` with a caller-supplied offloading controller
    /// (ablation studies, extensions such as graduated warnings).
    /// `feedback` selects whether the thermal readout is pushed back into
    /// the cube (false reproduces the ideal-cooling scenario).
    pub fn run_with_controller<K: InstructionSource + ?Sized>(
        mut self,
        kernel: &mut K,
        ctrl: &mut dyn coolpim_gpu::controller::OffloadController,
        feedback: bool,
    ) -> CoSimResult {
        self.sys
            .hmc_mut()
            .set_warning_threshold(self.cfg.warning_threshold_c);

        // Make the trace self-describing: downstream tooling (`analyze`)
        // reads the policy/workload/threshold from this header event.
        self.telemetry.emit(TelemetryEvent::RunInfo {
            t_ps: 0,
            policy: self.policy.name(),
            workload: coolpim_telemetry::event::intern(kernel.name()),
            threshold_c: self.cfg.warning_threshold_c,
            epoch_ps: self.cfg.epoch,
        });

        let mut timeline = Vec::new();
        let mut max_peak = f64::NEG_INFINITY;
        let mut shutdown = false;
        let mut timed_out = false;
        let mut cube_energy_j = 0.0;
        let mut throttle_steps = 0u64;
        let mut batch: Vec<TelemetryEvent> = Vec::new();
        // Raise time of every warning episode, for the warning→action
        // latency histogram (ids are small and monotone; linear scan).
        let mut raised_at: Vec<(u64, Ps)> = Vec::new();
        let fan_power_w = self.cfg.cooling.fan_power_w();
        let mut flight = self.flight_cfg.take().map(|mut cfg| {
            cfg.every_epochs = cfg.every_epochs.max(1);
            let vaults = self.sys.hmc().config().vaults;
            FlightState {
                rec: FlightRecorder::new(cfg.capacity.max(1), vaults),
                cfg,
                temps: Vec::new(),
                over: false,
                last_dump_epoch: None,
                dumps: Vec::new(),
            }
        });

        self.sys.start(kernel, ctrl, 0);
        let mut horizon = 0;
        let mut first_epoch = true;
        let mut epoch_idx = 0u64;
        // Live-monitor / heartbeat state: wall-clock pacing plus scratch
        // for the per-vault temperature reduction (no per-epoch alloc).
        let run_started = Instant::now();
        // Wall time spent inside observer-only blocks (flight recorder,
        // monitor, sink emits); with no observer attached it stays 0 and
        // the loop reads no extra clock. The timers sit inside the trace
        // spans so the tracer's own cost (`tracer_self_s`) is not
        // counted twice.
        let mut observer_s = 0.0f64;
        let mut mon_temps: Vec<f64> = Vec::new();
        let mut prev_sweeps = self.thermal.solver_stats().sweeps;
        // First beat fires on the first epoch (immediate sign of life),
        // then paces at the configured interval.
        let mut next_beat = 0.0f64;
        let end_ps = loop {
            horizon += self.cfg.epoch;
            epoch_idx += 1;
            let epoch_tok = self.telemetry.trace_begin("epoch");
            let ttok = self.telemetry.trace_begin("gpu_advance");
            let outcome = self.sys.run_until(kernel, ctrl, horizon);
            self.telemetry.trace_end(ttok);
            let now = if outcome == RunOutcome::Finished {
                self.sys.stats().end_ps
            } else {
                horizon
            };
            let ttok = self.telemetry.trace_begin("hmc_drain");
            let window = self
                .sys
                .hmc_mut()
                .take_window_traced(now, self.hmc_trace.as_mut());
            self.telemetry.trace_end(ttok);
            let dur_s = window.duration_s(now).max(1e-9);
            let sample = TrafficSample {
                window_s: dur_s,
                ext_bytes: window.data_bytes(),
                pim_ops: window.pim_ops as f64,
                vault_weights: Some(window.vault_weights()),
            };
            cube_energy_j += self.thermal.total_power_w(&sample) * dur_s;
            let readout = if first_epoch && self.cfg.warm_start {
                first_epoch = false;
                let ttok = self.telemetry.trace_begin("thermal_solve");
                let r = self.thermal.steady_state(&sample);
                self.telemetry.trace_end(ttok);
                r
            } else {
                first_epoch = false;
                self.thermal
                    .step_traced(&sample, self.telemetry.trace.as_mut())
            };
            max_peak = max_peak.max(readout.peak_dram_c);
            if feedback {
                self.sys
                    .hmc_mut()
                    .set_peak_dram_temp_at(readout.peak_dram_c, now);
                ctrl.on_thermal_reading(readout.peak_dram_c, self.cfg.warning_threshold_c, now);
            }
            let phase = self.sys.hmc().phase();
            timeline.push(TimelineSample {
                t_s: now as f64 * 1e-12,
                pim_rate_op_ns: window.pim_rate_op_per_ns(now),
                data_bw: window.data_bytes() / dur_s,
                peak_dram_c: readout.peak_dram_c,
                phase,
            });

            // Drain the epoch's buffered events from every producer (the
            // buffers must empty even without a sink), fold them into the
            // metrics, and stream them time-sorted with the epoch sample
            // last.
            self.sys
                .hmc_mut()
                .drain_events_traced(&mut batch, self.hmc_trace.as_mut());
            self.sys.drain_events(&mut batch);
            ctrl.drain_control_events(&mut batch);
            for ev in &batch {
                match ev {
                    TelemetryEvent::ThermalWarningRaised {
                        t_ps, warning_id, ..
                    } => {
                        self.telemetry.metrics.count("thermal_warnings_raised", 1);
                        raised_at.push((*warning_id, *t_ps));
                        // Flow arrow origin: a marker span inside the
                        // epoch anchors the warning's causal thread.
                        let tok = self.telemetry.trace_begin("thermal_warning");
                        self.telemetry
                            .trace_flow_start("thermal_warning", *warning_id);
                        self.telemetry.trace_end(tok);
                    }
                    TelemetryEvent::ThermalWarningCleared { .. } => {
                        self.telemetry.metrics.count("thermal_warnings_cleared", 1);
                    }
                    TelemetryEvent::ThermalWarningDelivered { .. } => {
                        self.telemetry.metrics.count("thermal_warnings_accepted", 1);
                    }
                    TelemetryEvent::TokenPoolResize {
                        t_ps,
                        new,
                        trigger,
                        warning_id,
                        ..
                    } => {
                        self.telemetry.metrics.gauge("token_pool_size", *new as f64);
                        if *trigger == "thermal_warning" {
                            throttle_steps += 1;
                            self.telemetry.metrics.count("token_pool_shrinks", 1);
                            if let Some(id) = warning_id {
                                // Flow arrow target: the throttle action
                                // this warning caused.
                                let tok = self.telemetry.trace_begin("throttle");
                                self.telemetry.trace_flow_finish("thermal_warning", *id);
                                self.telemetry.trace_end(tok);
                            }
                            if let Some(t0) = warning_id
                                .and_then(|id| raised_at.iter().find(|(i, _)| *i == id))
                                .map(|(_, t)| *t)
                            {
                                self.telemetry
                                    .metrics
                                    .observe("warning_to_action_ps", t_ps.saturating_sub(t0));
                            }
                        }
                    }
                    TelemetryEvent::WarpCapUpdate {
                        t_ps,
                        new_slots,
                        warning_id,
                        ..
                    } => {
                        throttle_steps += 1;
                        self.telemetry.metrics.count("warp_cap_updates", 1);
                        self.telemetry
                            .metrics
                            .gauge("warp_cap_slots", *new_slots as f64);
                        if let Some(id) = warning_id {
                            let tok = self.telemetry.trace_begin("throttle");
                            self.telemetry.trace_flow_finish("thermal_warning", *id);
                            self.telemetry.trace_end(tok);
                        }
                        if let Some(t0) = warning_id
                            .and_then(|id| raised_at.iter().find(|(i, _)| *i == id))
                            .map(|(_, t)| *t)
                        {
                            self.telemetry
                                .metrics
                                .observe("warning_to_action_ps", t_ps.saturating_sub(t0));
                        }
                    }
                    TelemetryEvent::Shutdown { .. } => {
                        self.telemetry.metrics.count("shutdowns", 1);
                    }
                    _ => {}
                }
            }
            // Flight recorder: sample the spatial state after the
            // metrics fold (so pool/cap gauges reflect this epoch's
            // control actions), then scan the batch for anomaly
            // triggers. Both paths count into `observer_s` so the run
            // record can report the recorder's own overhead.
            if let Some(fl) = flight.as_mut() {
                if epoch_idx.is_multiple_of(fl.cfg.every_epochs) {
                    let ttok = self.telemetry.trace_begin("flight_sample");
                    let t0 = Instant::now();
                    self.thermal.vault_peak_dram_temps_into(&mut fl.temps);
                    let pool = self.telemetry.metrics.gauge_value("token_pool_size");
                    let cap = self.telemetry.metrics.gauge_value("warp_cap_slots");
                    let frame = fl.rec.record();
                    frame.t_ps = now;
                    frame.epoch = epoch_idx;
                    frame.peak_dram_c = readout.peak_dram_c;
                    frame.logic_c = readout.peak_logic_c;
                    frame.phase = phase.name();
                    frame.pool_size = pool.map(|v| v.max(0.0) as u64);
                    frame.warp_cap = cap.map(|v| v.max(0.0) as u64);
                    for (v, s) in frame.vaults.iter_mut().enumerate() {
                        s.peak_dram_c = fl.temps.get(v).copied().unwrap_or(f64::NAN);
                        s.ops = window.vault_ops[v];
                        s.pim_ops = window.vault_pim_ops[v];
                        s.flits = window.vault_flits[v];
                        s.queue_wait_ps = window.vault_queue_wait_ps[v];
                    }
                    observer_s += t0.elapsed().as_secs_f64();
                    self.telemetry.trace_end(ttok);
                }
                let mut trigger: Option<(&'static str, Option<u64>)> = None;
                for ev in &batch {
                    match ev {
                        TelemetryEvent::ThermalWarningRaised { warning_id, .. } => {
                            trigger = Some(("warning", Some(*warning_id)));
                            break;
                        }
                        TelemetryEvent::PhaseTransition { to, .. }
                            if *to != "Normal" && trigger.is_none() =>
                        {
                            trigger = Some(("phase", None));
                        }
                        _ => {}
                    }
                }
                let over = readout.peak_dram_c > self.cfg.warning_threshold_c;
                if trigger.is_none() && over && !fl.over {
                    trigger = Some(("overshoot", None));
                }
                fl.over = over;
                if let Some((trig, warning_id)) = trigger {
                    let gap_ok = fl
                        .last_dump_epoch
                        .is_none_or(|e| epoch_idx - e >= fl.cfg.min_gap_epochs);
                    if gap_ok && fl.dumps.len() < fl.cfg.max_dumps && !fl.rec.is_empty() {
                        fl.last_dump_epoch = Some(epoch_idx);
                        let ttok = self.telemetry.trace_begin("flight_dump");
                        let t0 = Instant::now();
                        let mut bundle = PostmortemBundle::from_recorder(
                            trig,
                            now,
                            warning_id,
                            self.cfg.warning_threshold_c,
                            self.cfg.epoch,
                            &fl.rec,
                        );
                        let attr = self.sys.hmc().pim_attribution();
                        for (sm, row) in attr.sm_rows() {
                            bundle.push_attribution_row(Some(sm as u64), row.to_vec());
                        }
                        if attr.unattributed().iter().any(|&c| c > 0) {
                            bundle.push_attribution_row(None, attr.unattributed().to_vec());
                        }
                        batch.push(TelemetryEvent::FlightDump {
                            t_ps: now,
                            trigger: trig,
                            frames: bundle.frames.len() as u64,
                            hottest_vault: bundle.hottest_vault().unwrap_or(0) as u64,
                        });
                        self.telemetry.metrics.count("flight_dumps", 1);
                        if let Some(dir) = &fl.cfg.postmortem_dir {
                            let path = dir
                                .join(format!("postmortem-{:03}-{trig}.jsonl", fl.dumps.len() + 1));
                            match std::fs::write(&path, bundle.encode()) {
                                Ok(()) => fl.dumps.push(path),
                                Err(e) => eprintln!(
                                    "flight recorder: failed to write {}: {e}",
                                    path.display()
                                ),
                            }
                        }
                        observer_s += t0.elapsed().as_secs_f64();
                        self.telemetry.trace_end(ttok);
                    }
                }
            }

            let ttok = self.telemetry.trace_begin("telemetry_emit");
            let t0 = self.telemetry.is_tracing().then(Instant::now);
            self.telemetry.emit_epoch_batch(&mut batch);
            self.telemetry.emit(TelemetryEvent::EpochSample {
                t_ps: now,
                pim_rate_op_ns: window.pim_rate_op_per_ns(now),
                data_bw: window.data_bytes() / dur_s,
                peak_dram_c: readout.peak_dram_c,
                phase: phase.name(),
            });
            if let Some(t0) = t0 {
                observer_s += t0.elapsed().as_secs_f64();
            }
            self.telemetry.trace_end(ttok);
            self.telemetry.metrics.count("epochs", 1);
            self.telemetry
                .metrics
                .gauge_max("peak_dram_c", readout.peak_dram_c);
            // Counter tracks: the feedback loop's observable state, one
            // sample per epoch next to the span tree.
            self.telemetry
                .trace_counter("peak_dram_c", readout.peak_dram_c);
            if let Some(v) = self.telemetry.metrics.gauge_value("token_pool_size") {
                self.telemetry.trace_counter("token_pool", v);
            }
            if let Some(v) = self.telemetry.metrics.gauge_value("warp_cap_slots") {
                self.telemetry.trace_counter("warp_cap", v);
            }

            // Live monitor + heartbeat: both read the same wall-clock
            // progress figures. The monitor sample is timed so the run
            // record's telemetry_overhead_pct covers it.
            if self.monitor.is_some() || self.heartbeat_s.is_some() {
                let elapsed_s = run_started.elapsed().as_secs_f64().max(1e-9);
                let epochs_per_s = epoch_idx as f64 / elapsed_s;
                if let Some(hub) = &self.monitor {
                    let ttok = self.telemetry.trace_begin("monitor_sample");
                    let t0 = Instant::now();
                    self.thermal.vault_peak_dram_temps_into(&mut mon_temps);
                    let sweeps_now = self.thermal.solver_stats().sweeps;
                    let total_wait_ps: u64 = window.vault_queue_wait_ps.iter().sum();
                    let total_ops: u64 = window.vault_ops.iter().sum();
                    // ETA is an upper bound: wall time to reach the
                    // max_sim_time cap at the observed sim rate (most
                    // runs finish earlier when the kernel retires).
                    let sim_rate = now as f64 / elapsed_s;
                    let eta_s = if sim_rate > 0.0 {
                        self.cfg.max_sim_time.saturating_sub(now) as f64 / sim_rate
                    } else {
                        f64::NAN
                    };
                    let obs = EpochObservation {
                        t_ps: now,
                        epoch: epoch_idx,
                        phase: phase.name(),
                        peak_dram_c: readout.peak_dram_c,
                        pool_tokens: self
                            .telemetry
                            .metrics
                            .gauge_value("token_pool_size")
                            .unwrap_or(f64::NAN),
                        warp_cap: self
                            .telemetry
                            .metrics
                            .gauge_value("warp_cap_slots")
                            .unwrap_or(f64::NAN),
                        pim_ops_per_s: window.pim_ops as f64 / dur_s,
                        queue_wait_ps: if total_ops > 0 {
                            total_wait_ps as f64 / total_ops as f64
                        } else {
                            0.0
                        },
                        solver_sweeps: sweeps_now.saturating_sub(prev_sweeps) as f64,
                        epochs_per_s,
                        eta_s,
                        last_warning_id: raised_at.last().map_or(0, |(id, _)| *id),
                        vault_peak_dram_c: &mon_temps,
                    };
                    prev_sweeps = sweeps_now;
                    hub.sample(&obs, &self.telemetry.metrics);
                    observer_s += t0.elapsed().as_secs_f64();
                    self.telemetry.trace_end(ttok);
                }
                if let Some(beat_s) = self.heartbeat_s {
                    if elapsed_s >= next_beat {
                        next_beat = elapsed_s + beat_s;
                        eprintln!(
                            "[coolpim] epoch {epoch_idx} t={:.3}ms peak={:.2}C phase={} {:.0} epochs/s",
                            now as f64 * 1e-9,
                            readout.peak_dram_c,
                            phase.name(),
                            epochs_per_s,
                        );
                        self.telemetry.emit(TelemetryEvent::Heartbeat {
                            t_ps: now,
                            epoch: epoch_idx,
                            peak_dram_c: readout.peak_dram_c,
                            phase: phase.name(),
                            epochs_per_s,
                        });
                    }
                }
            }
            self.telemetry.trace_end(epoch_tok);
            match outcome {
                RunOutcome::Finished => break now,
                RunOutcome::Shutdown => {
                    shutdown = true;
                    break now;
                }
                RunOutcome::Paused => {}
            }
            if horizon > self.cfg.max_sim_time {
                timed_out = true;
                break now;
            }
        };

        let totals = self.sys.hmc().totals();
        let exec_s = end_ps as f64 * 1e-12;
        let exec_ns = end_ps as f64 * 1e-3;

        self.telemetry
            .metrics
            .merge_histogram("hmc_service_time_ps", self.sys.hmc().service_time_hist());
        self.telemetry
            .metrics
            .merge_histogram("hmc_queue_wait_ps", self.sys.hmc().queue_wait_hist());
        self.telemetry
            .metrics
            .gauge("hmc_row_hit_rate", self.sys.hmc().row_hit_rate());
        self.telemetry.metrics.count("pim_ops", totals.pim_ops);
        // Thermal-solver work counters: sweeps-per-substep distribution
        // and fast-path hits, so solver convergence improvements are
        // visible in run records (counter.thermal_* / hist.* metrics).
        let solver = self.thermal.solver_stats();
        self.telemetry
            .metrics
            .count("thermal_substeps", solver.substeps);
        self.telemetry
            .metrics
            .count("thermal_gs_sweeps", solver.sweeps);
        self.telemetry
            .metrics
            .count("thermal_fastpath_hits", solver.fast_path_hits);
        self.telemetry
            .metrics
            .count("thermal_skipped_substeps", solver.skipped_substeps);
        self.telemetry
            .metrics
            .gauge("thermal_sweeps_per_substep", solver.sweeps_per_substep());
        self.telemetry
            .metrics
            .merge_histogram("thermal_substep_sweeps", &solver.sweep_hist);
        if self.telemetry.is_tracing() {
            let t0 = Instant::now();
            self.telemetry.flush();
            observer_s += t0.elapsed().as_secs_f64();
        }

        // Close out the trace timeline: every track flushes its buffered
        // events (and its own recording cost) into the shared tracer, so
        // the overhead figure below sees the full tracer bill.
        self.sys.flush_trace();
        if let Some(t) = self.hmc_trace.as_mut() {
            t.flush();
        }
        if let Some(t) = self.telemetry.trace.as_mut() {
            t.flush();
        }
        let tracer_self_s = self
            .telemetry
            .trace
            .as_ref()
            .map_or(0.0, |t| t.tracer_self_s());

        // Self-overhead: the observers' own time as a share of the run's
        // wall time. Folded into the metrics before the snapshot so run
        // records carry it.
        let self_time_s = observer_s + tracer_self_s;
        let telemetry_overhead_pct = if self_time_s > 0.0 {
            100.0 * self_time_s / run_started.elapsed().as_secs_f64()
        } else {
            0.0
        };
        self.telemetry
            .metrics
            .gauge("telemetry_overhead_pct", telemetry_overhead_pct);
        let postmortem_dumps = flight.map(|f| f.dumps).unwrap_or_default();
        // Tell observers the run is over (dashboards stop polling; the
        // server is stopped by whoever started it).
        if let Some(hub) = &self.monitor {
            hub.mark_done();
        }

        CoSimResult {
            policy: self.policy,
            workload: kernel.name().to_string(),
            exec_s,
            max_peak_dram_c: max_peak,
            avg_pim_rate_op_ns: if exec_ns > 0.0 {
                totals.pim_ops as f64 / exec_ns
            } else {
                0.0
            },
            ext_data_bytes: totals.data_bytes(),
            gpu: *self.sys.stats(),
            hmc: totals,
            timeline,
            shutdown,
            timed_out,
            l2_hit_rate: self.sys.l2_hit_rate(),
            cube_energy_j,
            fan_energy_j: fan_power_w * exec_s,
            metrics: self.telemetry.metrics.take_snapshot(),
            throttle_steps,
            telemetry_overhead_pct,
            postmortem_dumps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolpim_gpu::GpuConfig;
    use coolpim_graph::generate::GraphSpec;
    use coolpim_graph::workloads::{make_kernel, Workload};

    fn tiny_cosim(policy: Policy) -> CoSim {
        let mut hmc = Hmc::hmc20();
        hmc.set_warning_threshold(84.0);
        CoSim::paper(policy).with_system(GpuSystem::new(GpuConfig::tiny(), hmc))
    }

    #[test]
    fn dc_runs_under_every_policy() {
        let g = GraphSpec::tiny().build();
        for p in Policy::ALL {
            let mut k = make_kernel(Workload::Dc, &g);
            let r = tiny_cosim(p).run(k.as_mut());
            assert!(r.exec_s > 0.0, "{}: zero runtime", p.name());
            assert!(!r.shutdown, "{}: unexpected shutdown", p.name());
            assert!(!r.timed_out);
            assert!(!r.timeline.is_empty());
        }
    }

    #[test]
    fn offloading_policies_actually_offload() {
        // Needs a property array larger than the tiny L2 — on a
        // cache-resident graph the host path wins and offloading *adds*
        // traffic (the GraphPIM working-set caveat the model reproduces).
        let g = GraphSpec::test_medium().build();
        let mut base = make_kernel(Workload::Dc, &g);
        let rb = tiny_cosim(Policy::NonOffloading).run(base.as_mut());
        assert_eq!(rb.hmc.pim_ops, 0);
        let mut naive = make_kernel(Workload::Dc, &g);
        let rn = tiny_cosim(Policy::NaiveOffloading).run(naive.as_mut());
        assert!(rn.hmc.pim_ops > 0);
        assert!(
            rn.ext_data_bytes < rb.ext_data_bytes,
            "offloading must cut traffic"
        );
    }

    #[test]
    fn telemetry_records_epochs_and_kernel_lifecycle() {
        use coolpim_telemetry::{RecordingSink, Telemetry};

        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        let (sink, log) = RecordingSink::new();
        let r = tiny_cosim(Policy::CoolPimSw)
            .with_telemetry(Telemetry::with_sink(Box::new(sink)))
            .run(k.as_mut());

        let events = log.snapshot();
        assert!(!events.is_empty());
        // The stream is monotone in simulation time.
        for w in events.windows(2) {
            assert!(w[0].t_ps() <= w[1].t_ps(), "{:?} after {:?}", w[1], w[0]);
        }
        assert_eq!(log.count_kind("EpochSample"), r.timeline.len());
        assert!(log.count_kind("KernelLaunch") >= 1);
        assert_eq!(log.count_kind("KernelRetire"), 1);
        // SW-DynT always records its Eq. 1 init sizing.
        assert!(log.count_kind("TokenPoolResize") >= 1);

        assert_eq!(r.metrics.counter("epochs"), r.timeline.len() as u64);
        assert!(r.metrics.histogram("hmc_service_time_ps").is_some());
    }

    #[test]
    fn unobserved_run_reports_exactly_zero_overhead() {
        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        let r = tiny_cosim(Policy::NaiveOffloading).run(k.as_mut());
        // Bit-exact: replay fingerprints compare this field.
        assert_eq!(r.telemetry_overhead_pct.to_bits(), 0.0f64.to_bits());
        assert_eq!(r.metrics.gauge("telemetry_overhead_pct"), Some(0.0));
        // Metrics are always on: the epoch counter still runs.
        assert_eq!(r.metrics.counter("epochs"), r.timeline.len() as u64);
    }

    #[test]
    fn tracer_only_run_reports_its_overhead() {
        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        let tracer = Tracer::new();
        let r = tiny_cosim(Policy::CoolPimSw)
            .with_tracer(&tracer)
            .run(k.as_mut());
        assert!(
            r.telemetry_overhead_pct > 0.0,
            "the tracer's own cost must count: {}",
            r.telemetry_overhead_pct
        );
        assert!(r.telemetry_overhead_pct < 100.0);
        let profile = tracer.profile();
        let epochs = profile.roots.iter().find(|n| n.name == "epoch");
        assert!(epochs.is_some_and(|n| n.calls == r.timeline.len() as u64));
    }

    #[test]
    fn monitor_hub_tracks_the_run_and_reports_done() {
        use coolpim_telemetry::StatusSnapshot;

        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        let hub = MonitorHub::new();
        hub.begin_run("dc+CoolPIM(SW)", "cafef00d");
        let r = tiny_cosim(Policy::CoolPimSw)
            .with_monitor(hub.clone())
            .run(k.as_mut());
        assert!(hub.is_done(), "CoSim must mark the hub done at run end");
        let status = StatusSnapshot::from_json(&hub.status_json()).expect("status parses");
        assert_eq!(status.run_id, "dc+CoolPIM(SW)");
        assert_eq!(status.config_hash, "cafef00d");
        assert_eq!(status.epoch as usize, r.timeline.len());
        assert!(status.done);
        assert!(status.peak_dram_c > 20.0);
        // The live series saw every epoch at tier 0 (short run < ring).
        let (t_ps, peak) = hub.latest("peak_dram_c").expect("series sampled");
        assert!(t_ps > 0);
        assert!((peak - r.timeline.last().unwrap().peak_dram_c).abs() < 1e-9);
        // Sampling is timed and folded into the overhead figure.
        assert!(r.telemetry_overhead_pct > 0.0);
        // The mirrored registry reached the hub's exposition.
        let page = hub.metrics_text();
        coolpim_telemetry::validate_exposition(&page).expect("hub metrics validate");
        assert!(page.contains("coolpim_epochs_total"));
    }

    #[test]
    fn heartbeat_emits_progress_events() {
        use coolpim_telemetry::{RecordingSink, Telemetry};

        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        let (sink, log) = RecordingSink::new();
        tiny_cosim(Policy::CoolPimSw)
            .with_telemetry(Telemetry::with_sink(Box::new(sink)))
            .with_heartbeat(30.0)
            .run(k.as_mut());
        // The first beat fires on the first epoch regardless of the
        // interval; later beats pace at 30 s (none here).
        assert_eq!(log.count_kind("Heartbeat"), 1);
        for ev in log.snapshot().iter() {
            if let TelemetryEvent::Heartbeat {
                epoch,
                peak_dram_c,
                phase,
                ..
            } = ev
            {
                assert!(*epoch > 0);
                assert!(*peak_dram_c > 20.0);
                assert!(!phase.is_empty());
            }
        }
    }

    #[test]
    fn timeline_temperatures_are_physical() {
        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::PageRank, &g);
        let r = tiny_cosim(Policy::NaiveOffloading).run(k.as_mut());
        for s in &r.timeline {
            assert!(s.peak_dram_c >= 20.0 && s.peak_dram_c < 120.0);
        }
        assert!(r.max_peak_dram_c >= 25.0);
    }
}

#[cfg(test)]
mod energy_tests {
    use super::*;
    use coolpim_gpu::GpuConfig;
    use coolpim_graph::generate::GraphSpec;
    use coolpim_graph::workloads::{make_kernel, Workload};

    #[test]
    fn energy_accumulates_and_scales_with_runtime() {
        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        let cfg = CoSimConfig {
            gpu: GpuConfig::tiny(),
            ..CoSimConfig::default()
        };
        let r = CoSim::new(Policy::NonOffloading, cfg).run(k.as_mut());
        assert!(r.cube_energy_j > 0.0);
        // Sanity: implied average power within physical bounds (4.5 W
        // static … ~60 W absolute ceiling).
        let avg_w = r.cube_energy_j / r.exec_s;
        assert!((2.0..80.0).contains(&avg_w), "average power {avg_w} W");
        // Commodity-server fan power ≈ 3.6 W over the runtime.
        let fan_w = r.fan_energy_j / r.exec_s;
        assert!((3.0..4.5).contains(&fan_w), "fan power {fan_w} W");
        assert!(r.total_energy_j() > r.cube_energy_j);
    }

    #[test]
    fn cold_start_option_changes_first_epoch_only() {
        let g = GraphSpec::tiny().build();
        let run = |warm: bool| {
            let mut k = make_kernel(Workload::PageRank, &g);
            let cfg = CoSimConfig {
                gpu: GpuConfig::tiny(),
                warm_start: warm,
                ..CoSimConfig::default()
            };
            CoSim::new(Policy::NaiveOffloading, cfg).run(k.as_mut())
        };
        let warm = run(true);
        let cold = run(false);
        // The warm run's first sample is already at operating temperature.
        assert!(
            warm.timeline[0].peak_dram_c > cold.timeline[0].peak_dram_c,
            "warm {} !> cold {}",
            warm.timeline[0].peak_dram_c,
            cold.timeline[0].peak_dram_c
        );
    }
}
