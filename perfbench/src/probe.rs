//! Timing adapters around the program's public seams.
//!
//! The traced run gets its per-layer split from outside the program:
//! each adapter wraps one seam, forwards every call unchanged, and adds
//! host time and work counts to a tally. None of them alters what the
//! wrapped component returns, so a traced cell's simulated counters must
//! equal the untraced cell's (the benchmark checks this on every run).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use coolpim_gpu::controller::OffloadController;
use coolpim_gpu::isa::{BlockTrace, WarpOp};
use coolpim_gpu::kernel::KernelProfile;
use coolpim_gpu::source::InstructionSource;
use coolpim_telemetry::{TelemetryEvent, TraceTrack};
use coolpim_thermal::grid::ThermalGrid;
use coolpim_thermal::solver::{NonConvergence, SolveStats, ThermalSolve, TransientSolverStats};

/// Work done by an instruction source: generation (live kernel) or
/// replay (decoded trace).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SourceTally {
    /// Host seconds inside `block_trace` and `next_launch` (the latter
    /// is where frontier-driven kernels build their next launch).
    pub s: f64,
    /// Block traces handed to the engine.
    pub blocks: u64,
    /// Warp instructions across those blocks.
    pub warp_ops: u64,
    /// Per-lane addresses across those blocks.
    pub lane_addrs: u64,
    /// Host seconds the probe itself spent counting (not the source's).
    pub probe_s: f64,
}

impl SourceTally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Self) {
        self.s += other.s;
        self.blocks += other.blocks;
        self.warp_ops += other.warp_ops;
        self.lane_addrs += other.lane_addrs;
        self.probe_s += other.probe_s;
    }
}

/// An [`InstructionSource`] that times and counts what `inner` produces.
pub struct TimedSource<'a, K: InstructionSource + ?Sized> {
    inner: &'a mut K,
    /// What the source has produced so far.
    pub tally: SourceTally,
}

impl<'a, K: InstructionSource + ?Sized> TimedSource<'a, K> {
    /// Wraps `inner` with an empty tally.
    pub fn new(inner: &'a mut K) -> Self {
        Self {
            inner,
            tally: SourceTally::default(),
        }
    }
}

impl<K: InstructionSource + ?Sized> InstructionSource for TimedSource<'_, K> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn grid_blocks(&self) -> usize {
        self.inner.grid_blocks()
    }
    fn warps_per_block(&self) -> usize {
        self.inner.warps_per_block()
    }
    fn block_trace(&mut self, block: usize, pim_enabled: bool) -> BlockTrace {
        let started = Instant::now();
        let trace = self.inner.block_trace(block, pim_enabled);
        let counting = Instant::now();
        self.tally.s += (counting - started).as_secs_f64();
        self.tally.blocks += 1;
        for warp in &trace.warps {
            self.tally.warp_ops += warp.ops.len() as u64;
            self.tally.lane_addrs += warp
                .ops
                .iter()
                .map(|op| WarpOp::active_lanes(op) as u64)
                .sum::<u64>();
        }
        self.tally.probe_s += counting.elapsed().as_secs_f64();
        trace
    }
    fn next_launch(&mut self) -> bool {
        let started = Instant::now();
        let more = self.inner.next_launch();
        self.tally.s += started.elapsed().as_secs_f64();
        more
    }
    fn profile(&self) -> KernelProfile {
        self.inner.profile()
    }
}

/// Work done by an offload controller.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CtrlTally {
    /// Host seconds in block launch/complete, thermal readings and event
    /// drains. Warp queries are counted but not timed: a clock read per
    /// query costs more than the query.
    pub s: f64,
    /// Block launches decided.
    pub block_launches: u64,
    /// Of those, launches the controller ran PIM-enabled.
    pub pim_launches: u64,
    /// Per-warp offload queries (HW-DynT's PCU path).
    pub warp_queries: u64,
}

impl CtrlTally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Self) {
        self.s += other.s;
        self.block_launches += other.block_launches;
        self.pim_launches += other.pim_launches;
        self.warp_queries += other.warp_queries;
    }
}

/// An [`OffloadController`] that times and counts the calls `inner`
/// receives.
pub struct TimedController<'a> {
    inner: &'a mut dyn OffloadController,
    /// What the controller has done so far.
    pub tally: CtrlTally,
}

impl<'a> TimedController<'a> {
    /// Wraps `inner` with an empty tally.
    pub fn new(inner: &'a mut dyn OffloadController) -> Self {
        Self {
            inner,
            tally: CtrlTally::default(),
        }
    }
}

impl OffloadController for TimedController<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_block_launch(&mut self, block_id: usize, now: u64) -> bool {
        let started = Instant::now();
        let pim = self.inner.on_block_launch(block_id, now);
        self.tally.s += started.elapsed().as_secs_f64();
        self.tally.block_launches += 1;
        self.tally.pim_launches += u64::from(pim);
        pim
    }
    fn on_block_complete(&mut self, block_id: usize, was_pim: bool, now: u64) {
        let started = Instant::now();
        self.inner.on_block_complete(block_id, was_pim, now);
        self.tally.s += started.elapsed().as_secs_f64();
    }
    fn warp_may_offload(&mut self, sm: usize, warp_slot: usize, now: u64) -> bool {
        self.tally.warp_queries += 1;
        self.inner.warp_may_offload(sm, warp_slot, now)
    }
    fn on_thermal_warning(&mut self, now: u64, warning_id: u64) {
        self.inner.on_thermal_warning(now, warning_id);
    }
    fn on_thermal_reading(&mut self, peak_dram_c: f64, threshold_c: f64, now: u64) {
        let started = Instant::now();
        self.inner.on_thermal_reading(peak_dram_c, threshold_c, now);
        self.tally.s += started.elapsed().as_secs_f64();
    }
    fn drain_control_events(&mut self, out: &mut Vec<TelemetryEvent>) {
        let started = Instant::now();
        self.inner.drain_control_events(out);
        self.tally.s += started.elapsed().as_secs_f64();
    }
}

/// Work done by the thermal solver.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveTally {
    /// Host seconds in transient steps and steady-state jumps.
    pub s: f64,
    /// Solver calls (one per thermal epoch).
    pub solves: u64,
}

impl SolveTally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Self) {
        self.s += other.s;
        self.solves += other.solves;
    }
}

/// A [`ThermalSolve`] that times every solve of `inner`. The co-simulator
/// owns and drops its thermal model, so the tally lives behind a shared
/// handle the caller keeps.
pub struct TimedSolve<S: ThermalSolve> {
    inner: S,
    tally: Rc<RefCell<SolveTally>>,
}

impl<S: ThermalSolve> TimedSolve<S> {
    /// Wraps `inner`, accumulating into `tally`.
    pub fn new(inner: S, tally: Rc<RefCell<SolveTally>>) -> Self {
        Self { inner, tally }
    }

    fn record(&self, started: Instant) {
        let mut t = self.tally.borrow_mut();
        t.s += started.elapsed().as_secs_f64();
        t.solves += 1;
    }
}

impl<S: ThermalSolve> ThermalSolve for TimedSolve<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn temps(&self) -> &[f64] {
        self.inner.temps()
    }
    fn ambient_c(&self) -> f64 {
        self.inner.ambient_c()
    }
    fn c_scale(&self) -> f64 {
        self.inner.c_scale()
    }
    fn solver_stats(&self) -> &TransientSolverStats {
        self.inner.solver_stats()
    }
    fn step(&mut self, grid: &ThermalGrid, power: &[f64], dt: f64) {
        let started = Instant::now();
        self.inner.step(grid, power, dt);
        self.record(started);
    }
    fn step_traced(
        &mut self,
        grid: &ThermalGrid,
        power: &[f64],
        dt: f64,
        trace: Option<&mut TraceTrack>,
    ) {
        let started = Instant::now();
        self.inner.step_traced(grid, power, dt, trace);
        self.record(started);
    }
    fn try_jump_to_steady_state(
        &mut self,
        grid: &ThermalGrid,
        power: &[f64],
    ) -> Result<SolveStats, NonConvergence> {
        let started = Instant::now();
        let r = self.inner.try_jump_to_steady_state(grid, power);
        self.record(started);
        r
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}
