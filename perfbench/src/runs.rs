//! The parent side of a benchmark invocation: what each child run
//! reported, and the cell accounting across runs.

use std::collections::BTreeMap;

use crate::calib::{speed, Sample};
use crate::check::{mismatch, Counters, COUNTER_NAMES};
use crate::metrics::{median, unit_of};
use crate::workload::CellOutcome;

/// What one child reported.
pub struct ChildRun {
    /// Figure name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Every cell, in run order.
    pub cells: Vec<CellOutcome>,
}

/// What a child writes to stdout: one `metric NAME VALUE` line per
/// figure, then one `cell LABEL COUNTERS... [ERROR]` line per cell.
pub fn child_output(figures: &[(&str, f64)], cells: &[CellOutcome]) -> String {
    let mut out = String::new();
    for (name, value) in figures {
        out += &format!("metric {name} {value}\n");
    }
    for cell in cells {
        let words: Vec<String> = cell.counters.words().iter().map(u64::to_string).collect();
        out += &format!(
            "cell {} {} {}\n",
            cell.label,
            words.join(" "),
            cell.error.as_deref().unwrap_or("")
        );
    }
    out
}

/// Parses a child's stdout (`metric NAME VALUE` and
/// `cell LABEL COUNTERS... [ERROR]` lines).
pub fn parse_child(stdout: &str) -> Result<ChildRun, String> {
    let mut run = ChildRun {
        metrics: BTreeMap::new(),
        cells: Vec::new(),
    };
    for line in stdout.lines() {
        let bad = || format!("malformed child line {line:?}");
        let mut parts = line.split(' ');
        match parts.next() {
            Some("metric") => {
                let name = parts.next().ok_or_else(bad)?;
                let value: f64 = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                run.metrics.insert(name.to_string(), value);
            }
            Some("cell") => {
                let label = parts.next().ok_or_else(bad)?.to_string();
                let mut words = [0u64; COUNTER_NAMES.len()];
                for w in &mut words {
                    *w = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                }
                let error: Vec<&str> = parts.collect();
                let error = error.join(" ");
                run.cells.push(CellOutcome {
                    label,
                    counters: Counters::from_words(words),
                    error: (!error.is_empty()).then_some(error),
                });
            }
            _ => return Err(bad()),
        }
    }
    Ok(run)
}

/// Cell accounting across every run of one invocation.
pub struct Tally {
    /// Cells one run should report.
    pub expected: usize,
    /// Cells attempted so far.
    pub attempted: u64,
    /// Cells that failed a check so far.
    pub failed: u64,
    /// The first run's cells: every later run of the same seed, traced
    /// or not, must reproduce them exactly.
    reference: Option<Vec<CellOutcome>>,
}

impl Tally {
    /// An empty tally for runs of `expected` cells.
    pub fn new(expected: usize) -> Self {
        Self {
            expected,
            attempted: 0,
            failed: 0,
            reference: None,
        }
    }

    /// Counts one run's cells, failing those that failed a check, that
    /// differ from the first run, or that the run never reported.
    pub fn absorb(&mut self, kind: &str, run: &Result<ChildRun, String>) {
        let run = match run {
            Ok(run) if run.cells.len() == self.expected => run,
            other => {
                let why = match other {
                    Ok(run) => format!("reported {} cells", run.cells.len()),
                    Err(e) => e.clone(),
                };
                eprintln!(
                    "perfbench: {kind} run failed all {} cells: {why}",
                    self.expected
                );
                self.attempted += self.expected as u64;
                self.failed += self.expected as u64;
                return;
            }
        };
        let reference = self.reference.get_or_insert_with(|| run.cells.clone());
        for (cell, want) in run.cells.iter().zip(reference.iter()) {
            self.attempted += 1;
            let error = cell.error.clone().or_else(|| {
                if cell.label != want.label {
                    Some(format!(
                        "cell order changed: {} in place of {}",
                        cell.label, want.label
                    ))
                } else {
                    mismatch(&want.counters, &cell.counters)
                        .map(|m| format!("differs from the first run: {m}"))
                }
            });
            if let Some(e) = error {
                eprintln!("perfbench: {kind} cell {} failed: {e}", cell.label);
                self.failed += 1;
            }
        }
    }
}

/// Medians of every figure the runs reported, by name.
pub fn medians<'a>(runs: impl Iterator<Item = &'a ChildRun>) -> BTreeMap<String, f64> {
    let mut all: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for run in runs {
        for (name, value) in &run.metrics {
            all.entry(name.clone()).or_default().push(*value);
        }
    }
    all.into_iter().map(|(n, v)| (n, median(&v))).collect()
}

/// The factors a run's host times were scaled by: how many times faster
/// than the reference host the host ran during each span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Set-up.
    pub setup: f64,
    /// The measured cells and what follows them.
    pub cells: f64,
    /// The whole workload: scaled `wall_s` over `wall_s` as measured.
    pub whole: f64,
}

/// The shortest span whose host speed is taken over the span itself (s):
/// about 50 samples of each meter kernel. A shorter span is widened.
pub const MIN_SPAN_S: f64 = 2.0;

/// Scales a run's host times to seconds at the reference host speed,
/// given the host meter's samples taken during it. `setup_s` is scaled by
/// the host's speed during set-up; `sim_s`, `sim_minst_per_s` (inversely)
/// and the rest of `wall_s` by its speed during the measured cells; every
/// other time by the resulting `wall_s` factor. Counts, ratios and shares
/// are left as they are.
pub fn normalise(run: &mut ChildRun, samples: &[Sample]) -> Result<Scale, String> {
    let figure = |name: &str| {
        run.metrics
            .get(name)
            .copied()
            .ok_or(format!("the run reported no {name}"))
    };
    let (wall_s, setup_s, sim_s) = (figure("wall_s")?, figure("setup_s")?, figure("sim_s")?);
    // The spans are timed from the spawn, the child's from its start: the
    // difference is the process start, a few milliseconds. A span is
    // widened to at least MIN_SPAN_S so that its median rests on enough
    // samples; a run too short for any sample in it takes the whole run.
    let span = |from_s: f64, to_s: f64| {
        speed(samples, from_s, to_s.max(from_s + MIN_SPAN_S))
            .or_else(|| speed(samples, 0.0, f64::INFINITY))
            .ok_or("the run was too short for the host meter to time every kernel")
    };
    let setup = span(0.0, setup_s)?;
    let cells = span(setup_s, setup_s + sim_s)?;
    let whole = (setup_s * setup + (wall_s - setup_s) * cells) / wall_s;
    for (name, value) in run.metrics.iter_mut() {
        let factor = match name.as_str() {
            "setup_s" => setup,
            "sim_s" => cells,
            "sim_minst_per_s" => 1.0 / cells,
            _ => whole,
        };
        if matches!(unit_of(name), Some("s" | "Minst/s")) {
            *value *= factor;
        }
    }
    Ok(Scale {
        setup,
        cells,
        whole,
    })
}
