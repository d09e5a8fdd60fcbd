//! Host-speed calibration.
//!
//! The benchmark runs on a shared host whose speed changes by tens of
//! percent within seconds and between minutes, CPU time included (a busy
//! neighbour slows every instruction, not only the scheduler). While a
//! run of the workload is going on, a [`HostMeter`] thread in the parent
//! times three small fixed kernels in turn, one every [`GAP`]. They share
//! no code with the program, so a change to the program cannot move them.
//! The host's speed over a span of the run is the geometric mean over the
//! kernels of each kernel's reference time ([`Kernel::reference_s`]) over
//! its median time in the span, and the span's host times are scaled by
//! it to seconds at the reference speed. A change of the host then
//! cancels, while a change of the program shows in full.
//!
//! Each kernel feels a different part of a busy host: the arithmetic one
//! the core's clock and its sibling thread, the 16 MiB one the shared
//! cache, the 64 MiB one memory. The program feels all three, and which
//! one its neighbours load changes from spell to spell.
//!
//! A calibration taken next to the run instead of during it does not
//! work: the host's speed changes within the run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::metrics::median;

/// Sleep between two samples: the meter takes about 5 % of one core.
pub const GAP: Duration = Duration::from_millis(12);

/// `u32` slots of the table [`Kernel::Cache`] scatters over (16 MiB,
/// about the shared cache).
const CACHE_SLOTS: usize = 1 << 22;

/// `u32` slots of the table [`Kernel::Memory`] scatters over (64 MiB,
/// well past the shared cache).
const MEMORY_SLOTS: usize = 1 << 24;

/// A meter kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Integer hashing with some float work.
    Arithmetic,
    /// Random reads, about half followed by a write, over 16 MiB.
    Cache,
    /// Random reads, about half followed by a write, over 64 MiB.
    Memory,
}

impl Kernel {
    /// The kernels, in the order the meter times them.
    pub const ALL: [Kernel; 3] = [Kernel::Arithmetic, Kernel::Cache, Kernel::Memory];

    /// Median time of one run of the kernel on the reference host (a
    /// 2-vCPU Intel Xeon container, release build) while a workload runs.
    /// Only fixes the scale of the scaled times.
    pub fn reference_s(self) -> f64 {
        match self {
            Kernel::Arithmetic => 6.0e-4,
            Kernel::Cache => 9.0e-4,
            Kernel::Memory => 9.0e-4,
        }
    }
}

/// One timed kernel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Start, in host seconds after the meter started.
    pub at_s: f64,
    /// Which kernel.
    pub kernel: Kernel,
    /// Host seconds it took.
    pub took_s: f64,
}

/// Samples the host's speed on a thread of its own until stopped.
pub struct HostMeter {
    cache: Vec<u32>,
    memory: Vec<u32>,
}

impl Default for HostMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl HostMeter {
    /// A meter with its tables made, ready to sample.
    pub fn new() -> Self {
        let table = |n: u32| (0..n).map(|i| i.wrapping_mul(0x9E37_79B1)).collect();
        Self {
            cache: table(CACHE_SLOTS as u32),
            memory: table(MEMORY_SLOTS as u32),
        }
    }

    /// Runs `work` while sampling the host; returns what `work` returned
    /// and the samples, timed from the call.
    pub fn during<T>(&mut self, work: impl FnOnce() -> T) -> (T, Vec<Sample>) {
        let started = Instant::now();
        let stop = AtomicBool::new(false);
        let (cache, memory) = (&mut self.cache, &mut self.memory);
        std::thread::scope(|scope| {
            let meter = scope.spawn(|| {
                let mut samples = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let kernel = Kernel::ALL[samples.len() % Kernel::ALL.len()];
                    let at = Instant::now();
                    let sink = match kernel {
                        Kernel::Arithmetic => arithmetic(130_000),
                        Kernel::Cache => scatter(cache, 25_000),
                        Kernel::Memory => scatter(memory, 20_000),
                    };
                    std::hint::black_box(sink);
                    samples.push(Sample {
                        at_s: (at - started).as_secs_f64(),
                        kernel,
                        took_s: at.elapsed().as_secs_f64(),
                    });
                    std::thread::sleep(GAP);
                }
                samples
            });
            let out = work();
            stop.store(true, Ordering::Relaxed);
            (out, meter.join().expect("the host meter panicked"))
        })
    }
}

/// How many times faster than the reference host the host ran over the
/// samples taken in `from_s..to_s`: the geometric mean over the kernels
/// of each kernel's reference time over its median time there. `None` if
/// some kernel has no sample there.
pub fn speed(samples: &[Sample], from_s: f64, to_s: f64) -> Option<f64> {
    let mut log_sum = 0.0;
    for kernel in Kernel::ALL {
        let took: Vec<f64> = samples
            .iter()
            .filter(|s| s.kernel == kernel && s.at_s >= from_s && s.at_s < to_s)
            .map(|s| s.took_s)
            .collect();
        if took.is_empty() {
            return None;
        }
        log_sum += (kernel.reference_s() / median(&took)).ln();
    }
    Some((log_sum / Kernel::ALL.len() as f64).exp())
}

/// One step of SplitMix64.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`Kernel::Arithmetic`].
fn arithmetic(steps: usize) -> u64 {
    let mut state = 1;
    let mut h = 0u64;
    let mut x = 1.0f64;
    for _ in 0..steps {
        let r = splitmix(&mut state);
        h ^= r;
        if r & 7 == 0 {
            x = x.mul_add(0.9999, 1e-9 * (r & 0xFF) as f64);
        }
    }
    h ^ x.to_bits()
}

/// [`Kernel::Cache`] and [`Kernel::Memory`] over `t`, whose length must
/// be a power of two.
fn scatter(t: &mut [u32], steps: usize) -> u64 {
    let mask = t.len() - 1;
    let mut state = 7;
    let mut h = 0u64;
    for _ in 0..steps {
        let r = splitmix(&mut state);
        let i = r as usize & mask;
        let v = t[i];
        h = h.wrapping_add(u64::from(v));
        if v & 1 == 0 {
            t[(i + 17) & mask] = v.wrapping_add(r as u32);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_geometric_mean_of_reference_over_median() {
        let s = |at_s, kernel: Kernel, slow| Sample {
            at_s,
            kernel,
            took_s: slow * kernel.reference_s(),
        };
        let samples = [
            s(0.0, Kernel::Arithmetic, 1.0),
            s(0.1, Kernel::Cache, 2.0),
            s(0.2, Kernel::Memory, 4.0),
            s(0.3, Kernel::Arithmetic, 1.0),
            s(0.4, Kernel::Cache, 2.0),
            s(0.5, Kernel::Memory, 4.0),
            s(0.6, Kernel::Arithmetic, 9.0),
        ];
        let v = speed(&samples, 0.0, 1.0).unwrap();
        assert!((v - 0.5).abs() < 1e-12, "{v}");
        assert_eq!(speed(&samples, 0.55, 1.0), None);
    }

    #[test]
    fn meter_samples_every_kernel_while_work_runs() {
        let mut meter = HostMeter::new();
        let (value, samples) = meter.during(|| {
            std::thread::sleep(Duration::from_millis(200));
            7
        });
        assert_eq!(value, 7);
        assert!(
            speed(&samples, 0.0, 1.0).is_some(),
            "{} samples",
            samples.len()
        );
    }
}
