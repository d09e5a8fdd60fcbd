//! Robust cross-run statistics: the primitives behind the replicated
//! run records and the noise-aware regression gate (`obs gate`).
//!
//! Every CI gate before this module compared one fixed-seed run against
//! a hand-tuned tolerance band, which cannot distinguish a real
//! regression from run-to-run noise. The tools here operate on
//! *distributions* of replicated runs instead:
//!
//! * [`summarize`] — median, MAD, min/max, mean, and a bootstrap 95 %
//!   confidence interval on the median, folded into a [`Summary`];
//! * [`bootstrap_ci`] — percentile bootstrap over the in-tree
//!   deterministic [`SplitMix64`] stream;
//! * [`permutation_p`] — exact (small n) or Monte-Carlo two-sample
//!   permutation test on the difference of means, the significance half
//!   of the drift gate;
//! * [`effect_size`] — a robust Cohen's-d analogue (median shift over
//!   MAD-derived σ), the practical-significance half;
//! * [`change_points`] — binary segmentation with a BIC-style penalty
//!   over a noise level estimated from first differences, for flagging
//!   level shifts in a metric's longitudinal history.
//!
//! Everything is deterministic for a given seed and allocation-light;
//! no third-party dependencies.

use crate::rng::SplitMix64;

/// Median of `xs` (mean of the middle pair for even lengths). Returns
/// NaN on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median absolute deviation around `center` (unscaled — multiply by
/// [`MAD_TO_SIGMA`] for a normal-consistent σ estimate).
pub fn mad(xs: &[f64], center: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let dev: Vec<f64> = xs.iter().map(|x| (x - center).abs()).collect();
    median(&dev)
}

/// Scale factor turning a MAD into a normal-consistent σ estimate.
pub const MAD_TO_SIGMA: f64 = 1.4826;

/// Default bootstrap resample count.
pub const BOOTSTRAP_RESAMPLES: usize = 1000;

/// Robust five-point summary of one metric's replicate samples plus a
/// bootstrap confidence interval on the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub median: f64,
    /// Median absolute deviation (unscaled).
    pub mad: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Lower edge of the bootstrap 95 % CI on the median.
    pub ci_lo: f64,
    /// Upper edge of the bootstrap 95 % CI on the median.
    pub ci_hi: f64,
}

/// Summarizes `xs` with a deterministic bootstrap seeded from `seed`.
/// A single sample yields a degenerate summary (MAD 0, CI collapsed on
/// the value); an empty slice yields all-NaN with `n = 0`.
pub fn summarize(xs: &[f64], seed: u64) -> Summary {
    if xs.is_empty() {
        return Summary {
            n: 0,
            mean: f64::NAN,
            median: f64::NAN,
            mad: f64::NAN,
            min: f64::NAN,
            max: f64::NAN,
            ci_lo: f64::NAN,
            ci_hi: f64::NAN,
        };
    }
    let med = median(xs);
    let (ci_lo, ci_hi) = if xs.len() == 1 {
        (xs[0], xs[0])
    } else {
        bootstrap_ci(xs, median, BOOTSTRAP_RESAMPLES, 0.95, seed)
    };
    Summary {
        n: xs.len(),
        mean: xs.iter().sum::<f64>() / xs.len() as f64,
        median: med,
        mad: mad(xs, med),
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ci_lo,
        ci_hi,
    }
}

/// Percentile-bootstrap confidence interval of `stat` over `xs`:
/// `resamples` with-replacement resamples, interval covering
/// `confidence` (e.g. 0.95) of the resampled statistic. Deterministic
/// for a given seed. Panics on an empty sample.
pub fn bootstrap_ci(
    xs: &[f64],
    stat: impl Fn(&[f64]) -> f64,
    resamples: usize,
    confidence: f64,
    seed: u64,
) -> (f64, f64) {
    assert!(!xs.is_empty(), "bootstrap over an empty sample");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut scratch = vec![0.0; xs.len()];
    let mut stats = Vec::with_capacity(resamples.max(1));
    for _ in 0..resamples.max(1) {
        for s in scratch.iter_mut() {
            *s = xs[rng.gen_range_u64(xs.len() as u64) as usize];
        }
        stats.push(stat(&scratch));
    }
    stats.sort_by(f64::total_cmp);
    let alpha = (1.0 - confidence.clamp(0.0, 1.0)) / 2.0;
    let lo_i = ((stats.len() as f64 - 1.0) * alpha).round() as usize;
    let hi_i = ((stats.len() as f64 - 1.0) * (1.0 - alpha)).round() as usize;
    (stats[lo_i], stats[hi_i.min(stats.len() - 1)])
}

/// Two-sided two-sample permutation test on the difference of means.
///
/// Returns the p-value for the null "both samples come from the same
/// distribution". When the number of distinct group assignments
/// `C(n+m, n)` is small (≤ ~20 000) every assignment is enumerated and
/// the p-value is exact; otherwise `rounds` Monte-Carlo shuffles seeded
/// from `seed` estimate it (with the standard `(hits+1)/(rounds+1)`
/// correction so it never reports 0).
///
/// Note the granularity floor: with 3-vs-3 replicates the smallest
/// achievable two-sided p is 2/20 = 0.1, which is why the drift gate's
/// default significance level is 0.1 rather than 0.05.
pub fn permutation_p(a: &[f64], b: &[f64], rounds: usize, seed: u64) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::NAN;
    }
    let obs = (mean(a) - mean(b)).abs();
    if obs == 0.0 {
        return 1.0;
    }
    let pool: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
    let n = a.len();
    if let Some(total) = binomial(pool.len(), n).filter(|&c| c <= 20_000) {
        // Exact: enumerate every n-subset of the pool as "group A".
        let sum_all: f64 = pool.iter().sum();
        let mut hits = 0u64;
        let mut idx: Vec<usize> = (0..n).collect();
        loop {
            let sum_a: f64 = idx.iter().map(|&i| pool[i]).sum();
            let mean_a = sum_a / n as f64;
            let mean_b = (sum_all - sum_a) / (pool.len() - n) as f64;
            // An epsilon absorbs the reassociation error of summing the
            // pool in permuted orders — the observed split must count
            // itself as at least as extreme.
            if (mean_a - mean_b).abs() >= obs * (1.0 - 1e-12) {
                hits += 1;
            }
            if !next_combination(&mut idx, pool.len()) {
                break;
            }
        }
        hits as f64 / total as f64
    } else {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut pool = pool;
        let mut hits = 0u64;
        let rounds = rounds.max(1);
        for _ in 0..rounds {
            // Partial Fisher–Yates: shuffle the first n positions.
            for i in 0..n {
                let j = i + rng.gen_range_u64((pool.len() - i) as u64) as usize;
                pool.swap(i, j);
            }
            let mean_a = pool[..n].iter().sum::<f64>() / n as f64;
            let mean_b = pool[n..].iter().sum::<f64>() / (pool.len() - n) as f64;
            if (mean_a - mean_b).abs() >= obs * (1.0 - 1e-12) {
                hits += 1;
            }
        }
        (hits + 1) as f64 / (rounds + 1) as f64
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `C(n, k)` if it fits in u64 without overflow along the way.
fn binomial(n: usize, k: usize) -> Option<u64> {
    let k = k.min(n - k.min(n));
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = acc
            .checked_mul((n - i) as u64)?
            .checked_div((i + 1) as u64)?;
        // Exact division holds because C(n, i+1) is an integer and we
        // multiply/divide in lockstep over a product of consecutive
        // terms; u64 overflow is the only failure mode and is caught.
    }
    Some(acc)
}

/// Advances `idx` to the next k-combination of `0..n` in lexicographic
/// order; false when exhausted.
fn next_combination(idx: &mut [usize], n: usize) -> bool {
    let k = idx.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if idx[i] < n - (k - i) {
            idx[i] += 1;
            for j in i + 1..k {
                idx[j] = idx[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// Value returned by [`effect_size`] when the samples are fully
/// separated but have zero spread (the shift is infinitely many σ).
pub const EFFECT_SATURATED: f64 = 1e9;

/// Robust standardized effect size of `b` relative to `a`: the median
/// shift divided by a MAD-derived pooled σ (a robust Cohen's d —
/// |d| ≈ 0.5 is a "medium" effect). Positive when `b`'s median is
/// larger. Zero spread with zero shift is 0; zero spread with a real
/// shift saturates at ±[`EFFECT_SATURATED`].
pub fn effect_size(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::NAN;
    }
    let med_a = median(a);
    let med_b = median(b);
    let shift = med_b - med_a;
    let sd_a = mad(a, med_a) * MAD_TO_SIGMA;
    let sd_b = mad(b, med_b) * MAD_TO_SIGMA;
    let pooled = ((sd_a * sd_a + sd_b * sd_b) / 2.0).sqrt();
    if pooled > 0.0 {
        (shift / pooled).clamp(-EFFECT_SATURATED, EFFECT_SATURATED)
    } else if shift == 0.0 {
        0.0
    } else {
        EFFECT_SATURATED.copysign(shift)
    }
}

/// Robust noise level of a series: the MAD of first differences scaled
/// to σ (the √2 divides out the difference-of-two-samples inflation).
/// A level shift contributes one outlier difference, which the median
/// ignores — unlike a global standard deviation, which a shift inflates.
pub fn noise_sigma(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let diffs: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
    let m = median(&diffs);
    mad(&diffs, m) * MAD_TO_SIGMA / std::f64::consts::SQRT_2
}

/// Detects level shifts in `xs` by binary segmentation: recursively
/// split at the point maximizing the squared-error cost reduction,
/// accepting a split only when the reduction beats a BIC-style penalty
/// of `penalty_sigmas² · σ² · ln n` (σ from [`noise_sigma`] over the
/// whole series). Returns the sorted indices at which a new segment
/// starts. `min_seg` floors the segment length (≥ 2 recommended);
/// `penalty_sigmas = 3.0` is a reasonable default — larger is more
/// conservative.
pub fn change_points(xs: &[f64], min_seg: usize, penalty_sigmas: f64) -> Vec<usize> {
    let min_seg = min_seg.max(1);
    if xs.len() < 2 * min_seg {
        return Vec::new();
    }
    let sigma = noise_sigma(xs);
    // A zero σ means the series is (piecewise) noise-free: any level
    // shift is then real by construction, so the penalty drops to a
    // tiny scale-relative floor — it still rejects the zero-gain splits
    // of a constant series, where cost reduction is exactly 0.
    let scale = if sigma > 0.0 {
        sigma
    } else {
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        ((hi - lo) * 1e-6).max(f64::MIN_POSITIVE)
    };
    let penalty = penalty_sigmas * penalty_sigmas * scale * scale * (xs.len() as f64).ln();
    let mut cuts = Vec::new();
    segment(xs, 0, min_seg, penalty, &mut cuts);
    cuts.sort_unstable();
    cuts
}

/// Recursive half of [`change_points`]: `offset` maps local indices of
/// `xs` back into the original series.
fn segment(xs: &[f64], offset: usize, min_seg: usize, penalty: f64, cuts: &mut Vec<usize>) {
    let n = xs.len();
    if n < 2 * min_seg {
        return;
    }
    // Prefix sums give O(1) segment cost: sum (x - mean)^2 = Σx² - (Σx)²/n.
    let mut px = vec![0.0; n + 1];
    let mut px2 = vec![0.0; n + 1];
    for (i, &x) in xs.iter().enumerate() {
        px[i + 1] = px[i] + x;
        px2[i + 1] = px2[i] + x * x;
    }
    let cost = |a: usize, b: usize| -> f64 {
        let m = (b - a) as f64;
        let s = px[b] - px[a];
        (px2[b] - px2[a]) - s * s / m
    };
    let whole = cost(0, n);
    let mut best: Option<(usize, f64)> = None;
    for k in min_seg..=n - min_seg {
        let gain = whole - cost(0, k) - cost(k, n);
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((k, gain));
        }
    }
    let Some((k, gain)) = best else { return };
    if gain <= penalty {
        return;
    }
    cuts.push(offset + k);
    segment(&xs[..k], offset, min_seg, penalty, cuts);
    segment(&xs[k..], offset + k, min_seg, penalty, cuts);
}

/// Verdict of [`drift`]: the two-sample comparison feeding the
/// noise-aware gate.
#[derive(Debug, Clone, Copy)]
pub struct Drift {
    /// Median of the baseline sample.
    pub median_a: f64,
    /// Median of the current sample.
    pub median_b: f64,
    /// Two-sided permutation p-value (NaN when either side is empty).
    pub p: f64,
    /// Robust standardized effect size (current − baseline).
    pub effect: f64,
}

impl Drift {
    /// Whether the shift is statistically significant at `alpha` *and*
    /// at least `min_effect` σ in magnitude — the "real change, not
    /// noise" test. Requires ≥ 2 samples a side to ever be true (a
    /// single sample carries no spread information).
    pub fn significant(&self, alpha: f64, min_effect: f64) -> bool {
        self.p.is_finite() && self.p <= alpha && self.effect.abs() >= min_effect
    }
}

/// Compares two replicate samples: permutation p-value plus robust
/// effect size, deterministic for a given seed.
pub fn drift(a: &[f64], b: &[f64], seed: u64) -> Drift {
    Drift {
        median_a: median(a),
        median_b: median(b),
        p: permutation_p(a, b, 2000, seed),
        effect: effect_size(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples from a triangular-ish distribution centred on `center`
    /// (sum of two uniforms), median = center.
    fn noisy(rng: &mut SplitMix64, center: f64, spread: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| center + spread * (rng.gen_f64() + rng.gen_f64() - 1.0))
            .collect()
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mad(&[1.0, 2.0, 3.0, 100.0], 2.5), 1.0);
    }

    #[test]
    fn summary_of_single_sample_is_degenerate() {
        let s = summarize(&[5.0], 1);
        assert_eq!(s.n, 1);
        assert_eq!((s.median, s.mad), (5.0, 0.0));
        assert_eq!((s.ci_lo, s.ci_hi), (5.0, 5.0));
        assert_eq!(summarize(&[], 1).n, 0);
    }

    #[test]
    fn bootstrap_ci_brackets_the_median_and_is_deterministic() {
        let mut rng = SplitMix64::seed_from_u64(9);
        let xs = noisy(&mut rng, 10.0, 1.0, 40);
        let (lo, hi) = bootstrap_ci(&xs, median, 500, 0.95, 7);
        let med = median(&xs);
        assert!(lo <= med && med <= hi, "{lo} ≤ {med} ≤ {hi}");
        assert!(hi - lo < 2.0, "CI implausibly wide: [{lo}, {hi}]");
        assert_eq!((lo, hi), bootstrap_ci(&xs, median, 500, 0.95, 7));
        assert_ne!((lo, hi), bootstrap_ci(&xs, median, 500, 0.95, 8));
    }

    /// Satellite requirement: bootstrap CI coverage on a known
    /// distribution. 200 datasets of 15 samples each from a population
    /// with known median; the 95 % CI must contain it close to 95 % of
    /// the time (the tolerance band accounts for small-sample bootstrap
    /// under-coverage and Monte-Carlo error).
    #[test]
    fn bootstrap_ci_coverage_is_near_nominal() {
        let mut rng = SplitMix64::seed_from_u64(4242);
        let trials = 200;
        let mut covered = 0;
        for t in 0..trials {
            let xs = noisy(&mut rng, 3.0, 1.0, 15);
            let (lo, hi) = bootstrap_ci(&xs, median, 400, 0.95, 1000 + t);
            if (lo..=hi).contains(&3.0) {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!(
            (0.85..=1.0).contains(&rate),
            "coverage {rate} outside [0.85, 1.0]"
        );
    }

    #[test]
    fn permutation_p_is_one_for_identical_samples() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(permutation_p(&a, &a, 100, 1), 1.0);
        assert!(permutation_p(&[], &a, 100, 1).is_nan());
    }

    #[test]
    fn permutation_p_hits_the_exact_floor_on_separated_3v3() {
        // Fully separated 3-vs-3: exact two-sided p = 2 / C(6,3) = 0.1.
        let a = [1.0, 1.1, 0.9];
        let b = [2.0, 2.1, 1.9];
        let p = permutation_p(&a, &b, 0, 0);
        assert!((p - 0.1).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn permutation_p_detects_a_large_shift_in_bigger_samples() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let a = noisy(&mut rng, 0.0, 1.0, 25);
        let b = noisy(&mut rng, 2.0, 1.0, 25);
        // 25v25 exceeds the exact-enumeration bound → Monte Carlo.
        let p = permutation_p(&a, &b, 2000, 3);
        assert!(p < 0.01, "p = {p}");
    }

    /// Satellite requirement: false-positive rate under the null. Both
    /// samples from the same population; at α = 0.1 the rejection rate
    /// over 300 trials must sit near 10 %.
    #[test]
    fn permutation_false_positive_rate_under_null_matches_alpha() {
        let mut rng = SplitMix64::seed_from_u64(77);
        let trials = 300;
        let mut rejections = 0;
        for t in 0..trials {
            let a = noisy(&mut rng, 5.0, 1.0, 6);
            let b = noisy(&mut rng, 5.0, 1.0, 6);
            if permutation_p(&a, &b, 500, 50_000 + t) <= 0.1 {
                rejections += 1;
            }
        }
        let rate = rejections as f64 / trials as f64;
        assert!(rate <= 0.16, "false-positive rate {rate} > 0.16 at α=0.1");
        assert!(rate >= 0.04, "rate {rate} suspiciously low — test broken?");
    }

    #[test]
    fn effect_size_directions_and_degenerate_spreads() {
        let a = [1.0, 1.1, 0.9];
        let b = [3.0, 3.1, 2.9];
        assert!(effect_size(&a, &b) > 3.0);
        assert!(effect_size(&b, &a) < -3.0);
        assert_eq!(effect_size(&[2.0, 2.0], &[2.0, 2.0]), 0.0);
        assert_eq!(effect_size(&[1.0, 1.0], &[2.0, 2.0]), EFFECT_SATURATED);
        assert!(effect_size(&[], &a).is_nan());
    }

    /// Satellite requirement: change-point detection on a synthetic
    /// step series.
    #[test]
    fn change_points_find_a_step_and_ignore_flat_noise() {
        let mut rng = SplitMix64::seed_from_u64(5);
        // 30 epochs at 10, then 30 at 13, σ ≈ 0.3.
        let mut xs = noisy(&mut rng, 10.0, 0.3, 30);
        xs.extend(noisy(&mut rng, 13.0, 0.3, 30));
        let cuts = change_points(&xs, 3, 3.0);
        assert_eq!(cuts.len(), 1, "cuts {cuts:?}");
        assert!(
            (28..=32).contains(&cuts[0]),
            "step located at {} (expected ≈30)",
            cuts[0]
        );
        // Flat noise: no change-points.
        let flat = noisy(&mut rng, 10.0, 0.3, 60);
        assert!(change_points(&flat, 3, 3.0).is_empty());
        // Too-short series: none.
        assert!(change_points(&[1.0, 2.0], 3, 3.0).is_empty());
    }

    #[test]
    fn change_points_handle_noise_free_steps() {
        let mut xs = vec![1.0; 20];
        xs.extend(vec![2.0; 20]);
        let cuts = change_points(&xs, 3, 3.0);
        assert_eq!(cuts, vec![20]);
        assert!(change_points(&vec![1.0; 40], 3, 3.0).is_empty());
    }

    #[test]
    fn two_steps_are_both_recovered() {
        let mut rng = SplitMix64::seed_from_u64(21);
        let mut xs = noisy(&mut rng, 0.0, 0.2, 25);
        xs.extend(noisy(&mut rng, 4.0, 0.2, 25));
        xs.extend(noisy(&mut rng, 1.0, 0.2, 25));
        let cuts = change_points(&xs, 3, 3.0);
        assert_eq!(cuts.len(), 2, "cuts {cuts:?}");
        assert!((23..=27).contains(&cuts[0]), "{cuts:?}");
        assert!((48..=52).contains(&cuts[1]), "{cuts:?}");
    }

    #[test]
    fn drift_significance_combines_p_and_effect() {
        let a = [1.0, 1.05, 0.95];
        let b = [2.0, 2.05, 1.95];
        let d = drift(&a, &b, 1);
        assert!((d.p - 0.1).abs() < 1e-12);
        assert!(d.effect > 1.0);
        assert!(d.significant(0.1, 0.5));
        assert!(!d.significant(0.05, 0.5), "p floor for 3v3 is 0.1");
        let same = drift(&a, &a, 1);
        assert_eq!(same.p, 1.0);
        assert!(!same.significant(0.1, 0.5));
    }

    #[test]
    fn noise_sigma_is_robust_to_a_level_shift() {
        let flat: Vec<f64> = (0..40).map(|i| (i % 2) as f64 * 0.1).collect();
        let sigma_flat = noise_sigma(&flat);
        let mut shifted = flat.clone();
        for v in shifted.iter_mut().skip(20) {
            *v += 50.0;
        }
        // The shift contributes one outlier difference; the estimate
        // must not explode.
        assert!(noise_sigma(&shifted) < sigma_flat * 3.0 + 1e-9);
        assert_eq!(noise_sigma(&[1.0]), 0.0);
    }

    #[test]
    fn binomial_and_combinations_agree() {
        assert_eq!(binomial(6, 3), Some(20));
        assert_eq!(binomial(10, 0), Some(1));
        let mut idx = vec![0, 1, 2];
        let mut count = 1;
        while next_combination(&mut idx, 6) {
            count += 1;
        }
        assert_eq!(count, 20);
    }
}
