//! Helpers the benchmark owns, written apart from the program under test:
//! a seeded generator, order statistics, the normal CDF, Spearman's r_s,
//! the paper's D_n, and the metric/JSON plumbing.

use std::time::Instant;

/// SplitMix64: the benchmark's own seeded generator for deadlines, Zipf
/// draws and subset choices (the query generators take `uaq_stats::Rng`).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Log-uniform in [lo, hi).
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi.ln() - lo.ln())).exp()
    }

    /// A seeded permutation of 0..n (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Zipf(s) over ranks 0..n, drawn by inverting the cumulative weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn draw(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Complementary error function, Chebyshev fit (Numerical Recipes
/// `erfcc`): fractional error below 1.2e-7 everywhere.
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let r = t * poly.exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

/// Φ(x), accurate to about 1e-7 absolute.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Absolute error bound of [`std_normal_cdf`] used by the checks.
pub const CDF_TOLERANCE: f64 = 1e-6;

/// `Pr(T ≤ d)` for `T ~ N(mean, sd²)`; a point mass when `sd == 0`.
pub fn normal_cdf(mean: f64, sd: f64, d: f64) -> f64 {
    if sd == 0.0 {
        return if d < mean { 0.0 } else { 1.0 };
    }
    std_normal_cdf((d - mean) / sd)
}

/// Average ranks (ties share the mean of their positions), 1-based.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let r = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = r;
        }
        i = j + 1;
    }
    out
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let (mx, my) = (mean(xs), mean(ys));
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// Spearman's r_s: Pearson correlation of the average ranks.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    pearson(&ranks(xs), &ranks(ys))
}

/// The paper's D_n (§6.3): mean over α ∈ {0.1, 0.2, …, 6.0} of
/// |Pr_n(α) − (2Φ(α) − 1)|, with Pr_n(α) the share of normalized errors
/// |t − μ| / σ at most α.
pub fn dn(means: &[f64], sds: &[f64], actuals: &[f64]) -> f64 {
    let e: Vec<f64> = means
        .iter()
        .zip(sds)
        .zip(actuals)
        .map(|((&m, &s), &t)| {
            let err = (t - m).abs();
            if s > 0.0 {
                err / s
            } else if err == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let n = 60;
    (1..=n)
        .map(|i| {
            let alpha = 6.0 * i as f64 / n as f64;
            let empirical = e.iter().filter(|&&x| x <= alpha).count() as f64 / e.len() as f64;
            (empirical - (2.0 * std_normal_cdf(alpha) - 1.0)).abs()
        })
        .sum::<f64>()
        / n as f64
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Outcome of one benchmark run: what the last stdout line reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// False when any operation failed its check or any metric is not a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// Fixed host probes, printed with every run (not metrics): a
/// register-only loop and a memory-bound loop of fixed size. A slow run
/// whose probes are also slow points at a busy host, not at the program.
pub fn host_probes() -> (f64, f64) {
    let t = Instant::now();
    let mut x = 0x1234_5678u64;
    for i in 0..50_000_000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(x);
    let register_ms = secs(t) * 1e3;

    // 64 MiB of u64, walked with a page-sized stride so most loads miss
    // the caches.
    let n = 8 << 20;
    let buf: Vec<u64> = (0..n as u64).collect();
    let t = Instant::now();
    let mut sum = 0u64;
    for pass in 0..4 {
        let mut i = pass;
        while i < n {
            sum = sum.wrapping_add(buf[i]);
            i += 4099;
        }
        for v in buf.iter().skip(pass).step_by(8) {
            sum = sum.wrapping_add(*v);
        }
    }
    std::hint::black_box(sum);
    let memory_ms = secs(t) * 1e3;
    (register_ms, memory_ms)
}
