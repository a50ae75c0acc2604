//! Order statistics over measured samples.

use std::time::Duration;

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    if s.is_empty() {
        return f64::NAN;
    }
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |q: usize| {
        let m = (n + 1) * q;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Split `(at, value)` samples into `windows` equal slices of
/// `[start, start + span)` by `at`, apply `f` to each slice's values,
/// and return the median of the results. A short burst of interference
/// from elsewhere on the host then moves one window, not the result.
pub fn windowed_median(
    samples: &[(Duration, f64)],
    span: Duration,
    windows: usize,
    f: impl Fn(&[f64]) -> f64,
) -> f64 {
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(at, v) in samples {
        let w = (at.as_secs_f64() / span.as_secs_f64() * windows as f64) as usize;
        slices[w.min(windows - 1)].push(v);
    }
    let per: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| f(&sorted(s.clone())))
        .collect();
    median(&per)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
