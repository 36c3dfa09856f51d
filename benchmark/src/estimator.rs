//! Order statistics over windows.
//!
//! On the shared two-core machines this benchmark runs on, a neighbour
//! on the sibling hardware thread slows ALU-bound code by 30-70 % for
//! seconds at a time, and often for most of a run (README, "Noise").
//! Interference only ever slows a window down, so a timing metric is
//! read near the quiet end of its windows: the 97th percentile of a
//! rate, the 3rd of a time. With 100-300 short windows per run that is
//! the fourth- to tenth-best window, reached as long as a few per cent
//! of the run were undisturbed.

/// Which way a metric improves; decides which tail is the quiet one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

/// Share of the windows assumed undisturbed.
pub const QUIET_SHARE: f64 = 0.03;

/// The `q`-quantile (0..=1) by linear interpolation between the two
/// nearest order statistics. Panics on an empty sample: every caller
/// has at least one window.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The value at the quiet end of the sample.
pub fn quiet(values: &[f64], better: Better) -> f64 {
    match better {
        Better::Higher => quantile(values, 1.0 - QUIET_SHARE),
        Better::Lower => quantile(values, QUIET_SHARE),
    }
}

/// Median of integer latencies, as f64 (same interpolation as above).
pub fn median_u64(values: &[u64]) -> f64 {
    let as_f: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    median(&as_f)
}
