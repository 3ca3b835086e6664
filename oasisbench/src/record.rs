//! Per-op measurement records, the timing helper behind every traced
//! step, and the small statistics the report needs.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;

/// What one timed call cost on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Wall time of the call, ms.
    pub ms: f64,
    /// Allocations the call made.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub bytes: u64,
}

/// Runs `f` and returns its result with what it cost.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let (a0, b0) = alloc::thread_counts();
    let start = Instant::now();
    let out = f();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let (a1, b1) = alloc::thread_counts();
    (
        out,
        Cost {
            ms,
            allocs: a1 - a0,
            bytes: b1 - b0,
        },
    )
}

/// Quantities summed over the calls of one op (or one pool lane of
/// it), keyed by metric or counter name. `BTreeMap` keeps the output
/// order fixed.
#[derive(Debug, Clone, Default)]
pub struct Record(pub BTreeMap<String, f64>);

impl Record {
    /// Adds `v` to the quantity `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.0.entry(key.to_string()).or_insert(0.0) += v;
    }

    /// Charges a timed call to `key_ms` and its allocations to the
    /// op-wide `bench.allocs` / `bench.alloc_bytes` totals.
    pub fn charge(&mut self, key_ms: &str, cost: Cost) {
        self.add(key_ms, cost.ms);
        self.add("bench.allocs", cost.allocs as f64);
        self.add("bench.alloc_bytes", cost.bytes as f64);
    }

    /// Runs `f`, charging it to `key_ms`.
    pub fn time<R>(&mut self, key_ms: &str, f: impl FnOnce() -> R) -> R {
        let (out, cost) = measure(f);
        self.charge(key_ms, cost);
        out
    }

    /// Adds every quantity of `other`.
    pub fn merge(&mut self, other: &Record) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }

    /// The quantity `key`, 0 when never recorded.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// FNV-1a over the bit patterns of `values` — a digest that changes
/// when any bit of any value changes.
pub fn digest_f32(values: &[f32]) -> u64 {
    fnv(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// FNV-1a over raw bytes.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    fnv(bytes.iter().copied())
}

fn fnv(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Quartiles of `values` by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses: `(q1, median, q3)`.
/// Needs at least two values; a single value is returned for all
/// three.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    // Python's formula verbatim, including its extrapolation past the
    // ends for tiny samples.
    let at = |i: usize| {
        let m = (n + 1) as i64;
        let j = (i as i64 * m / 4).clamp(1, n as i64 - 1);
        let delta = (i as i64 * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between closest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Peak resident set size of this process, MB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&v), (1.5, 3.0, 4.5));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
    }

    #[test]
    fn digest_sees_every_bit() {
        assert_ne!(digest_f32(&[0.0]), digest_f32(&[-0.0]));
        assert_eq!(digest_f32(&[1.5, 2.0]), digest_f32(&[1.5, 2.0]));
    }
}
