//! Summary statistics, the tail rule, metric-name checks and the result
//! line the benchmark prints last.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// With fewer than two samples both quartiles are the single value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "quartiles of nothing");
    if n == 1 {
        return (s[0], s[0]);
    }
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The tail of a sample: the highest percentile that still has at least
/// ten samples beyond it, i.e. the 11th-largest value, with its
/// percentile rank. `None` when there are fewer than 11 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 11 {
        return None;
    }
    let k = n - 11;
    Some((s[k], 100.0 * (n - 10) as f64 / n as f64))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// True for a valid metric or workload name: a letter or digit, then up
/// to 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter().all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// True for a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.`
/// or `-`.
pub fn valid_unit(unit: &str) -> bool {
    let b = unit.as_bytes();
    !b.is_empty()
        && b.len() <= 16
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// An ordered set of named metrics with units.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric of the catalog, with the catalog's unit.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalog, a repeated name, or a
    /// non-finite value: each is a bug in the benchmark.
    pub fn put(&mut self, name: &'static str, value: f64) {
        let unit = crate::catalog::find(name)
            .unwrap_or_else(|| panic!("{name} is not in the catalog"))
            .unit;
        assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}] breaks the charset");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        assert!(self.entries.iter().all(|e| e.0 != name), "metric {name} reported twice");
        self.entries.push((name, value, unit));
    }

    /// True when exactly the metrics of `list` were reported, in order.
    pub fn covers(&self, list: &[crate::catalog::Def]) -> bool {
        self.entries.iter().map(|e| e.0).eq(list.iter().map(|d| d.name))
    }

    /// One human-readable line per metric.
    pub fn print(&self) {
        for (name, value, unit) in &self.entries {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// 64-bit FNV-1a, the digest the correctness check compares.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one integer in (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn get(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&xs), 5.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((1.0, 100.0 / 11.0)));
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (v, p) = tail(&xs).expect("100 samples have a tail");
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn names_and_units_follow_the_charset() {
        for ok in ["sim_cycles_per_s", "cpu.step_ns", "a-b.c_d", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "%", "count", "cycles/s", "insts/cycle"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_flat_json() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5);
        m.put("cpu.retired", 2.0);
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"cpu.retired\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn only_catalog_metrics_are_reported() {
        Metrics::default().put("made_up", 1.0);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn a_metric_is_reported_once() {
        let mut m = Metrics::default();
        m.put("setup_s", 1.0);
        m.put("setup_s", 2.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.get(), 0xaf63_dc4c_8601_ec8c);
    }
}
