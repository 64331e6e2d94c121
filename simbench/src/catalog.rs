//! The metrics the benchmark reports, with their units and which way is
//! better, read from `BENCHMARK.json` in its order. A run reports every
//! end-to-end metric (untraced) or every per-layer metric (traced), and
//! nothing else.

use std::sync::OnceLock;

/// The repository's benchmark definition.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

/// Metrics of the untraced run: host rates and set-up time, memory, and
/// the simulated statistics of the deterministic window.
pub fn end_to_end() -> &'static [Def] {
    static LIST: OnceLock<Vec<Def>> = OnceLock::new();
    LIST.get_or_init(|| listed("end_to_end"))
}

/// Metrics of the traced run, by layer (crate) name.
pub fn per_layer() -> &'static [Def] {
    static LIST: OnceLock<Vec<Def>> = OnceLock::new();
    LIST.get_or_init(|| listed("per_layer"))
}

/// The definition of `name`, in either list.
pub fn find(name: &str) -> Option<Def> {
    end_to_end().iter().chain(per_layer()).copied().find(|d| d.name == name)
}

/// Every object of the `key` array, read with a scan that relies on the
/// file's one-object-per-line layout.
fn listed(key: &str) -> Vec<Def> {
    let start = BENCHMARK.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("{key} missing"));
    let body = &BENCHMARK[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.lines()
        .filter_map(|l| {
            Some(Def {
                name: field(l, "name")?,
                unit: field(l, "unit")?,
                better: field(l, "better")?,
            })
        })
        .collect()
}

/// The string value of `"f": "..."` on `line`.
fn field(line: &'static str, f: &str) -> Option<&'static str> {
    let at = line.find(&format!("\"{f}\": \""))? + f.len() + 5;
    line[at..].split('"').next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};

    #[test]
    fn both_lists_are_read() {
        assert_eq!(end_to_end()[0].name, "sim_cycles_per_s");
        assert!(end_to_end().iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(per_layer().len() > end_to_end().len());
    }

    #[test]
    fn every_workload_is_listed() {
        let start = BENCHMARK.find("\"workloads\"").expect("workloads present");
        let body = &BENCHMARK[start..];
        let body = &body[..body.find(']').expect("array closes")];
        for spec in crate::spec::SPECS {
            assert!(body.contains(&format!("\"name\": \"{}\"", spec.name)), "{}", spec.name);
        }
        assert_eq!(body.matches("\"why\"").count(), crate::spec::SPECS.len());
    }

    #[test]
    fn names_units_and_directions_are_valid_and_unique() {
        let all: Vec<Def> = end_to_end().iter().chain(per_layer()).copied().collect();
        for (i, d) in all.iter().enumerate() {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}", d.unit);
            assert!(matches!(d.better, "higher" | "lower"), "{}", d.name);
            assert!(all[i + 1..].iter().all(|e| e.name != d.name), "{} twice", d.name);
        }
    }
}
