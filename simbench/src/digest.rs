//! The correctness check: a digest of the simulated statistics and the
//! epoch records of the deterministic window, compared across every run
//! of one invocation and against the digests recorded in `digests.txt`.

use pabst_simkit::trace::EpochRecord;
use pabst_soc::system::System;

use crate::stats::Fnv;

/// Recorded digests, one `workload seed digest` line each.
const RECORDED: &str = include_str!("../digests.txt");

/// The recorded digest of (workload, seed), if one was recorded.
pub fn recorded(workload: &str, seed: u64) -> Option<u64> {
    parse_recorded(RECORDED).into_iter().find(|r| r.0 == workload && r.1 == seed).map(|r| r.2)
}

fn parse_recorded(text: &str) -> Vec<(&str, u64, u64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let ok = f.len() == 3;
            let seed = f.get(1).and_then(|s| s.parse().ok());
            let digest = f.get(2).and_then(|s| u64::from_str_radix(s, 16).ok());
            match (ok, seed, digest) {
                (true, Some(seed), Some(digest)) => (f[0], seed, digest),
                _ => panic!("digests.txt: malformed line {l:?}"),
            }
        })
        .collect()
}

/// Digest of the simulated state of `sys` and of `records`, the epoch
/// records up to now: the records' JSON lines, the clock, per-core
/// retirement and stall counts, per-tile L2 hits and misses, per-class
/// delivered bytes, ingress rejects, and the bits of the bus
/// utilization and per-class read latencies. Host-side counters
/// (skipped cycles, park counts) are left out: a change that only makes
/// the simulator faster must leave this digest unchanged.
pub fn state_digest(sys: &System, records: &[EpochRecord]) -> u64 {
    let mut f = Fnv::default();
    for r in records {
        f.bytes(r.to_json().as_bytes());
    }
    f.u64(sys.now());
    for t in sys.tiles() {
        let s = t.core.stats();
        for v in [s.retired, s.loads, s.stores, s.rob_full_cycles] {
            f.u64(v);
        }
        let (hits, misses) = t.mem.l2_stats();
        f.u64(hits);
        f.u64(misses);
    }
    for class in 0..crate::spec::WEIGHTS.len() {
        f.u64(sys.bytes_since_mark(class));
        f.u64(sys.mc_read_latency(class).map_or(u64::MAX, f64::to_bits));
    }
    f.u64(sys.bus_utilization_since_mark().to_bits());
    f.u64(sys.ingress_rejects());
    f.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DEFAULT_SEED, HELD_OUT_SEED, SPECS};

    #[test]
    fn every_workload_has_both_recorded_seeds() {
        for spec in SPECS {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                assert!(recorded(spec.name, seed).is_some(), "{} seed {seed}", spec.name);
            }
        }
    }

    #[test]
    fn parses_comments_and_hex() {
        let rows = parse_recorded("# c\n\nw 7 00ff\n");
        assert_eq!(rows, vec![("w", 7, 255)]);
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn rejects_malformed_lines() {
        parse_recorded("w seven 00ff\n");
    }
}
