//! A set-associative cache with LRU replacement and way-based QoS
//! partitioning.
//!
//! The same structure models the private L1D/L2 (no partitioning) and the
//! shared L3 (exclusive way partitions per QoS class, as the paper's
//! experiments configure, §IV-A). Partitioning follows the Intel-CAT
//! convention: *lookups* see every way (so a line is still hit after a
//! repartition), but *allocations* for a class may only victimize ways in
//! the class's mask.

use pabst_core::qos::{QosId, MAX_CLASSES};

use crate::addr::LineAddr;

/// A bitmask of allowed allocation ways for one QoS class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(pub u64);

impl WayMask {
    /// A mask allowing every way of a `ways`-way cache.
    pub fn all(ways: usize) -> Self {
        assert!(ways <= 64, "at most 64 ways supported");
        if ways == 64 {
            Self(u64::MAX)
        } else {
            Self((1u64 << ways) - 1)
        }
    }

    /// A contiguous mask covering `count` ways starting at `first`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds 64 ways or `count` is zero.
    pub fn range(first: usize, count: usize) -> Self {
        assert!(count > 0, "a partition must contain at least one way");
        assert!(first + count <= 64, "way range exceeds 64");
        let ones = if count == 64 { u64::MAX } else { (1u64 << count) - 1 };
        Self(ones << first)
    }

    /// True when way `w` is allowed.
    pub fn allows(self, w: usize) -> bool {
        (self.0 >> w) & 1 == 1
    }

    /// Number of allowed ways.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }
}

/// Geometry of a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Builds geometry for a cache of `bytes` capacity with `ways`
    /// associativity and 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the parameters don't produce a power-of-two, non-zero set
    /// count, or `ways` is 0 or > 64.
    pub fn with_capacity(bytes: u64, ways: usize) -> Self {
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64");
        let lines = bytes / pabst_simkit::LINE_BYTES;
        let sets = (lines / ways as u64) as usize;
        assert!(sets > 0 && sets.is_power_of_two(), "sets must be a power of two, got {sets}");
        Self { sets, ways }
    }

    /// Total capacity in bytes.
    pub fn bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * pabst_simkit::LINE_BYTES
    }
}

/// A line evicted by a fill: who owned it and whether it was dirty (dirty
/// evictions from the L3 become memory writebacks, which PABST charges to
/// the demand class that caused them — §III-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line.
    pub line: LineAddr,
    /// The QoS class that allocated the line.
    pub owner: QosId,
    /// True when the line held modified data (requires a writeback).
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    owner: QosId,
    /// Last-touch stamp for LRU (global monotone counter).
    lru: u64,
}

impl Way {
    fn empty() -> Self {
        Self { tag: 0, valid: false, dirty: false, owner: QosId::new(0), lru: 0 }
    }
}

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement and optional per-class way partitioning.
///
/// Purely functional state: lookups and fills mutate tags/LRU but carry no
/// timing; latency is applied by the caller.
///
/// # Examples
///
/// ```
/// use pabst_cache::{CacheConfig, SetAssocCache, LineAddr};
/// use pabst_core::qos::QosId;
///
/// let mut c = SetAssocCache::new(CacheConfig { sets: 2, ways: 2 });
/// let q = QosId::new(0);
/// let line = LineAddr::new(4);
/// assert!(!c.probe(line));             // cold miss
/// assert_eq!(c.fill(line, q, false), None);
/// assert!(c.probe(line));              // now hits
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// All ways of all sets in one flat allocation (`sets * ways` long,
    /// set-major): one indirection per lookup instead of two, and
    /// adjacent ways share cache lines of the *host* machine.
    ways: Vec<Way>,
    masks: [WayMask; MAX_CLASSES],
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty cache; all classes may initially allocate anywhere.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two() && cfg.sets > 0, "sets must be a power of two");
        assert!(cfg.ways > 0 && cfg.ways <= 64, "ways must be in 1..=64");
        Self {
            cfg,
            ways: vec![Way::empty(); cfg.sets * cfg.ways],
            masks: [WayMask::all(cfg.ways); MAX_CLASSES],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The ways of the set holding `line`, as one contiguous slice.
    fn set(&self, si: usize) -> &[Way] {
        &self.ways[si * self.cfg.ways..(si + 1) * self.cfg.ways]
    }

    /// Mutable form of [`SetAssocCache::set`].
    fn set_mut(&mut self, si: usize) -> &mut [Way] {
        &mut self.ways[si * self.cfg.ways..(si + 1) * self.cfg.ways]
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Restricts allocations by `class` to the ways in `mask` (CAT-style).
    ///
    /// # Panics
    ///
    /// Panics if the mask selects no way inside the cache's associativity.
    pub fn set_partition(&mut self, class: QosId, mask: WayMask) {
        let in_range = mask.0 & WayMask::all(self.cfg.ways).0;
        assert!(in_range != 0, "partition mask selects no valid way");
        self.masks[class.index()] = WayMask(in_range);
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.get() as usize) & (self.cfg.sets - 1)
    }

    fn tag(&self, line: LineAddr) -> u64 {
        line.get() >> self.cfg.sets.trailing_zeros()
    }

    /// Looks up `line`; on a hit the LRU stamp is refreshed. Returns whether
    /// the line is present.
    pub fn probe(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let (si, tag) = (self.set_index(line), self.tag(line));
        let tick = self.tick;
        if let Some(w) = self.set_mut(si).iter_mut().find(|w| w.valid && w.tag == tag) {
            w.lru = tick;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Looks up `line` and marks it dirty on a hit (a store). Returns
    /// whether the line was present.
    pub fn probe_write(&mut self, line: LineAddr) -> bool {
        let hit = self.probe(line);
        if hit {
            let (si, tag) = (self.set_index(line), self.tag(line));
            if let Some(w) = self.set_mut(si).iter_mut().find(|w| w.valid && w.tag == tag) {
                w.dirty = true;
            }
        }
        hit
    }

    /// True when `line` is present, without touching LRU or hit counters.
    pub fn contains(&self, line: LineAddr) -> bool {
        let (si, tag) = (self.set_index(line), self.tag(line));
        self.set(si).iter().any(|w| w.valid && w.tag == tag)
    }

    /// Installs `line` on behalf of `class` (write-allocate when `dirty`),
    /// returning the victim if a valid line was displaced.
    ///
    /// The victim is the LRU line among the ways `class` may allocate into;
    /// invalid ways in the class's partition are used first. If the line is
    /// already present, its dirty bit is OR-ed and no eviction occurs.
    pub fn fill(&mut self, line: LineAddr, class: QosId, dirty: bool) -> Option<Evicted> {
        self.tick += 1;
        let (si, tag) = (self.set_index(line), self.tag(line));
        let tick = self.tick;

        // Already present (e.g. a racing fill): refresh, merge dirty.
        if let Some(w) = self.set_mut(si).iter_mut().find(|w| w.valid && w.tag == tag) {
            w.lru = tick;
            w.dirty |= dirty;
            return None;
        }

        let mask = self.masks[class.index()];
        let shift = self.cfg.sets.trailing_zeros();
        let set = self.set_mut(si);

        // Prefer an invalid way within the partition.
        let slot = set
            .iter()
            .enumerate()
            .filter(|&(i, w)| mask.allows(i) && !w.valid)
            .map(|(i, _)| i)
            .next()
            .or_else(|| {
                // LRU among the partition's valid ways.
                set.iter()
                    .enumerate()
                    .filter(|&(i, _)| mask.allows(i))
                    .min_by_key(|&(_, w)| w.lru)
                    .map(|(i, _)| i)
            })
            .expect("partition mask guarantees at least one way");

        let victim = &mut set[slot];
        let evicted = if victim.valid {
            Some(Evicted {
                line: LineAddr::new((victim.tag << shift) | si as u64),
                owner: victim.owner,
                dirty: victim.dirty,
            })
        } else {
            None
        };
        *victim = Way { tag, valid: true, dirty, owner: class, lru: tick };
        evicted
    }

    /// Removes `line` if present, returning its eviction record.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Evicted> {
        let (si, tag) = (self.set_index(line), self.tag(line));
        let sets_shift = self.cfg.sets.trailing_zeros();
        let w = self.set_mut(si).iter_mut().find(|w| w.valid && w.tag == tag)?;
        w.valid = false;
        Some(Evicted {
            line: LineAddr::new((w.tag << sets_shift) | si as u64),
            owner: w.owner,
            dirty: w.dirty,
        })
    }

    /// Demand hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Accounts for `n` probes that missed, as `n` calls of
    /// [`SetAssocCache::probe`] on absent lines would: each advances the
    /// LRU clock and counts one miss, and nothing else changes. The batch
    /// form of a stalled access's retries over a skipped window.
    pub fn note_probe_misses(&mut self, n: u64) {
        self.tick += n;
        self.misses += n;
    }

    /// Valid lines currently held by `class` (occupancy monitoring, §II-B).
    pub fn occupancy(&self, class: QosId) -> usize {
        self.ways.iter().filter(|w| w.valid && w.owner == class).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        SetAssocCache::new(CacheConfig { sets: 4, ways: 2 })
    }

    fn q(i: u8) -> QosId {
        QosId::new(i)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        let l = LineAddr::new(3);
        assert!(!c.probe(l));
        c.fill(l, q(0), false);
        assert!(c.probe(l));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn noted_probe_misses_match_probing_absent_lines() {
        let mut naive = small();
        let mut batched = small();
        for c in [&mut naive, &mut batched] {
            c.fill(LineAddr::new(0), q(0), false);
        }
        for _ in 0..5 {
            assert!(!naive.probe_write(LineAddr::new(9)));
        }
        batched.note_probe_misses(5);
        // Debug prints every field, the LRU clock included.
        assert_eq!(format!("{naive:?}"), format!("{batched:?}"));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines 0, 4, 8... (sets=4).
        c.fill(LineAddr::new(0), q(0), false);
        c.fill(LineAddr::new(4), q(0), false);
        // Touch 0 so 4 is LRU.
        assert!(c.probe(LineAddr::new(0)));
        let ev = c.fill(LineAddr::new(8), q(0), false).expect("must evict");
        assert_eq!(ev.line, LineAddr::new(4));
        assert!(c.contains(LineAddr::new(0)));
        assert!(!c.contains(LineAddr::new(4)));
    }

    #[test]
    fn eviction_reports_owner_and_dirty() {
        let mut c = small();
        c.fill(LineAddr::new(0), q(1), true);
        c.fill(LineAddr::new(4), q(0), false);
        let ev = c.fill(LineAddr::new(8), q(0), false).unwrap();
        assert_eq!(ev.owner, q(1));
        assert!(ev.dirty);
        assert_eq!(ev.line, LineAddr::new(0));
    }

    #[test]
    fn refill_merges_dirty_without_eviction() {
        let mut c = small();
        c.fill(LineAddr::new(0), q(0), false);
        assert_eq!(c.fill(LineAddr::new(0), q(0), true), None);
        let ev = c.invalidate(LineAddr::new(0)).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn probe_write_sets_dirty() {
        let mut c = small();
        c.fill(LineAddr::new(0), q(0), false);
        assert!(c.probe_write(LineAddr::new(0)));
        assert!(c.invalidate(LineAddr::new(0)).unwrap().dirty);
    }

    #[test]
    fn partitions_isolate_allocations() {
        let mut c = SetAssocCache::new(CacheConfig { sets: 2, ways: 4 });
        c.set_partition(q(0), WayMask::range(0, 2));
        c.set_partition(q(1), WayMask::range(2, 2));
        // Class 0 thrashes its 2 ways of set 0 (lines 0,2,4,... map to set 0).
        for i in 0..16 {
            c.fill(LineAddr::new(i * 2), q(0), false);
        }
        // Class 1's lines in the other ways must be untouched.
        c.fill(LineAddr::new(100), q(1), false); // set 0
        c.fill(LineAddr::new(102), q(1), false); // set 0
        for i in 16..32 {
            let ev = c.fill(LineAddr::new(i * 2), q(0), false);
            if let Some(ev) = ev {
                assert_eq!(ev.owner, q(0), "class 0 may only evict its own partition");
            }
        }
        assert!(c.contains(LineAddr::new(100)));
        assert!(c.contains(LineAddr::new(102)));
    }

    #[test]
    fn lookup_hits_outside_own_partition() {
        // CAT semantics: partitioning restricts allocation, not lookup.
        let mut c = SetAssocCache::new(CacheConfig { sets: 2, ways: 4 });
        c.fill(LineAddr::new(0), q(1), false); // lands in some way
        c.set_partition(q(0), WayMask::range(0, 1));
        // Class-agnostic probe still hits regardless of which partition.
        assert!(c.probe(LineAddr::new(0)));
    }

    #[test]
    fn occupancy_counts_per_class() {
        let mut c = SetAssocCache::new(CacheConfig { sets: 4, ways: 4 });
        c.set_partition(q(0), WayMask::range(0, 2));
        c.set_partition(q(1), WayMask::range(2, 2));
        for i in 0..4 {
            c.fill(LineAddr::new(i), q(0), false);
            c.fill(LineAddr::new(i + 64), q(1), false);
        }
        assert_eq!(c.occupancy(q(0)), 4);
        assert_eq!(c.occupancy(q(1)), 4);
    }

    #[test]
    fn capacity_config_round_trip() {
        let cfg = CacheConfig::with_capacity(256 * 1024, 8);
        assert_eq!(cfg.bytes(), 256 * 1024);
        assert_eq!(cfg.sets, 512);
    }

    #[test]
    #[should_panic(expected = "no valid way")]
    fn out_of_range_partition_panics() {
        let mut c = small();
        c.set_partition(q(0), WayMask(0b100)); // cache has 2 ways
    }

    #[test]
    fn way_mask_helpers() {
        assert_eq!(WayMask::all(4).0, 0b1111);
        assert_eq!(WayMask::range(2, 2).0, 0b1100);
        assert!(WayMask::range(1, 3).allows(3));
        assert!(!WayMask::range(1, 3).allows(0));
        assert_eq!(WayMask::all(64).count(), 64);
    }

    #[test]
    fn invalidate_absent_returns_none() {
        let mut c = small();
        assert_eq!(c.invalidate(LineAddr::new(9)), None);
    }

    #[test]
    fn eviction_line_reconstruction_exact() {
        // The reconstructed victim address must be the original line.
        let mut c = SetAssocCache::new(CacheConfig { sets: 8, ways: 1 });
        let line = LineAddr::new(0b1011_0101);
        c.fill(line, q(0), false);
        let ev = c.fill(LineAddr::new(0b1111_0101), q(0), false).unwrap();
        assert_eq!(ev.line, line);
    }
}
