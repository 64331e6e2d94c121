//! One tile: core + L1D + private L2 with MSHRs + the PABST pacer.
//!
//! The tile implements the core's [`pabst_cpu::MemPort`]: L1 and L2 are
//! probed inline (their latency is returned to the core), an L2 miss
//! allocates an MSHR and enqueues a network injection, and the *pacer*
//! gates injections into the SoC network — the paper's source-regulation
//! point (§III-B3).

use std::collections::VecDeque;

use pabst_cache::{LineAddr, MshrOutcome, MshrTable, SetAssocCache};
use pabst_core::pacer::Pacer;
use pabst_core::qos::QosId;
use pabst_cpu::core_model::StallStamp;
use pabst_cpu::{Access, LoadId, MemPort, OooCore, Workload};
use pabst_simkit::Cycle;

use crate::config::ChannelMap;

/// A waiter merged into an L2 MSHR entry: which dynamic load (or a store)
/// wants the line.
#[derive(Debug, Clone, Copy)]
pub struct L2Waiter {
    /// The core-side load identity; `None` for stores.
    pub load: Option<LoadId>,
    /// Whether the line must be filled dirty (write-allocate store).
    pub store: bool,
}

/// A request the tile wants to inject into the SoC network.
#[derive(Debug, Clone, Copy)]
pub struct InjectReq {
    /// Missed line.
    pub line: LineAddr,
    /// Whether any waiter is a store (fill dirty).
    pub store: bool,
}

/// How many recent admissions [`TileMem`] remembers. The core issues at
/// most two accesses per step, so this covers one step and the one
/// before it.
const RECENT: usize = 4;

/// The tile's L1/L2 front end, kept separate from the core so the borrow
/// of the core during `step` doesn't alias the port.
#[derive(Debug)]
pub struct TileMem {
    /// Tile's QoS class.
    pub class: QosId,
    l1: SetAssocCache,
    l2: SetAssocCache,
    pub(crate) mshrs: MshrTable<L2Waiter>,
    /// Primary misses awaiting injection into the network (pacer-gated).
    pub(crate) inject_q: VecDeque<InjectReq>,
    /// The source pacers: empty when source regulation is disabled, one
    /// entry for the paper's single global governor, or one per memory
    /// controller for the per-MC variant (SIII-C1), selected by the
    /// request's home controller.
    pub(crate) pacers: Vec<Pacer>,
    /// Number of memory controllers (for per-MC pacer selection).
    mcs: usize,
    /// Line→controller map (must match the interconnect's routing, or the
    /// per-MC pacers would meter the wrong controller's traffic).
    channel_map: ChannelMap,
    /// Period charged when each in-flight line issued, keyed by line: the
    /// settlement refund/extra-charge must use the issue-time amount, not
    /// whatever period an epoch boundary has since programmed. A flat
    /// table: at most one entry per in-flight primary miss (MSHR-bounded),
    /// so linear search beats a tree and never allocates at steady state.
    charged: Vec<(LineAddr, Cycle)>,
    l1_lat: u64,
    l2_lat: u64,
    /// Dirty L2 victims waiting to be written back into the L3.
    pub(crate) l2_wb_q: VecDeque<LineAddr>,
    /// Recycled waiter buffer for [`TileMem::on_fill`] (no per-fill
    /// allocation on the response hot path).
    fill_scratch: Vec<L2Waiter>,
    /// Lines admitted to L1 ∪ L2 ∪ MSHR table so far: the clock
    /// [`StallStamp`]s are read on. Nothing else adds a line to that
    /// union, so an access refused for a line outside it stays refused
    /// while the table is full and its line is not admitted.
    admitted: u64,
    /// The last [`RECENT`] admitted lines; admission `k` sits at
    /// `k % RECENT`.
    recent: [LineAddr; RECENT],
}

impl TileMem {
    /// Builds the tile memory front end.
    #[allow(clippy::too_many_arguments)] // flat constructor mirrors SystemBuilder's plumbing
    pub fn new(
        class: QosId,
        l1: SetAssocCache,
        l2: SetAssocCache,
        mshrs: usize,
        l1_lat: u64,
        l2_lat: u64,
        pacers: Vec<Pacer>,
        mcs: usize,
        channel_map: ChannelMap,
    ) -> Self {
        assert!(mcs > 0, "at least one memory controller");
        assert!(
            pacers.is_empty() || pacers.len() == 1 || pacers.len() == mcs,
            "pacer count must be 0 (off), 1 (global) or one per MC"
        );
        Self {
            class,
            l1,
            l2,
            mshrs: MshrTable::new(mshrs),
            inject_q: VecDeque::new(),
            pacers,
            mcs,
            channel_map,
            charged: Vec::new(),
            l1_lat,
            l2_lat,
            l2_wb_q: VecDeque::new(),
            fill_scratch: Vec::new(),
            admitted: 0,
            recent: [LineAddr::new(0); RECENT],
        }
    }

    /// The pacer responsible for `line` (per-MC mode selects by the home
    /// controller).
    fn pacer_for(&mut self, line: LineAddr) -> Option<&mut Pacer> {
        match self.pacers.len() {
            0 => None,
            1 => self.pacers.first_mut(),
            _ => {
                let idx = self.channel_map.channel_of(line, self.mcs);
                self.pacers.get_mut(idx)
            }
        }
    }

    /// Handles a fill returning from the L3/memory: fills L2 (and L1),
    /// releases the MSHR, and returns the waiters plus any dirty L2 victim
    /// that must be written back to the L3. The returned slice borrows an
    /// internal buffer that the next `on_fill` call reuses.
    pub fn on_fill(&mut self, line: LineAddr) -> &[L2Waiter] {
        let mut waiters = std::mem::take(&mut self.fill_scratch);
        waiters.clear();
        self.mshrs.complete_into(line, &mut waiters);
        // Every tracked line has at least its primary waiter, so no
        // waiters means the table was not tracking `line`.
        if waiters.is_empty() {
            self.admit(line);
        }
        let dirty = waiters.iter().any(|w| w.store);
        if let Some(ev) = self.l2.fill(line, self.class, dirty) {
            if ev.dirty {
                self.l2_wb_q.push_back(ev.line);
            }
        }
        // Fill L1 as well; L1 victims are clean or folded into L2.
        if let Some(ev) = self.l1.fill(line, self.class, dirty) {
            if ev.dirty {
                // Write-back L1 victim into L2 (mark dirty if present).
                self.l2.probe_write(ev.line);
            }
        }
        self.fill_scratch = waiters;
        &self.fill_scratch
    }

    /// All pacers (empty when source regulation is off).
    pub fn pacers_mut(&mut self) -> &mut [Pacer] {
        &mut self.pacers
    }

    /// All pacers, read-only (inspection and invariant checks).
    pub fn pacers(&self) -> &[Pacer] {
        &self.pacers
    }

    /// Settles response-side accounting for `line`: refund when the shared
    /// cache serviced it, extra charge when its fill caused a writeback.
    /// Both use the period recorded when the request issued — an epoch
    /// boundary may have reprogrammed the pacer while it was in flight.
    pub fn settle_response(&mut self, line: LineAddr, l3_hit: bool, wb_flag: bool, now: Cycle) {
        let charged = match self.charged.iter().position(|(l, _)| *l == line) {
            Some(i) => self.charged.swap_remove(i).1,
            None => 0,
        };
        if let Some(p) = self.pacer_for(line) {
            if l3_hit {
                p.on_shared_hit(charged, now);
            }
            if wb_flag {
                p.on_writeback(charged);
            }
        }
    }

    /// True when at least one miss is queued for injection; lets the SoC
    /// loop skip idle tiles without consulting the pacer.
    pub fn wants_inject(&self) -> bool {
        !self.inject_q.is_empty()
    }

    /// Attempts to release the oldest pending injection, gated by the
    /// responsible pacer. Returns the request when the network may take it
    /// this cycle.
    pub fn try_inject(&mut self, now: Cycle) -> Option<InjectReq> {
        let head = *self.inject_q.front()?;
        let charged = match self.pacer_for(head.line) {
            Some(p) => {
                if !p.try_issue(now) {
                    return None;
                }
                Some(p.period())
            }
            None => None,
        };
        if let Some(c) = charged {
            // Insert-or-overwrite, matching map semantics (at most one
            // entry per line).
            match self.charged.iter_mut().find(|(l, _)| *l == head.line) {
                Some((_, v)) => *v = c,
                None => self.charged.push((head.line, c)),
            }
        }
        self.inject_q.pop_front();
        Some(head)
    }

    /// Read-only variant of [`TileMem::pacer_for`], for horizon queries.
    fn pacer_ref_for(&self, line: LineAddr) -> Option<&Pacer> {
        match self.pacers.len() {
            0 => None,
            1 => self.pacers.first(),
            _ => self.pacers.get(self.channel_map.channel_of(line, self.mcs)),
        }
    }

    /// The earliest cycle a [`TileMem::try_inject`] call can change state:
    /// `None` when nothing is queued, `Some(now)` when the head request
    /// could issue this cycle (no pacer, unthrottled, or period already
    /// elapsed), otherwise the head pacer's `C_next`. While the head is
    /// NACKed, the only per-cycle mutation naive stepping performs is the
    /// pacer's throttle counter, which the skip path accrues through
    /// [`TileMem::accrue_throttle_skip`].
    pub fn next_inject_at(&self, now: Cycle) -> Option<Cycle> {
        let head = self.inject_q.front()?;
        match self.pacer_ref_for(head.line) {
            None => Some(now),
            Some(p) => Some(p.next_issue_at().max(now)),
        }
    }

    /// Batch-accrues the throttle NACKs that `cycles` naive
    /// [`TileMem::try_inject`] calls would have recorded on the head
    /// request's pacer. Only valid over a window in which every such call
    /// would have NACKed — i.e. the window ends before
    /// [`TileMem::next_inject_at`]. A tile with nothing queued is a no-op.
    pub fn accrue_throttle_skip(&mut self, cycles: u64) {
        let Some(head) = self.inject_q.front().copied() else { return };
        if let Some(p) = self.pacer_for(head.line) {
            p.note_throttled(cycles);
        }
    }

    /// Pending L2 writebacks to the L3.
    pub fn pop_l2_writeback(&mut self) -> Option<LineAddr> {
        self.l2_wb_q.pop_front()
    }

    /// L2 demand hit/miss counts (for reports).
    pub fn l2_stats(&self) -> (u64, u64) {
        (self.l2.hits(), self.l2.misses())
    }

    /// Batch-accrues `n` stalled accesses. Made naively through
    /// [`MemPort::access`], each would have probed L1 and L2, missed
    /// both, and found the MSHR table full. Only valid for accesses
    /// [`TileMem::would_stall`] answers `true` for.
    fn accrue_stalled_probes(&mut self, n: u64) {
        self.l1.note_probe_misses(n);
        self.l2.note_probe_misses(n);
    }

    /// Records `line` entering L1 ∪ L2 ∪ MSHR table.
    fn admit(&mut self, line: LineAddr) {
        self.recent[(self.admitted % RECENT as u64) as usize] = line;
        self.admitted += 1;
    }

    /// True when an access to `line` refused at `stamp` is refused again
    /// now, known without a lookup: the table is still full, and none of
    /// the at most [`RECENT`] admissions since the refusal was `line`.
    fn stalls_again(&self, line: LineAddr, stamp: StallStamp) -> bool {
        let Some(at) = stamp.refused_at() else { return false };
        self.mshrs.is_full()
            && self.admitted - at <= RECENT as u64
            && (at..self.admitted).all(|k| self.recent[(k % RECENT as u64) as usize] != line)
    }

    /// The full access path: probe L1, then L2, then allocate an MSHR.
    fn full_access(&mut self, line: LineAddr, store: bool, id: LoadId) -> Access {
        // L1 probe.
        let l1_hit = if store { self.l1.probe_write(line) } else { self.l1.probe(line) };
        if l1_hit {
            // Store dirtiness must eventually reach L2 on L1 eviction; the
            // fill path handles it. For hits, also mark L2 (inclusive-ish).
            if store {
                self.l2.probe_write(line);
            }
            return Access::Hit(self.l1_lat);
        }
        // L2 probe.
        let l2_hit = if store { self.l2.probe_write(line) } else { self.l2.probe(line) };
        if l2_hit {
            if let Some(ev) = self.l1.fill(line, self.class, store) {
                if ev.dirty {
                    self.l2.probe_write(ev.line);
                }
            }
            return Access::Hit(self.l2_lat);
        }
        // L2 miss: allocate an MSHR.
        let waiter = L2Waiter { load: (!store).then_some(id), store };
        match self.mshrs.alloc(line, waiter) {
            MshrOutcome::Primary => {
                self.admit(line);
                self.inject_q.push_back(InjectReq { line, store });
                Access::Miss
            }
            MshrOutcome::Secondary => Access::Miss,
            MshrOutcome::Full => Access::Stall,
        }
    }
}

impl MemPort for TileMem {
    /// A retry that [`TileMem::stalls_again`] settles is counted, not
    /// made: a real one would probe L1 and L2, miss both, and find the
    /// table full, which mutates nothing else. Every other access takes
    /// the full path. A refusal stamps the access with the admission
    /// clock; any other outcome clears its stamp.
    fn access(
        &mut self,
        _now: Cycle,
        line: LineAddr,
        store: bool,
        id: LoadId,
        stamp: &mut StallStamp,
    ) -> Access {
        let outcome = if self.stalls_again(line, *stamp) {
            self.accrue_stalled_probes(1);
            Access::Stall
        } else {
            self.full_access(line, store, id)
        };
        *stamp = match outcome {
            Access::Stall => StallStamp::at(self.admitted),
            Access::Hit(_) | Access::Miss => StallStamp::FRESH,
        };
        outcome
    }

    /// A full MSHR table refuses any line it is not already fetching,
    /// and only a fill ([`TileMem::on_fill`]) frees an entry or changes
    /// what L1 and L2 hold. Loads and stores take the same path. A stamp
    /// [`TileMem::stalls_again`] settles answers without a lookup.
    fn would_stall(&self, line: LineAddr, _store: bool, stamp: StallStamp) -> bool {
        self.stalls_again(line, stamp)
            || (self.mshrs.is_full()
                && !self.mshrs.contains(line)
                && !self.l1.contains(line)
                && !self.l2.contains(line))
    }
}

/// A full tile: the core plus its memory front end and workload.
pub struct Tile {
    /// The out-of-order core.
    pub core: OooCore,
    /// L1/L2/MSHR/pacer front end.
    pub mem: TileMem,
    /// The workload generator driving the core.
    pub workload: Box<dyn Workload>,
}

impl std::fmt::Debug for Tile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tile")
            .field("class", &self.mem.class)
            .field("workload", &self.workload.name())
            .finish_non_exhaustive()
    }
}

impl Tile {
    /// Advances the core one cycle against the tile's memory front end.
    pub fn step_core(&mut self, now: Cycle) {
        self.core.step(now, self.workload.as_mut(), &mut self.mem);
    }

    /// The earliest cycle this tile can change state on its own: the min
    /// of the injection-queue horizon ([`TileMem::next_inject_at`]) and
    /// the core's port-aware horizon ([`OooCore::next_event_with`], so
    /// accesses stalled on a full MSHR table wait for the next fill).
    /// The tile parks on this answer at the end of its step in
    /// [`crate::system::System`]; a too-early answer costs speed only,
    /// never correctness.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut h = pabst_simkit::horizon::Horizon::new();
        h.merge(self.mem.next_inject_at(now));
        h.merge(self.core.next_event_with(now, &self.mem));
        h.get()
    }

    /// Accounts for `cycles` skipped core steps, each of which would have
    /// bumped the ROB-full counter and re-offered every stalled access
    /// (one L1 and one L2 probe miss each). Accesses can only be stalled
    /// while the MSHR table is full; otherwise the core horizon would not
    /// have let the tile skip with any access pending. The injection
    /// path's owed NACKs are separate ([`TileMem::accrue_throttle_skip`]).
    pub fn accrue_skip(&mut self, cycles: u64) {
        self.core.accrue_skip(cycles);
        if self.mem.mshrs.is_full() {
            self.mem.accrue_stalled_probes(self.core.stalled_accesses() * cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pabst_cache::CacheConfig;
    use pabst_cpu::Access;

    fn mem(pacers: Vec<Pacer>) -> TileMem {
        TileMem::new(
            QosId::new(0),
            SetAssocCache::new(CacheConfig { sets: 8, ways: 2 }),
            SetAssocCache::new(CacheConfig { sets: 32, ways: 4 }),
            4,
            4,
            14,
            pacers,
            4,
            ChannelMap::XorFold,
        )
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn miss_allocates_mshr_and_queues_injection() {
        let mut m = mem(Vec::new());
        let r = m.access(0, line(1), false, LoadId(1), &mut StallStamp::default());
        assert_eq!(r, Access::Miss);
        assert_eq!(m.mshrs.len(), 1);
        assert!(m.try_inject(0).is_some(), "primary miss must inject");
        assert!(m.try_inject(0).is_none(), "only one injection per miss");
    }

    #[test]
    fn secondary_miss_does_not_reinject() {
        let mut m = mem(Vec::new());
        assert_eq!(
            m.access(0, line(1), false, LoadId(1), &mut StallStamp::default()),
            Access::Miss
        );
        assert_eq!(
            m.access(0, line(1), false, LoadId(2), &mut StallStamp::default()),
            Access::Miss
        );
        assert_eq!(m.mshrs.len(), 1, "secondary merges");
        let _ = m.try_inject(0);
        assert!(m.try_inject(0).is_none());
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut m = mem(Vec::new());
        for i in 0..4 {
            assert_eq!(
                m.access(0, line(i * 64), false, LoadId(i), &mut StallStamp::default()),
                Access::Miss
            );
        }
        assert_eq!(
            m.access(0, line(999), false, LoadId(9), &mut StallStamp::default()),
            Access::Stall
        );
    }

    #[test]
    fn fill_wakes_all_waiters_and_hits_after() {
        let mut m = mem(Vec::new());
        let _ = m.access(0, line(5), false, LoadId(1), &mut StallStamp::default());
        let _ = m.access(0, line(5), false, LoadId(2), &mut StallStamp::default());
        let waiters = m.on_fill(line(5));
        assert_eq!(waiters.len(), 2);
        // Now a hit in L1 (fast path).
        assert_eq!(
            m.access(1, line(5), false, LoadId(3), &mut StallStamp::default()),
            Access::Hit(4)
        );
    }

    #[test]
    fn store_miss_fills_dirty_and_later_evicts_as_writeback() {
        let mut m = mem(Vec::new());
        assert_eq!(m.access(0, line(7), true, LoadId(1), &mut StallStamp::default()), Access::Miss);
        let w = m.on_fill(line(7));
        assert!(w[0].store);
        // Thrash the L2 set containing line 7 to force its eviction
        // (L2 has 32 sets, 4 ways: lines 7+32k share its set; the L1
        // eviction path may refresh line 7's recency, so overfill).
        let mut wbs = Vec::new();
        for k in 1..=8 {
            let l = line(7 + 32 * k);
            let _ = m.access(0, l, false, LoadId(10 + k), &mut StallStamp::default());
            m.on_fill(l);
            while let Some(wb) = m.pop_l2_writeback() {
                wbs.push(wb);
            }
        }
        assert!(wbs.contains(&line(7)), "dirty victim must write back, got {wbs:?}");
    }

    #[test]
    fn pacer_gates_injection() {
        let mut m = mem(vec![Pacer::with_burst(1000, 1)]);
        let _ = m.access(0, line(1), false, LoadId(1), &mut StallStamp::default());
        let _ = m.access(0, line(2), false, LoadId(2), &mut StallStamp::default());
        assert!(m.try_inject(0).is_some(), "first injection rides initial credit");
        assert!(m.try_inject(1).is_none(), "second is paced");
        assert!(m.try_inject(1000).is_some(), "period elapsed");
    }

    #[test]
    fn next_inject_at_tracks_the_head_pacer() {
        let mut m = mem(vec![Pacer::with_burst(1000, 1)]);
        assert_eq!(m.next_inject_at(5), None, "empty queue has no horizon");
        let _ = m.access(0, line(1), false, LoadId(1), &mut StallStamp::default());
        let _ = m.access(0, line(2), false, LoadId(2), &mut StallStamp::default());
        assert_eq!(m.next_inject_at(0), Some(0), "initial credit issues now");
        assert!(m.try_inject(0).is_some());
        assert_eq!(m.next_inject_at(1), Some(1000), "head NACKed until the period elapses");

        // Unpaced tiles can always inject.
        let mut free = mem(Vec::new());
        let _ = free.access(0, line(3), false, LoadId(3), &mut StallStamp::default());
        assert_eq!(free.next_inject_at(7), Some(7));
    }

    #[test]
    fn accrued_throttle_skip_matches_naive_nack_loop() {
        let mut naive = mem(vec![Pacer::with_burst(100, 1)]);
        let mut skipped = mem(vec![Pacer::with_burst(100, 1)]);
        for m in [&mut naive, &mut skipped] {
            let _ = m.access(0, line(1), false, LoadId(1), &mut StallStamp::default());
            let _ = m.access(0, line(2), false, LoadId(2), &mut StallStamp::default());
            assert!(m.try_inject(0).is_some());
        }
        for now in 1..100 {
            assert!(naive.try_inject(now).is_none());
        }
        skipped.accrue_throttle_skip(99);
        assert_eq!(naive.pacers(), skipped.pacers());
        assert!(naive.try_inject(100).is_some());
        assert!(skipped.try_inject(100).is_some());
        assert_eq!(naive.pacers(), skipped.pacers());
        // An idle tile accrues nothing.
        let mut idle = mem(vec![Pacer::new(100)]);
        idle.accrue_throttle_skip(50);
        assert_eq!(idle.pacers()[0].throttled(), 0);
    }

    #[test]
    fn settlement_refunds_issue_time_charge_not_current_period() {
        // Issue under a 100-cycle period, reprogram to 10 mid-flight, then
        // settle as a shared hit: the refund is the 100 cycles actually
        // charged, re-clamped so credit cannot exceed the new burst window.
        let mut m = mem(vec![Pacer::with_burst(100, 2)]);
        let _ = m.access(0, line(1), false, LoadId(1), &mut StallStamp::default());
        assert!(m.try_inject(0).is_some());
        m.pacers_mut()[0].set_period(10, 50);
        m.settle_response(line(1), true, false, 50);
        let p = &m.pacers()[0];
        assert!(
            p.credit_at(50) <= p.burst_window(),
            "refund pushed credit {} past window {}",
            p.credit_at(50),
            p.burst_window()
        );

        // Writeback flag: the extra charge is likewise the issue-time 100,
        // not the current 10.
        let mut m = mem(vec![Pacer::with_burst(100, 2)]);
        let _ = m.access(0, line(2), false, LoadId(1), &mut StallStamp::default());
        assert!(m.try_inject(0).is_some()); // c_next = 100
        m.settle_response(line(2), false, true, 0); // c_next = 200
        assert_eq!(m.pacers()[0].credit_at(200), 0, "extra charge holds until cycle 200");
    }

    #[test]
    fn l1_hit_is_fastest_path() {
        let mut m = mem(Vec::new());
        let _ = m.access(0, line(3), false, LoadId(1), &mut StallStamp::default());
        m.on_fill(line(3));
        assert_eq!(
            m.access(1, line(3), false, LoadId(2), &mut StallStamp::default()),
            Access::Hit(4)
        );
        // A line only in L2 (L1 victimized) returns the L2 latency.
        // Fill enough lines mapping to L1 set of line 3 (8 sets, 2 ways).
        for k in 1..=2 {
            let l = line(3 + 8 * k);
            let _ = m.access(2, l, false, LoadId(10 + k), &mut StallStamp::default());
            m.on_fill(l);
        }
        assert_eq!(
            m.access(3, line(3), false, LoadId(5), &mut StallStamp::default()),
            Access::Hit(14)
        );
    }

    #[test]
    fn l2_stats_track_hits_and_misses() {
        let mut m = mem(Vec::new());
        let _ = m.access(0, line(1), false, LoadId(1), &mut StallStamp::default());
        m.on_fill(line(1));
        let (h0, mi0) = m.l2_stats();
        // L1 was filled too, so probe L2 via an L1-missing line.
        // different L1 set? ensure miss
        let _ = m.access(1, line(1 + 8), false, LoadId(2), &mut StallStamp::default());
        let (h1, mi1) = m.l2_stats();
        assert!(h1 + mi1 > h0 + mi0, "L2 must have been probed");
    }

    /// Alternating compute, stores and independent loads to fresh lines.
    struct StoreLoad {
        n: u64,
    }
    impl Workload for StoreLoad {
        fn next_op(&mut self) -> pabst_cpu::Op {
            use pabst_cpu::Op;
            self.n += 1;
            let addr = pabst_cache::Addr::new(self.n * 64);
            match self.n % 3 {
                0 => Op::Compute(2),
                1 => Op::Store { addr },
                _ => Op::Load { addr, id: LoadId(self.n), dep: None },
            }
        }
        fn name(&self) -> &str {
            "store-load"
        }
    }

    fn tile() -> Tile {
        let core = OooCore::new(pabst_cpu::CoreConfig { rob: 32, width: 4, max_outstanding: 8 });
        Tile { core, mem: mem(Vec::new()), workload: Box::new(StoreLoad { n: 0 }) }
    }

    /// Everything a parked window could get wrong: both caches (LRU clock
    /// and counters included), the MSHR table and the whole core.
    fn snapshot(t: &Tile) -> (String, String, [u64; 6]) {
        let s = t.core.stats();
        let (hits, misses) = t.mem.l2_stats();
        (
            format!("{:?}", t.mem),
            format!("{:?}", t.core),
            [s.retired, s.loads, s.stores, s.rob_full_cycles, hits, misses],
        )
    }

    /// Delivers a fill to the tile as the SoC does.
    fn fill(t: &mut Tile, line: LineAddr, now: Cycle) {
        let loads: Vec<LoadId> = t.mem.on_fill(line).iter().filter_map(|w| w.load).collect();
        for id in loads {
            t.core.on_fill(now, id);
            t.core.release_slot();
        }
    }

    #[test]
    fn stall_parked_tile_accrues_what_naive_steps_would_have_done() {
        let (mut naive, mut parked) = (tile(), tile());
        for now in 0..30 {
            for t in [&mut naive, &mut parked] {
                t.step_core(now);
                // Hand the misses to the (unpaced) network.
                while t.mem.try_inject(now).is_some() {}
            }
        }
        // Four misses hold the whole MSHR table; every later access
        // stalls, loads (below the MLP bound) and stores alike.
        assert!(parked.mem.mshrs.is_full());
        assert!(parked.core.stalled_accesses() > 0);
        assert_eq!(parked.next_event(30), None, "a stalled tile waits for its next fill");
        for now in 30..530 {
            naive.step_core(now);
        }
        parked.accrue_skip(500);
        assert_eq!(snapshot(&naive), snapshot(&parked));

        // The fill wakes the tile; both go on identically.
        let first = LineAddr::new(1);
        fill(&mut naive, first, 530);
        fill(&mut parked, first, 530);
        assert_eq!(parked.next_event(530), Some(530));
        for now in 530..600 {
            naive.step_core(now);
            parked.step_core(now);
        }
        assert_eq!(snapshot(&naive), snapshot(&parked));
    }

    /// Forwards to [`TileMem`] but never passes the core's stamp on, so
    /// every access takes the full path: the reference the stamp fast
    /// path is checked against.
    struct FullPath<'a>(&'a mut TileMem);

    impl MemPort for FullPath<'_> {
        fn access(
            &mut self,
            now: Cycle,
            line: LineAddr,
            store: bool,
            id: LoadId,
            stamp: &mut StallStamp,
        ) -> Access {
            *stamp = StallStamp::FRESH;
            self.0.access(now, line, store, id, stamp)
        }

        fn would_stall(&self, line: LineAddr, store: bool, _stamp: StallStamp) -> bool {
            self.0.would_stall(line, store, StallStamp::FRESH)
        }
    }

    /// How the stamped retries of a run went.
    #[derive(Debug, Default)]
    struct StampCases {
        /// Settled by the stamp without a lookup.
        fast: u64,
        /// Line admitted since the refusal: found in the ring, and the
        /// full path merged it as a secondary miss.
        ring_to_secondary: u64,
        /// More than `RECENT` admissions since the refusal: full path.
        overflow: u64,
    }

    /// Forwards to [`TileMem`] with the core's stamps, sorting each
    /// stamped retry on a full table into a [`StampCases`] bucket.
    struct Observed<'a> {
        mem: &'a mut TileMem,
        cases: &'a mut StampCases,
    }

    impl MemPort for Observed<'_> {
        fn access(
            &mut self,
            now: Cycle,
            line: LineAddr,
            store: bool,
            id: LoadId,
            stamp: &mut StallStamp,
        ) -> Access {
            let m = &*self.mem;
            let since = stamp.refused_at().filter(|_| m.mshrs.is_full()).map(|at| m.admitted - at);
            let fast = m.stalls_again(line, *stamp);
            let outcome = self.mem.access(now, line, store, id, stamp);
            match since {
                Some(n) if n > RECENT as u64 => self.cases.overflow += 1,
                Some(_) if fast => self.cases.fast += 1,
                Some(_) if outcome == Access::Miss => self.cases.ring_to_secondary += 1,
                _ => {}
            }
            outcome
        }

        fn would_stall(&self, line: LineAddr, store: bool, stamp: StallStamp) -> bool {
            self.mem.would_stall(line, store, stamp)
        }
    }

    /// A seeded mix of compute, stores, independent loads and loads that
    /// depend on the previous load, half of them to a pool of eight hot
    /// lines (hits, merges and re-admissions), half to fresh lines.
    struct Mix {
        rng: pabst_simkit::rng::SimRng,
        fresh: u64,
        last_load: u64,
    }

    impl Workload for Mix {
        fn next_op(&mut self) -> pabst_cpu::Op {
            use pabst_cpu::Op;
            let line = if self.rng.gen_bool(0.5) {
                self.rng.gen_range(0..8)
            } else {
                self.fresh += 1;
                1000 + self.fresh
            };
            let addr = pabst_cache::Addr::new(line * 64);
            match self.rng.gen_range(0..10) {
                0 | 1 => Op::Compute(self.rng.gen_range(1..4) as u32),
                2..=5 => Op::Store { addr },
                k => {
                    self.last_load += 1;
                    let dep = (k == 9 && self.last_load > 1).then(|| LoadId(self.last_load - 1));
                    Op::Load { addr, id: LoadId(self.last_load), dep }
                }
            }
        }
        fn name(&self) -> &str {
            "mix"
        }
    }

    /// A tile with a two-entry MSHR table running [`Mix`] from `seed`.
    /// Even seeds allow one outstanding load: Ready loads then sit out
    /// whole runs of store admissions, which is what overflows the ring.
    fn mix_tile(seed: u64) -> Tile {
        let max_outstanding = if seed.is_multiple_of(2) { 1 } else { 4 };
        let core = OooCore::new(pabst_cpu::CoreConfig { rob: 32, width: 4, max_outstanding });
        let mem = TileMem::new(
            QosId::new(0),
            SetAssocCache::new(CacheConfig { sets: 4, ways: 2 }),
            SetAssocCache::new(CacheConfig { sets: 8, ways: 2 }),
            2,
            4,
            14,
            Vec::new(),
            4,
            ChannelMap::XorFold,
        );
        let rng = pabst_simkit::rng::SimRng::seed_from_u64(seed);
        Tile { core, mem, workload: Box::new(Mix { rng, fresh: 0, last_load: 0 }) }
    }

    #[test]
    fn stamped_retries_match_the_full_path_cycle_by_cycle() {
        let mut cases = StampCases::default();
        for seed in 0..8 {
            let (mut stamped, mut full) = (mix_tile(seed), mix_tile(seed));
            let mut delays = pabst_simkit::rng::SimRng::seed_from_u64(seed ^ 0xF111);
            let mut fills: Vec<(Cycle, LineAddr)> = Vec::new();
            for now in 0..4_000 {
                // Deliver due fills to both tiles, plus now and then a
                // fill of a hot line nobody asked for: an admission the
                // table never tracked.
                let mut due: Vec<LineAddr> =
                    fills.iter().filter(|f| f.0 == now).map(|f| f.1).collect();
                fills.retain(|f| f.0 != now);
                if delays.gen_range(0..50) == 0 {
                    due.push(LineAddr::new(delays.gen_range(0..8)));
                }
                for line in due {
                    fill(&mut stamped, line, now);
                    fill(&mut full, line, now);
                }
                for t in [&mut stamped, &mut full] {
                    while t.mem.pop_l2_writeback().is_some() {}
                }
                // Both tiles must inject the same misses.
                while let Some(req) = stamped.mem.try_inject(now) {
                    let twin = full.mem.try_inject(now).map(|r| r.line);
                    assert_eq!(twin, Some(req.line), "seed {seed} cycle {now}");
                    fills.push((now + delays.gen_range(1..60), req.line));
                }
                assert!(full.mem.try_inject(now).is_none(), "seed {seed} cycle {now}");

                let horizon = stamped.core.next_event_with(now, &stamped.mem);
                let reference = full.core.next_event_with(now, &FullPath(&mut full.mem));
                assert_eq!(horizon, reference, "seed {seed} cycle {now}");
                let mut port = Observed { mem: &mut stamped.mem, cases: &mut cases };
                stamped.core.step(now, stamped.workload.as_mut(), &mut port);
                full.core.step(now, full.workload.as_mut(), &mut FullPath(&mut full.mem));
                assert_eq!(snapshot(&stamped), snapshot(&full), "seed {seed} cycle {now}");
            }
        }
        assert!(cases.fast > 0, "{cases:?}");
        assert!(cases.ring_to_secondary > 0, "{cases:?}");
        assert!(cases.overflow > 0, "{cases:?}");
    }
}
