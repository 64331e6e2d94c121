//! The out-of-order core: finite ROB, dispatch/retire width, dependent
//! loads, bounded memory-level parallelism.
//!
//! Implementation notes: load state lives inline in the ROB entries
//! (indexed by a stable sequence number), and an *attention list* tracks
//! only the entries that still need issue work. An entry on that list
//! that cannot move still costs O(1) per visit, never a search: a
//! dependent load names its producer by sequence number, and an access
//! the port refused carries a [`StallStamp`] from which the port settles
//! a certain re-refusal without probing (the simulator spends most of its
//! time here).

use std::collections::{BTreeMap, VecDeque};

use pabst_cache::LineAddr;
use pabst_simkit::Cycle;

use crate::ops::{LoadId, Op, Workload};

/// Result of offering a memory access to the hierarchy this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Served by a cache with a known latency: data ready at `now + lat`.
    Hit(u64),
    /// Missed; a fill will be delivered later via [`OooCore::on_fill`].
    Miss,
    /// No resource available (MSHR full, port busy): retry next cycle.
    Stall,
}

/// When a pending access was last refused, on its port's own clock.
///
/// Each unissued load or store carries one. The core only stores it and
/// hands it back to the port with every offer of that access: the port
/// writes it in [`MemPort::access`] and reads it in both calls, so a port
/// can tell that nothing which could let a refused access through has
/// happened since, and answer without probing. [`StallStamp::FRESH`]
/// (an access never refused) always takes the port's full path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallStamp(u64);

impl StallStamp {
    /// The stamp of an access the port has not refused.
    pub const FRESH: Self = Self(u64::MAX);

    /// A refusal at `clock` on the port's clock, which must stay below
    /// `u64::MAX`.
    pub fn at(clock: u64) -> Self {
        debug_assert!(clock != u64::MAX, "stall clock overflow");
        Self(clock)
    }

    /// The port clock of the last refusal; `None` when fresh.
    pub fn refused_at(self) -> Option<u64> {
        (self != Self::FRESH).then_some(self.0)
    }
}

impl Default for StallStamp {
    fn default() -> Self {
        Self::FRESH
    }
}

/// The memory hierarchy as seen by one core. Implemented by the SoC
/// wiring (L1 → L2 → pacer → network → …).
pub trait MemPort {
    /// Offers a load/store of `line` tagged `id`. Stores use the same path
    /// (write-allocate RFO). `stamp` is the access's own [`StallStamp`]:
    /// a port that reads it must update it on every call, and may settle
    /// a retry the stamp proves will stall again by counting the effects
    /// a real retry has, without repeating its lookups. Ports that keep
    /// no stamps ignore it.
    fn access(
        &mut self,
        now: Cycle,
        line: LineAddr,
        store: bool,
        id: LoadId,
        stamp: &mut StallStamp,
    ) -> Access;

    /// True when [`MemPort::access`] on `line` with `stamp` would
    /// certainly return [`Access::Stall`] now, and keep doing so until
    /// the port's owner delivers a fill. An implementation answering
    /// `true` must be able to batch-account whatever a stalled access
    /// mutates (see [`OooCore::stalled_accesses`]). The default `false`
    /// is always sound: it only keeps [`OooCore::next_event_with`]
    /// conservative.
    fn would_stall(&self, _line: LineAddr, _store: bool, _stamp: StallStamp) -> bool {
        false
    }
}

/// A port that knows nothing about its stalls: the horizon of
/// [`OooCore::next_event`]. Its `access` is never called.
struct Opaque;

impl MemPort for Opaque {
    fn access(&mut self, _: Cycle, _: LineAddr, _: bool, _: LoadId, _: &mut StallStamp) -> Access {
        Access::Stall
    }
}

/// Core structural parameters (paper Table III class of machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Re-order buffer capacity in instructions.
    pub rob: u32,
    /// Dispatch and retire width, instructions per cycle.
    pub width: u32,
    /// Maximum loads outstanding to the memory system (LSQ/L1-MSHR bound).
    pub max_outstanding: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self { rob: 192, width: 4, max_outstanding: 16 }
    }
}

/// Retirement-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Loads issued to the memory port.
    pub loads: u64,
    /// Stores issued to the memory port.
    pub stores: u64,
    /// Cycles the core could not dispatch because the ROB was full.
    pub rob_full_cycles: u64,
}

impl CoreStats {
    /// Instructions per cycle over `cycles`.
    pub fn ipc(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.retired as f64 / cycles as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadState {
    /// Waiting for its address dependence to resolve: the producer load's
    /// sequence number, resolved at dispatch.
    WaitDep(u64),
    /// Address known; not yet accepted by the memory port.
    Ready,
    /// In the memory system.
    Issued,
    /// Data available from cycle `.0`.
    Done(Cycle),
}

#[derive(Debug)]
enum Entry {
    /// Aggregated ALU work: `left` instructions still to retire.
    Insts {
        left: u32,
    },
    Load {
        id: LoadId,
        line: LineAddr,
        state: LoadState,
        stamp: StallStamp,
    },
    /// A store waiting to be accepted by the port (`issued` false) or
    /// retired (`issued` true).
    Store {
        line: LineAddr,
        issued: bool,
        stamp: StallStamp,
    },
    Marker {
        tag: u64,
    },
}

/// A cycle-approximate out-of-order core.
///
/// Call [`OooCore::step`] once per cycle with the memory port; deliver
/// fills with [`OooCore::on_fill`]; read transaction timestamps with
/// [`OooCore::take_markers`].
#[derive(Debug)]
pub struct OooCore {
    cfg: CoreConfig,
    rob: VecDeque<Entry>,
    /// Sequence number of `rob[0]`; entry `seq` lives at `seq - head_seq`.
    head_seq: u64,
    rob_insts: u32,
    /// Load id → entry sequence number, for fills and for resolving a
    /// dependent load's producer at dispatch. A BTreeMap so any
    /// iteration is id-ordered, never hasher-ordered (simlint L1:
    /// simulation state must be deterministic).
    load_pos: BTreeMap<LoadId, u64>,
    /// Entry seqs that still need issue-stage work.
    attention: Vec<u64>,
    /// Recycled backing storage for the issue stage's kept-entry list, so
    /// the per-cycle filter does not allocate (the simulator spends most
    /// of its time here).
    attention_scratch: Vec<u64>,
    /// Unissued stores currently on the attention list. Stores are the
    /// only entries that can issue while `outstanding` is at its bound, so
    /// this lets the issue stage stop scanning the moment neither loads
    /// nor stores can make progress.
    attention_stores: usize,
    outstanding: usize,
    stats: CoreStats,
    markers: Vec<(u64, Cycle)>,
    /// Dispatch carry-over: an op that did not fit this cycle.
    pending_op: Option<Op>,
}

impl OooCore {
    /// Creates an idle core.
    ///
    /// # Panics
    ///
    /// Panics when any structural parameter is zero.
    pub fn new(cfg: CoreConfig) -> Self {
        assert!(cfg.rob > 0 && cfg.width > 0 && cfg.max_outstanding > 0, "zero-sized core");
        Self {
            cfg,
            rob: VecDeque::new(),
            head_seq: 0,
            rob_insts: 0,
            load_pos: BTreeMap::new(),
            attention: Vec::new(),
            attention_scratch: Vec::new(),
            attention_stores: 0,
            outstanding: 0,
            stats: CoreStats::default(),
            markers: Vec::new(),
            pending_op: None,
        }
    }

    /// Advances one cycle: retire → issue → dispatch.
    pub fn step(&mut self, now: Cycle, workload: &mut dyn Workload, port: &mut dyn MemPort) {
        self.retire(now);
        self.issue(now, port);
        self.dispatch(now, workload);
    }

    /// Delivers the fill for a previously missed load.
    pub fn on_fill(&mut self, now: Cycle, id: LoadId) {
        if let Some(&seq) = self.load_pos.get(&id) {
            if let Some(Entry::Load { state, .. }) = self.entry_mut(seq) {
                debug_assert_eq!(*state, LoadState::Issued, "fill for unissued load");
                *state = LoadState::Done(now);
            }
        }
    }

    /// Core statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Drains recorded `(marker_tag, retire_cycle)` pairs.
    pub fn take_markers(&mut self) -> Vec<(u64, Cycle)> {
        std::mem::take(&mut self.markers)
    }

    /// True when markers are waiting to be drained; lets the caller skip
    /// [`OooCore::take_markers`] on the (overwhelmingly common) empty case.
    pub fn has_markers(&self) -> bool {
        !self.markers.is_empty()
    }

    /// Loads currently outstanding in the memory system.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Releases an outstanding-load slot; the SoC calls this when a miss
    /// completes (paired with [`OooCore::on_fill`]).
    pub fn release_slot(&mut self) {
        debug_assert!(self.outstanding > 0, "slot release without outstanding load");
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Earliest cycle at which stepping this core could change observable
    /// state, or `None` when the core is wedged on external input (an
    /// outstanding miss that only [`OooCore::on_fill`] can resolve).
    ///
    /// The answer follows the horizon contract (`docs/PERFORMANCE.md`):
    /// it may be conservative (report `now` when a step would in fact be
    /// a no-op) but never optimistic. Each pipeline stage is inspected
    /// with the same predicates [`OooCore::step`] uses:
    ///
    /// * dispatch acts every cycle unless a carried-over op still does
    ///   not fit the ROB (and the blocked cycle itself is observable —
    ///   see [`OooCore::accrue_skip`]);
    /// * retire acts when the head is retirable now, and schedules a
    ///   timed wake when the head load's data has a known arrival cycle;
    /// * issue acts when any attention-list entry could issue or resolve
    ///   a dependence now, with timed wakes for producers whose data
    ///   arrival is already scheduled.
    ///
    /// Every pending port access counts as a state change here; see
    /// [`OooCore::next_event_with`] for the port-aware horizon.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.next_event_with(now, &Opaque)
    }

    /// [`OooCore::next_event`] with the issue stage's port accesses
    /// judged by `port`: an access that [`MemPort::would_stall`] changes
    /// nothing until a fill arrives, so a core whose every pending access
    /// would stall may be skipped until its next fill or timed wake. The
    /// probes those stalled retries would have made are then owed, one
    /// per [`OooCore::stalled_accesses`] per skipped cycle.
    pub fn next_event_with<P: MemPort + ?Sized>(&self, now: Cycle, port: &P) -> Option<Cycle> {
        use pabst_simkit::horizon::Horizon;

        // Undrained markers: the SoC reads them every stepped cycle, so
        // they must be handed over before any window is skipped.
        if !self.markers.is_empty() {
            return Some(now);
        }
        // Dispatch: with no carried-over op the next workload op is
        // consumed (a mutation even if it then fails to fit); a carried
        // op that fits dispatches immediately.
        match &self.pending_op {
            None => return Some(now),
            Some(op) => {
                if self.rob_insts + op.insts() <= self.cfg.rob {
                    return Some(now);
                }
            }
        }
        let mut h = Horizon::new();
        // Retire: only the head can block, and only a head load with a
        // scheduled completion contributes a timed wake.
        match self.rob.front() {
            None | Some(Entry::Store { issued: false, .. }) => {}
            Some(Entry::Insts { .. } | Entry::Marker { .. }) => return Some(now),
            Some(Entry::Store { issued: true, .. }) => return Some(now),
            Some(Entry::Load { state: LoadState::Done(at), .. }) => {
                if *at <= now {
                    return Some(now);
                }
                h.add(*at);
            }
            Some(Entry::Load { .. }) => {}
        }
        // Issue: mirror the issue stage's own early-exit — when loads
        // are MLP-bound and no store is pending, the whole list is inert.
        let mlp_bound = self.outstanding >= self.cfg.max_outstanding && self.attention_stores == 0;
        if !self.attention.is_empty() && !mlp_bound {
            for &seq in &self.attention {
                let Some(idx) = seq.checked_sub(self.head_seq) else { return Some(now) };
                let Some(entry) = self.rob.get(idx as usize) else { return Some(now) };
                match entry {
                    Entry::Load { state, line, stamp, .. } => match state {
                        LoadState::WaitDep(pseq) => match self.dep_done_at(*pseq) {
                            // Producer done (or retired): resolving the
                            // dependence is itself a state change.
                            Some(at) if at <= now => return Some(now),
                            Some(at) => h.add(at),
                            // Producer still in flight: it (or the
                            // memory system) owns the wake.
                            None => {}
                        },
                        LoadState::Ready => {
                            if self.outstanding < self.cfg.max_outstanding
                                && !port.would_stall(*line, false, *stamp)
                            {
                                // The port access could hit or miss, and
                                // either mutates something.
                                return Some(now);
                            }
                        }
                        // Issued/Done entries leave the attention list
                        // when they transition; seeing one here means an
                        // assumption broke — refuse to skip over it.
                        LoadState::Issued | LoadState::Done(_) => return Some(now),
                    },
                    Entry::Store { line, issued, stamp } => {
                        if !*issued && !port.would_stall(*line, true, *stamp) {
                            return Some(now);
                        }
                    }
                    _ => return Some(now),
                }
            }
        }
        h.get()
    }

    /// The number of port accesses one [`OooCore::step`] makes while
    /// every one of them stalls: each unissued store, plus each Ready
    /// load when the MLP bound leaves room to issue one. (A stalled step
    /// issues nothing, so the per-cycle issue cap never cuts the scan
    /// short, and the MLP-bound early exit fires only when no store is
    /// pending, i.e. when the count is zero.)
    pub fn stalled_accesses(&self) -> u64 {
        let stores = self.attention_stores as u64;
        if self.outstanding >= self.cfg.max_outstanding {
            return stores;
        }
        let ready = self.attention.iter().filter(|&&seq| {
            let entry = seq.checked_sub(self.head_seq).and_then(|i| self.rob.get(i as usize));
            matches!(entry, Some(Entry::Load { state: LoadState::Ready, .. }))
        });
        stores + ready.count() as u64
    }

    /// Accounts for `cycles` skipped quiescent cycles: a quiescent core
    /// by construction has a carried-over op that does not fit the ROB
    /// ([`OooCore::next_event`] returns `now` otherwise), and naive
    /// stepping would have charged one `rob_full_cycles` per cycle.
    pub fn accrue_skip(&mut self, cycles: u64) {
        debug_assert!(
            self.pending_op.is_some(),
            "skip accrual on a core whose dispatch is not blocked"
        );
        self.stats.rob_full_cycles += cycles;
    }

    /// When the load at sequence number `pseq` has its data: `Some(0)`
    /// once it retired, its completion cycle once `Done`, `None` while
    /// it is still waiting or in flight.
    fn dep_done_at(&self, pseq: u64) -> Option<Cycle> {
        let Some(pidx) = pseq.checked_sub(self.head_seq) else { return Some(0) };
        match self.rob.get(pidx as usize) {
            Some(Entry::Load { state: LoadState::Done(at), .. }) => Some(*at),
            _ => None,
        }
    }

    fn entry_mut(&mut self, seq: u64) -> Option<&mut Entry> {
        let idx = seq.checked_sub(self.head_seq)? as usize;
        self.rob.get_mut(idx)
    }

    fn retire(&mut self, now: Cycle) {
        let mut budget = self.cfg.width;
        while budget > 0 {
            let Some(head) = self.rob.front_mut() else { break };
            match head {
                Entry::Insts { left } => {
                    let n = (*left).min(budget);
                    *left -= n;
                    budget -= n;
                    self.rob_insts -= n;
                    self.stats.retired += u64::from(n);
                    if *left != 0 {
                        break;
                    }
                }
                Entry::Load { id, state, .. } => {
                    if !matches!(state, LoadState::Done(at) if *at <= now) {
                        break;
                    }
                    self.load_pos.remove(id);
                    self.rob_insts -= 1;
                    self.stats.retired += 1;
                    budget -= 1;
                }
                Entry::Store { issued, .. } => {
                    if !*issued {
                        break;
                    }
                    self.rob_insts -= 1;
                    self.stats.retired += 1;
                    budget -= 1;
                }
                Entry::Marker { tag } => {
                    // Markers are free: don't consume retire bandwidth.
                    self.markers.push((*tag, now));
                }
            }
            self.rob.pop_front();
            self.head_seq += 1;
        }
    }

    fn issue(&mut self, now: Cycle, port: &mut dyn MemPort) {
        if self.attention.is_empty() {
            return;
        }
        let mut issued_this_cycle = 0u32;
        let mut kept = std::mem::take(&mut self.attention_scratch);
        kept.clear();
        let attention = std::mem::take(&mut self.attention);
        for (pos, &seq) in attention.iter().enumerate() {
            if issued_this_cycle >= 2
                || (self.outstanding >= self.cfg.max_outstanding && self.attention_stores == 0)
            {
                // No further entry can issue this cycle: the per-cycle cap
                // is exhausted, or loads are MLP-bound and no store is
                // pending anywhere on the list. Nothing in the tail can
                // change observable state (a resolvable WaitDep is
                // indistinguishable from Ready until it can issue), so
                // keep it wholesale.
                kept.extend_from_slice(&attention[pos..]);
                break;
            }
            let Some(idx) = seq.checked_sub(self.head_seq) else { continue };
            let idx = idx as usize;
            if let Some(Entry::Store { line, issued, stamp }) = self.rob.get_mut(idx) {
                debug_assert!(!*issued, "issued stores leave the attention list");
                if port.access(now, *line, true, LoadId(u64::MAX), stamp) == Access::Stall {
                    kept.push(seq);
                } else {
                    // Store-buffer semantics: retire on issue; the
                    // hierarchy's MSHRs bound the fill.
                    *issued = true;
                    self.stats.stores += 1;
                    self.attention_stores -= 1;
                    issued_this_cycle += 1;
                }
                continue;
            }
            // Resolve an address dependence: the producer is done when its
            // entry says so, or it already retired.
            if let Some(Entry::Load { state: LoadState::WaitDep(pseq), .. }) = self.rob.get(idx) {
                if self.dep_done_at(*pseq).is_none_or(|at| at > now) {
                    kept.push(seq);
                    continue;
                }
            }
            let Some(Entry::Load { id, line, state, stamp }) = self.rob.get_mut(idx) else {
                continue;
            };
            if let LoadState::WaitDep(_) = state {
                *state = LoadState::Ready;
            }
            // Try to issue a Ready load.
            if self.outstanding >= self.cfg.max_outstanding {
                kept.push(seq);
                continue;
            }
            match port.access(now, *line, false, *id, stamp) {
                Access::Hit(lat) => *state = LoadState::Done(now + lat),
                Access::Miss => {
                    *state = LoadState::Issued;
                    self.outstanding += 1;
                }
                Access::Stall => {
                    kept.push(seq);
                    continue;
                }
            }
            self.stats.loads += 1;
            issued_this_cycle += 1;
        }
        self.attention = kept;
        // Recycle the drained list's capacity for the next cycle's `kept`.
        let mut drained = attention;
        drained.clear();
        self.attention_scratch = drained;
    }

    fn dispatch(&mut self, _now: Cycle, workload: &mut dyn Workload) {
        let mut budget = self.cfg.width;
        while budget > 0 {
            let op = match self.pending_op.take() {
                Some(op) => op,
                None => workload.next_op(),
            };
            if self.rob_insts + op.insts() > self.cfg.rob {
                self.pending_op = Some(op);
                self.stats.rob_full_cycles += 1;
                break;
            }
            let seq = self.head_seq + self.rob.len() as u64;
            match op {
                Op::Compute(n) => {
                    if n > 0 {
                        self.rob.push_back(Entry::Insts { left: n });
                        self.rob_insts += n;
                    }
                    // Dispatching n instructions costs n slots of width
                    // (overflow beyond this cycle's budget is forgiven — a
                    // half-cycle approximation).
                    budget = budget.saturating_sub(n.max(1));
                }
                Op::Load { addr, id, dep } => {
                    let state = match dep.and_then(|d| self.load_pos.get(&d)) {
                        Some(&pseq) => LoadState::WaitDep(pseq),
                        None => LoadState::Ready,
                    };
                    self.load_pos.insert(id, seq);
                    let stamp = StallStamp::FRESH;
                    self.rob.push_back(Entry::Load { id, line: addr.line(), state, stamp });
                    self.rob_insts += 1;
                    self.attention.push(seq);
                    budget -= 1;
                }
                Op::Store { addr } => {
                    let stamp = StallStamp::FRESH;
                    self.rob.push_back(Entry::Store { line: addr.line(), issued: false, stamp });
                    self.rob_insts += 1;
                    self.attention.push(seq);
                    self.attention_stores += 1;
                    budget -= 1;
                }
                Op::Marker(tag) => {
                    self.rob.push_back(Entry::Marker { tag });
                    // Free.
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pabst_cache::Addr;

    /// Memory that always hits with a fixed latency.
    struct FlatMem(u64);
    impl MemPort for FlatMem {
        fn access(
            &mut self,
            _: Cycle,
            _: LineAddr,
            _: bool,
            _: LoadId,
            _: &mut StallStamp,
        ) -> Access {
            Access::Hit(self.0)
        }
    }

    /// Memory that always misses; fills must be delivered manually.
    #[derive(Default)]
    struct MissMem {
        issued: Vec<LoadId>,
    }
    impl MemPort for MissMem {
        fn access(
            &mut self,
            _: Cycle,
            _: LineAddr,
            store: bool,
            id: LoadId,
            _: &mut StallStamp,
        ) -> Access {
            if !store {
                self.issued.push(id);
            }
            Access::Miss
        }
    }

    struct ComputeOnly;
    impl Workload for ComputeOnly {
        fn next_op(&mut self) -> Op {
            Op::Compute(4)
        }
        fn name(&self) -> &str {
            "compute-only"
        }
    }

    /// Independent loads every `gap` instructions.
    struct LoadEvery {
        gap: u32,
        next: u64,
        emitted_load: bool,
    }
    impl Workload for LoadEvery {
        fn next_op(&mut self) -> Op {
            self.emitted_load = !self.emitted_load;
            if self.emitted_load {
                Op::Compute(self.gap)
            } else {
                self.next += 1;
                Op::Load { addr: Addr::new(self.next * 64), id: LoadId(self.next), dep: None }
            }
        }
        fn name(&self) -> &str {
            "load-every"
        }
    }

    /// A single dependent chain: each load depends on the previous.
    struct Chain {
        next: u64,
    }
    impl Workload for Chain {
        fn next_op(&mut self) -> Op {
            self.next += 1;
            Op::Load {
                addr: Addr::new(self.next * 64),
                id: LoadId(self.next),
                dep: if self.next > 1 { Some(LoadId(self.next - 1)) } else { None },
            }
        }
        fn name(&self) -> &str {
            "chain"
        }
    }

    #[test]
    fn compute_only_hits_full_width_ipc() {
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = FlatMem(1);
        let mut wl = ComputeOnly;
        for now in 0..1000 {
            core.step(now, &mut wl, &mut mem);
        }
        let ipc = core.stats().ipc(1000);
        assert!(ipc > 3.5, "compute-bound IPC should approach width 4, got {ipc}");
    }

    #[test]
    fn independent_loads_overlap_misses() {
        // MLP: many misses in flight at once.
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = MissMem::default();
        let mut wl = LoadEvery { gap: 4, next: 0, emitted_load: false };
        for now in 0..50 {
            core.step(now, &mut wl, &mut mem);
        }
        assert!(
            core.outstanding() >= 8,
            "independent loads must overlap, outstanding={}",
            core.outstanding()
        );
    }

    #[test]
    fn outstanding_bounded_by_config() {
        let cfg = CoreConfig { max_outstanding: 3, ..CoreConfig::default() };
        let mut core = OooCore::new(cfg);
        let mut mem = MissMem::default();
        let mut wl = LoadEvery { gap: 0, next: 0, emitted_load: false };
        for now in 0..200 {
            core.step(now, &mut wl, &mut mem);
            assert!(core.outstanding() <= 3);
        }
        assert_eq!(core.outstanding(), 3);
    }

    #[test]
    fn dependent_chain_serializes() {
        // A pure pointer chase has exactly one outstanding miss at a time.
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = MissMem::default();
        let mut wl = Chain { next: 0 };
        for now in 0..100u64 {
            core.step(now, &mut wl, &mut mem);
            assert!(core.outstanding() <= 1, "chain must not overlap misses");
            // Complete any outstanding load after 10 cycles.
            if now % 10 == 0 {
                for id in std::mem::take(&mut mem.issued) {
                    core.on_fill(now, id);
                    core.release_slot();
                }
            }
        }
        assert!(core.stats().loads >= 5, "chain must make forward progress");
    }

    #[test]
    fn rob_fills_and_stalls_dispatch() {
        // All-miss loads with no fills: the ROB must fill and dispatch stop.
        let mut core = OooCore::new(CoreConfig { rob: 32, ..CoreConfig::default() });
        let mut mem = MissMem::default();
        let mut wl = LoadEvery { gap: 1, next: 0, emitted_load: false };
        for now in 0..200 {
            core.step(now, &mut wl, &mut mem);
        }
        assert!(core.stats().rob_full_cycles > 0);
        // Only the compute ops ahead of the first (never-filled) load can
        // retire; everything after is stuck behind it.
        assert!(
            core.stats().retired <= 2,
            "retirement must stall behind the unfilled load, retired={}",
            core.stats().retired
        );
    }

    #[test]
    fn fills_unblock_retirement_in_order() {
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = MissMem::default();
        let mut wl = LoadEvery { gap: 2, next: 0, emitted_load: false };
        for now in 0..20 {
            core.step(now, &mut wl, &mut mem);
        }
        let before = core.stats().retired;
        // Fill everything issued so far.
        for id in std::mem::take(&mut mem.issued) {
            core.on_fill(20, id);
            core.release_slot();
        }
        for now in 21..60 {
            core.step(now, &mut wl, &mut mem);
        }
        assert!(core.stats().retired > before + 10);
    }

    #[test]
    fn markers_record_retire_cycle() {
        struct Marked {
            sent: bool,
        }
        impl Workload for Marked {
            fn next_op(&mut self) -> Op {
                if !self.sent {
                    self.sent = true;
                    Op::Marker(42)
                } else {
                    Op::Compute(4)
                }
            }
            fn name(&self) -> &str {
                "marked"
            }
        }
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = FlatMem(1);
        let mut wl = Marked { sent: false };
        for now in 0..10 {
            core.step(now, &mut wl, &mut mem);
        }
        let markers = core.take_markers();
        assert_eq!(markers.len(), 1);
        assert_eq!(markers[0].0, 42);
        assert!(core.take_markers().is_empty(), "markers drain once");
    }

    #[test]
    fn stores_retire_without_fill() {
        struct Stores {
            n: u64,
        }
        impl Workload for Stores {
            fn next_op(&mut self) -> Op {
                self.n += 1;
                Op::Store { addr: Addr::new(self.n * 64) }
            }
            fn name(&self) -> &str {
                "stores"
            }
        }
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = MissMem::default(); // all stores miss
        let mut wl = Stores { n: 0 };
        for now in 0..100 {
            core.step(now, &mut wl, &mut mem);
        }
        assert!(core.stats().retired > 50, "stores must stream through the store buffer");
    }

    #[test]
    fn hit_latency_delays_retirement() {
        let mut slow_mem = FlatMem(50);
        let mut fast_mem = FlatMem(1);
        let mk = || OooCore::new(CoreConfig { max_outstanding: 1, ..CoreConfig::default() });
        let mut slow = mk();
        let mut fast = mk();
        let mut wl1 = Chain { next: 0 };
        let mut wl2 = Chain { next: 0 };
        for now in 0..2000 {
            slow.step(now, &mut wl1, &mut slow_mem);
            fast.step(now, &mut wl2, &mut fast_mem);
        }
        assert!(fast.stats().retired > 3 * slow.stats().retired);
    }

    #[test]
    fn stalled_accesses_are_retried_until_accepted() {
        /// Stalls the first `n` attempts, then hits.
        struct Flaky {
            stalls_left: u32,
        }
        impl MemPort for Flaky {
            fn access(
                &mut self,
                _: Cycle,
                _: LineAddr,
                _: bool,
                _: LoadId,
                _: &mut StallStamp,
            ) -> Access {
                if self.stalls_left > 0 {
                    self.stalls_left -= 1;
                    Access::Stall
                } else {
                    Access::Hit(1)
                }
            }
        }
        let mut core = OooCore::new(CoreConfig::default());
        let mut mem = Flaky { stalls_left: 10 };
        let mut wl = Chain { next: 0 };
        for now in 0..50 {
            core.step(now, &mut wl, &mut mem);
        }
        assert!(core.stats().loads >= 1, "load must eventually issue after stalls");
        assert!(core.stats().retired >= 1);
    }

    #[test]
    #[should_panic(expected = "zero-sized core")]
    fn zero_config_panics() {
        let _ = OooCore::new(CoreConfig { rob: 0, ..CoreConfig::default() });
    }

    #[test]
    fn next_event_is_now_when_dispatch_can_progress() {
        // An idle core still consumes the workload every cycle.
        let core = OooCore::new(CoreConfig::default());
        assert_eq!(core.next_event(5), Some(5));
    }

    #[test]
    fn wedged_core_reports_no_event_and_accrues_stall_cycles() {
        // All-miss loads, never filled: the core wedges with a full ROB
        // and only an external fill could wake it.
        let mk = || {
            (
                OooCore::new(CoreConfig { rob: 32, ..CoreConfig::default() }),
                MissMem::default(),
                LoadEvery { gap: 1, next: 0, emitted_load: false },
            )
        };
        let (mut skip, mut smem, mut swl) = mk();
        let (mut naive, mut nmem, mut nwl) = mk();
        for now in 0..200 {
            skip.step(now, &mut swl, &mut smem);
            naive.step(now, &mut nwl, &mut nmem);
        }
        assert_eq!(skip.next_event(200), None, "a wedged core schedules nothing");
        // Naive steps the dead window cycle by cycle; the other core
        // accrues the whole window in one call.
        for now in 200..500 {
            naive.step(now, &mut nwl, &mut nmem);
        }
        skip.accrue_skip(300);
        assert_eq!(skip.stats().rob_full_cycles, naive.stats().rob_full_cycles);
        assert_eq!(skip.stats().retired, naive.stats().retired);
        assert_eq!(skip.stats().loads, naive.stats().loads);
        assert_eq!(skip.outstanding(), naive.outstanding());
    }

    #[test]
    fn next_event_wakes_exactly_at_head_load_completion() {
        // A tiny ROB full of chained loads against a slow flat memory:
        // after the head load issues (cycle 1, latency 50) nothing can
        // happen until its data arrives at cycle 51.
        let cfg = CoreConfig { rob: 4, width: 4, max_outstanding: 1 };
        let mut skip = OooCore::new(cfg);
        let mut naive = OooCore::new(cfg);
        let (mut swl, mut nwl) = (Chain { next: 0 }, Chain { next: 0 });
        let (mut smem, mut nmem) = (FlatMem(50), FlatMem(50));
        for now in 0..3 {
            skip.step(now, &mut swl, &mut smem);
            naive.step(now, &mut nwl, &mut nmem);
        }
        assert_eq!(skip.next_event(3), Some(51));
        for now in 3..51 {
            naive.step(now, &mut nwl, &mut nmem);
        }
        skip.accrue_skip(51 - 3);
        for now in 51..120 {
            skip.step(now, &mut swl, &mut smem);
            naive.step(now, &mut nwl, &mut nmem);
        }
        assert_eq!(skip.stats().retired, naive.stats().retired);
        assert_eq!(skip.stats().rob_full_cycles, naive.stats().rob_full_cycles);
        assert_eq!(skip.stats().loads, naive.stats().loads);
    }

    #[test]
    fn undrained_markers_pin_the_horizon_to_now() {
        struct Marked {
            sent: bool,
        }
        impl Workload for Marked {
            fn next_op(&mut self) -> Op {
                if !self.sent {
                    self.sent = true;
                    Op::Marker(7)
                } else {
                    Op::Load { addr: Addr::new(64), id: LoadId(1), dep: None }
                }
            }
            fn name(&self) -> &str {
                "marked"
            }
        }
        let mut core = OooCore::new(CoreConfig { rob: 1, width: 1, max_outstanding: 1 });
        let mut mem = MissMem::default();
        let mut wl = Marked { sent: false };
        for now in 0..5 {
            core.step(now, &mut wl, &mut mem);
        }
        assert!(core.has_markers());
        assert_eq!(core.next_event(5), Some(5), "markers must drain before a skip");
        let _ = core.take_markers();
        // With markers drained the core is wedged on its unfilled load.
        assert_eq!(core.next_event(5), None);
    }

    /// A port with a finite miss table, modelled on the SoC tile: a line
    /// already present hits, a line already in flight merges, a new miss
    /// takes a free entry or stalls. Counts every access offered.
    #[derive(Clone, Default)]
    struct MshrMem {
        cap: usize,
        inflight: Vec<LineAddr>,
        present: Vec<LineAddr>,
        calls: u64,
    }
    impl MemPort for MshrMem {
        fn access(
            &mut self,
            _: Cycle,
            line: LineAddr,
            _: bool,
            _: LoadId,
            _: &mut StallStamp,
        ) -> Access {
            self.calls += 1;
            if self.present.contains(&line) {
                Access::Hit(50)
            } else if self.inflight.contains(&line) {
                Access::Miss
            } else if self.inflight.len() < self.cap {
                self.inflight.push(line);
                Access::Miss
            } else {
                Access::Stall
            }
        }
        fn would_stall(&self, line: LineAddr, _store: bool, _stamp: StallStamp) -> bool {
            self.inflight.len() >= self.cap
                && !self.inflight.contains(&line)
                && !self.present.contains(&line)
        }
    }

    /// Plays `script`, then stores to lines 100, 101, ...
    struct Script {
        ops: VecDeque<Op>,
        next: u64,
    }
    impl Script {
        fn new(ops: Vec<Op>) -> Self {
            Self { ops: ops.into(), next: 100 }
        }
    }
    impl Workload for Script {
        fn next_op(&mut self) -> Op {
            self.ops.pop_front().unwrap_or_else(|| {
                self.next += 1;
                Op::Store { addr: Addr::new(self.next * 64) }
            })
        }
        fn name(&self) -> &str {
            "script"
        }
    }

    /// Alternating stores and independent loads to fresh lines.
    struct StoreLoad {
        n: u64,
    }
    impl Workload for StoreLoad {
        fn next_op(&mut self) -> Op {
            self.n += 1;
            let addr = Addr::new(self.n * 64);
            if self.n.is_multiple_of(2) {
                Op::Load { addr, id: LoadId(self.n), dep: None }
            } else {
                Op::Store { addr }
            }
        }
        fn name(&self) -> &str {
            "store-load"
        }
    }

    fn rob16() -> CoreConfig {
        CoreConfig { rob: 16, width: 4, max_outstanding: 8 }
    }

    /// Steps `core` until cycle `until`, returning the port calls of the
    /// last step.
    fn run_to(core: &mut OooCore, wl: &mut dyn Workload, mem: &mut MshrMem, until: Cycle) -> u64 {
        let mut last = 0;
        for now in 0..until {
            let before = mem.calls;
            core.step(now, wl, mem);
            last = mem.calls - before;
        }
        last
    }

    #[test]
    fn next_event_with_parks_a_core_whose_every_access_stalls() {
        // Two entries: stores to lines 101 and 102 take them, the rest
        // of the ROB's stores stall on every retry.
        let mut core = OooCore::new(rob16());
        let mut mem = MshrMem { cap: 2, ..MshrMem::default() };
        let mut wl = Script::new(Vec::new());
        let calls = run_to(&mut core, &mut wl, &mut mem, 20);
        assert_eq!(core.next_event(20), Some(20), "the port-blind horizon stays conservative");
        assert_eq!(core.next_event_with(20, &mem), None, "only a fill can unstall the core");
        assert_eq!(core.stalled_accesses(), calls);
        assert!(calls > 0);

        // Anything that lets one pending store through is a state change.
        let pending = LineAddr::new(105);
        let mut cached = mem.clone();
        cached.present.push(pending);
        assert_eq!(core.next_event_with(20, &cached), Some(20), "line in L1 or L2");
        let mut merging = mem.clone();
        merging.inflight[0] = pending;
        assert_eq!(core.next_event_with(20, &merging), Some(20), "secondary merge");
        let mut roomy = mem.clone();
        roomy.cap = 3;
        assert_eq!(core.next_event_with(20, &roomy), Some(20), "free MSHR entry");
    }

    #[test]
    fn stalled_ready_loads_count_only_below_the_mlp_bound() {
        let mut core = OooCore::new(rob16());
        let mut mem = MshrMem { cap: 2, ..MshrMem::default() };
        let mut wl = StoreLoad { n: 0 };
        let calls = run_to(&mut core, &mut wl, &mut mem, 20);
        assert_eq!(core.outstanding(), 1, "one load took an entry");
        assert_eq!(core.next_event_with(20, &mem), None);
        assert_eq!(core.stalled_accesses(), calls);
        assert!(calls > core.attention_stores as u64, "stalled Ready loads are offered too");

        // At the MLP bound Ready loads are never offered: only stores are.
        let mut core = OooCore::new(CoreConfig { max_outstanding: 1, ..rob16() });
        let mut mem = MshrMem { cap: 2, ..MshrMem::default() };
        let mut wl = StoreLoad { n: 0 };
        let calls = run_to(&mut core, &mut wl, &mut mem, 20);
        assert_eq!(core.next_event_with(20, &mem), None);
        assert_eq!(core.stalled_accesses(), calls);
        assert_eq!(calls, core.attention_stores as u64);
    }

    #[test]
    fn next_event_with_wakes_when_a_wait_dep_producer_completes() {
        // A stalled store at the head blocks retirement; load 2 hits with
        // latency 50 at cycle 1 and load 3 waits on it. Everything else
        // stalls, so the producer's data arrival is the only wake.
        let mut core = OooCore::new(rob16());
        let mut mem = MshrMem { cap: 0, present: vec![LineAddr::new(2)], ..MshrMem::default() };
        let mut wl = Script::new(vec![
            Op::Store { addr: Addr::new(64) },
            Op::Load { addr: Addr::new(2 * 64), id: LoadId(2), dep: None },
            Op::Load { addr: Addr::new(3 * 64), id: LoadId(3), dep: Some(LoadId(2)) },
        ]);
        run_to(&mut core, &mut wl, &mut mem, 20);
        assert_eq!(core.next_event_with(20, &mem), Some(51));
        assert_eq!(core.next_event_with(51, &mem), Some(51));
    }

    /// Misses on `miss`, hits everything else after `lat` cycles, and
    /// logs the cycle each load is accepted.
    struct Logged {
        lat: u64,
        miss: LineAddr,
        log: Vec<(Cycle, LoadId)>,
    }
    impl MemPort for Logged {
        fn access(
            &mut self,
            now: Cycle,
            line: LineAddr,
            _: bool,
            id: LoadId,
            _: &mut StallStamp,
        ) -> Access {
            self.log.push((now, id));
            if line == self.miss {
                Access::Miss
            } else {
                Access::Hit(self.lat)
            }
        }
    }

    /// The cycle `port` accepted load `id`.
    fn accepted_at(port: &Logged, id: u64) -> Option<Cycle> {
        port.log.iter().find(|a| a.1 == LoadId(id)).map(|a| a.0)
    }

    #[test]
    fn wait_dep_resolves_once_its_producer_has_retired() {
        // Load 1 issues at cycle 1 and has its data at 6; load 2 waits on
        // it. At cycle 6 the retire stage pops load 1 before the issue
        // stage looks at load 2, whose producer is then behind the head.
        let mut core = OooCore::new(rob16());
        let mut port = Logged { lat: 5, miss: LineAddr::new(u64::MAX), log: Vec::new() };
        let mut wl = Chain { next: 0 };
        for now in 0..6 {
            core.step(now, &mut wl, &mut port);
        }
        assert_eq!(accepted_at(&port, 1), Some(1));
        assert!(matches!(core.rob[1], Entry::Load { state: LoadState::WaitDep(0), .. }));
        core.step(6, &mut wl, &mut port);
        assert!(core.head_seq > 0, "the producer retired");
        assert_eq!(accepted_at(&port, 2), Some(6), "the consumer issues in the same step");
    }

    #[test]
    fn wait_dep_producer_done_in_the_future_is_a_timed_wake() {
        // Load 1 misses and holds the head; load 2 hits at cycle 1 with
        // its data at 31; load 3 waits on load 2, and the three-entry
        // ROB blocks dispatch. Load 2's data arrival is the only wake.
        let cfg = CoreConfig { rob: 3, width: 4, max_outstanding: 4 };
        let mut core = OooCore::new(cfg);
        let mut port = Logged { lat: 30, miss: LineAddr::new(1), log: Vec::new() };
        let mut wl = Script::new(vec![
            Op::Load { addr: Addr::new(64), id: LoadId(1), dep: None },
            Op::Load { addr: Addr::new(2 * 64), id: LoadId(2), dep: None },
            Op::Load { addr: Addr::new(3 * 64), id: LoadId(3), dep: Some(LoadId(2)) },
        ]);
        for now in 0..2 {
            core.step(now, &mut wl, &mut port);
        }
        assert_eq!(accepted_at(&port, 2), Some(1));
        for now in 2..31 {
            assert_eq!(core.next_event(now), Some(31), "cycle {now}");
            core.step(now, &mut wl, &mut port);
        }
        assert_eq!(accepted_at(&port, 3), None, "load 3 waits for its producer's data");
        assert_eq!(core.next_event(31), Some(31));
        core.step(31, &mut wl, &mut port);
        assert_eq!(accepted_at(&port, 3), Some(31));
    }

    #[test]
    fn a_deep_chain_behind_an_issued_head_has_no_event() {
        // 64 chained loads fill the ROB; the head missed and no fill
        // comes, so every other load waits on a producer in flight.
        let mut core = OooCore::new(CoreConfig { rob: 64, width: 4, max_outstanding: 16 });
        let mut mem = MissMem::default();
        let mut wl = Chain { next: 0 };
        for now in 0..40 {
            core.step(now, &mut wl, &mut mem);
        }
        assert_eq!(core.rob.len(), 64);
        assert!(matches!(core.rob[0], Entry::Load { state: LoadState::Issued, .. }));
        assert_eq!(core.attention.len(), 63);
        assert_eq!(core.next_event_with(40, &mem), None);
        assert_eq!(core.next_event(40), None);
    }
}
