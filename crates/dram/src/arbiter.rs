//! The target-side arbiter seam: an object-safe trait over everything a
//! [`crate::MemController`] asks of its scheduling policy, plus the zoo
//! of implementations behind it.
//!
//! The controller owns queue structure, bank timing, and the data-bus
//! pipeline; the arbiter owns *priority*: it stamps every accepted
//! request with a [`VirtualDeadline`], declares whether those stamps
//! participate in priority keys ([`TargetArbiter::uses_deadlines`]), and
//! observes every bus grant so it can advance whatever internal credit
//! it keeps. `next_event` folds any arbiter-internal timed state into
//! the controller's horizon so the cycle-skipping contract
//! (`docs/PERFORMANCE.md`) holds for every implementation — an arbiter
//! whose priorities can change at a future cycle without a stamp or a
//! pick must report that cycle.
//!
//! Implementations:
//!
//! * [`EdfArbiter`] — the paper's earliest-virtual-deadline arbiter with
//!   a flat one-stride charge per access (§III-C2).
//! * [`FqmArbiter`] — Nesbit et al.'s fair queueing memory scheduler:
//!   deadlines approximate virtual time, charged by actual service cost.
//! * [`FcfsArbiter`] — priority-blind FR-FCFS baseline.
//! * [`PerBankArbiter`] — Sullivan et al. style bank-granularity
//!   regulation: one set of virtual clocks *per DRAM bank*.
//! * [`DpqArbiter`] — Shah et al.'s distance-based priority queue with a
//!   checkable worst-case service bound (debug-asserted).

use std::collections::BTreeMap;
use std::fmt;

use pabst_core::arbiter::{VirtualClocks, VirtualDeadline};
use pabst_core::qos::{QosId, ShareTable, MAX_CLASSES};
use pabst_simkit::Cycle;

/// The scheduling policy of a memory controller, behind an object-safe
/// seam so competing mechanisms can be swapped without touching the
/// controller's queue or timing model.
///
/// Contract highlights:
///
/// * `stamp` is called exactly once per accepted request, in acceptance
///   order (`seq` is strictly increasing across calls).
/// * `on_picked` is called once per *read* data-bus grant; writes drain
///   unprioritized and are never reported.
/// * `clock` must be monotonically nondecreasing per class (the epoch
///   invariant checker verifies this through
///   [`crate::MemController::virtual_clock`]).
/// * `next_event` follows the horizon contract: conservative answers are
///   fine, late ones are not. Arbiters whose priority state only changes
///   inside `stamp`/`on_picked` return `None`.
pub trait TargetArbiter: fmt::Debug {
    /// Stamps a newly accepted request with its priority deadline.
    ///
    /// `seq` is the controller's acceptance sequence number, `bank` the
    /// decoded target bank, and `backlog` the depth of the front-end
    /// queue the request joins (before insertion).
    fn stamp(
        &mut self,
        class: QosId,
        is_write: bool,
        seq: u64,
        bank: u32,
        backlog: usize,
    ) -> VirtualDeadline;

    /// True when the stamps carry class priority, i.e. the controller
    /// should order by `(deadline, seq)` rather than arrival order
    /// alone. Capability query replacing the old
    /// `ArbiterMode::prioritized()` boolean probing.
    fn uses_deadlines(&self) -> bool;

    /// Records that a read's data burst won the bus. `cost` is the
    /// access's service cost in row-op units (1 row hit, 2 closed row,
    /// 3 conflict) for cost-charging arbiters.
    fn on_picked(
        &mut self,
        class: QosId,
        deadline: VirtualDeadline,
        seq: u64,
        bank: u32,
        cost: u64,
    );

    /// Reprograms the per-class shares (software updating weights).
    fn set_shares(&mut self, shares: &ShareTable);

    /// Current virtual-clock value of `id` — whatever monotone per-class
    /// progress notion the mechanism keeps, surfaced in
    /// [`crate::McSnapshot::virtual_clocks`].
    fn clock(&self, id: QosId) -> u64;

    /// Number of QoS classes the arbiter was built for.
    fn classes(&self) -> usize;

    /// Earliest future cycle at which the arbiter's *own* state could
    /// change priorities absent a stamp or pick, or `None` when its
    /// state only moves inside those callbacks. Min-combined into
    /// [`crate::MemController::next_event`].
    fn next_event(&self, now: Cycle) -> Option<Cycle>;

    /// Stable mechanism label (provenance hashing, reports).
    fn name(&self) -> &'static str;

    /// Promotes the arbiter's debug-only bound assertions to counted
    /// release-mode checks (see [`DpqArbiter`]'s worst-case service
    /// bound). Arbiters without internal bound promises ignore it.
    fn set_bound_checks(&mut self, _on: bool) {}

    /// Cumulative internal bound violations observed (always 0 unless
    /// the arbiter keeps promises and checking was enabled). Growth is
    /// surfaced as a `dpq service bound` invariant violation by the
    /// epoch checker.
    fn bound_violations(&self) -> u64 {
        0
    }
}

/// The paper's arbiter: per-class virtual clocks, earliest deadline
/// first, flat one-stride charge per read (§III-C2).
#[derive(Debug, Clone)]
pub struct EdfArbiter {
    clocks: VirtualClocks,
}

impl EdfArbiter {
    /// Creates the arbiter with the given shares and slack bound.
    pub fn new(shares: &ShareTable, slack: u64) -> Self {
        Self { clocks: VirtualClocks::new(shares, slack) }
    }
}

impl TargetArbiter for EdfArbiter {
    fn stamp(
        &mut self,
        class: QosId,
        is_write: bool,
        seq: u64,
        _bank: u32,
        _backlog: usize,
    ) -> VirtualDeadline {
        // Reads are stamped with the class's virtual deadline on
        // acceptance; writes are not prioritized (§III-C2).
        if is_write {
            VirtualDeadline(seq)
        } else {
            self.clocks.stamp(class)
        }
    }

    fn uses_deadlines(&self) -> bool {
        true
    }

    fn on_picked(
        &mut self,
        class: QosId,
        deadline: VirtualDeadline,
        _seq: u64,
        _bank: u32,
        _cost: u64,
    ) {
        self.clocks.on_picked(class, deadline);
    }

    fn set_shares(&mut self, shares: &ShareTable) {
        for (id, s) in shares.iter() {
            self.clocks.set_stride(id, s);
        }
    }

    fn clock(&self, id: QosId) -> u64 {
        self.clocks.clock(id)
    }

    fn classes(&self) -> usize {
        self.clocks.classes()
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    fn name(&self) -> &'static str {
        ArbiterMode::Edf.label()
    }
}

/// FQM-style variant (Nesbit et al.): deadlines approximate virtual
/// time (stamps do not advance the clock) and accesses are charged by
/// their actual service cost after the fact.
#[derive(Debug, Clone)]
pub struct FqmArbiter {
    clocks: VirtualClocks,
}

impl FqmArbiter {
    /// Creates the arbiter with the given shares and slack bound.
    pub fn new(shares: &ShareTable, slack: u64) -> Self {
        Self { clocks: VirtualClocks::new(shares, slack) }
    }
}

impl TargetArbiter for FqmArbiter {
    fn stamp(
        &mut self,
        class: QosId,
        is_write: bool,
        seq: u64,
        _bank: u32,
        _backlog: usize,
    ) -> VirtualDeadline {
        if is_write {
            VirtualDeadline(seq)
        } else {
            self.clocks.stamp_deferred(class)
        }
    }

    fn uses_deadlines(&self) -> bool {
        true
    }

    fn on_picked(
        &mut self,
        class: QosId,
        deadline: VirtualDeadline,
        _seq: u64,
        _bank: u32,
        cost: u64,
    ) {
        self.clocks.on_picked(class, deadline);
        // Charge by service cost: a row hit is one unit, a closed row
        // two, a conflict (precharge + activate) three.
        self.clocks.charge(class, cost);
    }

    fn set_shares(&mut self, shares: &ShareTable) {
        for (id, s) in shares.iter() {
            self.clocks.set_stride(id, s);
        }
    }

    fn clock(&self, id: QosId) -> u64 {
        self.clocks.clock(id)
    }

    fn classes(&self) -> usize {
        self.clocks.classes()
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    fn name(&self) -> &'static str {
        ArbiterMode::Fqm.label()
    }
}

/// Priority-blind baseline: every stamp is the acceptance sequence
/// number and deadlines never enter priority keys, so the controller
/// degenerates to plain FR-FCFS.
#[derive(Debug, Clone)]
pub struct FcfsArbiter {
    classes: usize,
}

impl FcfsArbiter {
    /// Creates the arbiter (only the class count is retained, for
    /// snapshot shape).
    pub fn new(shares: &ShareTable) -> Self {
        Self { classes: shares.classes() }
    }
}

impl TargetArbiter for FcfsArbiter {
    fn stamp(
        &mut self,
        _class: QosId,
        _is_write: bool,
        seq: u64,
        _bank: u32,
        _backlog: usize,
    ) -> VirtualDeadline {
        VirtualDeadline(seq)
    }

    fn uses_deadlines(&self) -> bool {
        false
    }

    fn on_picked(
        &mut self,
        _class: QosId,
        _deadline: VirtualDeadline,
        _seq: u64,
        _bank: u32,
        _cost: u64,
    ) {
    }

    fn set_shares(&mut self, _shares: &ShareTable) {}

    fn clock(&self, _id: QosId) -> u64 {
        0
    }

    fn classes(&self) -> usize {
        self.classes
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    fn name(&self) -> &'static str {
        ArbiterMode::Fcfs.label()
    }
}

/// Bank-granularity bandwidth regulation (Sullivan et al. style): one
/// independent set of virtual clocks per DRAM bank, so a class's credit
/// on a quiet bank is not consumed by its traffic on a hot one. Stamps
/// from different banks still compete in the controller's global
/// nomination, which is precisely the mechanism difference the zoo
/// compares: regulation error localizes per bank instead of averaging
/// across the channel.
#[derive(Debug, Clone)]
pub struct PerBankArbiter {
    banks: Vec<VirtualClocks>,
}

impl PerBankArbiter {
    /// Creates one clock set per bank, each with the full share table
    /// and the same slack bound.
    pub fn new(shares: &ShareTable, slack: u64, banks: usize) -> Self {
        Self { banks: (0..banks.max(1)).map(|_| VirtualClocks::new(shares, slack)).collect() }
    }
}

impl TargetArbiter for PerBankArbiter {
    fn stamp(
        &mut self,
        class: QosId,
        is_write: bool,
        seq: u64,
        bank: u32,
        _backlog: usize,
    ) -> VirtualDeadline {
        if is_write {
            VirtualDeadline(seq)
        } else {
            let b = bank as usize % self.banks.len();
            self.banks[b].stamp(class)
        }
    }

    fn uses_deadlines(&self) -> bool {
        true
    }

    fn on_picked(
        &mut self,
        class: QosId,
        deadline: VirtualDeadline,
        _seq: u64,
        bank: u32,
        _cost: u64,
    ) {
        let b = bank as usize % self.banks.len();
        self.banks[b].on_picked(class, deadline);
    }

    fn set_shares(&mut self, shares: &ShareTable) {
        for clocks in &mut self.banks {
            for (id, s) in shares.iter() {
                clocks.set_stride(id, s);
            }
        }
    }

    fn clock(&self, id: QosId) -> u64 {
        // The class's furthest per-bank progress: a max of monotone
        // clocks, so the invariant checker's monotonicity law holds.
        self.banks.iter().map(|c| c.clock(id)).max().unwrap_or(0)
    }

    fn classes(&self) -> usize {
        self.banks[0].classes()
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    fn name(&self) -> &'static str {
        ArbiterMode::PerBank.label()
    }
}

/// Base relative-deadline window of the DPQ arbiter, in service slots:
/// the highest-weight class's requests are promised service within
/// roughly this many read grants of their arrival (plus backlog).
pub const DPQ_WINDOW: u64 = 16;

/// Multiplier covering the controller's bounded reordering around pure
/// priority order in the DPQ service-bound check: row-hit bypass
/// streaks (`max_hit_streak` per bank), reads served from other banks
/// while the target bank's timing holds (tRP+tRCD+tCL vs. one burst),
/// and the aged-entry starvation backstop. Conservative by design — the
/// bound must never trip on a legal schedule.
const DPQ_REORDER_FACTOR: u64 = 64;

/// Shah et al.'s distance-based priority queue (DPQ), modelled in
/// virtual positions: a request from class `c` is inserted `distance_c`
/// service slots ahead of the arrival frontier, where the distance is
/// inversely proportional to the class's bandwidth share. Concretely
/// the stamp is `seq + d_rel[c]` and the controller's EDF key serves
/// ascending stamps, which reproduces DPQ's headline property — a
/// *checkable worst-case service bound* per class — without modelling
/// the hardware queue itself.
///
/// In debug builds every read stamp records a service promise
/// (`backlog + relative-deadline gap`, inflated by
/// [`DPQ_REORDER_FACTOR`] for the controller's bounded non-priority
/// reordering) and every pick asserts the promise held.
#[derive(Debug, Clone)]
pub struct DpqArbiter {
    /// Per-class relative deadline (insertion distance) in service
    /// slots; smaller for higher-weight classes.
    d_rel: [u64; MAX_CLASSES],
    /// The smallest distance of any class (the overtaking bound).
    d_min: u64,
    classes: usize,
    /// Last stamp issued per class (monotone progress for `clock`).
    last_stamp: [u64; MAX_CLASSES],
    /// Total read grants observed.
    served: u64,
    /// Outstanding service promises: seq → served-counter bound.
    /// Debug-only accounting unless promoted by `set_bound_checks`, but
    /// kept unconditionally so skip/noskip replicas and both build
    /// profiles share identical struct shape.
    promises: BTreeMap<u64, u64>,
    /// Release-mode promotion of the bound assertion: when set, promises
    /// are kept (and checked) even without `debug_assertions`.
    check: bool,
    /// Promises missed — reads served later than their worst-case bound.
    violations: u64,
}

impl DpqArbiter {
    /// Creates the arbiter, deriving per-class distances from `shares`.
    pub fn new(shares: &ShareTable) -> Self {
        let mut a = Self {
            d_rel: [DPQ_WINDOW; MAX_CLASSES],
            d_min: DPQ_WINDOW,
            classes: shares.classes(),
            last_stamp: [0; MAX_CLASSES],
            served: 0,
            promises: BTreeMap::new(),
            check: false,
            violations: 0,
        };
        a.program(shares);
        a
    }

    fn program(&mut self, shares: &ShareTable) {
        self.classes = shares.classes();
        for (id, _) in shares.iter() {
            // scaled_stride(id, W) = round(W * max_weight / weight): the
            // highest-weight class gets distance ~W, lower weights
            // proportionally farther.
            self.d_rel[id.index()] = shares.scaled_stride(id, DPQ_WINDOW).get();
        }
        self.d_min = (0..self.classes).map(|i| self.d_rel[i]).min().unwrap_or(DPQ_WINDOW).max(1);
    }

    /// The worst-case number of read grants a read stamped against
    /// `backlog` queued reads can wait before service, for class `id`.
    /// Earlier-deadline work is bounded by the backlog plus the
    /// overtaking window `d_rel − d_min`; the factor covers the
    /// controller's bounded non-priority reordering.
    pub fn service_bound(&self, id: QosId, backlog: usize) -> u64 {
        let gap = self.d_rel[id.index()].saturating_sub(self.d_min);
        (backlog as u64 + gap + 1).saturating_mul(DPQ_REORDER_FACTOR)
    }
}

impl TargetArbiter for DpqArbiter {
    fn stamp(
        &mut self,
        class: QosId,
        is_write: bool,
        seq: u64,
        _bank: u32,
        backlog: usize,
    ) -> VirtualDeadline {
        if is_write {
            return VirtualDeadline(seq);
        }
        let d = seq.saturating_add(self.d_rel[class.index()]);
        self.last_stamp[class.index()] = d;
        if cfg!(debug_assertions) || self.check {
            let bound = self.service_bound(class, backlog);
            self.promises.insert(seq, self.served.saturating_add(bound));
        }
        VirtualDeadline(d)
    }

    fn uses_deadlines(&self) -> bool {
        true
    }

    fn on_picked(
        &mut self,
        _class: QosId,
        _deadline: VirtualDeadline,
        seq: u64,
        _bank: u32,
        _cost: u64,
    ) {
        if let Some(promise) = self.promises.remove(&seq) {
            // Promoted from a debug_assert: a missed promise is counted
            // and reported through the epoch invariant checker, so
            // release-mode chaos campaigns classify it instead of the
            // sweep dying (or, worse, the miss passing silently).
            if self.served > promise {
                self.violations += 1;
            }
        }
        self.served += 1;
    }

    fn set_shares(&mut self, shares: &ShareTable) {
        self.program(shares);
    }

    fn clock(&self, id: QosId) -> u64 {
        self.last_stamp[id.index()]
    }

    fn classes(&self) -> usize {
        self.classes
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    fn name(&self) -> &'static str {
        ArbiterMode::Dpq.label()
    }

    fn set_bound_checks(&mut self, on: bool) {
        self.check = on;
    }

    fn bound_violations(&self) -> u64 {
        self.violations
    }
}

/// Scheduling policy selector for a [`crate::MemController`]:
/// serializable configuration surface over the [`TargetArbiter`] zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbiterMode {
    /// Baseline FR-FCFS: oldest first at the front-end; row hits then
    /// oldest at the back-end ([`FcfsArbiter`]).
    Fcfs,
    /// PABST priority arbiter: earliest virtual deadline, flat
    /// one-stride charge per access ([`EdfArbiter`], the paper's
    /// choice, §III-C2).
    #[default]
    Edf,
    /// FQM-style variant: charged by actual service cost
    /// ([`FqmArbiter`]). Included for the paper's design comparison.
    Fqm,
    /// Bank-granularity regulation, Sullivan et al. style
    /// ([`PerBankArbiter`]).
    PerBank,
    /// Shah et al.'s distance-based priority queue with a debug-checked
    /// worst-case service bound ([`DpqArbiter`]).
    Dpq,
}

impl ArbiterMode {
    /// Stable lowercase label (config parsing, provenance hashing,
    /// report tables).
    pub fn label(self) -> &'static str {
        match self {
            ArbiterMode::Fcfs => "fcfs",
            ArbiterMode::Edf => "edf",
            ArbiterMode::Fqm => "fqm",
            ArbiterMode::PerBank => "per-bank",
            ArbiterMode::Dpq => "dpq",
        }
    }

    /// All modes, in label order (experiment sweeps, config docs).
    pub const ALL: [ArbiterMode; 5] = [
        ArbiterMode::Fcfs,
        ArbiterMode::Edf,
        ArbiterMode::Fqm,
        ArbiterMode::PerBank,
        ArbiterMode::Dpq,
    ];

    /// Builds the arbiter this mode names. `banks` sizes
    /// [`PerBankArbiter`]; `slack` bounds the virtual-clock credit of
    /// the clock-based arbiters.
    pub fn build(self, shares: &ShareTable, slack: u64, banks: usize) -> Box<dyn TargetArbiter> {
        match self {
            ArbiterMode::Fcfs => Box::new(FcfsArbiter::new(shares)),
            ArbiterMode::Edf => Box::new(EdfArbiter::new(shares, slack)),
            ArbiterMode::Fqm => Box::new(FqmArbiter::new(shares, slack)),
            ArbiterMode::PerBank => Box::new(PerBankArbiter::new(shares, slack, banks)),
            ArbiterMode::Dpq => Box::new(DpqArbiter::new(shares)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shares(w: &[u32]) -> ShareTable {
        ShareTable::from_weights(w).unwrap()
    }

    #[test]
    fn edf_matches_raw_virtual_clocks() {
        let s = shares(&[3, 1]);
        let mut raw = VirtualClocks::new(&s, 128);
        let mut arb = EdfArbiter::new(&s, 128);
        for i in 0..200u64 {
            let id = QosId::new((i % 2) as u8);
            let d_raw = raw.stamp(id);
            let d_arb = arb.stamp(id, false, i, (i % 4) as u32, 3);
            assert_eq!(d_raw, d_arb, "stamp {i} diverged");
            raw.on_picked(id, d_raw);
            arb.on_picked(id, d_arb, i, (i % 4) as u32, 1);
            assert_eq!(raw.clock(id), arb.clock(id));
        }
    }

    #[test]
    fn writes_are_never_prioritized() {
        for mode in ArbiterMode::ALL {
            let mut arb = mode.build(&shares(&[3, 1]), 128, 4);
            let d = arb.stamp(QosId::new(0), true, 77, 0, 0);
            assert_eq!(d, VirtualDeadline(77), "{}: write stamp must be the seq", arb.name());
        }
    }

    #[test]
    fn capability_queries_partition_the_zoo() {
        let s = shares(&[1, 1]);
        for mode in ArbiterMode::ALL {
            let arb = mode.build(&s, 128, 4);
            assert_eq!(
                arb.uses_deadlines(),
                mode != ArbiterMode::Fcfs,
                "{}: only FCFS is priority-blind",
                arb.name()
            );
            assert_eq!(arb.classes(), 2);
            assert_eq!(arb.name(), mode.label());
            assert_eq!(arb.next_event(123), None, "no built-in arbiter keeps timed state");
        }
    }

    #[test]
    fn per_bank_keeps_banks_independent() {
        let mut arb = PerBankArbiter::new(&shares(&[1, 1]), u64::MAX, 2);
        let id = QosId::new(0);
        // Heavy traffic on bank 0 advances only bank 0's clock…
        for i in 0..32u64 {
            let d = arb.stamp(id, false, i, 0, 0);
            arb.on_picked(id, d, i, 0, 1);
        }
        let hot = arb.clock(id);
        assert!(hot > 0);
        // …so the first stamp on bank 1 is still early (fresh credit).
        let d = arb.stamp(id, false, 100, 1, 0);
        assert!(d.0 < hot, "bank 1 must not inherit bank 0's consumed credit");
    }

    #[test]
    fn dpq_distances_scale_inversely_with_weight() {
        let arb = DpqArbiter::new(&shares(&[4, 1]));
        let hi = arb.service_bound(QosId::new(0), 0);
        let lo = arb.service_bound(QosId::new(1), 0);
        assert!(lo > hi, "low-weight class must carry the larger bound: {lo} vs {hi}");
    }

    #[test]
    fn dpq_bound_holds_under_priority_order_service() {
        // Serve strictly in deadline order (the arbiter's ideal): the
        // promise must hold with the reorder factor to spare.
        let mut arb = DpqArbiter::new(&shares(&[3, 1]));
        let mut queue: Vec<(QosId, VirtualDeadline, u64)> = Vec::new();
        let mut seq = 0u64;
        for round in 0..400u64 {
            // Two arrivals per round, alternating classes.
            for c in 0..2u8 {
                seq += 1;
                let id = QosId::new(c);
                let d = arb.stamp(id, false, seq, 0, queue.len());
                queue.push((id, d, seq));
            }
            // One service per round: earliest deadline first.
            let i = queue
                .iter()
                .enumerate()
                .min_by_key(|(_, &(_, d, s))| (d, s))
                .map(|(i, _)| i)
                .unwrap();
            let (id, d, s) = queue.swap_remove(i);
            arb.on_picked(id, d, s, 0, 1);
            let _ = round;
        }
        // Drain: every remaining promise must also hold.
        while let Some(i) =
            queue.iter().enumerate().min_by_key(|(_, &(_, d, s))| (d, s)).map(|(i, _)| i)
        {
            let (id, d, s) = queue.swap_remove(i);
            arb.on_picked(id, d, s, 0, 1);
        }
        assert_eq!(arb.bound_violations(), 0, "ideal service never misses a promise");
    }

    #[test]
    fn dpq_bound_check_promotion_counts_misses_in_release_too() {
        // With checking promoted, promises are kept regardless of build
        // profile, and pathological service order (starving one read far
        // beyond the arbiter's bounded reordering) is *counted*, never
        // panicked on.
        let mut arb = DpqArbiter::new(&shares(&[1, 1]));
        arb.set_bound_checks(true);
        // Victim stamped against an empty queue: its promise is the
        // minimum bound (one backlog slot times the reorder factor).
        let vd = arb.stamp(QosId::new(0), false, 1, 0, 0);
        // Starve it behind 10 000 later arrivals served first.
        for seq in 2..=10_001u64 {
            let d = arb.stamp(QosId::new(1), false, seq, 0, 1);
            arb.on_picked(QosId::new(1), d, seq, 0, 1);
        }
        assert_eq!(arb.bound_violations(), 0, "the promise is open, not yet missed");
        arb.on_picked(QosId::new(0), vd, 1, 0, 1);
        assert_eq!(arb.bound_violations(), 1, "starved far past the worst-case bound");
        // Arbiters without promises report zero through the default.
        let mut edf = EdfArbiter::new(&shares(&[1, 1]), 16);
        edf.set_bound_checks(true);
        assert_eq!(edf.bound_violations(), 0);
    }

    #[test]
    fn dpq_clock_is_monotone() {
        let mut arb = DpqArbiter::new(&shares(&[2, 1]));
        let mut prev = 0;
        for i in 0..100u64 {
            let _ = arb.stamp(QosId::new(0), false, i, 0, 0);
            let c = arb.clock(QosId::new(0));
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn labels_are_stable_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for mode in ArbiterMode::ALL {
            assert!(seen.insert(mode.label()), "duplicate label {}", mode.label());
        }
        assert_eq!(ArbiterMode::default(), ArbiterMode::Edf);
    }
}
