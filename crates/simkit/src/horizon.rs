//! Min-combining of component event horizons for quiescence-aware
//! cycle skipping.
//!
//! Every stateful component exposes `next_event(now) -> Option<Cycle>`:
//! the earliest cycle at which stepping it *might* change observable
//! state, or `None` when it schedules no event of its own (it can only
//! be woken by another component acting first). A component min-combines
//! its stages' answers with a [`Horizon`]; when the combined horizon lies
//! strictly in the future, every cycle before it is provably dead for
//! that component, so its skip domain parks until then
//! ([`DomainHorizon`]).
//!
//! The contract is deliberately one-sided: a component may report an
//! event *earlier* than anything actually happens (the system then just
//! steps normally through a few quiet cycles, exactly as naive stepping
//! would), but it must never report one *later* — skipping over a real
//! state change is the only way to break the byte-identical-output
//! guarantee. See `docs/PERFORMANCE.md` for the full contract.
//!
//! # Examples
//!
//! ```
//! use pabst_simkit::horizon::Horizon;
//!
//! let mut h = Horizon::new();
//! h.add(120);
//! h.merge(None); // an idle component contributes nothing
//! h.merge(Some(80));
//! assert_eq!(h.get(), Some(80));
//! assert!(Horizon::new().get().is_none(), "no events at all");
//! ```

use crate::Cycle;

/// Accumulates the minimum over a set of optional event times.
///
/// `None` inputs (components with no self-scheduled event) are
/// ignored; an all-`None` combination yields `None`, meaning the
/// machine is fully quiescent until external input — the caller may
/// skip as far as its own bound (e.g. the next epoch boundary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Horizon(Option<Cycle>);

impl Horizon {
    /// An empty horizon: no events known yet.
    pub fn new() -> Self {
        Self(None)
    }

    /// Folds in a known event time.
    pub fn add(&mut self, at: Cycle) {
        self.0 = Some(match self.0 {
            Some(cur) => cur.min(at),
            None => at,
        });
    }

    /// Folds in an optional event time; `None` leaves the horizon as is.
    pub fn merge(&mut self, at: Option<Cycle>) {
        if let Some(at) = at {
            self.add(at);
        }
    }

    /// The earliest event folded in so far, or `None` when every input
    /// was `None`.
    pub fn get(&self) -> Option<Cycle> {
        self.0
    }
}

/// Sentinel for "no self-scheduled wake": a parked domain carrying this
/// wake time can only be unparked by an explicit wake edge.
pub const NO_WAKE: Cycle = Cycle::MAX;

/// Park/unpark bookkeeping for a set of skip domains, with a memoized
/// earliest-wake answer.
///
/// A *parked* domain is one the scheduler has proven inert: its cached
/// `next_event` answer (`wake_at`) lies in the future (or is [`NO_WAKE`]),
/// so the step loop stops visiting it. The cache is dirty-flagged by
/// construction — it is only ever written at park time and discarded at
/// unpark time, and every mutation that could invalidate it (an external
/// message, an epoch boundary, the domain's own due wake) must route
/// through an unpark. `owed_from` records the first cycle whose
/// per-cycle bookkeeping the domain still owes; [`DomainHorizon::unpark`]
/// returns the owed cycle count so the caller can batch-accrue it
/// through the domain's `accrue_skip` path.
///
/// `min_wake` memoizes the minimum `wake_at` over parked domains as a
/// *lower bound*: parking folds the new wake in eagerly, unparking
/// leaves it stale-low (conservative — the caller rescans and finds
/// nothing due, then calls [`DomainHorizon::recompute_min`]). A stale
/// bound can only cause an extra scan, never a missed wake.
#[derive(Debug, Clone)]
pub struct DomainHorizon {
    wake_at: Vec<Cycle>,
    owed_from: Vec<Cycle>,
    parked: usize,
    min_wake: Cycle,
}

impl DomainHorizon {
    /// A set of `n` domains, all initially resident (not parked).
    pub fn new(n: usize) -> Self {
        Self {
            wake_at: vec![NO_WAKE; n],
            owed_from: vec![NO_WAKE; n],
            parked: 0,
            min_wake: NO_WAKE,
        }
    }

    /// Number of domains tracked.
    pub fn len(&self) -> usize {
        self.wake_at.len()
    }

    /// True when no domains are tracked.
    pub fn is_empty(&self) -> bool {
        self.wake_at.is_empty()
    }

    /// True when domain `k` is currently parked.
    pub fn is_parked(&self, k: usize) -> bool {
        self.owed_from[k] != NO_WAKE
    }

    /// Number of currently parked domains.
    pub fn parked_count(&self) -> usize {
        self.parked
    }

    /// Parks domain `k`: its per-cycle bookkeeping is owed from
    /// `owed_from` onward, and its cached next event is `wake_at`
    /// (`None` = no self-scheduled wake, only an external edge can
    /// unpark it). Parking an already-parked domain is a bug.
    pub fn park(&mut self, k: usize, owed_from: Cycle, wake_at: Option<Cycle>) {
        debug_assert!(!self.is_parked(k), "double park of domain {k}");
        debug_assert!(owed_from != NO_WAKE, "owed_from is a real cycle");
        let wake = wake_at.unwrap_or(NO_WAKE);
        self.wake_at[k] = wake;
        self.owed_from[k] = owed_from;
        self.parked += 1;
        self.min_wake = self.min_wake.min(wake);
    }

    /// Unparks domain `k`, returning the number of owed bookkeeping
    /// cycles in `[owed_from, through)`. A no-op returning 0 when `k`
    /// is not parked, so wake edges need not pre-check.
    pub fn unpark(&mut self, k: usize, through: Cycle) -> u64 {
        if !self.is_parked(k) {
            return 0;
        }
        let owed = through.saturating_sub(self.owed_from[k]);
        self.wake_at[k] = NO_WAKE;
        self.owed_from[k] = NO_WAKE;
        self.parked -= 1;
        owed
    }

    /// Cached wake time of parked domain `k` ([`NO_WAKE`] when it has no
    /// self-scheduled event, or when `k` is not parked).
    pub fn wake_at(&self, k: usize) -> Cycle {
        self.wake_at[k]
    }

    /// True when some parked domain *might* have a due wake
    /// (`wake_at <= now`). Based on the memoized lower bound, so it may
    /// answer `true` spuriously after unparks; callers rescan, wake
    /// whatever is really due, then call
    /// [`DomainHorizon::recompute_min`] to tighten the bound.
    pub fn maybe_due(&self, now: Cycle) -> bool {
        self.parked > 0 && self.min_wake <= now
    }

    /// The memoized lower bound on the earliest wake over parked
    /// domains ([`NO_WAKE`] when none is parked or none has a wake).
    /// Stale-low after unparks, exactly as [`DomainHorizon::maybe_due`]
    /// reads it.
    pub fn min_wake(&self) -> Cycle {
        if self.parked == 0 {
            NO_WAKE
        } else {
            self.min_wake
        }
    }

    /// Recomputes the memoized minimum wake over parked domains. Call
    /// after a due-scan; correctness never depends on this (the bound
    /// is only ever stale-*low*), only scan cost does.
    pub fn recompute_min(&mut self) {
        self.min_wake = if self.parked == 0 {
            NO_WAKE
        } else {
            self.wake_at.iter().copied().min().unwrap_or(NO_WAKE)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_horizon_is_none() {
        assert_eq!(Horizon::new().get(), None);
        assert_eq!(Horizon::default().get(), None);
    }

    #[test]
    fn add_takes_minimum() {
        let mut h = Horizon::new();
        h.add(50);
        h.add(30);
        h.add(90);
        assert_eq!(h.get(), Some(30));
    }

    #[test]
    fn merge_ignores_none() {
        let mut h = Horizon::new();
        h.merge(None);
        assert_eq!(h.get(), None);
        h.merge(Some(7));
        h.merge(None);
        assert_eq!(h.get(), Some(7));
        h.merge(Some(3));
        assert_eq!(h.get(), Some(3));
    }

    #[test]
    fn domain_park_unpark_owed_cycles() {
        let mut d = DomainHorizon::new(4);
        assert_eq!(d.parked_count(), 0);
        assert!(!d.is_parked(2));

        d.park(2, 10, Some(50));
        assert!(d.is_parked(2));
        assert_eq!(d.wake_at(2), 50);
        assert_eq!(d.parked_count(), 1);

        // Owed covers [owed_from, through): cycles 10..37.
        assert_eq!(d.unpark(2, 37), 27);
        assert!(!d.is_parked(2));
        assert_eq!(d.parked_count(), 0);

        // Unparking a resident domain is a free no-op.
        assert_eq!(d.unpark(2, 99), 0);

        // A NO_WAKE park only wakes via explicit edges; owed still counts.
        d.park(0, 100, None);
        assert_eq!(d.wake_at(0), NO_WAKE);
        d.recompute_min();
        assert!(!d.maybe_due(u64::MAX - 1), "NO_WAKE never reads as due");
        assert_eq!(d.unpark(0, 100), 0, "immediate wake owes nothing");
    }

    #[test]
    fn domain_maybe_due_is_a_conservative_bound() {
        let mut d = DomainHorizon::new(3);
        d.park(0, 0, Some(20));
        d.park(1, 0, Some(80));
        assert!(!d.maybe_due(19));
        assert!(d.maybe_due(20));

        // Unpark the min holder: the bound goes stale-low — spurious
        // `true` is allowed, `false` while something is due is not.
        d.unpark(0, 20);
        assert!(d.maybe_due(20), "stale-low bound is conservative");
        d.recompute_min();
        assert!(!d.maybe_due(20), "recompute tightens the bound");
        assert!(d.maybe_due(80));
    }

    /// The memoization contract, exercised by a seeded op sequence: the
    /// dirty-flagged cache (`maybe_due` / `wake_at`) must answer
    /// identically to fresh recomputation over a naive reference model
    /// at every step.
    #[test]
    fn domain_memo_matches_fresh_recompute_under_seeded_sequences() {
        const N: usize = 8;
        for seed in [3u64, 0x9e3779b9, 0xdeadbeef] {
            let mut rng = seed;
            let mut next = move || {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                rng >> 33
            };

            let mut d = DomainHorizon::new(N);
            // Reference model: parked[k] = Some((owed_from, wake_at)).
            let mut reference: Vec<Option<(Cycle, Cycle)>> = vec![None; N];
            let mut now: Cycle = 0;

            for _ in 0..2000 {
                let k = (next() as usize) % N;
                match next() % 4 {
                    0 => {
                        // Park a resident domain at a future/no wake.
                        if reference[k].is_none() {
                            let wake = match next() % 3 {
                                0 => None,
                                _ => Some(now + 1 + next() % 64),
                            };
                            d.park(k, now, wake);
                            reference[k] = Some((now, wake.unwrap_or(NO_WAKE)));
                        }
                    }
                    1 => {
                        // Wake edge: unpark through `now`.
                        let owed = d.unpark(k, now);
                        let expect =
                            reference[k].take().map_or(0, |(from, _)| now.saturating_sub(from));
                        assert_eq!(owed, expect, "owed cycles diverged (seed {seed})");
                    }
                    2 => now += next() % 16,
                    _ => d.recompute_min(),
                }

                // Fresh recomputation over the reference model.
                for (k, slot) in reference.iter().enumerate() {
                    let fresh = slot.map_or(NO_WAKE, |(_, wake)| wake);
                    assert_eq!(d.is_parked(k), slot.is_some(), "park state diverged (seed {seed})");
                    if slot.is_some() {
                        assert_eq!(d.wake_at(k), fresh, "cached wake diverged (seed {seed})");
                    }
                }
                let fresh_due = reference.iter().flatten().any(|&(_, wake)| wake <= now);
                if fresh_due {
                    assert!(d.maybe_due(now), "memo missed a due wake (seed {seed})");
                }
                let fresh_min = reference.iter().flatten().map(|&(_, wake)| wake).min();
                let fresh_min = fresh_min.unwrap_or(NO_WAKE);
                assert!(d.min_wake() <= fresh_min, "memo bound above a wake (seed {seed})");
                d.recompute_min();
                assert_eq!(
                    d.maybe_due(now),
                    fresh_due,
                    "recomputed memo diverged from fresh answer (seed {seed})"
                );
                assert_eq!(d.min_wake(), fresh_min, "recomputed bound diverged (seed {seed})");
            }
        }
    }
}
