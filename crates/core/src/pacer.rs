//! The pacer: per-source enforcement of the governor's request period
//! (§III-B3).
//!
//! The pacer tracks two timestamps, `C_next` (the next cycle the cache may
//! issue a request) and `C_now` (the current cycle). A request may issue
//! when `C_next <= C_now`; each issue advances `C_next` by the source
//! period. Idleness builds *credit* — `C_next` falls behind `C_now` — so
//! bursts proceed unthrottled, but credit is bounded: `C_next` is never
//! allowed more than `burst × period` cycles behind `C_now` (the paper's
//! `N = 16` requests of burst).
//!
//! Two accounting corrections keep the L2-side pacing aligned with actual
//! DRAM bandwidth ("Accounting for Cache Filtering"):
//!
//! * a request that turned out to *hit* in the shared L3 never reached
//!   memory, so its charge is refunded ([`Pacer::on_shared_hit`]);
//! * a demand fill that forced a dirty L3 eviction consumed extra write
//!   bandwidth, so one additional charge is applied
//!   ([`Pacer::on_writeback`]).
//!
//! Both settlements take the amount *charged at issue time* (the caller
//! records it, see `soc`'s tile bookkeeping): the governor may have
//! reprogrammed the period between issue and completion, and settling
//! with the current period would refund or charge the wrong amount.

use pabst_simkit::Cycle;

/// Per-source request-rate enforcement with bounded burst credit.
///
/// # Examples
///
/// ```
/// use pabst_core::pacer::Pacer;
///
/// let mut p = Pacer::new(100);
/// assert!(p.try_issue(0));       // allowed: C_next starts at C_now
/// assert!(!p.try_issue(50));     // throttled: C_next is now 100
/// assert!(p.try_issue(100));     // period elapsed
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pacer {
    /// Next cycle a request may issue.
    c_next: Cycle,
    /// Current per-request period in cycles (0 = unthrottled).
    period: Cycle,
    /// Maximum requests' worth of credit accumulable during idleness.
    burst: u64,
    issued: u64,
    throttled: u64,
}

/// Default burst window: up to 16 requests proceed unthrottled after
/// underutilization, per the paper's evaluation (`N = stride × 16`).
pub const DEFAULT_BURST: u64 = 16;

impl Pacer {
    /// Creates a pacer with the given initial period and the paper's
    /// default burst window of 16 requests.
    pub fn new(period: Cycle) -> Self {
        Self::with_burst(period, DEFAULT_BURST)
    }

    /// Creates a pacer with an explicit burst window (in requests).
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero; a zero window would forbid the very first
    /// request.
    pub fn with_burst(period: Cycle, burst: u64) -> Self {
        assert!(burst > 0, "burst window must allow at least one request");
        Self { c_next: 0, period, burst, issued: 0, throttled: 0 }
    }

    /// The currently enforced period.
    pub fn period(&self) -> Cycle {
        self.period
    }

    /// Updates the enforced period at an epoch boundary.
    ///
    /// Also re-clamps outstanding credit to the *new* burst bound so a
    /// period increase cannot legitimize a stale pile of credit.
    pub fn set_period(&mut self, period: Cycle, now: Cycle) {
        self.period = period;
        self.clamp_credit(now);
    }

    /// True when a request may issue at cycle `now` (without issuing).
    pub fn may_issue(&self, now: Cycle) -> bool {
        self.period == 0 || self.c_next <= now
    }

    /// Attempts to issue a request at cycle `now`. On success the charge
    /// `C_next += period` is applied and `true` is returned; otherwise the
    /// request is NACKed (`false`) and a throttle event is counted.
    pub fn try_issue(&mut self, now: Cycle) -> bool {
        self.clamp_credit(now);
        if self.may_issue(now) {
            // Charge from max(C_next, clamped floor); if deeply in credit,
            // charges accumulate from the (clamped) past.
            self.c_next = self.c_next.saturating_add(self.period);
            self.issued += 1;
            true
        } else {
            self.throttled += 1;
            false
        }
    }

    /// Refunds `charged` cycles: the request was serviced by the shared
    /// cache and never consumed memory bandwidth. `charged` is the amount
    /// applied when the request issued (the period *then*, not now), and
    /// the refund is re-clamped so it cannot mint credit beyond the burst
    /// window.
    pub fn on_shared_hit(&mut self, charged: Cycle, now: Cycle) {
        self.c_next = self.c_next.saturating_sub(charged);
        self.clamp_credit(now);
    }

    /// Charges `charged` extra cycles: the request's fill evicted a dirty
    /// shared-cache line, generating a memory write on this class's
    /// behalf. `charged` is the issue-time charge; pushing `C_next`
    /// further into the future needs no clamp.
    pub fn on_writeback(&mut self, charged: Cycle) {
        self.c_next = self.c_next.saturating_add(charged);
    }

    /// Fault-injection hook (the `credit-leak` kind of
    /// `pabst_simkit::fault`): drains `cycles` of accumulated credit by
    /// pushing `C_next` that far into the future. Behaves like an
    /// unearned writeback charge — the source pays for bandwidth it never
    /// consumed — so the leak is bounded only by how often the fault
    /// plan fires, never by the burst window.
    pub fn leak_credit(&mut self, cycles: Cycle) {
        self.c_next = self.c_next.saturating_add(cycles);
    }

    /// A read-only view of the pacer for observability: current period,
    /// clamped credit at `now`, the credit ceiling, and the issue/NACK
    /// counters. Does not mutate the pacer (the clamp is applied to the
    /// reported value only).
    pub fn snapshot(&self, now: Cycle) -> PacerSnapshot {
        PacerSnapshot {
            period: self.period,
            credit: self.credit_at(now).min(self.burst_window()),
            burst_window: self.burst_window(),
            issued: self.issued,
            throttled: self.throttled,
        }
    }

    /// The earliest cycle at which [`Pacer::try_issue`] can succeed: `0`
    /// when unthrottled (period zero), otherwise `C_next`. A value less
    /// than or equal to the current cycle means "right now". This is the
    /// pacer's contribution to a fast-forward horizon: while the head of
    /// a tile's injection queue is NACKed, nothing about the pacer
    /// changes until this cycle except the per-cycle throttle counter,
    /// which the skip path accrues via [`Pacer::note_throttled`].
    pub fn next_issue_at(&self) -> Cycle {
        if self.period == 0 {
            0
        } else {
            self.c_next
        }
    }

    /// Batch-accrues `n` throttle events without consulting the clock —
    /// exactly what `n` consecutive NACKing [`Pacer::try_issue`] calls
    /// would have recorded. Only valid over a window in which every one
    /// of those calls would have NACKed (i.e. the window ends before
    /// [`Pacer::next_issue_at`]); while throttled, the lazy credit clamp
    /// is a no-op, so the counter is the pacer's only per-cycle state.
    pub fn note_throttled(&mut self, n: u64) {
        self.throttled += n;
    }

    /// Requests issued (admitted) so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Requests NACKed so far.
    pub fn throttled(&self) -> u64 {
        self.throttled
    }

    /// Cycles of accumulated credit at `now` (how far `C_next` trails
    /// `C_now`), after clamping.
    pub fn credit(&mut self, now: Cycle) -> Cycle {
        self.clamp_credit(now);
        now.saturating_sub(self.c_next)
    }

    /// Cycles `C_next` currently trails `now`, *without* applying the lazy
    /// clamp — the raw view the invariant checker inspects right after
    /// an epoch-boundary reprogramming (which clamps).
    pub fn credit_at(&self, now: Cycle) -> Cycle {
        now.saturating_sub(self.c_next)
    }

    /// The credit ceiling in cycles, `(burst - 1) × period`: the largest
    /// clamped credit [`Pacer::clamp_credit`] may leave behind.
    pub fn burst_window(&self) -> Cycle {
        (self.burst - 1).saturating_mul(self.period)
    }

    /// Enforces the bounded-credit rule: `C_next >= now - (burst-1) × period`,
    /// so that exactly `burst` back-to-back requests can issue after long
    /// idleness (the request at the window boundary itself is the burst's
    /// final member).
    fn clamp_credit(&mut self, now: Cycle) {
        let window = (self.burst - 1).saturating_mul(self.period);
        let floor = now.saturating_sub(window);
        if self.c_next < floor {
            self.c_next = floor;
        }
    }
}

/// Point-in-time view of one pacer, as reported by [`Pacer::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacerSnapshot {
    /// Currently enforced per-request period in cycles (0 = unthrottled).
    pub period: Cycle,
    /// Accumulated credit in cycles, clamped to the burst window.
    pub credit: Cycle,
    /// The credit ceiling, `(burst - 1) × period`.
    pub burst_window: Cycle,
    /// Requests admitted so far.
    pub issued: u64,
    /// Requests NACKed so far.
    pub throttled: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_request_always_allowed() {
        let mut p = Pacer::new(1000);
        assert!(p.try_issue(0));
    }

    #[test]
    fn enforces_average_period() {
        let mut p = Pacer::new(10);
        let mut issued = 0;
        for now in 0..1000 {
            if p.try_issue(now) {
                issued += 1;
            }
        }
        // 1000 cycles / period 10 = 100 requests, plus up to `burst` initial credit.
        assert!(issued <= 100 + DEFAULT_BURST as usize as u64);
        assert!(issued >= 100, "got {issued}");
    }

    #[test]
    fn zero_period_is_unthrottled() {
        let mut p = Pacer::new(0);
        for now in 0..100 {
            assert!(p.try_issue(now));
        }
        assert_eq!(p.issued(), 100);
        assert_eq!(p.throttled(), 0);
    }

    #[test]
    fn idle_builds_bounded_credit() {
        let mut p = Pacer::with_burst(10, 4);
        assert!(p.try_issue(0));
        // Long idle: credit must cap at (burst-1)*period = 30 cycles.
        assert_eq!(p.credit(1_000_000), 30);
        // Burst of exactly `burst` requests proceeds, then throttled.
        let now = 1_000_000;
        for _ in 0..4 {
            assert!(p.try_issue(now));
        }
        assert!(!p.try_issue(now), "5th back-to-back request must be NACKed");
    }

    #[test]
    fn burst_credit_respects_period() {
        let mut p = Pacer::with_burst(100, 2);
        let _ = p.try_issue(0);
        // At cycle 10_000, floor = 10_000 - (2-1)*100.
        assert_eq!(p.credit(10_000), 100);
    }

    #[test]
    fn shared_hit_refunds_charge() {
        let mut p = Pacer::new(100);
        assert!(p.try_issue(0)); // c_next = 100
        assert!(!p.try_issue(1));
        p.on_shared_hit(100, 1); // refund the issue-time charge: c_next back to 0
        assert!(p.try_issue(1));
    }

    #[test]
    fn writeback_adds_charge() {
        let mut p = Pacer::new(100);
        assert!(p.try_issue(0)); // c_next = 100
        p.on_writeback(100); // c_next = 200
        assert!(!p.try_issue(150));
        assert!(p.try_issue(200));
    }

    #[test]
    fn settlement_uses_issue_time_charge_across_reprogramming() {
        // Issue at period 100, then the governor reprograms to 10 before
        // the response returns. The refund must be the 100 charged at
        // issue, not 10 — and must not mint credit past the window.
        let mut p = Pacer::with_burst(100, 2);
        assert!(p.try_issue(0)); // c_next = 100, charged 100
        p.set_period(10, 0);
        p.on_shared_hit(100, 0);
        assert!(p.credit_at(0) <= p.burst_window(), "refund clamped to window");

        // Writeback side: charge recorded at issue (100) lands in full
        // even though the current period is 10.
        let mut q = Pacer::with_burst(100, 2);
        assert!(q.try_issue(0)); // c_next = 100, charged 100
        q.set_period(10, 0);
        q.on_writeback(100); // c_next = 200
        assert!(!q.try_issue(150));
        assert!(q.try_issue(200));
    }

    #[test]
    fn snapshot_reports_clamped_credit_without_mutation() {
        let mut p = Pacer::with_burst(10, 4);
        assert!(p.try_issue(0));
        let before = p.clone();
        let snap = p.snapshot(1_000_000);
        assert_eq!(snap.credit, p.burst_window(), "long idle reads as full window");
        assert_eq!(snap.period, 10);
        assert_eq!(snap.burst_window, 30);
        assert_eq!(snap.issued, 1);
        assert_eq!(snap.throttled, 0);
        assert_eq!(p, before, "snapshot must not clamp the pacer itself");
    }

    #[test]
    fn throttle_counter_counts_nacks() {
        let mut p = Pacer::new(50);
        let _ = p.try_issue(0);
        for now in 1..50 {
            assert!(!p.try_issue(now));
        }
        assert_eq!(p.throttled(), 49);
        assert_eq!(p.issued(), 1);
    }

    #[test]
    fn batched_throttles_match_naive_nack_loop() {
        // A throttled window stepped naively and one fast-forwarded with
        // note_throttled must leave bit-identical pacers.
        let mut naive = Pacer::new(50);
        let mut skipped = Pacer::new(50);
        assert!(naive.try_issue(0));
        assert!(skipped.try_issue(0));
        assert_eq!(skipped.next_issue_at(), 50);
        for now in 1..50 {
            assert!(!naive.try_issue(now));
        }
        skipped.note_throttled(49);
        assert_eq!(naive, skipped);
        assert!(naive.try_issue(50));
        assert!(skipped.try_issue(50));
        assert_eq!(naive, skipped);
    }

    #[test]
    fn next_issue_at_is_zero_when_unthrottled() {
        let mut p = Pacer::new(0);
        assert_eq!(p.next_issue_at(), 0);
        let _ = p.try_issue(100);
        assert_eq!(p.next_issue_at(), 0);
    }

    #[test]
    fn set_period_takes_effect_and_reclamps() {
        let mut p = Pacer::with_burst(1000, 2);
        let _ = p.try_issue(0); // c_next = 1000
                                // Shrink period drastically; stale credit floor must follow new window.
        p.set_period(10, 500);
        // c_next was 1000; floor is 500-20=480, so c_next stays 1000: still throttled.
        assert!(!p.try_issue(500));
        assert!(p.try_issue(1000));
    }

    #[test]
    fn leak_credit_pushes_the_issue_horizon_out() {
        let mut p = Pacer::new(100);
        assert!(p.try_issue(0)); // c_next = 100
        p.leak_credit(250); // c_next = 350
        assert!(!p.try_issue(100));
        assert!(!p.try_issue(349));
        assert!(p.try_issue(350));
    }

    #[test]
    fn rate_ratio_matches_period_ratio() {
        // Two pacers with 3:1 period ratio admit requests in 1:3 ratio when
        // both are continuously backlogged.
        let mut fast = Pacer::new(10);
        let mut slow = Pacer::new(30);
        let (mut nf, mut ns) = (0u64, 0u64);
        for now in 0..30_000 {
            if fast.try_issue(now) {
                nf += 1;
            }
            if slow.try_issue(now) {
                ns += 1;
            }
        }
        let ratio = nf as f64 / ns as f64;
        assert!((ratio - 3.0).abs() < 0.1, "ratio={ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_burst_panics() {
        let _ = Pacer::with_burst(10, 0);
    }
}
