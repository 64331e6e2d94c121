//! The runtime invariant checker: conservation, bound, monotonicity and
//! liveness laws evaluated at epoch boundaries, in every build profile.
//!
//! PABST's accounting is exact by construction — pacer credit is bounded
//! by the burst window, per-class virtual clocks only move forward, and
//! every request a controller accepts leaves it exactly once. Those laws
//! are what make the paper's proportional-share claims trustworthy, so
//! the SoC epoch loop re-verifies them at every boundary. This checker is
//! the only place that does so.
//!
//! What happens on a violation is the [`ViolationPolicy`]:
//!
//! * [`ViolationPolicy::Panic`] (the default) panics at the epoch where
//!   the law first failed, with the violation's text — law, component,
//!   epoch, cycle, observed value, limit and a component snapshot. A
//!   drifting counter surfaces as a test failure, and a wedged machine
//!   as a sweep-harness cell failure, not as a silently wrong figure.
//! * [`ViolationPolicy::Record`] keeps running and records the typed
//!   violation, so a chaos campaign can classify the cell and hand its
//!   fault plan to the shrinker.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic and read-only.** The checker observes simulator
//!    state and mutates only its own bookkeeping; arming more laws
//!    (bound checks, a liveness window) leaves a clean run
//!    byte-identical. Integer
//!    arithmetic only — it sits on the hot epoch path of
//!    `System::advance`, which must stay float- and entropy-free.
//! 2. **Cheap.** All checks run once per epoch (tens of thousands of
//!    cycles), never per cycle. Violation snapshots are built lazily —
//!    the `detail` closure runs only when the law actually fails.
//! 3. **Bounded.** At most [`MAX_RECORDED`] violations keep their full
//!    snapshot; beyond that only the total count grows, so a
//!    pathological cell cannot balloon memory.
//!
//! The laws fall into four families (see [`InvariantLaw`]): value
//! conservation (credits charged = settled + outstanding; requests
//! accepted = serviced + queued), upper bounds (queue occupancy vs.
//! capacity, pacer credit vs. burst window, the DPQ worst-case service
//! bound), monotonicity (per-class virtual clocks never run backwards),
//! and liveness (a component with queued work must deliver bytes within
//! a configured number of epochs).

use std::collections::BTreeMap;
use std::fmt;

/// Full-snapshot cap: violations past this count are tallied but not
/// stored, keeping a worst-case cell's memory bounded.
pub const MAX_RECORDED: usize = 64;

/// What the checker does when a law fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViolationPolicy {
    /// Record the violation in the [`InvariantReport`] and keep running
    /// (chaos campaigns, which classify cells by their violations).
    Record,
    /// Panic with the violation's text at the epoch it was observed.
    #[default]
    Panic,
}

/// Knobs for the runtime invariant checker, carried by the system
/// config so campaign runs and golden runs can differ.
///
/// The struct is deliberately **not** part of the mechanism hash:
/// checking is observation, not mechanism, and arming it must leave
/// every golden byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvariantConfig {
    /// Panic on the first violation (the default) or record it and keep
    /// running.
    pub policy: ViolationPolicy,
    /// Promote the DPQ worst-case service bound (and any other
    /// release-gated bound checks) from `debug_assert!` to counted
    /// release-mode checks. Off by default: golden runs skip the
    /// per-grant promise bookkeeping; chaos campaigns switch it on.
    pub bound_checks: bool,
    /// Per-component forward-progress window, in epochs. A component
    /// with pending work that delivers zero bytes for more than this
    /// many consecutive epochs raises a liveness violation. `0`
    /// disables the liveness family (the default — idle-heavy golden
    /// workloads legitimately sit still for long stretches).
    pub liveness_epochs: u64,
}

/// The family a violated law belongs to; campaign reports group by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InvariantLaw {
    /// A conserved quantity leaked or was double-counted
    /// (credited != settled + outstanding).
    Conservation,
    /// A value exceeded its configured or promised ceiling.
    Bound,
    /// A monotone counter ran backwards.
    Monotonicity,
    /// A component with queued work made no forward progress within
    /// its window.
    Liveness,
}

impl InvariantLaw {
    /// Stable lowercase label used in reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            InvariantLaw::Conservation => "conservation",
            InvariantLaw::Bound => "bound",
            InvariantLaw::Monotonicity => "monotonicity",
            InvariantLaw::Liveness => "liveness",
        }
    }
}

/// One violated law, with enough context to reproduce and diagnose it:
/// which law, which component, when, and a lazily-built component
/// snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Law family.
    pub law: InvariantLaw,
    /// Law name, e.g. `"mc requests"` or `"pacer credit"`.
    pub name: &'static str,
    /// Component index the law was evaluated for (pacer/MC/monitor
    /// slot; 0 for system-wide laws).
    pub unit: usize,
    /// Epoch at which the violation was observed.
    pub epoch: u64,
    /// Cycle at which the violation was observed.
    pub cycle: u64,
    /// The offending value.
    pub observed: u64,
    /// The value the law required (ceiling, conserved total, or prior
    /// floor).
    pub limit: u64,
    /// Component snapshot text captured at violation time.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant [{}] {}[{}] violated at epoch {} cycle {}: observed {} vs limit {}",
            self.law.label(),
            self.name,
            self.unit,
            self.epoch,
            self.cycle,
            self.observed,
            self.limit
        )?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// Everything a run's invariant checking produced: how many laws were
/// evaluated, how many failed, and the first [`MAX_RECORDED`] failures
/// in full.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    checks: u64,
    total: u64,
    violations: Vec<InvariantViolation>,
}

impl InvariantReport {
    /// Number of law evaluations performed.
    pub fn checks_run(&self) -> u64 {
        self.checks
    }

    /// Total violations observed, including ones past the snapshot cap.
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// The recorded violations (at most [`MAX_RECORDED`]), in
    /// observation order.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// True when every evaluated law held.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }
}

/// Epoch-boundary law evaluator. The owner calls [`begin_epoch`] once
/// per boundary, then the `check_*` family for each law; results
/// accumulate in the [`InvariantReport`].
///
/// [`begin_epoch`]: InvariantChecker::begin_epoch
#[derive(Debug, Clone, Default)]
pub struct InvariantChecker {
    cfg: InvariantConfig,
    epoch: u64,
    cycle: u64,
    /// Monotone floors keyed by (law name, unit, lane).
    floors: BTreeMap<(&'static str, usize, usize), u64>,
    /// Consecutive no-progress epochs keyed by (law name, unit).
    stalls: BTreeMap<(&'static str, usize), u64>,
    /// Last-seen totals for never-increasing counters, keyed by
    /// (law name, unit).
    totals: BTreeMap<(&'static str, usize), u64>,
    report: InvariantReport,
}

impl InvariantChecker {
    /// A checker honoring `cfg`.
    pub fn new(cfg: InvariantConfig) -> Self {
        Self { cfg, ..Self::default() }
    }

    /// Stamps the epoch/cycle every subsequent violation this boundary
    /// is attributed to.
    pub fn begin_epoch(&mut self, epoch: u64, cycle: u64) {
        self.epoch = epoch;
        self.cycle = cycle;
    }

    /// The accumulated report.
    pub fn report(&self) -> &InvariantReport {
        &self.report
    }

    /// Handles one failed law under the configured policy.
    ///
    /// # Panics
    ///
    /// Under [`ViolationPolicy::Panic`], always, with the violation's
    /// [`Display`](fmt::Display) text.
    fn record(
        &mut self,
        law: InvariantLaw,
        name: &'static str,
        unit: usize,
        observed: u64,
        limit: u64,
        detail: impl FnOnce() -> String,
    ) {
        self.report.total += 1;
        let panics = self.cfg.policy == ViolationPolicy::Panic;
        if !panics && self.report.violations.len() >= MAX_RECORDED {
            return;
        }
        let v = InvariantViolation {
            law,
            name,
            unit,
            epoch: self.epoch,
            cycle: self.cycle,
            observed,
            limit,
            detail: detail(),
        };
        if panics {
            panic!("{v}");
        }
        self.report.violations.push(v);
    }

    /// Bound law: `value <= limit`.
    pub fn check_le(
        &mut self,
        name: &'static str,
        unit: usize,
        value: u64,
        limit: u64,
        detail: impl FnOnce() -> String,
    ) {
        self.report.checks += 1;
        if value > limit {
            self.record(InvariantLaw::Bound, name, unit, value, limit, detail);
        }
    }

    /// Monotonicity law: per (unit, lane), `value` never decreases
    /// across epochs.
    pub fn check_monotone(
        &mut self,
        name: &'static str,
        unit: usize,
        lane: usize,
        value: u64,
        detail: impl FnOnce() -> String,
    ) {
        self.report.checks += 1;
        let floor = self.floors.entry((name, unit, lane)).or_insert(0);
        if value < *floor {
            let limit = *floor;
            self.record(InvariantLaw::Monotonicity, name, unit, value, limit, detail);
        } else {
            *floor = value;
        }
    }

    /// Conservation law: `credited == settled + outstanding`
    /// (saturating, so a broken counter cannot panic the checker).
    pub fn check_conserved(
        &mut self,
        name: &'static str,
        unit: usize,
        credited: u64,
        settled: u64,
        outstanding: u64,
        detail: impl FnOnce() -> String,
    ) {
        self.report.checks += 1;
        let accounted = settled.saturating_add(outstanding);
        if credited != accounted {
            self.record(InvariantLaw::Conservation, name, unit, credited, accounted, detail);
        }
    }

    /// Bound law over a cumulative violation counter owned by a
    /// component (e.g. the DPQ arbiter's promise misses): any growth
    /// since the previous epoch is a violation here, carrying the
    /// component's own count forward into the report.
    pub fn check_counter_still(
        &mut self,
        name: &'static str,
        unit: usize,
        total: u64,
        detail: impl FnOnce() -> String,
    ) {
        self.report.checks += 1;
        let prev = self.totals.entry((name, unit)).or_insert(0);
        if total > *prev {
            let limit = *prev;
            *self.totals.entry((name, unit)).or_insert(0) = total;
            self.record(InvariantLaw::Bound, name, unit, total, limit, detail);
        }
    }

    /// Liveness law: a unit reporting `has_work` without
    /// `made_progress` for more than `cfg.liveness_epochs` consecutive
    /// epochs is wedged. Disabled when the configured window is 0.
    pub fn check_progress(
        &mut self,
        name: &'static str,
        unit: usize,
        made_progress: bool,
        has_work: bool,
        detail: impl FnOnce() -> String,
    ) {
        if self.cfg.liveness_epochs == 0 {
            return;
        }
        self.report.checks += 1;
        let stalled = self.stalls.entry((name, unit)).or_insert(0);
        if made_progress || !has_work {
            *stalled = 0;
            return;
        }
        *stalled += 1;
        if *stalled > self.cfg.liveness_epochs {
            let observed = *stalled;
            let limit = self.cfg.liveness_epochs;
            // Reset so a permanently wedged unit reports once per
            // window, not once per epoch — keeps the report readable
            // and the total proportional to how long the wedge lasted.
            *self.stalls.entry((name, unit)).or_insert(0) = 0;
            self.record(InvariantLaw::Liveness, name, unit, observed, limit, detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chk(liveness: u64) -> InvariantChecker {
        InvariantChecker::new(InvariantConfig {
            policy: ViolationPolicy::Record,
            bound_checks: true,
            liveness_epochs: liveness,
        })
    }

    /// A checker under the default (`Panic`) policy, stamped at epoch 4.
    fn panicking() -> InvariantChecker {
        let mut c = InvariantChecker::new(InvariantConfig::default());
        c.begin_epoch(4, 80_000);
        c
    }

    /// Runs `law` against a fresh panicking checker and returns the
    /// panic text, failing the test if nothing panicked.
    fn panic_text(law: impl FnOnce(&mut InvariantChecker)) -> String {
        let mut c = panicking();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| law(&mut c)))
            .expect_err("the violated law must panic under the default policy");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn panic_policy_names_a_bound_violation() {
        let text = panic_text(|c| {
            c.check_le("pacer credit", 3, 11, 10, || "period=16".to_string());
        });
        assert!(text.starts_with("invariant [bound] pacer credit[3]"), "{text}");
        assert!(text.contains("epoch 4 cycle 80000"), "{text}");
        assert!(text.contains("observed 11 vs limit 10 (period=16)"), "{text}");
    }

    #[test]
    fn panic_policy_names_a_monotonicity_violation() {
        let text = panic_text(|c| {
            c.check_monotone("mc virtual clock", 1, 2, 7, String::new);
            c.check_monotone("mc virtual clock", 1, 2, 6, || "class=2".to_string());
        });
        assert!(text.starts_with("invariant [monotonicity] mc virtual clock[1]"), "{text}");
        assert!(text.contains("observed 6 vs limit 7 (class=2)"), "{text}");
    }

    #[test]
    fn panic_policy_names_a_conservation_violation() {
        let text = panic_text(|c| {
            c.check_conserved("mc requests", 0, 100, 90, 10, String::new);
            c.check_conserved("mc requests", 0, 100, 90, 9, || "pending=9".to_string());
        });
        assert!(text.starts_with("invariant [conservation] mc requests[0]"), "{text}");
        assert!(text.contains("observed 100 vs limit 99 (pending=9)"), "{text}");
    }

    #[test]
    fn panic_policy_names_a_sat_duty_violation() {
        // The SAT duty cycle is saturated epochs over total epochs; a
        // numerator past the denominator is not a fraction.
        let text = panic_text(|c| {
            c.check_le("sat duty", 0, 2, 2, String::new);
            c.check_le("sat duty", 0, 3, 2, String::new);
        });
        assert!(text.starts_with("invariant [bound] sat duty[0]"), "{text}");
        assert!(text.ends_with("observed 3 vs limit 2"), "{text}");
    }

    #[test]
    fn panic_policy_passes_a_bound_at_its_limit() {
        let mut c = panicking();
        c.check_le("pacer credit", 3, 10, 10, String::new);
        assert_eq!(c.report().checks_run(), 1);
        assert!(c.report().is_clean());
    }

    #[test]
    fn panic_policy_accepts_a_nondecreasing_series() {
        let mut c = panicking();
        for v in [1, 1, 2, 5, 5, 9] {
            c.check_monotone("mc virtual clock", 0, 2, v, String::new);
        }
        assert_eq!(c.report().checks_run(), 6);
        assert!(c.report().is_clean());
    }

    #[test]
    fn panic_policy_keeps_monotone_lanes_and_units_apart() {
        let mut c = panicking();
        c.check_monotone("mc virtual clock", 0, 0, 100, String::new);
        c.check_monotone("mc virtual clock", 0, 1, 5, String::new); // other lane
        c.check_monotone("mc virtual clock", 1, 0, 5, String::new); // other unit
        assert!(c.report().is_clean());
    }

    #[test]
    fn panic_policy_passes_a_balanced_book() {
        let mut c = panicking();
        c.check_conserved("mc requests", 0, 100, 90, 10, String::new);
        assert_eq!(c.report().checks_run(), 1);
        assert!(c.report().is_clean());
    }

    #[test]
    fn bound_and_conservation_record_typed_violations() {
        let mut c = chk(0);
        c.begin_epoch(7, 140_000);
        c.check_le("queue depth", 2, 65, 64, || "cap 64".to_string());
        c.check_conserved("mc requests", 1, 10, 4, 5, || "pending 5".to_string());
        c.check_conserved("mc requests", 0, 10, 4, 6, String::new);
        let r = c.report();
        assert_eq!(r.checks_run(), 3);
        assert_eq!(r.total_violations(), 2);
        let v = &r.violations()[0];
        assert_eq!(v.law, InvariantLaw::Bound);
        assert_eq!((v.name, v.unit, v.epoch, v.cycle), ("queue depth", 2, 7, 140_000));
        assert_eq!((v.observed, v.limit), (65, 64));
        assert_eq!(r.violations()[1].law, InvariantLaw::Conservation);
        assert_eq!(r.violations()[1].limit, 9, "settled + outstanding");
    }

    #[test]
    fn monotone_tracks_per_lane_floors() {
        let mut c = chk(0);
        c.check_monotone("vclock", 0, 0, 5, String::new);
        c.check_monotone("vclock", 0, 1, 9, String::new);
        c.check_monotone("vclock", 0, 0, 5, String::new);
        c.check_monotone("vclock", 0, 0, 4, String::new);
        c.check_monotone("vclock", 0, 1, 10, String::new);
        let r = c.report();
        assert_eq!(r.total_violations(), 1);
        assert_eq!((r.violations()[0].observed, r.violations()[0].limit), (4, 5));
    }

    #[test]
    fn counter_still_flags_growth_once_per_step() {
        let mut c = chk(0);
        c.check_counter_still("dpq bound", 0, 0, String::new);
        c.check_counter_still("dpq bound", 0, 0, String::new);
        c.check_counter_still("dpq bound", 0, 2, String::new);
        c.check_counter_still("dpq bound", 0, 2, String::new);
        c.check_counter_still("dpq bound", 0, 3, String::new);
        let r = c.report();
        assert_eq!(r.total_violations(), 2);
        assert_eq!((r.violations()[0].observed, r.violations()[0].limit), (2, 0));
        assert_eq!((r.violations()[1].observed, r.violations()[1].limit), (3, 2));
    }

    #[test]
    fn liveness_fires_after_window_and_resets_on_progress() {
        let mut c = chk(3);
        for epoch in 0..3 {
            c.begin_epoch(epoch, epoch * 1000);
            c.check_progress("mc bytes", 0, false, true, String::new);
        }
        assert!(c.report().is_clean(), "within the window");
        c.begin_epoch(3, 3000);
        c.check_progress("mc bytes", 0, false, true, String::new);
        assert_eq!(c.report().total_violations(), 1);
        assert_eq!(c.report().violations()[0].law, InvariantLaw::Liveness);
        // Progress (or an empty queue) resets the stall counter.
        c.check_progress("mc bytes", 0, true, true, String::new);
        for _ in 0..3 {
            c.check_progress("mc bytes", 0, false, true, String::new);
        }
        assert_eq!(c.report().total_violations(), 1, "window restarts after progress");
    }

    #[test]
    fn liveness_window_zero_disables_the_family() {
        let mut c = chk(0);
        for _ in 0..100 {
            c.check_progress("mc bytes", 0, false, true, String::new);
        }
        assert_eq!(c.report().checks_run(), 0);
        assert!(c.report().is_clean());
    }

    #[test]
    fn snapshot_recording_is_capped_but_counting_is_not() {
        let mut c = chk(0);
        for i in 0..(MAX_RECORDED as u64 + 10) {
            c.check_le("cap", 0, i + 1, 0, || format!("snap {i}"));
        }
        let r = c.report();
        assert_eq!(r.total_violations(), MAX_RECORDED as u64 + 10);
        assert_eq!(r.violations().len(), MAX_RECORDED);
    }

    #[test]
    fn violation_display_names_law_component_and_values() {
        let mut c = chk(0);
        c.begin_epoch(4, 80_000);
        c.check_le("pacer credit", 3, 900, 512, || "period=16".to_string());
        let text = c.report().violations()[0].to_string();
        assert!(text.contains("[bound] pacer credit[3]"), "{text}");
        assert!(text.contains("epoch 4 cycle 80000"), "{text}");
        assert!(text.contains("observed 900 vs limit 512"), "{text}");
        assert!(text.contains("period=16"), "{text}");
    }

    #[test]
    fn detail_closure_runs_only_on_violation() {
        let mut c = chk(0);
        c.check_le("cheap", 0, 1, 2, || unreachable!("law holds; snapshot must not build"));
        assert!(c.report().is_clean());
    }
}
