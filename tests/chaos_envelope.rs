//! The chaos contract, end to end: every mechanism in the zoo survives
//! the full resilience fault curve without violating a single runtime
//! invariant, the governor's fail-safe decays to its degraded-M floor
//! and no further, and the seeded chaos campaign is deterministic,
//! catches its committed failure fixture, and shrinks it to a minimal
//! repro.

use pabst_bench::chaos::{self, Outcome, FIXTURE_INDEX};
use pabst_bench::harness::run_sweep;
use pabst_bench::registry::{self, resilience_curve, MECHANISM_COMBOS};
use pabst_bench::scenarios::read_streamers;
use pabst_simkit::fault::FaultPlan;
use pabst_simkit::invariant::ViolationPolicy;
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::system::{System, SystemBuilder};

// Long enough for the degraded decay (M += M/4 + 1 per stale epoch past
// the staleness window) to climb from m_init to the degraded-M floor.
const EPOCHS: usize = 24;

/// One envelope probe: a 3:1 read-stream contest on the scaled 8-core
/// machine under `plan`, with every invariant family armed under the
/// `Record` policy (an invariant report is the assertion surface here,
/// not a panic).
fn probe(
    governor: pabst_core::governor::GovernorKind,
    arbiter: pabst_dram::ArbiterMode,
    plan: FaultPlan,
) -> System {
    let mut cfg = SystemConfig::scaled_8core();
    cfg.governor = governor;
    cfg.arbiter = arbiter;
    cfg.invariants.policy = ViolationPolicy::Record;
    cfg.invariants.bound_checks = true;
    cfg.invariants.liveness_epochs = chaos::LIVENESS_EPOCHS;
    let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
        .class(3, read_streamers(0, 2, 0))
        .class(1, read_streamers(1, 2, 0))
        .fault_plan(plan)
        .build()
        .expect("valid envelope probe configuration");
    sys.run_epochs(EPOCHS);
    sys
}

#[test]
fn every_zoo_mechanism_survives_the_resilience_curve_without_violations() {
    let monitor = SystemConfig::scaled_8core().monitor;
    for (governor, arbiter) in MECHANISM_COMBOS {
        for (label, plan) in resilience_curve(0) {
            let sys = probe(governor, arbiter, plan);
            let ctx = format!("{}-{} under {label}", governor.label(), arbiter.label());
            // The checker was live and found nothing.
            let inv = sys.invariant_report();
            assert!(inv.checks_run() > 0, "{ctx}: checker never ran");
            assert!(
                inv.is_clean(),
                "{ctx}: {} invariant violations, first: {:?}",
                inv.total_violations(),
                inv.violations().first()
            );
            // Forward progress: every fault on the curve degrades at
            // worst — none may starve the machine outright.
            let m = sys.metrics();
            let total: f64 = (0..m.bw_series.epochs()).map(|e| m.bw_series.epoch_total(e)).sum();
            assert!(total > 0.0, "{ctx}: no bytes delivered over {EPOCHS} epochs");
            // The multiplier never escapes its configured range: the
            // fail-safe decays toward degraded_m, not past the clamps.
            for &mv in &m.m_series {
                assert!(
                    (monitor.m_min..=monitor.m_max).contains(&mv),
                    "{ctx}: M={mv} escaped [{}, {}]",
                    monitor.m_min,
                    monitor.m_max
                );
            }
            // Total SAT starvation drives the fail-safe all the way to
            // its floor and parks it there — the degraded-M contract.
            if label == "sat-drop/1000000ppm" {
                assert!(sys.degraded_epochs() > 0, "{ctx}: fail-safe never engaged");
                let last = *m.m_series.last().expect("epochs ran");
                assert_eq!(
                    last, monitor.degraded_m,
                    "{ctx}: starved governor must park at the degraded-M floor"
                );
            }
        }
    }
}

#[test]
fn chaos_campaign_is_deterministic_catches_and_shrinks_the_fixture() {
    let exp = registry::find("chaos").expect("chaos is registered");
    let grid = (exp.grid)(true);
    assert!(grid.len() >= 64, "quick campaign must span at least 64 cells: {}", grid.len());
    assert!(
        grid.iter().all(|p| p.provenance.is_some()),
        "every chaos cell carries (mechanism_hash, fault_digest) provenance"
    );

    let serial = run_sweep(exp, true, 1, false);
    let parallel = run_sweep(exp, true, 3, false);
    assert_eq!(serial.rendered, parallel.rendered, "campaign report depends on --jobs");
    assert_eq!(serial.reports, parallel.reports, "merged cell reports depend on --jobs");
    assert!(serial.failures.is_empty(), "chaos classifies panics; cells must never fail the sweep");

    // The committed fixture is caught, classified, and is the only
    // tolerated failure in the campaign.
    assert!(
        serial.rendered.contains("fixture outcome: invariant-violation"),
        "{}",
        serial.rendered
    );
    assert!(serial.rendered.contains("unexpected invariant violations: 0"), "{}", serial.rendered);
    assert!(serial.rendered.contains("unexpected panics: 0"), "{}", serial.rendered);
    assert!(serial.rendered.contains("unexpected timeouts: 0"), "{}", serial.rendered);

    // ...and shrunk: three specs in, at most two out (the stall alone
    // reproduces), with a one-command repro.
    assert!(
        serial.rendered.contains("c000 [invariant-violation] 3 spec(s) -> 1 spec(s)"),
        "{}",
        serial.rendered
    );
    assert!(serial.rendered.contains("\"kind\":\"mc-stall\""), "{}", serial.rendered);
    assert!(
        serial.rendered.contains("repro: cargo run --release -p pabst-bench --bin chaos"),
        "{}",
        serial.rendered
    );
}

#[test]
fn fixture_outcome_reproduces_from_campaign_coordinates_alone() {
    // The reproducibility contract in one cell: re-deriving the fixture
    // from (CAMPAIGN_SEED, index) and re-running it yields the same
    // classification — no sweep state involved.
    let cell = chaos::cell_descriptor(FIXTURE_INDEX);
    let (a, _) = chaos::run_cell(&cell, 8, 0);
    let (b, _) = chaos::run_cell(&chaos::cell_descriptor(FIXTURE_INDEX), 8, 0);
    assert_eq!(a.outcome, Outcome::InvariantViolation);
    assert_eq!(b.outcome, a.outcome);
    assert_eq!(b.violations, a.violations);
    assert_eq!(b.faults, a.faults);
}
