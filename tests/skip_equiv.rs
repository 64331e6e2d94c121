//! The cycle-skipping correctness contract, end to end: for every cell of
//! a (configuration × workload × fault plan) matrix, a run with
//! event-horizon fast-forward enabled and one stepped naively must emit
//! byte-identical report JSON and trace JSONL, finish on the same cycle,
//! and end with the same per-tile core and L2 counters — the skip is an
//! execution strategy, never a model change.
//!
//! The matrix deliberately covers the paths where a wrong horizon would
//! diverge: every regulation mode (pacer reprogramming on and off),
//! pointer-chasing memory stalls (the deepest quiescent windows), write
//! drains, skewed-controller traffic, per-MC regulation, L3-way
//! overrides, a liveness window, the distance-modelled mesh network at
//! 64 and 256 tiles (staged link arbitration), idle-heavy mesh mixes
//! where tile-local parking (not the global jump) does the work, partial
//! skip under the DPQ arbiter (some tiles parked while others keep the
//! controllers live), tiles parked on a full L2 MSHR table (stalled
//! stores and loads retried every cycle), controllers parked between
//! their own events while dirty L3 evictions move their write queues
//! across the drain marks, and each fault kind —
//! including the required mc-stall window (a frozen controller must
//! contribute no horizon events and take no occupancy samples, and must
//! never be parked) and epoch-skew cell (stale pacer periods must
//! throttle identically across a skip).

use std::cell::RefCell;
use std::rc::Rc;

use pabst_bench::scenarios::region_for;
use pabst_cpu::{LoadId, Op, Workload};
use pabst_simkit::fault::{FaultKind, FaultPlan, FaultSpec, PPM_SCALE};
use pabst_simkit::trace::{EpochRecord, TraceSink};
use pabst_soc::config::{RegulationMode, SystemConfig};
use pabst_soc::report::SystemReport;
use pabst_soc::system::SystemBuilder;
use pabst_workloads::{ChaserGen, Region, SkewedStreamGen, StreamGen};

/// Captures the trace exactly as a JSONL file would store it.
#[derive(Debug, Clone, Default)]
struct Jsonl(Rc<RefCell<String>>);

impl TraceSink for Jsonl {
    fn record(&mut self, rec: &EpochRecord) {
        let mut s = self.0.borrow_mut();
        s.push_str(&rec.to_json());
        s.push('\n');
    }
}

fn region() -> Region {
    Region::new(0, 1 << 16)
}

fn streams(n: usize, salt: u64) -> Vec<Box<dyn Workload>> {
    (0..n).map(|i| Box::new(StreamGen::reads(region(), salt + i as u64)) as _).collect()
}

fn write_streams(n: usize, salt: u64) -> Vec<Box<dyn Workload>> {
    (0..n).map(|i| Box::new(StreamGen::writes(region(), salt + i as u64)) as _).collect()
}

/// Write streamers on the experiments' region bases: every stream starts
/// in L3 set 0 and walks the same sets, so the streams evict each other's
/// dirty lines and the controllers see a steady writeback flow, as on
/// `fig01`'s stream mix.
fn aligned_write_streams(class: usize, n: usize, salt: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| Box::new(StreamGen::writes(region_for(class, i, 1 << 20), salt + i as u64)) as _)
        .collect()
}

fn compute_streams(n: usize, salt: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| Box::new(StreamGen::reads(region(), salt + i as u64).with_compute(8)) as _)
        .collect()
}

fn chasers(n: usize, salt: u64) -> Vec<Box<dyn Workload>> {
    (0..n).map(|i| Box::new(ChaserGen::new(region(), 4, salt + i as u64)) as _).collect()
}

fn skewed(n: usize, mcs: usize, salt: u64) -> Vec<Box<dyn Workload>> {
    (0..n).map(|i| Box::new(SkewedStreamGen::new(region(), 0, mcs, salt + i as u64)) as _).collect()
}

/// Stores and independent loads in turn, each to the next line of the
/// test region: with few L2 MSHRs the misses hold the whole table long
/// before the core reaches its MLP bound, so Ready loads stall too.
struct StoreLoadGen {
    region: Region,
    n: u64,
    salt: u64,
}

impl Workload for StoreLoadGen {
    fn next_op(&mut self) -> Op {
        self.n += 1;
        let addr = self.region.line_addr(self.n);
        match self.n % 3 {
            0 => Op::Compute(2),
            1 => Op::Store { addr },
            _ => Op::Load { addr, id: LoadId(self.salt << 40 | self.n), dep: None },
        }
    }

    fn name(&self) -> &str {
        "store-load"
    }
}

fn store_loads(n: usize, salt: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| Box::new(StoreLoadGen { region: region(), n: 0, salt: salt + i as u64 }) as _)
        .collect()
}

fn window(kind: FaultKind, target: u64, from: u64, until: u64, magnitude: u64) -> FaultSpec {
    FaultSpec {
        kind,
        target,
        from_epoch: from,
        until_epoch: until,
        prob_ppm: PPM_SCALE,
        magnitude,
        seed: 11,
    }
}

fn always(kind: FaultKind, target: u64, magnitude: u64) -> FaultSpec {
    window(kind, target, 0, u64::MAX, magnitude)
}

fn plan(specs: impl IntoIterator<Item = FaultSpec>) -> FaultPlan {
    let mut p = FaultPlan::new();
    for s in specs {
        p.push(s);
    }
    p
}

/// One matrix cell: a name and a builder factory (called once per A/B arm
/// because workload boxes are single-use).
type Cell = (&'static str, Box<dyn Fn() -> SystemBuilder>);

fn cells() -> Vec<Cell> {
    let small = SystemConfig::small_test;
    let two_mc = || {
        let mut c = SystemConfig::small_test();
        c.mcs = 2;
        c
    };
    let cell = |name: &'static str, mk: Box<dyn Fn() -> SystemBuilder>| (name, mk);
    vec![
        cell(
            "pabst/streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 0))
                    .class(1, streams(2, 100))
            }),
        ),
        cell(
            "none/streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::None)
                    .class(3, streams(2, 1))
                    .class(1, streams(2, 101))
            }),
        ),
        cell(
            "source-only/streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::SourceOnly)
                    .class(3, streams(2, 2))
                    .class(1, streams(2, 102))
            }),
        ),
        cell(
            "target-only/streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::TargetOnly)
                    .class(3, streams(2, 3))
                    .class(1, streams(2, 103))
            }),
        ),
        cell(
            "pabst/chasers",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst).class(1, chasers(2, 4))
            }),
        ),
        cell(
            "pabst/chasers-vs-streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, chasers(2, 5))
                    .class(1, streams(2, 105))
            }),
        ),
        cell(
            "pabst/write-streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, write_streams(2, 6))
                    .class(1, streams(2, 106))
            }),
        ),
        cell(
            "pabst/write-streams-2-mshrs",
            Box::new(move || {
                // Two L2 MSHRs: stores stall on a full table nearly every
                // cycle, so tiles park until their next fill.
                let mut c = small();
                c.l2_mshrs = 2;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, write_streams(2, 34))
                    .class(1, write_streams(2, 134))
            }),
        ),
        cell(
            "pabst/dirty-l3-writebacks",
            Box::new(move || {
                // A 32 KiB L3 that four aligned write streams overflow
                // within the first epoch: dirty evictions keep the write
                // queues crossing their drain marks while reads queue
                // behind them, and four controllers share the load lightly
                // enough to park between their own events. A controller
                // that slept through a pending drain-mode flip diverges
                // here.
                let mut c = small();
                c.mcs = 4;
                c.l3 = pabst_cache::CacheConfig::with_capacity(32 * 1024, 16);
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, aligned_write_streams(0, 2, 36))
                    .class(1, aligned_write_streams(1, 2, 136))
            }),
        ),
        cell(
            "pabst/store-load-4-mshrs",
            Box::new(move || {
                // Misses fill the four MSHRs while the core still has MLP
                // room, so Ready loads stall as well as stores: the load
                // side of the stall predicate.
                let mut c = small();
                c.l2_mshrs = 4;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, store_loads(2, 35))
                    .class(1, store_loads(2, 135))
            }),
        ),
        cell(
            "pabst/compute-streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, compute_streams(2, 7))
                    .class(1, chasers(1, 107))
            }),
        ),
        cell(
            "pabst/skewed-two-mc",
            Box::new(move || {
                SystemBuilder::new(two_mc(), RegulationMode::Pabst)
                    .class(3, skewed(2, 2, 8))
                    .class(1, streams(2, 108))
            }),
        ),
        cell(
            "per-mc-regulation/streams",
            Box::new(move || {
                let mut c = two_mc();
                c.per_mc_regulation = true;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, skewed(2, 2, 9))
                    .class(1, streams(2, 109))
            }),
        ),
        cell(
            "scaled-8core/streams",
            Box::new(move || {
                let mut c = SystemConfig::scaled_8core();
                c.epoch_cycles = 4_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 10))
                    .class(1, chasers(2, 110))
            }),
        ),
        cell(
            "l3-ways-override/streams",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 12))
                    .l3_ways(0, 4)
                    .class(1, streams(2, 112))
                    .l3_ways(4, 12)
            }),
        ),
        cell(
            "watchdog-armed/streams",
            Box::new(move || {
                let mut c = small();
                c.invariants.liveness_epochs = 4;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 13))
                    .class(1, streams(2, 113))
            }),
        ),
        cell(
            "mesh-64/streams",
            Box::new(move || {
                // The distance-modelled mesh: staged requests behind a
                // bounded controller link must still report exact horizons.
                let mut c = SystemConfig::mesh_64();
                c.epoch_cycles = 2_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 23))
                    .class(1, chasers(2, 123))
            }),
        ),
        cell(
            "mesh-256x16/streams",
            Box::new(move || {
                let mut c = SystemConfig::mesh_256x16();
                c.epoch_cycles = 1_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 24))
                    .class(1, streams(2, 124))
            }),
        ),
        cell(
            "mesh-64/idle-heavy",
            Box::new(move || {
                // Mostly-wedged mesh: every declared tile walks a
                // dependence chain, so tile-local parking (not the global
                // jump) carries almost all of the elided work while the
                // network and controllers step naively underneath.
                let mut c = SystemConfig::mesh_64();
                c.epoch_cycles = 2_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, chasers(2, 30))
                    .class(1, chasers(2, 130))
            }),
        ),
        cell(
            "mesh-256x16/idle-heavy",
            Box::new(move || {
                let mut c = SystemConfig::mesh_256x16();
                c.epoch_cycles = 1_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, chasers(2, 31))
                    .class(1, chasers(2, 131))
            }),
        ),
        cell(
            "fault/mc-stall-tile-local",
            Box::new(move || {
                // A frozen mesh controller while tiles park locally: the
                // stalled MC must never be parked (its queues are live but
                // inert) and waking tiles must see identical fill timing.
                let mut c = SystemConfig::mesh_64();
                c.epoch_cycles = 2_000;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, chasers(2, 32))
                    .class(1, streams(2, 132))
                    .fault_plan(plan([window(FaultKind::McStall, 2, 1, 3, 0)]))
            }),
        ),
        cell(
            "mechanism/dpq-partial-skip",
            Box::new(move || {
                // Partial skip under the DPQ arbiter: chasing tiles park
                // while streaming tiles keep the controllers busy, so the
                // machine never fully quiesces and only tile-local
                // fast-forward is in play.
                let mut c = small();
                c.arbiter = pabst_dram::ArbiterMode::Dpq;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, chasers(2, 33))
                    .class(1, streams(2, 133))
            }),
        ),
        cell(
            "per-mc-regulation/mc-stall-fault",
            Box::new(move || {
                // Per-controller SAT loops while one controller freezes: the
                // stalled MC must vanish from the horizon without desyncing
                // its sibling's regulation window.
                let mut c = two_mc();
                c.per_mc_regulation = true;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, skewed(2, 2, 25))
                    .class(1, streams(2, 125))
                    .fault_plan(plan([window(FaultKind::McStall, 1, 1, 3, 0)]))
            }),
        ),
        // Mechanism-zoo cells: every competing governor/arbiter behind the
        // trait seams must uphold the same byte-identity contract as the
        // paper's default pair — a mechanism whose horizon lies would
        // diverge here.
        cell(
            "mechanism/lms-ar-governor",
            Box::new(move || {
                let mut c = small();
                c.governor = pabst_core::governor::GovernorKind::LmsAr;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 26))
                    .class(1, streams(2, 126))
            }),
        ),
        cell(
            "mechanism/per-bank-arbiter",
            Box::new(move || {
                let mut c = small();
                c.arbiter = pabst_dram::ArbiterMode::PerBank;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 27))
                    .class(1, chasers(2, 127))
            }),
        ),
        cell(
            "mechanism/dpq-arbiter",
            Box::new(move || {
                let mut c = small();
                c.arbiter = pabst_dram::ArbiterMode::Dpq;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, streams(2, 28))
                    .class(1, streams(2, 128))
            }),
        ),
        cell(
            "mechanism/lms-ar-dpq-combined",
            Box::new(move || {
                let mut c = small();
                c.governor = pabst_core::governor::GovernorKind::LmsAr;
                c.arbiter = pabst_dram::ArbiterMode::Dpq;
                SystemBuilder::new(c, RegulationMode::Pabst)
                    .class(3, write_streams(2, 29))
                    .class(1, streams(2, 129))
            }),
        ),
        // Fault cells: the plan must observe the identical epoch/boundary
        // sequence in both arms for these to match.
        cell(
            "fault/mc-stall-window",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 14))
                    .class(1, streams(2, 114))
                    .fault_plan(plan([window(FaultKind::McStall, 0, 1, 2, 0)]))
            }),
        ),
        cell(
            "fault/mc-stall-chasers",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(1, chasers(2, 15))
                    .fault_plan(plan([window(FaultKind::McStall, 0, 2, 3, 0)]))
            }),
        ),
        cell(
            "fault/epoch-skew",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 16))
                    .class(1, streams(2, 116))
                    .fault_plan(plan([always(FaultKind::EpochSkew, 0, 0)]))
            }),
        ),
        cell(
            "fault/credit-leak",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 17))
                    .class(1, streams(2, 117))
                    .fault_plan(plan([always(FaultKind::CreditLeak, 1, 10_000)]))
            }),
        ),
        cell(
            "fault/sat-drop",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 18))
                    .class(1, streams(2, 118))
                    .fault_plan(plan([always(FaultKind::SatDrop, 0, 0)]))
            }),
        ),
        cell(
            "fault/sat-delay",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 19))
                    .class(1, streams(2, 119))
                    .fault_plan(plan([always(FaultKind::SatDelay, 0, 2)]))
            }),
        ),
        cell(
            "fault/combined",
            Box::new(move || {
                SystemBuilder::new(small(), RegulationMode::Pabst)
                    .class(3, streams(2, 20))
                    .class(1, chasers(2, 120))
                    .fault_plan(plan([
                        always(FaultKind::EpochSkew, 0, 0),
                        always(FaultKind::CreditLeak, 1, 5_000),
                        window(FaultKind::McStall, 0, 3, 4, 0),
                        always(FaultKind::SatCorrupt, 0, 0),
                    ]))
            }),
        ),
    ]
}

/// Per-tile counters that neither the report nor the trace carries:
/// retired, loads, stores, ROB-full cycles, L2 hits, L2 misses. Skipped
/// windows accrue into them, so a wrong accrual shows only here.
type TileCounters = Vec<[u64; 6]>;

/// Everything one arm observes: report JSON, trace JSONL, final cycle,
/// per-tile counters, globally jumped cycles, tile-cycles parked.
struct Arm {
    report: String,
    trace: String,
    now: u64,
    tiles: TileCounters,
    skipped: u64,
    tile_parked: u64,
    /// Controller-cycles parked, and the controller count.
    mc_parked: u64,
    mcs: u64,
    /// DRAM writes the controllers completed.
    dram_writes: u64,
}

/// Runs one arm of a cell: warmup, measurement window, then every
/// observable artifact plus the skip counters.
fn run_arm(mk: &dyn Fn() -> SystemBuilder, skip: bool) -> Arm {
    let mut sys = mk().skip(skip).build().expect("matrix cell must build");
    let trace = Jsonl::default();
    sys.add_trace_sink(Box::new(trace.clone()));
    sys.run_epochs(2);
    sys.mark_measurement();
    sys.run_epochs(4);
    let tiles = sys
        .tiles()
        .iter()
        .map(|t| {
            let s = t.core.stats();
            let (hits, misses) = t.mem.l2_stats();
            [s.retired, s.loads, s.stores, s.rob_full_cycles, hits, misses]
        })
        .collect();
    let report = SystemReport::collect(&sys).to_json();
    let jsonl = trace.0.borrow().clone();
    Arm {
        report,
        trace: jsonl,
        now: sys.now(),
        tiles,
        skipped: sys.cycles_skipped(),
        tile_parked: sys.tile_cycles_skipped(),
        mc_parked: sys.mc_cycles_skipped(),
        mcs: sys.mc_count() as u64,
        dram_writes: sys.mcs().iter().map(|m| m.stats().writes).sum(),
    }
}

#[test]
fn every_matrix_cell_is_byte_identical_across_skip_modes() {
    let mut total_skipped = 0u64;
    let mut total_cycles = 0u64;
    for (name, mk) in cells() {
        let s = run_arm(mk.as_ref(), true);
        let n = run_arm(mk.as_ref(), false);
        assert_eq!(s.report, n.report, "{name}: report JSON diverged");
        assert_eq!(s.trace, n.trace, "{name}: trace JSONL diverged");
        assert_eq!(s.now, n.now, "{name}: final cycle diverged");
        assert_eq!(s.tiles, n.tiles, "{name}: per-tile core/L2 counters diverged");
        assert_eq!(s.dram_writes, n.dram_writes, "{name}: completed DRAM writes diverged");
        assert_eq!(n.skipped, 0, "{name}: naive arm must not skip");
        if name == "pabst/dirty-l3-writebacks" {
            assert!(s.dram_writes > 0, "{name}: dirty L3 evictions must reach DRAM");
        }
        assert!(!s.trace.is_empty(), "{name}: trace must not be empty");
        total_skipped += s.skipped;
        total_cycles += s.now;
    }
    assert!(
        total_skipped > total_cycles / 20,
        "the matrix must exercise real skipping: {total_skipped} of {total_cycles} cycles"
    );
}

#[test]
fn full_l2_mshr_tables_park_most_tile_cycles() {
    // The two MSHR-bound cells are only a test of stall parking if their
    // tiles actually park: each must elide over half its tile-cycles.
    for (name, mk) in cells() {
        if !name.ends_with("-mshrs") {
            continue;
        }
        let arm = run_arm(mk.as_ref(), true);
        let tile_cycles = arm.now * arm.tiles.len() as u64;
        assert!(
            2 * arm.tile_parked > tile_cycles,
            "{name}: only {} of {tile_cycles} tile-cycles parked",
            arm.tile_parked
        );
    }
}

#[test]
fn busy_controllers_park_most_cycles_under_chasers() {
    // Controllers park at the end of their own step whenever their next
    // event lies past the next cycle, busy or not. Under the all-chaser
    // cells each controller holds a few misses at a time and waits on
    // DRAM timing, so more than half of its cycles must be parked.
    for (name, mk) in cells() {
        if !(name.ends_with("chasers") || name.ends_with("idle-heavy")) {
            continue;
        }
        let arm = run_arm(mk.as_ref(), true);
        let mc_cycles = arm.now * arm.mcs;
        assert!(
            2 * arm.mc_parked > mc_cycles,
            "{name}: only {} of {mc_cycles} controller-cycles parked",
            arm.mc_parked
        );
    }
}

#[test]
fn pointer_chasing_skips_most_of_its_cycles() {
    // The perf motivation in miniature: dependent-load chains leave the
    // whole machine quiescent for most of each miss latency.
    let mk = || {
        SystemBuilder::new(SystemConfig::small_test(), RegulationMode::Pabst)
            .class(1, chasers(2, 21))
    };
    let Arm { now, skipped, .. } = run_arm(&mk, true);
    assert!(
        skipped > now / 4,
        "chaser workloads must fast-forward a large fraction: {skipped} of {now}"
    );
}

#[test]
fn trace_lines_from_a_skipping_run_parse_cleanly() {
    let mk = || {
        SystemBuilder::new(SystemConfig::small_test(), RegulationMode::Pabst)
            .class(3, streams(2, 22))
            .class(1, chasers(1, 122))
    };
    let Arm { report, trace, .. } = run_arm(&mk, true);
    for line in trace.lines() {
        let _ = pabst_simkit::trace::parse_line(line).expect("valid epoch record");
    }
    assert!(
        !report.contains("cycles_skipped") && !trace.contains("cycles_skipped"),
        "the skip counter is diagnostic-only and must never leak into artifacts"
    );
}
