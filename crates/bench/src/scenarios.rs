//! One runner per paper figure/table.
//!
//! Each function builds the experiment the paper describes, runs it, and
//! returns structured results; the [`crate::registry`] cell runners call
//! them and the renderers print them. All runners accept an epoch budget
//! (so `--quick` mode and the micro-benchmark wrappers can shrink them),
//! a base RNG `seed` their workload generators derive per-core seeds
//! from (`0` reproduces the paper runs), and a [`RunCtx`] that attaches
//! trace sinks and collects tagged end-of-run reports for the sweep
//! harness.

use crate::harness::RunCtx;
use pabst_core::governor::GovernorKind;
use pabst_cpu::Workload;
use pabst_dram::ArbiterMode;
use pabst_simkit::fault::FaultPlan;
use pabst_simkit::stats::allocation_error_pct;
use pabst_soc::config::{RegulationMode, SystemConfig, WbAccounting};
use pabst_soc::system::{System, SystemBuilder};
use pabst_workloads::{
    ChaserGen, MemcachedGen, PeriodicStreamGen, Region, SpecProxyGen, SpecWorkload, StreamGen,
    ALL_SPEC,
};

/// Warmup epochs before measurement in a standard run (the governor
/// converges within ~10 epochs; see the `governor_trace` example).
pub const WARMUP_EPOCHS: usize = 8;
/// Measured epochs in a standard run.
pub const MEASURE_EPOCHS: usize = 15;

/// A disjoint address region for (class, core).
pub fn region_for(class: usize, core: usize, lines: u64) -> Region {
    Region::new(((class as u64) << 40) + ((core as u64) << 32), lines)
}

/// `n` read streamers for a class, seeded `seed + class*64 + i`.
pub fn read_streamers(class: usize, n: usize, seed: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| {
            Box::new(StreamGen::reads(
                region_for(class, i, 1 << 20),
                seed + (class * 64 + i) as u64,
            )) as Box<dyn Workload>
        })
        .collect()
}

/// `n` write streamers for a class, seeded `seed + class*64 + i`.
pub fn write_streamers(class: usize, n: usize, seed: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| {
            Box::new(StreamGen::writes(
                region_for(class, i, 1 << 20),
                seed + (class * 64 + i) as u64,
            )) as Box<dyn Workload>
        })
        .collect()
}

/// `n` chasers (4 chains each) for a class, seeded `seed + class*64 + i`.
pub fn chasers(class: usize, n: usize, seed: u64) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| {
            Box::new(ChaserGen::new(
                region_for(class, i, 1 << 18),
                4,
                seed + (class * 64 + i) as u64,
            )) as Box<dyn Workload>
        })
        .collect()
}

/// `n` instances of a SPEC proxy for a class, seeded `seed + i`.
pub fn spec_cores(
    which: SpecWorkload,
    class: usize,
    n: usize,
    seed: u64,
) -> Vec<Box<dyn Workload>> {
    (0..n)
        .map(|i| {
            Box::new(SpecProxyGen::new(which, region_for(class, i, 1 << 20), seed + i as u64))
                as Box<dyn Workload>
        })
        .collect()
}

fn two_class(
    mode: RegulationMode,
    w0: u32,
    w1: u32,
    c0: Vec<Box<dyn Workload>>,
    c1: Vec<Box<dyn Workload>>,
    ctx: &mut RunCtx,
) -> System {
    let mut sys = SystemBuilder::new(SystemConfig::baseline_32core(), mode)
        .class(w0, c0)
        .class(w1, c1)
        .build()
        .expect("valid two-class configuration");
    ctx.attach(&mut sys);
    sys
}

// ---------------------------------------------------------------------
// Figs. 1 and 7: source vs target vs PABST on two workload mixes.
// ---------------------------------------------------------------------

/// The two workload mixes of Fig. 1 / Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig1Mix {
    /// Two write-stream classes, 3:1 (left bars of Fig. 7; Fig. 1a/b uses
    /// the same shape with streams).
    StreamStream,
    /// Chaser (3) + read stream (1) (right bars).
    ChaserStream,
}

/// One bar of Fig. 1/7: observed per-class bandwidth and allocation error.
#[derive(Debug, Clone)]
pub struct AllocResult {
    /// Per-class mean bytes/cycle over the measured window.
    pub bytes_per_cycle: Vec<f64>,
    /// Max relative share error vs the 3:1 target, percent.
    pub error_pct: f64,
}

/// Runs one (mix, mode) cell of Fig. 1 / Fig. 7 on the baseline machine.
pub fn fig1_cell(
    mix: Fig1Mix,
    mode: RegulationMode,
    epochs: usize,
    seed: u64,
    ctx: &mut RunCtx,
) -> AllocResult {
    fig1_cell_with(SystemConfig::baseline_32core(), mix, mode, epochs, seed, ctx)
}

/// [`fig1_cell`] with an explicit machine configuration (used by the
/// calibration sweep).
pub fn fig1_cell_with(
    cfg: SystemConfig,
    mix: Fig1Mix,
    mode: RegulationMode,
    epochs: usize,
    seed: u64,
    ctx: &mut RunCtx,
) -> AllocResult {
    let (c0, c1) = match mix {
        Fig1Mix::StreamStream => (write_streamers(0, 16, seed), write_streamers(1, 16, seed)),
        Fig1Mix::ChaserStream => (chasers(0, 16, seed), read_streamers(1, 16, seed)),
    };
    let mut sys = SystemBuilder::new(cfg, mode)
        .class(3, c0)
        .class(1, c1)
        .build()
        .expect("valid two-class configuration");
    ctx.attach(&mut sys);
    let warm = epochs / 2;
    sys.run_epochs(warm + epochs);
    ctx.report(&sys);
    let m = sys.metrics();
    let o0 = m.bw_series.mean_over(0, warm);
    let o1 = m.bw_series.mean_over(1, warm);
    AllocResult {
        bytes_per_cycle: vec![
            o0 / m.bw_series.epoch_cycles() as f64,
            o1 / m.bw_series.epoch_cycles() as f64,
        ],
        error_pct: allocation_error_pct(&[3.0, 1.0], &[o0.max(1.0), o1.max(1.0)]),
    }
}

// ---------------------------------------------------------------------
// Fig. 5: proportional allocation time series (7:3 read streams).
// ---------------------------------------------------------------------

/// Per-epoch bandwidth shares of each class.
#[derive(Debug, Clone)]
pub struct SeriesResult {
    /// `points[e][c]` = bytes/cycle of class `c` in epoch `e`.
    pub points: Vec<Vec<f64>>,
    /// Epoch length in cycles.
    pub epoch_cycles: u64,
}

/// Runs Fig. 5: two 16-core read-stream classes at 7:3.
pub fn fig5_series(epochs: usize, seed: u64, ctx: &mut RunCtx) -> SeriesResult {
    let mut sys = two_class(
        RegulationMode::Pabst,
        7,
        3,
        read_streamers(0, 16, seed),
        read_streamers(1, 16, seed),
        ctx,
    );
    sys.run_epochs(epochs);
    ctx.report(&sys);
    collect_series(&sys)
}

fn collect_series(sys: &System) -> SeriesResult {
    let m = sys.metrics();
    let ec = m.bw_series.epoch_cycles();
    let points = (0..m.bw_series.epochs())
        .map(|e| m.bw_series.epoch(e).iter().map(|b| b / ec as f64).collect())
        .collect();
    SeriesResult { points, epoch_cycles: ec }
}

// ---------------------------------------------------------------------
// Fig. 6: work conservation (periodic 70% streamer + constant 30%).
// ---------------------------------------------------------------------

/// Runs Fig. 6 and returns the bandwidth series (class 0 = periodic,
/// class 1 = constant).
pub fn fig6_series(epochs: usize, seed: u64, ctx: &mut RunCtx) -> SeriesResult {
    let periodic: Vec<Box<dyn Workload>> = (0..16)
        .map(|i| {
            Box::new(PeriodicStreamGen::new(
                region_for(0, i, 1 << 20),
                256,
                8_000,
                900_000,
                seed + i as u64,
            )) as Box<dyn Workload>
        })
        .collect();
    let mut sys =
        two_class(RegulationMode::Pabst, 7, 3, periodic, read_streamers(1, 16, seed), ctx);
    sys.run_epochs(epochs);
    ctx.report(&sys);
    collect_series(&sys)
}

// ---------------------------------------------------------------------
// Fig. 8: proportional distribution of excess bandwidth.
// ---------------------------------------------------------------------

/// Fig. 8 result: mean shares of (L3-resident, high DDR, low DDR).
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Mean share of total bandwidth per class over the measured window.
    pub shares: [f64; 3],
    /// The full series for plotting.
    pub series: SeriesResult,
}

/// Runs Fig. 8: a 25%-share L3-resident streamer plus 50%- and 25%-share
/// DDR streamers; the resident class's excess must split 2:1.
pub fn fig8_run(epochs: usize, seed: u64, ctx: &mut RunCtx) -> Fig8Result {
    let resident: Vec<Box<dyn Workload>> = (0..8)
        .map(|i| {
            Box::new(StreamGen::reads(region_for(0, i, 4096), seed + i as u64)) as Box<dyn Workload>
        })
        .collect();
    let hi: Vec<Box<dyn Workload>> = (0..12)
        .map(|i| {
            Box::new(StreamGen::reads(region_for(1, i, 1 << 20), seed + 100 + i as u64))
                as Box<dyn Workload>
        })
        .collect();
    let lo: Vec<Box<dyn Workload>> = (0..12)
        .map(|i| {
            Box::new(StreamGen::reads(region_for(2, i, 1 << 20), seed + 200 + i as u64))
                as Box<dyn Workload>
        })
        .collect();
    let mut sys = SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::Pabst)
        .class(1, resident)
        .l3_ways(0, 4)
        .class(2, hi)
        .l3_ways(4, 6)
        .class(1, lo)
        .l3_ways(10, 6)
        .build()
        .expect("fig8 configuration");
    ctx.attach(&mut sys);
    sys.run_epochs(epochs);
    ctx.report(&sys);
    let from = epochs / 2;
    let m = sys.metrics();
    Fig8Result {
        shares: [m.mean_share(0, from), m.mean_share(1, from), m.mean_share(2, from)],
        series: collect_series(&sys),
    }
}

// ---------------------------------------------------------------------
// Fig. 9: memcached service times (scaled 8-core machine, 20:1).
// ---------------------------------------------------------------------

/// Service-time distribution summary (cycles).
#[derive(Debug, Clone, Copy)]
pub struct ServiceResult {
    /// Mean service time.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Transactions measured.
    pub count: usize,
}

/// Runs one Fig. 9 configuration. `aggressor` co-locates 7 streaming
/// cores; `mode` selects the QoS configuration.
pub fn fig9_run(
    mode: RegulationMode,
    aggressor: bool,
    epochs: usize,
    seed: u64,
    ctx: &mut RunCtx,
) -> ServiceResult {
    let server: Vec<Box<dyn Workload>> =
        vec![Box::new(MemcachedGen::new(region_for(0, 0, 1 << 18), seed + 7))];
    let mut b =
        SystemBuilder::new(SystemConfig::scaled_8core(), mode).class(20, server).l3_ways(0, 8);
    if aggressor {
        let streamers: Vec<Box<dyn Workload>> = (0..7)
            .map(|i| {
                Box::new(StreamGen::reads(region_for(1, i, 1 << 20), seed + 50 + i as u64))
                    as Box<dyn Workload>
            })
            .collect();
        b = b.class(1, streamers).l3_ways(8, 8);
    }
    let mut sys = b.build().expect("fig9 configuration");
    ctx.attach(&mut sys);
    sys.run_epochs(WARMUP_EPOCHS);
    sys.mark_measurement();
    sys.run_epochs(epochs.max(20));
    ctx.report(&sys);
    let h = &mut sys.metrics_mut().service[0];
    ServiceResult {
        mean: h.mean().unwrap_or(0.0),
        p50: h.percentile(50.0).unwrap_or(0),
        p95: h.percentile(95.0).unwrap_or(0),
        p99: h.percentile(99.0).unwrap_or(0),
        count: h.count(),
    }
}

// ---------------------------------------------------------------------
// Figs. 10 and 12: SPEC + streaming aggressor at 32:1.
// ---------------------------------------------------------------------

/// One row of Figs. 10/12 for a SPEC workload under one mode.
#[derive(Debug, Clone, Copy)]
pub struct SpecCell {
    /// Weighted slowdown vs the isolated run (Fig. 10).
    pub slowdown: f64,
    /// Data-bus utilization over the measured window (Fig. 12).
    pub efficiency: f64,
    /// SPEC class bandwidth, bytes/cycle.
    pub spec_bpc: f64,
}

/// Mean IPC of the isolated 16-core SPEC run (same 8-way cache slice).
pub fn spec_isolated_ipc(which: SpecWorkload, epochs: usize, seed: u64, ctx: &mut RunCtx) -> f64 {
    let mut sys = SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::None)
        .class(32, spec_cores(which, 0, 16, seed))
        .l3_ways(0, 8)
        .build()
        .expect("isolated configuration");
    ctx.attach(&mut sys);
    sys.run_epochs(WARMUP_EPOCHS);
    sys.mark_measurement();
    sys.run_epochs(epochs);
    ctx.report_labeled(&sys, "isolated");
    (0..16).map(|i| sys.ipc_since_mark(i)).sum::<f64>() / 16.0
}

/// Runs one (workload, mode) cell: SPEC (weight 32) on 16 cores + 16
/// streaming cores (weight 1). `iso_ipc` is the matching isolated IPC.
pub fn fig10_cell(
    which: SpecWorkload,
    mode: RegulationMode,
    iso_ipc: f64,
    epochs: usize,
    seed: u64,
    ctx: &mut RunCtx,
) -> SpecCell {
    let mut sys = SystemBuilder::new(SystemConfig::baseline_32core(), mode)
        .class(32, spec_cores(which, 0, 16, seed))
        .l3_ways(0, 8)
        .class(1, read_streamers(1, 16, seed))
        .l3_ways(8, 8)
        .build()
        .expect("fig10 configuration");
    ctx.attach(&mut sys);
    sys.run_epochs(WARMUP_EPOCHS);
    sys.mark_measurement();
    sys.run_epochs(epochs);
    ctx.report_labeled(&sys, mode.label());
    let ipc = (0..16).map(|i| sys.ipc_since_mark(i)).sum::<f64>() / 16.0;
    let window = (epochs as u64) * 20_000;
    SpecCell {
        slowdown: iso_ipc / ipc,
        efficiency: sys.bus_utilization_since_mark(),
        spec_bpc: sys.bytes_since_mark(0) as f64 / window as f64,
    }
}

// ---------------------------------------------------------------------
// Fig. 11: work-conserving fairness in an IaaS consolidation.
// ---------------------------------------------------------------------

/// Fig. 11 result for one workload: PABST 4-way consolidated IPC vs the
/// static-allocation baseline (isolated 8 cores, DDR down-clocked 4x).
#[derive(Debug, Clone, Copy)]
pub struct Fig11Cell {
    /// Mean per-core IPC under PABST with four equal 25% classes.
    pub pabst_ipc: f64,
    /// Mean per-core IPC of the static quarter-bandwidth baseline.
    pub static_ipc: f64,
}

/// Runs one Fig. 11 workload: four 8-core classes of the same SPEC proxy
/// at equal 25% shares, against an 8-core isolated run with DDR scaled
/// down 4x.
pub fn fig11_cell(which: SpecWorkload, epochs: usize, seed: u64, ctx: &mut RunCtx) -> Fig11Cell {
    let mut b = SystemBuilder::new(SystemConfig::baseline_32core(), RegulationMode::Pabst);
    for c in 0..4 {
        b = b.class(1, spec_cores(which, c, 8, seed)).l3_ways(c * 4, 4);
    }
    let mut sys = b.build().expect("fig11 configuration");
    ctx.attach(&mut sys);
    sys.run_epochs(WARMUP_EPOCHS);
    sys.mark_measurement();
    sys.run_epochs(epochs);
    ctx.report_labeled(&sys, "consolidated");
    let pabst_ipc = (0..32).map(|i| sys.ipc_since_mark(i)).sum::<f64>() / 32.0;

    // Static baseline: 8 cores alone, DDR frequency / 4, same 4-way cache
    // slice the class gets above.
    let mut cfg = SystemConfig::baseline_32core();
    cfg.cores = 8;
    cfg.mcs = 4;
    cfg.dram = cfg.dram.down_clocked(4);
    let mut base = SystemBuilder::new(cfg, RegulationMode::None)
        .class(1, spec_cores(which, 0, 8, seed))
        .l3_ways(0, 4)
        .build()
        .expect("fig11 baseline");
    ctx.attach(&mut base);
    base.run_epochs(WARMUP_EPOCHS);
    base.mark_measurement();
    base.run_epochs(epochs);
    ctx.report_labeled(&base, "static baseline");
    let static_ipc = (0..8).map(|i| base.ipc_since_mark(i)).sum::<f64>() / 8.0;

    Fig11Cell { pabst_ipc, static_ipc }
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §6).
// ---------------------------------------------------------------------

/// Runs the Fig. 5 workload with an explicit writeback accounting policy,
/// returning (share0, share1).
pub fn ablate_writeback(
    policy: WbAccounting,
    epochs: usize,
    seed: u64,
    ctx: &mut RunCtx,
) -> (f64, f64) {
    let mut cfg = SystemConfig::baseline_32core();
    cfg.wb_accounting = policy;
    let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
        .class(7, write_streamers(0, 16, seed))
        .class(3, write_streamers(1, 16, seed))
        .build()
        .expect("ablation configuration");
    ctx.attach(&mut sys);
    sys.run_epochs(epochs);
    ctx.report(&sys);
    let from = epochs / 2;
    (sys.metrics().mean_share(0, from), sys.metrics().mean_share(1, from))
}

/// Runs Fig. 5 with an overridden pacer burst window, returning the
/// allocation error (share accuracy vs 7:3).
pub fn ablate_burst(burst: u64, epochs: usize, seed: u64, ctx: &mut RunCtx) -> f64 {
    let mut cfg = SystemConfig::baseline_32core();
    cfg.pacer_burst = burst;
    let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
        .class(7, read_streamers(0, 16, seed))
        .class(3, read_streamers(1, 16, seed))
        .build()
        .expect("ablation configuration");
    ctx.attach(&mut sys);
    sys.run_epochs(epochs);
    ctx.report(&sys);
    let from = epochs / 2;
    let m = sys.metrics();
    allocation_error_pct(
        &[7.0, 3.0],
        &[m.bw_series.mean_over(0, from).max(1.0), m.bw_series.mean_over(1, from).max(1.0)],
    )
}

/// Runs the chaser+stream mix with an overridden arbiter slack, returning
/// the allocation error vs 3:1.
pub fn ablate_slack(slack: u64, epochs: usize, seed: u64, ctx: &mut RunCtx) -> f64 {
    let mut cfg = SystemConfig::baseline_32core();
    cfg.arbiter_slack = slack;
    let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
        .class(3, chasers(0, 16, seed))
        .class(1, read_streamers(1, 16, seed))
        .build()
        .expect("ablation configuration");
    ctx.attach(&mut sys);
    sys.run_epochs(epochs);
    ctx.report(&sys);
    let from = epochs / 2;
    let m = sys.metrics();
    allocation_error_pct(
        &[3.0, 1.0],
        &[m.bw_series.mean_over(0, from).max(1.0), m.bw_series.mean_over(1, from).max(1.0)],
    )
}

/// Runs Fig. 5 with an overridden governor inertia, returning
/// (allocation error pct, mean |ΔM|/M over the tail) — the stability
/// ablation of DESIGN.md §6.
pub fn ablate_inertia(inertia: u32, epochs: usize, seed: u64, ctx: &mut RunCtx) -> (f64, f64) {
    let mut cfg = SystemConfig::baseline_32core();
    cfg.monitor.inertia = inertia;
    let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
        .class(7, read_streamers(0, 16, seed))
        .class(3, read_streamers(1, 16, seed))
        .build()
        .expect("ablation configuration");
    ctx.attach(&mut sys);
    sys.run_epochs(epochs);
    ctx.report(&sys);
    let from = epochs / 2;
    let m = sys.metrics();
    let err = allocation_error_pct(
        &[7.0, 3.0],
        &[m.bw_series.mean_over(0, from).max(1.0), m.bw_series.mean_over(1, from).max(1.0)],
    );
    let tail = &m.m_series[from..];
    let mut jitter = 0.0;
    for w in tail.windows(2) {
        jitter += (f64::from(w[1]) - f64::from(w[0])).abs() / f64::from(w[0].max(1));
    }
    (err, jitter / (tail.len().max(2) - 1) as f64)
}

/// Runs the skewed-traffic scenario of §III-C1: one class hammers a
/// single memory controller while another streams across all four.
/// Returns total delivered bytes/cycle under the chosen regulation
/// granularity. With the global wired-OR SAT, the hot controller keeps
/// the signal high and the governor throttles traffic destined for the
/// three idle controllers too; the per-MC variant recovers them.
pub fn skewed_traffic_utilization(per_mc: bool, epochs: usize, seed: u64, ctx: &mut RunCtx) -> f64 {
    use pabst_workloads::SkewedStreamGen;
    let mut cfg = SystemConfig::baseline_32core();
    cfg.per_mc_regulation = per_mc;
    let skewed: Vec<Box<dyn Workload>> = (0..16)
        .map(|i| {
            Box::new(SkewedStreamGen::new(region_for(0, i, 1 << 20), 0, cfg.mcs, seed + i as u64))
                as Box<dyn Workload>
        })
        .collect();
    let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
        .class(1, skewed)
        .class(1, read_streamers(1, 16, seed))
        .build()
        .expect("skewed configuration");
    ctx.attach(&mut sys);
    sys.run_epochs(epochs);
    ctx.report(&sys);
    sys.metrics().total_bytes_per_cycle(epochs / 2)
}

// ---------------------------------------------------------------------
// Scale: the governor loop as the machine grows (topology experiment).
// ---------------------------------------------------------------------

/// One point of the scale study: how well the single wired-OR SAT
/// feedback loop holds a 3:1 allocation as tiles and controllers grow.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// Max relative share error vs the 3:1 target, percent.
    pub error_pct: f64,
    /// Aggregate delivered bandwidth, bytes/cycle.
    pub total_bpc: f64,
    /// Fraction of measured epochs the SAT broadcast was high.
    pub sat_duty: f64,
    /// Mean |ΔM|/M over the measured tail — the governor's oscillation
    /// amplitude. This is where the 256-tile wobble shows: one global M
    /// paces 256 tiles toward 16 controllers, so each step moves 8× the
    /// traffic of the baseline and the loop hunts around its fixed point.
    pub jitter: f64,
}

/// Runs one scale cell on `cfg`: half the tiles stream reads at weight 3,
/// the other half at weight 1 (the Fig. 5 contest, scaled to the shape).
pub fn scale_cell(cfg: SystemConfig, epochs: usize, seed: u64, ctx: &mut RunCtx) -> ScaleResult {
    let half = cfg.cores / 2;
    let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
        .class(3, read_streamers(0, half, seed))
        .class(1, read_streamers(1, half, seed))
        .build()
        .expect("valid scale configuration");
    ctx.attach(&mut sys);
    let warm = epochs / 2;
    sys.run_epochs(warm + epochs);
    ctx.report(&sys);
    let m = sys.metrics();
    let o0 = m.bw_series.mean_over(0, warm);
    let o1 = m.bw_series.mean_over(1, warm);
    let sat_tail = &m.sat_series[warm..];
    let m_tail = &m.m_series[warm..];
    let mut jitter = 0.0;
    for w in m_tail.windows(2) {
        jitter += (f64::from(w[1]) - f64::from(w[0])).abs() / f64::from(w[0].max(1));
    }
    ScaleResult {
        error_pct: allocation_error_pct(&[3.0, 1.0], &[o0.max(1.0), o1.max(1.0)]),
        total_bpc: (o0 + o1) / m.bw_series.epoch_cycles() as f64,
        sat_duty: sat_tail.iter().filter(|&&s| s).count() as f64 / sat_tail.len().max(1) as f64,
        jitter: jitter / (m_tail.len().max(2) - 1) as f64,
    }
}

// ---------------------------------------------------------------------
// Resilience: fault-rate degradation curve (docs/RESILIENCE.md).
// ---------------------------------------------------------------------

/// One point of the resilience degradation curve.
#[derive(Debug, Clone)]
pub struct ResilienceResult {
    /// Max relative share error vs the 3:1 target, percent.
    pub error_pct: f64,
    /// Aggregate delivered bandwidth over the measured window,
    /// bytes/cycle.
    pub total_bpc: f64,
    /// Fault events the plan injected over the whole run.
    pub faults: u64,
    /// Epochs the governor spent in the degraded (stale-SAT) policy.
    pub degraded_epochs: u64,
}

/// Runs one resilience cell: a 3:1 read-stream contest on the scaled
/// 8-core machine with `plan` injected and the `mc service` liveness law
/// armed — a fault mix that truly wedges the machine becomes a panic the
/// sweep harness records as a cell failure, not a hung run.
pub fn resilience_cell(
    plan: FaultPlan,
    epochs: usize,
    seed: u64,
    ctx: &mut RunCtx,
) -> ResilienceResult {
    let mut cfg = SystemConfig::scaled_8core();
    cfg.invariants.liveness_epochs = 49;
    let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
        .class(3, read_streamers(0, 4, seed))
        .class(1, read_streamers(1, 4, seed))
        .fault_plan(plan)
        .build()
        .expect("valid resilience configuration");
    ctx.attach(&mut sys);
    let warm = epochs / 2;
    sys.run_epochs(warm + epochs);
    ctx.report(&sys);
    let m = sys.metrics();
    let o0 = m.bw_series.mean_over(0, warm);
    let o1 = m.bw_series.mean_over(1, warm);
    let ec = m.bw_series.epoch_cycles() as f64;
    ResilienceResult {
        error_pct: allocation_error_pct(&[3.0, 1.0], &[o0.max(1.0), o1.max(1.0)]),
        total_bpc: (o0 + o1) / ec,
        faults: sys.faults_injected(),
        degraded_epochs: sys.degraded_epochs(),
    }
}

// ---------------------------------------------------------------------
// Mechanisms: the governor × arbiter zoo (docs/MECHANISMS.md).
// ---------------------------------------------------------------------

/// One point of the mechanism-zoo sweep: how a (governor, arbiter) pair
/// behaves on one workload mix.
#[derive(Debug, Clone, Copy)]
pub struct MechanismResult {
    /// Max relative share error vs the 3:1 target, percent.
    pub error_pct: f64,
    /// Aggregate delivered bandwidth over the measured tail, bytes/cycle.
    pub total_bpc: f64,
    /// 95th-percentile memcached service time, cycles.
    pub p95: u64,
    /// 99th-percentile memcached service time, cycles.
    pub p99: u64,
}

/// Runs one mechanism-zoo cell on the scaled 8-core machine: class 0
/// (weight 3) is a memcached server plus three aggressors, class 1
/// (weight 1) is four read streamers. `chaser_mix` swaps the class-0
/// aggressors from read streamers to pointer chasers, exercising the
/// mechanisms on both bandwidth-bound and latency-bound traffic. The
/// governor and arbiter mechanisms are selected through [`SystemConfig`],
/// exactly as a provenance-tracked production run would.
pub fn mechanisms_cell(
    governor: GovernorKind,
    arbiter: ArbiterMode,
    chaser_mix: bool,
    epochs: usize,
    seed: u64,
    ctx: &mut RunCtx,
) -> MechanismResult {
    let mut cfg = SystemConfig::scaled_8core();
    cfg.governor = governor;
    cfg.arbiter = arbiter;
    // The server gets address-space slice 2 so its region never collides
    // with the per-class aggressor slices.
    let mut c0: Vec<Box<dyn Workload>> =
        vec![Box::new(MemcachedGen::new(region_for(2, 0, 1 << 18), seed + 7))];
    c0.extend(if chaser_mix { chasers(0, 3, seed) } else { read_streamers(0, 3, seed) });
    let mut sys = SystemBuilder::new(cfg, RegulationMode::Pabst)
        .class(3, c0)
        .class(1, read_streamers(1, 4, seed))
        .build()
        .expect("valid mechanisms configuration");
    ctx.attach(&mut sys);
    let warm = epochs / 2;
    sys.run_epochs(warm);
    sys.mark_measurement();
    sys.run_epochs(epochs);
    ctx.report(&sys);
    let m = sys.metrics();
    let o0 = m.bw_series.mean_over(0, warm);
    let o1 = m.bw_series.mean_over(1, warm);
    let ec = m.bw_series.epoch_cycles() as f64;
    let error_pct = allocation_error_pct(&[3.0, 1.0], &[o0.max(1.0), o1.max(1.0)]);
    let total_bpc = (o0 + o1) / ec;
    let h = &mut sys.metrics_mut().service[0];
    MechanismResult {
        error_pct,
        total_bpc,
        p95: h.percentile(95.0).unwrap_or(0),
        p99: h.percentile(99.0).unwrap_or(0),
    }
}

/// All SPEC workloads, re-exported for the registry and binaries.
pub fn all_spec() -> [SpecWorkload; 8] {
    ALL_SPEC
}
