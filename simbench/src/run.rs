//! One benchmark invocation: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

use pabst_cpu::{Op, Workload};
use pabst_simkit::stats::allocation_error_pct;
use pabst_soc::system::System;

use crate::digest::{recorded, state_digest};
use crate::spec::{Spec, WEIGHTS};
use crate::stats::{median, quartiles, tail, Metrics};
use crate::trace::{mean_of, mean_u64, EpochLog, OpProbe, TimedWorkload};
use crate::units;

/// A run that has not finished by this time fails rather than overrun
/// the benchmark's time limit.
const DEADLINE: Duration = Duration::from_secs(150);

/// Set-ups per untraced invocation, at least: `setup_s` is their median.
/// A workload with fewer timed runs makes the rest as set-ups only.
const MIN_SETUPS: usize = 3;

/// Ops recorded from one generator to feed the unit-cost harnesses.
const RECORDED_OPS: usize = 1 << 16;

/// What one invocation asks for.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// The workload.
    pub spec: Spec,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Host seconds to measure.
    pub seconds: f64,
}

/// What one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric, in report order.
    pub metrics: Metrics,
    /// Simulation runs started.
    pub attempted: u64,
    /// Runs that panicked, broke an invariant or produced a wrong digest.
    pub failed: u64,
    /// Why each failed run failed.
    pub failures: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        eprintln!("run failed: {why}");
        self.failed += 1;
        self.failures.push(why);
    }
}

/// A built, warmed machine and its epoch log.
struct Sim {
    sys: System,
    log: EpochLog,
    /// Host seconds from the start of the build to the first timed cycle.
    setup_s: f64,
    epoch_cycles: u64,
    /// Bytes each class moved during warm-up.
    warm_bytes: [u64; 2],
}

impl Sim {
    /// Builds the machine, runs the warm-up epochs and marks the start of
    /// measurement.
    fn start(
        spec: &Spec,
        seed: u64,
        wrap: impl FnMut(Box<dyn Workload>) -> Box<dyn Workload>,
    ) -> Result<Sim, String> {
        let t = Instant::now();
        let mut sys = spec.build(seed, wrap).map_err(|e| format!("build: {e}"))?;
        let log = EpochLog::default();
        sys.add_trace_sink(Box::new(log.clone()));
        let epoch_cycles = sys.metrics().bw_series.epoch_cycles();
        sys.run_epochs(spec.warmup_epochs as usize);
        let warm_bytes = [sys.bytes_since_mark(0), sys.bytes_since_mark(1)];
        sys.mark_measurement();
        Ok(Sim { sys, log, setup_s: t.elapsed().as_secs_f64(), epoch_cycles, warm_bytes })
    }

    /// The correctness digest of the run so far.
    fn digest(&self) -> u64 {
        state_digest(&self.sys, &self.log.records(0, u64::MAX))
    }

    /// An error naming the broken invariants, if any; also an error when
    /// the checker never ran.
    fn invariants(&self) -> Result<(), String> {
        let r = self.sys.invariant_report();
        if r.checks_run() == 0 {
            return Err("the invariant checker never ran".into());
        }
        match r.violations().first() {
            None if r.total_violations() == 0 => Ok(()),
            first => Err(format!("{} invariant violations, first {first:?}", r.total_violations())),
        }
    }
}

/// Simulated statistics of the deterministic window. A change that only
/// makes the simulator faster leaves every field unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SimStats {
    /// Mean per-core instructions per cycle.
    ipc: f64,
    /// Cycles per epoch.
    epoch_cycles: u64,
    /// Instructions all cores retired per epoch.
    insts_per_epoch: f64,
    /// Largest relative error of the class byte shares against 3:1.
    alloc_err_pct: f64,
    /// 100 less the distance, in percentage points, of class 0's share of
    /// the delivered bytes from its 75% target: 100 is an exact 3:1 split.
    alloc_match_pct: f64,
    /// Data-bus utilization over all controllers.
    bus_util_pct: f64,
    /// Mean controller read latency per class over the whole run, warm-up
    /// included: the system exposes only whole-run latency sums.
    read_lat: [f64; 2],
    /// The per-class latencies weighted by each class's whole-run bytes.
    read_lat_all: f64,
    /// Bytes delivered per class.
    bytes: [u64; 2],
    digest: u64,
}

impl SimStats {
    fn of(sim: &Sim) -> SimStats {
        let sys = &sim.sys;
        let cores = sys.tiles().len();
        let ipc = (0..cores).map(|i| sys.ipc_since_mark(i)).sum::<f64>() / cores as f64;
        let bytes = [sys.bytes_since_mark(0), sys.bytes_since_mark(1)];
        let targets: Vec<f64> = WEIGHTS.iter().map(|&w| f64::from(w)).collect();
        let observed = [bytes[0].max(1) as f64, bytes[1].max(1) as f64];
        let read_lat = [0, 1].map(|c| sys.mc_read_latency(c).unwrap_or(0.0));
        let run_bytes = [0, 1].map(|c| (sim.warm_bytes[c] + bytes[c]).max(1) as f64);
        let target_pct = 100.0 * targets[0] / targets.iter().sum::<f64>();
        let c0_share_pct = 100.0 * observed[0] / (observed[0] + observed[1]);
        SimStats {
            ipc,
            epoch_cycles: sim.epoch_cycles,
            insts_per_epoch: ipc * (cores as u64 * sim.epoch_cycles) as f64,
            alloc_err_pct: allocation_error_pct(&targets, &observed),
            alloc_match_pct: 100.0 - (c0_share_pct - target_pct).abs(),
            bus_util_pct: 100.0 * sys.bus_utilization_since_mark(),
            read_lat,
            read_lat_all: (read_lat[0] * run_bytes[0] + read_lat[1] * run_bytes[1])
                / (run_bytes[0] + run_bytes[1]),
            bytes,
            digest: sim.digest(),
        }
    }

    /// An error when the window shows no useful work: every class must
    /// move bytes and every metric must be positive.
    fn sane(&self) -> Result<(), String> {
        let positive =
            [self.ipc, self.alloc_err_pct, self.bus_util_pct, self.read_lat[0], self.read_lat[1]];
        if self.bytes.contains(&0) || positive.iter().any(|&v| !v.is_finite() || v <= 0.0) {
            return Err(format!("implausible window statistics {self:?}"));
        }
        Ok(())
    }
}

/// Host-side counters: how much of the machine was stepped.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    now: u64,
    global_skipped: u64,
    tile_skipped: u64,
    mc_skipped: u64,
    ingress_rejects: u64,
    retired: u64,
    stores: u64,
    rob_full: u64,
    l2_hits: u64,
    l2_misses: u64,
}

impl Counters {
    fn of(sys: &System) -> Counters {
        let mut c = Counters {
            now: sys.now(),
            global_skipped: sys.cycles_skipped(),
            tile_skipped: sys.tile_cycles_skipped(),
            mc_skipped: sys.mc_cycles_skipped(),
            ingress_rejects: sys.ingress_rejects(),
            ..Counters::default()
        };
        for t in sys.tiles() {
            let s = t.core.stats();
            c.retired += s.retired;
            c.stores += s.stores;
            c.rob_full += s.rob_full_cycles;
            let (h, m) = t.mem.l2_stats();
            c.l2_hits += h;
            c.l2_misses += m;
        }
        c
    }

    fn since(self, b: Counters) -> Counters {
        Counters {
            now: self.now - b.now,
            global_skipped: self.global_skipped - b.global_skipped,
            tile_skipped: self.tile_skipped - b.tile_skipped,
            mc_skipped: self.mc_skipped - b.mc_skipped,
            ingress_rejects: self.ingress_rejects - b.ingress_rejects,
            retired: self.retired - b.retired,
            stores: self.stores - b.stores,
            rob_full: self.rob_full - b.rob_full,
            l2_hits: self.l2_hits - b.l2_hits,
            l2_misses: self.l2_misses - b.l2_misses,
        }
    }
}

/// The timed window: whole epochs, each in `spec.chunks_per_epoch` equal
/// chunks, until `seconds` have passed and the deterministic window is
/// complete. Warm-up ends on an epoch boundary, so the last chunk of
/// every epoch holds the boundary's governor, audit and trace work.
struct Window {
    /// Host seconds of every timed chunk, by its position in the epoch.
    chunk_s: Vec<Vec<f64>>,
    /// Simulated cycles and host seconds of the whole timed window.
    total: (u64, f64),
    /// Host seconds from the window start to the end of the
    /// deterministic window.
    det_s: f64,
    /// Simulated statistics at the end of the deterministic window.
    stats: SimStats,
    /// Host counters over the deterministic window.
    counters: Counters,
}

fn timed_window(
    sim: &mut Sim,
    spec: &Spec,
    seconds: f64,
    began: Instant,
    mut at_det_end: impl FnMut(),
) -> Result<Window, String> {
    let det_end = spec.window_end(sim.epoch_cycles);
    let start_counters = Counters::of(&sim.sys);
    let chunks = spec.chunks_per_epoch;
    assert_eq!(sim.epoch_cycles % chunks, 0, "chunks must split the epoch evenly");
    let mut chunk_s = vec![Vec::new(); chunks as usize];
    let mut end = None;
    let t0 = Instant::now();
    loop {
        for times in &mut chunk_s {
            let t = Instant::now();
            sim.sys.run_cycles(sim.epoch_cycles / chunks);
            times.push(t.elapsed().as_secs_f64());
        }
        if sim.sys.now() == det_end {
            let det_s = t0.elapsed().as_secs_f64();
            at_det_end();
            end = Some((det_s, SimStats::of(sim), Counters::of(&sim.sys).since(start_counters)));
        }
        if end.is_some() && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if began.elapsed() > DEADLINE {
            return Err(format!("still running after {DEADLINE:?}"));
        }
    }
    let (det_s, stats, counters) = end.expect("the loop ends only after the window");
    let total = (sim.sys.now() - start_counters.now, t0.elapsed().as_secs_f64());
    Ok(Window { chunk_s, total, det_s, stats, counters })
}

/// The host time an epoch takes on an undisturbed host: the fastest time
/// of the last chunk position, which holds the epoch boundary, plus the
/// fastest time of any other chunk for each of the other positions.
/// With one chunk per epoch this is the fastest epoch.
///
/// On a shared host the neighbours slow the simulator down by up to half,
/// in stretches from milliseconds to minutes, and how much of a run they
/// cover varies from run to run. They only ever add time, so the fastest
/// time repeats where a mean, median or quartile does not, and the
/// fastest of many short chunks repeats better than the fastest of a
/// few: the quiet moments it needs come in every run. Pooling the
/// positions before the boundary assumes they hold equal work; on
/// `write_stream` the chunk times at one position of two runs of the
/// same seed are uncorrelated, so position-to-position differences in
/// work are far below the host's noise. The boundary chunk stays apart,
/// so its governor, audit and trace work always counts.
fn fast_epoch_s(chunk_s: &[Vec<f64>]) -> f64 {
    let (boundary, body) = chunk_s.split_last().expect("an epoch has at least one chunk");
    let body_s = if body.is_empty() { 0.0 } else { fastest(body.iter().flatten()) };
    fastest(boundary) + body.len() as f64 * body_s
}

fn fastest<'a>(times: impl IntoIterator<Item = &'a f64>) -> f64 {
    times.into_iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

/// Checks a window's digest against the recorded one, its statistics
/// for plausibility, and the run for invariant violations.
fn check_window(req: &Request, sim: &Sim, w: &Window) -> Result<(), String> {
    if let Some(want) = recorded(req.spec.name, req.seed) {
        if w.stats.digest != want {
            return Err(format!("digest {:016x}, recorded {want:016x}", w.stats.digest));
        }
    }
    w.stats.sane()?;
    sim.invariants()
}

fn identity(w: Box<dyn Workload>) -> Box<dyn Workload> {
    w
}

/// The untraced run: `spec.runs` runs of the seed one after another,
/// each a fresh set-up followed by its share of the timed seconds, then
/// set-ups alone up to [`MIN_SETUPS`]. Every timed run covers the
/// deterministic window and must reach the same digest. Spreading the
/// set-ups over the whole invocation lets `setup_s` see the same mix of
/// host conditions as the epoch rates.
pub fn untraced(req: &Request, began: Instant) -> Outcome {
    let spec = &req.spec;
    let mut out = Outcome::default();
    let share = req.seconds / spec.runs as f64;
    let mut setup_s = Vec::new();
    let mut chunk_s = vec![Vec::new(); spec.chunks_per_epoch as usize];
    let (mut cycles, mut secs) = (0, 0.0);
    let mut first: Option<SimStats> = None;
    let mut rss_mib = None;
    for r in 0..spec.runs.max(MIN_SETUPS) {
        out.attempted += 1;
        if r >= spec.runs {
            match guarded(|| {
                Sim::start(spec, req.seed, identity).and_then(|sim| {
                    sim.invariants()?;
                    Ok(sim.setup_s)
                })
            }) {
                Ok(s) => setup_s.push(s),
                Err(e) => out.fail(format!("set-up {r}: {e}")),
            }
            continue;
        }
        let run = guarded(|| {
            let mut sim = Sim::start(spec, req.seed, identity)?;
            let w = timed_window(&mut sim, spec, share, began, || {})?;
            check_window(req, &sim, &w)?;
            Ok((sim.setup_s, w))
        });
        let (s, w) = match run {
            Ok(x) => x,
            Err(e) => {
                out.fail(format!("run {r}: {e}"));
                continue;
            }
        };
        let want = first.get_or_insert(w.stats).digest;
        if w.stats.digest != want {
            out.fail(format!(
                "run {r}: digest {:016x} differs from the first run's {want:016x}",
                w.stats.digest
            ));
            continue;
        }
        // Read after the first run, before later set-ups add the allocator's
        // reuse pattern on top of one machine's footprint.
        rss_mib.get_or_insert_with(peak_rss_mib);
        setup_s.push(s);
        for (all, run) in chunk_s.iter_mut().zip(w.chunk_s) {
            all.extend(run);
        }
        cycles += w.total.0;
        secs += w.total.1;
    }
    let (Some(stats), Some(rss_mib)) = (first, rss_mib) else { return out };
    if out.failed > 0 {
        return out;
    }
    println!("digest {} {} {:016x}", spec.name, req.seed, stats.digest);
    let epoch_s = fast_epoch_s(&chunk_s);
    println!(
        "fast epoch {epoch_s:.6} s over {} epochs of {} chunks; mean rate {:.1} cycles/s \
         ({cycles} cycles in {secs:.3} timed s)",
        chunk_s[0].len(),
        chunk_s.len(),
        cycles as f64 / secs
    );
    describe("setup_s", &setup_s, "set-ups");
    let m = &mut out.metrics;
    m.put("sim_cycles_per_s", stats.epoch_cycles as f64 / epoch_s);
    m.put("sim_insts_per_s", stats.insts_per_epoch / epoch_s);
    m.put("setup_s", median(&setup_s));
    m.put("peak_rss_mib", rss_mib);
    m.put("sim_ipc", stats.ipc);
    m.put("alloc_match_pct", stats.alloc_match_pct);
    m.put("bus_util_pct", stats.bus_util_pct);
    m.put("read_lat_cycles", stats.read_lat_all);
    println!(
        "alloc_err_pct {:.6} % (against 3:1), read_lat_c0_cycles {:.3}, read_lat_c1_cycles {:.3}",
        stats.alloc_err_pct, stats.read_lat[0], stats.read_lat[1]
    );
    out
}

/// The correctness digest of the deterministic window, untimed.
pub fn digest_only(req: &Request) -> Result<u64, String> {
    guarded(|| {
        let mut sim = Sim::start(&req.spec, req.seed, identity)?;
        sim.sys.run_epochs(req.spec.window_epochs as usize);
        sim.invariants()?;
        Ok(SimStats::of(&sim).digest)
    })
}

/// Prints a sample's median, quartiles and count.
fn describe(name: &str, xs: &[f64], of: &str) {
    let (q1, q3) = quartiles(xs);
    println!("{name}: median {:.6} q1 {q1:.6} q3 {q3:.6} over {} {of}", median(xs), xs.len());
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kib / 1024.0
}

/// The traced run: an untraced machine and a traced one over the same
/// window, then the unit-cost harnesses, then the reconciliation.
pub fn traced(req: &Request, began: Instant) -> Outcome {
    let spec = &req.spec;
    let mut out = Outcome::default();
    let half = req.seconds / 2.0;

    out.attempted += 1;
    let plain = guarded(|| {
        let mut sim = Sim::start(spec, req.seed, identity)?;
        let w = timed_window(&mut sim, spec, half, began, || {})?;
        check_window(req, &sim, &w)?;
        Ok((sim, w))
    });
    let (plain, pw) = match plain {
        Ok(x) => x,
        Err(e) => {
            out.fail(format!("untraced window: {e}"));
            return out;
        }
    };

    out.attempted += 1;
    let probe = Rc::new(OpProbe::default());
    let traced = guarded(|| {
        let wrap =
            |inner| Box::new(TimedWorkload { inner, probe: probe.clone() }) as Box<dyn Workload>;
        let mut sim = Sim::start(spec, req.seed, wrap)?;
        probe.reset();
        let mut calls = 0;
        let w = timed_window(&mut sim, spec, half, began, || calls = probe.calls())?;
        if w.stats.digest != pw.stats.digest {
            return Err(format!(
                "traced digest {:016x} differs from untraced {:016x}",
                w.stats.digest, pw.stats.digest
            ));
        }
        sim.invariants()?;
        Ok((sim, w, calls))
    });
    let (tsim, tw, calls) = match traced {
        Ok(x) => x,
        Err(e) => {
            out.fail(format!("traced window: {e}"));
            return out;
        }
    };

    let w0 = spec.warmup_epochs;
    let window_records = plain.log.records(w0, w0 + spec.window_epochs);
    let read_depth = mean_of(&window_records, |r| mean_u64(&r.mc_read_depth));
    let write_depth = mean_of(&window_records, |r| mean_u64(&r.mc_write_depth));
    let throttles = mean_of(&window_records, |r| r.tile_throttles.iter().sum::<u64>() as f64);
    let sat_share = mean_of(&window_records, |r| f64::from(u8::from(r.sat)));
    let cfg = spec.config();
    let inputs = units::Inputs {
        ops: {
            let mut g = spec.generator(req.seed, 0, 0);
            (0..RECORDED_OPS).map(|_| g.next_op()).collect::<Vec<Op>>()
        },
        fill_lat: pw.stats.read_lat[0].round() as u64 + cfg.l3_lat + cfg.resp_lat,
        pacer_period: {
            let periods: Vec<f64> = plain
                .sys
                .tiles()
                .iter()
                .filter_map(|t| t.mem.pacers().first().map(|p| p.period() as f64))
                .collect();
            if periods.is_empty() {
                0
            } else {
                median(&periods) as u64
            }
        },
        read_depth,
        write_depth,
        class0_share: pw.stats.bytes[0] as f64 / (pw.stats.bytes[0] + pw.stats.bytes[1]) as f64,
        cfg,
    };
    let costs = units::measure(&inputs);
    let overhead = units::timer_overhead_ns();

    let epoch_ms = tsim.log.epoch_ms(w0);
    let c = pw.counters;
    let tiles = plain.sys.tiles().len() as u64;
    let mcs = plain.sys.mc_count() as u64;
    let tile_steps = c.now * tiles - c.tile_skipped;
    let mc_steps = c.now * mcs - c.mc_skipped;
    let next_op_ns = probe.mean_ns(overhead);
    let shares = Shares::estimate(
        pw.det_s,
        [
            tile_steps as f64 * costs.cpu_step,
            mc_steps as f64 * costs.dram_step,
            calls as f64 * next_op_ns,
        ],
    );
    let overhead_pct = 100.0 * (fast_epoch_s(&tw.chunk_s) / fast_epoch_s(&pw.chunk_s) - 1.0);

    let m = &mut out.metrics;
    m.put("workloads.next_op_calls", calls as f64);
    m.put("workloads.next_op_ns", next_op_ns);
    let (p50, tail_ms) = epoch_summary(&epoch_ms);
    m.put("epoch.host_ms_p50", p50);
    m.put("epoch.host_ms_tail", tail_ms);
    m.put("dram.read_q_depth_mean", read_depth);
    m.put("dram.write_q_depth_mean", write_depth);
    m.put("core.throttles", throttles);
    m.put("core.sat_share", sat_share);
    m.put("sched.tile_steps", tile_steps as f64);
    m.put("sched.tile_park_share", c.tile_skipped as f64 / (c.now * tiles) as f64);
    m.put("sched.mc_steps", mc_steps as f64);
    m.put("sched.mc_park_share", c.mc_skipped as f64 / (c.now * mcs) as f64);
    m.put("sched.global_jump_share", c.global_skipped as f64 / c.now as f64);
    m.put("net.ingress_rejects", c.ingress_rejects as f64);
    m.put("cpu.retired", c.retired as f64);
    m.put("cpu.stores", c.stores as f64);
    m.put("cpu.rob_full_cycles", c.rob_full as f64);
    m.put("core.alloc_err_pct", pw.stats.alloc_err_pct);
    m.put("dram.read_lat_c0_cycles", pw.stats.read_lat[0]);
    m.put("dram.read_lat_c1_cycles", pw.stats.read_lat[1]);
    m.put("cache.l2_miss_share", c.l2_misses as f64 / (c.l2_hits + c.l2_misses).max(1) as f64);
    m.put("cpu.step_ns", costs.cpu_step);
    m.put("cpu.next_event_ns", costs.cpu_next_event);
    m.put("cache.probe_ns", costs.cache_probe);
    m.put("cache.fill_ns", costs.cache_fill);
    m.put("dram.step_ns", costs.dram_step);
    m.put("dram.next_event_ns", costs.dram_next_event);
    m.put("core.pacer_ns", costs.pacer);
    m.put("core.arbiter_ns", costs.arbiter);
    m.put("simkit.park_unpark_ns", costs.park_unpark);
    m.put("simkit.delayq_ns", costs.delayq);
    m.put("cpu.est_share", shares.parts[0]);
    m.put("dram.est_share", shares.parts[1]);
    m.put("workloads.est_share", shares.parts[2]);
    m.put("unattributed_share", shares.unattributed);
    m.put("trace_overhead_pct", overhead_pct);
    println!(
        "finding: unattributed_share {:.3} of {:.3} s window host time: net, l3_service and \
         the horizon probe loop have no public entry point, so their cost sits here",
        shares.unattributed, pw.det_s
    );
    if tail(&epoch_ms).is_none() {
        println!(
            "note: {} timed epochs, fewer than 11: epoch.host_ms_tail is their maximum",
            epoch_ms.len()
        );
    }
    out
}

/// The epoch-time median and tail (the maximum when there are fewer
/// than 11 epochs).
fn epoch_summary(ms: &[f64]) -> (f64, f64) {
    if ms.is_empty() {
        return (0.0, 0.0);
    }
    let max = ms.iter().copied().fold(f64::MIN, f64::max);
    (median(ms), tail(ms).map_or(max, |t| t.0))
}

/// The reconciliation: each layer's estimated share of the window's host
/// time (its call count times its unit cost), and the residual.
#[derive(Debug, Clone, PartialEq)]
pub struct Shares {
    /// Share per layer, in the order given.
    pub parts: [f64; 3],
    /// One minus the sum of the parts; negative when the estimates
    /// overshoot.
    pub unattributed: f64,
}

impl Shares {
    /// Shares of `wall_s` host seconds taken by `layer_ns` nanoseconds
    /// per layer.
    pub fn estimate(wall_s: f64, layer_ns: [f64; 3]) -> Shares {
        let parts = layer_ns.map(|ns| ns * 1e-9 / wall_s);
        Shares { parts, unattributed: 1.0 - parts.iter().sum::<f64>() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short version of `spec`, so the test stays quick.
    fn short(spec: Spec) -> Request {
        let spec = Spec { warmup_epochs: 1, window_epochs: 1, ..spec };
        Request { spec, seed: 3, seconds: 0.0 }
    }

    #[test]
    fn the_same_seed_gives_the_same_digest() {
        for spec in [crate::spec::SPECS[0], crate::spec::SPECS[2]] {
            let req = short(spec);
            let a = digest_only(&req).expect("clean run");
            assert_eq!(a, digest_only(&req).expect("clean run"), "{}", spec.name);
            let other = Request { seed: 4, ..req };
            assert_ne!(
                a,
                digest_only(&other).expect("clean run"),
                "{}: seed must matter",
                spec.name
            );
        }
    }

    #[test]
    fn reconciliation_adds_up() {
        let s = Shares::estimate(2.0, [1e9, 0.5e9, 0.1e9]);
        assert_eq!(s.parts, [0.5, 0.25, 0.05]);
        assert!((s.unattributed - 0.2).abs() < 1e-12);
        let over = Shares::estimate(1.0, [0.8e9, 0.4e9, 0.0]);
        assert!(
            (over.unattributed + 0.2).abs() < 1e-12,
            "an overshoot shows as a negative residual"
        );
    }

    #[test]
    fn fast_epoch_counts_the_boundary_chunk() {
        // The last position holds the epoch boundary and is always slow;
        // the host slows the other chunks in most epochs.
        let chunk_s = vec![vec![2.0, 1.0, 3.0], vec![1.5, 2.5, 2.0], vec![5.0, 5.5, 5.0]];
        assert_eq!(fast_epoch_s(&chunk_s), 7.0, "the fastest body chunk, twice, plus the boundary");
        let whole = vec![vec![7.5, 6.0, 8.0]];
        assert_eq!(fast_epoch_s(&whole), 6.0, "one chunk: the fastest epoch");
    }

    #[test]
    fn epoch_summary_falls_back_to_the_maximum() {
        assert_eq!(epoch_summary(&[3.0, 1.0, 2.0]), (2.0, 3.0));
        let ms: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(epoch_summary(&ms), (10.5, 10.0));
    }
}
