//! Per-call unit costs: each harness calls one layer's public entry point
//! in a loop, fed with the traced workload's own op stream, line stream,
//! queue depths, pacing period and read latency, and reports the median
//! cost per call over several batches.
//!
//! Calls that take tens of nanoseconds or more are timed one by one and
//! the timer's own cost is subtracted; cheaper calls are timed in bulk.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use pabst_cache::{LineAddr, SetAssocCache};
use pabst_core::arbiter::VirtualClocks;
use pabst_core::pacer::Pacer;
use pabst_core::qos::{QosId, ShareTable};
use pabst_cpu::{LoadId, OooCore, Op, Workload};
use pabst_dram::{Completion, MemController, MemReq};
use pabst_simkit::horizon::DomainHorizon;
use pabst_simkit::queue::VarDelayQueue;
use pabst_soc::config::{SystemConfig, Topology};
use pabst_soc::tile::TileMem;

use crate::spec::WEIGHTS;
use crate::stats::median;

/// Batches per harness; each cost is the median over them.
const BATCHES: usize = 7;

/// What the harnesses are fed, all taken from the traced workload.
#[derive(Debug)]
pub struct Inputs {
    /// The traced machine.
    pub cfg: SystemConfig,
    /// Ops of one of the workload's cores, in program order.
    pub ops: Vec<Op>,
    /// Cycles from a tile's injection to its fill (controller read
    /// latency plus the L3 and response path).
    pub fill_lat: u64,
    /// The pacer period the tiles ran with at the end of the window.
    pub pacer_period: u64,
    /// Mean controller read-queue depth at epoch boundaries.
    pub read_depth: f64,
    /// Mean controller write-queue depth at epoch boundaries.
    pub write_depth: f64,
    /// Class 0's share of delivered bytes.
    pub class0_share: f64,
}

/// Nanoseconds per call of each timed entry point.
#[derive(Debug, Clone, Copy)]
pub struct Costs {
    /// `OooCore::step` against a `TileMem` port.
    pub cpu_step: f64,
    /// `OooCore::next_event`.
    pub cpu_next_event: f64,
    /// `SetAssocCache::probe` / `probe_write` on the L2.
    pub cache_probe: f64,
    /// `SetAssocCache::fill` on the L2.
    pub cache_fill: f64,
    /// `MemController::step_into`.
    pub dram_step: f64,
    /// `MemController::next_event`.
    pub dram_next_event: f64,
    /// `Pacer::try_issue`.
    pub pacer: f64,
    /// `VirtualClocks::stamp` plus `on_picked`.
    pub arbiter: f64,
    /// `DomainHorizon::park` plus `maybe_due` plus `unpark`.
    pub park_unpark: f64,
    /// `VarDelayQueue::push` plus its `pop_ready`.
    pub delayq: f64,
}

/// Runs every harness.
pub fn measure(inp: &Inputs) -> Costs {
    let overhead = timer_overhead_ns();
    let (cpu_step, cpu_next_event) = cpu(inp, overhead);
    let (cache_probe, cache_fill) = cache(inp);
    let (dram_step, dram_next_event) = dram(inp, overhead);
    Costs {
        cpu_step,
        cpu_next_event,
        cache_probe,
        cache_fill,
        dram_step,
        dram_next_event,
        pacer: pacer(inp),
        arbiter: arbiter(inp),
        park_unpark: park_unpark(inp),
        delayq: delayq(inp),
    }
}

/// Median cost of one empty `Instant` span.
pub fn timer_overhead_ns() -> f64 {
    let xs: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            black_box(());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&xs)
}

/// Sum of individually timed calls.
#[derive(Debug, Default)]
struct Spans {
    ns: u128,
    calls: u64,
}

impl Spans {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos();
        self.calls += 1;
        r
    }

    fn per_call(&self, overhead: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        (self.ns as f64 / self.calls as f64 - overhead).max(0.0)
    }
}

/// Median over batches of `batch()`'s per-call cost.
fn batches(mut batch: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&xs)
}

/// Bulk-timed cost per call of `n` calls of `f`.
fn bulk(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Replays a recorded op stream forever. Each pass shifts load ids
/// past the previous pass, so ids stay unique and dependences keep
/// pointing inside their own pass.
struct Replay {
    ops: Vec<Op>,
    at: usize,
    shift: u64,
}

impl Workload for Replay {
    fn next_op(&mut self) -> Op {
        if self.at == self.ops.len() {
            self.at = 0;
            self.shift += 1 << 36;
        }
        let op = self.ops[self.at];
        self.at += 1;
        match op {
            Op::Load { addr, id, dep } => Op::Load {
                addr,
                id: LoadId(id.0 + self.shift),
                dep: dep.map(|d| LoadId(d.0 + self.shift)),
            },
            other => other,
        }
    }

    fn name(&self) -> &str {
        "replay"
    }
}

fn lines(ops: &[Op]) -> Vec<(LineAddr, bool)> {
    ops.iter()
        .filter_map(|op| match *op {
            Op::Load { addr, .. } => Some((addr.line(), false)),
            Op::Store { addr } => Some((addr.line(), true)),
            _ => None,
        })
        .collect()
}

fn shares() -> ShareTable {
    ShareTable::from_weights(&WEIGHTS).expect("3:1 weights are valid")
}

/// A deterministic class sequence with class 0 at `share`.
fn class_of(i: u64, share: f64) -> QosId {
    let frac = (crate::spec::mix(i, 0, 0) >> 11) as f64 / (1u64 << 53) as f64;
    QosId::new(u8::from(frac >= share))
}

/// One tile's core and L1/L2 front end, with fills returned a fixed
/// latency after injection.
fn cpu(inp: &Inputs, overhead: f64) -> (f64, f64) {
    let cfg = &inp.cfg;
    let mut core = OooCore::new(cfg.core);
    let pacers = vec![Pacer::with_burst(inp.pacer_period, cfg.pacer_burst)];
    let mut mem = TileMem::new(
        QosId::new(0),
        SetAssocCache::new(cfg.l1),
        SetAssocCache::new(cfg.l2),
        cfg.l2_mshrs,
        cfg.l1_lat,
        cfg.l2_lat,
        pacers,
        cfg.mcs,
        cfg.topology.channel_map,
    );
    let mut wl = Replay { ops: inp.ops.clone(), at: 0, shift: 0 };
    let mut fills: VecDeque<(u64, LineAddr)> = VecDeque::new();
    let mut loads: Vec<LoadId> = Vec::new();
    let mut now = 0u64;
    let mut cycle = |step: &mut Spans, probe: &mut Spans| {
        while fills.front().is_some_and(|f| f.0 <= now) {
            let (_, line) = fills.pop_front().expect("front checked");
            loads.clear();
            loads.extend(mem.on_fill(line).iter().filter_map(|w| w.load));
            for &id in &loads {
                core.on_fill(now, id);
                core.release_slot();
            }
            mem.settle_response(line, false, false, now);
            while mem.pop_l2_writeback().is_some() {}
        }
        while let Some(req) = mem.try_inject(now) {
            fills.push_back((now + inp.fill_lat, req.line));
        }
        black_box(probe.time(|| core.next_event(now)));
        step.time(|| core.step(now, &mut wl, &mut mem));
        now += 1;
    };
    let (mut warm_a, mut warm_b) = (Spans::default(), Spans::default());
    for _ in 0..2_000 {
        cycle(&mut warm_a, &mut warm_b);
    }
    let mut next_event = Vec::new();
    let step = batches(|| {
        let (mut s, mut p) = (Spans::default(), Spans::default());
        for _ in 0..3_000 {
            cycle(&mut s, &mut p);
        }
        next_event.push(p.per_call(overhead));
        s.per_call(overhead)
    });
    (step, median(&next_event))
}

/// The L2 array probed with the workload's line stream, filling on miss.
fn cache(inp: &Inputs) -> (f64, f64) {
    let stream = lines(&inp.ops);
    let mut l2 = SetAssocCache::new(inp.cfg.l2);
    let class = QosId::new(0);
    let mut at = 0;
    let mut missed = Vec::new();
    let mut fill = Vec::new();
    let probe = batches(|| {
        missed.clear();
        let t = Instant::now();
        for _ in 0..20_000 {
            let (line, store) = stream[at % stream.len()];
            at += 1;
            let hit = if store { l2.probe_write(line) } else { l2.probe(line) };
            if !black_box(hit) {
                missed.push((line, store));
            }
        }
        let probe_ns = t.elapsed().as_nanos() as f64 / 20_000.0;
        let t = Instant::now();
        for &(line, dirty) in &missed {
            black_box(l2.fill(line, class, dirty));
        }
        if !missed.is_empty() {
            fill.push(t.elapsed().as_nanos() as f64 / missed.len() as f64);
        }
        probe_ns
    });
    (probe, if fill.is_empty() { 0.0 } else { median(&fill) })
}

/// One controller kept at the workload's mean read and write depth with
/// the workload's line stream and class mix.
fn dram(inp: &Inputs, overhead: f64) -> (f64, f64) {
    let cfg = &inp.cfg;
    let mut mc = MemController::new(cfg.dram, cfg.arbiter, &shares(), cfg.arbiter_slack);
    let stream = lines(&inp.ops);
    let want_reads = inp.read_depth.round().max(1.0) as u64;
    let want_writes = inp.write_depth.round() as u64;
    let (mut reads, mut writes, mut at, mut now) = (0u64, 0u64, 0u64, 0u64);
    let mut out: Vec<Completion> = Vec::new();
    let mut cycle = |step: &mut Spans, probe: &mut Spans| {
        while reads < want_reads || writes < want_writes {
            let is_write = reads >= want_reads;
            let (line, _) = stream[at as usize % stream.len()];
            let req = MemReq { line, class: class_of(at, inp.class0_share), is_write, token: at };
            if mc.push(req).is_err() {
                break;
            }
            at += 1;
            if is_write {
                writes += 1;
            } else {
                reads += 1;
            }
        }
        black_box(probe.time(|| mc.next_event(now)));
        out.clear();
        step.time(|| mc.step_into(now, &mut out));
        for c in &out {
            if c.is_write {
                writes -= 1;
            } else {
                reads -= 1;
            }
        }
        now += 1;
    };
    let (mut warm_a, mut warm_b) = (Spans::default(), Spans::default());
    for _ in 0..5_000 {
        cycle(&mut warm_a, &mut warm_b);
    }
    let mut next_event = Vec::new();
    let step = batches(|| {
        let (mut s, mut p) = (Spans::default(), Spans::default());
        for _ in 0..10_000 {
            cycle(&mut s, &mut p);
        }
        next_event.push(p.per_call(overhead));
        s.per_call(overhead)
    });
    (step, median(&next_event))
}

/// The source pacer at the workload's period, offered a request every
/// cycle.
fn pacer(inp: &Inputs) -> f64 {
    let mut p = Pacer::with_burst(inp.pacer_period, inp.cfg.pacer_burst);
    let mut base = 0;
    batches(|| {
        let r = bulk(200_000, |i| {
            black_box(p.try_issue(base + i));
        });
        base += 200_000;
        r
    })
}

/// The target arbiter's virtual clocks stamping and picking the
/// workload's class mix.
fn arbiter(inp: &Inputs) -> f64 {
    let mut vc = VirtualClocks::new(&shares(), inp.cfg.arbiter_slack);
    let classes: Vec<QosId> = (0..4096).map(|i| class_of(i, inp.class0_share)).collect();
    batches(|| {
        bulk(200_000, |i| {
            let id = classes[i as usize % classes.len()];
            let d = vc.stamp(id);
            vc.on_picked(id, black_box(d));
        })
    })
}

/// Tile-domain park/wake: every tile parks with a wake one fill latency
/// out and is unparked when it arrives.
fn park_unpark(inp: &Inputs) -> f64 {
    let n = inp.cfg.cores;
    let mut h = DomainHorizon::new(n);
    let mut now = 0u64;
    batches(|| {
        bulk(200_000, |i| {
            let k = i as usize % n;
            h.park(k, now, Some(now + inp.fill_lat));
            black_box(h.maybe_due(now));
            now += 1;
            black_box(h.unpark(k, now));
        })
    })
}

/// The request network's variable-delay queue with the machine's
/// tile-to-L3 distances.
fn delayq(inp: &Inputs) -> f64 {
    let topo: Topology = inp.cfg.topology;
    let delays: Vec<u64> = (0..inp.cfg.cores)
        .map(|i| topo.req_base_lat + Topology::hops(topo.tile_pos(i), topo.l3_pos()) * topo.hop_lat)
        .collect();
    let mut q: VarDelayQueue<usize> = VarDelayQueue::new();
    let mut now = 0u64;
    batches(|| {
        bulk(200_000, |i| {
            let k = i as usize % delays.len();
            q.push(now + delays[k], k);
            now += 1;
            while let Some(x) = q.pop_ready(now) {
                black_box(x);
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_keeps_ids_unique_across_passes() {
        let ops = vec![
            Op::Load { addr: pabst_cache::Addr::new(64), id: LoadId(5), dep: None },
            Op::Load { addr: pabst_cache::Addr::new(128), id: LoadId(6), dep: Some(LoadId(5)) },
        ];
        let mut r = Replay { ops, at: 0, shift: 0 };
        let ids: Vec<(u64, Option<u64>)> = (0..4)
            .map(|_| match r.next_op() {
                Op::Load { id, dep, .. } => (id.0, dep.map(|d| d.0)),
                _ => unreachable!("only loads recorded"),
            })
            .collect();
        assert_eq!(ids[0], (5, None));
        assert_eq!(ids[1], (6, Some(5)));
        assert_eq!(ids[2], (5 + (1 << 36), None));
        assert_eq!(ids[3], (6 + (1 << 36), Some(5 + (1 << 36))));
    }

    #[test]
    fn class_mix_follows_the_share() {
        let n = 10_000;
        let c0 = (0..n).filter(|&i| class_of(i, 0.75) == QosId::new(0)).count();
        assert!((7_000..8_000).contains(&c0), "{c0}");
    }
}
