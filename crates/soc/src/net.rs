//! The on-chip interconnect as a modelled component.
//!
//! Before the topology refactor the network was two fixed-latency
//! [`pabst_simkit::queue::DelayQueue`]s (`l3_lat`, `resp_lat`) plus an
//! inline per-MC staging stage in `System::step`. This module folds all
//! three into one component driven by [`Topology`]:
//!
//! * **request network** — tile → L3, per-tile delay derived from mesh
//!   distance (or the uniform `l3_lat` under [`NetModel::Uniform`]);
//! * **response network** — L3/MC → tile, per-(source, tile) delay;
//! * **staging** — per-(MC, class) queues between the L3 miss path and
//!   each controller's ingress port, drained round-robin across classes
//!   (per-source-fair arbitration) with an optional per-cycle admission
//!   bound (`mc_link_bw`).
//!
//! Under the uniform defaults every delay table collapses to the legacy
//! constants and the staging delay to zero, so the committed goldens stay
//! byte-identical. [`Interconnect::next_event`] bounds the system's
//! whole-machine jump, keeping cycle skipping sound across the refactor.

use std::collections::VecDeque;

use pabst_cache::LineAddr;
use pabst_core::qos::QosId;
use pabst_dram::{MemController, MemReq};
use pabst_simkit::queue::VarDelayQueue;
use pabst_simkit::Cycle;

use crate::config::{NetModel, SystemConfig, Topology};

/// A message travelling from a tile to the shared L3.
#[derive(Debug, Clone, Copy)]
pub(crate) struct L3Req {
    pub(crate) line: LineAddr,
    pub(crate) class: QosId,
    pub(crate) tile: usize,
    pub(crate) store: bool,
    /// Pure L2 writeback into the L3 (no response needed).
    pub(crate) l2_wb: bool,
}

/// A response returning to a tile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileResp {
    pub(crate) line: LineAddr,
    pub(crate) tile: usize,
    /// Serviced by the shared cache (pacer refunds one period).
    pub(crate) l3_hit: bool,
    /// The demand fill evicted a dirty L3 line (pacer charges one period).
    pub(crate) wb_flag: bool,
}

/// The modelled network: request/response paths with distance-derived
/// delays and the per-MC staging/arbitration stage.
///
/// Delay tables are precomputed from the [`Topology`] at build time, so
/// the per-message cost is one table lookup regardless of the model.
#[derive(Debug)]
pub struct Interconnect {
    /// Request network: tile → L3 (delivery cycle from `req_lat`).
    pub(crate) req_net: VarDelayQueue<L3Req>,
    /// Response network: L3/MC → tile.
    pub(crate) resp_net: VarDelayQueue<TileResp>,
    /// Per-(MC, class) staging queues: (ready-at-ingress cycle, request).
    /// Within one queue ready times are non-decreasing (same per-MC hop
    /// delay, pushes in time order), so the front is each queue's horizon.
    pub(crate) staged: Vec<Vec<VecDeque<(Cycle, MemReq)>>>,
    /// Round-robin cursor per MC over the class queues.
    staged_rr: Vec<usize>,
    /// Total requests staged per MC across class queues; lets the drain
    /// and the horizon skip controllers with nothing staged.
    staged_pending: Vec<usize>,
    /// Staged→ingress admissions per MC per cycle (0 = unbounded).
    link_bw: u64,
    /// Tile → L3 request latency, per tile.
    req_lat: Vec<Cycle>,
    /// L3 → tile response latency (shared-cache hits), per tile.
    l3_resp_lat: Vec<Cycle>,
    /// MC → tile response latency (memory fills), `[mc][tile]`.
    mc_resp_lat: Vec<Vec<Cycle>>,
    /// L3 → MC staging hop latency, per MC.
    mc_req_lat: Vec<Cycle>,
    topo: Topology,
    mcs: usize,
    /// Memoized [`Interconnect::next_event`] answer; `None` means dirty
    /// (some queue mutated since the last probe). Every mutating method
    /// that can move the horizon clears it; probes hit the cache instead
    /// of re-walking the staging queues. A cached *due* answer
    /// (`t <= now`) stays due until a mutation lands, so it is
    /// normalized to `Some(now)` on read rather than recomputed.
    cached_next: Option<Option<Cycle>>,
}

impl Interconnect {
    /// Builds the interconnect for `cfg` with `classes` QoS classes,
    /// precomputing every delay table from the topology.
    pub fn new(cfg: &SystemConfig, classes: usize) -> Self {
        let t = cfg.topology;
        let (req_lat, l3_resp_lat, mc_resp_lat, mc_req_lat, link_bw) = match t.net {
            NetModel::Uniform => (
                vec![cfg.l3_lat; cfg.cores],
                vec![cfg.resp_lat; cfg.cores],
                vec![vec![cfg.resp_lat; cfg.cores]; cfg.mcs],
                vec![0; cfg.mcs],
                0,
            ),
            NetModel::Mesh => {
                let l3 = t.l3_pos();
                let req = (0..cfg.cores)
                    .map(|i| t.req_base_lat + t.hop_lat * Topology::hops(t.tile_pos(i), l3))
                    .collect();
                let l3_resp = (0..cfg.cores)
                    .map(|i| t.resp_base_lat + t.hop_lat * Topology::hops(l3, t.tile_pos(i)))
                    .collect();
                let mc_resp = (0..cfg.mcs)
                    .map(|k| {
                        let mc = t.mc_pos(k, cfg.mcs);
                        (0..cfg.cores)
                            .map(|i| {
                                t.resp_base_lat + t.hop_lat * Topology::hops(mc, t.tile_pos(i))
                            })
                            .collect()
                    })
                    .collect();
                let mc_req = (0..cfg.mcs)
                    .map(|k| t.hop_lat * Topology::hops(l3, t.mc_pos(k, cfg.mcs)))
                    .collect();
                (req, l3_resp, mc_resp, mc_req, t.mc_link_bw)
            }
        };
        Self {
            req_net: VarDelayQueue::new(),
            resp_net: VarDelayQueue::new(),
            staged: (0..cfg.mcs).map(|_| (0..classes).map(|_| VecDeque::new()).collect()).collect(),
            staged_rr: vec![0; cfg.mcs],
            staged_pending: vec![0; cfg.mcs],
            link_bw,
            req_lat,
            l3_resp_lat,
            mc_resp_lat,
            mc_req_lat,
            topo: t,
            mcs: cfg.mcs,
            cached_next: None,
        }
    }

    /// The home memory controller of `line` under the configured channel
    /// map.
    pub fn channel_of(&self, line: LineAddr) -> usize {
        self.topo.channel_map.channel_of(line, self.mcs)
    }

    /// Injects a tile request toward the L3; it arrives after the tile's
    /// distance delay.
    pub(crate) fn send_request(&mut self, now: Cycle, req: L3Req) {
        self.req_net.push(now + self.req_lat[req.tile], req);
        self.cached_next = None;
    }

    /// Pops the next request that has reached the L3 by `now`.
    pub(crate) fn pop_request(&mut self, now: Cycle) -> Option<L3Req> {
        let popped = self.req_net.pop_ready(now);
        if popped.is_some() {
            self.cached_next = None;
        }
        popped
    }

    /// True when requests are in flight toward the L3.
    pub fn has_requests(&self) -> bool {
        !self.req_net.is_empty()
    }

    /// Sends a shared-cache (L3) response back to its tile.
    pub(crate) fn send_l3_response(&mut self, now: Cycle, resp: TileResp) {
        self.resp_net.push(now + self.l3_resp_lat[resp.tile], resp);
        self.cached_next = None;
    }

    /// Sends a memory-fill response from controller `mc` back to its tile.
    pub(crate) fn send_mc_response(&mut self, now: Cycle, mc: usize, resp: TileResp) {
        self.resp_net.push(now + self.mc_resp_lat[mc][resp.tile], resp);
        self.cached_next = None;
    }

    /// True when responses are in flight toward the tiles.
    pub fn has_responses(&self) -> bool {
        !self.resp_net.is_empty()
    }

    /// Pops the next response that has reached its tile by `now`.
    pub(crate) fn pop_response(&mut self, now: Cycle) -> Option<TileResp> {
        let popped = self.resp_net.pop_ready(now);
        if popped.is_some() {
            self.cached_next = None;
        }
        popped
    }

    /// Stages a memory request toward controller `mc`'s ingress; it
    /// becomes admissible after the L3→MC hop delay.
    pub(crate) fn stage(&mut self, now: Cycle, mc: usize, req: MemReq) {
        self.staged[mc][req.class.index()].push_back((now + self.mc_req_lat[mc], req));
        self.staged_pending[mc] += 1;
        self.cached_next = None;
    }

    /// Drains staged requests into MC ingress ports, round-robin across
    /// class queues (per-source-fair network arbitration), admitting at
    /// most `mc_link_bw` per controller this cycle (unbounded when 0).
    /// This is where requests "queue elsewhere in the system" when a
    /// controller is oversubscribed — FAIR, but not *prioritized* (the
    /// Fig. 1b effect): a flooding class is pinned to its fair share of
    /// admissions, no more, no less, regardless of the arbiter inside the
    /// controller. Bounded in practice by the L2/L3 MSHR budgets.
    pub(crate) fn drain_into(&mut self, now: Cycle, mcs: &mut [MemController]) {
        let mut admitted = false;
        for (k, queues) in self.staged.iter_mut().enumerate() {
            if self.staged_pending[k] == 0 {
                continue;
            }
            let n = queues.len();
            let mut budget = if self.link_bw == 0 { u64::MAX } else { self.link_bw };
            'mc: while budget > 0 {
                let mut progressed = false;
                for off in 0..n {
                    let c = (self.staged_rr[k] + off) % n;
                    if let Some(&(ready, req)) = queues[c].front() {
                        if ready > now {
                            continue; // still on the L3→MC hop
                        }
                        if mcs[k].push(req).is_err() {
                            break 'mc; // ingress full (reject counted)
                        }
                        queues[c].pop_front();
                        self.staged_pending[k] -= 1;
                        self.staged_rr[k] = (c + 1) % n;
                        budget -= 1;
                        progressed = true;
                        admitted = true;
                        break;
                    }
                }
                if !progressed {
                    break;
                }
            }
        }
        if admitted {
            self.cached_next = None;
        }
    }

    /// Requests staged toward controller `k` (all classes).
    pub fn staged_pending(&self, k: usize) -> usize {
        self.staged_pending[k]
    }

    /// True when any controller has staged requests.
    pub fn any_staged(&self) -> bool {
        self.staged_pending.iter().any(|&p| p > 0)
    }

    /// Iterates `(mc, counted, actual)` staging conservation pairs for the
    /// epoch invariant checker: the pending counter that gates the drain must
    /// agree with the class-queue contents.
    pub fn staged_conservation(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.staged.iter().enumerate().map(|(k, queues)| {
            let actual: usize = queues.iter().map(VecDeque::len).sum();
            (k, self.staged_pending[k] as u64, actual as u64)
        })
    }

    /// The interconnect's event horizon: the earliest cycle a message can
    /// be delivered or a staged request admitted. A staged head already
    /// past its hop delay acts *every* cycle (each drain attempt can
    /// mutate an ingress reject counter), so it contributes `now`.
    ///
    /// No `accrue_skip` counterpart exists: every counter here mutates
    /// on queue activity, never once-per-cycle, so a dead window leaves
    /// the interconnect bit-identical (batch-sampling rule satisfied
    /// vacuously — see docs/PERFORMANCE.md).
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        use pabst_simkit::horizon::Horizon;
        let mut h = Horizon::new();
        h.merge(self.req_net.next_ready());
        h.merge(self.resp_net.next_ready());
        for (k, queues) in self.staged.iter().enumerate() {
            if self.staged_pending[k] == 0 {
                continue;
            }
            for q in queues {
                if let Some(&(ready, _)) = q.front() {
                    h.add(ready.max(now));
                }
            }
        }
        h.get()
    }

    /// Memoized [`Interconnect::next_event`]: recomputes only when a
    /// queue mutation has dirtied the cache since the last probe.
    ///
    /// With no mutations the underlying ready times are constants, so a
    /// cached *future* answer stays exact as `now` advances and a cached
    /// *due* answer stays due — it is clamped to `Some(now)` rather than
    /// recomputed (the fresh answer would also be due, and "due" is all
    /// the jump check acts on).
    pub(crate) fn next_event_memo(&mut self, now: Cycle) -> Option<Cycle> {
        if let Some(cached) = self.cached_next {
            return match cached {
                Some(t) if t <= now => Some(now),
                other => other,
            };
        }
        let fresh = self.next_event(now);
        self.cached_next = Some(fresh);
        fresh
    }

    /// True when a staged request toward controller `k` is past its hop
    /// delay, i.e. this cycle's drain may push into `k`'s ingress. The
    /// domain scheduler uses this as the push-wake edge for a parked
    /// idle controller.
    pub(crate) fn mc_admissible(&self, k: usize, now: Cycle) -> bool {
        self.staged_pending[k] > 0
            && self.staged[k].iter().any(|q| matches!(q.front(), Some(&(ready, _)) if ready <= now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChannelMap;
    use pabst_core::qos::ShareTable;
    use pabst_dram::ArbiterMode;

    fn req(line: u64, class: usize) -> MemReq {
        MemReq {
            line: LineAddr::new(line),
            class: QosId::new(class as u8),
            is_write: false,
            token: 0,
        }
    }

    fn l3req(tile: usize) -> L3Req {
        L3Req { line: LineAddr::new(1), class: QosId::new(0), tile, store: false, l2_wb: false }
    }

    #[test]
    fn uniform_model_reproduces_the_fixed_latency_pipes() {
        let cfg = SystemConfig::baseline_32core();
        let mut net = Interconnect::new(&cfg, 2);
        net.send_request(100, l3req(0));
        net.send_request(100, l3req(31));
        assert!(net.pop_request(100 + cfg.l3_lat - 1).is_none());
        assert_eq!(net.pop_request(100 + cfg.l3_lat).map(|r| r.tile), Some(0));
        assert_eq!(net.pop_request(100 + cfg.l3_lat).map(|r| r.tile), Some(31));
        let resp = TileResp { line: LineAddr::new(1), tile: 5, l3_hit: true, wb_flag: false };
        net.send_l3_response(200, resp);
        net.send_mc_response(200, 3, TileResp { tile: 9, ..resp });
        assert!(net.pop_response(200 + cfg.resp_lat - 1).is_none());
        assert_eq!(net.pop_response(200 + cfg.resp_lat).map(|r| r.tile), Some(5));
        assert_eq!(net.pop_response(200 + cfg.resp_lat).map(|r| r.tile), Some(9));
        // Staging is free and same-cycle admissible.
        net.stage(7, 0, req(1, 0));
        assert_eq!(net.next_event(7), Some(7));
    }

    #[test]
    fn mesh_model_delays_scale_with_distance() {
        let cfg = SystemConfig::mesh_64();
        let t = cfg.topology;
        let mut net = Interconnect::new(&cfg, 1);
        // Tile 0 (corner) is farther from the center L3 than tile 27
        // (adjacent to it), so its request arrives later.
        let far = Topology::hops(t.tile_pos(0), t.l3_pos());
        let near = Topology::hops(t.tile_pos(27), t.l3_pos());
        assert!(far > near, "corner must be farther than center-adjacent");
        net.send_request(0, l3req(27));
        net.send_request(0, l3req(0));
        let first = net.req_net.next_ready().expect("two in flight");
        assert_eq!(first, t.req_base_lat + t.hop_lat * near);
        assert_eq!(net.pop_request(first).map(|r| r.tile), Some(27), "nearer tile lands first");
        let second = net.req_net.next_ready().unwrap();
        assert_eq!(second, t.req_base_lat + t.hop_lat * far);
        assert_eq!(net.pop_request(second).map(|r| r.tile), Some(0));
        // Staging pays the L3→MC hop before it becomes admissible.
        net.stage(0, 0, req(1, 0));
        let hop = t.hop_lat * Topology::hops(t.l3_pos(), t.mc_pos(0, cfg.mcs));
        assert!(hop > 0);
        assert_eq!(net.next_event(0), Some(hop), "staged head waits out its hop");
        assert_eq!(net.next_event(hop), Some(hop), "then acts every cycle");
    }

    #[test]
    fn memoized_next_event_tracks_mutations() {
        let cfg = SystemConfig::mesh_64();
        let t = cfg.topology;
        let mut net = Interconnect::new(&cfg, 1);
        // Empty network: memo and fresh agree, and the cache holds.
        assert_eq!(net.next_event_memo(0), net.next_event(0));
        assert_eq!(net.next_event_memo(5), None);
        // A mutation dirties the cache; the memo picks up the new event.
        net.send_request(0, l3req(0));
        let fresh = net.next_event(0);
        assert_eq!(net.next_event_memo(0), fresh);
        // A cached future answer stays exact as long as nothing mutates...
        assert_eq!(net.next_event_memo(1), fresh);
        let ready = fresh.expect("one request in flight");
        // ...and once due, the cached answer clamps to `now` — due stays
        // due until someone pops it, even cycles later. The fresh probe
        // reports the raw (past) ready time; both read as due, which is
        // all the jump check acts on.
        assert_eq!(net.next_event_memo(ready), Some(ready));
        assert_eq!(net.next_event_memo(ready + 3), Some(ready + 3));
        assert!(net.next_event(ready + 3).is_some_and(|t| t <= ready + 3));
        // Popping the due head invalidates; the memo goes quiet again.
        assert!(net.pop_request(ready + 3).is_some());
        assert_eq!(net.next_event_memo(ready + 3), net.next_event(ready + 3));
        // Staged heads flow through the same cache: stage dirties, and
        // after the L3->MC hop the staged head reads as due.
        net.stage(0, 0, req(1, 0));
        let hop = t.hop_lat * Topology::hops(t.l3_pos(), t.mc_pos(0, cfg.mcs));
        assert_eq!(net.next_event_memo(0), Some(hop));
        assert_eq!(net.next_event_memo(hop + 2), Some(hop + 2));
        assert!(net.mc_admissible(0, hop), "ready staged head is admissible");
        assert!(!net.mc_admissible(0, hop - 1), "not before its hop elapses");
    }

    #[test]
    fn drain_is_round_robin_fair_and_bandwidth_bounded() {
        let mut cfg = SystemConfig::baseline_32core();
        cfg.mcs = 1;
        cfg.topology.mc_link_bw = 2;
        cfg.topology.net = NetModel::Mesh;
        cfg.topology.req_base_lat = 0;
        cfg.topology.resp_base_lat = 0;
        cfg.topology.hop_lat = 0; // isolate the bandwidth bound
        let mut net = Interconnect::new(&cfg, 2);
        let shares = ShareTable::from_weights(&[1, 1]).unwrap();
        let mut mcs =
            vec![MemController::new(cfg.dram, ArbiterMode::Fcfs, &shares, cfg.arbiter_slack)];
        // Class 0 floods; class 1 stages two requests.
        for i in 0..6 {
            net.stage(0, 0, req(i, 0));
        }
        for i in 0..2 {
            net.stage(0, 0, req(100 + i, 1));
        }
        net.drain_into(0, &mut mcs);
        // Two admissions (the link bound), alternating classes.
        assert_eq!(net.staged_pending(0), 6, "link admits 2/cycle");
        assert_eq!(mcs[0].pending(), 2);
        net.drain_into(1, &mut mcs);
        assert_eq!(net.staged_pending(0), 4);
        // After two rounds each class got two admissions (fairness), even
        // though class 0 staged three times as many.
        assert_eq!(mcs[0].pending(), 4);
    }

    #[test]
    fn channel_map_routes_through_the_topology() {
        let mut cfg = SystemConfig::baseline_32core();
        cfg.mcs = 16;
        let legacy = Interconnect::new(&cfg, 1);
        cfg.topology.channel_map = ChannelMap::DoubleFold;
        let spread = Interconnect::new(&cfg, 1);
        let line = LineAddr::new((1 << 21) * 3);
        assert_eq!(legacy.channel_of(line), line.interleave(16));
        assert_eq!(spread.channel_of(line), line.interleave_spread(16));
    }
}
