//! The memory controller: ingress FIFO, split front-end read/write queues,
//! back-end bank scheduling, a per-burst bus scheduler, and the saturation
//! monitor.
//!
//! ## Structure (paper §III-C)
//!
//! ```text
//! network ─► ingress FIFO ─► front-end { read Q | write Q }
//!                                        │  back-end: per-bank ACT/CAS pipelines
//!                                        ▼
//!                              data buffer ─► bus scheduler ─► data bus
//! ```
//!
//! * The **back-end** issues bank accesses straight from the front-end
//!   queues: every ready bank nominates its local winner — row hits first,
//!   then priority order (earliest virtual deadline in
//!   [`ArbiterMode::Edf`]/[`ArbiterMode::Fqm`], oldest in
//!   [`ArbiterMode::Fcfs`]), with the row-hit bypass streak bounded so
//!   hits cannot starve a prioritized row miss — and the globally
//!   highest-priority nomination wins a data-buffer slot.
//! * The **bus scheduler** assigns each data-bus burst to the highest-
//!   priority *ready* access in the data buffer. This is the second place
//!   the paper applies deadline order, and it is what lets a prioritized
//!   class's data jump every other bank's completed access instead of
//!   waiting in a priority-blind reservation chain.
//! * Writes are not prioritized: they drain in batches between the
//!   high/low watermarks (bus turnaround applied on direction switches)
//!   and opportunistically when no read is pending.
//!
//! ## Simplifications (documented deviations)
//!
//! * Rows stay open until a conflicting access (lazy close) rather than a
//!   strict closed page; with row-hit-first selection this is standard
//!   FR-FCFS and produces the same scheduling trade-offs the paper
//!   discusses (row hits vs. priority).
//! * No read-around-write forwarding from the write queue; the evaluated
//!   workloads never re-read recently written lines quickly.

use pabst_cache::LineAddr;
use pabst_core::arbiter::VirtualDeadline;
use pabst_core::qos::{QosId, ShareTable, MAX_CLASSES};
use pabst_core::satmon::SatMonitor;
use pabst_simkit::queue::BoundedQueue;
use pabst_simkit::{Cycle, LINE_BYTES};

use crate::arbiter::{ArbiterMode, TargetArbiter};
use crate::config::DramConfig;

/// A request presented to the controller's ingress port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Target cache line.
    pub line: LineAddr,
    /// Originating QoS class.
    pub class: QosId,
    /// True for a writeback, false for a demand read.
    pub is_write: bool,
    /// Opaque caller token returned in the [`Completion`] (routes responses
    /// back through the cache hierarchy).
    pub token: u64,
}

/// A finished access, reported at the cycle its data burst completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request's caller token.
    pub token: u64,
    /// Originating class (for accounting).
    pub class: QosId,
    /// Whether this was a write.
    pub is_write: bool,
    /// The accessed line.
    pub line: LineAddr,
}

#[derive(Debug, Clone, Copy)]
struct QueuedReq {
    req: MemReq,
    deadline: VirtualDeadline,
    seq: u64,
    enq_at: Cycle,
    /// Bank index of `req.line`, decoded once at acceptance. The issue
    /// stage visits every queued entry per cycle, and the address-decode
    /// divisions dominate that walk if recomputed.
    bank: u32,
    /// Row index of `req.line`, decoded once at acceptance.
    row: u64,
}

#[derive(Debug)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the bank may start its next column/row command.
    rdy: Cycle,
    /// Consecutive times a row hit bypassed the priority-order winner.
    hit_streak: u32,
    /// Front-end entries (both queues) waiting on this bank.
    queued: u32,
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Default)]
pub struct McStats {
    /// Total bytes transferred per class (reads + writes it caused).
    pub bytes: [u64; MAX_CLASSES],
    /// Bytes per class since the last epoch snapshot.
    epoch_marks: [u64; MAX_CLASSES],
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Data-bus busy cycles (burst occupancy only).
    pub bus_busy: u64,
    /// Row-hit accesses.
    pub row_hits: u64,
    /// Row-miss (activate) accesses.
    pub row_misses: u64,
    /// Sum of read latencies (queue entry to data completion) per class.
    pub read_lat_sum: [u64; MAX_CLASSES],
    /// Completed reads per class (denominator for the mean latency).
    pub read_lat_n: [u64; MAX_CLASSES],
}

impl McStats {
    /// Bytes per class since the previous call (per-epoch bandwidth).
    pub fn take_epoch_bytes(&mut self) -> [u64; MAX_CLASSES] {
        let mut out = [0u64; MAX_CLASSES];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.bytes[i] - self.epoch_marks[i];
            self.epoch_marks[i] = self.bytes[i];
        }
        out
    }

    /// Mean in-controller read latency of `class` in cycles, or `None`
    /// when it completed no reads.
    pub fn mean_read_latency(&self, class: QosId) -> Option<f64> {
        let n = self.read_lat_n[class.index()];
        if n == 0 {
            None
        } else {
            Some(self.read_lat_sum[class.index()] as f64 / n as f64)
        }
    }

    /// Row-hit rate over completed accesses, or 0 when none.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// A point-in-time view of one [`MemController`]'s queues and priority
/// arbiter (observability; see [`MemController::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McSnapshot {
    /// Entries in the front-end read queue.
    pub read_q_depth: u64,
    /// Entries in the front-end write queue.
    pub write_q_depth: u64,
    /// Entries waiting in the ingress FIFO.
    pub ingress_depth: u64,
    /// Outstanding work anywhere in the controller.
    pub pending: u64,
    /// Requests accepted at the ingress so far.
    pub accepted: u64,
    /// Requests refused at the ingress so far.
    pub ingress_rejects: u64,
    /// Per-class virtual-clock values of the priority arbiter.
    pub virtual_clocks: Vec<u64>,
}

/// Per-bank scratch used by one back-end selection pass: the aged entry
/// (starvation guard), else the priority winner and the first-ready (row
/// hit) winner. Stored on the controller so the per-cycle pass reuses one
/// allocation.
#[derive(Debug, Clone, Copy, Default)]
struct BankScratch {
    aged: Option<(usize, Cycle)>,
    prio: Option<(usize, (VirtualDeadline, u64))>,
    fr: Option<(usize, (VirtualDeadline, u64))>,
}

/// A completed column access whose data burst awaits the bus.
#[derive(Debug, Clone, Copy)]
struct PendingBurst {
    e: QueuedReq,
    /// Cycle the data can first appear on the bus.
    ready_at: Cycle,
    /// FQM service-cost units (1 row hit, 2 closed row, 3 conflict).
    cost: u64,
}

/// One memory controller with a single DRAM channel.
#[derive(Debug)]
pub struct MemController {
    cfg: DramConfig,
    ingress: BoundedQueue<MemReq>,
    read_q: BoundedQueue<QueuedReq>,
    write_q: BoundedQueue<QueuedReq>,
    banks: Vec<Bank>,
    arbiter: Box<dyn TargetArbiter>,
    satmon: SatMonitor,
    /// Column accesses whose data awaits a bus slot.
    awaiting_bus: Vec<PendingBurst>,
    /// Earliest `rdy` over banks with a queued entry (`Cycle::MAX` when
    /// none): the first cycle the back end could issue. Lowered at
    /// accept and recomputed after issues (the only points that change
    /// a bank's `rdy` or queued count), so the horizon walks no queue.
    queued_bank_rdy: Cycle,
    /// Earliest `ready_at` over `awaiting_bus` (`Cycle::MAX` when empty),
    /// kept current where bursts enter and leave the data buffer.
    bus_ready_min: Cycle,
    /// Scheduled bursts waiting for their data to finish transferring.
    inflight: Vec<(QueuedReq, Cycle)>,
    bus_free_at: Cycle,
    last_dir_write: bool,
    draining_writes: bool,
    seq: u64,
    stats: McStats,
    /// Requests rejected at the ingress (upstream must retry): visibility
    /// into backpressure.
    ingress_rejects: u64,
    /// Requests accepted at the ingress (inflow side of the conservation
    /// law the invariant checker evaluates each epoch).
    accepted: u64,
    /// Max cycles a bank-queue entry may wait before overriding row-hit
    /// preference (starvation guard).
    age_cap: Cycle,
    /// Max consecutive row-hit bypasses of the priority-order winner.
    max_hit_streak: u32,
    /// Reused per-bank scratch for [`MemController::issue_one`]'s single
    /// pass over the front-end queue (avoids a per-cycle allocation).
    issue_scratch: Vec<BankScratch>,
}

impl MemController {
    /// Creates a controller.
    ///
    /// `shares` provides the per-class strides for the priority arbiter
    /// (ignored by priority-blind modes); `slack` is the arbiter's
    /// virtual-credit bound (the paper uses 128). `mode` selects the
    /// [`TargetArbiter`] implementation from the zoo.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: DramConfig, mode: ArbiterMode, shares: &ShareTable, slack: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid DramConfig: {e}");
        }
        let banks = (0..cfg.banks)
            .map(|_| Bank { open_row: None, rdy: 0, hit_streak: 0, queued: 0 })
            .collect();
        Self {
            ingress: BoundedQueue::new(cfg.ingress_cap),
            read_q: BoundedQueue::new(cfg.read_q_cap),
            write_q: BoundedQueue::new(cfg.write_q_cap),
            banks,
            arbiter: mode.build(shares, slack, cfg.banks),
            satmon: SatMonitor::new(cfg.read_q_cap),
            awaiting_bus: Vec::new(),
            queued_bank_rdy: Cycle::MAX,
            bus_ready_min: Cycle::MAX,
            inflight: Vec::new(),
            bus_free_at: 0,
            last_dir_write: false,
            draining_writes: false,
            seq: 0,
            stats: McStats::default(),
            ingress_rejects: 0,
            accepted: 0,
            // Pure starvation backstop: priority inversion from row-hit
            // streaks is already bounded by `max_hit_streak`, so this only
            // catches pathological waits, far beyond any legitimate
            // low-share queueing delay.
            age_cap: 10_000,
            max_hit_streak: 3,
            issue_scratch: Vec::new(),
            cfg,
        }
    }

    /// Offers a request to the ingress port.
    ///
    /// # Errors
    ///
    /// Returns `Err(req)` when the ingress FIFO is full; the caller must
    /// hold the request and retry (backpressure into the cache hierarchy).
    pub fn push(&mut self, req: MemReq) -> Result<(), MemReq> {
        match self.ingress.push(req) {
            Ok(()) => {
                self.accepted += 1;
                Ok(())
            }
            Err(r) => {
                self.ingress_rejects += 1;
                Err(r)
            }
        }
    }

    /// True when the ingress port can accept a request this cycle.
    pub fn can_accept(&self) -> bool {
        !self.ingress.is_full()
    }

    /// Test-only convenience wrapper that allocates a fresh completion
    /// vector per cycle. Production callers use
    /// [`MemController::step_into`] with a reused buffer — the per-cycle
    /// allocation measurably costs throughput at simulation scale, which
    /// is why no public allocating form exists.
    #[cfg(test)]
    pub(crate) fn step_vec(&mut self, now: Cycle) -> Vec<Completion> {
        let mut out = Vec::new();
        self.step_into(now, &mut out);
        out
    }

    /// Advances the controller one cycle, appending accesses whose data
    /// burst completed this cycle to `out`.
    pub fn step_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        self.satmon.sample(self.read_q.len());
        if self.pending() == 0 {
            // Idle fast path: no queued or in-flight work anywhere, so the
            // accept/issue/bus/collect stages below are all no-ops.
            return;
        }
        self.accept_from_ingress(now);
        self.update_drain_mode();
        self.back_end_issue(now);
        self.bus_schedule(now);
        self.collect_completions_into(now, out);
    }

    /// Computes this controller's SAT bit for the epoch that just ended and
    /// resets the occupancy average (§III-C1).
    pub fn take_epoch_sat(&mut self) -> bool {
        self.satmon.take_epoch_sat()
    }

    /// Earliest cycle at which stepping this controller could change
    /// observable state, or `None` when it holds no work at all.
    ///
    /// Follows the horizon contract (`docs/PERFORMANCE.md`): answers may
    /// be conservative (a step at the reported cycle can turn out to be
    /// a no-op, e.g. when write-drain mode picks a queue whose banks are
    /// all busy) but never late. Each pipeline stage contributes the
    /// cycle its own gating condition first opens:
    ///
    /// * ingress — a routable head is accepted the cycle it is stepped;
    ///   a blocked head unblocks only after a front-end queue drains,
    ///   which one of the bank/bus events below must precede;
    /// * back end — a queued request can issue once its bank's timing
    ///   holds (tRCD/tCAS/tRP) release, provided a data-buffer slot is
    ///   free;
    /// * bus — a burst can be booked once the booking window opens and
    ///   its data is ready;
    /// * completions — surface at their scheduled data-done cycle.
    ///
    /// The saturation monitor's per-cycle occupancy sample is *not* an
    /// event (it never changes queue state); skipped cycles accrue it in
    /// batch via [`MemController::accrue_skip`].
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        use pabst_simkit::horizon::Horizon;

        if self.pending() == 0 {
            return None;
        }
        // A write-drain flip the last step left pending: the next step's
        // `update_drain_mode` changes which queue issues, so it must run
        // before an accepted write can move the queue back across a mark.
        let wq = self.write_q.len();
        if (self.draining_writes && wq <= self.cfg.wr_low)
            || (!self.draining_writes && wq >= self.cfg.wr_high)
        {
            return Some(now);
        }
        if let Some(head) = self.ingress.peek() {
            let target_full =
                if head.is_write { self.write_q.is_full() } else { self.read_q.is_full() };
            if !target_full {
                return Some(now);
            }
        }
        let mut h = Horizon::new();
        if self.awaiting_bus.len() < self.cfg.data_buf_cap && self.queued_bank_rdy != Cycle::MAX {
            // Both queues contribute regardless of the current drain
            // mode: conservative, never late.
            h.add(self.queued_bank_rdy);
        }
        if !self.awaiting_bus.is_empty() {
            // A burst whose data is ready by the time the bus frees books
            // when the booking window opens; a later one when its data is.
            let book = self.bus_free_at.saturating_sub(self.cfg.eff(self.cfg.t_burst));
            h.add(if self.bus_ready_min <= self.bus_free_at { book } else { self.bus_ready_min });
        }
        for &(_, done_at) in &self.inflight {
            h.add(done_at);
        }
        // The arbiter seam's own horizon: an arbiter whose priorities can
        // change at a future cycle without a stamp or a pick reports it
        // here so the skip contract holds for every implementation.
        h.merge(self.arbiter.next_event(now));
        h.get().map(|at| at.max(now))
    }

    /// Accounts for `cycles` skipped quiescent cycles: the saturation
    /// monitor samples the read-queue occupancy every stepped cycle, and
    /// the occupancy cannot have changed while the controller was not
    /// stepped, so the samples naive stepping would have taken are all
    /// equal to the current depth.
    pub fn accrue_skip(&mut self, cycles: u64) {
        self.satmon.sample_n(self.read_q.len(), cycles);
    }

    /// Controller statistics (mutable so callers can take epoch deltas).
    pub fn stats_mut(&mut self) -> &mut McStats {
        &mut self.stats
    }

    /// Controller statistics.
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// Requests refused at the ingress so far.
    pub fn ingress_rejects(&self) -> u64 {
        self.ingress_rejects
    }

    /// Requests accepted at the ingress so far. At any instant
    /// `accepted == completed reads + completed writes + pending()` — the
    /// conservation law the epoch invariant checker verifies.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Current virtual-clock value of `id`'s class in the priority
    /// arbiter. Monotonically nondecreasing (stamps advance it; the slack
    /// floor only ever raises it), which the epoch invariant checker
    /// verifies.
    pub fn virtual_clock(&self, id: QosId) -> u64 {
        self.arbiter.clock(id)
    }

    /// Stable label of the target arbiter behind the seam (provenance
    /// hashing, report tables).
    pub fn arbiter_name(&self) -> &'static str {
        self.arbiter.name()
    }

    /// Promotes the arbiter's debug-only bound assertions to counted
    /// release-mode checks (no-op for arbiters without promises).
    pub fn set_bound_checks(&mut self, on: bool) {
        self.arbiter.set_bound_checks(on);
    }

    /// Cumulative arbiter bound violations (e.g. DPQ worst-case service
    /// promises missed); read each epoch by the invariant checker.
    pub fn bound_violations(&self) -> u64 {
        self.arbiter.bound_violations()
    }

    /// Outstanding work anywhere in the controller (for drain loops in
    /// tests and at simulation end).
    pub fn pending(&self) -> usize {
        self.ingress.len()
            + self.read_q.len()
            + self.write_q.len()
            + self.awaiting_bus.len()
            + self.inflight.len()
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// A point-in-time view of the controller's queues and arbiter state
    /// for observability (trace records). Pure.
    pub fn snapshot(&self) -> McSnapshot {
        let n = self.arbiter.classes();
        let clocks = (0..n).map(|c| self.arbiter.clock(QosId::new(c as u8))).collect();
        McSnapshot {
            read_q_depth: self.read_q.len() as u64,
            write_q_depth: self.write_q.len() as u64,
            ingress_depth: self.ingress.len() as u64,
            pending: self.pending() as u64,
            accepted: self.accepted,
            ingress_rejects: self.ingress_rejects,
            virtual_clocks: clocks,
        }
    }

    /// Reprograms the per-class shares (software updating weights).
    pub fn set_shares(&mut self, shares: &ShareTable) {
        self.arbiter.set_shares(shares);
    }

    fn accept_from_ingress(&mut self, now: Cycle) {
        // Head-of-line: stop at the first request that cannot be routed.
        // This is deliberate — it is how requests "queue elsewhere in the
        // system" when the target is oversubscribed (Fig. 1b).
        while let Some(head) = self.ingress.peek() {
            let is_write = head.is_write;
            let target_full = if is_write { self.write_q.is_full() } else { self.read_q.is_full() };
            if target_full {
                break;
            }
            let req = self.ingress.pop().expect("peeked entry exists");
            self.seq += 1;
            let cols = req.line.get() / self.cfg.lines_per_row;
            let bank = (cols % self.cfg.banks as u64) as u32;
            let row = cols / self.cfg.banks as u64;
            // The arbiter stamps every accepted request; priority policy
            // (and whether writes carry any) lives behind the seam.
            let backlog = if is_write { self.write_q.len() } else { self.read_q.len() };
            let deadline = self.arbiter.stamp(req.class, is_write, self.seq, bank, backlog);
            let q = QueuedReq { req, deadline, seq: self.seq, enq_at: now, bank, row };
            let b = &mut self.banks[bank as usize];
            b.queued += 1;
            self.queued_bank_rdy = self.queued_bank_rdy.min(b.rdy);
            let res = if is_write { self.write_q.push(q) } else { self.read_q.push(q) };
            debug_assert!(res.is_ok(), "fullness checked above");
        }
    }

    fn update_drain_mode(&mut self) {
        if self.write_q.len() >= self.cfg.wr_high {
            self.draining_writes = true;
        } else if self.write_q.len() <= self.cfg.wr_low {
            self.draining_writes = false;
        }
    }

    /// Issues bank accesses directly from the front-end queues (the
    /// paper's back-end): for each selection, every *ready* bank nominates
    /// its local winner — row hits first, then priority order, with the
    /// row-hit bypass streak bounded — and the globally highest-priority
    /// nomination wins the data-buffer slot. Writes are drained in batches
    /// between the watermarks and opportunistically when no read is
    /// pending.
    fn back_end_issue(&mut self, now: Cycle) {
        let mut issued = false;
        for _ in 0..2 {
            if self.awaiting_bus.len() >= self.cfg.data_buf_cap {
                break;
            }
            let use_writes =
                self.draining_writes || (self.read_q.is_empty() && !self.write_q.is_empty());
            if !self.issue_one(now, use_writes) {
                break;
            }
            issued = true;
        }
        if issued {
            self.queued_bank_rdy = self
                .banks
                .iter()
                .filter(|b| b.queued > 0)
                .map(|b| b.rdy)
                .min()
                .unwrap_or(Cycle::MAX);
        }
    }

    /// Selects and issues one request from the chosen front-end queue.
    /// Returns whether anything issued.
    fn issue_one(&mut self, now: Cycle, from_writes: bool) -> bool {
        let q = if from_writes { &self.write_q } else { &self.read_q };
        if q.is_empty() {
            return false;
        }
        // Every queue entry whose bank is still timing-blocked is skipped
        // below; when no bank holding a queued entry can start a command,
        // the whole scan is a guaranteed no-op. `queued_bank_rdy` may be
        // stale-low between two issues of one step, which only costs the
        // scan.
        if self.queued_bank_rdy > now {
            return false;
        }
        let banks = &self.banks;
        let deadlines = self.arbiter.uses_deadlines();
        let prio_key = |e: &QueuedReq| {
            if deadlines {
                (e.deadline, e.seq)
            } else {
                (VirtualDeadline(0), e.seq)
            }
        };

        // Per ready bank: the aged entry (starvation guard), else the
        // priority winner and the first-ready (row hit) winner — all
        // gathered in a single pass over the queue with per-bank scratch
        // (persistent across cycles, see `issue_scratch`).
        let scratch = &mut self.issue_scratch;
        scratch.clear();
        scratch.resize(banks.len(), BankScratch::default());
        for (i, e) in q.iter().enumerate() {
            let b = e.bank as usize;
            let bank = &banks[b];
            if bank.rdy > now {
                continue;
            }
            let sc = &mut scratch[b];
            if now.saturating_sub(e.enq_at) > self.age_cap
                && sc.aged.is_none_or(|(_, t)| e.enq_at < t)
            {
                sc.aged = Some((i, e.enq_at));
            }
            let key = prio_key(e);
            if sc.prio.is_none_or(|(_, k)| key < k) {
                sc.prio = Some((i, key));
            }
            if bank.open_row == Some(e.row) && sc.fr.is_none_or(|(_, k)| key < k) {
                sc.fr = Some((i, key));
            }
        }
        struct Nominee {
            idx: usize,
            bank: usize,
            bypass: bool,
            key: (VirtualDeadline, u64),
        }
        let mut win: Option<Nominee> = None;
        let consider = |n: Nominee, win: &mut Option<Nominee>| {
            if win.as_ref().is_none_or(|w| n.key < w.key) {
                *win = Some(n);
            }
        };
        for (b, sc) in scratch.iter().copied().enumerate() {
            if let Some((i, _)) = sc.aged {
                // Aged entries outrank everything (starvation backstop).
                consider(
                    Nominee { idx: i, bank: b, bypass: false, key: (VirtualDeadline(0), 0) },
                    &mut win,
                );
            } else if let Some((pi, pk)) = sc.prio {
                // Row hits may bypass the priority winner only a bounded
                // number of consecutive times (the fairness half of the
                // paper's fair FR-FCFS).
                match sc.fr {
                    Some((fi, fk)) if fi != pi && banks[b].hit_streak < self.max_hit_streak => {
                        consider(Nominee { idx: fi, bank: b, bypass: true, key: fk }, &mut win)
                    }
                    _ => consider(Nominee { idx: pi, bank: b, bypass: false, key: pk }, &mut win),
                }
            }
        }
        let Some(win) = win else {
            return false;
        };
        if win.bypass {
            self.banks[win.bank].hit_streak += 1;
        } else {
            self.banks[win.bank].hit_streak = 0;
        }
        let q = if from_writes { &mut self.write_q } else { &mut self.read_q };
        let e = q.remove(win.idx).expect("index valid");
        self.banks[win.bank].queued -= 1;
        self.issue_to_bank(win.bank, e, now);
        true
    }

    /// Starts the bank-side access (precharge/activate/CAS pipeline). The
    /// data burst is handed to the bus scheduler once the column access
    /// completes.
    fn issue_to_bank(&mut self, b: usize, e: QueuedReq, now: Cycle) {
        let row = e.row;
        let bank = &mut self.banks[b];
        let (t_rcd, t_cl, t_rp, t_burst) = (
            self.cfg.eff(self.cfg.t_rcd),
            self.cfg.eff(self.cfg.t_cl),
            self.cfg.eff(self.cfg.t_rp),
            self.cfg.eff(self.cfg.t_burst),
        );

        let row_hit = bank.open_row == Some(row);
        let had_open_row = bank.open_row.is_some();
        let col_cmd = match bank.open_row {
            Some(r) if r == row => now.max(bank.rdy),
            Some(_) => now.max(bank.rdy) + t_rp + t_rcd,
            None => now.max(bank.rdy) + t_rcd,
        };
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }

        bank.open_row = Some(row);
        // Next column command may issue one burst time after this CAS.
        bank.rdy = col_cmd + t_burst;

        let cost = match (row_hit, had_open_row) {
            (true, _) => 1,
            (false, false) => 2,
            (false, true) => 3,
        };
        self.awaiting_bus.push(PendingBurst { e, ready_at: col_cmd + t_cl, cost });
        self.bus_ready_min = self.bus_ready_min.min(col_cmd + t_cl);
    }

    /// The per-burst bus scheduler: each time the data bus approaches
    /// free, pick among *ready* bursts by priority — this is where the
    /// PABST arbiter actually reorders service, so a prioritized class's
    /// data jumps every other bank's completed access.
    fn bus_schedule(&mut self, now: Cycle) {
        let (t_burst, t_turn) =
            (self.cfg.eff(self.cfg.t_burst), self.cfg.eff(self.cfg.t_turnaround));
        // Book at most one burst ahead.
        if self.bus_free_at > now + t_burst {
            return;
        }
        let prefer_write = self.draining_writes;
        let deadlines = self.arbiter.uses_deadlines();
        let pick = self
            .awaiting_bus
            .iter()
            .enumerate()
            .filter(|(_, p)| p.ready_at <= self.bus_free_at.max(now))
            .min_by_key(|(_, p)| {
                let key =
                    if deadlines { (p.e.deadline, p.e.seq) } else { (VirtualDeadline(0), p.e.seq) };
                (p.e.req.is_write != prefer_write, key)
            })
            .map(|(i, _)| i);
        let Some(i) = pick else { return };
        let p = self.awaiting_bus.swap_remove(i);
        self.bus_ready_min =
            self.awaiting_bus.iter().map(|p| p.ready_at).min().unwrap_or(Cycle::MAX);
        let bus_earliest = if p.e.req.is_write != self.last_dir_write {
            self.bus_free_at + t_turn
        } else {
            self.bus_free_at
        };
        let data_start = bus_earliest.max(p.ready_at).max(now);
        let data_done = data_start + t_burst;
        self.bus_free_at = data_done;
        self.last_dir_write = p.e.req.is_write;
        self.stats.bus_busy += t_burst;
        if !p.e.req.is_write {
            self.arbiter.on_picked(p.e.req.class, p.e.deadline, p.e.seq, p.e.bank, p.cost);
        }
        self.inflight.push((p.e, data_done));
    }

    fn collect_completions_into(&mut self, now: Cycle, done: &mut Vec<Completion>) {
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].1 <= now {
                let (e, _) = self.inflight.swap_remove(i);
                self.stats.bytes[e.req.class.index()] += LINE_BYTES;
                if e.req.is_write {
                    self.stats.writes += 1;
                } else {
                    self.stats.reads += 1;
                    self.stats.read_lat_sum[e.req.class.index()] += now.saturating_sub(e.enq_at);
                    self.stats.read_lat_n[e.req.class.index()] += 1;
                }
                done.push(Completion {
                    token: e.req.token,
                    class: e.req.class,
                    is_write: e.req.is_write,
                    line: e.req.line,
                });
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shares(weights: &[u32]) -> ShareTable {
        ShareTable::from_weights(weights).unwrap()
    }

    fn mc(mode: ArbiterMode, weights: &[u32]) -> MemController {
        MemController::new(DramConfig::default(), mode, &shares(weights), 128)
    }

    fn q(i: u8) -> QosId {
        QosId::new(i)
    }

    /// Drives the controller with an always-full offered load from one
    /// class, returning bytes completed over `cycles`.
    fn saturate_reads(mc: &mut MemController, cycles: u64) -> u64 {
        let mut line = 0u64;
        let mut bytes = 0;
        for now in 0..cycles {
            while mc.can_accept() {
                let ok = mc.push(MemReq {
                    line: LineAddr::new(line),
                    class: q(0),
                    is_write: false,
                    token: line,
                });
                if ok.is_err() {
                    break;
                }
                line += 1;
            }
            bytes += mc.step_vec(now).len() as u64 * LINE_BYTES;
        }
        bytes
    }

    #[test]
    fn sequential_reads_approach_peak_bandwidth() {
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        let cycles = 40_000;
        let bytes = saturate_reads(&mut m, cycles);
        let peak = m.config().peak_bytes_per_cycle() * cycles as f64;
        let eff = bytes as f64 / peak;
        assert!(eff > 0.85, "efficiency {eff} too low for streaming reads");
        assert!(m.stats().row_hit_rate() > 0.9, "stream should be mostly row hits");
    }

    #[test]
    fn bank_conflicts_are_much_slower_than_sequential() {
        let mut seq = mc(ArbiterMode::Fcfs, &[1]);
        let seq_bytes = saturate_reads(&mut seq, 20_000);

        // Every request to bank 0 but a different row: per-bank row cycling
        // serializes with no bank-level parallelism.
        let cfg = DramConfig::default();
        let stride_lines = cfg.lines_per_row * cfg.banks as u64; // same bank, next row
        let mut cnf = mc(ArbiterMode::Fcfs, &[1]);
        let mut i = 0u64;
        let mut bytes = 0;
        for now in 0..20_000u64 {
            while cnf.can_accept() {
                if cnf
                    .push(MemReq {
                        line: LineAddr::new(i * stride_lines),
                        class: q(0),
                        is_write: false,
                        token: i,
                    })
                    .is_err()
                {
                    break;
                }
                i += 1;
            }
            bytes += cnf.step_vec(now).len() as u64 * LINE_BYTES;
        }
        assert!(
            (bytes as f64) < 0.4 * seq_bytes as f64,
            "bank conflicts ({bytes}) must be far below sequential ({seq_bytes})"
        );
    }

    #[test]
    fn completions_conserve_requests() {
        let mut m = mc(ArbiterMode::Edf, &[1, 1]);
        let mut pushed = 0u64;
        let mut completed = 0u64;
        for now in 0..5_000u64 {
            if now < 1_000 && m.can_accept() {
                m.push(MemReq {
                    line: LineAddr::new(now * 17),
                    class: q((now % 2) as u8),
                    is_write: now % 3 == 0,
                    token: now,
                })
                .unwrap();
                pushed += 1;
            }
            completed += m.step_vec(now).len() as u64;
        }
        // Drain fully.
        let mut now = 5_000u64;
        while m.pending() > 0 {
            completed += m.step_vec(now).len() as u64;
            now += 1;
            assert!(now < 1_000_000, "controller failed to drain");
        }
        assert_eq!(pushed, completed);
    }

    /// Closed-loop driver: each class keeps a fixed number of requests
    /// outstanding (as finite MSHRs would), reissuing on completion.
    /// Returns per-class completed read counts.
    fn closed_loop(m: &mut MemController, tokens_per_class: usize, cycles: u64) -> [u64; 2] {
        let mut x = 0xdeadbeefu64;
        let mut served = [0u64; 2];
        let mut to_issue = [tokens_per_class; 2];
        for now in 0..cycles {
            let first = (now % 2) as usize;
            for c in [first, 1 - first] {
                while to_issue[c] > 0 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
                    let req = MemReq {
                        line: LineAddr::new((x >> 16) + (c as u64) * (1 << 40)),
                        class: q(c as u8),
                        is_write: false,
                        token: c as u64,
                    };
                    if m.push(req).is_err() {
                        break;
                    }
                    to_issue[c] -= 1;
                }
            }
            for done in m.step_vec(now) {
                served[done.class.index()] += 1;
                to_issue[done.class.index()] += 1;
            }
        }
        served
    }

    /// Closed-loop driver contending on a single bank, so the front-end
    /// arbiter has a real choice to make.
    fn closed_loop_one_bank(
        m: &mut MemController,
        tokens_per_class: usize,
        cycles: u64,
    ) -> [u64; 2] {
        let cfg = DramConfig::default();
        let row_stride = cfg.lines_per_row * cfg.banks as u64; // bank 0, next row
        let mut served = [0u64; 2];
        let mut to_issue = [tokens_per_class; 2];
        let mut next_row = [0u64, 1 << 20];
        for now in 0..cycles {
            let first = (now % 2) as usize;
            for c in [first, 1 - first] {
                while to_issue[c] > 0 {
                    let req = MemReq {
                        line: LineAddr::new(next_row[c] * row_stride),
                        class: q(c as u8),
                        is_write: false,
                        token: c as u64,
                    };
                    if m.push(req).is_err() {
                        break;
                    }
                    next_row[c] += 1;
                    to_issue[c] -= 1;
                }
            }
            for done in m.step_vec(now) {
                served[done.class.index()] += 1;
                to_issue[done.class.index()] += 1;
            }
        }
        served
    }

    #[test]
    fn edf_shares_service_between_backlogged_closed_loop_classes() {
        // Two classes, 3:1, each keeping 12 requests outstanding — few
        // enough that everything fits in the controller's queues (the
        // paper's condition for target regulation to work) — all contending
        // on one bank. Completed reads track the shares.
        let mut m = mc(ArbiterMode::Edf, &[3, 1]);
        let served = closed_loop_one_bank(&mut m, 12, 200_000);
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((ratio - 3.0).abs() < 0.6, "EDF service ratio {ratio}, served {served:?}");
    }

    #[test]
    fn edf_lowers_latency_of_sparse_high_share_class() {
        // A latency-bound high-share class (one outstanding request at a
        // time) co-located with a flooding streamer: the priority arbiter's
        // job is to cut the sparse class's queueing delay (Fig. 1d).
        let run = |mode: ArbiterMode| -> f64 {
            let mut m = mc(mode, &[3, 1]);
            let mut x = 1u64;
            let mut stream_line = 0u64;
            let mut issued_at: Option<Cycle> = None;
            let mut lat_sum = 0u64;
            let mut lat_n = 0u64;
            for now in 0..60_000u64 {
                // Sparse class 0: issue one random read when idle.
                if issued_at.is_none() {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if m.push(MemReq {
                        line: LineAddr::new((x >> 16) | (1 << 41)),
                        class: q(0),
                        is_write: false,
                        token: 777,
                    })
                    .is_ok()
                    {
                        issued_at = Some(now);
                    }
                }
                // Streamer class 1 floods, spanning all banks (as many
                // concurrent streaming cores would).
                while m.can_accept() {
                    if m.push(MemReq {
                        line: LineAddr::new(stream_line * DramConfig::default().lines_per_row),
                        class: q(1),
                        is_write: false,
                        token: 0,
                    })
                    .is_err()
                    {
                        break;
                    }
                    stream_line += 1;
                }
                for done in m.step_vec(now) {
                    if done.token == 777 {
                        lat_sum += now - issued_at.expect("chaser was outstanding");
                        lat_n += 1;
                        issued_at = None;
                    }
                }
            }
            lat_sum as f64 / lat_n as f64
        };
        let fcfs = run(ArbiterMode::Fcfs);
        let edf = run(ArbiterMode::Edf);
        assert!(
            edf < 0.75 * fcfs,
            "EDF must cut sparse-class latency: edf={edf:.0} fcfs={fcfs:.0}"
        );
    }

    #[test]
    fn edf_cannot_partition_when_oversubscribed() {
        // The same classes with far more outstanding requests than the
        // controller can hold: admission (FCFS through the full ingress)
        // pins throughput near 1:1 regardless of the arbiter — the Fig. 1b
        // failure mode of target-only regulation.
        let mut m = mc(ArbiterMode::Edf, &[3, 1]);
        let served = closed_loop(&mut m, 256, 120_000);
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(ratio < 2.0, "oversubscribed EDF should degrade toward 1:1, got {ratio}");
    }

    #[test]
    fn fcfs_ignores_shares() {
        let mut m = mc(ArbiterMode::Fcfs, &[3, 1]);
        let mut x = 7u64;
        let mut served = [0u64; 2];
        for now in 0..60_000u64 {
            let first = (now % 2) as u8;
            for c in [first, 1 - first] {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                let _ = m.push(MemReq {
                    line: LineAddr::new(x >> 16),
                    class: q(c),
                    is_write: false,
                    token: 0,
                });
            }
            for c in m.step_vec(now) {
                served[c.class.index()] += 1;
            }
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((ratio - 1.0).abs() < 0.2, "FCFS must serve ~1:1, got {ratio}");
    }

    #[test]
    fn saturation_signal_tracks_load() {
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        // Idle epoch: no saturation.
        for now in 0..2_000 {
            m.step_vec(now);
        }
        assert!(!m.take_epoch_sat());
        // Flooded epoch: saturated.
        let _ = saturate_reads(&mut m, 5_000);
        assert!(m.take_epoch_sat());
    }

    #[test]
    fn write_drain_services_writes_in_batches() {
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        // Fill write queue past the high watermark.
        let mut now = 0u64;
        let mut queued = 0;
        while queued < 30 {
            if m.push(MemReq {
                line: LineAddr::new(queued * 33),
                class: q(0),
                is_write: true,
                token: queued,
            })
            .is_ok()
            {
                queued += 1;
            }
            m.step_vec(now);
            now += 1;
        }
        let mut writes_done = 0;
        for _ in 0..20_000 {
            writes_done += m.step_vec(now).iter().filter(|c| c.is_write).count();
            now += 1;
        }
        assert_eq!(writes_done, 30, "all writes must eventually drain");
    }

    #[test]
    fn reads_prioritized_over_writes_below_watermark() {
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        // A few writes (below high watermark) + a read, offered together
        // (they fit the ingress port exactly): the read completes before
        // any write.
        for i in 0..3 {
            m.push(MemReq { line: LineAddr::new(1000 + i), class: q(0), is_write: true, token: i })
                .unwrap();
        }
        m.push(MemReq { line: LineAddr::new(1), class: q(0), is_write: false, token: 99 }).unwrap();
        let warm = 0;
        let mut first: Option<Completion> = None;
        let mut now = warm;
        while first.is_none() {
            let done = m.step_vec(now);
            first = done.into_iter().next();
            now += 1;
            assert!(now < 10_000);
        }
        let first = first.unwrap();
        assert!(!first.is_write, "read must complete first, got {first:?}");
    }

    #[test]
    fn ingress_backpressure_reported() {
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        let mut rejected = false;
        // Never stepping the controller: ingress must eventually refuse.
        for i in 0..1_000 {
            if m.push(MemReq { line: LineAddr::new(i), class: q(0), is_write: false, token: i })
                .is_err()
            {
                rejected = true;
                break;
            }
        }
        assert!(rejected);
        assert!(m.ingress_rejects() > 0);
        assert!(!m.can_accept());
    }

    #[test]
    fn down_clocked_dram_is_proportionally_slower() {
        let mut fast = mc(ArbiterMode::Fcfs, &[1]);
        let fast_bytes = saturate_reads(&mut fast, 30_000);
        let slow_cfg = DramConfig::default().down_clocked(4);
        let mut slow = MemController::new(slow_cfg, ArbiterMode::Fcfs, &shares(&[1]), 128);
        let slow_bytes = {
            let mut line = 0u64;
            let mut bytes = 0;
            for now in 0..30_000u64 {
                while slow.can_accept() {
                    if slow
                        .push(MemReq {
                            line: LineAddr::new(line),
                            class: q(0),
                            is_write: false,
                            token: line,
                        })
                        .is_err()
                    {
                        break;
                    }
                    line += 1;
                }
                bytes += slow.step_vec(now).len() as u64 * LINE_BYTES;
            }
            bytes
        };
        let ratio = fast_bytes as f64 / slow_bytes as f64;
        assert!((ratio - 4.0).abs() < 0.5, "expected ~4x, got {ratio}");
    }

    #[test]
    fn per_class_byte_accounting_sums_to_total() {
        let mut m = mc(ArbiterMode::Edf, &[2, 1]);
        let mut total = 0u64;
        for now in 0..10_000u64 {
            for c in 0..2u8 {
                let _ = m.push(MemReq {
                    line: LineAddr::new(now * 7 + u64::from(c) * (1 << 30)),
                    class: q(c),
                    is_write: false,
                    token: 0,
                });
            }
            total += m.step_vec(now).len() as u64 * LINE_BYTES;
        }
        let s = m.stats();
        assert_eq!(s.bytes.iter().sum::<u64>(), total);
    }

    #[test]
    fn epoch_bytes_delta_resets() {
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        let _ = saturate_reads(&mut m, 3_000);
        let first = m.stats_mut().take_epoch_bytes();
        assert!(first[0] > 0);
        let second = m.stats_mut().take_epoch_bytes();
        assert_eq!(second[0], 0, "delta must reset between epochs");
    }

    #[test]
    fn next_event_is_none_only_when_empty() {
        let mut m = mc(ArbiterMode::Edf, &[1]);
        assert_eq!(m.next_event(0), None, "empty controller has no events");
        m.push(MemReq { line: LineAddr::new(5), class: q(0), is_write: false, token: 1 }).unwrap();
        assert_eq!(m.next_event(0), Some(0), "a routable ingress head acts immediately");
    }

    /// The controller horizon recomputed from scratch by walking every
    /// queued, buffered and in-flight entry: the reference the cached
    /// minimums behind [`MemController::next_event`] must reproduce.
    fn scanned_next_event(m: &MemController, now: Cycle) -> Option<Cycle> {
        if m.pending() == 0 {
            return None;
        }
        let wq = m.write_q.len();
        let flip = (m.draining_writes && wq <= m.cfg.wr_low)
            || (!m.draining_writes && wq >= m.cfg.wr_high);
        let routable = m
            .ingress
            .peek()
            .is_some_and(|h| !(if h.is_write { m.write_q.is_full() } else { m.read_q.is_full() }));
        if flip || routable {
            return Some(now);
        }
        let mut at = Vec::new();
        if m.awaiting_bus.len() < m.cfg.data_buf_cap {
            at.extend(
                m.read_q.iter().chain(m.write_q.iter()).map(|e| m.banks[e.bank as usize].rdy),
            );
        }
        let book = m.bus_free_at.saturating_sub(m.cfg.eff(m.cfg.t_burst));
        at.extend(m.awaiting_bus.iter().map(|p| {
            if p.ready_at <= m.bus_free_at {
                book
            } else {
                p.ready_at
            }
        }));
        at.extend(m.inflight.iter().map(|&(_, done_at)| done_at));
        at.extend(m.arbiter.next_event(now));
        at.into_iter().min().map(|t| t.max(now))
    }

    /// Twin controllers on one request schedule: `naive` steps every
    /// cycle, `skip` only when its own horizon says the cycle could
    /// matter, accruing the skipped occupancy samples in batch. Every
    /// observable — completions (in order), stats, SAT bit, snapshot —
    /// must be identical at the end. Returns the cycles `skip` slept.
    fn assert_horizon_stepping_matches_naive(
        schedule: impl Fn(Cycle) -> Vec<MemReq>,
        cycles: Cycle,
    ) -> u64 {
        let mut naive = mc(ArbiterMode::Edf, &[3, 1]);
        let mut skip = mc(ArbiterMode::Edf, &[3, 1]);
        let mut out_n = Vec::new();
        let mut out_s = Vec::new();
        let (mut served_n, mut served_s) = (0u64, 0u64);
        let mut skipped = 0u64;
        for now in 0..cycles {
            for req in schedule(now) {
                assert_eq!(naive.push(req).is_ok(), skip.push(req).is_ok());
            }
            out_n.clear();
            naive.step_into(now, &mut out_n);
            served_n += out_n.len() as u64;
            assert_eq!(naive.next_event(now + 1), scanned_next_event(&naive, now + 1));
            assert_eq!(skip.next_event(now), scanned_next_event(&skip, now));
            match skip.next_event(now) {
                Some(at) if at <= now => {
                    out_s.clear();
                    skip.step_into(now, &mut out_s);
                    served_s += out_s.len() as u64;
                    assert_eq!(out_s, out_n, "completions diverge at cycle {now}");
                }
                _ => {
                    // The horizon called this cycle dead: naive stepping
                    // must agree it produced nothing.
                    skip.accrue_skip(1);
                    skipped += 1;
                    assert!(out_n.is_empty(), "horizon missed an event at cycle {now}");
                }
            }
        }
        assert!(served_n > 0, "workload must complete something");
        assert_eq!(served_n, served_s);
        assert_eq!(naive.take_epoch_sat(), skip.take_epoch_sat());
        assert_eq!(naive.snapshot(), skip.snapshot());
        assert_eq!(naive.stats().bytes, skip.stats().bytes);
        assert_eq!(naive.stats().reads, skip.stats().reads);
        assert_eq!(naive.stats().writes, skip.stats().writes);
        skipped
    }

    #[test]
    fn next_event_equivalence_with_naive_stepping() {
        // A burst of mixed requests every 512 cycles leaves long idle and
        // long drain-tail windows between them.
        let bursty = |now: Cycle| {
            if !now.is_multiple_of(512) {
                return Vec::new();
            }
            (0..6u64)
                .map(|i| MemReq {
                    line: LineAddr::new((now + 1) * 131 + i * 3),
                    class: q((i % 2) as u8),
                    is_write: i % 5 == 0,
                    token: now + i,
                })
                .collect()
        };
        let skipped = assert_horizon_stepping_matches_naive(bursty, 40_000);
        assert!(skipped > 10_000, "bursty load must leave skippable gaps, got {skipped}");

        // Write drain on one bank: 28 writes to conflicting rows of bank 0
        // push the write queue past `wr_high`, three reads to the same
        // bank queue behind the drain, and one more write lands just after
        // the drain takes the queue down to `wr_low`. Naive stepping flips
        // out of drain mode on the cycle after that issue; a horizon that
        // sleeps through the flip would accept the late write first, see
        // the queue back above `wr_low` and keep draining while the reads
        // wait.
        // The write that takes the queue to `wr_low` issues at cycle 1169;
        // the controller's next own event after it is a bus booking at 1190.
        const LATE_WRITE_AT: Cycle = 1_175;
        let cfg = DramConfig::default();
        let row = |r: u64| LineAddr::new(r * cfg.lines_per_row * cfg.banks as u64);
        let drain = |now: Cycle| match now {
            0..=6 => (0..4)
                .map(|i| MemReq {
                    line: row(1 + now * 4 + i),
                    class: q(1),
                    is_write: true,
                    token: 0,
                })
                .collect(),
            100 => (0..3)
                .map(|i| MemReq { line: row(100 + i), class: q(0), is_write: false, token: 1 })
                .collect(),
            LATE_WRITE_AT => vec![MemReq { line: row(200), class: q(1), is_write: true, token: 0 }],
            _ => Vec::new(),
        };
        assert_horizon_stepping_matches_naive(drain, 4_000);
    }

    #[test]
    fn aged_requests_beat_row_hits() {
        // A stream of row hits to bank 0 must not starve a row-miss to the
        // same bank beyond the age cap.
        let mut m = mc(ArbiterMode::Fcfs, &[1]);
        // The conflicting row-miss first (different row, same bank: same
        // col_group modulo banks).
        let other_row = DramConfig::default().lines_per_row * DramConfig::default().banks as u64; // bank 0, row 1
        m.push(MemReq {
            line: LineAddr::new(other_row),
            class: q(0),
            is_write: false,
            token: 4242,
        })
        .unwrap();
        let mut hit_line = 0u64;
        let mut completed_victim_at = None;
        for now in 0..10_000u64 {
            // Keep bank 0 row 0 hits flowing.
            while m.can_accept() {
                if m.push(MemReq {
                    line: LineAddr::new(hit_line % DramConfig::default().lines_per_row),
                    class: q(0),
                    is_write: false,
                    token: 0,
                })
                .is_err()
                {
                    break;
                }
                hit_line += 1;
            }
            if m.step_vec(now).iter().any(|c| c.token == 4242) {
                completed_victim_at = Some(now);
                break;
            }
        }
        assert!(completed_victim_at.is_some(), "row-miss starved by continuous row hits");
    }
}

#[cfg(test)]
mod fqm_tests {
    use super::*;

    fn q(i: u8) -> QosId {
        QosId::new(i)
    }

    /// Drives two equal-weight classes — class 0 all row hits on one bank,
    /// class 1 all row conflicts spread over the remaining banks (so the
    /// *bus* is the contended resource) — closed-loop; returns served
    /// counts.
    fn hit_vs_conflict(mode: ArbiterMode, cycles: u64) -> [u64; 2] {
        let shares = ShareTable::from_weights(&[1, 1]).unwrap();
        let mut m = MemController::new(DramConfig::default(), mode, &shares, 128);
        let cfg = DramConfig::default();
        let mut served = [0u64; 2];
        let mut to_issue = [12usize; 2];
        let mut hit_line = 0u64;
        let mut conflict_row = 0u64;
        for now in 0..cycles {
            let first = (now % 2) as usize;
            for c in [first, 1 - first] {
                while to_issue[c] > 0 {
                    // Class 0: walk row 0 of bank 1 (hits). Class 1: a new
                    // row each time, rotating over banks 2.. (conflicts,
                    // but with plenty of bank parallelism).
                    let line = if c == 0 {
                        hit_line += 1;
                        cfg.lines_per_row + (hit_line % cfg.lines_per_row)
                    } else {
                        conflict_row += 1;
                        let bank = 2 + (conflict_row as usize % (cfg.banks - 2));
                        (conflict_row * cfg.banks as u64 + bank as u64) * cfg.lines_per_row
                    };
                    if m.push(MemReq {
                        line: LineAddr::new(line),
                        class: q(c as u8),
                        is_write: false,
                        token: c as u64,
                    })
                    .is_err()
                    {
                        break;
                    }
                    to_issue[c] -= 1;
                }
            }
            for done in m.step_vec(now) {
                served[done.class.index()] += 1;
                to_issue[done.class.index()] += 1;
            }
        }
        served
    }

    #[test]
    fn fqm_penalizes_expensive_accesses_more_than_flat_edf() {
        // Under FQM the conflict-heavy class is charged 3 units per access
        // and therefore receives fewer services relative to the row-hit
        // class than under PABST's flat charge.
        let edf = hit_vs_conflict(ArbiterMode::Edf, 150_000);
        let fqm = hit_vs_conflict(ArbiterMode::Fqm, 150_000);
        let edf_ratio = edf[1] as f64 / edf[0] as f64;
        let fqm_ratio = fqm[1] as f64 / fqm[0] as f64;
        assert!(
            fqm_ratio < edf_ratio,
            "FQM must shift service away from the conflict class: \
             edf {edf:?} ({edf_ratio:.2}), fqm {fqm:?} ({fqm_ratio:.2})"
        );
    }

    #[test]
    fn fqm_still_partitions_backlogged_classes() {
        // With equal access costs (both classes random), FQM and EDF both
        // approximate the 3:1 weights.
        let shares = ShareTable::from_weights(&[3, 1]).unwrap();
        let mut m = MemController::new(DramConfig::default(), ArbiterMode::Fqm, &shares, 128);
        let cfg = DramConfig::default();
        let row_stride = cfg.lines_per_row * cfg.banks as u64;
        let mut served = [0u64; 2];
        let mut to_issue = [12usize; 2];
        let mut next_row = [0u64, 1 << 20];
        for now in 0..200_000u64 {
            let first = (now % 2) as usize;
            for c in [first, 1 - first] {
                while to_issue[c] > 0 {
                    let req = MemReq {
                        line: LineAddr::new(next_row[c] * row_stride),
                        class: q(c as u8),
                        is_write: false,
                        token: c as u64,
                    };
                    if m.push(req).is_err() {
                        break;
                    }
                    next_row[c] += 1;
                    to_issue[c] -= 1;
                }
            }
            for done in m.step_vec(now) {
                served[done.class.index()] += 1;
                to_issue[done.class.index()] += 1;
            }
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((ratio - 3.0).abs() < 0.8, "FQM ratio {ratio}, served {served:?}");
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;

    #[test]
    fn read_latency_tracked_per_class() {
        let shares = ShareTable::from_weights(&[1]).unwrap();
        let mut m = MemController::new(DramConfig::default(), ArbiterMode::Fcfs, &shares, 128);
        m.push(MemReq { line: LineAddr::new(0), class: QosId::new(0), is_write: false, token: 1 })
            .unwrap();
        let mut now = 0;
        while m.pending() > 0 {
            m.step_vec(now);
            now += 1;
            assert!(now < 10_000);
        }
        let lat = m.stats().mean_read_latency(QosId::new(0)).expect("one read done");
        // One unloaded access: activation + CAS + burst, give or take the
        // front-end hops.
        assert!((60.0..200.0).contains(&lat), "unloaded latency {lat}");
        assert_eq!(m.stats().mean_read_latency(QosId::new(1)), None);
    }

    #[test]
    fn loaded_latency_exceeds_unloaded() {
        let shares = ShareTable::from_weights(&[1]).unwrap();
        let run = |offered_per_cycle: usize| -> f64 {
            let mut m = MemController::new(DramConfig::default(), ArbiterMode::Fcfs, &shares, 128);
            let mut line = 0u64;
            for now in 0..30_000u64 {
                for _ in 0..offered_per_cycle {
                    let _ = m.push(MemReq {
                        line: LineAddr::new(line * 97),
                        class: QosId::new(0),
                        is_write: false,
                        token: 0,
                    });
                    line += 1;
                }
                m.step_vec(now);
            }
            m.stats().mean_read_latency(QosId::new(0)).unwrap_or(0.0)
        };
        // A single outstanding request at a time (closed loop, light load).
        let light = {
            let mut m = MemController::new(DramConfig::default(), ArbiterMode::Fcfs, &shares, 128);
            let mut outstanding = false;
            let mut line = 0u64;
            for now in 0..30_000u64 {
                if !outstanding {
                    let _ = m.push(MemReq {
                        line: LineAddr::new(line * 97),
                        class: QosId::new(0),
                        is_write: false,
                        token: 0,
                    });
                    line += 1;
                    outstanding = true;
                }
                if !m.step_vec(now).is_empty() {
                    outstanding = false;
                }
            }
            m.stats().mean_read_latency(QosId::new(0)).unwrap()
        };
        let heavy = run(4);
        assert!(heavy > 2.0 * light, "queueing must raise latency: {heavy} vs {light}");
    }
}
