//! In-run spans recorded from outside the simulator: an epoch log that
//! timestamps every epoch boundary, and a workload wrapper that counts
//! and samples the host time of `next_op`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use pabst_cpu::{Op, Workload};
use pabst_simkit::trace::{EpochRecord, TraceSink};

/// Every epoch record with the host time it arrived. Clones share one
/// log, so a handle kept outside the system reads what the sink moved
/// into the system wrote.
#[derive(Debug, Default, Clone)]
pub struct EpochLog {
    entries: Rc<RefCell<Vec<(Instant, EpochRecord)>>>,
}

impl EpochLog {
    /// The records whose epoch index lies in `[from, to)`.
    pub fn records(&self, from: u64, to: u64) -> Vec<EpochRecord> {
        self.entries
            .borrow()
            .iter()
            .filter(|(_, r)| (from..to).contains(&r.epoch))
            .map(|(_, r)| r.clone())
            .collect()
    }

    /// Host milliseconds of every epoch from `from` on whose start
    /// boundary was also logged.
    pub fn epoch_ms(&self, from: u64) -> Vec<f64> {
        let e = self.entries.borrow();
        e.windows(2)
            .filter(|w| w[1].1.epoch >= from && w[1].1.epoch == w[0].1.epoch + 1)
            .map(|w| (w[1].0 - w[0].0).as_secs_f64() * 1e3)
            .collect()
    }
}

impl TraceSink for EpochLog {
    fn record(&mut self, rec: &EpochRecord) {
        self.entries.borrow_mut().push((Instant::now(), rec.clone()));
    }
}

/// Mean over `records` of `f(record)`; 0 for no records.
pub fn mean_of(records: &[EpochRecord], f: impl Fn(&EpochRecord) -> f64) -> f64 {
    if records.is_empty() {
        0.0
    } else {
        records.iter().map(f).sum::<f64>() / records.len() as f64
    }
}

/// Mean of a per-controller vector.
pub fn mean_u64(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<u64>() as f64 / xs.len() as f64
    }
}

/// Every `SAMPLE_EVERY`th `next_op` call is timed; the rest are only
/// counted, which keeps the wrapper's own cost small.
pub const SAMPLE_EVERY: u64 = 16;

/// `next_op` call count and sampled host time, shared by every wrapped
/// generator of one system.
#[derive(Debug, Default)]
pub struct OpProbe {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    ns: Cell<u128>,
}

impl OpProbe {
    /// Clears the counters (at the start of the measured window).
    pub fn reset(&self) {
        self.calls.set(0);
        self.sampled.set(0);
        self.ns.set(0);
    }

    /// Calls since the last reset.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean sampled nanoseconds per call, less `overhead` (the cost of
    /// an empty span).
    pub fn mean_ns(&self, overhead: f64) -> f64 {
        match self.sampled.get() {
            0 => 0.0,
            n => (self.ns.get() as f64 / n as f64 - overhead).max(0.0),
        }
    }
}

/// A generator wrapped in an [`OpProbe`]; it passes every op through
/// unchanged.
pub struct TimedWorkload {
    /// The wrapped generator.
    pub inner: Box<dyn Workload>,
    /// Shared counters.
    pub probe: Rc<OpProbe>,
}

impl Workload for TimedWorkload {
    fn next_op(&mut self) -> Op {
        let n = self.probe.calls.get() + 1;
        self.probe.calls.set(n);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.next_op();
        }
        let t = Instant::now();
        let op = self.inner.next_op();
        self.probe.ns.set(self.probe.ns.get() + t.elapsed().as_nanos());
        self.probe.sampled.set(self.probe.sampled.get() + 1);
        op
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_passes_ops_through_and_counts() {
        let spec = crate::spec::SPECS[2];
        let probe = Rc::new(OpProbe::default());
        let mut plain = spec.generator(5, 0, 0);
        let mut timed = TimedWorkload { inner: spec.generator(5, 0, 0), probe: probe.clone() };
        for _ in 0..100 {
            assert_eq!(plain.next_op(), timed.next_op());
        }
        assert_eq!(probe.calls(), 100);
        assert_eq!(probe.sampled.get(), 100 / SAMPLE_EVERY);
        probe.reset();
        assert_eq!(probe.calls(), 0);
    }

    #[test]
    fn epoch_ms_needs_consecutive_boundaries() {
        let mut log = EpochLog::default();
        for epoch in [0, 1, 2, 4] {
            log.record(&EpochRecord { epoch, ..EpochRecord::default() });
        }
        assert_eq!(log.epoch_ms(0).len(), 2, "1-0 and 2-1; 4 has no logged start");
        assert_eq!(log.epoch_ms(2).len(), 1);
        assert_eq!(log.records(1, 4).len(), 2);
    }
}
