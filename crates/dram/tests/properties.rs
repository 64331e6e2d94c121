//! Property-style tests for the memory controller: conservation, latency
//! floors and accounting invariants under random request streams.
//!
//! Each property runs over a deterministic seeded sweep of randomized
//! request streams; a failure message carries the sweep seed, which
//! replays the exact case.

use pabst_cache::LineAddr;
use pabst_core::qos::{QosId, ShareTable};
use pabst_dram::{ArbiterMode, DramConfig, MemController, MemReq};
use pabst_simkit::rng::SimRng;

fn drive(
    mode: ArbiterMode,
    reqs: &[(u64, u8, bool)],
    max_cycles: u64,
) -> (u64, u64, MemController) {
    let shares = ShareTable::from_weights(&[3, 1]).expect("weights are nonzero");
    let mut mc = MemController::new(DramConfig::default(), mode, &shares, 128);
    let mut pushed = 0u64;
    let mut completed = 0u64;
    let mut it = reqs.iter();
    let mut now = 0u64;
    let mut pending_req: Option<MemReq> = None;
    let mut done = Vec::new();
    loop {
        // Offer one request per cycle until the stream is exhausted.
        if pending_req.is_none() {
            pending_req = it.next().map(|&(line, class, wr)| MemReq {
                line: LineAddr::new(line),
                class: QosId::new(class % 2),
                is_write: wr,
                token: line,
            });
        }
        if let Some(req) = pending_req.take() {
            match mc.push(req) {
                Ok(()) => pushed += 1,
                Err(r) => pending_req = Some(r),
            }
        }
        done.clear();
        mc.step_into(now, &mut done);
        completed += done.len() as u64;
        now += 1;
        if pending_req.is_none() && it.len() == 0 && mc.pending() == 0 {
            break;
        }
        if now >= max_cycles {
            break;
        }
    }
    (pushed, completed, mc)
}

/// A random request stream: (line, class, is_write) triples.
fn random_reqs(rng: &mut SimRng, max_len: u64, writes: bool) -> Vec<(u64, u8, bool)> {
    let len = 1 + rng.gen_range(0..max_len);
    (0..len)
        .map(|_| {
            (rng.gen_range(0..100_000), rng.gen_range(0..2) as u8, writes && rng.gen_bool(0.5))
        })
        .collect()
}

/// Every accepted request completes exactly once, in every mode.
#[test]
fn requests_conserved() {
    for seed in 0..24u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xd3a0);
        let reqs = random_reqs(&mut rng, 120, true);
        for mode in ArbiterMode::ALL {
            let (pushed, completed, mc) = drive(mode, &reqs, 2_000_000);
            assert_eq!(pushed, completed, "seed {seed}: mode {mode:?}");
            assert_eq!(mc.pending(), 0, "seed {seed}: mode {mode:?} left residue");
        }
    }
}

/// The DPQ arbiter's worst-case service bound holds in situ: random
/// mixed request streams through the full controller (bank timing,
/// row-hit bypass, write drains, aged-entry backstop) never trip the
/// debug-asserted promise. This property only has teeth in debug builds,
/// where `cargo test` runs it.
#[test]
fn dpq_service_bound_holds_in_controller() {
    for seed in 0..24u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xd6a0);
        let reqs = random_reqs(&mut rng, 200, true);
        let (pushed, completed, mc) = drive(ArbiterMode::Dpq, &reqs, 2_000_000);
        assert_eq!(pushed, completed, "seed {seed}: DPQ lost requests");
        assert_eq!(mc.pending(), 0, "seed {seed}: DPQ left residue");
    }
}

/// Per-class virtual clocks are monotone through the trait seam for
/// every deadline-carrying mechanism (the epoch invariant checker
/// relies on this).
#[test]
fn zoo_clocks_monotone() {
    for mode in ArbiterMode::ALL {
        let shares = ShareTable::from_weights(&[3, 1]).expect("weights are nonzero");
        let mut mc = MemController::new(DramConfig::default(), mode, &shares, 128);
        let mut rng = SimRng::seed_from_u64(0x60c5);
        let mut last = [0u64; 2];
        let mut done = Vec::new();
        for now in 0..20_000u64 {
            if mc.can_accept() {
                let _ = mc.push(MemReq {
                    line: LineAddr::new(rng.gen_range(0..1 << 30)),
                    class: QosId::new(rng.gen_range(0..2) as u8),
                    is_write: rng.gen_bool(0.2),
                    token: now,
                });
            }
            done.clear();
            mc.step_into(now, &mut done);
            for (c, l) in last.iter_mut().enumerate() {
                let v = mc.virtual_clock(QosId::new(c as u8));
                assert!(v >= *l, "{mode:?}: clock of class {c} regressed {l} -> {v}");
                *l = v;
            }
        }
    }
}

/// The per-bank and DPQ mechanisms still deliver differentiated service
/// to a backlogged high-share class (weaker than EDF's ratio tracking,
/// but the zoo's point is that they are not priority-blind).
#[test]
fn zoo_mechanisms_differentiate_service() {
    for mode in [ArbiterMode::PerBank, ArbiterMode::Dpq] {
        let shares = ShareTable::from_weights(&[3, 1]).expect("weights are nonzero");
        let mut mc = MemController::new(DramConfig::default(), mode, &shares, 128);
        let cfg = DramConfig::default();
        let row_stride = cfg.lines_per_row * cfg.banks as u64; // bank 0, next row
        let mut served = [0u64; 2];
        let mut to_issue = [12usize; 2];
        let mut next_row = [0u64, 1 << 20];
        let mut done = Vec::new();
        for now in 0..200_000u64 {
            let first = (now % 2) as usize;
            for c in [first, 1 - first] {
                while to_issue[c] > 0 {
                    let req = MemReq {
                        line: LineAddr::new(next_row[c] * row_stride),
                        class: QosId::new(c as u8),
                        is_write: false,
                        token: c as u64,
                    };
                    if mc.push(req).is_err() {
                        break;
                    }
                    next_row[c] += 1;
                    to_issue[c] -= 1;
                }
            }
            done.clear();
            mc.step_into(now, &mut done);
            for d in &done {
                served[d.class.index()] += 1;
                to_issue[d.class.index()] += 1;
            }
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            ratio > 1.5,
            "{mode:?}: high-share class must be favored, got ratio {ratio} ({served:?})"
        );
    }
}

/// Byte accounting: per-class bytes sum to 64 x completions.
#[test]
fn bytes_accounted() {
    for seed in 0..24u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xb17e);
        let reqs = random_reqs(&mut rng, 100, true);
        let (_, completed, mc) = drive(ArbiterMode::Edf, &reqs, 2_000_000);
        let bytes: u64 = mc.stats().bytes.iter().sum();
        assert_eq!(bytes, completed * 64, "seed {seed}");
    }
}

/// No read ever completes faster than the raw access pipeline
/// (activation + CAS + burst on an idle bank).
#[test]
fn latency_floor() {
    for seed in 0..24u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xf100);
        let reads = random_reqs(&mut rng, 60, false);
        let (_, _, mc) = drive(ArbiterMode::Fcfs, &reads, 2_000_000);
        let cfg = DramConfig::default();
        let floor = (cfg.t_rcd + cfg.t_cl + cfg.t_burst) as f64;
        for class in 0..2u8 {
            if let Some(lat) = mc.stats().mean_read_latency(QosId::new(class)) {
                assert!(lat >= floor, "seed {seed}: class {class}: {lat} < {floor}");
            }
        }
    }
}

/// Row-hit rate is a valid fraction and sequential streams beat random
/// ones on it.
#[test]
fn row_hit_rate_sane() {
    for seed in 0..32u64 {
        let seq: Vec<(u64, u8, bool)> = (0..80).map(|i| (i, 0u8, false)).collect();
        let mut rng = SimRng::seed_from_u64(seed ^ 0x2067);
        let rnd: Vec<(u64, u8, bool)> =
            (0..80).map(|_| (rng.gen_range(0..1 << 44), 0u8, false)).collect();
        let (_, _, mc_seq) = drive(ArbiterMode::Fcfs, &seq, 2_000_000);
        let (_, _, mc_rnd) = drive(ArbiterMode::Fcfs, &rnd, 2_000_000);
        let (hs, hr) = (mc_seq.stats().row_hit_rate(), mc_rnd.stats().row_hit_rate());
        assert!((0.0..=1.0).contains(&hs), "seed {seed}: seq rate {hs}");
        assert!((0.0..=1.0).contains(&hr), "seed {seed}: rnd rate {hr}");
        assert!(hs >= hr, "seed {seed}: sequential {hs} < random {hr}");
    }
}
