//! The benchmark's workloads: which machine, which traffic, how long to
//! warm up and how many epochs the deterministic window spans.
//!
//! Every workload runs full PABST with 3:1 class weights, the paper's
//! Fig. 1 setup. The seed reaches the simulator only through the
//! generated inputs: each core's region base, each streamer's load-id
//! salt and each chaser's chain RNG.
//!
//! Region bases keep the cache alignment of the repository's own
//! experiments, which start every region on a 4 GiB boundary: the seed
//! moves a base by whole L3 set spans only, so every stream starts in the
//! same set of every cache whatever the seed. On `write_stream` this is
//! what makes the 32 streams evict each other's dirty lines from the L3
//! within the first epoch, so the controllers' write path runs in the
//! measured window.

use pabst_cpu::Workload;
use pabst_soc::config::{ConfigError, RegulationMode, SystemConfig};
use pabst_soc::system::{System, SystemBuilder};
use pabst_workloads::{ChaserGen, Region, StreamGen};

/// Class weights of every workload (class 0 gets 3 shares, class 1 one).
pub const WEIGHTS: [u32; 2] = [3, 1];

/// The seed the benchmark's recorded digests were made with.
pub const DEFAULT_SEED: u64 = 1;
/// A second recorded seed, kept out of tuning.
pub const HELD_OUT_SEED: u64 = 9173;

/// Streamer region size in lines (64 MiB, far beyond every cache).
const STREAM_LINES: u64 = 1 << 20;
/// Chaser region size in lines (16 MiB per core).
const CHASE_LINES: u64 = 1 << 18;
/// Each (class, core) owns a 4 GiB slot; the seed places the region
/// inside it.
const SLOT_SHIFT: u32 = 32;
/// Bytes per cache line.
const LINE_BYTES: u64 = 64;

/// The traffic a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Independent 128-byte-stride loads.
    ReadStream,
    /// Independent 128-byte-stride stores (write-allocate).
    WriteStream,
    /// Single-chain dependent pointer chases.
    Chase,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Traffic of every core.
    pub traffic: Traffic,
    /// Cores per class.
    pub per_class: usize,
    /// Epochs simulated before the first timed cycle.
    pub warmup_epochs: u64,
    /// Epochs after warm-up whose simulated statistics are reported and
    /// digested; the timed window always covers them.
    pub window_epochs: u64,
    /// Equal chunks each timed epoch is split into; the host rate comes
    /// from the fastest chunks (see `run::fast_epoch_s`). One on
    /// workloads with hundreds of timed epochs. `write_stream` times only
    /// ~12 epochs of 2-3 s, and the fastest of a thousand 200-cycle
    /// chunks repeats far better than the fastest of so few whole epochs.
    pub chunks_per_epoch: u64,
    /// Timed runs per untraced invocation, each set up afresh and timed
    /// for its share of `--seconds`. One on `write_stream`, whose window
    /// alone takes most of the seconds.
    pub runs: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "read_stream",
        traffic: Traffic::ReadStream,
        per_class: 16,
        warmup_epochs: 10,
        window_epochs: 60,
        runs: 7,
        chunks_per_epoch: 1,
    },
    Spec {
        name: "write_stream",
        traffic: Traffic::WriteStream,
        per_class: 16,
        warmup_epochs: 1,
        window_epochs: 9,
        runs: 1,
        chunks_per_epoch: 100,
    },
    Spec {
        name: "mesh_chase",
        traffic: Traffic::Chase,
        per_class: 32,
        warmup_epochs: 4,
        window_epochs: 20,
        runs: 7,
        chunks_per_epoch: 1,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// The modelled machine.
    pub fn config(&self) -> SystemConfig {
        match self.traffic {
            Traffic::ReadStream | Traffic::WriteStream => SystemConfig::baseline_32core(),
            Traffic::Chase => {
                let mut cfg = SystemConfig::mesh_64();
                cfg.dram = cfg.dram.down_clocked(4);
                cfg
            }
        }
    }

    /// The generator core `core` of class `class` runs under `seed`.
    pub fn generator(&self, seed: u64, class: usize, core: usize) -> Box<dyn Workload> {
        let h = mix(seed, class as u64, core as u64);
        let span = self.config().l3.sets as u64 * LINE_BYTES;
        let region = |lines| region(h, class, core, lines, span);
        match self.traffic {
            Traffic::ReadStream => Box::new(StreamGen::reads(region(STREAM_LINES), salt(h))),
            Traffic::WriteStream => Box::new(StreamGen::writes(region(STREAM_LINES), salt(h))),
            Traffic::Chase => Box::new(ChaserGen::new(region(CHASE_LINES), 1, salt(h))),
        }
    }

    /// Builds the machine with every core's generator passed through
    /// `wrap` (the identity for untraced runs).
    pub fn build(
        &self,
        seed: u64,
        mut wrap: impl FnMut(Box<dyn Workload>) -> Box<dyn Workload>,
    ) -> Result<System, ConfigError> {
        let mut b = SystemBuilder::new(self.config(), RegulationMode::Pabst);
        for (class, &weight) in WEIGHTS.iter().enumerate() {
            let cores = (0..self.per_class).map(|i| wrap(self.generator(seed, class, i))).collect();
            b = b.class(weight, cores);
        }
        b.build()
    }

    /// Cycle at which the deterministic window ends.
    pub fn window_end(&self, epoch_cycles: u64) -> u64 {
        (self.warmup_epochs + self.window_epochs) * epoch_cycles
    }
}

/// The region of (class, core): a seed-chosen offset of whole `span`s
/// (the L3's set span, after which set indices repeat) inside the pair's
/// private 4 GiB slot, so regions never overlap.
fn region(h: u64, class: usize, core: usize, lines: u64, span: u64) -> Region {
    let slot = ((class as u64) << 40) + ((core as u64) << SLOT_SHIFT);
    let room = ((1u64 << SLOT_SHIFT) - lines * LINE_BYTES) / span;
    Region::new(slot + (h % room) * span, lines)
}

/// A load-id salt below 2^20, so `salt << 40` never loses bits.
fn salt(h: u64) -> u64 {
    (h >> 32) & 0xF_FFFF
}

/// SplitMix64 over (seed, class, core).
pub fn mix(seed: u64, class: u64, core: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(class.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(core.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pabst_cpu::Op;

    fn first_addrs(spec: &Spec, seed: u64) -> Vec<u64> {
        let mut g = spec.generator(seed, 1, 3);
        (0..16)
            .filter_map(|_| match g.next_op() {
                Op::Load { addr, .. } | Op::Store { addr } => Some(addr.get()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn seed_changes_every_address_stream() {
        for spec in SPECS {
            let a = first_addrs(&spec, DEFAULT_SEED);
            assert_eq!(
                a,
                first_addrs(&spec, DEFAULT_SEED),
                "{}: same seed, same stream",
                spec.name
            );
            assert_ne!(
                a,
                first_addrs(&spec, HELD_OUT_SEED),
                "{}: seed moves the stream",
                spec.name
            );
        }
    }

    #[test]
    fn regions_stay_in_their_slot_on_a_set_span() {
        let span = 1 << 20;
        for seed in [0, 1, u64::MAX] {
            for (class, core) in [(0, 0), (1, 31), (0, 63)] {
                let h = mix(seed, class, core);
                let r = region(h, class as usize, core as usize, STREAM_LINES, span);
                let slot = (class << 40) + (core << SLOT_SHIFT);
                assert!(r.base().get() >= slot);
                assert!(r.base().get() + r.bytes() <= slot + (1 << SLOT_SHIFT));
                assert_eq!(r.base().get() % span, 0, "every region starts in set 0");
            }
        }
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in SPECS.iter().enumerate() {
            assert!(SPECS[i + 1..].iter().all(|b| b.name != a.name));
            assert_eq!(Spec::by_name(a.name), Some(*a));
        }
    }
}
