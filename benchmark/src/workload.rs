//! The benchmark's workloads: the circuit each one generates from the seed,
//! and the simulator configuration it runs under.

use qcs_circuits::{Circuit, QaoaParams};
use qcs_core::{spawn_loopback, CompressedSimulator, ServeOptions, SimConfig, SimError};
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// Amplitudes per compressed block: `2^BLOCK_LOG2`, 16 KiB uncompressed.
const BLOCK_LOG2: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// QFT on 18 qubits from a random odd basis state: a dense,
    /// near-incompressible state on the lossless rung.
    QftLossless,
    /// QAOA p=1 MAXCUT on a random 4-regular 18-vertex graph under a 1 MiB
    /// budget: the ladder escalates into the lossy Solution C rungs.
    QaoaLossy,
    /// Toffoli-ladder Grover on 11 data qubits (20 qubits) under a 1%
    /// budget, 2 ranks in loopback worker daemons, spill at 16 blocks.
    GroverSpillRemote,
}

pub const ALL: [Workload; 3] = [
    Workload::QftLossless,
    Workload::QaoaLossy,
    Workload::GroverSpillRemote,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::QftLossless => "qft-lossless",
            Workload::QaoaLossy => "qaoa-lossy",
            Workload::GroverSpillRemote => "grover-spill-remote",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the run must stay on the lossless rung (and so match the
    /// dense reference amplitude for amplitude).
    pub fn lossless(self) -> bool {
        self != Workload::QaoaLossy
    }

    /// Which circuit instance round `round` of a process simulates.
    /// QAOA takes a new random graph every round: its run time varies up
    /// to 2x between graphs, so a process reports the median over several
    /// graphs rather than the cost of one. The other workloads repeat one
    /// circuit.
    pub fn instance(self, round: u64) -> u64 {
        match self {
            Workload::QaoaLossy => round,
            _ => 0,
        }
    }

    /// The circuit of `instance` for `seed`.
    pub fn circuit(self, seed: u64, instance: u64) -> Circuit {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        match self {
            Workload::QftLossless => {
                // A random *odd* basis state: the QFT of an even one is
                // periodic and compresses, so the run time would follow the
                // seed's trailing zero bits (1.8-6.7 s on 2 vCPUs).
                let x = rng.gen_range(0..1u64 << 17) << 1 | 1;
                let mut c = Circuit::new(18);
                for q in (0..18).filter(|q| x >> q & 1 == 1) {
                    c.x(q);
                }
                c.extend(&qcs_circuits::qft_circuit(18));
                c
            }
            Workload::QaoaLossy => {
                let graph = qcs_circuits::random_regular_graph(18, 4, seed << 16 | instance);
                qcs_circuits::qaoa_circuit(&graph, &QaoaParams::standard(1))
            }
            Workload::GroverSpillRemote => {
                // Two set bits: every target gives the same 3,511 gates
                // (each zero bit adds 70 X gates), so the seed moves the
                // marked item but not the amount of work.
                let n_data = 11;
                let low = rng.gen_range(0..n_data - 1);
                let high = rng.gen_range(low + 1..n_data);
                let target = 1u64 << low | 1u64 << high;
                qcs_circuits::grover_circuit_toffoli(
                    n_data,
                    target,
                    qcs_circuits::optimal_iterations(n_data),
                )
            }
        }
    }

    /// The simulator configuration; spill segments go under `spill_dir`.
    /// Ranks x threads per rank never exceed 2.
    pub fn config(self, num_qubits: u32, spill_dir: &Path) -> SimConfig {
        let base = SimConfig::default().with_block_log2(BLOCK_LOG2);
        let uncompressed = 16u64 << num_qubits;
        match self {
            Workload::QftLossless => base.with_threads_per_rank(2),
            Workload::QaoaLossy => base.with_threads_per_rank(2).with_memory_budget(1 << 20),
            Workload::GroverSpillRemote => base
                .with_ranks_log2(1)
                .with_threads_per_rank(1)
                .with_memory_budget(uncompressed / 100)
                .with_spill(16)
                .with_spill_dir(spill_dir.to_path_buf()),
        }
    }

    /// Stand up a simulator ready to run its first gate. The remote
    /// workload first spawns one loopback worker daemon per rank.
    pub fn setup(self, num_qubits: u32, spill_dir: &Path) -> Result<Session, SimError> {
        let cfg = self.config(num_qubits, spill_dir);
        let mut daemons = Vec::new();
        let cfg = if self == Workload::GroverSpillRemote {
            let mut endpoints = Vec::new();
            for _ in 0..1usize << cfg.ranks_log2 {
                let opts = ServeOptions {
                    spill_dir: Some(spill_dir.to_path_buf()),
                    ..ServeOptions::default()
                };
                let (addr, handle) = spawn_loopback(1, opts)
                    .map_err(|e| SimError::Config(format!("spawn loopback worker daemon: {e}")))?;
                endpoints.push(addr);
                daemons.push(handle);
            }
            cfg.with_remote(endpoints)
        } else {
            cfg
        };
        // On error the daemons are left detached: a daemon that never got
        // its connection would block a join forever.
        let sim = CompressedSimulator::new(num_qubits, cfg.clone())?;
        Ok(Session { sim, daemons, cfg })
    }
}

/// A simulator plus the worker daemons hosting its ranks, if any.
pub struct Session {
    pub sim: CompressedSimulator,
    pub cfg: SimConfig,
    daemons: Vec<JoinHandle<()>>,
}

impl Session {
    /// Drop the simulator, then wait for every daemon it used to exit.
    pub fn finish(self) {
        drop(self.sim);
        for handle in self.daemons {
            handle.join().expect("worker daemon thread panicked");
        }
    }
}

/// Where a run's spill segments go: a fresh directory per process.
pub fn spill_root(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("spill-{}", std::process::id()))
}
