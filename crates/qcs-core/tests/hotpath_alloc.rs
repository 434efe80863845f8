//! Real-allocation pin for the steady-state hot path.
//!
//! A counting `#[global_allocator]` in this test binary sees every heap
//! allocation the process makes (`alloc`, `alloc_zeroed` and `realloc`),
//! not just the ones some call site chooses to report. The test runs fused
//! QFT-14 twice on one simulator and counts the second, steady-state pass:
//! by then the scratch pool holds grown buffers, so what remains is the
//! real per-pass cost (block payload copies, wave bookkeeping, spill
//! frames). One thread per rank (`with_threads_per_rank(1)`) keeps the count
//! deterministic up to the spill tier's background threads.
//!
//! The bounds are the counts measured at the commit before the codec seam
//! moved to one shared scratch pool (9,449–9,450 resident and
//! 11,824–11,827 with a 4-block spill budget, three runs each); the pass
//! must not allocate more than that.

use qcs_circuits::qft_benchmark_circuit;
use qcs_core::{CompressedSimulator, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Steady-state allocations of the resident pass before the pool merge.
const RESIDENT_BOUND: u64 = 9_450;
/// Steady-state allocations of the spilled pass before the pool merge.
const SPILLED_BOUND: u64 = 11_827;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` of the second of two identical fused QFT-14
/// passes on one simulator.
fn steady_state_pass(cfg: SimConfig) -> (u64, u64) {
    let mut sim = CompressedSimulator::new(14, cfg).expect("sim");
    let circuit = qft_benchmark_circuit(14, 12);
    let mut rng = StdRng::seed_from_u64(1);
    sim.run(&circuit, &mut rng).expect("warm-up pass");
    let (a0, b0) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    sim.run(&circuit, &mut rng).expect("steady-state pass");
    (
        ALLOCS.load(Ordering::SeqCst) - a0,
        BYTES.load(Ordering::SeqCst) - b0,
    )
}

/// The only test in this binary, so no concurrently running test shares
/// the global counter.
#[test]
fn steady_state_qft14_allocates_no_more_than_before_the_pool_merge() {
    let base = SimConfig::default()
        .with_block_log2(10)
        .with_threads_per_rank(1);
    for (label, cfg, bound) in [
        ("resident", base.clone(), RESIDENT_BOUND),
        ("spill(4)", base.with_spill(4), SPILLED_BOUND),
    ] {
        let (allocs, bytes) = steady_state_pass(cfg);
        println!("{label}: {allocs} allocations, {bytes} bytes in the steady-state pass");
        assert!(
            allocs <= bound,
            "{label}: the steady-state pass made {allocs} heap allocations \
             ({bytes} bytes), more than the {bound} before the pool merge"
        );
    }
}
