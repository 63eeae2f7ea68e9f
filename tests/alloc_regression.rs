//! Allocation-regression gate for the zero-allocation probe loop.
//!
//! This test binary installs the same kind of counting global allocator as
//! the `diophantus` binary (every alloc/realloc bumps the
//! `alloc.heap.allocs` registry cell) and replays the E4 path workload —
//! the sweep the allocation-discipline work was measured on. With the
//! compilation cache warm, deciding thousands of probes through the
//! scratch-memory discipline must stay under a pinned per-probe allocation
//! bound; a regression that reintroduces per-probe heap traffic fails here
//! long before it shows up in bench numbers.
//!
//! A cold decision of the same pair is bounded too: allocations per probe
//! while the memo fills, and the bytes the filled memo keeps alive, which
//! the allocator tracks as a per-thread live-byte balance.
//!
//! The E4 probes never reach the LP kernel (each system short-circuits on
//! a zero row), so a second case drives the kernel itself: a warmed
//! [`LpScratch`] deciding star systems through their Gordan dual may
//! allocate the returned witness and nothing else. The cases hold one lock, so the
//! registry delta of one never sees the other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

use diophantus::containment::{Algorithm, BagContainmentDecider, CompiledPair};
use diophantus::linalg::{FeasibilityEngine, LpScratch, StrictHomogeneousSystem};
use diophantus::obs::registry::LP_BAREISS_PIVOTS;
use diophantus::workloads::suite::path_self_containment;

thread_local! {
    /// Allocations made by the current thread.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes the current thread allocated minus the bytes it freed: on a
    /// single-threaded run, the heap that run left alive.
    static THREAD_LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Bumps both the registry cell and the calling thread's own count, and
/// moves the thread's live-byte balance by `bytes`.
fn count_alloc(bytes: isize) {
    diophantus::obs::registry::ALLOC_HEAP_ALLOCS.incr();
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    count_live(bytes);
}

/// Moves the calling thread's live-byte balance by `bytes`.
fn count_live(bytes: isize) {
    let _ = THREAD_LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

/// The byte count of `size` as a balance change (a `Layout` size never
/// exceeds `isize::MAX`).
fn bytes(size: usize) -> isize {
    size as isize
}

/// Serialises the cases of this binary.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Delegates to the system allocator, counting allocations into the
/// `dioph-obs` registry (mirrors the allocator installed by the
/// `diophantus` binary) and per thread, and balancing live bytes.
struct CountingAllocator;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the registry bump and the const-initialised
// thread-local counts neither allocate nor panic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(bytes(layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-bytes(layout.size()));
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(bytes(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(bytes(new_size) - bytes(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn warm_probe_loop_stays_under_the_allocation_bound() {
    let _serial = serial();
    // The E4 containee-scaling instance benchmarked in ROADMAP.md: the
    // length-4 path query against itself, whose probe space has 5^5 = 3125
    // probe tuples, decided with the all-probes algorithm.
    let (containee, containing) = path_self_containment(4);
    let pair = CompiledPair::new(containee, containing).expect("the path pair is decidable");
    let decider = BagContainmentDecider::new(Algorithm::AllProbes);

    // First decision warms the lazy probe-compilation cache (bench repeat
    // loops amortise this the same way); the measured run then covers the
    // decision procedure itself.
    let verdict = decider.decide_pair(&pair).expect("decidable");
    assert!(verdict.holds(), "the path pair is contained by construction");

    let before = diophantus::obs::snapshot();
    decider.decide_pair(&pair).expect("decidable");
    let delta = diophantus::obs::snapshot().since(&before);

    let probes = delta.get("containment.probes.decided").unwrap_or(0);
    let allocs = delta.get("alloc.heap.allocs").unwrap_or(0);
    assert_eq!(probes, 3125, "the warm run must decide the full probe space");
    let per_probe = allocs as f64 / probes as f64;
    // The pre-discipline baseline measured ~76 heap allocations per probe on
    // this workload; the scratch-threaded loop runs well under 8. The bound
    // leaves headroom for allocator-pattern jitter while still catching any
    // reintroduced per-probe allocation (each costs +1.0 here).
    assert!(
        per_probe < 8.0,
        "allocation regression: {allocs} heap allocs over {probes} probes ({per_probe:.1}/probe)"
    );
    // The scratch actually served the loop: all but the first probe of the
    // pair reused warmed buffers.
    assert_eq!(delta.get("alloc.scratch.reuses"), Some(3124));
}

#[test]
fn cold_all_probes_decision_stays_under_the_allocation_and_retention_bounds() {
    let _serial = serial();
    // The same 3125-probe path pair, decided once on a fresh pair: every
    // probe is compiled, and every one has a dominating mapping.
    let (containee, containing) = path_self_containment(4);
    let pair = CompiledPair::new(containee, containing).expect("the path pair is decidable");
    let decider = BagContainmentDecider::new(Algorithm::AllProbes);

    let (allocs, live) = (THREAD_ALLOCS.with(Cell::get), THREAD_LIVE_BYTES.with(Cell::get));
    let verdict = decider.decide_pair(&pair).expect("decidable");
    let allocs = THREAD_ALLOCS.with(Cell::get) - allocs;
    let retained = THREAD_LIVE_BYTES.with(Cell::get) - live;

    assert!(verdict.holds(), "the path pair is contained by construction");
    // Grounding, the mapping search set-up and the probe tuple take about
    // 31 allocations per probe; a full MPI kept per probe took 52.
    let per_probe = allocs as f64 / 3125.0;
    assert!(per_probe <= 42.0, "cold allocation regression: {per_probe:.1}/probe");
    // A dominated probe keeps one memo slot, not its grounded query and MPI
    // (about 7 MiB for this pair when each probe kept its full compilation).
    assert!(retained <= 128 * 1024, "the decided pair retains {retained} bytes");
}

/// The Theorem 4.1 system of a Boolean unary star pair, the shape of the
/// benchmark's LP workload: containee `A^{m_i}('c_i')` for `i < 5`,
/// containing `A^{r_j}(z_j)` for `j < 3`, one row `m − e_h` per mapping
/// `h` of the rays onto the constants.
fn star(m: [i64; 5], rays: [i64; 3]) -> StrictHomogeneousSystem {
    let mut sys = StrictHomogeneousSystem::new(5);
    for h in 0..125 {
        let mut row = m;
        for (ray, target) in rays.iter().zip([h / 25, h / 5 % 5, h % 5]) {
            row[target] -= ray;
        }
        sys.push_row_i64(&row);
    }
    sys
}

#[test]
fn warm_scratch_decides_star_systems_allocating_only_the_witness() {
    let _serial = serial();
    // One refuted system and one feasible one, with the Gordan-dual pivot
    // counts pinned in `crates/linalg/tests/pivot_pins.rs`.
    for (m, rays, feasible, dual_pivots) in
        [([2, 2, 1, 1, 1], [2, 4, 1], false, 20), ([4, 3, 4, 2, 1], [4, 3, 2], true, 16)]
    {
        let sys = star(m, rays);
        let mut scratch = LpScratch::new();
        // The first run grows every row buffer to the size its row reaches;
        // the second grows the pool's stack that holds them between runs.
        let cold = sys.natural_solution_in(FeasibilityEngine::Simplex, &mut scratch).unwrap();
        sys.natural_solution_in(FeasibilityEngine::Simplex, &mut scratch).unwrap();

        let (allocs, pivots) = (THREAD_ALLOCS.with(Cell::get), LP_BAREISS_PIVOTS.get());
        let warm = sys.natural_solution_in(FeasibilityEngine::Simplex, &mut scratch).unwrap();
        let allocs = THREAD_ALLOCS.with(Cell::get) - allocs;
        let pivots = LP_BAREISS_PIVOTS.get() - pivots;

        assert_eq!(warm, cold, "reuse is capacity-only");
        assert_eq!(warm.is_some(), feasible, "star {m:?} against {rays:?}");
        assert_eq!(pivots, dual_pivots, "star {m:?} against {rays:?}");
        assert_eq!(
            allocs,
            u64::from(feasible),
            "a warmed scratch may allocate the witness and nothing else ({pivots} pivots)"
        );
    }
}
