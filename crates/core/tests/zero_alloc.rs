//! The tentpole guarantee of the kernel layer: once the per-worker
//! scratch arena is warm, the conditioning enumeration performs **zero**
//! heap allocations, and a full `evaluate()` allocates only the returned
//! output group.
//!
//! A counting global allocator makes the claim checkable from outside
//! `pep-core`: the `#[doc(hidden)]` probes in `pep_core::probe` run the
//! recursion over persistent buffers and report per-rep allocation
//! deltas against the counter we hand them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// A single test function: the counter is process-global, so concurrent
// test threads would pollute each other's deltas.
#[test]
fn steady_state_conditioning_does_not_allocate() {
    // Rep 0 warms the arena (slabs are created on first checkout); every
    // later enumeration must run entirely out of recycled buffers.
    let deltas = pep_core::probe::cond_enumeration_alloc_deltas(6, &allocations);
    assert!(deltas[0] > 0, "cold run populates the arena");
    for (i, &d) in deltas.iter().enumerate().skip(1) {
        assert_eq!(d, 0, "warm conditioning rep {i} performed {d} allocations");
    }

    // `evaluate()` returns an owned group, so its steady-state budget is
    // the output buffer only. The bound is deliberately tight: the old
    // code cloned `sg.stems` (and built scored vectors) per call even
    // when no filtering applied, which busts it.
    let deltas = pep_core::probe::evaluate_alloc_deltas(6, &allocations);
    for (i, &d) in deltas.iter().enumerate().skip(1) {
        assert!(
            d <= 2,
            "warm evaluate rep {i} performed {d} allocations (output buffer budget is 2)"
        );
    }

    // Columnar slab storage: once a plane buffer and the out/scratch
    // buffers are warm, a full wave cycle — plane reuse, group appends,
    // view reads, every view kernel, ladder truncation — allocates
    // nothing. This is the property that makes the slab the analyzer's
    // steady-state storage rather than another allocation source.
    use pep_dist::{DiscreteDist, DistScratch, EventSlab};
    let a = DiscreteDist::from_pairs((0..40).map(|t| (t, 0.5 / 40.0)));
    let b = DiscreteDist::from_pairs((10..60).map(|t| (t, 0.5 / 50.0)));
    let mut out = DiscreteDist::empty();
    let mut scratch = DistScratch::new();
    let mut plane = Vec::with_capacity(4096);
    for rep in 0..4 {
        let before = allocations();
        let mut slab = EventSlab::from_plane(std::mem::take(&mut plane));
        let da = slab.push_view(a.as_view());
        let mut db = slab.push_view(b.as_view());
        let (va, vb) = (slab.view(da), slab.view(db));
        va.convolve_into(vb, &mut out);
        va.max_into(vb, &mut out);
        va.min_into(vb, &mut out);
        va.accumulate_into(vb, &mut out);
        va.coarsen_into(8, &mut out, &mut scratch);
        slab.truncate_below(&mut db, 0.009);
        slab.normalize(db);
        plane = slab.into_plane();
        let delta = allocations() - before;
        if rep > 0 {
            assert_eq!(
                delta, 0,
                "warm slab wave rep {rep} performed {delta} allocations"
            );
        }
    }

    // Plane recycling across repeated analyses: a reused `GroupStore`
    // driven through full re-analysis commit cycles (`reset` between
    // runs) settles to zero allocations and a flat slab high-water
    // mark. Reps 0-1 may allocate — plane buffers are created, then the
    // LIFO recycling stack redistributes them across wave positions
    // once — but from rep 2 on the store is at its fixed footprint.
    let (deltas, high_water) = pep_core::probe::store_rerun_alloc_deltas(6, &allocations);
    assert!(deltas[0] > 0, "cold run populates the planes");
    for (i, &d) in deltas.iter().enumerate().skip(2) {
        assert_eq!(d, 0, "warm re-analysis rep {i} performed {d} allocations");
    }
    for (i, &hw) in high_water.iter().enumerate().skip(1) {
        assert_eq!(
            hw, high_water[0],
            "warm re-analysis rep {i} grew the slab high-water mark"
        );
    }

    // Delta responses: once an analyzer's base hashes are cached (the
    // first digest), the digest after a warm delta rehashes the dirty
    // nodes' slab views in place and allocates nothing.
    use pep_celllib::{DelayModel, Timing};
    use pep_core::{AnalysisConfig, Delta, IncrementalAnalyzer};
    let nl = pep_netlist::samples::fig6();
    let timing = Timing::annotate(&nl, &DelayModel::dac2001(7));
    let mut incr = IncrementalAnalyzer::new(&nl, &timing, &AnalysisConfig::default())
        .expect("no fail-fast budget");
    let base = incr.groups_digest();
    let gate = nl.node_id("s3").expect("fig6 gate");
    for rep in 0..3 {
        incr.apply_delta(&Delta::ScaleCell { gate, factor: 1.5 })
            .expect("valid delta");
        assert!(incr.dirty_count() > 0, "the delta dirtied its cone");
        let before = allocations();
        let digest = incr.groups_digest();
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "primed digest rep {rep} performed {delta} allocations"
        );
        assert_ne!(digest, base, "the digest sees the delta");
        incr.revert();
    }
}
