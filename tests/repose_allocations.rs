//! What a sealed re-pose allocates on the host, counted. One ATC-FULL
//! engine (Section 7's, one lane thread) answers the GUS seed-41 ten-query
//! script, five queries a batch, and then answers it again. Every re-posed
//! batch is sealed at admission from retained answers, so the second pose
//! allocates only for the ranking of each query's memoized candidate
//! networks, the seal's answer keys and the publication of the retained
//! results. The count is exact for a build and repeats run to run: a
//! counting global allocator adds one to a thread-local counter per
//! allocation and reallocation, and the engine runs on this thread.
//!
//! Release builds only: a debug build also runs the phase verifier, whose
//! allocations are not the engine's.
#![cfg(not(debug_assertions))]

use qsys::prelude::*;
use qsys_workload::gus::{self, GusConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The re-pose's allocations per user query, at most: the count recorded
/// when each candidate network's body, score weights and pre-hashed
/// whole-query signature began to be shared by every conjunctive query
/// ranked from it (102.1 before, 22.9 after). A change that moves it
/// records the new count here.
const MAX_ALLOCS_PER_UQ: f64 = 22.9;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation while this thread's locals are torn down
    // goes uncounted rather than panicking.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments, so
// `System`'s guarantees are this allocator's; counting touches only a
// thread-local `Cell` with a const initializer and no destructor, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Pose the script once, five queries a batch, and return the allocations
/// the engine made on this thread while admitting and running it.
fn pose(engine: &mut Engine, w: &qsys_workload::Workload, sealed: bool) -> u64 {
    let mut allocated = 0;
    for window in w.queries.chunks(5) {
        // The users' edge costs are the caller's: copied before counting.
        let costs: Vec<_> = window.iter().map(|q| q.edge_costs.clone()).collect();
        let before = allocations();
        let tickets: Vec<QueryTicket> = window
            .iter()
            .zip(costs)
            .map(|(q, costs)| {
                let mut session = engine.session(q.user);
                if let Some(costs) = costs {
                    session = session.with_edge_costs(costs);
                }
                session
                    .submit(&q.keywords, q.arrival_us)
                    .expect("the script matches candidate networks")
            })
            .collect();
        engine.flush();
        assert_eq!(engine.step(), 1, "one batch per window");
        allocated += allocations() - before;
        for t in &tickets {
            assert_eq!(t.poll(), TicketStatus::Completed);
            let report = t.report().expect("report published");
            assert_eq!(report.sealed, sealed, "{report:?}");
        }
    }
    allocated
}

#[test]
fn a_sealed_repose_allocates_within_its_bound() {
    let w = gus::generate(&GusConfig {
        user_queries: 10,
        min_rows: 100,
        max_rows: 300,
        ..GusConfig::small(41)
    });
    let config = EngineConfig {
        lane_threads: 1,
        ..qsys_bench::gus_engine(SharingMode::AtcFull, 5)
    };
    let mut engine = Engine::for_workload(&w, config);
    pose(&mut engine, &w, false);
    let per_uq = pose(&mut engine, &w, true) as f64 / w.queries.len() as f64;
    assert!(
        per_uq <= MAX_ALLOCS_PER_UQ,
        "a sealed re-pose made {per_uq} allocations per user query (bound {MAX_ALLOCS_PER_UQ})"
    );
}
