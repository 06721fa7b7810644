//! Simulated wide-area time.
//!
//! The paper evaluates over remote MySQL instances with *simulated* wide-area
//! delays: "random delays for each tuple read from a data stream and each
//! join probe performed against a remote DBMS ... chosen from a Poisson
//! distribution with an average of 2 milliseconds" (Section 7).
//!
//! We reproduce exactly that cost model on a virtual clock: every stream
//! read, remote probe, and in-memory join probe charges simulated
//! microseconds to a [`SimClock`], categorized so that Figure 8's breakdown
//! (stream read / random access / join time) can be regenerated. Virtual
//! time makes every experiment deterministic and independent of host
//! hardware while preserving the relative cost structure that drives the
//! paper's results.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What an expenditure of simulated time was for (Figure 8 categories).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TimeCategory {
    /// Reading a tuple from a streaming source (includes network delay).
    StreamRead,
    /// Probing a remote random-access source (two-way semijoin; includes
    /// network delay).
    RandomAccess,
    /// In-memory work: hash-table probes and insertions inside m-joins,
    /// rank-merge bookkeeping.
    Join,
    /// Query optimization (measured separately for Figure 11; not part of
    /// the Figure 8 breakdown).
    Optimize,
}

/// Accumulated simulated time, split by category. All values in
/// microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Time spent reading streaming sources.
    pub stream_read_us: u64,
    /// Time spent probing remote random-access sources.
    pub random_access_us: u64,
    /// Time spent on in-memory join work.
    pub join_us: u64,
    /// Time spent inside the optimizer.
    pub optimize_us: u64,
}

impl TimeBreakdown {
    /// Total simulated time across all categories.
    pub(crate) fn total_us(&self) -> u64 {
        self.stream_read_us + self.random_access_us + self.join_us + self.optimize_us
    }

    /// Total execution time (excluding optimization), the quantity the
    /// paper's Figure 8 normalizes by.
    pub fn exec_us(&self) -> u64 {
        self.stream_read_us + self.random_access_us + self.join_us
    }

    /// Fractions of execution time per category, in the order
    /// (stream read, random access, join). Returns zeros when no time has
    /// been charged.
    pub fn exec_fractions(&self) -> (f64, f64, f64) {
        let total = self.exec_us();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (
            self.stream_read_us as f64 / t,
            self.random_access_us as f64 / t,
            self.join_us as f64 / t,
        )
    }

    /// Component-wise difference (for measuring a window of execution).
    /// A component on which `earlier` is actually the later snapshot reads
    /// as an empty window, not an overflow.
    pub fn since(&self, earlier: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            stream_read_us: self.stream_read_us.saturating_sub(earlier.stream_read_us),
            random_access_us: self
                .random_access_us
                .saturating_sub(earlier.random_access_us),
            join_us: self.join_us.saturating_sub(earlier.join_us),
            optimize_us: self.optimize_us.saturating_sub(earlier.optimize_us),
        }
    }
}

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stream {:.3}s | probe {:.3}s | join {:.3}s | opt {:.3}s",
            self.stream_read_us as f64 / 1e6,
            self.random_access_us as f64 / 1e6,
            self.join_us as f64 / 1e6,
            self.optimize_us as f64 / 1e6,
        )
    }
}

// The simulation's cost constants, in simulated microseconds. Section 7
// fixes the model once: a Poisson network delay of mean 2 ms on every
// stream read and every remote probe, which the source layer draws on top
// of the base costs below. The optimizer prices reads with the same
// constants the sources charge.

/// Mean of the Poisson network delay of one fetch round, µs (paper:
/// 2000 µs).
pub const MEAN_NETWORK_DELAY_US: u64 = 2_000;
/// Base CPU cost of delivering one streamed tuple, µs.
pub const STREAM_TUPLE_US: u64 = 20;
/// Base CPU cost of one remote probe, µs.
pub const PROBE_US: u64 = 50;
/// Cost of one in-memory hash-table probe or insertion, µs.
pub const HASH_OP_US: u64 = 2;
/// Cost of routing one tuple through a split or into a rank-merge queue,
/// µs.
pub const ROUTE_US: u64 = 1;
/// Simulated cost of one BestPlan search state, µs (drives Figure 11).
pub const OPT_STEP_US: u64 = 15;

/// The retired settable cost profile, carried by
/// `EngineConfig::cost_profile` and `OptimizerConfig::cost_profile`. Its
/// only value is the default: the costs are the constants above. It
/// remains only because the benchmark names it; ROADMAP item 1(b) removes
/// it.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostProfile(());

/// A shared virtual clock.
///
/// Cloning a `SimClock` yields a handle onto the *same* clock (interior
/// `Arc`), so sources, operators, and the ATC all charge into one account.
///
/// **Single-writer contract.** A clock is charged by one thread at a time.
/// Each engine lane creates its own clock (`Lane::new` in the root crate)
/// and drives it from whichever single thread runs the lane (the ATC is a
/// serial coordinator, exactly as in the paper); nothing clones a clock
/// across threads. Lanes themselves run on real threads, so the account is
/// kept in relaxed atomics — every handle is `Send` and any thread may
/// *read* it — but [`SimClock::charge`] is a relaxed load plus a store,
/// not a locked `fetch_add`: it runs millions of times a run, and with one
/// writer the two are the same. Two threads charging one clock at once
/// would lose charges (never corrupt memory). `tests/parallel_identity.rs`
/// is the cross-thread gate: every virtual-clock number must come out
/// bit-identical at any lane-thread count.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    inner: Arc<ClockInner>,
}

#[derive(Debug, Default)]
struct ClockInner {
    stream_read_us: AtomicU64,
    random_access_us: AtomicU64,
    join_us: AtomicU64,
    optimize_us: AtomicU64,
}

impl SimClock {
    /// A fresh clock at time zero.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Charge `us` microseconds to `category` (single writer: see the type
    /// docs).
    #[inline]
    pub fn charge(&self, category: TimeCategory, us: u64) {
        let cell = match category {
            TimeCategory::StreamRead => &self.inner.stream_read_us,
            TimeCategory::RandomAccess => &self.inner.random_access_us,
            TimeCategory::Join => &self.inner.join_us,
            TimeCategory::Optimize => &self.inner.optimize_us,
        };
        cell.store(cell.load(Ordering::Relaxed) + us, Ordering::Relaxed);
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.breakdown().total_us()
    }

    /// Snapshot of the per-category account.
    pub fn breakdown(&self) -> TimeBreakdown {
        TimeBreakdown {
            stream_read_us: self.inner.stream_read_us.load(Ordering::Relaxed),
            random_access_us: self.inner.random_access_us.load(Ordering::Relaxed),
            join_us: self.inner.join_us.load(Ordering::Relaxed),
            optimize_us: self.inner.optimize_us.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_by_category() {
        let clock = SimClock::new();
        clock.charge(TimeCategory::StreamRead, 100);
        clock.charge(TimeCategory::StreamRead, 50);
        clock.charge(TimeCategory::Join, 7);
        let b = clock.breakdown();
        assert_eq!(b.stream_read_us, 150);
        assert_eq!(b.join_us, 7);
        assert_eq!(b.total_us(), 157);
    }

    #[test]
    fn clones_share_the_account() {
        let clock = SimClock::new();
        let handle = clock.clone();
        handle.charge(TimeCategory::RandomAccess, 42);
        assert_eq!(clock.breakdown().random_access_us, 42);
    }

    #[test]
    fn fractions_sum_to_one() {
        let clock = SimClock::new();
        clock.charge(TimeCategory::StreamRead, 60);
        clock.charge(TimeCategory::RandomAccess, 30);
        clock.charge(TimeCategory::Join, 10);
        let (s, r, j) = clock.breakdown().exec_fractions();
        assert!((s + r + j - 1.0).abs() < 1e-12);
        assert!((s - 0.6).abs() < 1e-12);
    }

    #[test]
    fn optimize_excluded_from_exec_time() {
        let clock = SimClock::new();
        clock.charge(TimeCategory::Optimize, 1000);
        clock.charge(TimeCategory::Join, 10);
        assert_eq!(clock.breakdown().exec_us(), 10);
        assert_eq!(clock.breakdown().total_us(), 1010);
    }

    #[test]
    fn since_computes_window() {
        let clock = SimClock::new();
        clock.charge(TimeCategory::Join, 5);
        let t0 = clock.breakdown();
        clock.charge(TimeCategory::Join, 9);
        let t1 = clock.breakdown();
        assert_eq!(t1.since(&t0).join_us, 9);
        // Misordered snapshots: an empty window, no overflow.
        assert_eq!(t0.since(&t1).join_us, 0);
        assert_eq!(t0.since(&t1).total_us(), 0);
    }
}
