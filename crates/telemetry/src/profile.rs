//! Wall-clock self-profiler: scoped timers around the simulator's own hot
//! paths (event dispatch, scheduler enqueue/dequeue, policy synthesis).
//!
//! Unlike every other collector in this crate, the profiler measures *host*
//! wall-clock time, not simulated time — it answers "where does the
//! simulator spend its cycles", not "where do packets spend theirs". Its
//! numbers therefore vary run to run and are deliberately kept out of
//! anything the determinism suite compares byte-for-byte; they surface in
//! the `profile` section of `qvisor telemetry report`.
//!
//! Usage: fetch a [`Profiler`] once per site via `Telemetry::profiler`, then
//! wrap each occurrence in a scope guard:
//!
//! ```
//! # let telemetry = qvisor_telemetry::Telemetry::enabled();
//! let dispatch = telemetry.profiler("event_dispatch");
//! {
//!     let _span = dispatch.time();
//!     // ... hot work ...
//! } // guard drop records the elapsed wall time
//! ```
//!
//! Every scope is *counted*, but the clock is read on one scope in
//! `TIMING_STRIDE` only: an `Instant::now()` pair costs tens of
//! nanoseconds and the simulator opens a dozen scopes per packet, so
//! timing all of them would make the profiler the largest single cost of an
//! observed run. The exported `total_ns` is therefore an *estimate* — the
//! timed scopes' total scaled by `count / timed` — while `count` stays
//! exact; `min_ns`/`max_ns` range over the timed scopes. A timed scope
//! subtracts what one clock read costs, measured by two reads back to back
//! as it starts: its interval contains that much clock latency, the
//! untimed scopes pay none, and scaled up it would count for a third of a
//! ~100 ns site. Durations handed to [`Profiler::record_ns`] were measured
//! by the caller and are always kept exactly.
//!
//! A handle from [`Telemetry::disabled`](crate::Telemetry::disabled) holds
//! no aggregate: every method is one branch and the clock is never read.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// [`Profiler::time`] reads the clock on scopes `0, STRIDE, 2·STRIDE, …` of
/// each site.
const TIMING_STRIDE: u64 = 64;

/// Aggregated wall-clock statistics for one profiled site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileStat {
    /// Number of scopes, timed or not.
    pub count: u64,
    /// Number of scopes whose duration was measured.
    pub timed: u64,
    /// Total wall-clock nanoseconds across the timed scopes.
    pub timed_ns: u64,
    /// Shortest timed scope, 0 if none.
    pub min_ns: u64,
    /// Longest timed scope.
    pub max_ns: u64,
}

impl ProfileStat {
    /// Count one scope and fold its measured duration into the aggregate.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.record_timed(ns);
    }

    /// Fold in the duration of a scope that was already counted.
    fn record_timed(&mut self, ns: u64) {
        self.min_ns = if self.timed == 0 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.max_ns = self.max_ns.max(ns);
        self.timed += 1;
        self.timed_ns = self.timed_ns.saturating_add(ns);
    }

    /// Estimated wall-clock nanoseconds across *all* scopes: the timed
    /// total scaled by `count / timed` (exact when every scope was timed,
    /// 0 if none was).
    pub fn total_ns(&self) -> u64 {
        if self.timed == 0 {
            return 0;
        }
        let scaled = u128::from(self.timed_ns) * u128::from(self.count) / u128::from(self.timed);
        u64::try_from(scaled).unwrap_or(u64::MAX)
    }

    /// Mean nanoseconds per timed scope (0 if none).
    pub fn mean_ns(&self) -> u64 {
        self.timed_ns.checked_div(self.timed).unwrap_or(0)
    }
}

/// Handle to one profiled site's aggregate. Cloning shares the
/// aggregate; the default value is disabled (records nothing).
///
/// The aggregate is a `Cell`, not a `RefCell`: no borrow flag to test and
/// set around every scope, and updating one field of the copy compiles to
/// a store of that field alone.
#[derive(Clone, Default)]
pub struct Profiler(pub(crate) Option<Rc<Cell<ProfileStat>>>);

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Profiler(count={})", self.stat().count)
    }
}

impl Profiler {
    /// Start a scope. It is counted at once; on one scope in
    /// `TIMING_STRIDE` the clock is read too, and the elapsed wall
    /// time is recorded when the returned guard drops. Disabled
    /// handles never read the clock.
    ///
    /// The guard holds no state on a scope that is not timed, so dropping
    /// it is an inlined test; the timed scope's clock reads happen behind
    /// two out-of-line calls.
    #[inline]
    pub fn time(&self) -> ProfileSpan {
        let Some(stat) = &self.0 else {
            return ProfileSpan(None);
        };
        let mut s = stat.get();
        let nth = s.count;
        s.count += 1;
        stat.set(s);
        if nth.is_multiple_of(TIMING_STRIDE) {
            ProfileSpan(Some(Timed::start(stat)))
        } else {
            ProfileSpan(None)
        }
    }

    /// Record an externally measured scope duration (always exact).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if let Some(stat) = &self.0 {
            let mut s = stat.get();
            s.record(ns);
            stat.set(s);
        }
    }

    /// Snapshot of the aggregate so far (zeros when disabled).
    pub fn stat(&self) -> ProfileStat {
        self.0
            .as_ref()
            .map_or_else(ProfileStat::default, |s| s.get())
    }
}

/// Scope guard returned by [`Profiler::time`]; a timed scope records
/// its duration on drop.
#[must_use = "dropping immediately records a ~0ns scope"]
pub struct ProfileSpan(Option<Timed>);

/// The one scope in `TIMING_STRIDE` whose duration is measured.
struct Timed {
    /// Read just before `started`: their distance is what one clock
    /// read costs.
    before: Instant,
    started: Instant,
    stat: Rc<Cell<ProfileStat>>,
}

impl Timed {
    #[cold]
    #[inline(never)]
    fn start(stat: &Rc<Cell<ProfileStat>>) -> Timed {
        let stat = Rc::clone(stat);
        // Two reads back to back: their distance is what one read
        // costs, and the scope's own interval will contain as much
        // again (the tail of `started`, the head of the closing read).
        // Nothing but the return follows the second.
        let before = Instant::now();
        let started = Instant::now();
        Timed {
            before,
            started,
            stat,
        }
    }

    #[cold]
    #[inline(never)]
    fn finish(&self, ended: Instant) {
        let clock_cost = self.started - self.before;
        let elapsed = (ended - self.started).saturating_sub(clock_cost);
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let mut s = self.stat.get();
        s.record_timed(ns);
        self.stat.set(s);
    }
}

impl Drop for ProfileSpan {
    #[inline]
    fn drop(&mut self) {
        // By reference: moving the state out would copy it on every scope.
        if let Some(timed) = &self.0 {
            // Read here, not in `finish`: fetching that function's cold
            // code would otherwise be timed as part of the scope, and
            // scaled by the stride.
            timed.finish(Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn stat_aggregates_count_total_min_max() {
        let mut s = ProfileStat::default();
        for ns in [30, 10, 20] {
            s.record(ns);
        }
        assert_eq!((s.count, s.timed), (3, 3));
        assert_eq!(s.total_ns(), 60, "exact when every scope was timed");
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        assert_eq!(s.mean_ns(), 20);
    }

    #[test]
    fn empty_stat_is_all_zero() {
        let s = ProfileStat::default();
        assert_eq!(s.mean_ns(), 0);
        assert_eq!(s.total_ns(), 0);
        assert_eq!(s.min_ns, 0);
    }

    #[test]
    fn total_is_the_timed_total_scaled_to_every_scope() {
        let s = ProfileStat {
            count: 640,
            timed: 10,
            timed_ns: 1_000,
            min_ns: 50,
            max_ns: 150,
        };
        assert_eq!(s.total_ns(), 64_000);
        assert_eq!(s.mean_ns(), 100);
        // Counted but never timed: nothing to scale.
        let untimed = ProfileStat {
            count: 9,
            ..ProfileStat::default()
        };
        assert_eq!(untimed.total_ns(), 0);
    }

    #[test]
    fn every_scope_is_counted_and_one_in_stride_is_timed() {
        let t = Telemetry::enabled();
        let p = t.profiler("site");
        for _ in 0..1_000 {
            let _span = p.time();
        }
        let stat = p.stat();
        assert_eq!(stat.count, 1_000);
        assert_eq!(stat.timed, 16, "scopes 0, 64, ..., 960");
        // The estimate scales the timed total up to every scope.
        assert!(stat.total_ns() >= stat.timed_ns);
        assert!(stat.min_ns <= stat.mean_ns() && stat.mean_ns() <= stat.max_ns);
    }

    #[test]
    fn only_the_timed_scope_holds_clock_state() {
        let p = Telemetry::enabled().profiler("site");
        assert!(p.time().0.is_some(), "scope 0 is timed");
        assert!(p.time().0.is_none(), "scope 1 is counted only");
        // `None` is a niche of the clock state: no tag word beside it.
        assert_eq!(size_of::<ProfileSpan>(), size_of::<Timed>());
    }

    #[test]
    fn disabled_handle_never_reads_the_clock() {
        let p = Telemetry::disabled().profiler("site");
        for _ in 0..130 {
            assert!(p.time().0.is_none(), "a disabled scope took a timestamp");
        }
        p.record_ns(5);
        assert_eq!(p.stat(), ProfileStat::default());
    }

    #[test]
    fn scope_guard_records_on_drop() {
        let t = Telemetry::enabled();
        let p = t.profiler("unit_test_site");
        {
            let _span = p.time();
            std::hint::black_box(42);
        }
        p.record_ns(1_000);
        let stat = p.stat();
        assert_eq!((stat.count, stat.timed), (2, 2));
        assert!(stat.total_ns() >= 1_000);
    }

    #[test]
    fn refetching_shares_the_aggregate() {
        let t = Telemetry::enabled();
        t.profiler("site").record_ns(7);
        t.profiler("site").record_ns(3);
        assert_eq!(t.profiler("site").stat().count, 2);
    }
}
