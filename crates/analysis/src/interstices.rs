//! Interstice (gap) structure of a free-capacity profile.
//!
//! The paper's §1 intuition — "it is easy to see why large and/or long jobs
//! cannot fit in the interstices of the utilization" — becomes measurable
//! here: given a free-capacity [`StepFunction`], compute how much
//! CPU·time is harvestable by a job of a given width and length, and the
//! marginal distribution of gap widths over time.

use simkit::series::StepFunction;
use simkit::time::{SimDuration, SimTime};

/// How much of the profile's total free CPU·time a `(cpus, dur)` job shape
/// can actually harvest: at every instant the usable capacity is
/// `floor(free/cpus) × cpus`, further restricted to runs of at least `dur`
/// contiguous seconds. Returns `(harvestable, total_free)` CPU·seconds.
///
/// This is the exact "breakage in space × breakage in time" integral the
/// §4.2 approximations estimate in expectation.
///
/// Lane `k` (the `k`-th job width stacked from zero free CPUs) is open
/// wherever `free >= k × cpus`; each maximal open run of at least `dur`
/// seconds is harvestable in full. Rather than walk the profile once per
/// lane — up to the free CPU count, 4662 on Blue Mountain — one sweep keeps
/// a stack of `(run start, lane level)` entries with strictly increasing
/// levels: entry `i` holds the lanes above entry `i − 1`'s level, all open
/// since its start. A segment at level `q` closes every lane above `q`,
/// crediting each popped entry's lanes `(max(q, level below), level]` with
/// its run's span, and opens lanes up to `q` at the start of the deepest
/// closed run (those lanes never closed) or at the segment start. The
/// horizon closes everything. Every lane-run is credited exactly once, in
/// O(segments) time. Sums are exact integers (`SimTime` is whole seconds),
/// converted to `f64` once.
pub fn harvestable_cpu_seconds(profile: &StepFunction, cpus: u32, dur: SimDuration) -> (f64, f64) {
    harvestable_cpu_seconds_from(profile, SimTime::ZERO, cpus, dur)
}

/// [`harvestable_cpu_seconds`] over the window `[from, horizon)` only: a
/// lane open at `from` starts its run there, and free time before `from`
/// counts toward neither sum.
pub fn harvestable_cpu_seconds_from(
    profile: &StepFunction,
    from: SimTime,
    cpus: u32,
    dur: SimDuration,
) -> (f64, f64) {
    let width = i64::from(cpus);
    let mut total = 0u128;
    let mut lanes = 0u128;
    let mut stack: Vec<(SimTime, i64)> = Vec::new();
    let mut close = |stack: &mut Vec<(SimTime, i64)>, at: SimTime, q: i64| -> Option<SimTime> {
        let mut deepest_start = None;
        while let Some(&(start, level)) = stack.last() {
            if level <= q {
                break;
            }
            stack.pop();
            let below = stack.last().map_or(0, |&(_, l)| l).max(q);
            let span = at - start;
            if span >= dur {
                lanes += (level - below) as u128 * u128::from(span.as_secs());
            }
            deepest_start = Some(start);
        }
        deepest_start
    };
    for (a, b, v) in profile.iter_segments().filter(|&(_, b, _)| b > from) {
        let a = a.max(from);
        total += v.max(0) as u128 * u128::from((b - a).as_secs());
        // Zero-width jobs open no lane.
        let q = v.max(0).checked_div(width).unwrap_or(0);
        let start = close(&mut stack, a, q).unwrap_or(a);
        if q > stack.last().map_or(0, |&(_, l)| l) {
            stack.push((start, q));
        }
    }
    close(&mut stack, profile.horizon(), 0);
    ((lanes * u128::from(cpus)) as f64, total as f64)
}

/// Fraction of the free capacity harvestable by a `(cpus, dur)` shape.
pub fn harvestable_fraction(profile: &StepFunction, cpus: u32, dur: SimDuration) -> f64 {
    let (h, t) = harvestable_cpu_seconds(profile, cpus, dur);
    if t == 0.0 {
        0.0
    } else {
        h / t
    }
}

/// Time-weighted distribution of free-CPU counts: how many seconds the
/// profile spends with free capacity in each of the given bucket upper
/// bounds (ascending; values above the last bound land in an implicit
/// overflow bucket). Returns seconds per bucket (len = bounds.len() + 1).
pub fn free_capacity_histogram(profile: &StepFunction, bounds: &[u32]) -> Vec<f64> {
    debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    let mut out = vec![0.0; bounds.len() + 1];
    for (a, b, v) in profile.iter_segments() {
        let free = v.max(0) as u32;
        let idx = bounds.partition_point(|&bound| bound < free);
        out[idx] += (b - a).as_secs_f64();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn flat_profile_is_fully_harvestable_by_divisor_widths() {
        let f = StepFunction::constant(t(1_000), 90);
        // 1-CPU jobs of any length ≤ 1000 s: everything.
        let (h, total) = harvestable_cpu_seconds(&f, 1, d(100));
        assert_eq!(total, 90_000.0);
        assert_eq!(h, 90_000.0);
        // 30-CPU jobs: 3 lanes fit exactly → still everything.
        assert_eq!(harvestable_fraction(&f, 30, d(100)), 1.0);
    }

    #[test]
    fn space_breakage_shows_up() {
        let f = StepFunction::constant(t(1_000), 90);
        // 32-CPU jobs: 2 lanes = 64 of 90 CPUs usable → 64/90.
        let frac = harvestable_fraction(&f, 32, d(10));
        assert!((frac - 64.0 / 90.0).abs() < 1e-9);
        // 100-CPU jobs: none.
        assert_eq!(harvestable_fraction(&f, 100, d(10)), 0.0);
    }

    #[test]
    fn time_breakage_shows_up() {
        // 10 CPUs free except a dip to 0 in the middle: two 400 s windows.
        let mut f = StepFunction::constant(t(1_000), 10);
        f.range_add(t(400), t(600), -10);
        // Jobs of 400 s fit both windows: 2 × 400 × 10 = 8000 of 8000.
        assert_eq!(harvestable_fraction(&f, 10, d(400)), 1.0);
        // Jobs of 401 s fit neither.
        assert_eq!(harvestable_fraction(&f, 10, d(401)), 0.0);
        // 1-CPU jobs of 401 s: same verdict (time breakage is width-blind
        // here since the dip hits every lane).
        assert_eq!(harvestable_fraction(&f, 1, d(401)), 0.0);
    }

    #[test]
    fn lane_accounting_at_varying_capacity() {
        // Capacity 20 on [0,500), 35 on [500,1000). 10-CPU jobs, 100 s.
        let mut f = StepFunction::constant(t(1_000), 20);
        f.range_add(t(500), t(1_000), 15);
        let (h, total) = harvestable_cpu_seconds(&f, 10, d(100));
        assert_eq!(total, 20.0 * 500.0 + 35.0 * 500.0);
        // Lanes 1,2 run the whole 1000 s; lane 3 runs 500 s (500..1000).
        let want = 10.0 * 1_000.0 * 2.0 + 10.0 * 500.0;
        assert_eq!(h, want);
    }

    #[test]
    fn short_runs_are_dropped_per_lane() {
        // Lane 3 exists only for 50 s — too short for a 100 s job; lanes
        // 1–2 run throughout.
        let mut f = StepFunction::constant(t(1_000), 20);
        f.range_add(t(100), t(150), 15); // 35 free on [100,150)
        let (h, _) = harvestable_cpu_seconds(&f, 10, d(100));
        assert_eq!(h, 10.0 * 1_000.0 * 2.0);
    }

    #[test]
    fn histogram_buckets_time_by_free_cpus() {
        let mut f = StepFunction::constant(t(1_000), 5);
        f.range_add(t(0), t(300), 95); // 100 free on [0,300)
        f.range_add(t(300), t(600), 27); // 32 free on [300,600)
                                         // Buckets: ≤10, ≤50, >50.
        let h = free_capacity_histogram(&f, &[10, 50]);
        assert_eq!(h.len(), 3);
        assert_eq!(h[0], 400.0, "5 free on [600,1000)");
        assert_eq!(h[1], 300.0, "32 free on [300,600)");
        assert_eq!(h[2], 300.0, "100 free on [0,300)");
    }

    #[test]
    fn negative_segments_count_as_zero_free() {
        let mut f = StepFunction::constant(t(100), 5);
        f.range_add(t(0), t(50), -10); // -5 on [0,50)
        let (h, total) = harvestable_cpu_seconds(&f, 1, d(10));
        assert_eq!(total, 5.0 * 50.0);
        assert_eq!(h, 250.0);
        let hist = free_capacity_histogram(&f, &[0]);
        assert_eq!(hist[0], 50.0, "zero-free time");
    }
}
