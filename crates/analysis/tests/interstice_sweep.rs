//! Differential suite: the one-pass monotone-stack sweep in
//! `analysis::interstices::harvestable_cpu_seconds` against the lane-loop
//! definition it replaced, which lives on here as the oracle.
//!
//! Every case must agree *bit for bit*: both sides sum whole-second
//! CPU·time products, so any difference is a miscredited lane-run, not
//! rounding. Profiles are built with `range_add` and never coalesced, so
//! adjacent segments with equal values — the case a stack sweep is most
//! likely to split or double-count — show up constantly.

use analysis::interstices::{harvestable_cpu_seconds, harvestable_cpu_seconds_from};
use simkit::rng::Rng;
use simkit::series::StepFunction;
use simkit::time::{SimDuration, SimTime};

/// The lane loop: for each lane `k`, walk every segment and credit each
/// maximal run with `free >= k × cpus` that lasts at least `dur`.
/// O(lanes × segments); kept only as the reference definition.
fn lane_loop(profile: &StepFunction, cpus: u32, dur: SimDuration) -> (f64, f64) {
    let total: f64 = profile
        .iter_segments()
        .map(|(a, b, v)| v.max(0) as f64 * (b - a).as_secs_f64())
        .sum();
    if cpus == 0 {
        return (0.0, total);
    }
    let width = i64::from(cpus);
    let mut harvest = 0.0;
    let max_lanes = profile
        .iter_segments()
        .map(|(_, _, v)| v.max(0) / width)
        .max()
        .unwrap_or(0);
    for lane in 1..=max_lanes {
        let need = width * lane;
        let mut run_start: Option<SimTime> = None;
        let mut prev_end = SimTime::ZERO;
        for (a, b, v) in profile.iter_segments() {
            if v >= need {
                if run_start.is_none() {
                    run_start = Some(a);
                }
                prev_end = b;
            } else if let Some(s) = run_start.take() {
                let span = prev_end - s;
                if span >= dur {
                    harvest += width as f64 * span.as_secs_f64();
                }
            }
        }
        if let Some(s) = run_start {
            let span = prev_end - s;
            if span >= dur {
                harvest += width as f64 * span.as_secs_f64();
            }
        }
    }
    (harvest, total)
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn d(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// A profile with the given value on each consecutive `len`-second step.
fn steps(len: u64, values: &[i64]) -> StepFunction {
    let mut f = StepFunction::constant(t(len * values.len() as u64), 0);
    for (i, &v) in values.iter().enumerate() {
        let a = len * i as u64;
        f.range_add(t(a), t(a + len), v);
    }
    f
}

/// A random uncoalesced profile: a base level plus overlapping range
/// updates of either sign, so values dip below zero and equal neighbours
/// stay split.
fn random_profile(rng: &mut Rng) -> StepFunction {
    let horizon = rng.range_u64(1, 5_000);
    let base = rng.range_u64(0, 40) as i64 - 10;
    let mut f = StepFunction::constant(t(horizon), base);
    for _ in 0..rng.below(24) {
        let a = rng.below(horizon);
        let b = rng.range_u64(a, horizon);
        let delta = rng.range_u64(0, 30) as i64 - 15;
        f.range_add(t(a), t(b), delta);
    }
    f
}

/// `f` restricted to `[from, horizon)` and shifted to start at 0.
fn window(f: &StepFunction, from: u64) -> StepFunction {
    let mut w = StepFunction::constant(t(f.horizon().as_secs() - from), 0);
    for (a, b, v) in f.iter_segments().filter(|&(_, b, _)| b.as_secs() > from) {
        let a = a.as_secs().max(from);
        w.range_add(t(a - from), t(b.as_secs() - from), v);
    }
    w
}

fn assert_same(f: &StepFunction, cpus: u32, dur: SimDuration, ctx: &str) {
    let got = harvestable_cpu_seconds(f, cpus, dur);
    let want = lane_loop(f, cpus, dur);
    assert!(
        got.0.to_bits() == want.0.to_bits() && got.1.to_bits() == want.1.to_bits(),
        "{ctx}: sweep {got:?} != lane loop {want:?} for cpus={cpus} dur={dur:?} on {:?}",
        f.iter_segments().collect::<Vec<_>>()
    );
}

#[test]
fn sweep_matches_the_lane_loop_on_random_profiles() {
    let mut rng = Rng::new(0x1257_5EED);
    for case in 0..2_000u64 {
        let f = random_profile(&mut rng);
        let horizon = f.horizon().as_secs();
        let max_free = f.iter_segments().map(|(_, _, v)| v).max().unwrap_or(0);
        let above_max = u32::try_from(max_free.max(0)).unwrap_or(u32::MAX) + 1;
        let widths = [0, 1, 3, 32, above_max, rng.range_u64(1, 50) as u32];
        let durs = [
            d(0),
            d(1),
            d(rng.below(horizon + 1)),
            d(horizon),
            d(horizon + 1),
        ];
        for &cpus in &widths {
            for &dur in &durs {
                assert_same(&f, cpus, dur, &format!("case {case}"));
            }
        }
        // The windowed sweep equals the lane loop on the cut profile.
        let from = rng.below(horizon);
        let cut = window(&f, from);
        for &cpus in &widths {
            let dur = durs[2];
            let got = harvestable_cpu_seconds_from(&f, t(from), cpus, dur);
            let want = lane_loop(&cut, cpus, dur);
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (want.0.to_bits(), want.1.to_bits()),
                "case {case}: window from {from}, cpus={cpus} dur={dur:?}: {got:?} != {want:?}"
            );
        }
    }
}

#[test]
fn equal_uncoalesced_neighbours_are_one_run() {
    // Three separately stored 100 s segments at 20 free: one 300 s run
    // per lane, so a 250 s job fits even though no single segment is
    // long enough.
    let mut f = StepFunction::constant(t(300), 20);
    f.range_add(t(100), t(200), 5);
    f.range_add(t(100), t(200), -5);
    assert_eq!(f.segment_count(), 3, "neighbours stay uncoalesced");
    assert_eq!(harvestable_cpu_seconds(&f, 10, d(250)), (6_000.0, 6_000.0));
    assert_same(&f, 10, d(250), "uncoalesced");
}

#[test]
fn negative_free_closes_every_lane() {
    // 12 free, −4 (over-subtracted) in the middle, 12 again: the dip
    // counts as zero free and splits both 6-CPU lanes.
    let f = steps(100, &[12, -4, 12]);
    assert_eq!(harvestable_cpu_seconds(&f, 6, d(100)), (2_400.0, 2_400.0));
    assert_eq!(harvestable_cpu_seconds(&f, 6, d(101)), (0.0, 2_400.0));
    assert_same(&f, 6, d(100), "negative");
}

#[test]
fn w_shaped_plateaus_credit_each_lane_run_once() {
    // Levels (10-CPU lanes) 4,1,2,1,4 over 100 s steps. Lane 1 runs the
    // whole 500 s; lane 2 runs [0,100), [200,300), [400,500); lanes 3–4
    // run [0,100) and [400,500).
    let f = steps(100, &[40, 10, 20, 10, 40]);
    let total = 12_000.0;
    // dur 100: lane 1 500 s + lane 2 3×100 s + lanes 3–4 2×2×100 s,
    // each × 10 CPUs = 5000 + 3000 + 4000.
    assert_eq!(harvestable_cpu_seconds(&f, 10, d(100)), (12_000.0, total));
    // dur 101: only lane 1's 500 s run survives.
    assert_eq!(harvestable_cpu_seconds(&f, 10, d(101)), (5_000.0, total));
    // dur 501: nothing.
    assert_eq!(harvestable_cpu_seconds(&f, 10, d(501)), (0.0, total));
    for dur in [0, 100, 101, 300, 500, 501] {
        assert_same(&f, 10, d(dur), "W");
    }
}

#[test]
fn m_shaped_plateaus_credit_the_valley_floor_across_the_dip() {
    // Levels 0,3,2,3,0: lanes 1–2 run [100,400) straight through the dip;
    // lane 3 runs [100,200) and [300,400) separately.
    let f = steps(100, &[0, 30, 20, 30, 0]);
    let total = 8_000.0;
    // dur 150: lanes 1–2 × 300 s × 10 CPUs; lane 3's 100 s runs drop.
    assert_eq!(harvestable_cpu_seconds(&f, 10, d(150)), (6_000.0, total));
    // dur 100: lane 3's two runs count too, +2 × 100 s × 10 CPUs.
    assert_eq!(harvestable_cpu_seconds(&f, 10, d(100)), (8_000.0, total));
    // dur 301: nothing.
    assert_eq!(harvestable_cpu_seconds(&f, 10, d(301)), (0.0, total));
    // 1-CPU lanes: 30 lanes; lanes 1–20 run 300 s, 21–30 run 2×100 s.
    // dur 200 keeps only the first 20: 20 × 300 = 6000.
    assert_eq!(harvestable_cpu_seconds(&f, 1, d(200)), (6_000.0, total));
    for (cpus, dur) in [(10, 0), (10, 100), (10, 150), (3, 100), (1, 200), (7, 301)] {
        assert_same(&f, cpus, d(dur), "M");
    }
}

#[test]
fn pyramid_nests_every_level() {
    // Levels 1,2,3,2,1 in 1-CPU lanes over 10 s steps: lane k runs
    // (50 − 20(k−1)) s, so dur 30 keeps lanes 1–2: 50 + 30 = 80.
    let f = steps(10, &[1, 2, 3, 2, 1]);
    assert_eq!(harvestable_cpu_seconds(&f, 1, d(30)), (80.0, 90.0));
    assert_eq!(harvestable_cpu_seconds(&f, 1, d(10)), (90.0, 90.0));
    assert_same(&f, 1, d(30), "pyramid");
}

#[test]
fn degenerate_widths_and_lengths() {
    let f = steps(100, &[5, 9, 0, 7]);
    let total = 2_100.0;
    // Zero-width jobs harvest nothing; the total still reports.
    assert_eq!(harvestable_cpu_seconds(&f, 0, d(10)), (0.0, total));
    // Wider than any free count: no lane ever opens.
    assert_eq!(harvestable_cpu_seconds(&f, 10, d(0)), (0.0, total));
    // Longer than the horizon: no run is long enough.
    assert_eq!(harvestable_cpu_seconds(&f, 1, d(401)), (0.0, total));
    // dur 0 with 1-CPU lanes: everything.
    assert_eq!(harvestable_cpu_seconds(&f, 1, d(0)), (total, total));
}

#[test]
fn a_window_cuts_runs_at_its_start() {
    // Levels 5,9,0,7 over 100 s steps, windowed from t=150: 5 free never
    // counts, 9 free lasts 50 s, then 0, then 7 for 100 s.
    let f = steps(100, &[5, 9, 0, 7]);
    let total = 9.0 * 50.0 + 7.0 * 100.0;
    assert_eq!(
        harvestable_cpu_seconds_from(&f, t(150), 1, d(60)),
        (700.0, total),
        "the 9-free run shrank to 50 s, below a 60 s job"
    );
    assert_eq!(
        harvestable_cpu_seconds_from(&f, t(150), 1, d(50)),
        (total, total)
    );
    assert_eq!(
        harvestable_cpu_seconds_from(&f, SimTime::ZERO, 3, d(60)),
        harvestable_cpu_seconds(&f, 3, d(60))
    );
}
