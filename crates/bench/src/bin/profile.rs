//! `profile` — per-run phase breakdown for each machine preset.
//!
//! Replays every calibrated native log with the observability bundle's
//! metrics and phase profiler attached, then prints where the simulator's
//! wall-clock goes (schedule-cycle ⊃ order-queue, free-profile, backfill;
//! event-pump) as inclusive and self shares of the measured run wall,
//! alongside the run's headline counters, plus the raw `RunReport` JSON for
//! machine consumption. Finishes with a tracing-overhead A/B: the same
//! truncated replay with observability off, fully on, and on with the
//! telemetry bus sampling at the default cadence, interleaved over
//! [`AB_REPS`] rounds and reduced to median ± MAD. It asserts that the bus
//! costs at most [`MAX_BUS_US_PER_TICK`] per tick and that telemetry
//! perturbs neither the schedule nor the work counters, so regressions in
//! the "cheap enough to leave on" claim show up here first.
//!
//! Wall-clock reads are fine in this crate (simlint R2 exempts `bench`).

use bench::lab::TRACE_SEED;
use bench::perf::{mad, median, per_sec_milli};
use interstitial::prelude::*;
use machine::config::{blue_mountain, blue_pacific, ross};
use obs::Obs;
use std::time::{Duration, Instant};
use workload::traces::native_trace;

/// Default native-log prefix for the overhead A/B check (full logs would
/// make the comparison needlessly slow without changing the verdict).
/// Override with `PROFILE_OVERHEAD_JOBS` (0 = full log).
const DEFAULT_OVERHEAD_JOBS: usize = 2_000;

/// Interleaved rounds of the overhead A/B (each round times all three
/// configurations once).
const AB_REPS: usize = 5;

/// Ceiling on the telemetry bus's wall cost per sampled tick: the median
/// replay with telemetry minus the median with observability on, over
/// the ticks sampled. Per tick rather than a ratio because a 2000-job
/// prefix samples thousands of ticks in a 10–40 ms replay, so even a few
/// µs per tick reads as a large ratio.
const MAX_BUS_US_PER_TICK: f64 = 20.0;

fn overhead_jobs() -> usize {
    std::env::var("PROFILE_OVERHEAD_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_OVERHEAD_JOBS)
}

fn observed_replay(cfg: &machine::MachineConfig) -> (SimOutput, Duration) {
    let natives = native_trace(cfg, TRACE_SEED);
    let t = Instant::now();
    let out = SimBuilder::new(cfg.clone())
        .natives(natives)
        .observer(Obs::with(false, true, true))
        .build()
        .run();
    (out, t.elapsed())
}

fn print_breakdown(cfg: &machine::MachineConfig, out: &SimOutput, wall: Duration) {
    let report = out.obs.run_report();
    println!("## {} ({} CPUs)", cfg.name, cfg.cpus);
    let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    let inclusive: Vec<(&str, u64)> = report
        .profile
        .phases
        .iter()
        .map(|(&name, stat)| (name, stat.total_ns))
        .collect();
    let selfs = obs::profile::self_ns(&inclusive);
    let share = |ns: u64| ns as f64 / wall_ns.max(1) as f64 * 100.0;
    println!(
        "{:<16} {:>10} {:>10} {:>7} {:>10} {:>7}   (shares of {:.1} ms run wall)",
        "phase",
        "calls",
        "incl ms",
        "incl",
        "self ms",
        "self",
        wall_ns as f64 / 1e6,
    );
    for ((name, stat), &self_ns) in report.profile.phases.iter().zip(&selfs) {
        println!(
            "{:<16} {:>10} {:>10.2} {:>6.1}% {:>10.2} {:>6.1}%",
            name,
            stat.calls,
            stat.total_ns as f64 / 1e6,
            share(stat.total_ns),
            self_ns as f64 / 1e6,
            share(self_ns),
        );
    }
    // Everything no span covers (building the simulator, telemetry ticks,
    // the loop's own bookkeeping), so the self column sums to 100%.
    let outside = wall_ns.saturating_sub(selfs.iter().sum());
    println!(
        "{:<16} {:>10} {:>10} {:>7} {:>10.2} {:>6.1}%",
        "(outside spans)",
        "",
        "",
        "",
        outside as f64 / 1e6,
        share(outside),
    );
    for key in [
        "sched.cycles",
        "jobs.finished.native",
        "jobs.started.backfill",
    ] {
        println!("{key:<28} {}", out.obs.metrics.counter(key));
    }
    let jobs = out.native_completed() + out.interstitial_completed();
    let wall_us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
    println!(
        "{:<28} {:.1} ({} jobs in {:.1} ms; {:.0} events/s)",
        "throughput jobs/s",
        per_sec_milli(jobs, wall_us) as f64 / 1e3,
        jobs,
        wall_us as f64 / 1e3,
        per_sec_milli(out.obs.work.events_popped, wall_us) as f64 / 1e3,
    );
    if obs::alloc::counting_enabled() {
        println!(
            "{:<28} peak {:.1} KiB live, {} allocs / {:.1} MiB total",
            "heap (alloc-count)",
            out.obs.mem.peak_live_bytes as f64 / 1024.0,
            out.obs.mem.allocations,
            out.obs.mem.bytes_allocated as f64 / (1024.0 * 1024.0),
        );
    }
    println!("{}", report.to_json());
    println!();
}

/// Median ± MAD of wall times in µs, as `(median, mad)` milliseconds.
fn median_mad_ms(walls_us: &mut [u64]) -> (f64, f64) {
    walls_us.sort_unstable();
    let mid = median(walls_us);
    (mid as f64 / 1e3, mad(walls_us, mid) as f64 / 1e3)
}

fn overhead_check(cfg: &machine::MachineConfig, jobs: usize) {
    let mut natives = native_trace(cfg, TRACE_SEED);
    if jobs > 0 {
        natives.truncate(jobs);
    }
    let time = |observer: Obs| {
        let jobs = natives.clone();
        let t = Instant::now();
        let out = SimBuilder::new(cfg.clone())
            .natives(jobs)
            .observer(observer)
            .build()
            .run();
        let elapsed = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
        (elapsed, out)
    };
    let with_telemetry = || {
        let mut o = Obs::enabled();
        o.telemetry = obs::TelemetryBus::enabled(
            obs::telemetry::DEFAULT_CADENCE_S,
            obs::telemetry::DRIVER_SIGNALS,
        );
        o
    };
    // Warm-up, then interleaved rounds so host drift hits every
    // configuration alike.
    let _ = time(Obs::disabled());
    let (mut off, mut on, mut tele) = (Vec::new(), Vec::new(), Vec::new());
    let mut outs = None;
    for _ in 0..AB_REPS {
        let (w_off, out_off) = time(Obs::disabled());
        let (w_on, out_on) = time(Obs::enabled());
        let (w_tele, out_tele) = time(with_telemetry());
        off.push(w_off);
        on.push(w_on);
        tele.push(w_tele);
        outs = Some((out_off, out_on, out_tele));
    }
    let (out_off, out_on, out_tele) = outs.expect("at least one A/B round");
    assert_eq!(
        out_off.native_completed(),
        out_on.native_completed(),
        "observability must not change the schedule"
    );
    // The telemetry bus only reads: the sampled replay must agree with the
    // plain observed one down to the work counters.
    assert_eq!(
        out_on.native_completed(),
        out_tele.native_completed(),
        "telemetry sampling must not change the schedule"
    );
    assert_eq!(
        out_on.obs.work, out_tele.obs.work,
        "telemetry sampling must not perturb the work counters"
    );
    let ticks = out_tele.obs.telemetry.ticks_sampled();
    assert!(ticks > 0, "the telemetry bus recorded no ticks");
    let (off_ms, off_mad) = median_mad_ms(&mut off);
    let (on_ms, on_mad) = median_mad_ms(&mut on);
    let (tele_ms, tele_mad) = median_mad_ms(&mut tele);
    let bus_us_per_tick = (tele_ms - on_ms) * 1e3 / ticks as f64;
    println!(
        "overhead[{}]: disabled {off_ms:.1} ± {off_mad:.1} ms, \
         enabled {on_ms:.1} ± {on_mad:.1} ms (x{:.3}), \
         +telemetry {tele_ms:.1} ± {tele_mad:.1} ms (x{:.3} over enabled, {ticks} ticks, \
         bus {bus_us_per_tick:.1} µs/tick; median ± MAD of {AB_REPS})",
        cfg.name,
        on_ms / off_ms.max(1e-9),
        tele_ms / on_ms.max(1e-9),
    );
    assert!(
        bus_us_per_tick <= MAX_BUS_US_PER_TICK,
        "{}: the telemetry bus costs {bus_us_per_tick:.1} µs per tick \
         (ceiling {MAX_BUS_US_PER_TICK} µs)",
        cfg.name,
    );
}

fn main() {
    println!("# per-run phase profile (seed {TRACE_SEED})");
    for cfg in [ross(), blue_mountain(), blue_pacific()] {
        let (out, wall) = observed_replay(&cfg);
        print_breakdown(&cfg, &out, wall);
    }
    let jobs = overhead_jobs();
    if jobs > 0 {
        println!("# tracing overhead A/B ({jobs}-job prefix)");
    } else {
        println!("# tracing overhead A/B (full logs)");
    }
    for cfg in [ross(), blue_mountain(), blue_pacific()] {
        overhead_check(&cfg, jobs);
    }
}
