//! The traced run: per-layer metrics.
//!
//! Each iteration sets up once (spans around every layer call), then
//! replays the same inputs with the program's phase profiler off and on,
//! alternating which goes first. Counts come from the untraced replay's
//! work counters and must repeat exactly; times come from the benchmark's
//! spans and, under `core.run`, from the profiler's phase totals with self
//! time derived from their known nesting:
//!
//! ```text
//! core.run ⊃ event-pump
//!          ⊃ schedule-cycle ⊃ order-queue, free-profile, backfill
//! ```
//!
//! On the observed workload a third replay with the telemetry bus off
//! gives `obs.telemetry_s` as the median paired difference, and the
//! untraced replay's trace and telemetry are exported and read back.
//! `trace_overhead` is the ratio of the traced to the untraced median.

use crate::check::Digest;
use crate::spans::{Open, Spans};
use crate::stats::{median, ratio};
use crate::workloads::{self, Instruments, Workload};
use crate::{closed_loop, report_outcome, Args, Measured, Metric};
use interstitial::SimOutput;
use obs::WorkCounters;
use simkit::time::SimDuration;
use std::hint::black_box;

/// One traced iteration's measurements.
#[derive(Clone, Debug, Default)]
struct Layers {
    generate_s: f64,
    swf_emit_s: f64,
    swf_parse_s: f64,
    fault_synth_s: f64,
    build_s: f64,
    swf_bytes: u64,
    jobs: u64,
    untraced_s: f64,
    traced_s: f64,
    bus_off_s: Option<f64>,
    pump_s: f64,
    cycle_self_s: f64,
    run_self_s: f64,
    order_s: f64,
    order_calls: u64,
    free_profile_s: f64,
    backfill_s: f64,
    work: WorkCounters,
    interstitial_started: u64,
    ij_goodput: f64,
    readback: workloads::ReadBack,
    harvest_s: f64,
}

/// Useful ÷ (useful + wasted) interstitial CPU·s.
fn ij_goodput(out: &SimOutput) -> f64 {
    let useful: f64 = out
        .interstitials()
        .map(|c| f64::from(c.job.cpus) * c.job.runtime.as_secs_f64())
        .sum();
    let wasted = out.wasted_cpu_seconds + out.faults.interstitial_wasted_cpu_seconds;
    ratio(useful, useful + wasted)
}

/// Record the profiler's phase totals under the `core.run` span and fill
/// in the self times. Errors when nested phases exceed their parent.
fn attribute(
    out: &SimOutput,
    wall_s: f64,
    run: &Open,
    spans: &mut Spans,
    l: &mut Layers,
) -> Result<(), String> {
    let snap = out.obs.profiler.snapshot();
    let phase = |name| snap.phases.get(name).copied().unwrap_or_default();
    let (pump, cycle) = (phase("event-pump"), phase("schedule-cycle"));
    let (order, profile, backfill) = (
        phase("order-queue"),
        phase("free-profile"),
        phase("backfill"),
    );
    let nested = order.total_ns + profile.total_ns + backfill.total_ns;
    let wall_ns = (wall_s * 1e9) as u64;
    let (Some(cycle_self), Some(run_self)) = (
        cycle.total_ns.checked_sub(nested),
        wall_ns.checked_sub(pump.total_ns + cycle.total_ns),
    ) else {
        return Err(format!(
            "self times exceed the replay wall: pump {} + cycle {} (nested {}) of {} ns",
            pump.total_ns, cycle.total_ns, nested, wall_ns
        ));
    };
    let id = run.id();
    spans.aggregate(id, "event-pump", pump.total_ns, pump.total_ns, pump.calls);
    spans.aggregate(
        id,
        "schedule-cycle",
        cycle.total_ns,
        cycle_self,
        cycle.calls,
    );
    for (name, p) in [
        ("order-queue", order),
        ("free-profile", profile),
        ("backfill", backfill),
    ] {
        spans.aggregate(id, name, p.total_ns, p.total_ns, p.calls);
    }
    l.pump_s = pump.total_ns as f64 / 1e9;
    l.cycle_self_s = cycle_self as f64 / 1e9;
    l.run_self_s = run_self as f64 / 1e9;
    l.order_s = order.total_ns as f64 / 1e9;
    l.order_calls = order.calls;
    l.free_profile_s = profile.total_ns as f64 / 1e9;
    l.backfill_s = backfill.total_ns as f64 / 1e9;
    Ok(())
}

/// Which replay of an iteration runs.
#[derive(Clone, Copy)]
enum Side {
    Untraced,
    BusOff,
    Traced,
}

fn iteration(w: Workload, seed: u64, index: u64, spans: &mut Spans) -> Measured<Layers> {
    spans.next_replay();
    let root = spans.begin("replay", None);
    let (inputs, sim, _) = workloads::set_up(w, seed, spans, &root);
    let mut untraced = Some(sim);

    let mut l = Layers {
        generate_s: spans.seconds("workload.generate"),
        swf_emit_s: spans.seconds("workload.swf_emit"),
        swf_parse_s: spans.seconds("workload.swf_parse"),
        fault_synth_s: spans.seconds("machine.fault_synth"),
        build_s: spans.seconds("core.build"),
        swf_bytes: inputs.swf_bytes,
        jobs: inputs.natives().len() as u64,
        ..Layers::default()
    };
    let mut sides = vec![Side::Untraced, Side::BusOff, Side::Traced];
    if !w.observed() {
        sides.retain(|s| !matches!(s, Side::BusOff));
    }
    if index % 2 == 1 {
        sides.reverse();
    }
    let mut natives = Ok(());
    let mut digests = Vec::new();
    let mut counters = Vec::new();
    for side in sides {
        match side {
            Side::Untraced => {
                let sim = untraced.take().expect("built above");
                let c = workloads::run_checked(w, sim, &inputs, spans, &root, "core.run.untraced")?;
                let out = c.out;
                natives = c.natives;
                l.untraced_s = c.replay_s;
                l.work = out.obs.work;
                l.interstitial_started = out.interstitial_started;
                l.ij_goodput = ij_goodput(&out);
                if let Some(rb) = c.readback {
                    l.readback = rb;
                    let profile = out.native_free_profile(1);
                    let s = spans.begin("analysis.harvest", Some(&root));
                    black_box(analysis::interstices::harvestable_cpu_seconds(
                        &profile,
                        1,
                        SimDuration::from_hours(1),
                    ));
                    l.harvest_s = spans.end(s).as_secs_f64();
                }
                digests.push(Digest::of(&out));
                counters.push(out.obs.work);
            }
            Side::BusOff => {
                let ins = Instruments {
                    profiler: false,
                    telemetry: false,
                };
                let sim = workloads::builder(w, &inputs, ins).build();
                let run = spans.begin("core.run.bus_off", Some(&root));
                let out = sim.run();
                l.bus_off_s = Some(spans.end(run).as_secs_f64());
                digests.push(Digest::of(&out));
            }
            Side::Traced => {
                let ins = Instruments {
                    profiler: true,
                    ..Instruments::PLAIN
                };
                let sim = workloads::builder(w, &inputs, ins).build();
                let run = spans.begin("core.run", Some(&root));
                let out = sim.run();
                l.traced_s = spans.end(run).as_secs_f64();
                attribute(&out, l.traced_s, &run, spans, &mut l)?;
                digests.push(Digest::of(&out));
                counters.push(out.obs.work);
            }
        }
    }
    spans.end(root);
    let verdict = natives.and_then(|()| {
        if digests.windows(2).any(|d| d[0] != d[1]) {
            Err("instruments changed the simulated schedule".to_string())
        } else if counters[0] != counters[1] {
            Err("the profiler changed the work counters".to_string())
        } else {
            Ok(digests[0])
        }
    });
    Ok((l, verdict))
}

/// Run the traced loop and return the per-layer metrics.
pub fn run(args: &Args, expected: Option<String>) -> (bool, u64, u64, Vec<Metric>) {
    let w = args.workload;
    let mut spans = Spans::new(true);
    let outcome = closed_loop(args.seconds, expected, |i| {
        iteration(w, args.seed, i, &mut spans)
    });
    let samples = &outcome.samples;
    let med = |f: fn(&Layers) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let first = samples.first().cloned().unwrap_or_default();
    // Counts must repeat exactly across iterations.
    let counts_repeat = samples
        .iter()
        .all(|l| l.work == first.work && l.order_calls == first.order_calls);
    let wk = first.work;
    let untraced_s = med(|l| l.untraced_s);
    let traced_s = med(|l| l.traced_s);
    let telemetry_s = if w.observed() {
        med(|l| l.untraced_s - l.bus_off_s.unwrap_or(l.untraced_s))
    } else {
        0.0
    };
    let rb = &first.readback;
    let per_tick_us = ratio(telemetry_s * 1e6, rb.telemetry_ticks as f64);
    let yield_ = ratio(
        wk.backfill_starts as f64,
        wk.backfill_candidates_scanned as f64,
    );
    let metrics: Vec<Metric> = vec![
        ("workload.generate_s", med(|l| l.generate_s), "s"),
        ("workload.swf_emit_s", med(|l| l.swf_emit_s), "s"),
        ("workload.swf_parse_s", med(|l| l.swf_parse_s), "s"),
        ("workload.swf_bytes", first.swf_bytes as f64, "bytes"),
        ("workload.jobs", first.jobs as f64, "count"),
        ("machine.fault_synth_s", med(|l| l.fault_synth_s), "s"),
        ("core.build_s", med(|l| l.build_s), "s"),
        ("simkit.pump_self_s", med(|l| l.pump_s), "s"),
        ("simkit.events_popped", wk.events_popped as f64, "count"),
        (
            "simkit.events_scheduled",
            wk.events_scheduled as f64,
            "count",
        ),
        ("simkit.heap_peak_depth", wk.heap_peak_depth as f64, "count"),
        ("sched.order_s", med(|l| l.order_s), "s"),
        ("sched.order_calls", first.order_calls as f64, "count"),
        ("sched.backfill_s", med(|l| l.backfill_s), "s"),
        (
            "sched.backfill_candidates_scanned",
            wk.backfill_candidates_scanned as f64,
            "count",
        ),
        ("sched.backfill_starts", wk.backfill_starts as f64, "count"),
        ("sched.inorder_starts", wk.inorder_starts as f64, "count"),
        ("sched.backfill_yield", yield_, "ratio"),
        ("machine.free_profile_s", med(|l| l.free_profile_s), "s"),
        (
            "machine.profile_segments_walked",
            wk.profile_segments_walked as f64,
            "count",
        ),
        ("core.cycle_self_s", med(|l| l.cycle_self_s), "s"),
        ("core.run_self_s", med(|l| l.run_self_s), "s"),
        ("core.sched_cycles", wk.sched_cycles as f64, "count"),
        (
            "core.interstitial_started",
            first.interstitial_started as f64,
            "count",
        ),
        ("core.requeues", wk.requeues as f64, "count"),
        ("core.retries", wk.retries as f64, "count"),
        (
            "core.checkpoints_taken",
            wk.checkpoints_taken as f64,
            "count",
        ),
        ("core.cpu_s_salvaged", wk.cpu_s_salvaged as f64, "cpu_s"),
        ("core.cpu_s_reexecuted", wk.cpu_s_reexecuted as f64, "cpu_s"),
        ("core.ij_goodput", first.ij_goodput, "ratio"),
        ("obs.telemetry_ticks", rb.telemetry_ticks as f64, "count"),
        ("obs.telemetry_s", telemetry_s, "s"),
        ("obs.telemetry_us_per_tick", per_tick_us, "us"),
        (
            "obs.telemetry_export_s",
            med(|l| l.readback.telemetry_export_s),
            "s",
        ),
        (
            "obs.telemetry_read_s",
            med(|l| l.readback.telemetry_read_s),
            "s",
        ),
        ("obs.trace_events", rb.trace_events as f64, "count"),
        ("obs.trace_bytes", rb.trace_bytes as f64, "bytes"),
        (
            "obs.trace_export_s",
            med(|l| l.readback.trace_export_s),
            "s",
        ),
        ("tracekit.read_s", med(|l| l.readback.tracekit_read_s), "s"),
        ("tracekit.events_read", rb.events_read as f64, "count"),
        ("analysis.harvest_s", med(|l| l.harvest_s), "s"),
        ("core.run_traced_s", traced_s, "s"),
        ("trace_overhead", ratio(traced_s, untraced_s), "ratio"),
    ];

    println!(
        "# {} seed {} traced: {} iterations, first one warm-up; {} timed",
        w.name(),
        args.seed,
        outcome.attempted,
        samples.len()
    );
    println!("# replay wall: untraced {untraced_s:.6} s, traced {traced_s:.6} s (medians)");
    println!("# phase shares of the traced replay wall (not of the sum of spans):");
    println!(
        "{:<18} {:>12} {:>8} {:>8}",
        "phase", "seconds", "self", "incl"
    );
    let share = |s: f64| 100.0 * s / traced_s;
    let order = med(|l| l.order_s);
    let profile = med(|l| l.free_profile_s);
    let backfill = med(|l| l.backfill_s);
    let cycle_self = med(|l| l.cycle_self_s);
    let cycle_incl = med(|l| l.cycle_self_s + l.order_s + l.free_profile_s + l.backfill_s);
    let pump = med(|l| l.pump_s);
    let run_self = med(|l| l.run_self_s);
    for (name, self_s, incl_s) in [
        ("core.run", run_self, traced_s),
        ("  event-pump", pump, pump),
        ("  schedule-cycle", cycle_self, cycle_incl),
        ("    order-queue", order, order),
        ("    free-profile", profile, profile),
        ("    backfill", backfill, backfill),
    ] {
        println!(
            "{name:<18} {incl_s:>12.6} {:>7.1}% {:>7.1}%",
            share(self_s),
            share(incl_s)
        );
    }
    println!(
        "# in every iteration the self times sum to that iteration's replay wall \
         (nested phases never exceeded their parent); medians need not add to 100%"
    );
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let path = args
        .spans_path
        .clone()
        .unwrap_or_else(|| format!("replaybench/out/spans-{}-{}.jsonl", w.name(), args.seed));
    let written = std::path::Path::new(&path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, spans.to_jsonl()));
    match written {
        Ok(()) => println!("# wrote {} spans to {path}", spans.len()),
        Err(e) => eprintln!("warning: could not write spans to {path}: {e}"),
    }
    report_outcome(w, args.seed, &outcome);
    if !counts_repeat {
        println!("FAILED: work counters differ between iterations");
    }
    let correct = outcome.failed == 0 && !samples.is_empty() && counts_repeat;
    (correct, outcome.attempted, outcome.failed, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use interstitial::prelude::*;
    use workload::{Job, JobClass};

    #[test]
    fn goodput_is_one_without_waste() {
        let mut m = machine::config::ross();
        m.cpus = 8;
        let job = Job {
            id: 1,
            class: JobClass::Native,
            user: 0,
            group: 0,
            submit: simkit::time::SimTime::ZERO,
            cpus: 4,
            runtime: SimDuration::from_secs(100),
            estimate: SimDuration::from_secs(100),
        };
        let out = SimBuilder::new(m)
            .natives(vec![job])
            .horizon(simkit::time::SimTime::from_secs(1_000))
            .interstitial(
                InterstitialProject::per_paper(3, 2, 50.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        assert!(out.interstitial_completed() > 0);
        assert_eq!(ij_goodput(&out), 1.0);
    }
}
