//! The three paper-scale workloads: input generation, simulator assembly
//! and the read-back of the observed workload's instruments.
//!
//! Every input is a function of the workload seed alone, and the simulator
//! receives only the generated inputs through the public `interstitial`
//! API (`SimBuilder` → `Simulator::run`).
//!
//! The seed perturbs one calibrated instance per workload instead of
//! drawing a fresh one: it jitters every native submit time by up to
//! [`SUBMIT_JITTER_S`] and every node-fault window by up to
//! [`FAULT_JITTER_S`]. Fresh draws change the offered load, and near
//! saturation that swings the replay's cost several-fold from seed to seed
//! (README.md, "Seeds"), which would bury any speed change in seed noise.

use crate::check;
use crate::spans::{Open, Spans};
use interstitial::policy::RecoveryPolicy;
use interstitial::prelude::*;
use machine::config::{blue_mountain, blue_pacific, ross};
use machine::{FaultModel, FaultSpec, MachineConfig, NodeFaults, OutageSchedule};
use obs::telemetry::{DEFAULT_CADENCE_S, DEFAULT_POINT_BUDGET, DRIVER_SIGNALS};
use obs::{Obs, PhaseProfiler, SloSpec, TelemetryBus, TelemetryDump, TraceSink};
use simkit::rng::Rng;
use simkit::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::sync::Arc;
use tracekit::{parse_line, Line, Summarizer};
use workload::{swf, traces, Job, JobClass};

/// The seed the stored reference digests were taken at.
pub const DEFAULT_SEED: u64 = 20_030_901;

/// Trace seed of the calibrated native logs: the paper lab's seed, so the
/// unjittered Blue Pacific log is the one behind the repository's Table 7.
const LAB_TRACE_SEED: u64 = 20_030_901;

/// Generator seed of the calibrated 100k-job SWF log (the repository's
/// 10⁵-job SWF stress test draws its log from the same seed).
const SWF_LOG_SEED: u64 = 0x0557_1E55;

/// Jobs in the synthetic SWF log of `ross_swf100k_faulted`.
const SWF_JOBS: u64 = 100_000;

/// Largest seed-drawn delay added to a native submit time, seconds.
const SUBMIT_JITTER_S: u64 = 300;

/// Largest seed-drawn shift of a node-fault window, seconds.
const FAULT_JITTER_S: u64 = 600;

/// The node-fault spec of the repository's faulted perf baselines: MTBF
/// 48 h and MTTR 2 h on each of 16 nodes.
const FAULT_SPEC: FaultSpec = FaultSpec {
    mtbf: SimDuration::from_secs(172_800),
    mttr: SimDuration::from_secs(7_200),
    nodes: 16,
    seed: 5,
};

/// The observed workload's SLO watchdog rules.
const SLO_RULES: &str = "native_p99_wait<=3600,util>=0.85";

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Blue Pacific's full log with the continual 32 × 120 s stream.
    BpTable7,
    /// A 100,000-job synthetic SWF log on Ross, faulted, suspend-resume.
    RossSwf100kFaulted,
    /// Blue Mountain's full log with telemetry, SLO watchdog and trace.
    BmObserved,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::BpTable7,
        Workload::RossSwf100kFaulted,
        Workload::BmObserved,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BpTable7 => "bp_table7",
            Workload::RossSwf100kFaulted => "ross_swf100k_faulted",
            Workload::BmObserved => "bm_observed",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload replays with the telemetry bus and event trace.
    pub fn observed(self) -> bool {
        self == Workload::BmObserved
    }
}

/// Which of the program's own instruments a replay turns on, beyond the
/// always-on work counters and the workload's own trace.
#[derive(Clone, Copy, Debug)]
pub struct Instruments {
    /// The program's phase profiler (the traced run).
    pub profiler: bool,
    /// The telemetry bus and SLO watchdog (observed workload only; the
    /// telemetry A/B turns it off).
    pub telemetry: bool,
}

impl Instruments {
    /// What the end-to-end runs replay with.
    pub const PLAIN: Instruments = Instruments {
        profiler: false,
        telemetry: true,
    };
}

/// Everything a replay is built from. Built once per iteration; the traced
/// run rebuilds its simulator from the same inputs.
pub struct Inputs {
    machine: MachineConfig,
    natives: Arc<Vec<Job>>,
    horizon: Option<SimTime>,
    faults: Option<FaultModel>,
    /// Length of the emitted SWF text (0 when the workload uses none).
    pub swf_bytes: u64,
}

impl Inputs {
    /// The native log.
    pub fn natives(&self) -> &[Job] {
        &self.natives
    }
}

/// The workload seed's random stream for one input, keyed by `key`.
fn stream(seed: u64, key: u64) -> Rng {
    Rng::new(seed).split(key)
}

/// Delay every submit time by a seed-drawn `[0, SUBMIT_JITTER_S)` seconds.
fn jitter_submits(jobs: &mut [Job], rng: &mut Rng) {
    for j in jobs {
        j.submit += SimDuration::from_secs(rng.below(SUBMIT_JITTER_S));
    }
}

/// The 32-CPU × 120 s continual stream of the paper's Table 7 row, with a
/// job budget the horizon cuts off.
fn continual_stream() -> InterstitialProject {
    InterstitialProject::per_paper(u64::MAX / 2, 32, 120.0)
}

/// A 100k-job log shaped to keep Ross's 1436 CPUs busy at about 70%
/// offered load without an unbounded queue (the shape of the repository's
/// 10⁵-job SWF stress test), drawn from `seed`.
fn synthesize_swf_log(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::with_capacity(SWF_JOBS as usize);
    let mut at = 0u64;
    for id in 1..=SWF_JOBS {
        at += rng.below(8);
        let cpus = rng.range_u64(1, 17) as u32;
        let runtime = rng.range_u64(50, 950);
        let estimate = if rng.chance(0.2) {
            (runtime / 3).max(1)
        } else {
            runtime * rng.range_u64(1, 6)
        };
        jobs.push(Job {
            id,
            class: JobClass::Native,
            user: (id % 41) as u32,
            group: (id % 7) as u32,
            submit: SimTime::from_secs(at),
            cpus,
            runtime: SimDuration::from_secs(runtime),
            estimate: SimDuration::from_secs(estimate),
        });
    }
    jobs
}

/// Synthesize [`FAULT_SPEC`] over `[0, horizon)` and delay every node's
/// down windows by a seed-drawn `[0, FAULT_JITTER_S)` seconds each.
fn synthesize_faults(cpus: u32, horizon: SimTime, rng: &mut Rng) -> FaultModel {
    let base = FaultModel::synthesize(&FAULT_SPEC, cpus, horizon);
    let nodes = base
        .nodes()
        .iter()
        .map(|n| {
            let windows = n
                .schedule
                .windows()
                .iter()
                .map(|&(down, up)| {
                    let shift = SimDuration::from_secs(rng.below(FAULT_JITTER_S));
                    ((down + shift).min(horizon), (up + shift).min(horizon))
                })
                .collect();
            NodeFaults {
                cpus: n.cpus,
                schedule: OutageSchedule::from_windows(windows),
            }
        })
        .collect();
    FaultModel::none().with_nodes(nodes)
}

/// Generate the workload's inputs under `parent`, one span per layer call:
/// `workload.generate`, `workload.swf_emit`, `workload.swf_parse`,
/// `machine.fault_synth`.
pub fn prepare(w: Workload, seed: u64, spans: &mut Spans, parent: &Open) -> Inputs {
    match w {
        Workload::BpTable7 | Workload::BmObserved => {
            let machine = if w == Workload::BpTable7 {
                blue_pacific()
            } else {
                blue_mountain()
            };
            let s = spans.begin("workload.generate", Some(parent));
            let mut natives = traces::native_trace(&machine, LAB_TRACE_SEED);
            jitter_submits(&mut natives, &mut stream(seed, 1));
            spans.end(s);
            Inputs {
                machine,
                natives: Arc::new(natives),
                horizon: None,
                faults: None,
                swf_bytes: 0,
            }
        }
        Workload::RossSwf100kFaulted => {
            let machine = ross();
            let s = spans.begin("workload.generate", Some(parent));
            let mut log = synthesize_swf_log(SWF_LOG_SEED);
            jitter_submits(&mut log, &mut stream(seed, 1));
            spans.end(s);
            let s = spans.begin("workload.swf_emit", Some(parent));
            let text = swf::emit(&log, "synthetic 100k-job log");
            spans.end(s);
            drop(log);
            let s = spans.begin("workload.swf_parse", Some(parent));
            let natives = swf::parse(&text, true).expect("an emitted SWF log parses");
            spans.end(s);
            let last_submit = natives.iter().map(|j| j.submit.as_secs()).max();
            let horizon = SimTime::from_secs(last_submit.unwrap_or(0) + 400_000);
            let s = spans.begin("machine.fault_synth", Some(parent));
            let faults = synthesize_faults(machine.cpus, horizon, &mut stream(seed, 2));
            spans.end(s);
            Inputs {
                machine,
                natives: Arc::new(natives),
                horizon: Some(horizon),
                faults: Some(faults),
                swf_bytes: text.len() as u64,
            }
        }
    }
}

/// Assemble the simulator (the caller times `SimBuilder::build`).
pub fn builder(w: Workload, inputs: &Inputs, ins: Instruments) -> SimBuilder {
    let mut obs = Obs::counting();
    if ins.profiler {
        obs.profiler = PhaseProfiler::enabled();
    }
    if w.observed() {
        obs.trace = TraceSink::enabled();
        if ins.telemetry {
            obs.telemetry = TelemetryBus::enabled(DEFAULT_CADENCE_S, DRIVER_SIGNALS);
        }
    }
    let mut b = SimBuilder::new(inputs.machine.clone())
        .natives_arc(Arc::clone(&inputs.natives))
        .interstitial(
            continual_stream(),
            InterstitialMode::Continual,
            InterstitialPolicy::default(),
        )
        .observer(obs);
    if let Some(h) = inputs.horizon {
        b = b.horizon(h);
    }
    if let Some(f) = &inputs.faults {
        b = b.faults(f.clone()).recovery(RecoveryPolicy::SuspendResume);
    }
    if w.observed() && ins.telemetry {
        b = b.slo(SloSpec::parse(SLO_RULES).expect("the SLO rules parse"));
    }
    b
}

/// Generate the inputs and build the untraced simulator under a `setup`
/// span holding [`prepare`]'s layer spans and `core.build`. Returns the
/// inputs, the simulator and the setup seconds.
pub fn set_up(w: Workload, seed: u64, spans: &mut Spans, root: &Open) -> (Inputs, Simulator, f64) {
    let setup = spans.begin("setup", Some(root));
    let inputs = prepare(w, seed, spans, &setup);
    let build = spans.begin("core.build", Some(&setup));
    let sim = builder(w, &inputs, Instruments::PLAIN).build();
    spans.end(build);
    let setup_s = spans.end(setup).as_secs_f64();
    (inputs, sim, setup_s)
}

/// A replay that ran to its end.
pub struct Checked {
    /// The simulation's output.
    pub out: SimOutput,
    /// Whether every native job of the log completed as logged.
    pub natives: Result<(), String>,
    /// Host seconds in `Simulator::run`.
    pub replay_s: f64,
    /// The observed workload's export and read-back.
    pub readback: Option<ReadBack>,
}

/// Run `sim` under a span named `span`, check whether every native job of
/// the log completed, and on the observed workload export and read back
/// its instruments. Errors only when the read-back disagrees with the run.
pub fn run_checked(
    w: Workload,
    sim: Simulator,
    inputs: &Inputs,
    spans: &mut Spans,
    root: &Open,
    span: &'static str,
) -> Result<Checked, String> {
    let run = spans.begin(span, Some(root));
    let out = sim.run();
    let replay_s = spans.end(run).as_secs_f64();
    let natives = check::natives_complete(&out, inputs.natives());
    let readback = if w.observed() {
        Some(export_and_read(&out, spans, root)?)
    } else {
        None
    };
    Ok(Checked {
        out,
        natives,
        replay_s,
        readback,
    })
}

/// Ticks `bus` sampled. A decimation runs when the point budget is full and
/// drops half of it, so each one stands for half a budget of sampled ticks
/// that are no longer retained.
fn ticks_sampled(bus: &TelemetryBus) -> u64 {
    bus.len() as u64 + bus.decimations() * (DEFAULT_POINT_BUDGET / 2) as u64
}

/// What exporting and reading back the observed workload's instruments
/// produced, with the host seconds of each step.
#[derive(Clone, Debug, Default)]
pub struct ReadBack {
    /// Events in the run's trace sink.
    pub trace_events: u64,
    /// Bytes of the exported trace JSONL.
    pub trace_bytes: u64,
    /// Events the trace reader parsed back.
    pub events_read: u64,
    /// Telemetry ticks the bus sampled, the decimated ones included.
    pub telemetry_ticks: u64,
    /// Host seconds of `TraceSink::to_jsonl`.
    pub trace_export_s: f64,
    /// Host seconds of `parse_line` + `Summarizer` over the export.
    pub tracekit_read_s: f64,
    /// Host seconds of `TelemetryBus::to_jsonl`.
    pub telemetry_export_s: f64,
    /// Host seconds of `TelemetryDump::from_jsonl`.
    pub telemetry_read_s: f64,
}

/// Export the trace and telemetry with `to_jsonl` and read both back,
/// checking that the read-back agrees with the run.
pub fn export_and_read(
    out: &SimOutput,
    spans: &mut Spans,
    parent: &Open,
) -> Result<ReadBack, String> {
    let mut rb = ReadBack {
        trace_events: out.obs.trace.recorded(),
        telemetry_ticks: ticks_sampled(&out.obs.telemetry),
        ..ReadBack::default()
    };

    let s = spans.begin("obs.trace_export", Some(parent));
    let text = out.obs.trace.to_jsonl();
    rb.trace_export_s = spans.end(s).as_secs_f64();
    rb.trace_bytes = text.len() as u64;

    let s = spans.begin("tracekit.read", Some(parent));
    let mut summarizer = Summarizer::new(None);
    for (n, line) in text.lines().enumerate() {
        match parse_line(line).map_err(|e| format!("trace line {}: {e}", n + 1))? {
            Line::Header(h) => summarizer = Summarizer::new(h.cpus),
            Line::Event(ev) => {
                summarizer.observe(&ev);
                rb.events_read += 1;
            }
        }
    }
    let summary = black_box(summarizer.finish());
    rb.tracekit_read_s = spans.end(s).as_secs_f64();
    drop(text);

    let s = spans.begin("obs.telemetry_export", Some(parent));
    let telemetry = out.obs.telemetry.to_jsonl();
    rb.telemetry_export_s = spans.end(s).as_secs_f64();

    let s = spans.begin("obs.telemetry_read", Some(parent));
    let dump = TelemetryDump::from_jsonl(&telemetry)?;
    rb.telemetry_read_s = spans.end(s).as_secs_f64();

    if rb.events_read != rb.trace_events {
        return Err(format!(
            "trace read-back parsed {} of {} events",
            rb.events_read, rb.trace_events
        ));
    }
    if summary.native_finishes != out.native_completed() || summary.inconsistencies != 0 {
        return Err(format!(
            "trace summary disagrees with the run: {} native finishes (run: {}), {} inconsistencies",
            summary.native_finishes,
            out.native_completed(),
            summary.inconsistencies
        ));
    }
    if dump.ticks != out.obs.telemetry.ticks() {
        return Err("telemetry read-back lost or changed ticks".to_string());
    }
    Ok(rb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_sampled_counts_the_decimated_ticks() {
        let mut bus = TelemetryBus::enabled(1, &["x"]);
        let mut sampled = 0;
        while sampled < 3 * DEFAULT_POINT_BUDGET as u64 + 7 {
            let t = bus.pending_tick(SimTime::from_secs(u64::MAX / 2)).unwrap();
            bus.record_tick(t, &[0]);
            sampled += 1;
        }
        assert!(bus.decimations() > 0);
        assert!((bus.len() as u64) < sampled);
        assert_eq!(ticks_sampled(&bus), sampled);
    }
}
