//! Full-simulation differential replay: the naive and indexed free-profile
//! paths must produce byte-identical traces and identical completions on
//! every machine preset, fault-free and faulted.
//!
//! This is the end-to-end arm of the equivalence proof (the sched-level arm
//! is `crates/sched/tests/differential.rs`): if a divergence slips past the
//! planner-level harness, it surfaces here as a trace diff. On failure, the
//! diverging artifacts are written to `target/differential/` so CI can
//! upload them for offline diffing.

use interstitial::prelude::*;
use machine::{FaultModel, FaultSpec, MachineConfig};
use obs::Obs;
use sched::{ProfileMode, Scheduler};
use simkit::time::{SimDuration, SimTime};
use workload::traces::native_trace;

const SEED: u64 = 7;
const JOBS: usize = 150;

fn presets() -> [(&'static str, MachineConfig); 3] {
    [
        ("ross", machine::config::ross()),
        ("blue_mountain", machine::config::blue_mountain()),
        ("blue_pacific", machine::config::blue_pacific()),
    ]
}

fn replay(cfg: &MachineConfig, faulted: bool, mode: ProfileMode) -> SimOutput {
    let mut natives = native_trace(cfg, SEED);
    natives.truncate(JOBS);
    let horizon =
        SimTime::from_secs(natives.iter().map(|j| j.submit.as_secs()).max().unwrap() + 86_400);
    let project = InterstitialProject::per_paper(u64::MAX / 2, (cfg.cpus / 8).max(1), 3_600.0);
    let mut scheduler = Scheduler::for_machine(cfg);
    scheduler.profile_mode = mode;
    let mut b = SimBuilder::new(cfg.clone())
        .natives(natives)
        .horizon(horizon)
        .scheduler(scheduler)
        .interstitial(
            project,
            InterstitialMode::Continual,
            InterstitialPolicy::default(),
        )
        .observer(Obs::enabled());
    if faulted {
        let spec = FaultSpec {
            mtbf: SimDuration::from_secs(172_800),
            mttr: SimDuration::from_secs(7_200),
            nodes: 16,
            seed: 5,
        };
        b = b.faults(FaultModel::synthesize(&spec, cfg.cpus, horizon));
    }
    b.build().run()
}

/// Where diverging artifacts land for CI upload.
fn artifact_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/differential")
}

/// Compare a run against the reference; on any mismatch, dump both sides'
/// traces and counters under `target/differential/<label>.*` and panic.
fn assert_equivalent(label: &str, reference: &SimOutput, got: &SimOutput) {
    let ref_trace = reference.obs.trace.to_jsonl();
    let got_trace = got.obs.trace.to_jsonl();
    let ref_completed: Vec<(u64, SimTime, SimTime)> = reference
        .completed
        .iter()
        .map(|c| (c.job.id, c.start, c.finish))
        .collect();
    let got_completed: Vec<(u64, SimTime, SimTime)> = got
        .completed
        .iter()
        .map(|c| (c.job.id, c.start, c.finish))
        .collect();
    // Counter vectors must match field-for-field, except
    // `profile_segments_walked`: it deliberately tallies different units in
    // the two profile modes (segments built vs. overlay pieces examined).
    let counters_match = reference
        .obs
        .work
        .fields()
        .into_iter()
        .zip(got.obs.work.fields())
        .all(|((name, a), (_, b))| a == b || name == "profile_segments_walked");

    if ref_trace == got_trace && ref_completed == got_completed && counters_match {
        return;
    }
    let dir = artifact_dir();
    std::fs::create_dir_all(&dir).ok();
    std::fs::write(
        dir.join(format!("{label}.reference.trace.jsonl")),
        &ref_trace,
    )
    .ok();
    std::fs::write(dir.join(format!("{label}.got.trace.jsonl")), &got_trace).ok();
    std::fs::write(
        dir.join(format!("{label}.reference.work.json")),
        reference.obs.work.to_json(),
    )
    .ok();
    std::fs::write(
        dir.join(format!("{label}.got.work.json")),
        got.obs.work.to_json(),
    )
    .ok();
    panic!(
        "{label}: runs diverged (trace identical: {}, completions identical: {}, \
         counters identical: {counters_match}) — artifacts in {}",
        ref_trace == got_trace,
        ref_completed == got_completed,
        dir.display()
    );
}

/// The indexed free profile against the naive reference, per preset,
/// fault-free and faulted.
#[test]
fn indexed_profile_replays_identically_to_naive() {
    for (name, cfg) in presets() {
        for faulted in [false, true] {
            let reference = replay(&cfg, faulted, ProfileMode::Naive);
            assert!(
                !reference.completed.is_empty(),
                "{name}: reference run completed nothing"
            );
            let got = replay(&cfg, faulted, ProfileMode::Indexed);
            assert_equivalent(
                &format!("{name}-faulted{faulted}-indexed"),
                &reference,
                &got,
            );
        }
    }
}
