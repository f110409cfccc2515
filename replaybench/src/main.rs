//! `replaybench` — host-time benchmark of paper-scale interstitial replays.
//!
//! ```text
//! cargo run --release --manifest-path replaybench/Cargo.toml -- \
//!     --workload bp_table7 --seed 20030901 --seconds 40 --trace 0
//! ```
//!
//! One process runs one workload as a closed loop on one thread: set up,
//! replay, check, repeat, for about `--seconds`. The first
//! iteration is a warm-up whose outputs are checked but whose times are
//! dropped. With `--trace 0` the last line of standard output is a JSON
//! object with the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics of the traced run (see `traced.rs`). README.md lists
//! the workloads, the metrics and what each layer should move.

mod check;
mod spans;
mod stats;
mod traced;
mod workloads;

use check::Digest;
use spans::Spans;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workloads::{Workload, DEFAULT_SEED};

/// Reference digests of the default and held-out seeds (README.md, "Seeds").
const REFERENCE: &str = include_str!("../reference.txt");

/// Fewest timed iterations a run attempts, however long they take.
const MIN_SAMPLES: u64 = 3;

const USAGE: &str = "usage: replaybench --workload bp_table7|ross_swf100k_faulted|bm_observed \
                     [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]";

/// Parsed command line.
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// How long the closed loop runs.
    pub seconds: Duration,
    /// Run the traced (per-layer) variant.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans_path: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut spans_path = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--spans" => spans_path = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        spans_path,
    })
}

/// How one run of the closed loop went.
pub struct Outcome<S> {
    /// Timed iterations that ran to their end (warm-up excluded), whether
    /// or not their output passed the check.
    pub samples: Vec<S>,
    /// Iterations attempted, warm-up included.
    pub attempted: u64,
    /// Iterations that panicked or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// The schedule digest every iteration was held to.
    pub digest: Option<String>,
}

/// An iteration's result: its measurements and the output check's verdict
/// (the schedule digest, or why the output is wrong), or why it could not
/// be measured.
pub type Measured<S> = Result<(S, Result<Digest, String>), String>;

/// Run `iteration` back to back until the next one would likely end past
/// `seconds`, and at least [`MIN_SAMPLES`] iterations after the warm-up
/// were attempted. A panic, an `Err` or a failed output check counts as a
/// failed iteration; so does a digest other than `expected` (the stored
/// reference, or else the first passing iteration's digest). A replay
/// that ran to its end keeps its measurements even when its output failed
/// the check: the time is what that replay took, and `failed` reports it.
pub fn closed_loop<S>(
    seconds: Duration,
    mut expected: Option<String>,
    mut iteration: impl FnMut(u64) -> Measured<S>,
) -> Outcome<S> {
    let t0 = Instant::now();
    let mut out = Outcome {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        digest: None,
    };
    loop {
        let index = out.attempted;
        out.attempted += 1;
        let started = Instant::now();
        let result = match catch_unwind(AssertUnwindSafe(|| iteration(index))) {
            Ok(r) => r,
            Err(panic) => Err(panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .map_or("replay panicked".to_string(), |m| {
                    format!("replay panicked: {m}")
                })),
        };
        let verdict = result.and_then(|(sample, verdict)| {
            if index > 0 {
                out.samples.push(sample);
            }
            let got = verdict?.render();
            match &expected {
                Some(want) if *want != got => {
                    Err(format!("schedule digest {got} differs from {want}"))
                }
                Some(_) => Ok(()),
                None => {
                    expected = Some(got);
                    Ok(())
                }
            }
        });
        if let Err(e) = verdict {
            out.failed += 1;
            if out.errors.len() < 5 {
                out.errors.push(e);
            }
        }
        // Start no iteration that would likely end past the deadline.
        if t0.elapsed() + started.elapsed() > seconds && out.attempted > MIN_SAMPLES {
            out.digest = expected;
            return out;
        }
    }
}

/// One end-to-end iteration's host seconds.
struct Sample {
    setup_s: f64,
    replay_s: f64,
    total_s: f64,
    jobs: u64,
}

/// Set up, replay and (observed workload) export and read back, untraced.
fn e2e_iteration(w: Workload, seed: u64, spans: &mut Spans) -> Measured<Sample> {
    spans.next_replay();
    let root = spans.begin("replay", None);
    let (inputs, sim, setup_s) = workloads::set_up(w, seed, spans, &root);
    let c = workloads::run_checked(w, sim, &inputs, spans, &root, "core.run")?;
    let readback_s = c.readback.as_ref().map_or(0.0, |rb| {
        rb.trace_export_s + rb.tracekit_read_s + rb.telemetry_export_s + rb.telemetry_read_s
    });
    let digest = Digest::of(&c.out);
    spans.end(root);
    Ok((
        Sample {
            setup_s,
            replay_s: c.replay_s,
            total_s: setup_s + c.replay_s + readback_s,
            jobs: digest.jobs(),
        },
        c.natives.map(|()| digest),
    ))
}

/// The process's peak resident set (`VmHWM`), MiB. Read after the first
/// replay: later iterations reuse a fragmented heap, so a reading at the
/// end would grow with the number of iterations the host's speed allowed.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A named metric with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run_e2e(args: &Args, expected: Option<String>) -> (bool, u64, u64, Vec<Metric>) {
    let w = args.workload;
    let mut spans = Spans::new(false);
    let mut peak = None;
    let outcome = closed_loop(args.seconds, expected, |i| {
        let r = e2e_iteration(w, args.seed, &mut spans);
        if i == 0 {
            peak = Some(peak_rss_mib());
        }
        r
    });
    let col = |f: fn(&Sample) -> f64| outcome.samples.iter().map(f).collect::<Vec<f64>>();
    let replay = col(|s| s.replay_s);
    let replay_s = stats::median(&replay);
    let jobs = outcome.samples.first().map_or(0, |s| s.jobs);
    let metrics = vec![
        ("setup_s", stats::median(&col(|s| s.setup_s)), "s"),
        ("replay_s", replay_s, "s"),
        ("jobs_per_s", stats::ratio(jobs as f64, replay_s), "1/s"),
        ("total_s", stats::median(&col(|s| s.total_s)), "s"),
        ("peak_rss_mib", peak.unwrap_or_else(peak_rss_mib), "MiB"),
    ];

    println!(
        "# {} seed {}: {} iterations, first one warm-up; {} timed",
        w.name(),
        args.seed,
        outcome.attempted,
        outcome.samples.len()
    );
    for (name, value, unit) in &metrics {
        println!("{name:<14} {value:>14.6} {unit}");
    }
    let tail = stats::tail(&replay).map_or("n/a (too few samples)".to_string(), |(p, v)| {
        format!("p{p} {v:.6} s")
    });
    println!("{:<14} median of {} samples; tail {tail}", "", replay.len());
    let listed: Vec<String> = replay.iter().map(|r| format!("{r:.4}")).collect();
    println!("{:<14} samples: {}", "", listed.join(" "));
    let failed_frac = outcome.failed as f64 / outcome.attempted as f64;
    println!("{:<14} {failed_frac:>14.6} ratio", "failed_frac");
    println!("{:<14} {jobs:>14} count (completed per replay)", "jobs");
    report_outcome(w, args.seed, &outcome);
    let correct = outcome.failed == 0 && !outcome.samples.is_empty();
    (correct, outcome.attempted, outcome.failed, metrics)
}

/// Print the schedule digest and the first failure messages.
pub fn report_outcome<S>(w: Workload, seed: u64, outcome: &Outcome<S>) {
    if let Some(d) = &outcome.digest {
        println!("# digest: {} {seed} {d}", w.name());
    }
    for e in &outcome.errors {
        println!("FAILED: {e}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let expected = check::reference(REFERENCE, args.workload.name(), args.seed);
    if args.seed == DEFAULT_SEED && expected.is_none() {
        eprintln!(
            "error: reference.txt has no digest for {} at the default seed",
            args.workload.name()
        );
        std::process::exit(1);
    }
    let (correct, attempted, failed, metrics) = if args.trace {
        traced::run(&args, expected)
    } else {
        run_e2e(&args, expected)
    };
    println!("{}", result_json(correct, attempted, failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload bm_observed --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::BmObserved);
        assert_eq!((a.seed, a.seconds.as_secs(), a.trace), (7, 3, true));
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload bp_table7 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload bp_table7 --seconds 0")).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 3, 0, &[("replay_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"replay_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn every_workload_has_a_reference_digest() {
        for w in Workload::ALL {
            assert!(check::reference(REFERENCE, w.name(), DEFAULT_SEED).is_some());
        }
    }

    #[test]
    fn closed_loop_counts_panics_mismatches_and_failed_checks_as_failures() {
        let d = |hash| Digest {
            hash,
            natives: 1,
            interstitials: 0,
        };
        let out = closed_loop(Duration::ZERO, None, |i| match i {
            1 => panic!("boom"),
            2 => Ok(((), Ok(d(2)))),
            3 => Ok(((), Err("job 7 did not complete".to_string()))),
            _ => Ok(((), Ok(d(1)))),
        });
        assert_eq!(out.attempted, MIN_SAMPLES + 1);
        assert_eq!(out.failed, 3);
        // The digest mismatch and the failed check still ran to their end.
        assert_eq!(out.samples.len(), 2);
        assert_eq!(out.digest.as_deref(), Some("0000000000000001 1 0"));
    }
}
