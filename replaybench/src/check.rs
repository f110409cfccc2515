//! Output checks: a digest of the simulated schedule and the invariants
//! every replay must meet.
//!
//! The digest covers what the simulation decided, never how much work it
//! took to decide it: each completed job's id, class, start and finish, in
//! output order, plus the interstitial jobs killed and the CPU·s wasted.
//! Work counters stay out, so an algorithmic speed-up that lowers them
//! keeps the digest.

use interstitial::SimOutput;
use std::collections::BTreeSet;
use workload::{Job, JobClass};

/// FNV-1a over a sequence of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A replay's schedule digest with the counts it covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// FNV-1a hash of the schedule.
    pub hash: u64,
    /// Completed native jobs.
    pub natives: u64,
    /// Completed interstitial jobs.
    pub interstitials: u64,
}

impl Digest {
    /// Digest `out`'s schedule.
    pub fn of(out: &SimOutput) -> Digest {
        let mut h = Fnv::new();
        let mut natives = 0;
        for c in &out.completed {
            let class = match c.job.class {
                JobClass::Native => {
                    natives += 1;
                    0
                }
                JobClass::Interstitial => 1,
            };
            h.word(c.job.id);
            h.word(class);
            h.word(c.start.as_secs());
            h.word(c.finish.as_secs());
        }
        h.word(out.interstitial_killed);
        h.word(out.wasted_cpu_seconds.round() as u64);
        h.word(out.faults.interstitial_wasted_cpu_seconds.round() as u64);
        Digest {
            hash: h.0,
            natives,
            interstitials: out.completed.len() as u64 - natives,
        }
    }

    /// Completed jobs of both classes.
    pub fn jobs(&self) -> u64 {
        self.natives + self.interstitials
    }

    /// The reference-file form: `hash natives interstitials`.
    pub fn render(&self) -> String {
        format!("{:016x} {} {}", self.hash, self.natives, self.interstitials)
    }
}

/// The stored digest for `(workload, seed)`, if the reference file has one.
///
/// Each non-comment line of the file reads `workload seed hash natives
/// interstitials`.
pub fn reference(text: &str, workload: &str, seed: u64) -> Option<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s) = (f.next()?, f.next()?.parse::<u64>().ok()?);
            (w == workload && s == seed).then(|| f.collect::<Vec<_>>().join(" "))
        })
}

/// Every job of the native log completed, started no earlier than its
/// submission and ran exactly its runtime.
pub fn natives_complete(out: &SimOutput, log: &[Job]) -> Result<(), String> {
    let mut done = BTreeSet::new();
    for c in out.natives() {
        done.insert(c.job.id);
        if c.start < c.job.submit || c.finish - c.start != c.job.runtime {
            return Err(format!(
                "native job {} ran [{}, {}) against submit {} and runtime {}",
                c.job.id,
                c.start.as_secs(),
                c.finish.as_secs(),
                c.job.submit.as_secs(),
                c.job.runtime.as_secs()
            ));
        }
    }
    if let Some(j) = log.iter().find(|j| !done.contains(&j.id)) {
        return Err(format!(
            "{} of {} native jobs completed; job {} ({} CPUs of {}, submitted at {} s) did not",
            done.len(),
            log.len(),
            j.id,
            j.cpus,
            out.machine.cpus,
            j.submit.as_secs()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_lines_are_found_by_workload_and_seed() {
        let text = "# comment\nbp_table7 7 00ab 3 4\nbm_observed 7 00cd 5 6\n";
        assert_eq!(
            reference(text, "bm_observed", 7).as_deref(),
            Some("00cd 5 6")
        );
        assert_eq!(reference(text, "bm_observed", 8), None);
    }

    #[test]
    fn fnv_depends_on_order() {
        let mut a = Fnv::new();
        a.word(1);
        a.word(2);
        let mut b = Fnv::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.0, b.0);
    }
}
