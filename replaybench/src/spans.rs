//! The benchmark's own span recorder.
//!
//! A span has a name, a start, an end and a parent span, and every span of
//! one replay iteration shares that iteration's replay id. Spans are kept
//! in memory and written out as JSONL when the benchmark ends. Phase totals
//! taken from the program's own profiler are recorded beside them as
//! aggregate spans: they carry a total duration and a call count instead
//! of one interval.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// An open span, handed back to [`Spans::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    t0: Instant,
}

impl Open {
    /// The span's id, for use as a parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

#[derive(Clone, Debug)]
enum Record {
    Interval {
        rid: u64,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start_ns: u128,
        end_ns: u128,
    },
    Aggregate {
        rid: u64,
        parent: u64,
        name: &'static str,
        total_ns: u64,
        self_ns: u64,
        calls: u64,
    },
}

/// Span recorder. When not keeping, spans still time their interval (the
/// untraced runs need the durations) but nothing is stored.
pub struct Spans {
    keep: bool,
    epoch: Instant,
    rid: u64,
    next_id: u64,
    records: Vec<Record>,
}

impl Spans {
    /// A recorder that stores spans when `keep` is set.
    pub fn new(keep: bool) -> Self {
        Spans {
            keep,
            epoch: Instant::now(),
            rid: 0,
            next_id: 0,
            records: Vec::new(),
        }
    }

    /// Start the next replay iteration: later spans carry a fresh id.
    pub fn next_replay(&mut self) {
        self.rid += 1;
    }

    /// Open a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: Option<&Open>) -> Open {
        self.next_id += 1;
        Open {
            id: self.next_id,
            parent: parent.map(Open::id),
            name,
            t0: Instant::now(),
        }
    }

    /// Close a span and return its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let t1 = Instant::now();
        if self.keep {
            self.records.push(Record::Interval {
                rid: self.rid,
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.t0.duration_since(self.epoch).as_nanos(),
                end_ns: t1.duration_since(self.epoch).as_nanos(),
            });
        }
        t1.duration_since(open.t0)
    }

    /// Record a phase total from the program's profiler under `parent`.
    pub fn aggregate(
        &mut self,
        parent: u64,
        name: &'static str,
        total_ns: u64,
        self_ns: u64,
        calls: u64,
    ) {
        if self.keep {
            self.records.push(Record::Aggregate {
                rid: self.rid,
                parent,
                name,
                total_ns,
                self_ns,
                calls,
            });
        }
    }

    /// Number of stored spans.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Total seconds of the current replay's stored spans named `name`
    /// (0 when there are none).
    pub fn seconds(&self, name: &str) -> f64 {
        let ns: u128 = self
            .records
            .iter()
            .filter_map(|r| match r {
                Record::Interval {
                    rid,
                    name: n,
                    start_ns,
                    end_ns,
                    ..
                } if *rid == self.rid && *n == name => Some(end_ns - start_ns),
                _ => None,
            })
            .sum();
        ns as f64 / 1e9
    }

    /// All stored spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            match r {
                Record::Interval {
                    rid,
                    id,
                    parent,
                    name,
                    start_ns,
                    end_ns,
                } => {
                    let parent = parent.map_or("null".to_string(), |p| p.to_string());
                    let _ = writeln!(
                        out,
                        "{{\"replay\":{rid},\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\
                         \"start_ns\":{start_ns},\"end_ns\":{end_ns}}}"
                    );
                }
                Record::Aggregate {
                    rid,
                    parent,
                    name,
                    total_ns,
                    self_ns,
                    calls,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"replay\":{rid},\"parent\":{parent},\"name\":\"{name}\",\
                         \"aggregate\":true,\"total_ns\":{total_ns},\"self_ns\":{self_ns},\
                         \"calls\":{calls}}}"
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_share_the_replay_id_and_name_their_parent() {
        let mut s = Spans::new(true);
        s.next_replay();
        let root = s.begin("replay", None);
        let child = s.begin("setup", Some(&root));
        let setup = s.end(child).as_secs_f64();
        s.aggregate(root.id(), "event-pump", 10, 10, 1);
        s.end(root);
        assert!((s.seconds("setup") - setup).abs() < 1e-9);
        assert_eq!(s.seconds("absent"), 0.0);
        let text = s.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"replay\":1,\"id\":2,\"parent\":1,\"name\":\"setup\""));
        assert!(lines[1].contains("\"aggregate\":true"));
        assert!(lines[2].contains("\"parent\":null,\"name\":\"replay\""));
    }

    #[test]
    fn untraced_recorder_times_but_stores_nothing() {
        let mut s = Spans::new(false);
        let open = s.begin("x", None);
        let _ = s.end(open);
        assert_eq!(s.len(), 0);
    }
}
