//! Wall-clock phase profiling.
//!
//! This module is the one audited simlint R2 exception outside the bench
//! harness: it reads `std::time::Instant` to time simulator phases
//! (schedule-cycle, backfill, free-profile, event-pump). The readings are
//! *reported only* — they never influence scheduling decisions, event
//! ordering or any simulated quantity, so determinism is untouched. Golden
//! comparisons exclude the profile section by construction
//! (`RunReport::to_json_deterministic`).
//!
//! Spans use an explicit begin/end token rather than a drop guard so that
//! nested phases (backfill inside schedule-cycle) can be timed without
//! holding overlapping `&mut` borrows of the profiler.

use crate::alloc;
use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated timing for one named phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of completed spans.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those spans (saturating).
    pub total_ns: u64,
    /// Allocator calls attributed to spans of this phase. Zero unless the
    /// `alloc-count` feature is on (see [`crate::alloc`]).
    pub alloc_calls: u64,
    /// Bytes allocated during spans of this phase (same gating).
    pub alloc_bytes: u64,
}

/// An open span: the start instant plus allocator tallies at `begin`.
/// Opaque to callers — obtained from [`PhaseProfiler::begin`] and handed
/// back to [`PhaseProfiler::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanToken {
    t0: Instant,
    allocs: u64,
    bytes: u64,
}

/// An ordered snapshot of all phase statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Per-phase stats in name order.
    pub phases: BTreeMap<&'static str, PhaseStat>,
}

impl ProfileSnapshot {
    /// Append `{"phase":{"calls":..,"total_ns":..},..}` in name order.
    /// Values are wall-clock readings — never compared in golden tests.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        for (name, stat) in &self.phases {
            if !first {
                out.push(',');
            }
            first = false;
            json::push_key(out, name);
            out.push('{');
            let inner = json::push_u64_field(out, true, "calls", stat.calls);
            let inner = json::push_u64_field(out, inner, "total_ns", stat.total_ns);
            let inner = json::push_u64_field(out, inner, "alloc_calls", stat.alloc_calls);
            let _ = json::push_u64_field(out, inner, "alloc_bytes", stat.alloc_bytes);
            out.push('}');
        }
        out.push('}');
    }
}

/// How the simulator's spans nest: every `(child, parent)` span runs
/// inside a span of `parent`. Phases not listed as a child are top level
/// and never overlap each other, so self times sum to the spanned wall.
pub const PHASE_NESTING: &[(&str, &str)] = &[
    ("order-queue", "schedule-cycle"),
    ("free-profile", "schedule-cycle"),
    ("backfill", "schedule-cycle"),
];

/// Self time of each phase given its inclusive total: the total minus
/// the totals of the phases nested directly inside it (per
/// [`PHASE_NESTING`]). Returned in the order of `inclusive`.
pub fn self_ns(inclusive: &[(&str, u64)]) -> Vec<u64> {
    inclusive
        .iter()
        .map(|&(name, ns)| {
            let nested: u64 = inclusive
                .iter()
                .filter(|&&(child, _)| {
                    PHASE_NESTING
                        .iter()
                        .any(|&(c, parent)| c == child && parent == name)
                })
                .map(|&(_, child_ns)| child_ns)
                .sum();
            ns.saturating_sub(nested)
        })
        .collect()
}

/// Named wall-clock span accumulator with a zero-cost disabled path.
#[derive(Clone, Debug, Default)]
pub struct PhaseProfiler {
    enabled: bool,
    snap: ProfileSnapshot,
}

impl PhaseProfiler {
    /// A profiler whose spans are no-ops (the default).
    pub fn disabled() -> Self {
        PhaseProfiler::default()
    }

    /// A collecting profiler.
    pub fn enabled() -> Self {
        PhaseProfiler {
            enabled: true,
            snap: ProfileSnapshot::default(),
        }
    }

    /// Whether spans are timed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span. Returns `None` (no clock read) when disabled; pass the
    /// token to [`end`](PhaseProfiler::end) to close it. With `alloc-count`
    /// on, the token also snapshots the process-global allocator tallies so
    /// the span's allocation activity can be attributed to its phase.
    #[inline]
    pub fn begin(&self) -> Option<SpanToken> {
        if self.enabled {
            Some(SpanToken {
                t0: Instant::now(),
                allocs: alloc::allocations_now(),
                bytes: alloc::bytes_allocated_now(),
            })
        } else {
            None
        }
    }

    /// Close a span opened by [`begin`](PhaseProfiler::begin), attributing
    /// the elapsed wall-clock time (and, with `alloc-count`, allocator
    /// activity) to `name`.
    #[inline]
    pub fn end(&mut self, name: &'static str, token: Option<SpanToken>) {
        if let Some(span) = token {
            let ns = u64::try_from(span.t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let stat = self.snap.phases.entry(name).or_default();
            stat.calls += 1;
            stat.total_ns = stat.total_ns.saturating_add(ns);
            stat.alloc_calls = stat
                .alloc_calls
                .saturating_add(alloc::allocations_now().wrapping_sub(span.allocs));
            stat.alloc_bytes = stat
                .alloc_bytes
                .saturating_add(alloc::bytes_allocated_now().wrapping_sub(span.bytes));
        }
    }

    /// Copy out the accumulated stats.
    pub fn snapshot(&self) -> ProfileSnapshot {
        self.snap.clone()
    }

    /// Cumulative wall nanos for one phase so far (0 when unseen). Feeds
    /// the flight recorder's per-cycle phase deltas without a snapshot
    /// clone per cycle.
    pub fn total_ns(&self, name: &'static str) -> u64 {
        self.snap.phases.get(name).map_or(0, |s| s.total_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_reads_the_clock() {
        let mut p = PhaseProfiler::disabled();
        let token = p.begin();
        assert!(token.is_none());
        p.end("phase", token);
        assert!(p.snapshot().phases.is_empty());
    }

    #[test]
    fn spans_accumulate_per_name() {
        let mut p = PhaseProfiler::enabled();
        for _ in 0..3 {
            let t = p.begin();
            p.end("cycle", t);
        }
        let t = p.begin();
        p.end("pump", t);
        let snap = p.snapshot();
        assert_eq!(snap.phases["cycle"].calls, 3);
        assert_eq!(snap.phases["pump"].calls, 1);
    }

    #[test]
    fn nested_spans_work() {
        let mut p = PhaseProfiler::enabled();
        let outer = p.begin();
        let inner = p.begin();
        p.end("inner", inner);
        p.end("outer", outer);
        let snap = p.snapshot();
        assert_eq!(snap.phases.len(), 2);
        assert!(snap.phases["outer"].total_ns >= snap.phases["inner"].total_ns);
    }

    #[test]
    fn self_time_subtracts_nested_phases_only() {
        let inclusive = [
            ("backfill", 2_000),
            ("event-pump", 4_000),
            ("order-queue", 4_000),
            ("schedule-cycle", 10_000),
        ];
        // schedule-cycle keeps 10 − 4 − 2; top-level and leaf phases keep
        // their inclusive time.
        assert_eq!(self_ns(&inclusive), vec![2_000, 4_000, 4_000, 4_000]);
        // A child whose parent is absent changes nothing.
        assert_eq!(self_ns(&[("backfill", 7)]), vec![7]);
    }

    #[test]
    fn json_shape() {
        let mut p = PhaseProfiler::enabled();
        let t = p.begin();
        p.end("a", t);
        let mut s = String::new();
        p.snapshot().write_json(&mut s);
        assert!(s.starts_with("{\"a\":{\"calls\":1,\"total_ns\":"), "{s}");
    }
}
