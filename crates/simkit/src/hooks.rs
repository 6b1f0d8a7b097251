//! The test seam of a stack, fixed when the stack is built: every layer
//! reads the same [`Hooks`] value, without a lock, and nothing can swap it.
//! Chaos for part of a run is switched with [`FaultInjector::arm`] /
//! [`FaultInjector::disarm`] and [`CrashPoints::arm`] / [`CrashPoints::disarm`].

use crate::clock::Duration;
use crate::disk::CrashPoints;
use crate::fault::{FaultInjector, FaultKind};
use crate::history::{HistoryEvent, HistoryRecorder};
use std::sync::Arc;

/// A deliberately seeded bug that a checker (the consistency oracle or the
/// perf gate) must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Spanner serves snapshot reads this much earlier than the requested
    /// timestamp while recording the requested one.
    StaleReads(Duration),
    /// The Real-time Cache drops the first `n` committed changes at the
    /// Changelog → Query Matcher hop.
    DropChanges(u64),
    /// The Real-time Cache delivers one snapshot after a newer one.
    ReorderDelivery,
    /// The commit path skips the dedup-ledger lookup, so a retried client
    /// mutation applies twice.
    IgnoreDedupLedger,
    /// Every redo-log fsync charges this much extra simulated time.
    FsyncPadding(Duration),
}

/// Everything a harness plugs into a stack. `Hooks::default()` is
/// production: no faults, no crash points, no recording, no seeded bug.
#[derive(Clone, Debug, Default)]
pub struct Hooks {
    /// Chaos injector consulted at every injection site of every layer.
    pub faults: Option<Arc<FaultInjector>>,
    /// Crash-point registry consulted inside the Spanner commit path.
    pub crash_points: Option<CrashPoints>,
    /// Consistency-oracle recorder every layer appends to.
    pub history: Option<Arc<HistoryRecorder>>,
    /// The seeded bug, if any.
    pub mutation: Option<Mutation>,
}

impl Hooks {
    /// Whether a fault of `kind` fires at `site` (never without faults).
    pub fn inject(&self, kind: FaultKind, site: &'static str) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.should_inject(kind, site))
    }

    /// Record `event` if a history recorder is present.
    pub fn record(&self, event: HistoryEvent) {
        if let Some(h) = &self.history {
            h.record(event);
        }
    }
}
