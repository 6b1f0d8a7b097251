//! The benchmark's own tracing: spans recorded around calls into each layer.
//!
//! Spans live in per-thread memory (no shared span stack, so spans from
//! concurrent client threads never mis-parent) and are collected when each
//! thread finishes. Recording is off unless the thread enables it; a
//! disabled [`span`] costs one thread-local read.
//!
//! [`TimedGate`] and [`TimedObserver`] wrap the service's tenant gate and
//! Real-time Cache observer and are installed through the public
//! `set_gate` / `set_observer` seams, which is how the benchmark sees inside
//! a `FirestoreService::commit` without changing program code.

use crate::alloc::thread_allocs;
use firestore_core::observer::PrepareUnavailable;
use firestore_core::observer::{CommitObserver, CommitOutcome, DocumentChange, PrepareToken};
use firestore_core::{DocumentName, FirestoreResult, GatedOp, RequestClass, TenantGate};
use realtime::cache::DatabaseObserver;
use server::tenants::DbGate;
use simkit::Timestamp;
use std::cell::RefCell;
use std::io::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in its thread's list.
    pub id: u32,
    /// Layer boundary name, e.g. `service.commit` or `rtc.accept`.
    pub name: &'static str,
    /// Request the span belongs to; spans of one request share it.
    pub req: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, from [`now_ns`].
    pub start: u64,
    /// End, from [`now_ns`].
    pub end: u64,
    /// The thread's allocation counter at start.
    pub allocs_start: u64,
    /// The thread's allocation counter at end.
    pub allocs_end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct Recorder {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turn recording on or off for the calling thread. Turning it on reserves
/// room so the recorder's own growth rarely allocates inside a span.
pub fn enable(on: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        if on {
            r.spans.reserve(1 << 16);
        }
    });
}

/// Set the request id stamped on the calling thread's next spans.
pub fn set_request(req: u64) {
    REC.with(|r| r.borrow_mut().req = req);
}

/// Take the calling thread's recorded spans.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.stack.clear();
        std::mem::take(&mut r.spans)
    })
}

/// An open span; it ends when dropped.
pub struct Guard(Option<u32>);

/// Open a span named `name` under the calling thread's innermost open span.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let id = r.spans.len() as u32;
        let parent = r.stack.last().copied();
        let req = r.req;
        r.spans.push(Span {
            id,
            name,
            req,
            parent,
            start: 0,
            end: 0,
            allocs_start: 0,
            allocs_end: 0,
        });
        r.stack.push(id);
        let s = &mut r.spans[id as usize];
        s.allocs_start = thread_allocs();
        s.start = now_ns();
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let end = now_ns();
        let allocs = thread_allocs();
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let s = &mut r.spans[id as usize];
            s.end = end;
            s.allocs_end = allocs;
            r.stack.pop();
        });
    }
}

/// Write `spans` (one list per thread) as tab-separated lines:
/// `thread id parent req name start_ns end_ns allocs`.
pub fn write_spans(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "thread\tid\tparent\treq\tname\tstart_ns\tend_ns\tallocs"
    )?;
    for (t, spans) in threads.iter().enumerate() {
        for s in spans {
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".into());
            writeln!(
                out,
                "{t}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.req,
                s.name,
                s.start,
                s.end,
                s.allocs_end - s.allocs_start
            )?;
        }
    }
    out.flush()
}

/// The service's tenant gate with a `server.gate` span around each check.
pub struct TimedGate(pub DbGate);

impl TenantGate for TimedGate {
    fn check(&self, op: GatedOp, class: RequestClass) -> FirestoreResult<()> {
        let _s = span("server.gate");
        self.0.check(op, class)
    }
}

/// The Real-time Cache's commit observer with `rtc.prepare` / `rtc.accept`
/// spans around each phase.
pub struct TimedObserver(pub Arc<DatabaseObserver>);

impl CommitObserver for TimedObserver {
    fn prepare(
        &self,
        names: &[DocumentName],
        max_ts: Timestamp,
    ) -> Result<(PrepareToken, Timestamp), PrepareUnavailable> {
        let _s = span("rtc.prepare");
        self.0.prepare(names, max_ts)
    }

    fn accept(&self, token: PrepareToken, outcome: CommitOutcome, changes: Vec<DocumentChange>) {
        let _s = span("rtc.accept");
        self.0.accept(token, outcome, changes)
    }
}

/// One traced `FirestoreService::commit`, cut at the layer boundaries the
/// benchmark can see. The six `*_ns` parts sum to `total_ns` exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommitParts {
    /// The whole `service.commit` call.
    pub total_ns: u64,
    /// Service code before the gate and after Accept (admission, billing,
    /// cost model, obs).
    pub server_self_ns: u64,
    /// The tenant gate.
    pub gate_ns: u64,
    /// Gate end to Prepare start: validation, locking reads, rules, index
    /// diffs.
    pub pre_prepare_ns: u64,
    /// The Real-time Cache Prepare.
    pub prepare_ns: u64,
    /// Prepare end to Accept start: exactly `SpannerDatabase::commit`.
    pub spanner_ns: u64,
    /// The Real-time Cache Accept (matching and fanout).
    pub accept_ns: u64,
    /// Allocations in the server-self part.
    pub server_self_allocs: u64,
    /// Allocations between gate end and Prepare start.
    pub pre_prepare_allocs: u64,
    /// Allocations inside the Spanner commit.
    pub spanner_allocs: u64,
    /// Allocations inside Accept.
    pub accept_allocs: u64,
}

/// Decompose every `service.commit` span in `spans` (one thread's list).
/// Errors name the first commit whose children are missing, duplicated or
/// out of order, or whose parts do not sum to its duration.
pub fn commit_parts(spans: &[Span]) -> Result<Vec<CommitParts>, String> {
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push(s.id);
        }
    }
    let mut out = Vec::new();
    for root in spans.iter().filter(|s| s.name == "service.commit") {
        let kids: Vec<&Span> = children[root.id as usize]
            .iter()
            .map(|&i| &spans[i as usize])
            .collect();
        let names: Vec<&str> = kids.iter().map(|s| s.name).collect();
        let [g, p, a] = kids[..] else {
            return Err(format!("request {}: children {names:?}", root.req));
        };
        if names != ["server.gate", "rtc.prepare", "rtc.accept"] {
            return Err(format!("request {}: children {names:?}", root.req));
        }
        if kids.iter().any(|k| k.req != root.req) {
            return Err(format!("request {}: child of another request", root.req));
        }
        let marks = [
            root.start, g.start, g.end, p.start, p.end, a.start, a.end, root.end,
        ];
        if marks.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!(
                "request {}: boundaries out of order {marks:?}",
                root.req
            ));
        }
        let parts = CommitParts {
            total_ns: root.dur(),
            server_self_ns: (g.start - root.start) + (root.end - a.end),
            gate_ns: g.dur(),
            pre_prepare_ns: p.start - g.end,
            prepare_ns: p.dur(),
            spanner_ns: a.start - p.end,
            accept_ns: a.dur(),
            server_self_allocs: (g.allocs_start - root.allocs_start)
                + (root.allocs_end - a.allocs_end),
            pre_prepare_allocs: p.allocs_start - g.allocs_end,
            spanner_allocs: a.allocs_start - p.allocs_end,
            accept_allocs: a.allocs_end - a.allocs_start,
        };
        let sum = parts.server_self_ns
            + parts.gate_ns
            + parts.pre_prepare_ns
            + parts.prepare_ns
            + parts.spanner_ns
            + parts.accept_ns;
        if sum != parts.total_ns {
            return Err(format!(
                "request {}: parts sum to {sum} ns, span is {} ns",
                root.req, parts.total_ns
            ));
        }
        out.push(parts);
    }
    Ok(out)
}

/// Durations (ns) of every span named `name` across `threads`.
pub fn durations(threads: &[Vec<Span>], name: &str) -> Vec<u64> {
    threads
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}
