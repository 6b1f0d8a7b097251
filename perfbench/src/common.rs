//! What the three workloads share: the service under test, the closed-loop
//! runner with its tick schedule, latency samples, listener views and the
//! probe-phase listen round.

use crate::alloc::thread_allocs;
use crate::trace::{self, now_ns, Span, TimedGate, TimedObserver};
use firestore_core::{Caller, Consistency, Document, FirestoreDatabase, Query, Value, Write};
use realtime::view::ChangeKind;
use realtime::{Connection, ListenEvent};
use server::tenants::DbGate;
use server::{FirestoreService, ServiceOptions};
use simkit::{Duration, SimClock, SimRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

/// The one database every workload runs against.
pub const DB: &str = "app";

/// A fresh region with database [`DB`] provisioned, as an app developer
/// gets it: default service options, tenant gate and Real-time Cache
/// observer installed by `create_database`.
pub fn new_service() -> (FirestoreService, FirestoreDatabase) {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let svc = FirestoreService::new(clock, ServiceOptions::default());
    let db = svc.create_database(DB);
    (svc, db)
}

/// Replace the database's gate and observer with timed wrappers around a
/// fresh `DbGate` and the cache's own observer (the traced run only).
pub fn install_timing(svc: &FirestoreService, db: &FirestoreDatabase) {
    db.set_gate(Some(Arc::new(TimedGate(DbGate::new(
        DB,
        svc.tenants.clone(),
    )))));
    db.set_observer(Arc::new(TimedObserver(
        svc.realtime().observer_for(db.directory()),
    )));
}

/// Everything one phase measured.
#[derive(Default)]
pub struct Samples {
    /// Wall-clock ns per `get_document`.
    pub get: Vec<u64>,
    /// Wall-clock ns per `run_query`.
    pub query: Vec<u64>,
    /// Wall-clock ns per `commit`.
    pub commit: Vec<u64>,
    /// Commit start to the return of the poll delivering the change, one
    /// per (listener, change).
    pub notify: Vec<u64>,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Allocations made by the client threads.
    pub allocs: u64,
    /// Output checks that failed (the first few are kept).
    pub bad: Vec<String>,
    /// Number of failed output checks.
    pub bad_count: u64,
    /// Spans, one list per thread.
    pub spans: Vec<Vec<Span>>,
    /// `WriteStats` of successful commits.
    pub write_stats: Vec<firestore_core::write::WriteStats>,
}

impl Samples {
    /// Record a failed output check.
    pub fn bad(&mut self, msg: String) {
        self.bad_count += 1;
        if self.bad.len() < 8 {
            self.bad.push(msg);
        }
    }

    /// Check `cond`, recording `msg()` when it fails.
    pub fn expect(&mut self, cond: bool, msg: impl FnOnce() -> String) {
        if !cond {
            self.bad(msg());
        }
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: Samples) {
        self.get.extend(other.get);
        self.query.extend(other.query);
        self.commit.extend(other.commit);
        self.notify.extend(other.notify);
        self.ops += other.ops;
        self.failed += other.failed;
        self.allocs += other.allocs;
        self.bad_count += other.bad_count;
        for b in other.bad {
            if self.bad.len() < 8 {
                self.bad.push(b);
            }
        }
        self.spans.extend(other.spans);
        self.write_stats.extend(other.write_stats);
    }
}

/// Run `f`, returning its result and its wall time in ns.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = now_ns();
    let r = f();
    (r, now_ns() - t0)
}

/// A request id unique to (thread, sequence number).
pub fn request_id(thread: usize, seq: u64) -> u64 {
    ((thread as u64) << 48) | seq
}

/// Runs `FirestoreService::tick` on a fixed wall-clock schedule from inside
/// one client thread: the client calls [`Ticker::poll`] between requests,
/// and the tick runs once it is due. Ticking between requests of a client,
/// instead of on a thread of its own, keeps the number of runnable threads
/// at the number of clients, so a tick slows the other client only through
/// the locks it shares, not by taking its CPU.
pub struct Ticker<'a> {
    svc: &'a FirestoreService,
    every_ns: Option<u64>,
    next: u64,
    count: u64,
}

impl Ticker<'_> {
    /// Tick if a tick is due.
    pub fn poll(&mut self) {
        let Some(every) = self.every_ns else { return };
        if now_ns() < self.next {
            return;
        }
        self.count += 1;
        self.next += every;
        trace::set_request(request_id(0xFFFF, self.count));
        let _s = trace::span("service.tick");
        self.svc.tick();
    }
}

/// Run `threads` closed-loop clients for `seconds`, each calling
/// `body(thread, deadline_ns, ticker, samples)`, which must return once
/// [`now_ns`] passes the deadline and call `ticker.poll()` between
/// requests. With `tick_every` set, client 0's ticker runs
/// `FirestoreService::tick` on that schedule, as the serving layer's timer
/// would. Returns the merged samples and the measured wall time in seconds.
pub fn closed_loop<F>(
    svc: &FirestoreService,
    threads: usize,
    seconds: f64,
    traced: bool,
    tick_every: Option<std::time::Duration>,
    body: F,
) -> (Samples, f64)
where
    F: Fn(usize, u64, &mut Ticker, &mut Samples) + Sync,
{
    let barrier = Barrier::new(threads);
    let mut merged = Samples::default();
    let mut window = (u64::MAX, 0u64);
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, body) = (&barrier, &body);
                s.spawn(move || {
                    trace::enable(traced);
                    let mut out = Samples::default();
                    barrier.wait();
                    let start = now_ns();
                    let every_ns = tick_every.filter(|_| t == 0).map(|d| d.as_nanos() as u64);
                    let mut ticker = Ticker {
                        svc,
                        every_ns,
                        // Ticks fall mid-second: a short loop still ticks
                        // once per second of its run.
                        next: start + every_ns.unwrap_or(0) / 2,
                        count: 0,
                    };
                    let deadline = start + (seconds * 1e9) as u64;
                    let a0 = thread_allocs();
                    body(t, deadline, &mut ticker, &mut out);
                    out.allocs = thread_allocs() - a0;
                    let end = now_ns();
                    trace::enable(false);
                    out.spans.push(trace::take());
                    (out, start, end)
                })
            })
            .collect();
        for c in clients {
            let (out, start, end) = c.join().expect("client thread panicked");
            window = (window.0.min(start), window.1.max(end));
            merged.merge(out);
        }
    });
    (merged, (window.1 - window.0) as f64 / 1e9)
}

/// A listener's view of its query: document name → fields.
pub type View = BTreeMap<String, BTreeMap<String, Value>>;

/// Apply every snapshot in `events` to `view`. Returns the number of
/// document changes applied, not counting initial snapshots, and the
/// number of resets seen.
pub fn apply_events(view: &mut View, events: Vec<ListenEvent>) -> (u64, u64) {
    let (mut changes, mut resets) = (0, 0);
    for ev in events {
        match ev {
            ListenEvent::Snapshot {
                changes: deltas,
                is_initial,
                ..
            } => {
                if !is_initial {
                    changes += deltas.len() as u64;
                }
                for c in deltas {
                    let name = c.doc.name.to_string();
                    match c.kind {
                        ChangeKind::Added | ChangeKind::Modified => {
                            view.insert(name, c.doc.fields);
                        }
                        ChangeKind::Removed => {
                            view.remove(&name);
                        }
                    }
                }
            }
            ListenEvent::Reset { .. } => resets += 1,
        }
    }
    (changes, resets)
}

/// `docs` as a [`View`].
pub fn view_of(docs: &[Document]) -> View {
    docs.iter()
        .map(|d| (d.name.to_string(), d.fields.clone()))
        .collect()
}

/// Poll `conn` inside an `rtc.poll` span, apply its events to `view`, and
/// record one notify sample (poll return minus `commit_start`) per change.
/// Returns the number of changes delivered.
pub fn poll_into(conn: &Connection, view: &mut View, commit_start: u64, out: &mut Samples) -> u64 {
    let events = {
        let _s = trace::span("rtc.poll");
        conn.poll()
    };
    let returned = now_ns();
    let (changes, resets) = apply_events(view, events);
    out.expect(resets == 0, || format!("{resets} listener resets"));
    for _ in 0..changes {
        out.notify.push(returned - commit_start);
    }
    changes
}

/// The probe-phase listen round of the workloads whose closed loop has no
/// listeners: `listeners` connections listen on `query`, then for about
/// `seconds`, cycles of one commit (built by `make_commit`, which must change exactly
/// one document of the result set and keep it in the set), one Real-time
/// Cache heartbeat (`RealtimeCache::tick`, so that the samples measure the
/// real-time path rather than the service tick's storage scan, which
/// `server.tick_ms` reports), and a poll of every connection. Checks that
/// every listener hears every change exactly once and ends with the same
/// view as a fresh `run_query`; the connections are closed afterwards.
pub fn listen_round(
    svc: &FirestoreService,
    db: &FirestoreDatabase,
    query: &Query,
    listeners: usize,
    seconds: f64,
    mut make_commit: impl FnMut(usize) -> Vec<Write>,
    out: &mut Samples,
) {
    let mut rng = SimRng::new(0x11);
    let mut conns: Vec<(Connection, View)> = Vec::with_capacity(listeners);
    for i in 0..listeners {
        let conn = svc.connect();
        trace::set_request(request_id(0, 1 << 40 | i as u64));
        let listened = {
            let _s = trace::span("service.listen");
            svc.listen(DB, &conn, query.clone(), &Caller::Service)
        };
        out.ops += 1;
        if let Err(e) = listened {
            out.failed += 1;
            out.bad(format!("listen failed: {e}"));
            for (c, _) in conns {
                c.close();
            }
            return;
        }
        let mut view = View::new();
        apply_events(&mut view, conn.poll());
        conns.push((conn, view));
    }
    let mut delivered = 0u64;
    let deadline = now_ns() + (seconds * 1e9) as u64;
    let mut commits = 0;
    while now_ns() < deadline {
        let c = commits;
        commits += 1;
        trace::set_request(request_id(0, 1 << 41 | c as u64));
        let t0 = now_ns();
        let committed = {
            let _s = trace::span("service.commit");
            svc.commit(DB, make_commit(c), &Caller::Service, &mut rng)
        };
        out.ops += 1;
        match committed {
            Ok(_) => out.commit.push(now_ns() - t0),
            Err(e) => {
                out.failed += 1;
                out.bad(format!("listen-round commit failed: {e}"));
            }
        }
        {
            let _s = trace::span("rtc.tick");
            svc.realtime().tick();
        }
        for (conn, view) in conns.iter_mut() {
            delivered += poll_into(conn, view, t0, out);
        }
    }
    let expected = (listeners * commits) as u64;
    out.expect(delivered == expected, || {
        format!("listen round delivered {delivered} changes, expected {expected}")
    });
    match db.run_query(query, Consistency::Strong, &Caller::Service) {
        Ok(r) => {
            let fresh = view_of(&r.documents);
            let stale = conns.iter().filter(|(_, v)| *v != fresh).count();
            out.expect(stale == 0, || {
                format!("{stale} listener views differ from a fresh run_query")
            });
        }
        Err(e) => out.bad(format!("fresh run_query failed: {e}")),
    }
    for (conn, _) in conns {
        conn.close();
    }
}

/// A deterministic 64-bit hash of `(seed, a, b)` (splitmix64 finalizer).
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `len`-byte printable payload determined by `(seed, id)`.
pub fn payload(seed: u64, id: u64, len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    (0..len)
        .map(|i| {
            let h = mix(seed, id, 1000 + (i / 8) as u64) >> ((i % 8) * 8);
            ALPHABET[(h % ALPHABET.len() as u64) as usize] as char
        })
        .collect()
}
