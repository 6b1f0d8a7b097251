//! `listen_fanout`: many real-time listeners on channel queries.
//!
//! 2,000 `/msgs` documents over 100 channels and 2,000 connections, each
//! listening on `/msgs where channel == chN` (20 listeners and 20 documents
//! per channel). One client thread repeats a cycle: commit one document,
//! `FirestoreService::tick`, poll every connection.

use crate::common::{self, apply_events, mix, payload, poll_into, request_id, Samples, View, DB};
use crate::trace::{self, now_ns};
use crate::Workload;
use firestore_core::database::doc;
use firestore_core::{Caller, DocumentName, FilterOp, FirestoreDatabase, Query, Value, Write};
use realtime::Connection;
use rules::AuthContext;
use server::FirestoreService;
use simkit::SimRng;

const DOCS: u64 = 2_000;
const CHANNELS: u64 = 100;
const LISTENERS: usize = 2_000;

const RULES: &str = r#"
service cloud.firestore {
  match /databases/{database}/documents {
    match /msgs/{m} {
      allow read: if request.auth != null;
    }
  }
}
"#;

pub struct ListenFanout {
    svc: FirestoreService,
    db: FirestoreDatabase,
    seed: u64,
    /// Each connection, the channel it listens on, and its view.
    listeners: Vec<(Connection, u64, View)>,
    /// The `seq` each document last got.
    model: Vec<i64>,
    /// Commits made by the loop so far, and changes the listeners heard.
    commits: u64,
    heard: u64,
}

fn msg(i: u64) -> DocumentName {
    doc(&format!("/msgs/m{i:04}"))
}

fn msg_write(seed: u64, i: u64, seq: i64) -> Write {
    Write::set(
        msg(i),
        [
            ("channel", Value::Str(format!("ch{:02}", i % CHANNELS))),
            ("seq", Value::Int(seq)),
            ("body", Value::Str(payload(seed, i, 100))),
        ],
    )
}

fn channel_query(c: u64) -> Query {
    Query::parse("/msgs").expect("valid collection").filter(
        "channel",
        FilterOp::Eq,
        format!("ch{c:02}").as_str(),
    )
}

impl ListenFanout {
    /// Query channel `c` and check every listener of it holds that view.
    fn check_channel(&self, c: u64, rng: &mut SimRng, out: &mut Samples) {
        let q = channel_query(c);
        let (ran, lat) = common::timed(|| self.svc.run_query(DB, &q, &Caller::Service, rng));
        match ran {
            Ok((res, _)) => {
                out.query.push(lat);
                let fresh = common::view_of(&res.documents);
                let stale = self
                    .listeners
                    .iter()
                    .filter(|(_, lc, v)| *lc == c && *v != fresh)
                    .count();
                out.expect(stale == 0, || {
                    format!("{stale} listeners of ch{c:02} differ from run_query")
                });
            }
            Err(_) => out.failed += 1,
        }
    }

    /// Get document `i` and check it holds its last write.
    fn check_doc(&self, i: u64, rng: &mut SimRng, out: &mut Samples) {
        let n = msg(i);
        let (got, lat) = common::timed(|| self.svc.get_document(DB, &n, &Caller::Service, rng));
        match got {
            Ok((Some(d), _)) => {
                out.get.push(lat);
                let want = Value::Int(self.model[i as usize]);
                out.expect(d.fields.get("seq") == Some(&want), || {
                    format!("{n} does not hold its last write")
                });
            }
            Ok((None, _)) => out.bad(format!("{n} is missing")),
            Err(_) => out.failed += 1,
        }
    }
}

impl Workload for ListenFanout {
    fn setup(seed: u64) -> Self {
        let (svc, db) = common::new_service();
        svc.set_rules(DB, RULES).expect("rules compile");
        for chunk in (0..DOCS).collect::<Vec<_>>().chunks(500) {
            let writes = chunk.iter().map(|&i| msg_write(seed, i, 0)).collect();
            db.commit_writes(writes, &Caller::Service)
                .expect("load msgs");
        }
        let mut listeners = Vec::with_capacity(LISTENERS);
        for j in 0..LISTENERS {
            let c = j as u64 % CHANNELS;
            let conn = svc.connect();
            trace::set_request(request_id(0, 1 << 42 | j as u64));
            {
                let _s = trace::span("service.listen");
                svc.listen(DB, &conn, channel_query(c), &Caller::Service)
                    .expect("listener registered");
            }
            let mut view = View::new();
            apply_events(&mut view, conn.poll());
            assert_eq!(view.len() as u64, DOCS / CHANNELS, "initial snapshot size");
            listeners.push((conn, c, view));
        }
        ListenFanout {
            svc,
            db,
            seed,
            listeners,
            model: vec![0; DOCS as usize],
            commits: 0,
            heard: 0,
        }
    }

    fn svc(&self) -> &FirestoreService {
        &self.svc
    }

    fn db(&self) -> &FirestoreDatabase {
        &self.db
    }

    fn run_loop(&mut self, seconds: f64, traced: bool, phase: u64) -> (Samples, f64) {
        trace::enable(traced);
        let mut out = Samples::default();
        let mut rng = SimRng::new(mix(self.seed, phase, 0));
        let mut srng = SimRng::new(mix(self.seed, phase, 100));
        let start = now_ns();
        let deadline = start + (seconds * 1e9) as u64;
        let a0 = crate::alloc::thread_allocs();
        let mut seq = 0u64;
        while now_ns() < deadline {
            seq += 1;
            trace::set_request(request_id(0, phase << 40 | seq));
            out.ops += 1;
            let i = rng.gen_range(DOCS);
            let next = self.model[i as usize] + 1;
            let w = msg_write(self.seed, i, next);
            let t0 = now_ns();
            let committed = {
                let _s = trace::span("service.commit");
                self.svc.commit(DB, vec![w], &Caller::Service, &mut srng)
            };
            match committed {
                Ok((res, _)) => {
                    out.commit.push(now_ns() - t0);
                    out.write_stats.push(res.stats);
                    self.model[i as usize] = next;
                    self.commits += 1;
                }
                Err(_) => out.failed += 1,
            }
            {
                let _s = trace::span("service.tick");
                self.svc.tick();
            }
            for (conn, _, view) in self.listeners.iter_mut() {
                self.heard += poll_into(conn, view, t0, &mut out);
            }
        }
        out.allocs = crate::alloc::thread_allocs() - a0;
        let elapsed = (now_ns() - start) as f64 / 1e9;
        trace::enable(false);
        out.spans.push(trace::take());
        (out, elapsed)
    }

    fn probe(&mut self, seconds: f64) -> Samples {
        // The loop sends only commits: round-robin channel queries (one per
        // four gets) measure reads, each checked against the listeners'
        // views and the documents' last writes.
        let mut out = Samples::default();
        let mut rng = SimRng::new(mix(self.seed, 8, 8));
        let deadline = now_ns() + (seconds * 1e9) as u64;
        let (mut queries, mut gets) = (0u64, 0u64);
        while now_ns() < deadline {
            out.ops += 1;
            if (queries + gets) % 5 == 0 {
                self.check_channel(queries % CHANNELS, &mut rng, &mut out);
                queries += 1;
            } else {
                self.check_doc(gets % DOCS, &mut rng, &mut out);
                gets += 1;
            }
        }
        out
    }

    fn check(&mut self) -> Samples {
        let mut out = Samples::default();
        let per_channel = (LISTENERS as u64 / CHANNELS) * self.commits;
        out.expect(self.heard == per_channel, || {
            format!(
                "listeners heard {} changes, expected {per_channel}",
                self.heard
            )
        });
        // Every listener's view equals a fresh run_query of its channel,
        // and every document holds its last write.
        let mut rng = SimRng::new(mix(self.seed, 9, 9));
        for c in 0..CHANNELS {
            out.ops += 1;
            self.check_channel(c, &mut rng, &mut out);
        }
        for i in 0..DOCS {
            out.ops += 1;
            self.check_doc(i, &mut rng, &mut out);
        }
        out
    }

    fn replay_keys(&self, n: usize, rng: &mut SimRng) -> Vec<DocumentName> {
        (0..n).map(|_| msg(rng.gen_range(DOCS))).collect()
    }

    fn replay_queries(&self, n: usize, rng: &mut SimRng) -> Vec<Query> {
        (0..n)
            .map(|_| channel_query(rng.gen_range(CHANNELS)).limit(20))
            .collect()
    }

    fn replay_commit(&mut self, rng: &mut SimRng) -> Vec<Write> {
        let i = rng.gen_range(DOCS);
        self.model[i as usize] += 1;
        vec![msg_write(self.seed, i, self.model[i as usize])]
    }

    fn end_user(&self) -> Caller {
        Caller::EndUser(Some(AuthContext::uid("u0")))
    }
}
