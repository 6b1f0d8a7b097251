//! `write_index`: a backend service updating documents with many indexed
//! fields.
//!
//! 20,000 preloaded `/docs` documents of 10 fields. Two closed-loop clients
//! commit 1–4 whole-document updates each, as `Caller::Service`, over
//! disjoint key partitions, so every write is an update that produces index
//! diffs. No listeners and no rules on the loop's path.

use crate::common::{self, closed_loop, listen_round, mix, request_id, Samples, DB};
use crate::trace::{self, now_ns};
use crate::Workload;
use firestore_core::database::doc;
use firestore_core::{Caller, DocumentName, FilterOp, FirestoreDatabase, Query, Value, Write};
use rules::AuthContext;
use server::FirestoreService;
use simkit::SimRng;
use std::sync::Mutex;

const DOCS: u64 = 20_000;
const GROUPS: u64 = 1_000;
const VALUES: usize = 8;
const THREADS: usize = 2;
const TICK_EVERY: std::time::Duration = std::time::Duration::from_secs(1);

const RULES: &str = r#"
service cloud.firestore {
  match /databases/{database}/documents {
    match /docs/{d} {
      allow read: if request.auth != null;
    }
  }
}
"#;

/// The values of `f0..f7` the benchmark last wrote to each document.
type Model = Vec<[i64; VALUES]>;

pub struct WriteIndex {
    svc: FirestoreService,
    db: FirestoreDatabase,
    seed: u64,
    model: Mutex<Model>,
    /// Probe slices run so far (varies each slice's keys).
    probes: u64,
}

fn name(i: u64) -> DocumentName {
    doc(&format!("/docs/d{i:05}"))
}

fn doc_write(i: u64, vals: &[i64; VALUES]) -> Write {
    const F: [&str; VALUES] = ["f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"];
    let mut fields: Vec<(&str, Value)> = vec![
        ("g", Value::Int((i % GROUPS) as i64)),
        ("p", Value::Int((i % THREADS as u64) as i64)),
    ];
    fields.extend(F.iter().zip(vals).map(|(f, v)| (*f, Value::Int(*v))));
    Write::set(name(i), fields)
}

fn random_vals(rng: &mut SimRng) -> [i64; VALUES] {
    std::array::from_fn(|_| rng.gen_range(1_000_000) as i64)
}

fn vals_of(fields: &std::collections::BTreeMap<String, Value>) -> Option<[i64; VALUES]> {
    let mut out = [0; VALUES];
    for (k, v) in out.iter_mut().enumerate() {
        match fields.get(&format!("f{k}")) {
            Some(Value::Int(x)) => *v = *x,
            _ => return None,
        }
    }
    Some(out)
}

impl WriteIndex {
    /// Get document `i` and check it holds the last write.
    fn check_get(&self, i: u64, model: &Model, rng: &mut SimRng, out: &mut Samples) {
        let n = name(i);
        let (got, lat) = common::timed(|| self.svc.get_document(DB, &n, &Caller::Service, rng));
        match got {
            Ok((Some(d), _)) => {
                out.get.push(lat);
                out.expect(vals_of(&d.fields) == Some(model[i as usize]), || {
                    format!("{n} does not hold the last write")
                });
            }
            Ok((None, _)) => out.bad(format!("{n} is missing")),
            Err(_) => out.failed += 1,
        }
    }

    /// Query group `g` and check it returns exactly its members, in name
    /// order, holding the last writes.
    fn check_group(&self, g: u64, model: &Model, rng: &mut SimRng, out: &mut Samples) {
        let q = Query::parse("/docs")
            .expect("valid collection")
            .filter("g", FilterOp::Eq, g as i64)
            .limit(20);
        let (ran, lat) = common::timed(|| self.svc.run_query(DB, &q, &Caller::Service, rng));
        match ran {
            Ok((res, _)) => {
                out.query.push(lat);
                let want: Vec<u64> = (0..DOCS / GROUPS).map(|k| g + k * GROUPS).collect();
                let ok = res.documents.len() == want.len()
                    && res.documents.iter().zip(&want).all(|(d, &i)| {
                        d.name == name(i) && vals_of(&d.fields) == Some(model[i as usize])
                    });
                out.expect(ok, || {
                    format!("group {g} query does not match the last writes")
                });
            }
            Err(_) => out.failed += 1,
        }
    }
}

impl Workload for WriteIndex {
    fn setup(seed: u64) -> Self {
        let (svc, db) = common::new_service();
        svc.set_rules(DB, RULES).expect("rules compile");
        let mut rng = SimRng::new(seed);
        let model: Model = (0..DOCS).map(|_| random_vals(&mut rng)).collect();
        for (c, chunk) in model.chunks(500).enumerate() {
            let writes = chunk
                .iter()
                .enumerate()
                .map(|(k, v)| doc_write((c * 500 + k) as u64, v))
                .collect();
            db.commit_writes(writes, &Caller::Service)
                .expect("preload docs");
        }
        WriteIndex {
            svc,
            db,
            seed,
            model: Mutex::new(model),
            probes: 0,
        }
    }

    fn svc(&self) -> &FirestoreService {
        &self.svc
    }

    fn db(&self) -> &FirestoreDatabase {
        &self.db
    }

    fn run_loop(&mut self, seconds: f64, traced: bool, phase: u64) -> (Samples, f64) {
        let (svc, seed, model) = (&self.svc, self.seed, &self.model);
        closed_loop(
            svc,
            THREADS,
            seconds,
            traced,
            Some(TICK_EVERY),
            |t, deadline, ticker, out| {
                let mut rng = SimRng::new(mix(seed, phase, t as u64));
                let mut srng = SimRng::new(mix(seed, phase, 100 + t as u64));
                let mut last: Vec<(u64, [i64; VALUES])> = Vec::new();
                let mut seq = 0u64;
                while now_ns() < deadline {
                    ticker.poll();
                    seq += 1;
                    trace::set_request(request_id(t, phase << 40 | seq));
                    out.ops += 1;
                    let n = 1 + rng.gen_range(4) as usize;
                    let mut keys: Vec<u64> = Vec::with_capacity(n);
                    while keys.len() < n {
                        // Thread `t` owns the keys with `i % THREADS == t`.
                        let i = rng.gen_range(DOCS / THREADS as u64) * THREADS as u64 + t as u64;
                        if !keys.contains(&i) {
                            keys.push(i);
                        }
                    }
                    let vals: Vec<[i64; VALUES]> =
                        keys.iter().map(|_| random_vals(&mut rng)).collect();
                    let writes = keys
                        .iter()
                        .zip(&vals)
                        .map(|(&i, v)| doc_write(i, v))
                        .collect();
                    let t0 = now_ns();
                    let committed = {
                        let _s = trace::span("service.commit");
                        svc.commit(DB, writes, &Caller::Service, &mut srng)
                    };
                    let dt = now_ns() - t0;
                    match committed {
                        Ok((res, _)) => {
                            out.commit.push(dt);
                            out.write_stats.push(res.stats);
                            last.extend(keys.into_iter().zip(vals));
                        }
                        Err(_) => out.failed += 1,
                    }
                }
                let mut m = model.lock().expect("model lock poisoned");
                for (i, v) in last {
                    m[i as usize] = v;
                }
            },
        )
    }

    fn probe(&mut self, seconds: f64) -> Samples {
        let mut out = Samples::default();
        let model = self.model.lock().expect("model lock poisoned").clone();
        self.probes += 1;
        let mut rng = SimRng::new(mix(self.seed, 8, self.probes));
        // For half the time, four gets then one group query, each checked
        // against the last writes.
        let deadline = now_ns() + (seconds / 2.0 * 1e9) as u64;
        let mut k = 0u64;
        while now_ns() < deadline {
            k += 1;
            out.ops += 1;
            if k.is_multiple_of(5) {
                self.check_group(rng.gen_range(GROUPS), &model, &mut rng, &mut out);
            } else {
                self.check_get(rng.gen_range(DOCS), &model, &mut rng, &mut out);
            }
        }
        // Then a listen round on one group; its writes go into the model.
        let g0 = mix(self.seed, 3, 3) % GROUPS;
        let q =
            Query::parse("/docs")
                .expect("valid collection")
                .filter("g", FilterOp::Eq, g0 as i64);
        let mut wrng = SimRng::new(mix(self.seed, 4, self.probes));
        let model = &self.model;
        listen_round(
            &self.svc,
            &self.db,
            &q,
            20,
            seconds / 2.0,
            |k| {
                let i = g0 + (k as u64 % (DOCS / GROUPS)) * GROUPS;
                let vals = random_vals(&mut wrng);
                model.lock().expect("model lock poisoned")[i as usize] = vals;
                vec![doc_write(i, &vals)]
            },
            &mut out,
        );
        out
    }

    fn check(&mut self) -> Samples {
        let mut out = Samples::default();
        let model = self.model.lock().expect("model lock poisoned").clone();
        let mut rng = SimRng::new(mix(self.seed, 9, 9));
        // A seeded sample of keys and groups must read back the clients'
        // last writes, and no document may be lost or added.
        for _ in 0..2_000 {
            out.ops += 1;
            self.check_get(rng.gen_range(DOCS), &model, &mut rng, &mut out);
        }
        for _ in 0..500 {
            out.ops += 1;
            self.check_group(rng.gen_range(GROUPS), &model, &mut rng, &mut out);
        }
        match self.db.storage_stats() {
            Ok((live, _)) => out.expect(live as u64 == DOCS, || {
                format!("{live} live documents, expected {DOCS}")
            }),
            Err(e) => out.bad(format!("storage_stats failed: {e}")),
        }
        out
    }

    fn replay_keys(&self, n: usize, rng: &mut SimRng) -> Vec<DocumentName> {
        (0..n).map(|_| name(rng.gen_range(DOCS))).collect()
    }

    fn replay_queries(&self, n: usize, rng: &mut SimRng) -> Vec<Query> {
        (0..n)
            .map(|_| {
                Query::parse("/docs")
                    .expect("valid collection")
                    .filter("g", FilterOp::Eq, rng.gen_range(GROUPS) as i64)
                    .limit(20)
            })
            .collect()
    }

    fn replay_commit(&mut self, rng: &mut SimRng) -> Vec<Write> {
        let n = 1 + rng.gen_range(4);
        let mut keys: Vec<u64> = Vec::new();
        while (keys.len() as u64) < n {
            let i = rng.gen_range(DOCS);
            if !keys.contains(&i) {
                keys.push(i);
            }
        }
        keys.iter()
            .map(|&i| doc_write(i, &random_vals(rng)))
            .collect()
    }

    fn end_user(&self) -> Caller {
        Caller::EndUser(Some(AuthContext::uid("u0")))
    }
}
