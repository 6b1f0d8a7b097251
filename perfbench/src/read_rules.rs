//! `read_rules`: end users reading an app's catalogue under security rules.
//!
//! 50,000 `/items` documents (5 fields, ~200 B payload) with one composite
//! index `category asc, price desc`. Two closed-loop clients, each signed in
//! as its own end user, send 80% `get_document`, 15% limit-20 `run_query`
//! (half eq + order-by on the composite index, half eq + eq zig-zag) and 5%
//! `commit` updating one item the user owns. No listeners in the loop.

use crate::common::{self, closed_loop, listen_round, mix, payload, request_id, Samples, DB};
use crate::trace::{self, now_ns};
use crate::Workload;
use firestore_core::database::{create_index_blocking, doc};
use firestore_core::index::IndexedField;
use firestore_core::{
    Caller, Direction, Document, DocumentName, FilterOp, FirestoreDatabase, Query, Value, Write,
};
use rules::AuthContext;
use server::FirestoreService;
use simkit::SimRng;

const ITEMS: u64 = 50_000;
const CATEGORIES: u64 = 100;
const TAGS: u64 = 25;
const THREADS: usize = 2;
const TICK_EVERY: std::time::Duration = std::time::Duration::from_secs(1);

const RULES: &str = r#"
service cloud.firestore {
  match /databases/{database}/documents {
    match /items/{item} {
      allow get: if request.auth != null;
      allow list: if request.auth != null && resource.data.price >= 0;
      allow update: if request.auth != null
                    && resource.data.owner == request.auth.uid
                    && request.resource.data.owner == request.auth.uid;
    }
  }
}
"#;

pub struct ReadRules {
    svc: FirestoreService,
    db: FirestoreDatabase,
    seed: u64,
    /// Probe slices run so far (varies each slice's writes).
    probes: u64,
}

fn item(i: u64) -> DocumentName {
    doc(&format!("/items/i{i:06}"))
}

// Category and tag are laid out so that every category holds 500 items
// and every (category, tag) pair exactly 20, whatever the seed: query and
// fanout costs then do not depend on the seed.
fn category(i: u64) -> String {
    format!("c{:02}", i % CATEGORIES)
}

fn tag(i: u64) -> String {
    format!("t{:02}", (i / CATEGORIES) % TAGS)
}

fn item_write(seed: u64, i: u64, price: i64) -> Write {
    Write::set(
        item(i),
        [
            ("category", Value::Str(category(i))),
            ("tag", Value::Str(tag(i))),
            ("price", Value::Int(price)),
            ("owner", Value::Str(format!("u{}", i % THREADS as u64))),
            ("payload", Value::Str(payload(seed, i, 200))),
        ],
    )
}

fn field<'a>(d: &'a Document, f: &str) -> Option<&'a Value> {
    d.fields.get(f)
}

/// One app query: eq + order-by (composite index) or eq + eq (zig-zag).
fn app_query(rng: &mut SimRng) -> (Query, String, Option<String>) {
    let c = format!("c{:02}", rng.gen_range(CATEGORIES));
    let q = Query::parse("/items").expect("valid collection");
    if rng.gen_range(3) != 0 {
        let q = q
            .filter("category", FilterOp::Eq, c.as_str())
            .order_by("price", Direction::Desc)
            .limit(20);
        (q, c, None)
    } else {
        let t = format!("t{:02}", rng.gen_range(TAGS));
        let q = q
            .filter("category", FilterOp::Eq, c.as_str())
            .filter("tag", FilterOp::Eq, t.as_str())
            .limit(20);
        (q, c, Some(t))
    }
}

/// Check one query result: at most 20 documents, all matching the filters,
/// in price-descending order (composite) or name order (zig-zag).
fn check_query(docs: &[Document], c: &str, t: Option<&str>, out: &mut Samples) {
    out.expect(docs.len() <= 20, || {
        format!("query returned {} docs", docs.len())
    });
    let want_c = Value::Str(c.to_string());
    let matches = docs.iter().all(|d| {
        field(d, "category") == Some(&want_c)
            && t.is_none_or(|t| field(d, "tag") == Some(&Value::Str(t.to_string())))
    });
    out.expect(matches, || {
        format!("query {c}/{t:?} returned a non-matching doc")
    });
    let ordered = docs.windows(2).all(|w| match t {
        None => match (field(&w[0], "price"), field(&w[1], "price")) {
            (Some(Value::Int(a)), Some(Value::Int(b))) => a >= b,
            _ => false,
        },
        Some(_) => w[0].name < w[1].name,
    });
    out.expect(ordered, || format!("query {c}/{t:?} out of order"));
}

fn user(t: usize) -> Caller {
    Caller::EndUser(Some(AuthContext::uid(format!("u{t}"))))
}

impl Workload for ReadRules {
    fn setup(seed: u64) -> Self {
        let (svc, db) = common::new_service();
        svc.set_rules(DB, RULES).expect("rules compile");
        let mut rng = SimRng::new(seed);
        for chunk in (0..ITEMS).collect::<Vec<_>>().chunks(500) {
            let writes = chunk
                .iter()
                .map(|&i| item_write(seed, i, rng.gen_range(100_000) as i64))
                .collect();
            db.commit_writes(writes, &Caller::Service)
                .expect("load items");
        }
        create_index_blocking(
            &db,
            "items",
            vec![IndexedField::asc("category"), IndexedField::desc("price")],
        )
        .expect("build composite index");
        ReadRules {
            svc,
            db,
            seed,
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
        let (svc, seed) = (&self.svc, self.seed);
        closed_loop(
            svc,
            THREADS,
            seconds,
            traced,
            Some(TICK_EVERY),
            |t, deadline, ticker, out| {
                let caller = user(t);
                let mut rng = SimRng::new(mix(seed, phase, t as u64));
                let mut srng = SimRng::new(mix(seed, phase, 100 + t as u64));
                let mut seq = 0u64;
                while now_ns() < deadline {
                    ticker.poll();
                    seq += 1;
                    trace::set_request(request_id(t, phase << 40 | seq));
                    out.ops += 1;
                    let r = rng.gen_range(100);
                    if r < 80 {
                        let name = item(rng.gen_range(ITEMS));
                        let t0 = now_ns();
                        let got = {
                            let _s = trace::span("service.get_document");
                            svc.get_document(DB, &name, &caller, &mut srng)
                        };
                        let dt = now_ns() - t0;
                        match got {
                            Ok((Some(d), _)) => {
                                out.get.push(dt);
                                out.expect(d.name == name, || {
                                    format!("get {name} returned {}", d.name)
                                });
                            }
                            Ok((None, _)) => out.bad(format!("get {name} found nothing")),
                            Err(_) => out.failed += 1,
                        }
                    } else if r < 95 {
                        let (q, c, tg) = app_query(&mut rng);
                        let t0 = now_ns();
                        let ran = {
                            let _s = trace::span("service.run_query");
                            svc.run_query(DB, &q, &caller, &mut srng)
                        };
                        let dt = now_ns() - t0;
                        match ran {
                            Ok((res, _)) => {
                                out.query.push(dt);
                                check_query(&res.documents, &c, tg.as_deref(), out);
                            }
                            Err(_) => out.failed += 1,
                        }
                    } else {
                        // Each user updates only the items it owns, so the two
                        // clients never contend for a lock.
                        let i = rng.gen_range(ITEMS / THREADS as u64) * THREADS as u64 + t as u64;
                        let w = item_write(seed, i, rng.gen_range(100_000) as i64);
                        let t0 = now_ns();
                        let committed = {
                            let _s = trace::span("service.commit");
                            svc.commit(DB, vec![w], &caller, &mut srng)
                        };
                        let dt = now_ns() - t0;
                        match committed {
                            Ok((res, _)) => {
                                out.commit.push(dt);
                                out.write_stats.push(res.stats);
                            }
                            Err(_) => out.failed += 1,
                        }
                    }
                }
            },
        )
    }

    fn probe(&mut self, seconds: f64) -> Samples {
        // The loop has no listeners: a listen round measures notify.
        let mut out = Samples::default();
        let seed = self.seed;
        let c = category(0);
        let t = tag(0);
        let q = Query::parse("/items")
            .expect("valid collection")
            .filter("category", FilterOp::Eq, c.as_str())
            .filter("tag", FilterOp::Eq, t.as_str());
        let members: Vec<u64> = (0..ITEMS)
            .filter(|&i| category(i) == c && tag(i) == t)
            .collect();
        self.probes += 1;
        let mut rng = SimRng::new(mix(seed, 7, self.probes));
        listen_round(
            &self.svc,
            &self.db,
            &q,
            20,
            seconds,
            |k| {
                let i = members[k % members.len()];
                vec![item_write(seed, i, rng.gen_range(100_000) as i64)]
            },
            &mut out,
        );
        out
    }

    fn check(&mut self) -> Samples {
        // Every get and query was checked as it returned, in the loop.
        Samples::default()
    }

    fn replay_keys(&self, n: usize, rng: &mut SimRng) -> Vec<DocumentName> {
        (0..n).map(|_| item(rng.gen_range(ITEMS))).collect()
    }

    fn replay_queries(&self, n: usize, rng: &mut SimRng) -> Vec<Query> {
        (0..n).map(|_| app_query(rng).0).collect()
    }

    fn replay_commit(&mut self, rng: &mut SimRng) -> Vec<Write> {
        let i = rng.gen_range(ITEMS);
        vec![item_write(self.seed, i, rng.gen_range(100_000) as i64)]
    }

    fn end_user(&self) -> Caller {
        user(0)
    }
}
