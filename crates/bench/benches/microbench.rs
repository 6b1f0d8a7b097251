//! Criterion micro-benchmarks of the engine's hot paths: order-preserving
//! value encoding, index-entry computation, query planning, zig-zag
//! execution, the write pipeline, and real-time matching.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use firestore_core::database::doc;
use firestore_core::encoding::encode_value_asc;
use firestore_core::index::{entries_for_document, IndexCatalog, IndexState};
use firestore_core::planner::plan_query;
use firestore_core::{
    Caller, Consistency, Direction, Document, FilterOp, FirestoreDatabase, Query, Value, Write,
};
use simkit::{Duration, SimClock, SimRng};
use spanner::database::DirectoryId;
use spanner::SpannerDatabase;
use std::hint::black_box;

fn sample_doc(i: usize) -> Document {
    Document::new(
        doc(&format!("/restaurants/r{i:05}")),
        [
            ("name", Value::Str(format!("Restaurant {i}"))),
            (
                "city",
                Value::from(if i.is_multiple_of(3) { "SF" } else { "NY" }),
            ),
            (
                "type",
                Value::from(if i.is_multiple_of(2) { "BBQ" } else { "Deli" }),
            ),
            ("avgRating", Value::Double((i % 50) as f64 / 10.0)),
            ("numRatings", Value::Int(i as i64)),
            (
                "tags",
                Value::Array(vec![Value::from("a"), Value::from("b"), Value::from("c")]),
            ),
        ],
    )
}

fn bench_encoding(c: &mut Criterion) {
    let values = vec![
        Value::Int(123456),
        Value::Double(1.618034),
        Value::Str("a moderately sized string value".into()),
        Value::Array(vec![Value::Int(1), Value::from("x"), Value::Bool(true)]),
        Value::map([("nested", Value::map([("deep", Value::Int(1))]))]),
    ];
    c.bench_function("encoding/order_preserving_value", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(64);
            for v in &values {
                encode_value_asc(black_box(v), &mut out);
            }
            black_box(out)
        })
    });
    let d = sample_doc(7);
    c.bench_function("encoding/document_serialize", |b| {
        b.iter(|| black_box(black_box(&d).encode()))
    });
    let bytes = d.encode();
    c.bench_function("encoding/document_deserialize", |b| {
        b.iter(|| black_box(Document::decode(d.name.clone(), black_box(&bytes)).unwrap()))
    });
}

fn bench_index(c: &mut Criterion) {
    let d = sample_doc(42);
    c.bench_function("index/entries_for_document", |b| {
        b.iter_batched(
            IndexCatalog::new,
            |mut cat| {
                black_box(entries_for_document(
                    &mut cat,
                    DirectoryId(1),
                    black_box(&d),
                    &[IndexState::Ready],
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_planner(c: &mut Criterion) {
    let mut cat = IndexCatalog::new();
    cat.add_composite(
        "restaurants",
        vec![
            firestore_core::index::IndexedField::asc("city"),
            firestore_core::index::IndexedField::desc("avgRating"),
        ],
        IndexState::Ready,
    );
    cat.add_composite(
        "restaurants",
        vec![
            firestore_core::index::IndexedField::asc("type"),
            firestore_core::index::IndexedField::desc("avgRating"),
        ],
        IndexState::Ready,
    );
    let q = Query::parse("/restaurants")
        .unwrap()
        .filter("city", FilterOp::Eq, "SF")
        .filter("type", FilterOp::Eq, "BBQ")
        .order_by("avgRating", Direction::Desc);
    c.bench_function("planner/zigzag_selection", |b| {
        b.iter(|| black_box(plan_query(&mut cat, DirectoryId(1), black_box(&q)).unwrap()))
    });
}

fn engine_with_docs(n: usize) -> FirestoreDatabase {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let db = FirestoreDatabase::create_default(SpannerDatabase::new(clock));
    for i in 0..n {
        let d = sample_doc(i);
        let fields: Vec<(String, Value)> = d.fields.into_iter().collect();
        db.commit_writes(vec![Write::set(d.name, fields)], &Caller::Service)
            .unwrap();
    }
    db
}

fn bench_engine(c: &mut Criterion) {
    let db = engine_with_docs(2_000);
    let mut rng = SimRng::new(1);

    c.bench_function("engine/point_get", |b| {
        b.iter(|| {
            let i = rng.gen_range(2_000) as usize;
            black_box(
                db.get_document(
                    &doc(&format!("/restaurants/r{i:05}")),
                    Consistency::Strong,
                    &Caller::Service,
                )
                .unwrap(),
            )
        })
    });

    let zigzag = Query::parse("/restaurants")
        .unwrap()
        .filter("city", FilterOp::Eq, "SF")
        .filter("type", FilterOp::Eq, "BBQ");
    c.bench_function("engine/zigzag_query_2k_docs", |b| {
        b.iter(|| {
            black_box(
                db.run_query(&zigzag, Consistency::Strong, &Caller::Service)
                    .unwrap(),
            )
        })
    });

    let mut i = 0usize;
    c.bench_function("engine/single_doc_commit", |b| {
        b.iter(|| {
            i += 1;
            let d = sample_doc(3_000 + i);
            let fields: Vec<(String, Value)> = d.fields.into_iter().collect();
            black_box(
                db.commit_writes(vec![Write::set(d.name, fields)], &Caller::Service)
                    .unwrap(),
            )
        })
    });
}

fn bench_realtime(c: &mut Criterion) {
    use realtime::{RealtimeCache, RealtimeOptions};
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let spanner = SpannerDatabase::new(clock);
    let db = FirestoreDatabase::create_default(spanner.clone());
    let cache = RealtimeCache::new(&spanner, RealtimeOptions::default());
    db.set_observer(cache.observer_for(db.directory()));
    // 100 listeners on the collection.
    let conns: Vec<_> = (0..100)
        .map(|_| {
            let conn = cache.connect();
            conn.listen(
                db.directory(),
                Query::parse("/restaurants").unwrap(),
                vec![],
                spanner.strong_read_ts(),
            );
            conn.poll();
            conn
        })
        .collect();
    // One document rewritten each iteration keeps the result set bounded:
    // the measurement is the per-write fan-out cost, not view growth.
    let mut i = 0i64;
    c.bench_function("realtime/write_fanout_100_listeners", |b| {
        b.iter(|| {
            i += 1;
            db.commit_writes(
                vec![Write::set(
                    doc("/restaurants/hot"),
                    [("seq", Value::Int(i))],
                )],
                &Caller::Service,
            )
            .unwrap();
            cache.tick();
            for c in &conns {
                black_box(c.poll());
            }
        })
    });
}

criterion_group!(
    benches,
    bench_encoding,
    bench_index,
    bench_planner,
    bench_engine,
    bench_realtime
);
criterion_main!(benches);
