//! Deterministic chaos drill: a seeded fault plan knocks over tablets,
//! locks, the message queue, and the Real-time Cache while a client keeps
//! writing and a listener keeps watching — and everything converges with
//! zero lost or duplicated effects. Run it twice: the fault/retry trace is
//! bit-identical per seed.
//!
//! Run with: `cargo run -p bench --example chaos_drill`

use firestore_core::database::doc;
use firestore_core::{Backoff, Caller, Consistency, Query, RetryPolicy, Value, Write};
use realtime::{RealtimeCache, RealtimeOptions, ResilientListener};
use simkit::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
use simkit::{Duration, Hooks, SimClock, Timestamp};
use spanner::SpannerDatabase;

fn main() {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));

    // The chaos plan: tablets flap 20% of the time, locks time out 5%, and
    // the Real-time Cache goes completely dark for seconds 2..4. It stays
    // disarmed while the listener is set up.
    let plan = FaultPlan::new(42)
        .rule(FaultRule::probabilistic(FaultKind::TabletUnavailable, 0.20))
        .rule(FaultRule::probabilistic(FaultKind::LockTimeout, 0.05))
        .rule(FaultRule::scheduled(
            FaultKind::CacheUnavailable,
            Timestamp::from_secs(2),
            Timestamp::from_secs(4),
        ));
    let injector = FaultInjector::new(clock.clone(), plan);
    injector.disarm();
    let hooks = Hooks {
        faults: Some(injector.clone()),
        ..Hooks::default()
    };
    let spanner = SpannerDatabase::with_hooks(clock.clone(), hooks);
    let db = firestore_core::FirestoreDatabase::create_default(spanner.clone());
    let cache = RealtimeCache::new(&spanner, RealtimeOptions::default());
    db.set_observer(cache.observer_for(db.directory()));

    // A listener watches /scores from the start.
    let conn = cache.connect();
    let mut listener = ResilientListener::listen(
        &db,
        &conn,
        Query::parse("/scores").unwrap(),
        Caller::Service,
    )
    .expect("listen");
    listener.poll().expect("initial snapshot");
    injector.arm();
    listener.set_fault_injector(Some(injector.clone()));

    // Keep writing under fire, retrying transient failures with jittered
    // backoff on the simulated clock.
    let mut acked = 0u32;
    let mut abandoned = 0u32;
    let mut retries = 0u32;
    let mut delivered = 0usize;
    for i in 0..40i64 {
        let w = Write::set(doc(&format!("/scores/game{i:02}")), [("seq", Value::Int(i))]);
        let mut backoff = Backoff::new(RetryPolicy::default(), clock.now().as_nanos());
        loop {
            match db.commit_writes(vec![w.clone()], &Caller::Service) {
                Ok(_) => {
                    acked += 1;
                    break;
                }
                Err(e) if e.is_retriable() => match backoff.next_delay() {
                    Some(delay) => {
                        retries += 1;
                        clock.advance(delay);
                    }
                    None => {
                        abandoned += 1;
                        break;
                    }
                },
                Err(e) => panic!("non-retriable: {e}"),
            }
        }
        clock.advance(Duration::from_millis(100));
        cache.tick();
        for event in listener.poll().expect("poll") {
            delivered += event.changes.len();
            if event.degraded {
                print!("~"); // polled while the cache was dark
            }
        }
    }
    injector.disarm();
    clock.advance(Duration::from_secs(5));
    cache.tick();
    for event in listener.poll().expect("final poll") {
        delivered += event.changes.len();
    }
    println!();

    // The ledger must balance: every acked write is durable and was
    // delivered to the listener exactly once; abandoned writes left no
    // trace.
    let on_server = db
        .run_query(
            &Query::parse("/scores").unwrap(),
            Consistency::Strong,
            &Caller::Service,
        )
        .expect("query")
        .documents
        .len();
    let stats = injector.stats();
    let lstats = listener.stats();
    println!("writes: {acked} acked, {abandoned} abandoned, {retries} retries");
    println!(
        "faults: {} injected out of {} decisions",
        stats.injected, stats.checked
    );
    println!(
        "listener: {} events, {} fallbacks, {} polls, {} recoveries",
        delivered, lstats.fallbacks, lstats.polls, lstats.recoveries
    );
    println!("fault trace (first 8):");
    for ev in injector.trace().into_iter().take(8) {
        println!("  {ev}");
    }
    assert_eq!(on_server as u32, acked, "durable docs == acked writes");
    assert_eq!(delivered as u32, acked, "listener saw every ack exactly once");
    assert!(lstats.fallbacks > 0, "the outage must have been survived");
    println!("OK: {on_server} documents durable, delivered exactly once");
}
