//! Shared test-world setup for the integration suites.
//!
//! Every suite used to hand-roll the same stack (simulated clock one
//! second past zero so Timestamp::ZERO is strictly in the past, Spanner,
//! a default Firestore database, a Real-time Cache wired as the commit
//! observer). Build it once here; suites layer their specifics (rules,
//! tablet splits, durability, fault plans) on top.

#![allow(dead_code)]

use firestore_core::FirestoreDatabase;
use realtime::{RealtimeCache, RealtimeOptions};
use simkit::fault::{FaultInjector, FaultPlan};
use simkit::{Duration, Hooks, SimClock};
use spanner::SpannerDatabase;
use std::sync::Arc;

/// Rules granting everything — for suites exercising layers below
/// security.
pub const OPEN_RULES: &str = r#"
service cloud.firestore {
  match /databases/{db}/documents {
    match /{document=**} { allow read, write; }
  }
}
"#;

/// The assembled stack most integration tests start from.
pub struct World {
    /// Simulated clock shared by every component.
    pub clock: SimClock,
    /// The storage substrate.
    pub spanner: SpannerDatabase,
    /// The Firestore API layer (no rules set; see [`world_with_rules`]).
    pub db: FirestoreDatabase,
    /// The Real-time Cache, registered as the database's commit observer.
    pub cache: RealtimeCache,
}

/// Build the standard stack: clock advanced 1s, Spanner, default database,
/// Real-time Cache observing commits.
pub fn world() -> World {
    world_with_hooks(|_| Hooks::default())
}

/// [`world`] built with the hooks `make` returns for the world's clock,
/// shared by Spanner and the Real-time Cache.
pub fn world_with_hooks(make: impl FnOnce(&SimClock) -> Hooks) -> World {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let spanner = SpannerDatabase::with_hooks(clock.clone(), make(&clock));
    let db = FirestoreDatabase::create_default(spanner.clone());
    let cache = RealtimeCache::new(&spanner, RealtimeOptions::default());
    db.set_observer(cache.observer_for(db.directory()));
    World {
        clock,
        spanner,
        db,
        cache,
    }
}

/// [`world`] with [`OPEN_RULES`] installed.
pub fn world_with_rules() -> World {
    let w = world();
    w.db.set_rules(OPEN_RULES).unwrap();
    w
}

/// [`world_with_rules`] whose hooks carry an injector for `plan`, returned
/// disarmed: the test arms it where the chaos should start.
pub fn chaos_world(plan: FaultPlan) -> (World, Arc<FaultInjector>) {
    let w = world_with_hooks(|clock| Hooks {
        faults: Some(FaultInjector::new(clock.clone(), plan)),
        ..Hooks::default()
    });
    let injector = w.spanner.hooks().faults.clone().unwrap();
    injector.disarm();
    w.db.set_rules(OPEN_RULES).unwrap();
    (w, injector)
}
