//! The traced run: per-layer metrics measured from outside the program.
//!
//! Each figure comes from spans the benchmark records around calls into a
//! layer (through public functions and the `set_gate` / `set_observer`
//! seams), from the program's own counters, or from replaying a fixed op
//! sample through different entry points and taking differences of
//! medians. See the table in `perfbench/README.md` for what each metric
//! should move.

use crate::common::{self, install_timing, Samples, DB};
use crate::stats::{median_us, ratio};
use crate::trace::{self, commit_parts, durations, CommitParts};
use crate::{report_bad, Args, Metric, Outcome, Workload};
use firestore_core::executor::{ENTITIES, INDEX_ENTRIES};
use firestore_core::{Caller, Consistency, MatchStats, Query, QueryStats};
use realtime::cache::RealtimeStats;
use server::FirestoreService;
use simkit::SimRng;

/// Program counters read before and after the traced loop.
struct Counters {
    rules_decisions: u64,
    rules_residual: u64,
    spanner_commits: u64,
    spanner_aborts: u64,
    obs_spans: u64,
    rejects: u64,
    matcher: MatchStats,
    rtc: RealtimeStats,
}

impl Counters {
    fn read(svc: &FirestoreService) -> Counters {
        let m = &svc.obs().metrics;
        let adm = svc.admission.stats();
        let throttles: u64 = svc.tenants.throttle_counts().values().sum();
        Counters {
            rules_decisions: m.counter_value("rules.decisions", &[]),
            rules_residual: m.counter_value("rules.residual_hits", &[]),
            spanner_commits: svc.spanner().commit_count(),
            spanner_aborts: svc.spanner().abort_count(),
            obs_spans: svc.obs().tracer.finished_count(),
            rejects: adm.rejected_per_db + adm.shed + throttles,
            matcher: svc.realtime().matcher_stats(),
            rtc: svc.realtime().stats(),
        }
    }
}

/// Wall ns of one op sample sent through three entry points.
#[derive(Default)]
struct Replay {
    service: Vec<u64>,
    end_user: Vec<u64>,
    direct: Vec<u64>,
    /// Modeled `ServedRequest.cpu_cost` (ns) of the `service` calls.
    modeled: Vec<u64>,
    /// Executor counters and result sizes of the direct queries.
    stats: Vec<(QueryStats, usize)>,
}

/// The same keys through `FirestoreService::get_document` as
/// `Caller::Service` and as an end user, and through
/// `FirestoreDatabase::get_document` directly; the order rotates per key.
fn replay_gets<W: Workload>(w: &W, rng: &mut SimRng, out: &mut Samples) -> Replay {
    let mut r = Replay::default();
    let (svc, db, user) = (w.svc(), w.db(), w.end_user());
    for (k, key) in w.replay_keys(1_500, rng).iter().enumerate() {
        for j in 0..3 {
            out.ops += 1;
            let ok = match (k + j) % 3 {
                0 => {
                    let (res, dt) =
                        common::timed(|| svc.get_document(DB, key, &Caller::Service, rng));
                    res.map(|(_, served)| {
                        r.service.push(dt);
                        r.modeled.push(served.cpu_cost.as_nanos());
                    })
                }
                1 => {
                    let (res, dt) = common::timed(|| svc.get_document(DB, key, &user, rng));
                    res.map(|_| r.end_user.push(dt))
                }
                _ => {
                    let (res, dt) = common::timed(|| {
                        db.get_document(key, Consistency::Strong, &Caller::Service)
                    });
                    res.map(|_| r.direct.push(dt))
                }
            };
            if let Err(e) = ok {
                out.failed += 1;
                out.bad(format!("replayed get {key}: {e}"));
            }
        }
    }
    r
}

/// [`replay_gets`] for queries.
fn replay_queries<W: Workload>(w: &W, rng: &mut SimRng, out: &mut Samples) -> Replay {
    let mut r = Replay::default();
    let (svc, db, user) = (w.svc(), w.db(), w.end_user());
    let queries: Vec<Query> = w.replay_queries(400, rng);
    for (k, q) in queries.iter().enumerate() {
        for j in 0..3 {
            out.ops += 1;
            let ok = match (k + j) % 3 {
                0 => {
                    let (res, dt) = common::timed(|| svc.run_query(DB, q, &Caller::Service, rng));
                    res.map(|(_, served)| {
                        r.service.push(dt);
                        r.modeled.push(served.cpu_cost.as_nanos());
                    })
                }
                1 => {
                    let (res, dt) = common::timed(|| svc.run_query(DB, q, &user, rng));
                    res.map(|_| r.end_user.push(dt))
                }
                _ => {
                    let (res, dt) =
                        common::timed(|| db.run_query(q, Consistency::Strong, &Caller::Service));
                    res.map(|res| {
                        r.direct.push(dt);
                        r.stats.push((res.stats, res.documents.len()));
                    })
                }
            };
            if let Err(e) = ok {
                out.failed += 1;
                out.bad(format!("replayed query: {e}"));
            }
        }
    }
    r
}

/// Commits of the workload's shape in four alternating blocks, with the
/// Spanner and Real-time Cache obs handles attached, detached, attached,
/// detached. Returns (attached ns, detached ns, modeled cpu ns of the
/// attached ones).
fn obs_blocks<W: Workload>(
    w: &mut W,
    rng: &mut SimRng,
    out: &mut Samples,
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let (mut on, mut off, mut modeled) = (Vec::new(), Vec::new(), Vec::new());
    let obs = w.svc().obs().clone();
    for block in 0..4 {
        let attach = block % 2 == 0;
        w.svc().spanner().set_obs(attach.then(|| obs.clone()));
        w.svc().realtime().set_obs(attach.then(|| obs.clone()));
        for _ in 0..200 {
            let writes = w.replay_commit(rng);
            out.ops += 1;
            let (res, dt) = common::timed(|| w.svc().commit(DB, writes, &Caller::Service, rng));
            match res {
                Ok((_, served)) if attach => {
                    on.push(dt);
                    modeled.push(served.cpu_cost.as_nanos());
                }
                Ok(_) => off.push(dt),
                Err(e) => {
                    out.failed += 1;
                    out.bad(format!("replayed commit: {e}"));
                }
            }
        }
    }
    w.svc().spanner().set_obs(Some(obs.clone()));
    w.svc().realtime().set_obs(Some(obs));
    (on, off, modeled)
}

fn median_u64(v: &[u64]) -> f64 {
    crate::stats::quantile(v, 0.5)
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    ratio(sum, n as f64)
}

/// `loop_spans` durations named `name`, or `fallback`'s when the loop had
/// none.
fn durations_or(
    loop_spans: &[Vec<trace::Span>],
    fallback: &[Vec<trace::Span>],
    name: &str,
) -> Vec<u64> {
    let d = durations(loop_spans, name);
    if d.is_empty() {
        durations(fallback, name)
    } else {
        d
    }
}

/// The `--trace 1` run.
pub fn traced<W: Workload>(args: &Args) -> Outcome {
    let half = args.seconds / 2.0;
    // Set-up and probe spans (listens, polls, ticks) feed the metrics the
    // loop has none of.
    trace::enable(true);
    let mut w = W::setup(args.seed);
    let pr = w.probe(args.seconds * crate::PROBE_SHARE);
    let other = vec![trace::take()];
    trace::enable(false);

    let (untraced, u_elapsed) = w.run_loop(half, false, 1);
    install_timing(w.svc(), w.db());
    let c0 = Counters::read(w.svc());
    let (lp, elapsed) = w.run_loop(half, true, 2);
    let c1 = Counters::read(w.svc());
    let ck = w.check();

    let mut rng = SimRng::new(common::mix(args.seed, 5, 5));
    let mut rp = Samples::default();
    let gets = replay_gets(&w, &mut rng, &mut rp);
    let queries = replay_queries(&w, &mut rng, &mut rp);
    let (obs_on, obs_off, commit_modeled) = obs_blocks(&mut w, &mut rng, &mut rp);

    report_bad("probe", &pr);
    report_bad("untraced loop", &untraced);
    report_bad("traced loop", &lp);
    report_bad("check", &ck);
    report_bad("replay", &rp);

    // Every traced commit must split exactly into its layers.
    let mut parts: Vec<CommitParts> = Vec::new();
    let mut decomposition_ok = true;
    for spans in &lp.spans {
        match commit_parts(spans) {
            Ok(p) => parts.extend(p),
            Err(e) => {
                decomposition_ok = false;
                eprintln!("CHECK FAILED (commit decomposition): {e}");
            }
        }
    }
    println!(
        "commit decomposition: {} traced commits; server self + gate + pre-prepare + prepare \
         + spanner + accept = total for each: {decomposition_ok}",
        parts.len()
    );

    let user_bytes: usize = {
        let collection = w.replay_keys(1, &mut rng)[0].parent().to_string();
        let all = Query::parse(&collection).expect("valid collection");
        w.db()
            .run_query(&all, Consistency::Strong, &Caller::Service)
            .map(|r| r.documents.iter().map(|d| d.approx_size()).sum())
            .unwrap_or(0)
    };
    let sp = w.svc().spanner();
    let stored = sp.live_bytes(ENTITIES).unwrap_or(0) + sp.live_bytes(INDEX_ENTRIES).unwrap_or(0);

    let med =
        |f: fn(&CommitParts) -> u64| median_u64(&parts.iter().map(f).collect::<Vec<_>>()) / 1e3;
    let avg = |f: fn(&CommitParts) -> u64| mean(parts.iter().map(|p| f(p) as f64));
    let ops = lp.ops.max(1) as f64;
    let commits = lp.commit.len() as f64;
    let ws = &lp.write_stats;
    let (dm, dr) = (&c1.matcher, &c0.matcher);
    let (d1, d0) = (&c1.rtc, &c0.rtc);
    let notifications = (d1.notifications - d0.notifications) as f64;
    let coalesced = (d1.coalesced - d0.coalesced) as f64;
    let decisions = (c1.rules_decisions - c0.rules_decisions) as f64;
    let aborts = (c1.spanner_aborts - c0.spanner_aborts) as f64;
    let qstats = &queries.stats;
    let nq = qstats.len() as f64;
    let ops_u = untraced.ops as f64 / u_elapsed;
    let ops_t = lp.ops as f64 / elapsed;

    // (op, modeled µs, measured µs, ratio), medians over the replayed ops.
    let model = [
        ("get", &gets.modeled, &gets.service),
        ("query", &queries.modeled, &queries.service),
        ("commit", &commit_modeled, &obs_on),
    ]
    .map(|(op, modeled, wall)| {
        let (m, w) = (median_u64(modeled) / 1e3, median_u64(wall) / 1e3);
        (op, m, w, ratio(m, w))
    });
    let off_4x = |r: f64| !(0.25..=4.0).contains(&r);
    println!("model vs measured (ServedRequest.cpu_cost vs wall time, medians):");
    for (op, m, w, r) in model {
        let flag = if off_4x(r) {
            "  OFF BY MORE THAN 4x"
        } else {
            ""
        };
        println!("  {op:<7} modeled {m:>10.2} us  measured {w:>10.2} us  ratio {r:.4}{flag}");
    }
    let off: Vec<&str> = model.iter().filter(|m| off_4x(m.3)).map(|m| m.0).collect();
    println!("op types whose modeled cost is off by more than 4x: {off:?}");

    let metrics = vec![
        Metric::new("server.commit_self_us", med(|p| p.server_self_ns), "us")
            .note(format!("{} commits", parts.len())),
        Metric::new(
            "server.commit_self_allocs",
            avg(|p| p.server_self_allocs),
            "count",
        ),
        Metric::new(
            "server.get_self_us",
            median_us(&gets.service) - median_us(&gets.direct),
            "us",
        ),
        Metric::new(
            "server.gate_us",
            median_us(&durations(&lp.spans, "server.gate")),
            "us",
        ),
        Metric::new(
            "server.tick_ms",
            median_us(&durations_or(&lp.spans, &other, "service.tick")) / 1e3,
            "ms",
        ),
        Metric::new(
            "server.admission_rejects",
            (c1.rejects - c0.rejects) as f64,
            "count",
        ),
        Metric::new(
            "rules.get_us",
            median_us(&gets.end_user) - median_us(&gets.service),
            "us",
        ),
        Metric::new(
            "rules.query_us",
            median_us(&queries.end_user) - median_us(&queries.service),
            "us",
        ),
        Metric::new("rules.decisions_per_op", decisions / ops, "count"),
        Metric::new(
            "rules.residual_hit_frac",
            ratio((c1.rules_residual - c0.rules_residual) as f64, decisions),
            "fraction",
        ),
        Metric::new("core.query_us", median_us(&queries.direct), "us"),
        Metric::new(
            "core.entries_examined_per_result",
            ratio(
                qstats.iter().map(|(s, _)| s.entries_examined as f64).sum(),
                qstats.iter().map(|(_, n)| *n as f64).sum(),
            ),
            "count",
        ),
        Metric::new(
            "core.seeks_per_query",
            ratio(qstats.iter().map(|(s, _)| s.seeks as f64).sum(), nq),
            "count",
        ),
        Metric::new(
            "core.docs_fetched_per_query",
            ratio(qstats.iter().map(|(s, _)| s.docs_fetched as f64).sum(), nq),
            "count",
        ),
        Metric::new("core.write_pre_prepare_us", med(|p| p.pre_prepare_ns), "us"),
        Metric::new(
            "core.write_pre_prepare_allocs",
            avg(|p| p.pre_prepare_allocs),
            "count",
        ),
        Metric::new(
            "core.index_entries_per_doc",
            ratio(
                ws.iter().map(|s| s.index_entries_touched as f64).sum(),
                ws.iter().map(|s| s.documents as f64).sum(),
            ),
            "count",
        ),
        Metric::new(
            "core.payload_bytes_per_commit",
            mean(ws.iter().map(|s| s.payload_bytes as f64)),
            "bytes",
        ),
        Metric::new("spanner.commit_us", med(|p| p.spanner_ns), "us"),
        Metric::new("spanner.commit_allocs", avg(|p| p.spanner_allocs), "count"),
        Metric::new(
            "spanner.participants_per_commit",
            mean(ws.iter().map(|s| s.participants as f64)),
            "count",
        ),
        Metric::new(
            "spanner.abort_frac",
            ratio(
                aborts,
                (c1.spanner_commits - c0.spanner_commits) as f64 + aborts,
            ),
            "fraction",
        ),
        Metric::new(
            "spanner.stored_bytes_per_user_byte",
            ratio(stored as f64, user_bytes as f64),
            "ratio",
        )
        .note(format!("{stored} stored bytes, {user_bytes} user bytes")),
        Metric::new("rtc.prepare_us", med(|p| p.prepare_ns), "us"),
        Metric::new("rtc.accept_us", med(|p| p.accept_ns), "us"),
        Metric::new("rtc.accept_allocs", avg(|p| p.accept_allocs), "count"),
        Metric::new(
            "rtc.poll_us",
            median_us(&durations_or(&lp.spans, &other, "rtc.poll")),
            "us",
        ),
        Metric::new(
            "rtc.listen_us",
            median_us(&durations(&other, "service.listen")),
            "us",
        ),
        Metric::new(
            "rtc.candidates_per_change",
            ratio(
                (dm.candidates - dr.candidates) as f64,
                (dm.changes - dr.changes) as f64,
            ),
            "count",
        ),
        Metric::new(
            "rtc.match_frac",
            ratio(
                (dm.matched_shapes - dr.matched_shapes) as f64,
                (dm.candidates - dr.candidates) as f64,
            ),
            "fraction",
        ),
        Metric::new(
            "rtc.notifications_per_commit",
            ratio(notifications, commits),
            "count",
        ),
        Metric::new(
            "rtc.coalesced_frac",
            ratio(coalesced, coalesced + notifications),
            "fraction",
        ),
        Metric::new("rtc.resets", (d1.resets - d0.resets) as f64, "count"),
        Metric::new(
            "obs.spans_per_op",
            (c1.obs_spans - c0.obs_spans) as f64 / ops,
            "count",
        ),
        Metric::new(
            "obs.commit_share",
            1.0 - ratio(median_u64(&obs_off), median_u64(&obs_on)),
            "fraction",
        )
        .note(format!(
            "{} attached, {} detached commits",
            obs_on.len(),
            obs_off.len()
        )),
        Metric::new("model.get_cpu_ratio", model[0].3, "ratio"),
        Metric::new("model.query_cpu_ratio", model[1].3, "ratio"),
        Metric::new("model.commit_cpu_ratio", model[2].3, "ratio"),
        Metric::new(
            "bench.trace_overhead_frac",
            1.0 - ratio(ops_t, ops_u),
            "fraction",
        )
        .note(format!("{ops_u:.1} untraced vs {ops_t:.1} traced ops/s")),
    ];

    if let Some(path) = &args.trace_out {
        let mut threads = lp.spans.clone();
        threads.extend(other);
        if let Err(e) = trace::write_spans(path, &threads) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    Outcome {
        correct: decomposition_ok
            && [&pr, &untraced, &lp, &ck, &rp]
                .iter()
                .all(|s| s.bad_count == 0),
        attempted: pr.ops + untraced.ops + lp.ops + ck.ops + rp.ops,
        failed: pr.failed + untraced.failed + lp.failed + ck.failed + rp.failed,
        metrics,
    }
}
