//! Wall-clock benchmark of `FirestoreService`.
//!
//! ```text
//! perfbench --workload <read_rules|write_index|listen_fanout> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! `--trace 0` sets up the workload several times (reporting the median
//! set-up time), then alternates slices of a probe of the op kinds its loop
//! does not send and of its closed loop (`--seconds` of loop in all) with
//! tracing off, checks the outputs, and prints the end-to-end metrics. `--trace 1` runs the probe traced, the
//! loop untraced and then traced for half of `--seconds` each, checks
//! the outputs and that every traced commit decomposes exactly into its
//! layers, replays fixed op samples to split the service, rules and engine,
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod common;
mod layers;
mod listen_fanout;
mod read_rules;
mod stats;
mod trace;
mod write_index;

use common::Samples;
use firestore_core::{Caller, DocumentName, FirestoreDatabase, Query, Write};
use server::FirestoreService;
use simkit::SimRng;
use stats::{median_f64, quantile};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// How many times `--trace 0` sets the workload up; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// A `--trace 0` run alternates probe and loop in slices of about this many
/// seconds of loop, so that both phases spread over the whole run and see
/// the same conditions on a shared machine; each latency and throughput
/// figure is the median over the slices of the per-slice value.
const SLICE_S: f64 = 2.0;

/// The probe runs for this share of each slice's loop time (and of the
/// traced run's `--seconds`).
const PROBE_SHARE: f64 = 0.5;

/// One workload: its fixture, closed loop, output checks, and the op
/// samples the traced run replays.
pub trait Workload: Sized {
    /// Build the fixture from `seed`: load, indexes, rules, listeners.
    fn setup(seed: u64) -> Self;
    /// The service under test.
    fn svc(&self) -> &FirestoreService;
    /// Its one database.
    fn db(&self) -> &FirestoreDatabase;
    /// Run the closed loop for `seconds`; `phase` varies the op stream
    /// between loops on one fixture. Returns samples and wall seconds.
    fn run_loop(&mut self, seconds: f64, traced: bool, phase: u64) -> (Samples, f64);
    /// For about `seconds` between loop slices: measure the op kinds the
    /// loop does not send, checking their outputs.
    fn probe(&mut self, seconds: f64) -> Samples;
    /// After the loops: check what they wrote.
    fn check(&mut self) -> Samples;
    /// `n` document names of the workload's keyspace.
    fn replay_keys(&self, n: usize, rng: &mut SimRng) -> Vec<DocumentName>;
    /// `n` queries of the workload's shape.
    fn replay_queries(&self, n: usize, rng: &mut SimRng) -> Vec<Query>;
    /// One commit of the workload's shape, valid as `Caller::Service`.
    fn replay_commit(&mut self, rng: &mut SimRng) -> Vec<Write>;
    /// An end user the workload's rules admit for reads.
    fn end_user(&self) -> Caller;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, 1u64, 10.0f64, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            note: String::new(),
        }
    }

    fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// A run's result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// One slice of a `--trace 0` run: probe samples, loop samples and the
/// loop's wall seconds.
struct Slice {
    probe: Samples,
    lp: Samples,
    elapsed: f64,
}

/// `q`-quantile of `kind` in each slice (µs), from the loop when the loop
/// sent that op kind, else from the probe; the median over slices.
fn latency(
    name: &'static str,
    slices: &[Slice],
    kind: fn(&Samples) -> &Vec<u64>,
    q: f64,
) -> Metric {
    let from_loop = slices.iter().any(|s| !kind(&s.lp).is_empty());
    let per: Vec<f64> = slices
        .iter()
        .map(|s| quantile(kind(if from_loop { &s.lp } else { &s.probe }), q) / 1e3)
        .collect();
    let n: usize = slices
        .iter()
        .map(|s| kind(if from_loop { &s.lp } else { &s.probe }).len())
        .sum();
    let source = if from_loop { "closed loop" } else { "probe" };
    Metric::new(name, median_f64(&per), "us").note(format!(
        "{n} samples, {source}, median of {} slices",
        slices.len()
    ))
}

fn report_bad(phase: &str, s: &Samples) {
    for b in &s.bad {
        eprintln!("CHECK FAILED ({phase}): {b}");
    }
    if s.bad_count > s.bad.len() as u64 {
        eprintln!(
            "... {} more failed checks in {phase}",
            s.bad_count - s.bad.len() as u64
        );
    }
}

fn end_to_end<W: Workload>(args: &Args) -> Outcome {
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        drop(fixture.take());
        let t0 = trace::now_ns();
        fixture = Some(W::setup(args.seed));
        setup_times.push((trace::now_ns() - t0) as f64 / 1e9);
    }
    let mut w = fixture.expect("at least one set-up");
    let n = ((args.seconds / SLICE_S).round() as u64).max(1);
    let loop_s = args.seconds / n as f64;
    let slices: Vec<Slice> = (0..n)
        .map(|k| {
            let probe = w.probe(loop_s * PROBE_SHARE);
            let (lp, elapsed) = w.run_loop(loop_s, false, k);
            Slice { probe, lp, elapsed }
        })
        .collect();
    let ck = w.check();
    let mut all = Samples::default();
    for s in &slices {
        report_bad("probe", &s.probe);
        report_bad("closed loop", &s.lp);
        all.ops += s.probe.ops + s.lp.ops;
        all.failed += s.probe.failed + s.lp.failed;
        all.allocs += s.lp.allocs;
        all.bad_count += s.probe.bad_count + s.lp.bad_count;
    }
    report_bad("check", &ck);
    let loop_ops: u64 = slices.iter().map(|s| s.lp.ops).sum();
    let rates: Vec<f64> = slices.iter().map(|s| s.lp.ops as f64 / s.elapsed).collect();
    let failed = all.failed + ck.failed;
    let attempted = all.ops + ck.ops;
    let metrics = vec![
        Metric::new("ops_per_s", median_f64(&rates), "1/s")
            .note(format!("{loop_ops} ops, median of {n} slices")),
        latency("get_p50_us", &slices, |s| &s.get, 0.5),
        latency("get_p90_us", &slices, |s| &s.get, 0.9),
        latency("query_p50_us", &slices, |s| &s.query, 0.5),
        latency("query_p90_us", &slices, |s| &s.query, 0.9),
        latency("commit_p50_us", &slices, |s| &s.commit, 0.5),
        latency("commit_p90_us", &slices, |s| &s.commit, 0.9),
        latency("notify_p50_us", &slices, |s| &s.notify, 0.5),
        latency("notify_p90_us", &slices, |s| &s.notify, 0.9),
        Metric::new(
            "allocs_per_op",
            all.allocs as f64 / loop_ops.max(1) as f64,
            "count",
        ),
        Metric::new("peak_rss_mib", alloc::peak_rss_mib().unwrap_or(0.0), "MiB"),
        Metric::new("setup_s", median_f64(&setup_times), "s")
            .note(format!("median of {setup_times:.3?}")),
    ];
    println!(
        "failed_frac = {} ({failed} of {attempted} ops failed or were refused)",
        stats::ratio(failed as f64, attempted as f64)
    );
    Outcome {
        correct: all.bad_count == 0 && ck.bad_count == 0,
        attempted,
        failed,
        metrics,
    }
}

fn run<W: Workload>(args: &Args) -> Outcome {
    if args.trace {
        layers::traced::<W>(args)
    } else {
        end_to_end::<W>(args)
    }
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "read_rules" => run::<read_rules::ReadRules>(&args),
        "write_index" => run::<write_index::WriteIndex>(&args),
        "listen_fanout" => run::<listen_fanout::ListenFanout>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for m in &out.metrics {
        println!("{:<36} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
