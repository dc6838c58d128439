//! One benchmark run: a closed loop with one client, tuning one
//! workload's instances back to back from a single process.
//!
//! A run with tracing off measures the end-to-end metrics:
//!
//! 1. An untimed warm-up session on instance 0. It is checked, and it
//!    is the reference that instance 0's later sessions must repeat.
//! 2. Rounds over every instance, one cold session each, until the run
//!    has measured for its seconds; the first round always completes.
//!    Every session is checked.
//!
//! A traced run measures the per-layer metrics. It makes the same
//! warm-up, then rounds in which each of the first [`TRACED_INSTANCES`]
//! instances gets an untraced session and then a traced one; the traced
//! session must repeat the untraced one exactly, recommendation
//! included. After the first traced session of instance 0 the replay
//! times the layers below the cost cache on that session's server. The
//! first traced session of each instance then executes the raw and the
//! recommended design (§7.2).
//!
//! Every figure is the mean over instances of a per-instance value, and
//! a per-instance time is the median over that instance's sessions. The
//! mean, not the median, because some per-instance values are bimodal:
//! a tpch session makes either about 44k or about 56k what-if calls.

use crate::replay::{replay, Replay};
use crate::report::{peak_rss_mb, reset_peak_rss, trim_heap, Outcome, END_TO_END, PER_LAYER};
use crate::session::{
    check, compressed, execute_designs, options, outside_view, set_up, tune_once, Counters,
    Session, Setup,
};
use crate::stats::{median, quantile, top_percentile};
use crate::trace::{Scope, SpanRec, SpanTap, Trace};
use crate::workloads::{instance_seed, Kind};
use dta::advisor::{Counter, ObserverSummary, SessionObserver, TuneError};
use dta::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Instances a traced run traces.
pub const TRACED_INSTANCES: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A finished run: the outcome, and the spans of a traced run.
pub struct Run {
    pub outcome: Outcome,
    pub spans: Vec<SpanRec>,
    /// Human-readable notes for standard error.
    pub notes: Vec<String>,
}

/// What one instance contributes to the run.
#[derive(Default)]
struct Book {
    seed: u64,
    /// The first session's deterministic output.
    reference: Option<Counters>,
    improvement_pct: f64,
    server_work_units: f64,
    setup_s: Vec<f64>,
    tune_s: Vec<f64>,
    peak_mb: Vec<f64>,
    traced_tune_s: Vec<f64>,
    /// Seconds of traced tuning covered by top-level stage spans.
    staged_s: f64,
    /// Per-layer values of the first traced session.
    layers: BTreeMap<&'static str, f64>,
}

struct Runner {
    kind: Kind,
    run_seed: u64,
    options: TuningOptions,
    books: Vec<Book>,
    outcome: Outcome,
    replay: Option<Replay>,
}

/// Execute one run.
pub fn run(args: &Args) -> Run {
    let mut runner = Runner {
        kind: args.kind,
        run_seed: args.seed,
        options: options(),
        books: (0..args.kind.instances())
            .map(|j| Book { seed: instance_seed(args.seed, j), ..Book::default() })
            .collect(),
        outcome: Outcome::default(),
        replay: None,
    };
    let trace = Trace::default();
    let instances =
        if args.trace { runner.books.len().min(TRACED_INSTANCES) } else { runner.books.len() };
    let window = Duration::from_secs(args.seconds);

    runner.untraced(0, false);
    let started = Instant::now();
    'rounds: for round in 0.. {
        for j in 0..instances {
            if round > 0 && started.elapsed() >= window {
                break 'rounds;
            }
            runner.untraced(j, true);
            if args.trace {
                runner.traced(j, trace.root());
            }
        }
        if started.elapsed() >= window {
            break;
        }
    }
    let notes = if args.trace { runner.per_layer() } else { runner.end_to_end() };
    Run { spans: trace.spans(), outcome: runner.outcome, notes }
}

impl Runner {
    /// One session with tracing off; `measured` books its times.
    fn untraced(&mut self, j: usize, measured: bool) {
        let setup = set_up(self.kind, self.books[j].seed);
        trim_heap();
        reset_peak_rss();
        let session = tune_once(&setup, &self.options, None);
        let peak = peak_rss_mb();
        let mut failures = Vec::new();
        if let Some((session, _)) = self.check_session(j, &setup, session, &mut failures) {
            if measured {
                let book = &mut self.books[j];
                book.setup_s.push(setup.setup_s);
                book.tune_s.push(session.tune_s);
                book.peak_mb.extend(peak);
            }
        }
        self.record(j, failures);
    }

    /// One session with the stage spans recorded under `root`.
    fn traced(&mut self, j: usize, root: Scope<'_>) {
        let mut failures = Vec::new();
        root.time("session", |scope| {
            let (setup, _) = scope.time("setup", |_| set_up(self.kind, self.books[j].seed));
            trim_heap();
            let ((session, summary, staged_s), _) = scope.time("tune", |tune| {
                let tap = SpanTap::new(tune);
                let session = tune_once(&setup, &self.options, Some(&tap as &dyn SessionObserver));
                (session, tap.summary(), tune.children_seconds())
            });
            let Some((session, tuned)) = self.check_session(j, &setup, session, &mut failures)
            else {
                return;
            };
            let book = &mut self.books[j];
            book.traced_tune_s.push(session.tune_s);
            book.staged_s += staged_s;
            if !book.layers.is_empty() {
                return;
            }
            if let Some(summary) = summary {
                book.layers = layers(&session, &summary);
            }
            let rec = &session.result.recommendation;
            if j == 0 {
                let (r, _) = scope.time("replay", |s| {
                    let opts = &self.options;
                    replay(&setup.server, &setup.workload, &tuned, opts, rec, self.run_seed, s)
                });
                self.replay = Some(r);
            }
            match scope.time("execute", |_| execute_designs(&setup.server, &tuned, rec)).0 {
                Ok(executed) => {
                    let layers = &mut self.books[j].layers;
                    layers.insert("engine.actual_improvement_pct", executed.improvement_pct());
                    layers.insert("engine.execute_s", executed.execute_s);
                    layers.insert("engine.raw_work_units", executed.raw_work);
                    layers.insert("engine.rec_work_units", executed.rec_work);
                }
                Err(e) => failures.push(e),
            }
        });
        self.record(j, failures);
    }

    /// Check a session's output, adding what failed to `failures`. The
    /// first session of an instance becomes its reference. Returns the
    /// session and the workload it tuned, unless tuning itself failed.
    fn check_session(
        &mut self,
        j: usize,
        setup: &Setup,
        session: Result<Session, TuneError>,
        failures: &mut Vec<String>,
    ) -> Option<(Session, Workload)> {
        let session = match session {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!("tuning failed: {e}"));
                return None;
            }
        };
        let tuned = compressed(&setup.workload, &self.options);
        let book = &mut self.books[j];
        match outside_view(&setup.server, &tuned, &session.result.recommendation) {
            Ok(outside) => failures.extend(check(&session, &outside, book.reference.as_ref())),
            Err(e) => failures.push(format!("pricing the recommendation failed: {e}")),
        }
        if book.reference.is_none() {
            let r = &session.result;
            book.reference = Some(Counters::of(&session));
            book.improvement_pct = (r.base_cost - r.recommended_cost) / r.base_cost * 100.0;
            book.server_work_units = session.server_work_units;
        }
        Some((session, tuned))
    }

    /// Count one attempted session, failed if `failures` is not empty.
    fn record(&mut self, j: usize, failures: Vec<String>) {
        self.outcome.attempted += 1;
        if !failures.is_empty() {
            self.outcome.failed += 1;
            let name = self.kind.name();
            self.outcome.failures.extend(failures.into_iter().map(|f| format!("{name} #{j}: {f}")));
        }
    }

    /// The mean over instances of `f`, skipping instances without a
    /// value.
    fn over_instances(&self, f: impl Fn(&Book) -> Option<f64>) -> f64 {
        let values: Vec<f64> = self.books.iter().filter_map(f).collect();
        values.iter().sum::<f64>() / values.len() as f64
    }

    fn end_to_end(&mut self) -> Vec<String> {
        let median_of = |v: &Vec<f64>| (!v.is_empty()).then(|| median(v));
        let setups: Vec<f64> = self.books.iter().flat_map(|b| b.setup_s.iter().copied()).collect();
        let values = [
            median(&setups),
            self.over_instances(|b| median_of(&b.tune_s)),
            self.over_instances(|b| b.reference.as_ref().map(|_| b.improvement_pct)),
            self.over_instances(|b| b.reference.as_ref().map(|_| b.server_work_units)),
            self.over_instances(|b| median_of(&b.peak_mb)),
            (self.outcome.attempted - self.outcome.failed) as f64
                / self.outcome.attempted.max(1) as f64,
        ];
        for ((name, _), value) in END_TO_END.iter().zip(values) {
            self.outcome.set(name, value);
        }

        let all: Vec<f64> = self.books.iter().flat_map(|b| b.tune_s.iter().copied()).collect();
        let p = top_percentile(all.len());
        let mut notes = vec![format!(
            "tune_s over all {} measured sessions: median {:.3} s, p{:.0} {:.3} s, max {:.3} s",
            all.len(),
            median(&all),
            p * 100.0,
            quantile(&all, p),
            quantile(&all, 1.0),
        )];
        for (j, b) in self.books.iter().enumerate() {
            notes.push(format!(
                "instance {j} (seed {}): tune_s {:?}, improvement {:.3}%, server work {:.1}, \
                 peak {:?} MB",
                b.seed, b.tune_s, b.improvement_pct, b.server_work_units, b.peak_mb,
            ));
        }
        notes
    }

    fn per_layer(&mut self) -> Vec<String> {
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            values.insert(name, self.over_instances(|b| b.layers.get(name).copied()));
        }
        if let Some(r) = &self.replay {
            let first = &self.books[0].layers;
            let get = |n: &str| first.get(n).copied().unwrap_or(f64::NAN);
            // wall time of the stages that issue what-if calls, times
            // the workers that share it
            let busy_s = self.options.parallel_workers.max(1) as f64
                * (get("core.precosting_s")
                    + get("core.candidate_selection_s")
                    + get("core.enumeration_s")
                    + get("core.epilogue_s"));
            let calls = get("core.cost.whatif_calls");
            let hits = get("core.cost.cache_hits");
            values.insert("workload.compress_ms", r.compress_ms);
            values.insert("core.cost.hit_ns", r.hit_ns);
            values.insert("core.cost.miss_us", r.miss_us);
            values.insert("server.whatif_us", r.whatif_us);
            values.insert("optimizer.optimize_us.base", r.optimize_base_us);
            values.insert("optimizer.optimize_us.rec", r.optimize_rec_us);
            values.insert("optimizer.bind_us", r.bind_us);
            values.insert("optimizer.plan_us", r.optimize_us - r.bind_us);
            values.insert("attrib.optimizer_share", r.whatif_us * 1e-6 * calls / busy_s);
            values.insert(
                "attrib.lookup_share",
                (hits * r.hit_ns * 1e-9 + calls * r.miss_us * 1e-6) / busy_s,
            );
        }
        let traced: f64 = self.books.iter().flat_map(|b| b.traced_tune_s.iter()).sum();
        let staged: f64 = self.books.iter().map(|b| b.staged_s).sum();
        values.insert("trace.attributed_share", staged / traced);
        let (mut with, mut without) = (0.0, 0.0);
        for b in self.books.iter().filter(|b| !b.traced_tune_s.is_empty()) {
            with += median(&b.traced_tune_s);
            without += median(&b.tune_s);
        }
        values.insert("trace.overhead_pct", (with / without - 1.0) * 100.0);
        for (name, value) in values {
            self.outcome.set(name, value);
        }
        vec![format!(
            "traced {} sessions; replayed {} pairs",
            self.books.iter().map(|b| b.traced_tune_s.len()).sum::<usize>(),
            self.replay.as_ref().map_or(0, |r| r.pairs)
        )]
    }
}

/// The per-layer values one traced session yields by itself.
fn layers(session: &Session, summary: &ObserverSummary) -> BTreeMap<&'static str, f64> {
    let r = &session.result;
    let span = |path: &str| summary.spans.iter().find(|s| s.path == path);
    let secs = |path: &str| span(path).map_or(0.0, |s| s.wall_nanos as f64 / 1e9);
    let count = |c: Counter| summary.counter(c) as f64;
    BTreeMap::from([
        ("workload.tuned_statements", r.statements_tuned as f64),
        ("stats.requested", r.stats_requested as f64),
        ("stats.created", r.stats_created as f64),
        ("stats.work_units", r.stats_work_units),
        ("core.precosting_s", secs("preCosting")),
        ("core.column_groups_s", secs("columnGroups")),
        ("core.statistics_s", secs("statistics")),
        ("core.candidate_selection_s", secs("candidateSelection")),
        ("core.merging_s", secs("merging")),
        ("core.epilogue_s", secs("epilogue")),
        ("core.enumeration_s", secs("enumeration")),
        ("core.greedy.phase1_s", secs("enumeration/greedyPhase1")),
        ("core.greedy.phase2_s", secs("enumeration/greedyPhase2")),
        // enumeration draws one budget unit per configuration evaluation
        ("core.greedy.evaluations", span("enumeration").map_or(0.0, |s| s.work_units as f64)),
        ("core.candidates.generated", count(Counter::CandidatesGenerated)),
        ("core.candidates.pool_peak", count(Counter::PeakPoolSize)),
        ("core.cost.whatif_calls", count(Counter::WhatIfCalls)),
        ("core.cost.cache_hits", count(Counter::CacheHits)),
        ("core.cost.hit_rate", summary.cache_hit_rate()),
        ("server.whatif_invocations", session.whatif_invocations as f64),
    ])
}
