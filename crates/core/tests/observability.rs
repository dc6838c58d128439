//! Acceptance tests for the session observability layer (DESIGN.md §10):
//!
//! * **inertness** — attaching a `RecordingObserver` must not change the
//!   recommendation by a byte relative to the `NoopObserver` default;
//! * **counter determinism** — observer counters (and the digest built
//!   from them) are byte-identical across reruns and across
//!   `parallel_workers` counts; wall times are quarantined outside the
//!   digest;
//! * **observed resume** — a resumed session can be traced too, without
//!   changing its report, and its trace holds only the stages it ran;
//! * **per-statement telemetry** — `evaluate_configuration` surfaces the
//!   per-statement what-if call and retry history, so a `FaultPolicy`
//!   run's report shows which statements rode out faults.

use dta_catalog::{Column, ColumnType, Database, Table, Value};
use dta_core::greedy::GreedyCursor;
use dta_core::{
    evaluate_configuration, tune, tune_session, tune_with_observer, Counter, RecordingObserver,
    SessionControl, SessionObserver, Stage, Start, TuningOptions, NOOP,
};
use dta_server::{FaultPolicy, Server, TuningTarget};
use dta_sql::parse_statement;
use dta_workload::{psoft, Workload, WorkloadItem};

fn make_server() -> Server {
    let mut server = Server::new("prod");
    let mut db = Database::new("d");
    db.add_table(
        Table::new(
            "fact",
            vec![
                Column::new("k", ColumnType::BigInt),
                Column::new("a", ColumnType::Int),
                Column::new("g", ColumnType::Int),
                Column::new("m", ColumnType::Int),
                Column::new("val", ColumnType::Float),
                Column::new("pad", ColumnType::Str(60)),
            ],
        )
        .with_primary_key(&["k"]),
    )
    .unwrap();
    db.add_table(
        Table::new(
            "dim",
            vec![Column::new("dk", ColumnType::Int), Column::new("dname", ColumnType::Str(20))],
        )
        .with_primary_key(&["dk"]),
    )
    .unwrap();
    server.create_database(db).unwrap();
    {
        let t = server.table_data_mut("d", "fact").unwrap();
        for i in 0..20_000i64 {
            t.push_row(vec![
                Value::Int(i),
                Value::Int(i % 800),
                Value::Int(i % 25),
                Value::Int(i % 12),
                Value::Float((i % 997) as f64),
                Value::Str(format!("{:=<60}", i)),
            ]);
        }
        t.set_scale(30.0);
    }
    {
        let t = server.table_data_mut("d", "dim").unwrap();
        for i in 0..800i64 {
            t.push_row(vec![Value::Int(i), Value::Str(format!("dim{i}"))]);
        }
    }
    server
}

fn sel(sql: &str) -> WorkloadItem {
    WorkloadItem::new("d", parse_statement(sql).unwrap())
}

fn read_workload() -> Workload {
    let mut items = Vec::new();
    for i in 0..10 {
        items.push(sel(&format!("SELECT pad FROM fact WHERE a = {}", i * 13 % 800)));
    }
    for i in 0..6 {
        items.push(sel(&format!(
            "SELECT g, COUNT(*), SUM(val) FROM fact WHERE m = {} GROUP BY g",
            i % 12
        )));
    }
    for i in 0..4 {
        items.push(sel(&format!(
            "SELECT dname FROM fact, dim WHERE fact.a = dim.dk AND fact.k = {}",
            i * 100
        )));
    }
    Workload::from_items(items)
}

fn options(workers: usize) -> TuningOptions {
    TuningOptions { parallel_workers: workers, compress: false, ..Default::default() }
}

#[test]
fn recording_observer_is_byte_inert_and_traces_every_stage() {
    let workload = read_workload();

    // tune() runs under the NoopObserver; the same session under a
    // RecordingObserver must produce the byte-identical recommendation.
    // Each run gets a fresh server — tuning warms statistics on the
    // target, so reusing one server changes the second run's inputs.
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let plain = tune(&target, &workload, &options(2)).expect("plain run tunes");
    assert!(plain.observer.is_none(), "no summary without a recording observer");

    let server = make_server();
    let target = TuningTarget::Single(&server);
    let obs = RecordingObserver::new();
    let traced = tune_with_observer(&target, &workload, &options(2), &obs).expect("traced run");
    assert_eq!(plain.recommendation.to_string(), traced.recommendation.to_string());
    assert_eq!(plain.recommended_cost.to_bits(), traced.recommended_cost.to_bits());
    assert_eq!(plain.base_cost.to_bits(), traced.base_cost.to_bits());
    assert_eq!(plain.whatif_calls, traced.whatif_calls);
    assert_eq!(plain.evaluations, traced.evaluations);

    // the trace covers every Figure-1 stage, hierarchically
    let summary = traced.observer.as_ref().expect("recording observer yields a summary");
    let paths: Vec<&str> = summary.spans.iter().map(|s| s.path.as_str()).collect();
    for expected in [
        "preCosting",
        "columnGroups",
        "statistics",
        "candidateSelection",
        "merging",
        "enumeration",
        "enumeration/greedyPhase1",
        "enumeration/greedyPhase2",
        "epilogue",
    ] {
        assert!(paths.contains(&expected), "missing span {expected} in {paths:?}");
    }
    // and the counters agree with the report's own deterministic fields
    assert_eq!(summary.counter(Counter::WhatIfCalls) as usize, traced.whatif_calls);
    assert!(summary.counter(Counter::PeakPoolSize) as usize >= traced.pool_size);
    assert!(summary.cache_hit_rate() > 0.0 && summary.cache_hit_rate() < 1.0);
    // what-if volume is attributed to (at least) the enumeration span
    let enumeration = summary
        .spans
        .iter()
        .find(|s| s.path == "enumeration")
        .expect("enumeration span aggregated");
    assert!(enumeration.whatif_calls > 0);
    assert!(enumeration.work_units > 0);
}

#[test]
fn counters_are_byte_identical_across_runs_and_worker_counts() {
    let workload = read_workload();
    let mut digests = Vec::new();
    let mut json_counters = Vec::new();
    for workers in [1, 4] {
        for _run in 0..2 {
            let server = make_server();
            let target = TuningTarget::Single(&server);
            let obs = RecordingObserver::new();
            let result =
                tune_with_observer(&target, &workload, &options(workers), &obs).expect("tunes");
            let summary = result.observer.expect("summary");
            digests.push(summary.deterministic_digest());
            // the counter block of the JSON export must also be stable
            let json = summary.to_json();
            let counters = json
                .split("\"spans\"")
                .next()
                .expect("counters precede spans in dta-obs/v1")
                .to_string();
            json_counters.push(counters);
        }
    }
    for d in &digests[1..] {
        assert_eq!(&digests[0], d, "digest varies across runs/worker counts: {digests:#?}");
    }
    for c in &json_counters[1..] {
        assert_eq!(&json_counters[0], c, "counter JSON varies: {json_counters:#?}");
    }

    // a multi-table workload with UPDATE/INSERT/DELETE, whose enumeration
    // fills prefix cost vectors concurrently
    let mut digests = Vec::new();
    for workers in [1, 2, 4] {
        let b = psoft::build(0.05, 3);
        let target = TuningTarget::Single(&b.server);
        let obs = RecordingObserver::new();
        let options = TuningOptions { compress: true, ..options(workers) };
        let result = tune_with_observer(&target, &b.workload, &options, &obs).expect("tunes");
        digests.push(result.observer.expect("summary").deterministic_digest());
    }
    for d in &digests[1..] {
        assert_eq!(&digests[0], d, "psoft digest varies across worker counts: {digests:#?}");
    }
}

#[test]
fn observed_resume_is_byte_inert_and_traces_only_what_it_ran() {
    let workload = read_workload();
    let total = {
        let server = make_server();
        let control = SessionControl::unlimited();
        let start = Start::Fresh(&workload, &options(1));
        tune_session(&TuningTarget::Single(&server), start, &control, &NOOP).expect("tunes");
        control.consumed()
    };

    // one unit short of convergence: the budget cuts the last Phase-2
    // round; each resume continues on the server that took its partial
    // session, once unobserved and once under a recording observer
    let resume_under = |obs: &dyn SessionObserver| {
        let server = make_server();
        let target = TuningTarget::Single(&server);
        let budgeted = TuningOptions { work_budget_units: Some(total - 1), ..options(1) };
        let partial = tune(&target, &workload, &budgeted).expect("budgeted run");
        let cp = partial.checkpoint.expect("the budget cuts the session");
        assert_eq!(cp.stage, Stage::Enumeration);
        let cursor = cp.enumeration.as_ref().map(|e| e.snapshot.cursor.clone());
        assert!(matches!(cursor, Some(GreedyCursor::Phase2 { .. })), "{cursor:?}");
        let control = SessionControl::resumed(cp.consumed_units, None).expect("valid ledger");
        tune_session(&target, Start::Resume(&cp), &control, obs).expect("resumes")
    };
    let plain = resume_under(&NOOP);
    let traced = resume_under(&RecordingObserver::new());
    assert!(plain.observer.is_none());
    assert_eq!(plain.to_string(), traced.to_string(), "observing the resume changed its report");

    // pre-costing, statistics, selection and Phase 1 were done before the
    // cut; the resume replays them from the checkpoint without a span
    let summary = traced.observer.expect("recording observer yields a summary");
    let paths: Vec<&str> = summary.spans.iter().map(|s| s.path.as_str()).collect();
    assert_eq!(
        paths,
        ["columnGroups", "enumeration", "enumeration/greedyPhase2", "epilogue", "merging"]
    );
    let phase2 = summary.spans.iter().find(|s| s.path == "enumeration/greedyPhase2");
    assert!(phase2.is_some_and(|s| s.work_units > 0), "the resumed round did no work");
}

#[test]
fn evaluation_report_surfaces_per_statement_retry_history() {
    let workload = read_workload();
    let server = make_server();
    server.set_fault_policy(Some(FaultPolicy {
        seed: 7,
        whatif_transient_rate: 0.4,
        ..FaultPolicy::default()
    }));
    let target = TuningTarget::Single(&server);
    let current = server.raw_configuration();
    let proposed = current.clone();
    let report = evaluate_configuration(&target, &workload, &current, &proposed)
        .expect("transient faults are absorbed by retry");

    assert_eq!(report.statements.len(), workload.len());
    // every statement was priced through at least one real what-if call
    assert!(report.statements.iter().all(|s| s.whatif_calls >= 1), "{report}");
    // the schedule at rate 0.4 must have faulted someone, and the retry
    // history lands on the statement that rode it out
    let retried: Vec<&str> =
        report.statements.iter().filter(|s| s.retries > 0).map(|s| s.sql.as_str()).collect();
    assert!(!retried.is_empty(), "schedule injected no transient faults");
    assert!(report.statements.iter().all(|s| !s.degraded), "transient faults never degrade");
    // retried statements issue strictly more calls than their retry count
    for s in report.statements.iter().filter(|s| s.retries > 0) {
        assert!(
            s.whatif_calls > s.retries,
            "{}: {} calls, {} retries",
            s.sql,
            s.whatif_calls,
            s.retries
        );
    }
    // and the human rendering marks them
    let text = report.to_string();
    assert!(text.contains("[retried x"), "{text}");
}
