//! Observer overhead on the enumeration hot path: the same Greedy(m,k)
//! search driven through `enumerate` with the zero-cost
//! `NoopObserver` versus a live `RecordingObserver`.
//!
//! The noop observer is a unit struct whose trait methods are empty
//! defaults — the compiler sees static no-ops behind a vtable, so the
//! cost per evaluation must be noise against a what-if call, same
//! acceptance bar as `budget_overhead`: <2%. Spans are entered only at
//! serial coordination points (twice per greedy run), so even the
//! recording observer's mutex is far off the hot path; the bench prints
//! both ratios and asserts the recommendation is byte-identical under
//! either observer.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dta::advisor::candidates::select_candidates;
use dta::advisor::colgroups::interesting_column_groups;
use dta::advisor::cost::CostEvaluator;
use dta::advisor::enumeration::enumerate;
use dta::advisor::merging::merge_candidates;
use dta::advisor::{RecordingObserver, SessionControl, SessionObserver, TuningOptions};
use dta::prelude::*;
use dta::stats::StatKey;
use std::collections::BTreeSet;

fn make_server() -> Server {
    let mut server = Server::new("bench");
    let mut db = Database::new("d");
    db.add_table(
        Table::new(
            "fact",
            vec![
                Column::new("k", ColumnType::BigInt),
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
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
        for i in 0..30_000i64 {
            t.push_row(vec![
                Value::Int(i),
                Value::Int(i % 1500),
                Value::Int(i % 700),
                Value::Int(i % 25),
                Value::Int(i % 12),
                Value::Float((i % 997) as f64),
                Value::Str(format!("{:=<60}", i)),
            ]);
        }
        t.set_scale(20.0);
    }
    {
        let t = server.table_data_mut("d", "dim").unwrap();
        for i in 0..1500i64 {
            t.push_row(vec![Value::Int(i), Value::Str(format!("dim{i}"))]);
        }
    }
    server
}

fn make_workload() -> Workload {
    let mut items = Vec::new();
    let mut sel = |sql: String| items.push(WorkloadItem::new("d", parse_statement(&sql).unwrap()));
    for i in 0..10 {
        sel(format!("SELECT pad FROM fact WHERE a = {}", i * 13 % 1500));
        sel(format!("SELECT val FROM fact WHERE b = {}", i * 7 % 700));
    }
    for i in 0..6 {
        sel(format!("SELECT g, COUNT(*), SUM(val) FROM fact WHERE m = {} GROUP BY g", i % 12));
        sel(format!("SELECT a, SUM(val) FROM fact WHERE g = {} GROUP BY a", i % 25));
    }
    for i in 0..4 {
        sel(format!("SELECT dname FROM fact, dim WHERE fact.a = dim.dk AND fact.k = {}", i * 500));
        sel(format!("SELECT val FROM fact WHERE a = {} AND b = {}", i * 11 % 1500, i * 5 % 700));
    }
    Workload::from_items(items)
}

fn bench(c: &mut Criterion) {
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let workload = make_workload();
    let items = &workload.items;
    let base = server.raw_configuration();
    let options = TuningOptions { parallel_workers: 1, compress: false, ..Default::default() };

    // build the candidate pool once (selection is not what's measured)
    let pre_eval = CostEvaluator::new(&target, items);
    let pre_costs: Vec<f64> =
        (0..items.len()).map(|i| pre_eval.item_cost(i, &base).unwrap()).collect();
    let groups = interesting_column_groups(
        target.catalog(),
        items,
        &pre_costs,
        options.colgroup_cost_threshold,
    );
    let mut required: Vec<StatKey> = Vec::new();
    let mut table_keys: BTreeSet<(String, String)> = BTreeSet::new();
    for item in items.iter() {
        for t in item.statement.referenced_tables() {
            table_keys.insert((item.database.clone(), t.to_string()));
        }
    }
    for (db, table) in &table_keys {
        for group in groups.for_table(db, table) {
            let cols: Vec<String> = group.iter().cloned().collect();
            required.push(StatKey { database: db.clone(), table: table.clone(), columns: cols });
        }
    }
    target.ensure_statistics(&required, options.reduce_statistics);
    let sel_eval = CostEvaluator::new(&target, items);
    let mut pool =
        select_candidates(&sel_eval, &base, &groups, &options, &SessionControl::unlimited());
    merge_candidates(&mut pool);

    let run = |obs: &dyn SessionObserver| {
        // cold cache + fresh control each run so both observers do the
        // same work over the same counter set
        let control = SessionControl::unlimited();
        obs.attach_counters(control.counters());
        let eval =
            CostEvaluator::with_counters(&target, items, std::sync::Arc::clone(control.counters()));
        enumerate(&eval, &base, &pool.candidates, &server, &options, &control, None, obs).result
    };

    // the observers must be byte-identical in everything but timing
    let noop = run(&dta::advisor::NoopObserver);
    let recording = RecordingObserver::new();
    let recorded = run(&recording);
    assert_eq!(
        format!("{:.6} {}", noop.cost, noop.configuration),
        format!("{:.6} {}", recorded.cost, recorded.configuration),
        "observer changed the recommendation"
    );
    assert_eq!(noop.evaluations, recorded.evaluations);
    let summary = recording.summary().expect("recording observer yields a summary");
    assert!(
        summary.spans.iter().any(|s| s.path == "greedyPhase1"),
        "phase spans recorded: {summary:?}"
    );

    // direct wall-clock ratio over interleaved runs (interleaving cancels
    // drift; criterion's per-group stats follow below)
    let rounds = 6;
    let mut t_noop = std::time::Duration::ZERO;
    let mut t_recording = std::time::Duration::ZERO;
    for _ in 0..rounds {
        let s = std::time::Instant::now();
        black_box(run(&dta::advisor::NoopObserver));
        t_noop += s.elapsed();
        let s = std::time::Instant::now();
        black_box(run(&RecordingObserver::new()));
        t_recording += s.elapsed();
    }
    let overhead = (t_recording.as_secs_f64() / t_noop.as_secs_f64() - 1.0) * 100.0;
    println!(
        "--- observer overhead over {} candidates, {} evaluations: {:+.2}% \
         (noop {:?}, recording {:?}; acceptance bar <2%) ---",
        pool.candidates.len(),
        noop.evaluations,
        overhead,
        t_noop / rounds,
        t_recording / rounds,
    );

    let mut g = c.benchmark_group("observer_overhead");
    g.sample_size(10);
    g.bench_function("observer=noop", |bench| {
        bench.iter(|| black_box(run(&dta::advisor::NoopObserver)))
    });
    g.bench_function("observer=recording", |bench| {
        bench.iter(|| black_box(run(&RecordingObserver::new())))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
