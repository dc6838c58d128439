//! Delta evaluation in enumeration (DESIGN.md §6) is exact:
//!
//! * **exactness** — every set Greedy(m, k) visits is priced bit for bit
//!   like `workload_cost(assemble(set))` on a fresh evaluator, and both
//!   paths price the same fingerprints (equal what-if calls);
//! * **golden pin** — full sessions reproduce the recommendation, costs
//!   and deterministic tallies recorded before delta evaluation existed.

use dta_catalog::Value;
use dta_core::candidates::select_candidates;
use dta_core::colgroups::interesting_column_groups;
use dta_core::cost::CostEvaluator;
use dta_core::enumeration::{pool_structures, SetPricer};
use dta_core::greedy::greedy_mk;
use dta_core::merging::merge_candidates;
use dta_core::{tune, AlignmentMode, SessionControl, TuningOptions, TuningResult, NOOP};
use dta_physical::{Configuration, Index, PhysicalStructure, RangePartitioning};
use dta_server::{Server, TuningTarget};
use dta_stats::StatKey;
use dta_workload::{compress, psoft, tpch, CompressionOptions, Workload};
use parking_lot::Mutex;
use std::collections::BTreeSet;

/// A small PSOFT instance, compressed the way a session compresses it.
fn psoft_small(seed: u64) -> (Server, Workload) {
    let b = psoft::build(0.05, seed);
    let tuned = compress(&b.workload, CompressionOptions::default()).compressed;
    (b.server, tuned)
}

/// Price every set Greedy(m, k) visits over the session's candidate pool
/// with [`SetPricer`], then re-price each with a full
/// `workload_cost(assemble(set))` on a fresh evaluator and demand equal
/// bits, equal feasibility and equal what-if calls. Returns the pool size
/// and the aligned variants the search synthesized.
fn assert_delta_exact(
    name: &str,
    server: &Server,
    workload: &Workload,
    options: &TuningOptions,
) -> (usize, usize) {
    let target = TuningTarget::Single(server);
    let items = &workload.items;
    let mut base = server.raw_configuration();
    if let Some(user) = &options.user_specified {
        base = base.union(user);
    }

    // the candidate pool, built by the session's own stages
    let pool_eval = CostEvaluator::new(&target, items);
    let pre: Vec<f64> = (0..items.len())
        .map(|i| pool_eval.item_cost(i, &base).expect("pre-costing succeeds"))
        .collect();
    let groups =
        interesting_column_groups(target.catalog(), items, &pre, options.colgroup_cost_threshold);
    // statistics for the interesting groups (partitioning candidates
    // take their boundaries from the histograms)
    let mut required: Vec<StatKey> = Vec::new();
    let tables: BTreeSet<(String, String)> = items
        .iter()
        .flat_map(|i| {
            i.statement.referenced_tables().into_iter().map(|t| (i.database.clone(), t.to_string()))
        })
        .collect();
    for (db, table) in &tables {
        for group in groups.for_table(db, table) {
            let columns = group.iter().cloned().collect();
            required.push(StatKey { database: db.clone(), table: table.clone(), columns });
        }
    }
    target.ensure_statistics(&required, options.reduce_statistics);
    pool_eval.invalidate();
    let control = SessionControl::unlimited();
    let mut pool = select_candidates(&pool_eval, &base, &groups, options, &control);
    merge_candidates(&mut pool);
    let structures = pool_structures(&pool.candidates, options);

    // delta path: the production pricer, driven by Greedy(m, k)
    let eval = CostEvaluator::new(&target, items);
    let pricer = SetPricer::new(&eval, &base, &structures, server, options, 0);
    let base_cost = eval.workload_cost(&base).expect("base prices");
    let visited: Mutex<Vec<(Vec<usize>, Option<f64>)>> = Mutex::new(Vec::new());
    let positions: Vec<usize> = (0..structures.len()).collect();
    let record = |set: &[&usize]| {
        let cost = pricer.cost(set);
        visited.lock().push((set.iter().map(|&&p| p).collect(), cost));
        cost
    };
    let outcome = greedy_mk(
        &positions,
        base_cost,
        options.greedy_m,
        structures.len(),
        options.parallel_workers,
        &record,
        &SessionControl::unlimited(),
        None,
        &NOOP,
    )
    .outcome;
    let visited = visited.into_inner();
    assert_eq!(visited.len(), outcome.evaluations, "{name}: one record per evaluation");
    assert!(visited.iter().any(|(set, _)| set.len() > options.greedy_m), "{name}: no Phase 2");

    // reference path: full evaluation of every visited set, cold cache
    let fresh = CostEvaluator::new(&target, items);
    assert_eq!(fresh.workload_cost(&base).expect("base prices").to_bits(), base_cost.to_bits());
    for (set, delta) in &visited {
        let refs: Vec<&usize> = set.iter().collect();
        let full = pricer.assemble(&refs).and_then(|cfg| fresh.workload_cost(&cfg).ok());
        assert_eq!(
            delta.map(f64::to_bits),
            full.map(f64::to_bits),
            "{name}: delta cost of {set:?} differs from full evaluation"
        );
    }
    assert_eq!(eval.whatif_calls(), fresh.whatif_calls(), "{name}: what-if calls differ");
    (structures.len(), pricer.lazy_variants())
}

#[test]
fn delta_cost_is_exact_on_tpch_tiny() {
    let server = tpch::build_server(tpch::TpchScale::tiny(), 7);
    let options = TuningOptions { parallel_workers: 2, ..Default::default() };
    assert_delta_exact("tpch", &server, &tpch::workload(), &options);
}

#[test]
fn delta_cost_is_exact_on_psoft_small() {
    let (server, workload) = psoft_small(7);
    let options = TuningOptions { parallel_workers: 2, ..Default::default() };
    assert_delta_exact("psoft", &server, &workload, &options);
}

/// TPC-H queries with date ranges, which yield partitioning candidates.
fn tpch_ranges() -> (Server, Workload) {
    let server = tpch::build_server(tpch::TpchScale::tiny(), 11);
    let mut workload = tpch::workload();
    workload.items.truncate(10);
    (server, workload)
}

#[test]
fn delta_cost_is_exact_under_lazy_and_eager_alignment() {
    let (server, workload) = tpch_ranges();
    let lazy = TuningOptions { parallel_workers: 2, ..Default::default() }.with_alignment();
    let (lazy_pool, variants) = assert_delta_exact("lazy", &server, &workload, &lazy);
    assert!(variants > 0, "the lazy case synthesized no aligned variants");
    let eager = TuningOptions { alignment: AlignmentMode::Eager, ..lazy };
    let (eager_pool, _) = assert_delta_exact("eager", &server, &workload, &eager);
    assert!(eager_pool > lazy_pool, "eager expansion added no partitioned variants");
}

#[test]
fn delta_cost_is_exact_with_storage_bound_and_partitioned_user_base() {
    let (server, workload) = tpch_ranges();
    // a user-specified partitioned table plus an index on it: alignment
    // rewrites the base inside every assembled prefix
    let shipdate = RangePartitioning::new(
        "l_shipdate",
        vec![Value::Str("1994-01-01".into()), Value::Str("1996-01-01".into())],
    );
    let user = Configuration::from_structures([
        PhysicalStructure::TablePartitioning {
            database: tpch::DB.into(),
            table: "lineitem".into(),
            scheme: shipdate,
        },
        PhysicalStructure::Index(Index::non_clustered(tpch::DB, "lineitem", &["l_partkey"], &[])),
    ]);
    let options = TuningOptions {
        parallel_workers: 2,
        user_specified: Some(user),
        storage_bytes: Some(server.total_data_bytes() / 2),
        ..Default::default()
    }
    .with_alignment();
    assert_delta_exact("bounded", &server, &workload, &options);
}

/// FNV-1a over the recommendation text: a fixed, documented hash, so the
/// pin does not depend on a standard-library hasher.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Deterministic results of one session, as pinned.
#[derive(Debug, PartialEq)]
struct Pin {
    structures: usize,
    recommendation_fnv: u64,
    base_cost_bits: u64,
    recommended_cost_bits: u64,
    whatif_calls: usize,
    evaluations: usize,
    lazy_variants: usize,
    tuning_work_units_bits: u64,
}

fn pin(r: &TuningResult) -> Pin {
    Pin {
        structures: r.recommendation.len(),
        recommendation_fnv: fnv1a(&r.recommendation.to_string()),
        base_cost_bits: r.base_cost.to_bits(),
        recommended_cost_bits: r.recommended_cost.to_bits(),
        whatif_calls: r.whatif_calls,
        evaluations: r.evaluations,
        lazy_variants: r.lazy_variants,
        tuning_work_units_bits: r.tuning_work_units.to_bits(),
    }
}

// The pinned values below were recorded at the parent commit of delta
// evaluation, when enumeration still priced every statement of every
// evaluated set through the evaluator.

#[test]
fn golden_tpch_tiny_aligned_session_is_unchanged() {
    let server = tpch::build_server(tpch::TpchScale::tiny(), 7);
    let target = TuningTarget::Single(&server);
    let options = TuningOptions { parallel_workers: 2, ..Default::default() }.with_alignment();
    let r = tune(&target, &tpch::workload(), &options).expect("tpch tunes");
    assert_eq!(
        pin(&r),
        Pin {
            structures: 40,
            recommendation_fnv: 0xc59d_1696_85a9_c691,
            base_cost_bits: 0x40a9_aa3d_1478_f2c5,
            recommended_cost_bits: 0x408c_8ee9_cb27_c30a,
            whatif_calls: 48698,
            evaluations: 7501,
            lazy_variants: 24108,
            tuning_work_units_bits: 0x414c_9623_7ef9_db23,
        }
    );
}

#[test]
fn golden_psoft_small_session_is_unchanged() {
    let b = psoft::build(0.05, 7);
    let target = TuningTarget::Single(&b.server);
    let options = TuningOptions { parallel_workers: 2, ..Default::default() };
    let r = tune(&target, &b.workload, &options).expect("psoft tunes");
    assert_eq!(
        pin(&r),
        Pin {
            structures: 63,
            recommendation_fnv: 0x7c86_8e43_4873_2a27,
            base_cost_bits: 0x4134_8ef6_18f2_306a,
            recommended_cost_bits: 0x4113_d5dd_5281_53d2,
            whatif_calls: 9267,
            evaluations: 5219,
            lazy_variants: 0,
            tuning_work_units_bits: 0x40fb_a427_9db2_2d0e,
        }
    );
}
