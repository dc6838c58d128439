//! The tuning session: Figure 1's pipeline end to end, wrapped in the
//! robustness layer (DESIGN.md §9) — deterministic work budgets,
//! cooperative cancellation, fault retry/degradation, and
//! checkpoint/resume.
//!
//! [`tune_session`] is the one pipeline; a fresh session and a resumed
//! one differ only in their [`Start`]. [`tune`] and
//! [`tune_with_observer`] are one-line conveniences over it.

use crate::candidates::{assemble_pool, select_candidates_resumable, ItemSelection};
use crate::checkpoint::{SessionCheckpoint, StatsProgress};
use crate::colgroups::interesting_column_groups;
use crate::control::{Completion, ControlError, SessionControl, Stage, StopReason};
use crate::cost::CostEvaluator;
use crate::enumeration::{enumerate, EnumerationResult, EnumerationResume};
use crate::merging::merge_candidates;
use crate::obs::{Counter, SessionObserver, Span, SpanName, NOOP};
use crate::options::TuningOptions;
use crate::report::{EvaluationReport, StatementReport, TuningResult};
use dta_physical::Configuration;
use dta_server::{ServerError, TuningTarget};
use dta_stats::StatKey;
use dta_workload::{compress, Workload};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Errors from a tuning session.
#[derive(Debug)]
pub enum TuneError {
    /// The user-specified configuration is not valid (§6.2).
    InvalidUserConfiguration(Vec<dta_physical::ValidityError>),
    /// A server interaction failed.
    Server(ServerError),
    /// A resume was handed a structurally inconsistent checkpoint.
    InvalidCheckpoint(String),
    /// A resume was handed an impossible budget ledger (see
    /// [`ControlError`]).
    Control(ControlError),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::InvalidUserConfiguration(errs) => {
                write!(f, "invalid user-specified configuration: ")?;
                for (i, e) in errs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            TuneError::Server(e) => write!(f, "server error: {e}"),
            TuneError::InvalidCheckpoint(m) => write!(f, "invalid checkpoint: {m}"),
            TuneError::Control(e) => write!(f, "invalid session control: {e}"),
        }
    }
}

impl std::error::Error for TuneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneError::Server(e) => Some(e),
            TuneError::Control(e) => Some(e),
            TuneError::InvalidUserConfiguration(_) | TuneError::InvalidCheckpoint(_) => None,
        }
    }
}

impl From<ServerError> for TuneError {
    fn from(e: ServerError) -> Self {
        TuneError::Server(e)
    }
}

impl From<ControlError> for TuneError {
    fn from(e: ControlError) -> Self {
        TuneError::Control(e)
    }
}

/// Convenience: weighted workload cost under a configuration.
pub fn workload_cost(
    target: &TuningTarget<'_>,
    workload: &Workload,
    config: &Configuration,
) -> Result<f64, ServerError> {
    let eval = CostEvaluator::new(target, &workload.items);
    eval.workload_cost(config)
}

/// Run a full tuning session.
///
/// When `options.work_budget_units` is set, the session stops once the
/// budget is consumed and returns its best-so-far recommendation plus a
/// [`SessionCheckpoint`] (anytime tuning); pass that checkpoint to
/// [`tune_session`] as [`Start::Resume`] to continue. The budget is
/// deterministic: the same budget cuts the search at the same point on
/// every run and at any `parallel_workers` setting.
pub fn tune(
    target: &TuningTarget<'_>,
    workload: &Workload,
    options: &TuningOptions,
) -> Result<TuningResult, TuneError> {
    tune_with_observer(target, workload, options, &NOOP)
}

/// [`tune`] with a trace sink (DESIGN.md §10): `obs` receives stage
/// spans, events, and per-shard cache statistics, and its
/// [`SessionObserver::summary`] lands in [`TuningResult::observer`].
/// The recommendation is byte-identical to an unobserved run — the
/// observer only reads the deterministic counters; wall-clock time
/// never flows back into the search.
pub fn tune_with_observer(
    target: &TuningTarget<'_>,
    workload: &Workload,
    options: &TuningOptions,
    obs: &dyn SessionObserver,
) -> Result<TuningResult, TuneError> {
    let control = match options.work_budget_units {
        Some(units) => SessionControl::with_budget(units),
        None => SessionControl::unlimited(),
    };
    tune_session(target, Start::Fresh(workload, options), &control, obs)
}

/// Where a [`tune_session`] starts.
#[derive(Debug, Clone, Copy)]
pub enum Start<'a> {
    /// A fresh session: §5.1 workload compression (when
    /// `options.compress`), then the whole pipeline.
    Fresh(&'a Workload, &'a TuningOptions),
    /// Continue an interrupted (budget-exhausted or cancelled) session
    /// from its checkpoint, under the checkpoint's options. The resumed
    /// session prices through the checkpoint's warmed cache and replays
    /// no completed work, and — against the same tuning target — its
    /// final recommendation *and report* are byte-identical to what an
    /// uninterrupted run with a sufficient budget would have produced.
    Resume(&'a SessionCheckpoint),
}

/// Run a tuning session — fresh or resumed — under an externally owned
/// [`SessionControl`] and observer. Every session takes this path.
///
/// The caller keeps the control's [`crate::CancelHandle`] and can
/// cancel the session from another thread (the supervisor's
/// preemption). The control's own budget applies;
/// `options.work_budget_units` is only consulted by [`tune`]. A resume
/// must continue the checkpoint's ledger: build the control with
/// [`SessionControl::resumed`]`(checkpoint.consumed_units, extra)`, where
/// `extra` is the fresh budget (`None` = run to convergence). A
/// checkpoint that fails [`SessionCheckpoint::validate`], or a control
/// whose consumed units differ from the checkpoint's, is rejected with
/// [`TuneError::InvalidCheckpoint`].
///
/// Budget discipline: pre-costing charges one unit per statement,
/// candidate selection charges per block (see
/// [`crate::candidates::SELECTION_BLOCK`]), enumeration charges one unit
/// per evaluation in granted prefixes; column groups, statistics, and
/// merging are poll-only stages. All charging happens at serial
/// coordination points, so a budget cuts at the same place at any worker
/// count. On exhaustion, the checkpoint is captured *before* the
/// epilogue prices the best-so-far report, keeping report-only work out
/// of the resumed session's ledger.
pub fn tune_session(
    target: &TuningTarget<'_>,
    start: Start<'_>,
    control: &SessionControl,
    obs: &dyn SessionObserver,
) -> Result<TuningResult, TuneError> {
    let (options, tuned_workload, total_statements, total_events, resume) = match start {
        Start::Fresh(workload, options) => {
            let tuned = if options.compress {
                compress(workload, options.compression).compressed
            } else {
                workload.clone()
            };
            (options, Cow::Owned(tuned), workload.len(), workload.total_events(), None)
        }
        Start::Resume(cp) => {
            cp.validate().map_err(TuneError::InvalidCheckpoint)?;
            if control.consumed() != cp.consumed_units {
                return Err(TuneError::InvalidCheckpoint(format!(
                    "control ledger at {} units does not continue the checkpoint's {}",
                    control.consumed(),
                    cp.consumed_units
                )));
            }
            (
                &cp.options,
                Cow::Borrowed(&cp.workload),
                cp.total_statements,
                cp.total_events,
                Some(cp),
            )
        }
    };
    obs.attach_counters(control.counters());
    let whatif_server = target.whatif_server();
    let overhead_start = whatif_server.overhead_units();
    let prior_work_units = resume.map_or(0.0, |c| c.tuning_work_units);
    let prior_restarts = resume.map_or(0, |c| c.worker_restarts);

    // base configuration: constraint-enforcing indexes + the (validated)
    // user-specified configuration
    let mut base = whatif_server.raw_configuration();
    if let Some(user) = &options.user_specified {
        let errors = user.validate(target.catalog());
        if !errors.is_empty() {
            return Err(TuneError::InvalidUserConfiguration(errors));
        }
        base = base.union(user);
    }

    let items = &tuned_workload.items;

    // ONE shared, thread-safe evaluator serves the whole session:
    // pre-cost estimation, candidate selection, and enumeration all hit
    // the same cache, and its miss counter is the session's what-if
    // tally; it shares the control's counter set so observer telemetry
    // has a single source of truth
    let eval = CostEvaluator::with_counters(target, items, Arc::clone(control.counters()));
    if let Some(cp) = resume {
        eval.import_cache(&cp.cache, cp.whatif_calls);
        eval.restore_fault_state(cp.whatif_retries, cp.retry_backoff_units, &cp.degraded);
    }

    // progress state, seeded from the checkpoint on resume
    let mut pre_costs: Vec<f64> = resume.map_or_else(Vec::new, |c| c.pre_costs.clone());
    let mut stats_progress: Option<StatsProgress> = resume.and_then(|c| c.stats);
    let resume_selections: Vec<ItemSelection> =
        resume.and_then(|c| c.selections.clone()).unwrap_or_default();
    let resume_enumeration: Option<EnumerationResume> = resume.and_then(|c| c.enumeration.clone());

    let mut selections: Option<Vec<ItemSelection>> = None;
    let mut candidates_selected = 0usize;
    let mut enum_result: Option<EnumerationResult> = None;
    let mut enum_cursor: Option<EnumerationResume> = None;

    // A stage a resumed checkpoint already completed is replayed from
    // the checkpoint without a span, so a resume's trace shows only the
    // work it did.
    let cut: Option<(StopReason, Stage)> = 'pipeline: {
        // preliminary base costs (pre-statistics) for column-group
        // weighting — one budget unit per statement
        let pre_span =
            (pre_costs.len() < items.len()).then(|| Span::enter(obs, SpanName::PreCosting));
        while pre_costs.len() < items.len() {
            if let Some(reason) = control.stop() {
                break 'pipeline Some((reason, Stage::PreCosting));
            }
            let i = pre_costs.len();
            // panic isolation, pre-costing edition: a panicking what-if
            // call (fault injection, a poisoned optimizer) is caught,
            // reported as a worker restart, and re-issued until it comes
            // back clean — the same rescue the parallel stages get
            let cost = crate::control::isolated(control, || eval.item_cost(i, &base))
                .unwrap_or_else(|| {
                    Err(ServerError::Fault {
                        kind: dta_server::FaultKind::Permanent,
                        what: "pre-costing what-if panicked past the retry bound".into(),
                    })
                });
            pre_costs.push(cost.map_err(TuneError::Server)?);
            control.charge(1);
        }
        // the pre-statistics base costs double as the per-item fallbacks
        // a permanent fault degrades a statement to
        eval.set_fallbacks(pre_costs.clone());
        drop(pre_span);

        // §2.2 column-group restriction (pure computation; poll-only)
        if let Some(reason) = control.stop() {
            break 'pipeline Some((reason, Stage::ColumnGroups));
        }
        let cg_span = Span::enter(obs, SpanName::ColumnGroups);
        let groups = interesting_column_groups(
            target.catalog(),
            items,
            &pre_costs,
            options.colgroup_cost_threshold,
        );
        drop(cg_span);

        // §5.2 statistics for the interesting groups (histograms come
        // from singleton groups; densities from the multi-column ones).
        // A resumed session whose checkpoint passed this stage reuses
        // the stored numbers: the statistics already exist on the target
        // and the imported cache is post-statistics.
        if stats_progress.is_none() {
            if let Some(reason) = control.stop() {
                break 'pipeline Some((reason, Stage::Statistics));
            }
            let _stats_span = Span::enter(obs, SpanName::Statistics);
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
                    required.push(StatKey {
                        database: db.clone(),
                        table: table.clone(),
                        columns: cols,
                    });
                }
            }
            let report = target.ensure_statistics(&required, options.reduce_statistics);
            if report.created > 0 {
                // new statistics change what-if estimates; pre-statistics
                // cached costs are stale and must not leak into the search
                eval.invalidate();
            }
            stats_progress = Some(StatsProgress {
                requested: report.requested,
                created: report.created,
                work_units: report.work_units,
                failed: report.failed,
                retries: report.retries,
                backoff_units: report.backoff_units,
            });
            obs.event(
                "stats",
                &format!(
                    "requested={} created={} failed={} retries={}",
                    report.requested, report.created, report.failed, report.retries
                ),
            );
        }

        // §2.2 candidate selection (per query, block-budgeted, possibly
        // parallel within each block)
        let sel_span = (resume_selections.len() < items.len())
            .then(|| Span::enter(obs, SpanName::CandidateSelection));
        let run =
            select_candidates_resumable(&eval, &base, &groups, options, control, resume_selections);
        let interrupted = run.interrupted;
        selections = Some(run.selections);
        if let Some(reason) = interrupted {
            break 'pipeline Some((reason, Stage::CandidateSelection));
        }
        drop(sel_span);
        let mut pool = assemble_pool(selections.as_deref().unwrap_or(&[]));
        control.counters().raise(Counter::PeakPoolSize, pool.candidates.len() as u64);

        // §2.2 merging (pure; poll-only)
        if let Some(reason) = control.stop() {
            break 'pipeline Some((reason, Stage::Merging));
        }
        let merge_span = Span::enter(obs, SpanName::Merging);
        merge_candidates(&mut pool);
        candidates_selected = pool.candidates.len();
        drop(merge_span);
        obs.event("pool", &format!("generated={} merged={candidates_selected}", pool.generated));

        // §2.2/§4 enumeration — shares the selection phase's cache and
        // charges one budget unit per configuration evaluation
        let enum_span = Span::enter(obs, SpanName::Enumeration);
        let erun = enumerate(
            &eval,
            &base,
            &pool.candidates,
            whatif_server,
            options,
            control,
            resume_enumeration,
            obs,
        );
        enum_result = Some(erun.result);
        if let Some((reason, cursor)) = erun.interrupted {
            enum_cursor = Some(cursor);
            break 'pipeline Some((reason, Stage::Enumeration));
        }
        drop(enum_span);
        None
    };

    // An interrupted session — budget-exhausted or cancelled (a
    // preempted tenant parking under the supervisor) — checkpoints
    // *before* the epilogue below prices the report, so no report-only
    // cache entries or tallies leak into the resumed ledger.
    let checkpoint = match cut {
        Some((_, stage)) => Some(Box::new(SessionCheckpoint {
            options: options.clone(),
            workload: (*tuned_workload).clone(),
            total_statements,
            total_events,
            stage,
            consumed_units: control.consumed(),
            tuning_work_units: prior_work_units + (whatif_server.overhead_units() - overhead_start),
            pre_costs: pre_costs.clone(),
            stats: stats_progress,
            selections: selections.clone(),
            enumeration: enum_cursor.clone(),
            cache: eval.export_cache(),
            whatif_calls: eval.whatif_calls(),
            worker_restarts: prior_restarts + control.worker_restarts(),
            whatif_retries: eval.retries(),
            retry_backoff_units: eval.backoff_units(),
            degraded: eval.degraded_items(),
        })),
        _ => None,
    };
    let completion = match cut {
        None => Completion::Complete,
        Some((StopReason::BudgetExhausted, stage)) => Completion::BudgetExhausted { stage },
        Some((StopReason::Cancelled, stage)) => Completion::Cancelled { stage },
    };

    // Epilogue: price the best-so-far recommendation. Anytime guarantee:
    // whatever the cut, the recommendation is a valid configuration, it
    // respects the storage bound and alignment (enumeration enforces
    // both; earlier cuts return the base configuration), and it is never
    // worse than the raw configuration.
    let epilogue_span = Span::enter(obs, SpanName::Epilogue);
    let base_cost = crate::control::isolated(control, || eval.workload_cost(&base))
        .unwrap_or_else(|| {
            Err(ServerError::Fault {
                kind: dta_server::FaultKind::Permanent,
                what: "base-configuration pricing panicked past the retry bound".into(),
            })
        })
        .map_err(TuneError::Server)?;
    let (recommendation, recommended_cost, pool_size, lazy_variants, enum_evaluations) =
        match enum_result {
            Some(r) => (r.configuration, r.cost, r.pool_size, r.lazy_variants, r.evaluations),
            None => (base.clone(), base_cost, 0, 0, 0),
        };

    let storage_bytes =
        recommendation.total_bytes(whatif_server).saturating_sub(base.total_bytes(whatif_server));

    let partial_pool = assemble_pool(selections.as_deref().unwrap_or(&[]));
    if candidates_selected == 0 {
        // merging never ran (the cut hit at or before it); report the
        // unmerged tally of the partial pool
        candidates_selected = partial_pool.candidates.len();
    }
    let stats = stats_progress.unwrap_or_default();
    let degraded_statements: Vec<String> = eval
        .degraded_items()
        .iter()
        .map(|&i| {
            items.get(i).expect("degraded indices come from this workload").statement.to_string()
        })
        .collect();

    // deterministic candidate telemetry, tallied once at this serial
    // coordination point (generated/pruned match the report fields)
    let counters = control.counters();
    counters.add(Counter::CandidatesGenerated, partial_pool.generated as u64);
    counters.add(
        Counter::CandidatesPruned,
        partial_pool.generated.saturating_sub(candidates_selected) as u64,
    );
    counters.raise(Counter::PeakPoolSize, pool_size as u64);
    drop(epilogue_span);
    obs.event("completion", &completion.to_string());
    obs.record_cache_shards(&eval.cache_stats());

    Ok(TuningResult {
        recommendation,
        base_cost,
        recommended_cost: recommended_cost.min(base_cost),
        statements_tuned: items.len(),
        total_statements,
        total_events,
        whatif_calls: eval.whatif_calls(),
        evaluations: partial_pool.evaluations + enum_evaluations,
        candidates_generated: partial_pool.generated,
        candidates_selected,
        pool_size,
        lazy_variants,
        stats_requested: stats.requested,
        stats_created: stats.created,
        stats_work_units: stats.work_units,
        tuning_work_units: prior_work_units + (whatif_server.overhead_units() - overhead_start),
        storage_bytes,
        completion,
        worker_restarts: prior_restarts + control.worker_restarts(),
        whatif_retries: eval.retries() + stats.retries,
        retry_backoff_units: eval.backoff_units() + stats.backoff_units,
        degraded_statements,
        checkpoint,
        observer: obs.summary(),
    })
}

/// §6.3 exploratory analysis: evaluate a user-proposed configuration for
/// a workload against the current one, without any search.
///
/// Prices through a [`CostEvaluator`], so a statement whose referenced
/// tables the two configurations cover identically (e.g. the proposal
/// adds nothing relevant to it) is costed once, not twice — the raw
/// two-calls-per-statement path this replaces had no such reuse.
pub fn evaluate_configuration(
    target: &TuningTarget<'_>,
    workload: &Workload,
    current: &Configuration,
    proposed: &Configuration,
) -> Result<EvaluationReport, ServerError> {
    let eval = CostEvaluator::new(target, &workload.items);
    let mut statements = Vec::with_capacity(workload.len());
    let mut current_total = 0.0;
    let mut proposed_total = 0.0;
    for (i, item) in workload.items.iter().enumerate() {
        let (current_cost, _) = eval.item_report(i, current)?;
        let (proposed_cost, used_structures) = eval.item_report(i, proposed)?;
        current_total += item.weight * current_cost;
        proposed_total += item.weight * proposed_cost;
        statements.push(StatementReport {
            database: item.database.clone(),
            sql: item.statement.to_string(),
            weight: item.weight,
            current_cost,
            proposed_cost,
            used_structures,
            whatif_calls: 0,
            retries: 0,
            degraded: false,
        });
    }
    // per-statement what-if accounting: shards map one-to-one onto
    // statements, so shard i's tally is statement i's retry history
    let shard_stats = eval.cache_stats();
    let degraded = eval.degraded_items();
    for (i, report) in statements.iter_mut().enumerate() {
        report.whatif_calls = shard_stats[i].calls as usize;
        report.retries = shard_stats[i].retries as usize;
        report.degraded = degraded.binary_search(&i).is_ok();
    }
    Ok(EvaluationReport { statements, current_total, proposed_total })
}
