//! One tuning session and the checks on its output.
//!
//! A session is cold: it gets a server and workload built fresh from
//! the instance seed, because tuning changes its server (statistics
//! persist, and the statistics-sampling generator advances).

use crate::workloads::Kind;
use dta::advisor::{Completion, SessionObserver, TuneError};
use dta::prelude::*;
use dta::server::ServerError;
use std::hint::black_box;
use std::time::Instant;

/// Worker threads the host offers; sessions use exactly that many.
pub fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The tuning options of every session: the defaults, with one worker
/// per core.
pub fn options() -> TuningOptions {
    TuningOptions { parallel_workers: host_workers(), ..Default::default() }
}

/// A freshly built instance.
pub struct Setup {
    pub server: Server,
    pub workload: Workload,
    /// Wall time to build the server and the workload.
    pub setup_s: f64,
}

/// Builds per set-up; the set-up time is their median.
pub const SETUP_BUILDS: usize = 3;

/// Build instance `seed` of `kind` [`SETUP_BUILDS`] times, keeping the
/// last build and the median build time.
pub fn set_up(kind: Kind, seed: u64) -> Setup {
    let mut times = Vec::with_capacity(SETUP_BUILDS);
    let mut built = None;
    for _ in 0..SETUP_BUILDS {
        drop(built.take());
        let started = Instant::now();
        built = Some(black_box(kind.build(seed)));
        times.push(started.elapsed().as_secs_f64());
    }
    let (server, workload) = built.expect("SETUP_BUILDS is at least one");
    Setup { server, workload, setup_s: crate::stats::median(&times) }
}

/// A finished session.
pub struct Session {
    pub result: TuningResult,
    /// Wall time of `tune`, from workload in to recommendation out.
    pub tune_s: f64,
    /// Work charged to the server during the session (what-if calls
    /// plus statistics creation).
    pub server_work_units: f64,
    /// What-if invocations the server counted during the session.
    pub whatif_invocations: u64,
}

/// Run one session on `setup`, with `obs` as the trace sink when given.
pub fn tune_once(
    setup: &Setup,
    options: &TuningOptions,
    obs: Option<&dyn SessionObserver>,
) -> Result<Session, TuneError> {
    let server = &setup.server;
    let target = TuningTarget::Single(server);
    let work_before = server.overhead_units();
    let invocations_before = server.whatif_invocations();
    let started = Instant::now();
    let result = match obs {
        Some(obs) => tune_with_observer(&target, black_box(&setup.workload), options, obs),
        None => tune(&target, black_box(&setup.workload), options),
    }?;
    let tune_s = started.elapsed().as_secs_f64();
    Ok(Session {
        result: black_box(result),
        tune_s,
        server_work_units: server.overhead_units() - work_before,
        whatif_invocations: server.whatif_invocations() - invocations_before,
    })
}

/// Everything about a session that must repeat exactly on a fresh
/// server built from the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    pub recommendation: String,
    pub base_cost_bits: u64,
    pub recommended_cost_bits: u64,
    pub statements_tuned: usize,
    pub whatif_calls: usize,
    pub evaluations: usize,
    pub candidates_generated: usize,
    pub candidates_selected: usize,
    pub pool_size: usize,
    pub stats_requested: usize,
    pub stats_created: usize,
    pub stats_work_bits: u64,
    pub server_work_bits: u64,
    pub whatif_invocations: u64,
}

impl Counters {
    pub fn of(session: &Session) -> Counters {
        let r = &session.result;
        Counters {
            recommendation: format!("{:?}", r.recommendation),
            base_cost_bits: r.base_cost.to_bits(),
            recommended_cost_bits: r.recommended_cost.to_bits(),
            statements_tuned: r.statements_tuned,
            whatif_calls: r.whatif_calls,
            evaluations: r.evaluations,
            candidates_generated: r.candidates_generated,
            candidates_selected: r.candidates_selected,
            pool_size: r.pool_size,
            stats_requested: r.stats_requested,
            stats_created: r.stats_created,
            stats_work_bits: r.stats_work_units.to_bits(),
            server_work_bits: session.server_work_units.to_bits(),
            whatif_invocations: session.whatif_invocations,
        }
    }
}

/// The session's output as the server prices it, outside the advisor.
pub struct Outside {
    /// Σ weight × `Server::whatif(stmt, raw configuration).cost` over
    /// the compressed workload, in workload order.
    pub base_cost: f64,
    /// The same sum under the full (unprojected) recommendation.
    pub recommended_cost: f64,
    /// `recommendation.validate(catalog)` findings.
    pub validity_errors: Vec<String>,
}

/// The workload a session tunes: the input after §5.1 compression.
pub fn compressed(workload: &Workload, options: &TuningOptions) -> Workload {
    compress(workload, options.compression).compressed
}

/// Price `recommendation` and the raw configuration statement by
/// statement through `Server::whatif`.
pub fn outside_view(
    server: &Server,
    tuned: &Workload,
    recommendation: &Configuration,
) -> Result<Outside, ServerError> {
    let price = |config: &Configuration| -> Result<f64, ServerError> {
        let mut total = 0.0;
        for item in &tuned.items {
            total += item.weight * server.whatif(&item.database, &item.statement, config)?.cost;
        }
        Ok(total)
    };
    Ok(Outside {
        base_cost: price(&server.raw_configuration())?,
        recommended_cost: price(recommendation)?,
        validity_errors: recommendation
            .validate(server.catalog())
            .iter()
            .map(ToString::to_string)
            .collect(),
    })
}

/// The output checks. Returns one line per failed check; empty means
/// the session passed. `reference` is the first session of the same
/// instance in this run, if this is not it.
pub fn check(session: &Session, outside: &Outside, reference: Option<&Counters>) -> Vec<String> {
    let r = &session.result;
    let mut failures = Vec::new();
    if r.completion != Completion::Complete {
        failures.push(format!("session ended {}", r.completion));
    }
    if !r.degraded_statements.is_empty() {
        failures.push(format!("{} statements degraded", r.degraded_statements.len()));
    }
    if r.worker_restarts != 0 {
        failures.push(format!("{} worker restarts", r.worker_restarts));
    }
    if r.recommended_cost.is_nan() || r.recommended_cost > r.base_cost {
        failures.push(format!(
            "recommended cost {} exceeds base cost {}",
            r.recommended_cost, r.base_cost
        ));
    }
    if !outside.validity_errors.is_empty() {
        failures.push(format!("invalid recommendation: {}", outside.validity_errors.join("; ")));
    }
    if r.base_cost.to_bits() != outside.base_cost.to_bits() {
        failures.push(format!(
            "base cost {} differs from the server's {}",
            r.base_cost, outside.base_cost
        ));
    }
    if r.recommended_cost.to_bits() != outside.recommended_cost.to_bits() {
        failures.push(format!(
            "recommended cost {} differs from the server's {}",
            r.recommended_cost, outside.recommended_cost
        ));
    }
    if session.whatif_invocations != r.whatif_calls as u64 {
        failures.push(format!(
            "server counted {} what-if invocations, the advisor {}",
            session.whatif_invocations, r.whatif_calls
        ));
    }
    if let Some(reference) = reference {
        let counters = Counters::of(session);
        if &counters != reference {
            failures.push(format!(
                "session differs from the first of its instance: {counters:?} vs {reference:?}"
            ));
        }
    }
    failures
}

/// The executed quality of a recommendation (§7.2).
pub struct Executed {
    /// Σ weight × executed work of the SELECT statements under the raw
    /// configuration.
    pub raw_work: f64,
    /// The same under the recommendation.
    pub rec_work: f64,
    /// Wall time of both passes.
    pub execute_s: f64,
}

impl Executed {
    /// `1 − executed work(recommended) / executed work(raw)`, in percent.
    pub fn improvement_pct(&self) -> f64 {
        (1.0 - self.rec_work / self.raw_work) * 100.0
    }
}

/// Deploy the raw configuration and then `recommendation` on `server`,
/// executing the SELECT statements of `tuned` under each through
/// `Server::execute` (which runs SELECT only). Fails if the two designs
/// return different row counts for any statement.
pub fn execute_designs(
    server: &Server,
    tuned: &Workload,
    recommendation: &Configuration,
) -> Result<Executed, String> {
    let started = Instant::now();
    let pass = |config: Configuration| -> Result<(f64, Vec<usize>), String> {
        server.deploy(config);
        let mut work = 0.0;
        let mut rows = Vec::new();
        for item in &tuned.items {
            if !matches!(item.statement, Statement::Select(_)) {
                continue;
            }
            let res = server
                .execute(&item.database, &item.statement)
                .map_err(|e| format!("executing `{}`: {e}", item.statement))?;
            work += item.weight * res.work.work_units();
            rows.push(res.rows.len());
        }
        Ok((work, rows))
    };
    let (raw_work, raw_rows) = pass(server.raw_configuration())?;
    let (rec_work, rec_rows) = pass(recommendation.clone())?;
    let execute_s = started.elapsed().as_secs_f64();
    if raw_rows != rec_rows {
        return Err("the recommended design changed query answers".to_string());
    }
    if raw_work <= 0.0 {
        return Err("the raw design executed no work".to_string());
    }
    Ok(Executed { raw_work, rec_work, execute_s })
}
