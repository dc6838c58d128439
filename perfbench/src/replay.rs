//! Per-call times of the layers below the cost cache, measured from
//! outside the advisor.
//!
//! The replay runs on a session's post-statistics server over a fixed,
//! seeded set of (statement, configuration) pairs: each tuned statement
//! with the raw configuration, and with each prefix of the
//! recommendation's added structures, which reproduces the growing
//! configurations Greedy visits. Each public function is timed on every
//! pair:
//!
//! * `dta::optimizer::query::bind`
//! * `WhatIfOptimizer::optimize`
//! * `Server::whatif`
//! * `CostEvaluator::item_cost`, once cold and once warm
//!
//! and `compress` is timed on the session's input workload.

use crate::trace::Scope;
use crate::workloads::splitmix64;
use dta::advisor::cost::CostEvaluator;
use dta::optimizer::query::bind;
use dta::prelude::*;
use std::hint::black_box;

/// At most this many pairs are replayed.
pub const MAX_PAIRS: usize = 600;

/// Mean per-call times; see the module docs for what each one times.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub pairs: usize,
    pub bind_us: f64,
    pub optimize_base_us: f64,
    pub optimize_rec_us: f64,
    pub optimize_us: f64,
    pub whatif_us: f64,
    pub hit_ns: f64,
    pub miss_us: f64,
    pub compress_ms: f64,
}

/// The replayed pairs: (statement index, number of added structures in
/// the configuration). Every pair when there are at most [`MAX_PAIRS`],
/// otherwise a seeded sample of them, in statement order.
pub fn pairs(statements: usize, added: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut all: Vec<(usize, usize)> =
        (0..statements).flat_map(|i| (0..=added).map(move |j| (i, j))).collect();
    if all.len() > MAX_PAIRS {
        // partial Fisher-Yates over a SplitMix64 stream
        let mut state = seed;
        for k in 0..MAX_PAIRS {
            state = splitmix64(state);
            let pick = k + (state % (all.len() - k) as u64) as usize;
            all.swap(k, pick);
        }
        all.truncate(MAX_PAIRS);
        all.sort_unstable();
    }
    all
}

/// Time the layer calls on `server` after a session that tuned
/// `workload` (compressed to `tuned`) and recommended `recommendation`.
/// Each call is also a span under `scope`.
pub fn replay(
    server: &Server,
    workload: &Workload,
    tuned: &Workload,
    options: &TuningOptions,
    recommendation: &Configuration,
    seed: u64,
    scope: Scope<'_>,
) -> Replay {
    let base = server.raw_configuration();
    let added: Vec<&PhysicalStructure> = recommendation.difference(&base);
    let configs: Vec<Configuration> = (0..=added.len())
        .map(|j| {
            let mut c = base.clone();
            for s in &added[..j] {
                c.add((*s).clone());
            }
            c
        })
        .collect();
    let pairs = pairs(tuned.items.len(), added.len(), seed);

    let mut out = Replay { pairs: pairs.len(), ..Replay::default() };
    let span = |name: &str, f: &mut dyn FnMut()| -> f64 { scope.time(name, |_| f()).1 };

    let mut bind_s = 0.0;
    for &(i, _) in &pairs {
        let item = &tuned.items[i];
        bind_s += span("optimizer/bind", &mut || {
            black_box(bind(server.catalog(), &item.database, &item.statement).ok());
        });
    }

    let (mut base_s, mut base_n, mut rec_s, mut rec_n) = (0.0, 0usize, 0.0, 0usize);
    server.with_statistics(|stats| {
        let opt = WhatIfOptimizer::new(server.catalog(), stats, server, server.hardware());
        for &(i, j) in &pairs {
            let item = &tuned.items[i];
            let t = span("optimizer/optimize", &mut || {
                black_box(opt.optimize(&item.database, &item.statement, &configs[j]).ok());
            });
            if j == 0 {
                base_s += t;
                base_n += 1;
            } else {
                rec_s += t;
                rec_n += 1;
            }
        }
    });

    let mut whatif_s = 0.0;
    for &(i, j) in &pairs {
        let item = &tuned.items[i];
        whatif_s += span("server/whatif", &mut || {
            black_box(server.whatif(&item.database, &item.statement, &configs[j]).ok());
        });
    }

    let target = TuningTarget::Single(server);
    let eval = CostEvaluator::new(&target, &tuned.items);
    let (mut hit_s, mut hits, mut miss_s, mut misses) = (0.0, 0usize, 0.0, 0usize);
    for &(i, j) in &pairs {
        // a cold call can still hit when the projected configuration
        // repeats an earlier pair's; the evaluator's call counter says
        // which it was
        let calls_before = eval.whatif_calls();
        let cold = span("cost/item_cost", &mut || {
            black_box(eval.item_cost(i, &configs[j]).ok());
        });
        if eval.whatif_calls() > calls_before {
            miss_s += cold;
            misses += 1;
        } else {
            hit_s += cold;
            hits += 1;
        }
        hit_s += span("cost/item_cost", &mut || {
            black_box(eval.item_cost(i, &configs[j]).ok());
        });
        hits += 1;
    }

    let mut compress_s = Vec::new();
    for _ in 0..3 {
        compress_s.push(span("workload/compress", &mut || {
            black_box(compress(workload, options.compression));
        }));
    }

    let per =
        |total: f64, n: usize, scale: f64| if n == 0 { 0.0 } else { total / n as f64 * scale };
    out.bind_us = per(bind_s, pairs.len(), 1e6);
    out.optimize_base_us = per(base_s, base_n, 1e6);
    out.optimize_rec_us = per(rec_s, rec_n, 1e6);
    out.optimize_us = per(base_s + rec_s, base_n + rec_n, 1e6);
    out.whatif_us = per(whatif_s, pairs.len(), 1e6);
    out.hit_ns = per(hit_s, hits, 1e9);
    out.miss_us = per(miss_s, misses, 1e6);
    out.compress_ms = crate::stats::median(&compress_s) * 1e3;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_pair_sets_are_complete_and_large_ones_sampled_reproducibly() {
        assert_eq!(pairs(3, 2, 1).len(), 9);
        let a = pairs(300, 60, 7);
        assert_eq!(a.len(), MAX_PAIRS);
        assert_eq!(a, pairs(300, 60, 7));
        assert_ne!(a, pairs(300, 60, 8));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }
}
