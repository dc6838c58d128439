//! Enumeration (§2.2, §4): pick the final configuration from the
//! candidate pool with Greedy(m, k), honoring the storage bound, the
//! user-specified configuration, and the alignment constraint.
//!
//! Alignment (§4) is enforced by *rewriting* every evaluated
//! configuration so that each table and all of its indexes share one
//! partitioning. In [`crate::options::AlignmentMode::Lazy`] mode, the
//! partitioned index variants this requires are synthesized on demand —
//! the paper's lazy technique. [`crate::options::AlignmentMode::Eager`]
//! instead cross-products the pool with every candidate partitioning up
//! front (the unscalable baseline kept for the ablation).
//!
//! Each set Greedy evaluates is priced by delta evaluation
//! ([`SetPricer`]): only the statements the newly added structures can
//! touch are looked up again; the rest reuse the costs of the set's
//! already-priced prefix, bit for bit.
//!
//! [`enumerate`] is the stage's one entry point: a fresh session and a
//! resumed one (passing its checkpoint's [`EnumerationResume`]) take the
//! same path, under whatever observer the session runs with.

use crate::candidates::Candidate;
use crate::control::{SessionControl, StopReason};
use crate::cost::CostEvaluator;
use crate::greedy::{greedy_mk, GreedySnapshot};
use crate::invariants;
use crate::obs::SessionObserver;
use crate::options::{AlignmentMode, TuningOptions};
use dta_physical::{Configuration, PhysicalStructure, RangePartitioning, SizingInfo};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The outcome of enumeration.
#[derive(Debug, Clone)]
pub struct EnumerationResult {
    /// Final configuration (base structures included).
    pub configuration: Configuration,
    /// Workload cost under it.
    pub cost: f64,
    /// Greedy evaluations performed.
    pub evaluations: usize,
    /// Size of the pool enumeration ran over (after any eager expansion).
    pub pool_size: usize,
    /// Aligned variants synthesized lazily during evaluation.
    pub lazy_variants: usize,
}

/// Enumeration progress captured in a checkpoint: the greedy cursor plus
/// the lazy-variant tally at the cut (the pool ordering and any eager
/// expansion are recomputed deterministically from the candidate pool).
#[derive(Debug, Clone, PartialEq)]
pub struct EnumerationResume {
    /// The interrupted Greedy(m, k) state.
    pub snapshot: GreedySnapshot,
    /// Lazy aligned variants synthesized before the cut.
    pub lazy_variants: usize,
}

/// The outcome of a budget-aware enumeration run.
#[derive(Debug, Clone)]
pub struct EnumerationRun {
    /// Best configuration found, whether or not the run completed.
    pub result: EnumerationResult,
    /// `Some` when the budget or a cancellation cut the search short.
    pub interrupted: Option<(StopReason, EnumerationResume)>,
}

/// Rewrite `config` so every table is aligned: each table's indexes take
/// on the table's effective partitioning (or lose theirs if the table is
/// unpartitioned). Returns the number of structures rewritten.
pub fn align_configuration(config: &Configuration) -> (Configuration, usize) {
    // table → target partitioning. Precedence: a clustered index pins the
    // table's partitioning (even "unpartitioned"); else an explicit heap
    // partitioning; else the first partitioned index's scheme (in which
    // case the heap must be partitioned too).
    let mut target: BTreeMap<(String, String), Option<RangePartitioning>> = BTreeMap::new();
    let mut add_heap_partitioning: Vec<(String, String, RangePartitioning)> = Vec::new();
    let mut tables: Vec<(String, String)> = config
        .iter()
        .filter_map(|s| s.table().map(|t| (s.database().to_string(), t.to_string())))
        .collect();
    tables.sort();
    tables.dedup();
    let mut rewritten = 0usize;
    for (db, t) in tables {
        let want = if let Some(ci) = config.clustered_index(&db, &t) {
            ci.partitioning.clone()
        } else if let Some(p) = config.table_partitioning(&db, &t) {
            Some(p.clone())
        } else if let Some(p) = config.indexes_on(&db, &t).find_map(|ix| ix.partitioning.clone()) {
            // the heap itself must adopt this partitioning for the table
            // to count as aligned — a lazily introduced structure
            add_heap_partitioning.push((db.clone(), t.clone(), p.clone()));
            rewritten += 1;
            Some(p)
        } else {
            None
        };
        target.insert((db, t), want);
    }

    let mut out = Configuration::new();
    for s in config.iter() {
        match s {
            PhysicalStructure::Index(ix) => {
                let want = target.get(&(ix.database.clone(), ix.table.clone())).cloned().flatten();
                if ix.partitioning != want {
                    let mut v = ix.clone();
                    v.partitioning = want;
                    rewritten += 1;
                    out.add(PhysicalStructure::Index(v));
                } else {
                    out.add(s.clone());
                }
            }
            PhysicalStructure::TablePartitioning { database, table, scheme } => {
                // a heap partitioning is meaningless (and misaligned) when a
                // clustered index pins a different scheme
                let want = target.get(&(database.clone(), table.clone())).cloned().flatten();
                match want {
                    Some(w) if w == *scheme => {
                        out.add(s.clone());
                    }
                    _ => {
                        rewritten += 1;
                        if let Some(w) = want {
                            out.add(PhysicalStructure::TablePartitioning {
                                database: database.clone(),
                                table: table.clone(),
                                scheme: w,
                            });
                        }
                        // dropped entirely when the table must be unpartitioned
                    }
                }
            }
            _ => {
                out.add(s.clone());
            }
        }
    }
    for (database, table, scheme) in add_heap_partitioning {
        out.add(PhysicalStructure::TablePartitioning { database, table, scheme });
    }
    (out, rewritten)
}

/// Expand a pool eagerly with every (index × partitioning) variant — the
/// §4 strawman.
pub fn eager_alignment_expansion(pool: &[PhysicalStructure]) -> Vec<PhysicalStructure> {
    let mut schemes: BTreeMap<(String, String), Vec<RangePartitioning>> = BTreeMap::new();
    for s in pool {
        let (db, table, scheme) = match s {
            PhysicalStructure::TablePartitioning { database, table, scheme } => {
                (database.clone(), table.clone(), scheme.clone())
            }
            PhysicalStructure::Index(ix) => match &ix.partitioning {
                Some(p) => (ix.database.clone(), ix.table.clone(), p.clone()),
                None => continue,
            },
            _ => continue,
        };
        let entry = schemes.entry((db, table)).or_default();
        if !entry.contains(&scheme) {
            entry.push(scheme);
        }
    }
    let mut out: Vec<PhysicalStructure> = pool.to_vec();
    for s in pool {
        if let PhysicalStructure::Index(ix) = s {
            if let Some(ps) = schemes.get(&(ix.database.clone(), ix.table.clone())) {
                for p in ps {
                    let mut v = ix.clone();
                    v.partitioning = Some(p.clone());
                    let v = PhysicalStructure::Index(v);
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
    }
    out
}

/// The structures enumeration runs Greedy(m, k) over, in search order:
/// candidates by descending observed benefit (helps Greedy find good
/// seeds early when a budget cuts the search short), expanded with every
/// partitioned variant under [`AlignmentMode::Eager`].
pub fn pool_structures(pool: &[Candidate], options: &TuningOptions) -> Vec<PhysicalStructure> {
    let mut ordered: Vec<&Candidate> = pool.iter().collect();
    ordered.sort_by(|a, b| b.benefit.total_cmp(&a.benefit));
    let structures: Vec<PhysicalStructure> = ordered.iter().map(|c| c.structure.clone()).collect();
    if options.alignment == AlignmentMode::Eager {
        eager_alignment_expansion(&structures)
    } else {
        structures
    }
}

/// The cost vector of one prefix `P`: entry `q` is statement `q`'s cost
/// under `assemble(P)`, filled at most once, by an ordinary evaluator
/// lookup, when an evaluation first needs it (`None` records a failed
/// lookup).
type PrefixCosts = Box<[OnceLock<Option<f64>>]>;

/// Prices the sets Greedy(m, k) evaluates by *delta evaluation*.
///
/// Greedy hands over `S = P ∪ A`: `P` is a prefix of `S` with a cost
/// vector, and `A` the structures added to it. A Phase-1 singleton is
/// its own prefix (`A = []`; its evaluation fills the vector), a larger
/// Phase-1 subset `{a, b, …}` has `P = [a]`, and a Phase-2 extension has
/// `P` = the incumbent and `A` = the one new structure. A structure can
/// only change the cost of statements on its own tables (the evaluator's
/// [`CostEvaluator::is_relevant`] rule, precomputed as a
/// structure→statement incidence bitset), so
///
/// ```text
/// cost(S) = Σ_q weight_q × ( lookup(q, assemble(S))   if A touches q
///                            costs_P[q]                otherwise )
/// ```
///
/// summed in workload order, where `costs_P[q]` is `lookup(q,
/// assemble(P))`, made once, by the first evaluation that needs it. The
/// sum is bit-identical to `workload_cost(assemble(S))`: alignment and
/// feasibility work per table, so `assemble(S)` and `assemble(P)`
/// project identically onto a statement `A` cannot touch, and the two
/// lookups hit the same cache fingerprint. Every entry is thus a lookup
/// the full evaluation of `S` makes too, so every fingerprint priced,
/// what-if call and evaluation is unchanged; only the number of lookups
/// (cache hits) falls. If `assemble(P)` is infeasible, `S` is priced by
/// direct lookups.
///
/// Prefix vectors are keyed by pool position. Phase 1 keeps at most one
/// per position; the first extension past `m` structures (a Phase-2
/// round) drops all of them, and every later round keeps only its
/// incumbent's.
pub struct SetPricer<'p> {
    eval: &'p CostEvaluator<'p>,
    base: &'p Configuration,
    structures: &'p [PhysicalStructure],
    sizing: &'p dyn SizingInfo,
    options: &'p TuningOptions,
    base_bytes: u64,
    /// Aligned variants synthesized while assembling evaluated sets.
    lazy_variants: AtomicUsize,
    /// `u64` words per structure row of `touches`.
    words: usize,
    /// Row `s`, bit `q`: structure `s` can change statement `q`'s cost.
    touches: Vec<u64>,
    /// Live prefix vectors, by prefix.
    prefixes: RwLock<BTreeMap<Vec<usize>, Arc<PrefixCosts>>>,
}

impl<'p> SetPricer<'p> {
    /// A pricer over the pool `structures` on top of `base`.
    /// `lazy_variants` seeds the aligned-variant tally (non-zero when
    /// resuming an interrupted enumeration).
    pub fn new(
        eval: &'p CostEvaluator<'p>,
        base: &'p Configuration,
        structures: &'p [PhysicalStructure],
        sizing: &'p dyn SizingInfo,
        options: &'p TuningOptions,
        lazy_variants: usize,
    ) -> Self {
        let statements = eval.items().len();
        let words = statements.div_ceil(64);
        let mut touches = vec![0u64; words * structures.len()];
        for (row, s) in touches.chunks_mut(words.max(1)).zip(structures) {
            for q in (0..statements).filter(|&q| eval.is_relevant(q, s)) {
                if let Some(w) = row.get_mut(q / 64) {
                    *w |= 1 << (q % 64);
                }
            }
        }
        Self {
            eval,
            base,
            structures,
            sizing,
            options,
            base_bytes: base.total_bytes(sizing),
            lazy_variants: AtomicUsize::new(lazy_variants),
            words,
            touches,
            prefixes: RwLock::new(BTreeMap::new()),
        }
    }

    /// Aligned variants synthesized so far (the seed included).
    pub fn lazy_variants(&self) -> usize {
        // dta-lint: allow(R6): monotonic telemetry counter; callers read
        // it only after greedy has joined every worker.
        self.lazy_variants.load(Ordering::Relaxed)
    }

    /// The configuration a set of pool positions stands for: base plus
    /// the set, aligned when required, or `None` when it is infeasible
    /// (two clusterings or partitionings on a table, or over the storage
    /// bound). Counts its aligned variants into [`Self::lazy_variants`].
    pub fn assemble(&self, set: &[&usize]) -> Option<Configuration> {
        self.build(set, true)
    }

    fn build(&self, set: &[&usize], tally: bool) -> Option<Configuration> {
        let mut cfg = self.base.clone();
        for &&p in set {
            cfg.add(self.structures.get(p).expect("greedy positions index the pool").clone());
        }
        if self.options.alignment.required() {
            let (aligned, n) = align_configuration(&cfg);
            if tally {
                // dta-lint: allow(R6): monotonic telemetry counter; read
                // only after greedy_mk has joined every worker.
                self.lazy_variants.fetch_add(n, Ordering::Relaxed);
            }
            cfg = aligned;
        }
        // structural feasibility: at most one clustering/partitioning per
        // table; cheap local checks (full catalog validation happened on
        // the user-specified part already)
        let mut tables: Vec<(String, String)> = cfg
            .iter()
            .filter_map(|s| s.table().map(|t| (s.database().to_string(), t.to_string())))
            .collect();
        tables.sort();
        tables.dedup();
        for (db, t) in &tables {
            if cfg
                .indexes_on(db, t)
                .filter(|i| i.kind == dta_physical::IndexKind::Clustered)
                .count()
                > 1
            {
                return None;
            }
            let parts = cfg
                .iter()
                .filter(|s| {
                    matches!(s, PhysicalStructure::TablePartitioning { database, table, .. }
                        if database == db && table == t)
                })
                .count();
            if parts > 1 {
                return None;
            }
        }
        if let Some(bound) = self.options.storage_bytes {
            let added = cfg.total_bytes(self.sizing).saturating_sub(self.base_bytes);
            if added > bound {
                return None;
            }
        }
        Some(cfg)
    }

    /// Whether pool structure `s` can change statement `q`'s cost.
    fn touches(&self, s: usize, q: usize) -> bool {
        self.touches.get(s * self.words + q / 64).is_some_and(|w| w & (1 << (q % 64)) != 0)
    }

    /// The vector of prefix `key`, created on first use. A Phase-2
    /// round's first extension (`extension`) releases every other vector:
    /// Greedy never evaluates an earlier prefix again.
    fn prefix(&self, key: &[usize], extension: bool) -> Arc<PrefixCosts> {
        if let Some(p) = self.prefixes.read().get(key) {
            return Arc::clone(p);
        }
        let mut prefixes = self.prefixes.write();
        if let Some(p) = prefixes.get(key) {
            return Arc::clone(p);
        }
        if extension {
            prefixes.clear();
        }
        let p: Arc<PrefixCosts> =
            Arc::new((0..self.eval.items().len()).map(|_| OnceLock::new()).collect());
        prefixes.insert(key.to_vec(), Arc::clone(&p));
        p
    }

    /// Weighted workload cost of `assemble(set)`, bit-identical to
    /// `workload_cost(assemble(set))`; `None` when the set is infeasible
    /// or a lookup fails.
    pub fn cost(&self, set: &[&usize]) -> Option<f64> {
        let cfg = self.assemble(set)?;
        let extension = set.len() > self.options.greedy_m;
        let split = if extension { set.len() - 1 } else { set.len().min(1) };
        let (prefix, added) = set.split_at(split);
        let key: Vec<usize> = prefix.iter().map(|&&p| p).collect();
        let costs = self.prefix(&key, extension);
        // `assemble(P)` for filling entries: the set's own configuration
        // for a singleton, else built once per evaluation on its first
        // unfilled entry (`Some(None)`: the prefix is infeasible)
        let mut built: Option<Option<Configuration>> = None;
        let mut total = 0.0;
        for (q, item) in self.eval.items().iter().enumerate() {
            let entry = costs.get(q).expect("prefix vectors hold one entry per statement");
            let cost = if added.iter().any(|&&s| self.touches(s, q)) {
                self.eval.item_cost(q, &cfg).ok()
            } else if let Some(cost) = entry.get() {
                *cost
            } else {
                let pcfg = if added.is_empty() {
                    Some(&cfg)
                } else {
                    built.get_or_insert_with(|| self.build(prefix, false)).as_ref()
                };
                match pcfg {
                    Some(pcfg) => *entry.get_or_init(|| self.eval.item_cost(q, pcfg).ok()),
                    // an infeasible prefix: price the statement directly
                    None => self.eval.item_cost(q, &cfg).ok(),
                }
            }?;
            let next = total + item.weight * cost;
            invariants::check_monotonic_sum(total, next, "delta cost");
            total = next;
        }
        Some(total)
    }
}

/// Run enumeration.
///
/// Greedy evaluations fan out over `options.parallel_workers` threads
/// through the shared evaluator and are priced by delta evaluation (see
/// [`SetPricer`]); results are identical at any worker count (see
/// [`crate::greedy`]). Each evaluation charges one unit of `control`'s
/// budget; on exhaustion or cancellation the run returns best-so-far plus
/// an [`EnumerationResume`] cursor, and a later call passing that cursor
/// (with the same pool and a warmed cache) continues to the
/// byte-identical uninterrupted answer. `obs` receives the inner
/// Greedy(m, k) run's two phases as spans (pass [`crate::obs::NOOP`] for
/// none); the search does not depend on it.
#[allow(clippy::too_many_arguments)]
pub fn enumerate(
    eval: &CostEvaluator<'_>,
    base: &Configuration,
    pool: &[Candidate],
    sizing: &dyn SizingInfo,
    options: &TuningOptions,
    control: &SessionControl,
    resume: Option<EnumerationResume>,
    obs: &dyn SessionObserver,
) -> EnumerationRun {
    let structures = pool_structures(pool, options);
    let (lazy_seed, snapshot) = match resume {
        Some(r) => (r.lazy_variants, Some(r.snapshot)),
        None => (0, None),
    };
    let pricer = SetPricer::new(eval, base, &structures, sizing, options, lazy_seed);

    let base_cost = crate::control::isolated(control, || eval.workload_cost(base))
        .and_then(|r| r.ok())
        .unwrap_or(f64::INFINITY);
    let positions: Vec<usize> = (0..structures.len()).collect();
    let eval_fn = |set: &[&usize]| pricer.cost(set);
    let run = greedy_mk(
        &positions,
        base_cost,
        options.greedy_m,
        structures.len(),
        options.parallel_workers,
        &eval_fn,
        control,
        snapshot,
        obs,
    );

    // snapshot the tally at the cut BEFORE assembling the best-so-far
    // configuration below: the final assembly's rewrites must not leak
    // into the resume cursor, or a resumed run would double-count them
    let lazy_at_cut = pricer.lazy_variants();
    let final_refs: Vec<&usize> = run.outcome.chosen.iter().collect();
    let configuration = pricer.assemble(&final_refs).unwrap_or_else(|| base.clone());
    EnumerationRun {
        result: EnumerationResult {
            configuration,
            cost: run.outcome.cost,
            evaluations: run.outcome.evaluations,
            pool_size: structures.len(),
            lazy_variants: lazy_at_cut,
        },
        interrupted: run.interrupted.map(|(reason, snapshot)| {
            (reason, EnumerationResume { snapshot, lazy_variants: lazy_at_cut })
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_catalog::Value;
    use dta_physical::Index;

    fn part(col: &str) -> RangePartitioning {
        RangePartitioning::new(col, vec![Value::Int(100), Value::Int(200)])
    }

    #[test]
    fn align_rewrites_indexes_to_table_partitioning() {
        let cfg = Configuration::from_structures([
            PhysicalStructure::TablePartitioning {
                database: "d".into(),
                table: "t".into(),
                scheme: part("x"),
            },
            PhysicalStructure::Index(Index::non_clustered("d", "t", &["a"], &[])),
            PhysicalStructure::Index(
                Index::non_clustered("d", "t", &["b"], &[]).partitioned(part("y")),
            ),
        ]);
        assert!(!cfg.is_aligned());
        let (aligned, rewritten) = align_configuration(&cfg);
        assert!(aligned.is_aligned(), "{aligned}");
        assert_eq!(rewritten, 2);
    }

    #[test]
    fn align_strips_partitioning_when_table_unpartitioned_by_clustered() {
        // clustered index unpartitioned → table unpartitioned → secondary
        // index must lose its partitioning
        let cfg = Configuration::from_structures([
            PhysicalStructure::Index(Index::clustered("d", "t", &["k"])),
            PhysicalStructure::Index(
                Index::non_clustered("d", "t", &["a"], &[]).partitioned(part("a")),
            ),
        ]);
        let (aligned, rewritten) = align_configuration(&cfg);
        assert!(aligned.is_aligned());
        assert_eq!(rewritten, 1);
        assert!(aligned.indexes_on("d", "t").all(|ix| ix.partitioning.is_none()));
    }

    #[test]
    fn align_adopts_index_partitioning_when_no_table_partitioning() {
        let cfg = Configuration::from_structures([
            PhysicalStructure::Index(
                Index::non_clustered("d", "t", &["a"], &[]).partitioned(part("a")),
            ),
            PhysicalStructure::Index(Index::non_clustered("d", "t", &["b"], &[])),
        ]);
        let (aligned, _) = align_configuration(&cfg);
        assert!(aligned.is_aligned());
        // both indexes end up partitioned the same way
        let parts: Vec<_> =
            aligned.indexes_on("d", "t").map(|ix| ix.partitioning.clone()).collect();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], parts[1]);
        assert!(parts[0].is_some());
    }

    #[test]
    fn eager_expansion_cross_products() {
        let pool = vec![
            PhysicalStructure::TablePartitioning {
                database: "d".into(),
                table: "t".into(),
                scheme: part("x"),
            },
            PhysicalStructure::Index(Index::non_clustered("d", "t", &["a"], &[])),
            PhysicalStructure::Index(Index::non_clustered("d", "t", &["b"], &[])),
        ];
        let expanded = eager_alignment_expansion(&pool);
        // original 3 + 2 partitioned index variants
        assert_eq!(expanded.len(), 5);
    }
}
