//! The benchmark's workloads, and how a run's instances derive from its
//! seed.
//!
//! A run tunes several *instances* of its workload. Instance 0 is built
//! from the run's seed itself; instance `j > 0` from a seed derived from
//! it. The seed goes only into the repository's generators. Per-run
//! figures are means over the instances, because one generated instance
//! says little: on tpch the what-if count of a session jumps between
//! about 44k and 56k from one data seed to the next.

use dta::prelude::*;
use dta::workload::{psoft, synt1, tpch};

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// TPC-H, 22 queries over SF 0.002 of data presented as SF 1.
    Tpch,
    /// The 6,000-event PeopleSoft-like workload, compressed to ~300
    /// statements, with UPDATE, INSERT and DELETE.
    Psoft,
    /// The first 32 statements of a SetQuery-style workload over one
    /// fact table. Runs on request; `BENCHMARK.json` leaves it out (see
    /// the README).
    Synt1,
}

impl Kind {
    /// Every workload the benchmark can run.
    pub const ALL: [Kind; 3] = [Kind::Tpch, Kind::Psoft, Kind::Synt1];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Tpch => "tpch",
            Kind::Psoft => "psoft",
            Kind::Synt1 => "synt1",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Instances a run tunes.
    pub fn instances(self) -> usize {
        match self {
            Kind::Tpch => 9,
            Kind::Psoft => 11,
            Kind::Synt1 => 5,
        }
    }

    /// Build the server and workload of one instance from its seed.
    pub fn build(self, seed: u64) -> (Server, Workload) {
        match self {
            Kind::Tpch => {
                (tpch::build_server(tpch::TpchScale::new(0.002, 1.0), seed), tpch::workload())
            }
            Kind::Psoft => {
                let b = psoft::build(1.0, seed);
                (b.server, b.workload)
            }
            Kind::Synt1 => {
                let b = synt1::build(0.006, seed);
                let mut workload = b.workload;
                workload.items.truncate(32);
                (b.server, workload)
            }
        }
    }
}

/// The generator seed of instance `j` of a run with seed `run_seed`.
pub fn instance_seed(run_seed: u64, j: usize) -> u64 {
    if j == 0 {
        run_seed
    } else {
        splitmix64(run_seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// One step of SplitMix64: a fixed, documented mixing function, so
/// derived seeds do not depend on a standard-library hasher.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("tpcds"), None);
    }

    #[test]
    fn instance_seeds_are_distinct_and_start_at_the_run_seed() {
        let seeds: Vec<u64> = (0..8).map(|j| instance_seed(42, j)).collect();
        assert_eq!(seeds[0], 42);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len());
    }
}
