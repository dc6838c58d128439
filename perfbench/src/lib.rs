//! The benchmark of record for the DTA reproduction: whole tuning
//! sessions, checked, with a separate traced run that attributes their
//! time to layers. See `README.md` in this directory.

pub mod replay;
pub mod report;
pub mod run;
pub mod session;
pub mod stats;
pub mod trace;
pub mod workloads;
