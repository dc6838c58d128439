//! Metric names, the result line, and the run environment.

use std::collections::BTreeMap;
use std::path::Path;

/// The end-to-end metrics, printed by a run with `--trace 0`: (name,
/// unit). `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("tune_s", "s"),
    ("improvement_pct", "%"),
    ("server_work_units", "units"),
    ("peak_rss_mb", "MB"),
    ("sessions_ok_share", "ratio"),
];

/// The per-layer metrics, printed by a run with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("workload.compress_ms", "ms"),
    ("workload.tuned_statements", "count"),
    ("stats.requested", "count"),
    ("stats.created", "count"),
    ("stats.work_units", "units"),
    ("core.precosting_s", "s"),
    ("core.column_groups_s", "s"),
    ("core.statistics_s", "s"),
    ("core.candidate_selection_s", "s"),
    ("core.merging_s", "s"),
    ("core.epilogue_s", "s"),
    ("core.enumeration_s", "s"),
    ("core.greedy.phase1_s", "s"),
    ("core.greedy.phase2_s", "s"),
    ("core.greedy.evaluations", "count"),
    ("core.candidates.generated", "count"),
    ("core.candidates.pool_peak", "count"),
    ("core.cost.whatif_calls", "count"),
    ("core.cost.cache_hits", "count"),
    ("core.cost.hit_rate", "ratio"),
    ("core.cost.hit_ns", "ns"),
    ("core.cost.miss_us", "us"),
    ("server.whatif_us", "us"),
    ("server.whatif_invocations", "count"),
    ("optimizer.optimize_us.base", "us"),
    ("optimizer.optimize_us.rec", "us"),
    ("optimizer.bind_us", "us"),
    ("optimizer.plan_us", "us"),
    ("engine.actual_improvement_pct", "%"),
    ("engine.execute_s", "s"),
    ("engine.raw_work_units", "units"),
    ("engine.rec_work_units", "units"),
    ("attrib.optimizer_share", "ratio"),
    ("attrib.lookup_share", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The outcome of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Sessions attempted, warm-up included.
    pub attempted: usize,
    /// Sessions that errored or failed a check.
    pub failed: usize,
    /// Why each failed session failed.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The result line for the metrics in `defs`. The run is correct
    /// when no session failed and every metric was measured as a finite
    /// number; a missing one is reported as a failure.
    pub fn result_line(&mut self, defs: &[(&str, &str)]) -> String {
        let mut metrics = Vec::new();
        for (name, unit) in defs {
            match self.values.get(*name) {
                Some(v) if v.is_finite() => metrics.push(format!(
                    "{}:{{\"value\":{v},\"unit\":{}}}",
                    json_string(name),
                    json_string(unit)
                )),
                _ => self.failures.push(format!("metric {name} was not measured")),
            }
        }
        let correct = self.failed == 0 && self.failures.is_empty();
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// What a result set was measured on.
pub struct Env {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub instances: usize,
    pub nproc: usize,
    pub parallel_workers: usize,
}

impl Env {
    /// One JSON object with the run's settings, the host's core count,
    /// the build profile, the compiler and the source commit.
    pub fn json(&self) -> String {
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        format!(
            "{{\"env\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
             \"instances\":{},\"nproc\":{},\"parallel_workers\":{},\"profile\":{},\
             \"rustc\":{},\"git_commit\":{}}}}}",
            json_string(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.instances,
            self.nproc,
            self.parallel_workers,
            json_string(profile),
            json_string(&rustc_version()),
            json_string(&git_commit(Path::new("."))),
        )
    }
}

/// `rustc --version` of the compiler on the path (or `$RUSTC`).
fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out under `root`, read from `.git` without
/// running git; "unknown" outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    // a packed ref: "<id> <ref>" lines
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference).and_then(|id| id.strip_suffix(' ')).map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident memory of this process since the last
/// [`reset_peak_rss`], in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Restart the peak-memory mark at the current resident size, so the
/// next [`peak_rss_mb`] covers one session. Returns false where the
/// kernel does not allow it; the mark then covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Return the allocator's free memory to the kernel, so that what a
/// session costs in time and memory does not depend on the sessions
/// the process ran before it. Without this, the peak memory of one
/// session varies by a third with the run's history.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: glibc's malloc_trim takes no pointers; it only releases
    // free pages at the top of each heap and may be called at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Elsewhere the allocator keeps its free memory.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_the_metrics_and_flags_missing_ones() {
        let mut out = Outcome { attempted: 3, ..Outcome::default() };
        out.set("a", 1.5);
        let line = out.result_line(&[("a", "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a\":{\"value\":1.5,\"unit\":\"s\"}}}"
        );
        let line = out.result_line(&[("a", "s"), ("b", "ms")]);
        assert!(line.starts_with("{\"correct\":false"), "{line}");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn no_commit_outside_a_git_checkout() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        assert_eq!(git_commit(&dir), "unknown");
    }
}
