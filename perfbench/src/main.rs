//! `dta-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload's tuning sessions for about `--seconds` seconds and
//! prints, as the last line of standard output, one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it records the run environment. A
//! traced run also writes its spans to `.bench_out/`.

use dta_perfbench::report::{Env, END_TO_END, PER_LAYER};
use dta_perfbench::run::{run, Args};
use dta_perfbench::session::{host_workers, options};
use dta_perfbench::trace::spans_json;
use dta_perfbench::workloads::Kind;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: dta-perfbench --workload <tpch|psoft|synt1> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = Env {
        workload: args.kind.name().to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        instances: args.kind.instances(),
        nproc: host_workers(),
        parallel_workers: options().parallel_workers,
    };
    let mut finished = run(&args);
    for note in &finished.notes {
        eprintln!("{note}");
    }
    if args.trace {
        let dir = Path::new(".bench_out");
        let file = dir.join(format!("spans-{}-seed{}.json", args.kind.name(), args.seed));
        let doc = format!("{{\"env\":{},\"spans\":{}}}\n", env.json(), spans_json(&finished.spans));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&file, doc)) {
            finished.outcome.failures.push(format!("writing {}: {e}", file.display()));
        } else {
            eprintln!("spans written to {}", file.display());
        }
    }
    let defs: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = finished.outcome.result_line(defs);
    for failure in &finished.outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", env.json());
    println!("{line}");
    ExitCode::SUCCESS
}
