//! The benchmark's own tests. Run them optimized, as the benchmark
//! runs: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use dta_bench::snapshot::{parse_json, Json};
use dta_perfbench::report::{END_TO_END, PER_LAYER};
use dta_perfbench::run::{run, Args};
use dta_perfbench::session::{
    check, compressed, options, outside_view, set_up, tune_once, Counters, Outside, Session,
};
use dta_perfbench::workloads::Kind;

fn session(kind: Kind, seed: u64) -> (Session, Outside) {
    let setup = set_up(kind, seed);
    let opts = options();
    let session = tune_once(&setup, &opts, None).expect("the workload tunes");
    let tuned = compressed(&setup.workload, &opts);
    let outside = outside_view(&setup.server, &tuned, &session.result.recommendation)
        .expect("the server prices the recommendation");
    (session, outside)
}

#[test]
fn fresh_server_sessions_from_one_seed_repeat_exactly() {
    let (first, _) = session(Kind::Psoft, 42);
    let (second, _) = session(Kind::Psoft, 42);
    assert_eq!(Counters::of(&first), Counters::of(&second));
}

#[test]
fn perturbed_outputs_fail_the_checks() {
    let (mut s, outside) = session(Kind::Psoft, 7);
    assert_eq!(check(&s, &outside, None), Vec::<String>::new());
    let reference = Counters::of(&s);
    assert_eq!(check(&s, &outside, Some(&reference)), Vec::<String>::new());

    // one unit in the last place of the recommended cost
    let cost = s.result.recommended_cost;
    s.result.recommended_cost = f64::from_bits(cost.to_bits() - 1);
    assert!(check(&s, &outside, None).iter().any(|f| f.contains("recommended cost")));
    assert!(!check(&s, &outside, Some(&reference)).is_empty());
    s.result.recommended_cost = cost;

    // one what-if call the server did not see
    s.result.whatif_calls += 1;
    assert!(check(&s, &outside, None).iter().any(|f| f.contains("what-if invocations")));
    s.result.whatif_calls -= 1;

    // a session that does not repeat its instance's first
    let mut other = reference.clone();
    other.evaluations += 1;
    assert_eq!(check(&s, &outside, Some(&other)).len(), 1);
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else { panic!("BENCHMARK.json lacks {key}") };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("a {key} entry lacks a name or unit"),
        })
        .collect()
}

fn emitted(trace: bool) -> Vec<String> {
    let finished = run(&Args { kind: Kind::Psoft, seed: 3, seconds: 0, trace });
    let mut outcome = finished.outcome;
    let defs: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let line = outcome.result_line(defs);
    let doc = parse_json(&line).expect("the result line is JSON");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{line}\n{:?}", outcome.failures);
    match doc.get("metrics") {
        Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("no metrics in {line}"),
    }
}

#[test]
fn every_metric_in_benchmark_json_is_emitted() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let doc = parse_json(&text).expect("BENCHMARK.json is JSON");
    let Some(Json::Arr(workloads)) = doc.get("workloads") else { panic!("no workloads") };
    for w in workloads {
        let Some(Json::Str(name)) = w.get("name") else { panic!("a workload lacks a name") };
        assert!(Kind::parse(name).is_some(), "unknown workload {name}");
    }
    let declared = |defs: &[(&str, &str)]| -> Vec<(String, String)> {
        defs.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    let e2e = names(&doc, "end_to_end");
    let layers = names(&doc, "per_layer");
    assert_eq!(e2e, declared(&END_TO_END));
    assert_eq!(layers, declared(&PER_LAYER));
    assert_eq!(emitted(false), e2e.into_iter().map(|(n, _)| n).collect::<Vec<_>>());
    assert_eq!(emitted(true), layers.into_iter().map(|(n, _)| n).collect::<Vec<_>>());
}
