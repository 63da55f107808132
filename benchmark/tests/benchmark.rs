//! Contract tests for `lvbench`: the metric file is well-formed, every
//! workload's quick profile reports every declared metric, and the
//! simulated statistics depend on the seed and on nothing else.

use std::process::Command;

use metrics::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).expect("an array")
}

fn str_of<'a>(o: &'a Json, key: &str) -> &'a str {
    o.get(key).and_then(Json::as_str).expect("a string")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    list(doc, key)
        .iter()
        .map(|m| str_of(m, "name").to_string())
        .collect()
}

/// One quick run of `workload`; returns the parsed last line of stdout.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_lvbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .output()
        .expect("lvbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} failed: {stdout}");
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result is JSON")
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no value for {metric}"))
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_keeps_the_contract() {
    let doc = benchmark_json();
    let workloads = names(&doc, "workloads");
    let e2e = names(&doc, "end_to_end");
    let layers = names(&doc, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));

    let mut all: Vec<&String> = workloads.iter().chain(&e2e).chain(&layers).collect();
    for n in &all {
        assert!(valid_name(n), "bad name {n:?}");
    }
    all.sort();
    let before = all.len();
    all.dedup();
    assert_eq!(before, all.len(), "a name is used twice");

    for w in list(&doc, "workloads") {
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {w:?}");
    }
    let mut largest_bound = 0.0f64;
    for m in list(&doc, "end_to_end")
        .iter()
        .chain(list(&doc, "per_layer"))
    {
        let unit = str_of(m, "unit");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?}"
        );
        assert!(matches!(str_of(m, "better"), "lower" | "higher"));
    }
    for m in list(&doc, "end_to_end") {
        let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {m:?}");
        largest_bound = largest_bound.max(bound);
    }
    let setup = list(&doc, "end_to_end")
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(str_of(setup, "unit"), "s");
    assert_eq!(str_of(setup, "better"), "lower");
    assert_eq!(
        setup.get("bound").and_then(Json::as_f64),
        Some(largest_bound)
    );
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let doc = benchmark_json();
    for w in names(&doc, "workloads") {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(&w, 1, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{w}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0
            );
            let reported: Vec<&str> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(reported, names(&doc, key), "{w} (trace {trace})");
            for name in &reported {
                let v = value(&result, name);
                assert!(v.is_finite(), "{w}: {name} = {v}");
                if !trace {
                    assert!(v > 0.0, "{w}: end-to-end {name} = {v}");
                }
            }
            if trace && w == "density-lightvm" {
                // noxs: the store is not on the create path at all.
                assert_eq!(value(&result, "xenstore.requests_per_create"), 0.0);
            }
        }
    }
}

#[test]
fn a_seed_repeats_its_simulated_statistics_exactly() {
    for w in ["density-xl", "churn-xl"] {
        let (a, b) = (run(w, 7, true), run(w, 7, true));
        let doc = benchmark_json();
        let simulated = names(&doc, "per_layer")
            .into_iter()
            .filter(|n| n.starts_with("sim.") || n.starts_with("xenstore."));
        for name in simulated {
            assert_eq!(value(&a, &name), value(&b, &name), "{w}: {name}");
        }
    }
}

#[test]
fn another_seed_changes_the_image_mix_but_not_its_size() {
    let (a, b) = (run("density-xl", 1, true), run("density-xl", 2, true));
    // The seed reorders the mix, so the simulated times differ...
    assert_ne!(
        value(&a, "sim.create_ms_mean"),
        value(&b, "sim.create_ms_mean")
    );
    // ...but every seed deals each image equally often (only the noop
    // unikernel has no network device).
    assert_eq!(value(&a, "devices.net_devs"), value(&b, "devices.net_devs"));
}
