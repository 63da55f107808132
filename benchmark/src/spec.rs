//! The metric contract, read from the repository's `BENCHMARK.json` at
//! compile time so the binary and the file cannot disagree about which
//! metrics exist, their units or their bounds.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use metrics::Json;

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// One metric as `BENCHMARK.json` declares it.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The metrics one run reports: end-to-end untraced, per-layer traced.
    pub fn reported(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

pub fn parse(src: &str) -> Result<Spec, String> {
    let doc = Json::parse(src).map_err(|e| e.to_string())?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array {key:?}"))
    };
    let field = |o: &Json, key: &str| -> Result<String, String> {
        o.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string {key:?}"))
    };
    let metric = |o: &Json| -> Result<Metric, String> {
        Ok(Metric {
            name: field(o, "name")?,
            unit: field(o, "unit")?,
            lower_is_better: field(o, "better")? == "lower",
            bound: o.get("bound").and_then(Json::as_f64),
        })
    };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("missing run_seconds")? as u64,
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
    })
}

/// The result's `metrics` object. Every end-to-end metric must have been
/// measured; a per-layer metric of a layer the workload does not
/// exercise reads 0.
///
/// # Panics
///
/// Panics if an end-to-end value is missing or a value has no declared
/// metric: both are bugs in the benchmark, not in the program measured.
pub fn metrics_json(values: &Values, traced: bool) -> Json {
    let declared = spec().reported(traced);
    for name in values.keys() {
        assert!(
            declared.iter().any(|m| &m.name == name),
            "{name} is not a declared {} metric",
            if traced { "per-layer" } else { "end-to-end" }
        );
    }
    Json::obj(declared.iter().map(|m| {
        let value = match values.get(&m.name) {
            Some(&v) => v,
            None if traced => 0.0,
            None => panic!("end-to-end metric {} was not measured", m.name),
        };
        (
            m.name.clone(),
            Json::obj([
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::Str(m.unit.clone())),
            ]),
        )
    }))
}
