//! `compare` and `summary` over runs recorded with `--append`.
//!
//! `compare A B` pairs the i-th run of each workload in A with the i-th
//! in B (run them alternately, A first in one pair and B first in the
//! next) and applies the A/B rule: B gains on a metric only with at
//! least ten pairs, B better in at least nine tenths of them, and the
//! medians further apart than A's interquartile range. An end-to-end
//! metric whose median is worse by more than its bound is a
//! regression; otherwise, one whose spread exceeds its bound on either
//! side is unresolved, unless every B run beats every A run.

use std::process::ExitCode;

use metrics::Json;

use crate::spec::{spec, Metric};
use crate::stats::{quartiles, spread};

struct Record {
    workload: String,
    correct: bool,
    host: Json,
    metrics: Vec<(String, f64)>,
}

impl Record {
    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == metric)
            .map(|&(_, v)| v)
    }
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let bad = || format!("{path}:{}: not a run record", i + 1);
            let j = Json::parse(line).map_err(|_| bad())?;
            Ok(Record {
                workload: j
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or_else(bad)?
                    .to_string(),
                correct: j.get("correct") == Some(&Json::Bool(true)),
                host: j.get("host").cloned().unwrap_or(Json::Null),
                metrics: j
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .ok_or_else(bad)?
                    .iter()
                    .map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect::<Option<_>>()
                    .ok_or_else(bad)?,
            })
        })
        .collect()
}

/// Every recorded value of `metric` on `workload`, in file order.
fn series(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.value(metric))
        .collect()
}

fn all_metrics() -> impl Iterator<Item = &'static Metric> {
    spec().end_to_end.iter().chain(&spec().per_layer)
}

/// `summary RUNS`: median and quartiles per metric per workload, as JSON.
pub fn summary_main(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("usage: lvbench summary RUNS.jsonl".into());
    };
    let records = load(path)?;
    let workloads = spec().workloads.iter().filter_map(|w| {
        let metrics: Vec<(String, Json)> = all_metrics()
            .filter_map(|m| {
                let v = series(&records, w, &m.name);
                let (q1, median, q3) = quartiles(&v);
                let num = |k: &str, x: f64| (k.to_string(), Json::Num(x));
                (!v.is_empty()).then(|| {
                    let stats = Json::obj([
                        ("unit".to_string(), Json::Str(m.unit.clone())),
                        num("runs", v.len() as f64),
                        num("median", median),
                        num("q1", q1),
                        num("q3", q3),
                    ]);
                    (m.name.clone(), stats)
                })
            })
            .collect();
        (!metrics.is_empty()).then(|| (w.clone(), Json::Obj(metrics)))
    });
    let host = records.first().map_or(Json::Null, |r| r.host.clone());
    let doc = Json::obj([
        ("host".to_string(), host),
        ("workloads".to_string(), Json::Obj(workloads.collect())),
    ]);
    println!("{}", doc.pretty());
    Ok(ExitCode::SUCCESS)
}

/// `compare A B`: exit 1 if any run failed or any end-to-end metric
/// regressed beyond its bound.
pub fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: lvbench compare A.jsonl B.jsonl".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut bad = 0;
    for (side, path, records) in [("A", a_path, &a), ("B", b_path, &b)] {
        let failed = records.iter().filter(|r| !r.correct).count();
        let host = records.first().map_or("{}".into(), |r| r.host.compact());
        println!(
            "{side} = {path}: {} runs, {failed} incorrect, host {host}",
            records.len()
        );
        bad += failed;
    }
    for w in &spec().workloads {
        let mut header = true;
        for m in all_metrics() {
            let (va, vb) = (series(&a, w, &m.name), series(&b, w, &m.name));
            let n = va.len().min(vb.len());
            if n == 0 {
                continue;
            }
            if header {
                println!("== {w}");
                header = false;
            }
            let (va, vb) = (&va[..n], &vb[..n]);
            let (verdict, wins) = verdict(m, va, vb);
            if verdict == "REGRESSION" {
                bad += 1;
            }
            let (qa1, ma, qa3) = quartiles(va);
            let (qb1, mb, qb3) = quartiles(vb);
            let change = if ma == 0.0 {
                0.0
            } else {
                (mb - ma) / ma.abs() * 100.0
            };
            println!(
                "  {:34} {:8} A {} [{}, {}]  B {} [{}, {}]  {change:+.1}%  B better {wins}/{n}  {verdict}",
                m.name,
                m.unit,
                sig(ma),
                sig(qa1),
                sig(qa3),
                sig(mb),
                sig(qb1),
                sig(qb3),
            );
        }
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The verdict on B against A, and in how many pairs B was better.
fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> (&'static str, usize) {
    let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
    let n = a.len();
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let losses = a.iter().zip(b).filter(|&(&x, &y)| better(x, y)).count();
    let (qa1, ma, qa3) = quartiles(a);
    let (_, mb, _) = quartiles(b);
    let moved = (mb - ma).abs() > qa3 - qa1;
    let gain = n >= 10 && wins * 10 >= n * 9 && moved && better(mb, ma);
    let loss = n >= 10 && losses * 10 >= n * 9 && moved && better(ma, mb);
    let verdict = match m.bound {
        None if gain => "gain",
        None if loss => "loss",
        None => "-",
        Some(bound) => {
            let worse = if ma == 0.0 {
                0.0
            } else if m.lower_is_better {
                (mb - ma) / ma.abs()
            } else {
                (ma - mb) / ma.abs()
            };
            let every_run_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
            if gain {
                "gain"
            } else if worse > bound {
                "REGRESSION"
            } else if every_run_better {
                "better in every run"
            } else if spread(a) > bound || spread(b) > bound {
                "unresolved"
            } else {
                "within bound"
            }
        }
    };
    (verdict, wins)
}

/// Four significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall(bound: f64) -> Metric {
        Metric {
            name: "wall_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_a_move_past_the_iqr() {
        let a: Vec<f64> = (0..10).map(|i| 1.0 + 0.01 * f64::from(i)).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&wall(0.1), &a, &b), ("gain", 10));
        // Nine pairs are too few for a gain, however clear the win.
        assert_eq!(
            verdict(&wall(0.1), &a[..9], &b[..9]).0,
            "better in every run"
        );
        // Eight wins out of ten are not enough.
        let mut c = b.clone();
        c[0] = a[0] * 1.01;
        c[1] = a[1] * 1.01;
        assert_eq!(verdict(&wall(0.1), &a, &c).0, "within bound");
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression_and_noise_is_unresolved() {
        let a = vec![1.0; 10];
        assert_eq!(verdict(&wall(0.1), &a, &[1.2; 10]).0, "REGRESSION");
        assert_eq!(verdict(&wall(0.1), &a, &[1.05; 10]).0, "within bound");
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 0.7 } else { 1.3 })
            .collect();
        assert_eq!(verdict(&wall(0.1), &a, &noisy).0, "unresolved");
    }
}
