//! `lvbench`: the repository benchmark.
//!
//! ```text
//! lvbench [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--append FILE]
//! lvbench [run] --all           [--seed N] [--seconds S] [--trace 0|1] [--quick] [--append FILE]
//! lvbench compare A.jsonl B.jsonl
//! lvbench summary RUNS.jsonl
//! ```
//!
//! One workload run repeats the workload's fixed work until `--seconds`
//! have passed (and at least three times), then prints the medians. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics of
//! `BENCHMARK.json` untraced, its per-layer metrics with `--trace 1`.
//! `--all` runs every workload, untraced and traced unless `--trace` is
//! given, and prints every metric by name with its unit. `--append`
//! adds one JSON line per run, with the host facts, for `compare` and
//! `summary`. `--quick` shrinks every workload for tests.

mod compare;
mod figures;
mod host;
mod plane;
mod spec;
mod stats;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use bench::alloc::CountingAlloc;
use metrics::Json;
use simcore::MachinePreset;
use toolstack::ToolstackMode;

use figures::Figures;
use plane::{Load, PlaneWorkload, Samples};
use spec::{spec, Values};

// Counted exactly as `runall` counts, so `alloc.*` matches its report.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One repetition of a workload's fixed work, run in a child process.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Simulated statistics or artefact digest: identical in every rep
    /// at one seed, or the run fails.
    pub fingerprint: String,
    /// Per-layer values (traced reps only).
    pub layers: Values,
    /// Single-call latencies (traced control-plane reps only).
    pub samples: Samples,
}

impl Rep {
    fn to_json(&self) -> Json {
        let num = |k: &str, v: f64| (k.to_string(), Json::Num(v));
        let arr = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        Json::obj([
            num("setup_s", self.setup_s),
            num("wall_s", self.wall_s),
            num("peak_rss_mb", self.peak_rss_mb),
            num("attempted", self.attempted as f64),
            num("failed", self.failed as f64),
            (
                "fingerprint".to_string(),
                Json::Str(self.fingerprint.clone()),
            ),
            (
                "layers".to_string(),
                Json::obj(self.layers.iter().map(|(k, &v)| (k.clone(), Json::Num(v)))),
            ),
            ("create_vm_us".to_string(), arr(&self.samples.create_vm_us)),
            ("boot_vm_us".to_string(), arr(&self.samples.boot_vm_us)),
            (
                "destroy_vm_us".to_string(),
                arr(&self.samples.destroy_vm_us),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<Rep> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64);
        let arr = |k: &str| -> Option<Vec<f64>> {
            j.get(k)?.as_arr()?.iter().map(Json::as_f64).collect()
        };
        Some(Rep {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            fingerprint: j.get("fingerprint")?.as_str()?.to_string(),
            layers: j
                .get("layers")?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
            samples: Samples {
                create_vm_us: arr("create_vm_us")?,
                boot_vm_us: arr("boot_vm_us")?,
                destroy_vm_us: arr("destroy_vm_us")?,
            },
        })
    }
}

enum Workload {
    Figures(Figures),
    Plane(PlaneWorkload),
}

impl Workload {
    /// The named workload; `quick` shrinks it about tenfold.
    fn by_name(name: &str, quick: bool) -> Option<Workload> {
        let q = |full: usize| if quick { full / 10 } else { full };
        let plane = |preset, dom0_cores, mode, load| {
            Workload::Plane(PlaneWorkload {
                preset,
                dom0_cores,
                mode,
                load,
            })
        };
        Some(match name {
            "suite" => Workload::Figures(Figures::Suite),
            "cluster" => Workload::Figures(Figures::Cluster),
            // Figure 9's host: Xeon E5-1630 v3, one Dom0 core.
            "density-xl" => plane(
                MachinePreset::XeonE5_1630V3,
                1,
                ToolstackMode::Xl,
                Load::Climb(q(1000)),
            ),
            // Figure 10's host: 64-core Opteron, four Dom0 cores.
            "density-lightvm" => plane(
                MachinePreset::AmdOpteron4X6376,
                4,
                ToolstackMode::LightVm,
                Load::Climb(q(8000)),
            ),
            "churn-xl" => plane(
                MachinePreset::XeonE5_1630V3,
                1,
                ToolstackMode::Xl,
                Load::Churn {
                    base: q(500),
                    ops: q(6000),
                },
            ),
            _ => return None,
        })
    }

    fn rep(&self, seed: u64, traced: bool, quick: bool) -> Rep {
        match self {
            Workload::Figures(f) => f.rep(traced, quick),
            Workload::Plane(p) => p.rep(seed, traced),
        }
    }
}

/// Runs one rep in a fresh child process and waits for it. A fresh
/// process per rep keeps reps independent: `probewalk`'s memo and the
/// compute memo are process-global with no public `clear`, and the
/// peak resident set (`VmHWM`) and heap state then belong to one rep.
fn spawn_rep(name: &str, seed: u64, traced: bool, quick: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", name, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning a {name} rep: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name} rep exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line)
        .ok()
        .and_then(|j| Rep::from_json(&j))
        .ok_or_else(|| format!("unreadable {name} rep output"))
}

/// What one run of one workload measured.
struct Outcome {
    reps: usize,
    attempted: u64,
    failed: u64,
    values: Values,
}

/// Repeats the workload until `seconds` have passed and at least three
/// reps of each kind ran. A traced run alternates untraced and traced
/// reps: per-layer numbers come from the traced ones, `trace_overhead`
/// from comparing the two.
fn measure(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
) -> Result<Outcome, String> {
    let min_reps = if trace { 6 } else { 3 };
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut untraced, mut traced, mut calib) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut fingerprint: Option<String> = None;
    let mut samples = Samples::default();
    let mut reps = 0;
    while reps < min_reps || Instant::now() < deadline {
        calib.push(host::calib_ms());
        let traced_rep = trace && reps % 2 == 1;
        let mut rep = spawn_rep(name, seed, traced_rep, quick)?;
        attempted += rep.attempted;
        failed += rep.failed;
        match &fingerprint {
            None => fingerprint = Some(rep.fingerprint.clone()),
            Some(f) if *f != rep.fingerprint => {
                eprintln!(
                    "lvbench: {name} rep {reps} diverged: {} vs {f}",
                    rep.fingerprint
                );
                failed += 1;
            }
            Some(_) => {}
        }
        samples.extend(std::mem::take(&mut rep.samples));
        if traced_rep {
            traced.push(rep);
        } else {
            untraced.push(rep);
        }
        reps += 1;
    }

    let median_of =
        |reps: &[Rep], f: fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut values = Values::new();
    if trace {
        for key in traced[0].layers.keys() {
            let v: Vec<f64> = traced.iter().map(|r| r.layers[key]).collect();
            values.insert(key.clone(), stats::median(&v));
        }
        samples.percentiles(&mut values);
        values.insert("host.calib_ms".into(), stats::median(&calib));
        values.insert("host.calib_spread".into(), stats::spread(&calib));
        values.insert(
            "trace_overhead".into(),
            median_of(&traced, |r| r.wall_s) / median_of(&untraced, |r| r.wall_s) - 1.0,
        );
    } else {
        values.insert("wall_s".into(), median_of(&untraced, |r| r.wall_s));
        values.insert("setup_s".into(), median_of(&untraced, |r| r.setup_s));
        values.insert(
            "peak_rss_mb".into(),
            median_of(&untraced, |r| r.peak_rss_mb),
        );
    }
    Ok(Outcome {
        reps,
        attempted,
        failed,
        values,
    })
}

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    quick: bool,
    append: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: spec().run_seconds,
        trace: None,
        quick: false,
        append: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--all" => a.all = true,
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--quick" => a.quick = true,
            "--append" => a.append = Some(value()?.into()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(a)
}

fn run_main(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run_args(args)?;
    let names = match (&a.workload, a.all) {
        (_, true) => spec().workloads.clone(),
        (Some(name), false) => vec![name.clone()],
        (None, false) => return Err("name a --workload or pass --all".into()),
    };
    let traces = match (a.trace, a.all) {
        (Some(t), _) => vec![t],
        (None, true) => vec![false, true],
        (None, false) => vec![false],
    };
    let mut all_correct = true;
    for name in &names {
        Workload::by_name(name, a.quick).ok_or(format!("unknown workload {name:?}"))?;
        for &trace in &traces {
            let o = measure(name, a.seed, a.seconds, trace, a.quick)?;
            let correct = o.failed == 0;
            all_correct &= correct;
            let host = host::facts();
            let result = Json::obj([
                ("correct".to_string(), Json::Bool(correct)),
                ("attempted".to_string(), Json::Num(o.attempted as f64)),
                ("failed".to_string(), Json::Num(o.failed as f64)),
                ("metrics".to_string(), spec::metrics_json(&o.values, trace)),
            ]);
            if let Some(path) = &a.append {
                let mut record = vec![
                    ("workload".to_string(), Json::Str(name.clone())),
                    ("seed".to_string(), Json::Num(a.seed as f64)),
                    ("trace".to_string(), Json::Bool(trace)),
                    ("quick".to_string(), Json::Bool(a.quick)),
                    ("reps".to_string(), Json::Num(o.reps as f64)),
                    ("host".to_string(), host.clone()),
                ];
                record.extend(result.as_obj().expect("an object").iter().cloned());
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| writeln!(f, "{}", Json::Obj(record).compact()))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            let mode = if trace { "traced" } else { "untraced" };
            println!(
                "# lvbench {name} {mode} seed {} reps {} host {}",
                a.seed,
                o.reps,
                host.compact()
            );
            if a.all {
                for m in spec().reported(trace) {
                    let v = o.values.get(&m.name).copied().unwrap_or(0.0);
                    println!("  {:34} {v:>18.6} {}", m.name, m.unit);
                }
                println!(
                    "  correct {correct}: {} attempted, {} failed",
                    o.attempted, o.failed
                );
            } else {
                println!("{}", result.compact());
            }
        }
    }
    Ok(exit_code(all_correct))
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `child --workload NAME --seed N --trace 0|1 [--quick]`: one rep,
/// printed as JSON for the parent.
fn child_main(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run_args(args)?;
    let name = a.workload.as_deref().ok_or("child needs --workload")?;
    let w = Workload::by_name(name, a.quick).ok_or(format!("unknown workload {name:?}"))?;
    let rep = w.rep(a.seed, a.trace.unwrap_or(false), a.quick);
    println!("{}", rep.to_json().compact());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = &args[args.len().min(1)..];
    let result = match args.first().map(String::as_str) {
        Some("child") => child_main(rest),
        Some("compare") => compare::compare_main(rest),
        Some("summary") => compare::summary_main(rest),
        Some("run") => run_main(rest),
        _ => run_main(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("lvbench: {e}");
        ExitCode::from(2)
    })
}
