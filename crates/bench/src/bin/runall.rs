//! Regenerates every paper figure in one invocation, fanning the
//! registry's work units out over a thread pool.
//!
//! ```text
//! runall [--jobs N] [--filter SUBSTR[,SUBSTR..]] [--list] [--seq]
//!        [--report PATH] [--no-snapshot-cache]
//! ```
//!
//! * `--jobs N`   worker threads (default: available parallelism)
//! * `--filter`   only figures whose id contains one of the substrings
//! * `--list`     print figure ids, units and their declared shared
//!   resources (`Dep`s), run nothing
//! * `--seq`      force a single worker (equivalent to `--jobs 1`)
//! * `--report`   perf-report path (default `bench_runner.json` in the
//!   figure directory; refreshing the committed baseline passes
//!   `--report results/bench_runner.json`)
//! * `--no-snapshot-cache`  run with the world store's cache off: no
//!   chain, probe or compute tasks, every unit simulates what it reads
//!   from scratch.
//!   Artefacts are byte-identical either way (`ci.sh` gates it); the
//!   flag exists to prove that and to time the uncached path. The
//!   switch lives in the run's `bench::worldcache::Store`; nothing is
//!   process-global.
//!
//! Figure artefacts go to `LIGHTVM_FIG_DIR` (default `target/figures`)
//! exactly as the individual `figNN` binaries write them; the merged
//! output is byte-identical to a sequential run regardless of `--jobs`.
//! `LIGHTVM_QUICK=1` runs the reduced-scale profile.

use std::io::Write;
use std::process::ExitCode;

use bench::alloc::CountingAlloc;
use bench::figures::{all_specs, Scale};
use bench::runner;
use bench::worldcache::Store;

// Counting the run's allocations is how the report's `allocs_per_event`
// stays honest; the wrapper adds one thread-local increment per call.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `println!` panics if stdout closes early (`runall --list | head`);
/// progress lines are best-effort, so swallow the broken pipe instead.
macro_rules! say {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

struct Args {
    jobs: usize,
    filters: Vec<String>,
    list: bool,
    report: std::path::PathBuf,
    cache: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: runall [--jobs N] [--filter SUBSTR[,SUBSTR..]] [--list] [--seq] [--report PATH] [--no-snapshot-cache]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        filters: Vec::new(),
        list: false,
        report: bench::out_dir().join("bench_runner.json"),
        cache: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.jobs = v.parse().unwrap_or_else(|_| usage());
                if args.jobs == 0 {
                    usage();
                }
            }
            "--filter" | "-f" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.filters
                    .extend(v.split(',').map(|s| s.trim().to_string()));
            }
            "--list" => args.list = true,
            "--seq" => args.jobs = 1,
            "--report" => {
                args.report = std::path::PathBuf::from(it.next().unwrap_or_else(|| usage()));
            }
            "--no-snapshot-cache" => args.cache = false,
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let scale = Scale::from_env();

    let mut specs = all_specs(scale);
    if !args.filters.is_empty() {
        specs.retain(|s| args.filters.iter().any(|f| s.id.contains(f.as_str())));
        if specs.is_empty() {
            eprintln!("runall: no figure matches the filter");
            return ExitCode::from(2);
        }
    }

    if args.list {
        for s in &specs {
            say!(
                "{:7} {:2} unit(s)  {}",
                s.id,
                s.units.len(),
                s.title
            );
            for u in &s.units {
                let deps = if u.deps.is_empty() {
                    "(self-contained)".to_string()
                } else {
                    u.deps
                        .iter()
                        .map(|d| d.describe())
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                say!("          - {:24} deps: {deps}", u.label);
            }
        }
        return ExitCode::SUCCESS;
    }

    let n_figs = specs.len();
    let n_units: usize = specs.iter().map(|s| s.units.len()).sum();
    eprintln!(
        "# runall: {n_figs} figure(s), {n_units} unit(s), {} worker(s){}",
        args.jobs,
        if scale.quick { ", quick profile" } else { "" }
    );

    let store = Store::new(args.cache);
    let (figures, report, store) = runner::run_with(specs, args.jobs, scale.quick, store);

    let dir = bench::out_dir();
    let mut failed = false;
    for run in &figures {
        match run.figure.write_files(&dir) {
            Ok(()) => {
                let id = &run.figure.id;
                say!(
                    "# {id}: {} series -> {}/{id}.{{json,csv}}",
                    run.figure.series.len(),
                    dir.display()
                );
            }
            Err(e) => {
                eprintln!("# ERROR: could not write {}: {e}", run.figure.id);
                failed = true;
            }
        }
    }

    say!(
        "# {} | scheduler: {} tasks, width {}, critical path {:.1} ms",
        store.summary(&report),
        report.tasks.len(),
        report.max_width(),
        report.critical_path_ms()
    );
    say!("# cloneboot: {}", toolstack::cloneboot::summary());
    match report.write(&args.report) {
        Ok(()) => say!("# perf report -> {}", args.report.display()),
        Err(e) => {
            eprintln!("# ERROR: could not write perf report: {e}");
            failed = true;
        }
    }
    say!(
        "# wall {:.1} ms, task wall {:.1} ms, speedup {:.2}x (bound {:.2}x, {} of {} cores), {} events, {:.0} events/sec aggregate, {:.3} allocs/event",
        report.wall_ms,
        report.total_task_wall_ms(),
        report.speedup(),
        report.speedup_bound(),
        report.jobs,
        report.host_cores,
        report.total_events(),
        report.aggregate_events_per_sec(),
        report.allocs_per_event()
    );

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
