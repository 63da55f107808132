//! Runs the `churn` registry figure (see `bench::churn`): the
//! long-horizon churn & soak suite with digest/census leak detection,
//! printing its table and writing `churn.{json,csv}`. `runall` runs the
//! same units at the default size alongside the paper figures.
//!
//! For a real soak (the CI artefacts use the default sizes), pass the
//! total lifecycle-event count per unit; it is handed to the churn spec
//! directly:
//!
//! ```text
//! cargo run --release -p bench --bin churn -- --events 1000000
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut events = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--events" => {
                let n = args
                    .next()
                    .expect("--events takes a lifecycle-event count");
                events = Some(n.parse().expect("--events must be an integer"));
            }
            other => panic!("unknown argument {other:?} (supported: --events N)"),
        }
    }
    let scale = bench::Scale::from_env();
    let (runs, _) = bench::runner::run(vec![bench::churn::spec(scale, events)], 1, scale.quick);
    match bench::finish(&runs[0], &bench::out_dir()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("# ERROR: could not write churn: {e}");
            ExitCode::FAILURE
        }
    }
}
