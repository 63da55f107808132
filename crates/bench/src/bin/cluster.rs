//! Thin wrapper over the `cluster` registry figure (see
//! `bench::cluster`): thousands of fork-stamped host worlds coupled by
//! a modelled datacenter network on the epoch executor, writing
//! `cluster.{json,csv}`. `runall` runs the same units on its thread
//! pool alongside the paper figures.
//!
//! `--jobs N` widens the DAG runner's worker pool, which runs the six
//! cluster units side by side; each unit steps its hosts on its own
//! thread. Artefact bytes are identical at every width (ci.sh gates it).

fn main() {
    let mut jobs = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" | "-j" => {
                let n = args.next().expect("--jobs takes a worker count");
                jobs = n.parse().expect("--jobs must be an integer");
            }
            other => panic!("unknown argument {other:?} (supported: --jobs N)"),
        }
    }
    bench::runner::figure_main_jobs("cluster", jobs);
}
