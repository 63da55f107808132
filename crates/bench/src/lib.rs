//! Shared helpers for the figure-regeneration binaries, the figure
//! registry ([`figures`]) and the parallel runner ([`runner`]).

pub mod ablations;
pub mod alloc;
pub mod churn;
pub mod cluster;
pub mod faultsweep;
pub mod figures;
pub mod probewalk;
pub mod runner;
pub mod sched;
pub mod worldcache;

use std::io::{self, Write};
use std::path::{Path, PathBuf};

pub use figures::Scale;

/// Where figure artefacts (.json/.csv) are written.
pub fn out_dir() -> PathBuf {
    std::env::var_os("LIGHTVM_FIG_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/figures"))
}

/// Prints a finished figure as a table sampled at its `sample_xs` and
/// writes `<id>.{json,csv}` into `dir`. Stdout is best-effort (a closed
/// pipe, as in `runall | head`, is ignored rather than a panic); a
/// failed artefact write is the caller's error.
pub fn finish(run: &runner::FigureRun, dir: &Path) -> io::Result<()> {
    let fig = &run.figure;
    let mut out = io::stdout().lock();
    let _ = out.write_all(fig.render_table(&run.sample_xs).as_bytes());
    fig.write_files(dir)?;
    let _ = writeln!(out, "# wrote {}/{}.{{json,csv}}", dir.display(), fig.id);
    Ok(())
}

/// Densities at which the density sweeps measure (denser at the start,
/// then every 50 up to `max`).
pub fn density_steps(max: usize) -> Vec<usize> {
    let mut steps = vec![1, 2, 5, 10, 20, 35, 50, 75, 100];
    let mut n = 150;
    while n <= max {
        steps.push(n);
        n += 50;
    }
    steps.retain(|&s| s <= max);
    if steps.last() != Some(&max) {
        steps.push(max);
    }
    steps
}

/// Whether `n` is on the density ladder — i.e. would appear in
/// [`density_steps`]`(max)` for every `max >= n` that is itself on the
/// ladder. The world cache samples expensive per-density observables
/// (CPU utilisation is O(guests)) only at ladder points, so the rule
/// must not depend on any particular sweep's target.
pub fn on_density_ladder(n: usize) -> bool {
    matches!(n, 1 | 2 | 5 | 10 | 20 | 35 | 50 | 75 | 100) || (n >= 150 && n.is_multiple_of(50))
}

use simcore::SimTime;

/// One guest's create/boot measurement within a density sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Guests already running when this one was created.
    pub n_before: usize,
    /// Toolstack creation latency.
    pub create: SimTime,
    /// Guest boot latency.
    pub boot: SimTime,
}

/// Extracts an (x = index, y = value ms) series from sweep points.
pub fn series_ms(
    label: &str,
    points: &[SweepPoint],
    f: impl Fn(&SweepPoint) -> SimTime,
) -> metrics::Series {
    metrics::Series::from_points(
        label,
        points
            .iter()
            .enumerate()
            .map(|(i, p)| (i as f64 + 1.0, f(p).as_millis_f64())),
    )
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_reports_an_unwritable_figure_dir() {
        let dir = std::env::temp_dir().join(format!("bench-finish-{}", std::process::id()));
        std::fs::write(&dir, b"a regular file, not a directory").unwrap();
        let run = runner::FigureRun {
            figure: metrics::Figure::new("fig00", "t", "x", "y"),
            sample_xs: vec![1.0],
        };
        let res = finish(&run, &dir);
        std::fs::remove_file(&dir).unwrap();
        assert!(res.is_err(), "writing into a regular file must fail");
    }
}
