//! Process-wide counters of xl's unique-name check.
//!
//! `ControlPlane::xl_name_check` charges xl's O(n) scan of
//! `/local/domain` in closed form unless the name may be taken (see
//! DESIGN.md §6g) and runs the real request scan otherwise. These three
//! counters exist only because the frozen `benchmark/` package reads
//! them through [`totals`], [`fallback_total`] and [`summary`]; nothing
//! in the simulation depends on them.

use std::sync::atomic::{AtomicU64, Ordering};

/// xl name checks run.
static NAME_CHECKS: AtomicU64 = AtomicU64::new(0);
/// Of those, checks charged in closed form.
static CLOSED_FORM: AtomicU64 = AtomicU64::new(0);
/// Store requests the closed-form checks did not execute.
static REQUESTS_AVOIDED: AtomicU64 = AtomicU64::new(0);

/// Counts one xl name check; `avoided` is `Some(requests)` when it was
/// charged in closed form.
pub(crate) fn note_name_check(avoided: Option<u64>) {
    NAME_CHECKS.fetch_add(1, Ordering::Relaxed);
    if let Some(n) = avoided {
        CLOSED_FORM.fetch_add(1, Ordering::Relaxed);
        REQUESTS_AVOIDED.fetch_add(n, Ordering::Relaxed);
    }
}

/// `(name checks, closed-form checks, requests avoided)` since process
/// start.
pub fn totals() -> (u64, u64, u64) {
    (
        NAME_CHECKS.load(Ordering::Relaxed),
        CLOSED_FORM.load(Ordering::Relaxed),
        REQUESTS_AVOIDED.load(Ordering::Relaxed),
    )
}

/// Name checks that ran the real request scan.
pub fn fallback_total() -> u64 {
    let (checks, closed, _) = totals();
    checks - closed
}

/// One-line summary for run reports.
pub fn summary() -> String {
    let (checks, closed, avoided) = totals();
    format!(
        "name-checks {checks} closed-form {closed} requests-avoided {avoided} fallbacks {}",
        checks - closed
    )
}
