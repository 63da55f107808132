//! Host facts recorded with every output, the noise canary, and the
//! process's peak memory.

use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use metrics::Json;
use simcore::SimRng;

/// Root of the repository checkout the benchmark was built in (the
/// figures oracle lives in its `results/`).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repository root")
        .to_path_buf()
}

/// Times a fixed, deterministic CPU kernel: 10M `SimRng` draws. It does
/// the same work on every call, so a slow reading means the host was
/// slow (another tenant, frequency scaling), not the code under test.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut rng = SimRng::new(0xCA11B);
    let mut acc = 0u64;
    for _ in 0..10_000_000 {
        acc ^= rng.next_u64();
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, the commit, the compiler and the UTC time, as one object.
pub fn facts() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc".to_string(), Json::Num(nproc as f64)),
        ("commit".to_string(), Json::Str(commit())),
        (
            "rustc".to_string(),
            Json::Str(env!("LVBENCH_RUSTC").to_string()),
        ),
        ("date".to_string(), Json::Str(utc_now())),
    ])
}

/// The checked-out commit, read from `.git` directly (no `git` process,
/// nothing read outside the checkout); "unknown" outside a git checkout.
fn commit() -> String {
    let git = repo_root().join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Current UTC time as `YYYY-MM-DDThh:mm:ssZ` (civil-from-days).
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = ((secs / 86_400) as i64, secs % 86_400);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}
