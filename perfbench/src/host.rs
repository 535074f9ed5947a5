//! Facts about the host and the process: peak memory, provenance, and
//! a store that lets a later run of the same binary compare its
//! deterministic counters with an earlier one.

use std::path::{Path, PathBuf};

/// Where a run writes its spans, provenance, counter snapshots and the
/// daemon's WAL: inside the checkout, next to the benchmark.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest mount point that prefixes it).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// Host provenance as one JSON object: core count, git revision when
/// the checkout is a git repository, and the filesystem holding `wal`.
pub fn provenance(workload: &str, seed: u64, wal: Option<&Path>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let fs = wal.map_or_else(|| "none".into(), filesystem_of);
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"nproc\":{nproc},\"git_rev\":\"{rev}\",\"wal_filesystem\":\"{fs}\"}}"
    )
}

/// FNV-1a over the running executable, so counter snapshots are only
/// compared between runs of the same build.
fn exe_fingerprint() -> Option<u64> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    Some(bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    }))
}

/// Compares `counts` with the snapshot an earlier run of this binary
/// left for the same workload and seed, then stores `counts` for the
/// next run. Returns how many counters differ (0 when there is no
/// earlier snapshot).
pub fn compare_with_earlier_run(workload: &str, seed: u64, counts: &[(&str, u64)]) -> u64 {
    let Some(fp) = exe_fingerprint() else {
        return 0;
    };
    let dir = out_dir().join("counts");
    let path = dir.join(format!("{workload}-{seed}-{fp:016x}.txt"));
    let now: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let differing = match std::fs::read_to_string(&path) {
        Ok(before) => {
            let before: Vec<&str> = before.lines().collect();
            let mismatched = now
                .iter()
                .filter(|line| !before.contains(&line.as_str()))
                .count() as u64;
            if mismatched > 0 {
                eprintln!("perfbench: counters differ from an earlier run of this binary: before {before:?}, now {now:?}");
            }
            mismatched
        }
        Err(_) => 0,
    };
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(&path, now.join("\n"));
    }
    differing
}
