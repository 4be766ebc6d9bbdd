//! Environment hygiene and the facts about the environment a result is
//! only meaningful with: cores, compiler, commit, filesystem.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// The engine's three escape hatches. Cleared before anything reads them
/// so the shipped defaults are what is measured.
pub const ENGINE_ENV: [&str; 3] = ["LDL1_JOBS", "LDL1_COMPILED", "LDL1_PARTITIONED"];

pub fn clear_engine_env() {
    for var in ENGINE_ENV {
        std::env::remove_var(var);
    }
}

/// A fresh, empty data directory under `benchmark/out/work/`, inside the
/// checkout. Unique per call, so concurrent tests never share one.
pub fn work_dir(tag: &str) -> std::io::Result<PathBuf> {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = crate::cli::out_dir()
        .join("work")
        .join(format!("{tag}-{}-{n}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir)?;
    }
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// `VmHWM` of this process in MB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type holding `dir`: the longest mount point that prefixes
/// it in `/proc/self/mounts`.
pub fn fs_type(dir: &Path) -> String {
    let dir = fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, ty) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// The checked-out commit, read from `.git` in the current directory
/// without running git; `unknown` in an exported tree.
pub fn git_commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
            })
            .unwrap_or_default(),
    };
    match hash.trim() {
        "" => "unknown".into(),
        h => h.chars().take(12).collect(),
    }
}

pub fn rustc_version() -> &'static str {
    env!("BENCH_RUSTC_VERSION")
}

/// Bytes of a file, 0 if it is not there.
pub fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

/// Bytes a data directory holds on disk: the log plus the snapshot.
pub fn disk_bytes(dir: &Path) -> u64 {
    file_len(&dir.join(ldl1::wal::WAL_FILE)) + file_len(&dir.join(ldl1::wal::SNAPSHOT_FILE))
}
