//! What the harness reads from the machine: cores, peak memory, bytes
//! on disk, a streaming-read calibration, and its scratch directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Cores this process may run on, read once at first use (so that
/// [`run_on_one_cpu`] does not change what the harness calls `nproc`).
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A Linux `cpu_set_t`: 1024 bits.
pub type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, or `None` off Linux-like
/// systems where the call fails.
fn allowed_cpus() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable 128-byte buffer and the size
    // passed is its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

/// The lowest-numbered CPU of `set`, alone.
fn first_cpu(set: &CpuSet) -> CpuSet {
    let mut one: CpuSet = [0; 16];
    if let Some((word, bits)) = set.iter().enumerate().find(|(_, bits)| **bits != 0) {
        one[word] = 1 << bits.trailing_zeros();
    }
    one
}

/// Moves every existing thread of this process to `set` (threads
/// spawned later inherit their creator's set).
fn move_threads(set: &CpuSet) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for tid in tasks
        .flatten()
        .filter_map(|t| t.file_name().to_str()?.parse::<i32>().ok())
    {
        // SAFETY: `set` is a live 128-byte buffer of the size passed;
        // the kernel only reads it. A thread that exited since the
        // directory was read makes the call fail, nothing more.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set) };
    }
}

/// Confines the whole process to one CPU (`true`) or gives it back the
/// CPUs it started with (`false`). Call it only while no thread is
/// being spawned. A no-op where the affinity calls are unavailable.
///
/// One request in flight runs on one CPU because, on this shared
/// two-core VM, handing work to an idle core costs 35 µs to 150 µs per
/// hand-off for minutes at a time, depending on the host's idle policy
/// and the load of the last minutes — more than a whole request of the
/// small workloads, and nothing the program decides. The library sees
/// one CPU and behaves as it does on a one-core machine.
pub fn run_on_one_cpu(one: bool) {
    static STARTED_WITH: OnceLock<Option<CpuSet>> = OnceLock::new();
    // First called while the process still has all its CPUs.
    if let Some(all) = STARTED_WITH.get_or_init(allowed_cpus) {
        move_threads(&if one { first_cpu(all) } else { *all });
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of a file, or of every file under a directory.
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if !meta.is_dir() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| entries.flatten().map(|e| disk_bytes(&e.path())).sum())
        .unwrap_or(0)
}

/// Best-of-5 streaming read of a 256 MiB `f32` buffer, GB/s: the
/// machine reference the kernel roofline is divided by. (`mib` is a
/// parameter only so the self-test can run on a small buffer.)
pub fn stream_gbps(mib: usize) -> f64 {
    let buf = vec![1.0f32; mib * (1 << 20) / 4];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut acc = [0.0f32; 16];
        for chunk in buf.chunks_exact(16) {
            for (a, &v) in acc.iter_mut().zip(chunk) {
                *a += v;
            }
        }
        std::hint::black_box(acc);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (buf.len() * 4) as f64 / best / 1e9
}

/// The settings of a manifest's `[profile.release]` table, comments and
/// blank lines dropped, sorted.
fn profile_settings(manifest: &str) -> Vec<&str> {
    let mut settings: Vec<&str> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    settings.sort_unstable();
    settings
}

/// Whether this package's release profile still equals the repository's
/// (the `Cargo.toml` of the current directory). A package outside the
/// workspace cannot inherit that profile, only copy it, and a copy that
/// has drifted measures a build nobody ships — so every header says.
pub fn release_profile() -> &'static str {
    let own = profile_settings(include_str!("../Cargo.toml"));
    match std::fs::read_to_string("Cargo.toml") {
        Ok(root) if profile_settings(&root) == own => "same-as-root",
        Ok(_) => "DIFFERS-FROM-ROOT",
        Err(_) => "root-manifest-unreadable",
    }
}

/// A scratch directory, `.bench_scratch/pdx-bench-<pid>-<n>` under the
/// current directory (the checkout: the benchmark writes nowhere else).
/// Removed when dropped, on success and on failure alike.
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    pub fn create() -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = Path::new(".bench_scratch").join(format!(
            "pdx-bench-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_readings_are_sane() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mib() > 0.0);
        assert!(stream_gbps(4) > 0.0);
    }

    #[test]
    fn profile_tables_compare_by_their_settings() {
        let a = "[package]\nname = \"x\"\n\n[profile.release]\n# why\nlto = \"thin\"\ncodegen-units = 1\n\n[profile.bench]\ndebug = true\n";
        let b = "[profile.release]\ncodegen-units = 1\nlto = \"thin\"\n";
        assert_eq!(profile_settings(a), profile_settings(b));
        assert_eq!(profile_settings(a).len(), 2);
        assert_ne!(
            profile_settings(a),
            profile_settings("[profile.release]\nlto = \"fat\"\n")
        );
        assert!(profile_settings("[package]\n").is_empty());
    }

    #[test]
    fn one_cpu_and_back() {
        let Some(all) = allowed_cpus() else { return };
        // Other tests' threads come and go meanwhile, so only this
        // thread's own set is asserted.
        run_on_one_cpu(true);
        let one = allowed_cpus().unwrap();
        assert_eq!(one.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(one, first_cpu(&all));
        run_on_one_cpu(false);
        assert_eq!(allowed_cpus(), Some(all));
    }

    #[test]
    fn scratch_is_removed_on_drop_and_sized_while_alive() {
        let scratch = Scratch::create().unwrap();
        let dir = scratch.dir.clone();
        std::fs::create_dir_all(scratch.path("sub")).unwrap();
        std::fs::write(scratch.path("a"), [0u8; 10]).unwrap();
        std::fs::write(scratch.path("sub/b"), [0u8; 5]).unwrap();
        assert_eq!(disk_bytes(&dir), 15);
        drop(scratch);
        assert!(!dir.exists());
    }
}
