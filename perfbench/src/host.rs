//! Host-side measurement: process CPU time, peak resident set, and the
//! provenance stamped on every record.

use std::path::Path;
use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user + system time of every thread
/// of the process, with nanosecond resolution.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by the whole process so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call; the clock id is a
    // constant the kernel supports for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Resets the kernel's peak-RSS mark for this process to the current RSS
/// (`/proc/self/clear_refs`, value 5). Returns false where the kernel
/// refuses, in which case peaks are whole-process high-water marks.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last reset, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Online CPUs (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// FNV-1a, 64-bit: a stable digest of canonical output text.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What tree produced a record. A checkout that is not a git repository
/// still gets a content hash of every source file the build reads.
pub struct Provenance {
    /// `git rev-parse HEAD`, when the checkout is a git repository.
    pub git_rev: Option<String>,
    /// True when `git status --porcelain` lists changes.
    pub dirty: Option<bool>,
    /// Digest of `git diff HEAD` (zero for a clean tree).
    pub diff_hash: Option<String>,
    /// Digest over the path and bytes of every source file.
    pub tree_hash: String,
}

/// Runs git on the checkout at `root` only: the ceiling keeps git from
/// finding an enclosing repository when the checkout is not one itself.
fn git(root: &Path, args: &[&str]) -> Option<String> {
    let mut cmd = Command::new("git");
    cmd.current_dir(root).args(args);
    if let Some(parent) = root.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

impl Provenance {
    /// Stamps the tree rooted at `root` (the checkout).
    pub fn of(root: &Path) -> Provenance {
        let git_rev = git(root, &["rev-parse", "HEAD"]).map(|s| s.trim().to_string());
        let dirty = git_rev
            .as_ref()
            .and_then(|_| git(root, &["status", "--porcelain", "--untracked-files=no"]))
            .map(|s| !s.trim().is_empty());
        let diff_hash = git_rev
            .as_ref()
            .and_then(|_| git(root, &["diff", "HEAD"]))
            .map(|d| format!("{:016x}", fnv64(d.as_bytes())));
        Provenance {
            git_rev,
            dirty,
            diff_hash,
            tree_hash: tree_hash(root),
        }
    }
}

/// Hashes `Cargo.toml`, `Cargo.lock` and every file under `crates/`,
/// `vendor/` and `perfbench/` (build outputs excluded), in path order.
fn tree_hash(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut text = Vec::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        text.extend_from_slice(rel.to_string_lossy().as_bytes());
        text.push(0);
        text.extend_from_slice(&std::fs::read(f).unwrap_or_default());
        text.push(0);
    }
    format!("{:016x}", fnv64(&text))
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        if name == "target" || name.to_string_lossy().starts_with('.') {
            continue;
        }
        collect(&p, out);
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU set of up to 1024 CPUs, the kernel's `cpu_set_t` layout.
type CpuMask = [u64; 16];

fn get_affinity() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per call. A single-threaded run that stays on one CPU inherits
/// whatever else the host runs on that CPU for as long as it stays there;
/// stepping before every scenario gives each iteration the same mix of
/// CPUs. Each step migrates the thread by pinning it to the next CPU and
/// then restores its original CPU set at once, so the scheduler can still
/// move it off a CPU that turns busy.
pub struct CpuRotation {
    original: Option<CpuMask>,
    cpus: Vec<usize>,
    next: usize,
}

impl CpuRotation {
    /// Reads the calling thread's allowed CPUs.
    pub fn new() -> CpuRotation {
        let original = get_affinity();
        let cpus = original.map_or_else(Vec::new, |m| {
            (0..1024)
                .filter(|&c| m[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        });
        CpuRotation {
            original,
            cpus,
            next: 0,
        }
    }

    /// Migrates the calling thread to the next allowed CPU.
    pub fn step(&mut self) {
        let Some(original) = &self.original else {
            return;
        };
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask: CpuMask = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        if set_affinity(&mask) {
            set_affinity(original);
        }
    }
}
