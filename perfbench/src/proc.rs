//! Child processes, temporary stores and process-level measurements.
//!
//! Every child and every temporary directory is owned by a guard whose
//! `Drop` kills/reaps or removes it, so a panic anywhere in a workload still
//! leaves no server running and no directory behind.

use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Directory (relative to the checkout root) holding every temporary store.
pub const TMP_ROOT: &str = ".bench_tmp";

/// A uniquely named directory under [`TMP_ROOT`], removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `.bench_tmp/<tag>-<pid>-<n>`.
    ///
    /// # Panics
    ///
    /// When the directory cannot be created.
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(TMP_ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("create temporary directory");
        TempDir { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

/// Removes the temporary directories of benchmark processes that no longer
/// run: a run killed outright (timeout, SIGKILL) never reaches its guards.
pub fn sweep_stale() {
    let Ok(entries) = fs::read_dir(TMP_ROOT) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        // `<tag>-<pid>-<n>`; the tag may itself contain `-`.
        let pid = name.rsplit('-').nth(1).and_then(|p| p.parse::<u32>().ok());
        if pid.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        // Only succeeds once the last temporary directory is gone.
        let _ = fs::remove_dir(TMP_ROOT);
    }
}

/// A long-running child (server, coordinator), killed and reaped on drop.
#[derive(Debug)]
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The URL the child printed on its first stdout line.
    pub url: String,
}

impl Server {
    /// Spawns `command` and reads the `prefix`-tagged URL line it prints
    /// first.
    ///
    /// # Errors
    ///
    /// When the child cannot be spawned or exits before printing the line.
    pub fn spawn(mut command: Command, prefix: &str) -> Result<Server, String> {
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let url = line.trim().strip_prefix(prefix).map(str::to_string);
        match (read, url) {
            (Ok(_), Some(url)) => Ok(Server {
                child,
                _stdout: stdout,
                url,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("child printed no `{prefix}` line (got `{line}`)"))
            }
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// How a one-shot child ended.
#[derive(Debug, Clone)]
pub struct Exit {
    /// Exit code (`None` when killed by a signal).
    pub code: Option<i32>,
    /// Everything it wrote to stdout.
    pub stdout: String,
    /// Wall seconds from spawn to reaping.
    pub wall: f64,
    /// Peak resident set size (`ru_maxrss`) in KiB.
    pub max_rss_kb: u64,
}

impl Exit {
    /// Whether the child exited with code 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }

    /// The value of the first `key: value` line on stdout.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.stdout
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(": "))
            .map(str::trim)
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `command` to completion, capturing stdout, and reaps it with
/// `wait4` so its own peak RSS is known.
///
/// # Errors
///
/// When the child cannot be spawned or reaped.
pub fn run_to_exit(mut command: Command) -> Result<Exit, String> {
    let start = Instant::now();
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout);
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `wait4` writes only into the two out-pointers, both valid for
    // the call; the pid is our own unreaped child.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    let wall = start.elapsed().as_secs_f64();
    if reaped <= 0 {
        let _ = child.kill();
        let _ = child.wait();
        return Err("wait4 failed".to_string());
    }
    read.map_err(|e| format!("read child stdout: {e}"))?;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        stdout,
        wall,
        max_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// `VmHWM` (peak RSS) of a live process, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Total bytes of the regular files under `path`.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            Ok(t) if t.is_file() => entry.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
