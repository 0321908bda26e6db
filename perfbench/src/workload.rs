//! What every workload shares: its arguments, failure accounting, and the
//! end-to-end metric list.

use crate::layers::Layers;
use crate::report::Metric;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

/// Every end-to-end metric, in report order, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("flow_wall_s", "s"),
    ("store_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("exec_latency_p50_s", "s"),
    ("exec_latency_p90_s", "s"),
    ("exec_runs_per_s", "1/s"),
    ("cached_latency_p50_ms", "ms"),
    ("cached_latency_p95_ms", "ms"),
];

/// Starts of the workload's system measured for `setup_s` before the
/// measurement window, and after it. Each costs a few milliseconds; taking
/// many, spread over the run, keeps one slow stretch of a shared host from
/// deciding the median.
pub const SETUP_STARTS: (usize, usize) = (12, 12);

/// Idle gap before each short timed operation (a start, a cached CLI read).
/// Spawned back to back, millisecond-long processes flip between a fast and
/// a slow state of the host from one batch to the next; after a short idle
/// gap they take a steady time.
const PAUSE: Duration = Duration::from_millis(20);

/// Sleeps for [`PAUSE`].
pub fn pause() {
    std::thread::sleep(PAUSE);
}

/// The arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `ayb` binary under test.
    pub ayb: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
}

impl Ctx {
    /// An `ayb` invocation with `args`.
    pub fn ayb(&self, args: &[&str]) -> Command {
        let mut command = Command::new(&self.ayb);
        command.args(args);
        command
    }
}

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(note());
            }
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    /// `1 - failed / attempted`.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics of the untraced measurement.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, for the traced run.
    pub layers: Option<Layers>,
    /// Failure accounting over the whole run.
    pub tally: Tally,
}

/// Checks that `metrics` holds exactly [`END_TO_END`], in order.
///
/// # Panics
///
/// On a missing, extra or misnamed metric: a harness bug.
pub fn assert_end_to_end(metrics: &[Metric]) {
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected, "end-to-end metric set");
    for (metric, (_, unit)) in metrics.iter().zip(END_TO_END) {
        assert_eq!(metric.unit, *unit, "unit of {}", metric.name);
    }
}
