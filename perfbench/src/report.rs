//! The benchmark report: metrics with their sample counts, the host and
//! build stamp, and the one-line result the benchmark contract asks for.

use crate::stats::{Quantile, Spread};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};

/// Prefix of the stdout line carrying the full report.
pub const REPORT_PREFIX: &str = "report: ";

/// One reported metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, e.g. `s`, `ms`, `MB`, `ratio`, `count`.
    pub unit: String,
    /// The measured value.
    pub value: f64,
    /// Samples the value was derived from (1 for a single measurement).
    pub samples: u64,
    /// For a quantile: samples strictly beyond it; otherwise 0.
    pub beyond: u64,
}

impl Metric {
    /// A single measured value.
    pub fn value(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples: 1,
            beyond: 0,
        }
    }

    /// A quantile of several samples (0 with no samples: layer not
    /// exercised on this workload).
    pub fn quantile(name: &str, unit: &str, quantile: Option<Quantile>) -> Metric {
        match quantile {
            Some(q) => Metric {
                name: name.to_string(),
                unit: unit.to_string(),
                value: q.value,
                samples: q.samples as u64,
                beyond: q.beyond as u64,
            },
            None => Metric {
                samples: 0,
                ..Metric::value(name, unit, 0.0)
            },
        }
    }
}

/// Where and from what the numbers were produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: u64,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Stamps the current host; fields that cannot be read are `unknown`.
    pub fn detect() -> Host {
        let unknown = || "unknown".to_string();
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| unknown());
        let rustc = Command::new("rustc")
            .arg("-V")
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(unknown);
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu_model,
            kernel,
            rustc,
            commit: git_commit(Path::new(".")).unwrap_or_else(unknown),
        }
    }
}

/// CPU time the hypervisor took from this machine so far (the `steal`
/// column of `/proc/stat`, in seconds at 100 ticks per second).
pub fn steal_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// The commit `HEAD` names in `root/.git`, read from the files directly so
/// nothing outside the checkout is consulted.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(commit, _)| commit.to_string())
}

/// A complete benchmark report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// The `--seed` argument.
    pub seed: u64,
    /// The `--seconds` argument.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Host and build stamp.
    pub host: Host,
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable remarks (mismatches, skipped layers).
    pub notes: Vec<String>,
}

/// One metric of the contract line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ContractMetric {
    value: f64,
    unit: String,
}

/// The last stdout line: exactly the keys the benchmark contract names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ContractLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ContractMetric>,
}

impl Report {
    /// The full report as one JSON line.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }

    /// Parses [`Report::to_json`] output.
    ///
    /// # Errors
    ///
    /// The JSON parser's message.
    pub fn from_json(text: &str) -> Result<Report, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// The contract's result object.
    pub fn contract_line(&self) -> String {
        let line = ContractLine {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: self
                .metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        ContractMetric {
                            value: m.value,
                            unit: m.unit.clone(),
                        },
                    )
                })
                .collect(),
        };
        serde_json::to_string(&line).expect("contract line serializes")
    }

    /// A fixed-width table of the metrics for people reading the log.
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {} seed {} seconds {} trace {} | {} nproc {} | {} | {} | commit {}\n",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.host.cpu_model,
            self.host.nproc,
            self.host.kernel,
            self.host.rustc,
            self.host.commit,
        );
        out.push_str(&format!(
            "correct {} attempted {} failed {} failed_ratio {}\n",
            self.correct,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<28} {:>16.6} {:<6} samples {:>6} beyond {:>5}\n",
                m.name, m.value, m.unit, m.samples, m.beyond
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}

/// Finds the report line in a run's captured stdout.
pub fn report_in(stdout: &str) -> Option<Result<Report, String>> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(REPORT_PREFIX))
        .map(Report::from_json)
}

/// Median and quartiles of every metric across `reports`, grouped by
/// workload and traced/untraced, as printable lines.
pub fn summarize(reports: &[Report]) -> Vec<String> {
    // (workload, traced) -> metric name -> (unit, one value per run)
    type Runs = BTreeMap<String, (String, Vec<f64>)>;
    let mut groups: BTreeMap<(String, bool), Runs> = BTreeMap::new();
    for report in reports {
        let group = groups
            .entry((report.workload.clone(), report.trace))
            .or_default();
        for m in &report.metrics {
            group
                .entry(m.name.clone())
                .or_insert_with(|| (m.unit.clone(), Vec::new()))
                .1
                .push(m.value);
        }
    }
    let mut lines = Vec::new();
    for ((workload, trace), metrics) in groups {
        lines.push(format!("{workload} (trace {})", u8::from(trace)));
        for (name, (unit, values)) in metrics {
            if let Some(s) = Spread::of(&values) {
                lines.push(format!(
                    "  {name:<28} median {:>14.6} q1 {:>14.6} q3 {:>14.6} {unit:<6} runs {:>3} iqr/median {:.4}",
                    s.median,
                    s.q1,
                    s.q3,
                    s.runs,
                    s.relative_iqr()
                ));
            }
        }
    }
    lines
}
