//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --ayb PATH`
//! runs one workload and prints its report; the last stdout line is the
//! result object. `perfbench --summarize FILE...` prints
//! the median and quartiles of every metric across saved run outputs.

use perfbench::cli::{self, CliWorkload};
use perfbench::report::{report_in, steal_seconds, summarize, Host, Report, REPORT_PREFIX};
use perfbench::workload::{assert_end_to_end, Ctx};
use perfbench::{svc, workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// The paper's Table 5 run. It always executes the paper's seed: across
/// seeds its Pareto front ranges from about 200 to 400 points, so its wall
/// time would measure the seed rather than the code.
const PAPER_DURABLE: CliWorkload = CliWorkload {
    scale: "paper",
    sharded: false,
    fixed_seed: Some(2008),
};

/// Demo-scale flows sharded over the wire, seeded from the benchmark seed.
const DEMO_SHARDED_TCP: CliWorkload = CliWorkload {
    scale: "demo",
    sharded: true,
    fixed_seed: None,
};

/// Workload names, as listed in `BENCHMARK.json`.
const WORKLOADS: &[&str] = &["paper_durable", "svc_mixed", "demo_sharded_tcp"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 --ayb PATH\n       perfbench --summarize FILE...",
        WORKLOADS.join("|")
    )
}

fn summarize_files(files: &[String]) -> ExitCode {
    let mut reports = Vec::new();
    for file in files {
        let parsed = std::fs::read_to_string(file)
            .map_err(|e| e.to_string())
            .and_then(|text| report_in(&text).unwrap_or(Err("no report line".to_string())));
        match parsed {
            Ok(report) => reports.push(report),
            Err(e) => eprintln!("skipping {file}: {e}"),
        }
    }
    for line in summarize(&reports) {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--summarize") {
        return summarize_files(&args[1..]);
    }
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ayb = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let Some(value) = iter.next() else {
            eprintln!("{flag} needs a value\n{}", usage());
            return ExitCode::from(2);
        };
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--ayb" => ayb = Some(PathBuf::from(value)),
            _ => {
                eprintln!("unknown flag {flag}\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let (Some(name), Some(seed), Some(seconds), Some(trace), Some(ayb)) =
        (name, seed, seconds, trace, ayb)
    else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    if !WORKLOADS.contains(&name.as_str()) {
        eprintln!("unknown workload {name}\n{}", usage());
        return ExitCode::from(2);
    }
    if !ayb.is_file() {
        eprintln!("no ayb binary at {}", ayb.display());
        return ExitCode::from(2);
    }

    perfbench::proc::sweep_stale();
    let ctx = Ctx { ayb, seed, seconds };
    let steal_before = steal_seconds();
    let outcome = match name.as_str() {
        "paper_durable" => cli::run(&ctx, PAPER_DURABLE, trace),
        "demo_sharded_tcp" => cli::run(&ctx, DEMO_SHARDED_TCP, trace),
        _ => svc::run(&ctx, trace),
    };
    assert_end_to_end(&outcome.end_to_end);
    let workload::Outcome {
        end_to_end,
        layers,
        tally,
    } = outcome;
    let mut notes = tally.notes;
    if let (Some(before), Some(after)) = (steal_before, steal_seconds()) {
        notes.push(format!(
            "cpu time stolen by the hypervisor during the run: {:.2} s",
            after - before
        ));
    }
    let metrics = match layers {
        Some(layers) => {
            notes.push(format!(
                "untraced end-to-end: {}",
                end_to_end
                    .iter()
                    .map(|m| format!("{}={}{}", m.name, m.value, m.unit))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
            layers.into_metrics()
        }
        None => end_to_end,
    };
    let report = Report {
        workload: name,
        seed,
        seconds: seconds as u64,
        trace,
        host: Host::detect(),
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    };
    print!("{}", report.render());
    println!("{REPORT_PREFIX}{}", report.to_json());
    println!("{}", report.contract_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
