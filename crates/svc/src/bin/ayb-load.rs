//! `ayb-load` — load generator for the `ayb serve-http` service plane.
//!
//! Spawns `--clients` threads spread round-robin across `--tenants`
//! synthetic tenants; each client issues `--requests` submissions drawn
//! from a `--seeds`-sized seed pool (smaller pool → higher duplicate rate →
//! more dedup hits) and polls the status of every run it created. Reports a
//! schema-versioned JSON document (latency quantiles, status counts, dedup
//! hits, throughput) to `--out` and a one-line summary to stdout.
//!
//! CI runs it with `--require-dedup --fail-on-5xx`, turning the burst into
//! a self-asserting smoke test.
//!
//! ```text
//! ayb-load --url http://127.0.0.1:4780 \
//!          --tenants 2 --clients 8 --requests 10 --seeds 5 \
//!          --scale reduced --out LOAD.json
//! ```

use ayb_process::quantile;
use ayb_svc::SvcClient;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

/// Version of the report document; bump on breaking shape changes.
const SCHEMA_VERSION: u64 = 1;

struct LoadArgs {
    url: String,
    tenants: usize,
    clients: usize,
    requests: usize,
    seeds: u64,
    scale: String,
    priority: Option<String>,
    out: Option<String>,
    quiet: bool,
    require_dedup: bool,
    fail_on_5xx: bool,
}

fn parse_args(args: &[String]) -> Result<LoadArgs, String> {
    let mut parsed = LoadArgs {
        url: String::new(),
        tenants: 2,
        clients: 8,
        requests: 10,
        seeds: 5,
        scale: "reduced".to_string(),
        priority: None,
        out: None,
        quiet: false,
        require_dedup: false,
        fail_on_5xx: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--url" => parsed.url = value_of("--url")?,
            "--tenants" => {
                parsed.tenants = value_of("--tenants")?
                    .parse()
                    .map_err(|e| format!("bad --tenants: {e}"))?
            }
            "--clients" => {
                parsed.clients = value_of("--clients")?
                    .parse()
                    .map_err(|e| format!("bad --clients: {e}"))?
            }
            "--requests" => {
                parsed.requests = value_of("--requests")?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?
            }
            "--seeds" => {
                parsed.seeds = value_of("--seeds")?
                    .parse()
                    .map_err(|e| format!("bad --seeds: {e}"))?
            }
            "--scale" => parsed.scale = value_of("--scale")?,
            "--priority" => parsed.priority = Some(value_of("--priority")?),
            "--out" => parsed.out = Some(value_of("--out")?),
            "--quiet" => parsed.quiet = true,
            "--require-dedup" => parsed.require_dedup = true,
            "--fail-on-5xx" => parsed.fail_on_5xx = true,
            "--help" | "-h" => {
                println!(
                    "usage: ayb-load --url URL [--tenants N] [--clients N] [--requests N] \
                     [--seeds N] [--scale reduced|demo|paper] [--priority high|normal|low] \
                     [--out FILE] [--quiet] [--require-dedup] [--fail-on-5xx]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.url.is_empty() {
        return Err("--url is required".to_string());
    }
    if parsed.tenants == 0 || parsed.clients == 0 || parsed.requests == 0 || parsed.seeds == 0 {
        return Err("--tenants/--clients/--requests/--seeds must be positive".to_string());
    }
    Ok(parsed)
}

/// Everything one client thread observed, merged into totals at the end.
#[derive(Default)]
struct ClientStats {
    by_status: BTreeMap<u16, u64>,
    dedup_hits: u64,
    transport_errors: u64,
    latencies: Vec<f64>,
}

fn run_client(args: &LoadArgs, client_index: usize) -> ClientStats {
    let tenant = format!("tenant-{}", client_index % args.tenants);
    let client = match SvcClient::new(&args.url) {
        Ok(c) => c.with_tenant(&tenant),
        Err(_) => return ClientStats::default(),
    };
    let mut stats = ClientStats::default();
    let mut my_runs: Vec<String> = Vec::new();
    for request in 0..args.requests {
        // Deterministic seed schedule: client and request index walk the
        // pool, so every invocation of ayb-load with the same flags hits
        // the same duplicate pattern.
        let seed = ((client_index + request) as u64 % args.seeds) + 1;
        let body = match &args.priority {
            Some(priority) => format!(
                "{{\"seed\": {seed}, \"scale\": \"{}\", \"priority\": \"{priority}\"}}",
                args.scale
            ),
            None => format!("{{\"seed\": {seed}, \"scale\": \"{}\"}}", args.scale),
        };
        let started = Instant::now();
        match client.submit_raw(&body) {
            Ok((status, value)) => {
                stats.latencies.push(started.elapsed().as_secs_f64());
                *stats.by_status.entry(status).or_default() += 1;
                if let Some(Value::Bool(true)) = value.get("deduped") {
                    stats.dedup_hits += 1;
                }
                if let Some(Value::Str(run_id)) = value.get("run_id") {
                    my_runs.push(run_id.clone());
                }
            }
            Err(_) => stats.transport_errors += 1,
        }
    }
    // Status poll for every run this client touched — the read side of the
    // mix, exercising keep-alive-free GETs under the same load.
    for run_id in &my_runs {
        let started = Instant::now();
        match client.run_status(run_id) {
            Ok((status, _)) => {
                stats.latencies.push(started.elapsed().as_secs_f64());
                *stats.by_status.entry(status).or_default() += 1;
            }
            Err(_) => stats.transport_errors += 1,
        }
    }
    stats
}

/// The exact `q`-quantile of the measured latencies, in milliseconds
/// (linear interpolation between order statistics; 0 when none).
fn quantile_ms(latencies: &[f64], q: f64) -> f64 {
    quantile(latencies, q).map_or(0.0, |seconds| seconds * 1e3)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ayb-load: {e}");
            return ExitCode::FAILURE;
        }
    };

    let started = Instant::now();
    let merged = Mutex::new(Vec::<ClientStats>::new());
    std::thread::scope(|scope| {
        for client_index in 0..args.clients {
            let args = &args;
            let merged = &merged;
            scope.spawn(move || {
                let stats = run_client(args, client_index);
                merged.lock().expect("stats lock").push(stats);
            });
        }
    });
    let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);

    let mut by_status: BTreeMap<u16, u64> = BTreeMap::new();
    let mut dedup_hits = 0u64;
    let mut transport_errors = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    for stats in merged.into_inner().expect("stats lock") {
        for (status, count) in stats.by_status {
            *by_status.entry(status).or_default() += count;
        }
        dedup_hits += stats.dedup_hits;
        transport_errors += stats.transport_errors;
        latencies.extend(stats.latencies);
    }
    let total_requests = latencies.len() as u64;
    let mean_latency = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let server_errors: u64 = by_status
        .iter()
        .filter(|(status, _)| **status >= 500)
        .map(|(_, count)| *count)
        .sum();

    let status_pairs: Vec<(String, Value)> = by_status
        .iter()
        .map(|(status, count)| (status.to_string(), (*count).to_value()))
        .collect();
    let report = Value::Object(vec![
        ("schema_version".to_string(), SCHEMA_VERSION.to_value()),
        (
            "config".to_string(),
            Value::Object(vec![
                ("url".to_string(), Value::Str(args.url.clone())),
                ("tenants".to_string(), (args.tenants as u64).to_value()),
                ("clients".to_string(), (args.clients as u64).to_value()),
                (
                    "requests_per_client".to_string(),
                    (args.requests as u64).to_value(),
                ),
                ("seed_pool".to_string(), args.seeds.to_value()),
                ("scale".to_string(), Value::Str(args.scale.clone())),
            ]),
        ),
        (
            "totals".to_string(),
            Value::Object(vec![
                ("requests".to_string(), total_requests.to_value()),
                ("by_status".to_string(), Value::Object(status_pairs)),
                ("dedup_hits".to_string(), dedup_hits.to_value()),
                ("server_errors".to_string(), server_errors.to_value()),
                ("transport_errors".to_string(), transport_errors.to_value()),
            ]),
        ),
        (
            "latency_ms".to_string(),
            Value::Object(vec![
                ("p50".to_string(), quantile_ms(&latencies, 0.50).to_value()),
                ("p95".to_string(), quantile_ms(&latencies, 0.95).to_value()),
                ("p99".to_string(), quantile_ms(&latencies, 0.99).to_value()),
                ("mean".to_string(), (mean_latency * 1e3).to_value()),
                ("max".to_string(), quantile_ms(&latencies, 1.0).to_value()),
            ]),
        ),
        (
            "throughput_rps".to_string(),
            (total_requests as f64 / wall_seconds).to_value(),
        ),
    ]);
    let rendered = serde_json::to_string_pretty(&report).expect("report render");

    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{rendered}\n")) {
            eprintln!("ayb-load: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if !args.quiet {
        println!(
            "ayb-load: {total_requests} requests in {wall_seconds:.2}s ({:.0} rps), \
             dedup_hits={dedup_hits}, 5xx={server_errors}, transport_errors={transport_errors}",
            total_requests as f64 / wall_seconds
        );
        if args.out.is_none() {
            println!("{rendered}");
        }
    }

    if args.fail_on_5xx && (server_errors > 0 || transport_errors > 0) {
        eprintln!(
            "ayb-load: FAIL — {server_errors} server errors, {transport_errors} transport errors"
        );
        return ExitCode::FAILURE;
    }
    if args.require_dedup && dedup_hits == 0 {
        eprintln!("ayb-load: FAIL — expected at least one dedup hit, saw none");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
