//! The CLI workloads: `paper_durable` (one `ayb run --scale paper` on a
//! fresh store) and `demo_sharded_tcp` (back-to-back `ayb run --scale demo
//! --transport tcp://…` against a coordinator the benchmark hosts, with no
//! workers, so each flow services its own shards over the wire).

use crate::layers::{self, cli_flow, reference_digest, Layers, THREADS};
use crate::proc::{dir_bytes, run_to_exit, Server, TempDir};
use crate::report::Metric;
use crate::schedule::flow_seed;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workload::{pause, Ctx, Outcome, Tally, SETUP_STARTS};
use ayb_net::TcpTransport;
use ayb_store::Store;
use std::time::Instant;

/// `ayb list` calls made on the measured store after the flows, one per
/// [`crate::workload::pause`].
const CACHED_READS: usize = 200;
/// Round trips of the traced run's wire probe.
const NET_PROBES: usize = 200;

/// One CLI workload.
#[derive(Debug, Clone, Copy)]
pub struct CliWorkload {
    /// `--scale` of every flow.
    pub scale: &'static str,
    /// Whether flows shard over a benchmark-hosted coordinator.
    pub sharded: bool,
    /// A seed every flow runs with instead of ones derived from the
    /// benchmark seed.
    pub fixed_seed: Option<u64>,
}

/// One executed `ayb run`.
struct FlowRun {
    seed: u64,
    wall: f64,
    rss_kb: u64,
    /// The digest it printed, when it completed.
    digest: Option<u64>,
}

/// Starts `ayb coordinate`; returns the seconds until it printed its URL
/// (bound and accepting), once it has also answered a request.
fn start_coordinator(ctx: &Ctx) -> Result<(f64, Server), String> {
    pause();
    let start = Instant::now();
    let server = Server::spawn(
        ctx.ayb(&["coordinate", "--bind", "127.0.0.1:0", "--quiet"]),
        "coordinator: ",
    )?;
    let ready = start.elapsed().as_secs_f64();
    TcpTransport::from_url(&server.url)?
        .coordinator_stats()
        .map_err(|e| format!("coordinator did not answer: {e:?}"))?;
    Ok((ready, server))
}

/// `ayb list` on `store`: the CLI starting and answering from stored run
/// state without executing anything.
fn list_store(ctx: &Ctx, store: &str, tally: &mut Tally) -> Option<f64> {
    pause();
    let exit = run_to_exit(ctx.ayb(&["list", "--store", store]));
    let ok = exit.as_ref().is_ok_and(|e| e.success());
    tally.check(ok, || {
        format!("`ayb list --store {store}` failed: {exit:?}")
    });
    exit.ok().filter(|e| e.success()).map(|e| e.wall)
}

/// Starts the workload's system once and records the set-up time: a
/// coordinator (returned, still running) or `ayb list` on a fresh store.
fn start_once(
    ctx: &Ctx,
    workload: CliWorkload,
    setup: &mut Vec<f64>,
    tally: &mut Tally,
) -> Option<Server> {
    if workload.sharded {
        let started = start_coordinator(ctx);
        tally.check(started.is_ok(), || {
            format!("coordinator: {:?}", started.as_ref().err())
        });
        let (seconds, server) = started.ok()?;
        setup.push(seconds);
        Some(server)
    } else {
        let dir = TempDir::new("setup");
        setup.extend(list_store(ctx, &dir.join("store").to_string_lossy(), tally));
        None
    }
}

/// Runs `ayb run` flows back to back on `store`: at least one, more while
/// another fits in `ctx.seconds`.
fn run_flows(ctx: &Ctx, workload: CliWorkload, store: &str, url: Option<&str>) -> Vec<FlowRun> {
    let threads = THREADS.to_string();
    let mut flows: Vec<FlowRun> = Vec::new();
    let window = Instant::now();
    loop {
        let index = flows.len() as u64;
        let seed = workload
            .fixed_seed
            .unwrap_or_else(|| flow_seed(ctx.seed, index));
        let (id, seed_arg) = (format!("run-{index}"), seed.to_string());
        let mut args = vec![
            "run",
            "--store",
            store,
            "--id",
            &id,
            "--scale",
            workload.scale,
            "--threads",
            &threads,
            "--seed",
            &seed_arg,
            "--quiet",
        ];
        if let Some(url) = url {
            args.extend(["--transport", url]);
        }
        let exit = run_to_exit(ctx.ayb(&args)).unwrap_or_else(|e| panic!("cannot run ayb: {e}"));
        flows.push(FlowRun {
            seed,
            wall: exit.wall,
            rss_kb: exit.max_rss_kb,
            digest: Some(&exit)
                .filter(|e| e.success())
                .and_then(|e| e.field("digest"))
                .and_then(|d| u64::from_str_radix(d, 16).ok()),
        });
        if window.elapsed().as_secs_f64() + exit.wall > ctx.seconds {
            return flows;
        }
    }
}

/// Runs the workload; with `trace`, also the traced in-process flows and
/// layer probes.
pub fn run(ctx: &Ctx, workload: CliWorkload, trace: bool) -> Outcome {
    let mut tally = Tally::default();

    // Set-up: a coordinator ready, or the CLI having opened a fresh store.
    // The last coordinator started before the window serves the flows.
    let mut setup = Vec::new();
    let mut coordinator = None;
    for _ in 0..SETUP_STARTS.0 {
        // The previous coordinator stops before the next one starts.
        drop(coordinator.take());
        coordinator = start_once(ctx, workload, &mut setup, &mut tally);
    }
    let url = coordinator.as_ref().map(|c| c.url.clone());
    if workload.sharded && url.is_none() {
        panic!("no coordinator could be started");
    }

    let dir = TempDir::new(workload.scale);
    let store = dir.join("store").to_string_lossy().into_owned();
    let window = Instant::now();
    let flows = run_flows(ctx, workload, &store, url.as_deref());
    let window_seconds = window.elapsed().as_secs_f64();

    // Completed-run reads: the CLI answering from stored state without
    // executing anything.
    let cached: Vec<f64> = (0..CACHED_READS)
        .filter_map(|_| list_store(ctx, &store, &mut tally))
        .map(|s| s * 1e3)
        .collect();
    let store_bytes = dir_bytes(dir.path());
    for _ in 0..SETUP_STARTS.1 {
        start_once(ctx, workload, &mut setup, &mut tally);
    }

    // Correctness: every digest equals the unsharded in-memory reference.
    let mut expected = Vec::new();
    for flow in &flows {
        let reference = reference_digest(workload.scale, flow.seed);
        let ok = matches!((flow.digest, &reference), (Some(d), Ok(r)) if d == *r);
        tally.check(ok, || {
            format!(
                "seed {}: digest {:?} vs reference {:?}",
                flow.seed,
                flow.digest.map(|d| format!("{d:016x}")),
                reference.as_ref().map(|r| format!("{r:016x}"))
            )
        });
        expected.push(reference.ok());
    }

    let walls: Vec<f64> = flows.iter().map(|f| f.wall).collect();
    let peak_rss_kb = flows.iter().map(|f| f.rss_kb).max().unwrap_or(0);
    let end_to_end = vec![
        Metric::quantile("setup_s", "s", quantile(&setup, 0.5)),
        Metric::quantile("flow_wall_s", "s", quantile(&walls, 0.5)),
        Metric::value(
            "store_mb",
            "MB",
            store_bytes as f64 / 1e6 / flows.len() as f64,
        ),
        Metric::value("peak_rss_mb", "MB", peak_rss_kb as f64 / 1024.0),
        Metric::value("ok_ratio", "ratio", tally.ok_ratio()),
        Metric::quantile("exec_latency_p50_s", "s", quantile(&walls, 0.5)),
        Metric::quantile("exec_latency_p90_s", "s", quantile(&walls, 0.9)),
        Metric::value(
            "exec_runs_per_s",
            "1/s",
            flows.len() as f64 / window_seconds,
        ),
        Metric::quantile("cached_latency_p50_ms", "ms", quantile(&cached, 0.5)),
        Metric::quantile("cached_latency_p95_ms", "ms", quantile(&cached, 0.95)),
    ];

    let layers = trace.then(|| traced(workload, url.as_deref(), &flows, &expected, &mut tally));
    drop(coordinator);
    Outcome {
        end_to_end,
        layers,
        tally,
    }
}

/// The traced phase: the same seeds as in-process durable flows with stage
/// spans, then the layer probes.
fn traced(
    workload: CliWorkload,
    url: Option<&str>,
    flows: &[FlowRun],
    expected: &[Option<u64>],
    tally: &mut Tally,
) -> Layers {
    let tracer = Tracer::new();
    let mut layers = Layers::default();
    let dir = TempDir::new("traced");
    let store = Store::open(dir.join("store")).expect("open traced store");
    let mut traced = Vec::new();
    let mut last_setup = None;
    for (index, (flow, expected)) in flows.iter().zip(expected).enumerate() {
        let (config, optimizer) = cli_flow(workload.scale, flow.seed, url);
        let outcome = layers::traced_flow(
            &tracer,
            &store,
            &format!("traced-{index}"),
            &config,
            &optimizer,
        );
        let ok =
            matches!((&outcome, expected), (Ok(t), Some(r)) if t.result.determinism_digest() == *r);
        tally.check(ok, || {
            format!("traced flow seed {} diverged from its reference", flow.seed)
        });
        if let Ok(t) = outcome {
            traced.push(t);
            last_setup = Some((config, optimizer));
        }
    }
    layers::record_flows(&mut layers, &tracer, &traced);
    if let (Some(flow), Some((config, optimizer))) = (traced.last(), &last_setup) {
        let probed = layers::probe_all(
            &mut layers,
            &tracer,
            &store,
            config,
            optimizer,
            &flow.result,
        );
        tally.check(matches!(probed, Ok(0)), || {
            format!("layer probes disagree with the flow: {probed:?}")
        });
    }
    if let Some(url) = url {
        let transport = TcpTransport::from_url(url).expect("validated url");
        let mut round_trips = Vec::new();
        for _ in 0..NET_PROBES {
            let start = Instant::now();
            let ok = transport.coordinator_stats().is_ok();
            tally.check(ok, || "coordinator stats probe failed".to_string());
            if ok {
                round_trips.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        layers.set_quantile("net.roundtrip_ms_p50", &round_trips, 0.5);
    }
    let untraced = median(&flows.iter().map(|f| f.wall).collect::<Vec<_>>()).unwrap_or(0.0);
    let traced_wall = median(&traced.iter().map(|t| t.wall).collect::<Vec<_>>()).unwrap_or(0.0);
    if untraced > 0.0 {
        layers.set("trace.overhead_ratio", traced_wall / untraced);
    }
    layers
}
