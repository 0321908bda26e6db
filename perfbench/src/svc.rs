//! The `svc_mixed` workload: `ayb serve-http --workers 1` on a fresh store,
//! driven by two client threads.
//!
//! * The *exec stream* (closed loop) submits bursts of fresh reduced-scale
//!   seeds, polls each run until it completes, and fetches its result.
//! * The *cached stream* (open loop, fixed rate) resubmits seeds completed
//!   before the window opened and fetches their results, which must equal
//!   byte for byte the result each run served before the window. Each
//!   request is timed from when it was due, so a stall also charges the
//!   requests queued behind it.
//!
//! Every request is timed from before it is written until its response has
//! been read in full; the harness decodes the JSON body only after that, so
//! its own parsing never counts as service latency.

use crate::layers::{self, cli_flow, reference_digest, Layers};
use crate::pools::Pool;
use crate::proc::{dir_bytes, vm_hwm_kb, Server, TempDir};
use crate::report::Metric;
use crate::schedule::{account, cached_plan, CachedKind};
use crate::stats::quantile;
use crate::trace::Tracer;
use crate::workload::{pause, Ctx, Outcome, Tally, SETUP_STARTS};
use ayb_core::{FlowResult, FlowTimings};
use ayb_store::Store;
use ayb_svc::http::{self, Response};
use serde::{Deserialize, Value};
use std::fs;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Runs completed before the window opens; the cached stream targets them.
const WARMUP_RUNS: usize = 8;
/// Fresh runs the exec stream submits at once.
const BURST: usize = 4;
/// Send rate of the cached stream.
const CACHED_RATE_HZ: f64 = 10.0;
/// Status poll interval of the exec stream.
const POLL: Duration = Duration::from_millis(20);
/// A run not completed after this long counts as failed.
const RUN_TIMEOUT: Duration = Duration::from_secs(60);
/// Connect, read and write timeout of one request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking HTTP client of the service, one `connection: close` request
/// per connection (as `ayb_svc::SvcClient`), that hands back the raw
/// response so decoding it stays outside the timed part.
#[derive(Debug, Clone)]
struct Wire {
    authority: String,
}

/// One request's raw response and when it had been read in full.
#[derive(Debug)]
struct Exchange {
    response: Result<Response, String>,
    answered: Instant,
}

impl Wire {
    fn new(url: &str) -> Wire {
        let authority = url.strip_prefix("http://").unwrap_or(url);
        Wire {
            authority: authority.trim_end_matches('/').to_string(),
        }
    }

    fn send(&self, method: &str, path: &str, body: Option<&str>) -> Exchange {
        let response = self.round_trip(method, path, body);
        Exchange {
            response,
            answered: Instant::now(),
        }
    }

    fn round_trip(&self, method: &str, path: &str, body: Option<&str>) -> Result<Response, String> {
        let stream = TcpStream::connect(&self.authority)
            .map_err(|e| format!("connect {}: {e}", self.authority))?;
        stream
            .set_read_timeout(Some(REQUEST_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
            .map_err(|e| e.to_string())?;
        let headers = [
            ("host".to_string(), self.authority.clone()),
            ("connection".to_string(), "close".to_string()),
        ];
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        http::write_request(&mut writer, method, path, &headers, body)
            .map_err(|e| format!("send {method} {path}: {e}"))?;
        http::read_response(&mut BufReader::new(stream))
            .map_err(|e| format!("read {method} {path}: {e}"))
    }

    fn submit_seed(&self, seed: u64) -> Exchange {
        let body = format!("{{\"seed\": {seed}, \"scale\": \"reduced\"}}");
        self.send("POST", "/v1/runs", Some(&body))
    }

    fn run_status(&self, id: &str) -> Exchange {
        self.send("GET", &format!("/v1/runs/{id}"), None)
    }

    fn run_result(&self, id: &str) -> Exchange {
        self.send("GET", &format!("/v1/runs/{id}/result"), None)
    }
}

impl Exchange {
    /// `(status, body)`, the body parsed as JSON when it is JSON.
    fn decode(&self) -> Result<(u16, Value), String> {
        let response = self.response.as_ref().map_err(Clone::clone)?;
        let text = response.text();
        let json = response
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("application/json"));
        let body = if json {
            serde_json::from_str::<Value>(&text).unwrap_or(Value::Str(text))
        } else {
            Value::Str(text)
        };
        Ok((response.status, body))
    }
}

/// A run this workload submitted and saw admitted.
#[derive(Debug, Clone)]
struct Submitted {
    seed: u64,
    id: String,
    digest: String,
}

fn str_field<'a>(body: &'a Value, key: &str) -> Option<&'a str> {
    match body.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Whether a status code is a refusal (over quota or over capacity).
fn refused(status: u16) -> bool {
    matches!(status, 429 | 503)
}

/// One run of the exec stream, in seconds after the window opened.
#[derive(Debug, Clone, Copy)]
struct ExecRun {
    submitted: f64,
    running: Option<f64>,
    completed: Option<f64>,
    first_of_burst: bool,
    flow_wall: Option<f64>,
}

/// Counters both streams keep besides their spans.
#[derive(Debug, Default)]
struct Counts {
    requests: u64,
    refused: u64,
}

impl Counts {
    fn saw(&mut self, status: u16) {
        self.requests += 1;
        self.refused += u64::from(refused(status));
    }
}

/// Starts the server; returns the seconds until it printed its URL (store
/// open, bound and accepting), once it has also answered a request.
fn start_server(ctx: &Ctx, store: &Path) -> Result<(f64, Server), String> {
    pause();
    let start = Instant::now();
    let server = Server::spawn(
        ctx.ayb(&[
            "serve-http",
            "--store",
            &store.to_string_lossy(),
            "--bind",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--quiet",
        ]),
        "service: ",
    )?;
    let ready = start.elapsed().as_secs_f64();
    match Wire::new(&server.url)
        .send("GET", "/v1/metrics", None)
        .response
    {
        Ok(response) if response.status == 200 => Ok((ready, server)),
        other => Err(format!("service did not answer: {other:?}")),
    }
}

/// Submits `seed` and expects a fresh admission (201).
fn submit_fresh(
    wire: &Wire,
    tracer: &Tracer,
    counts: &mut Counts,
    tally: &mut Tally,
    seed: u64,
) -> Option<Submitted> {
    let answer = tracer
        .span("svc.submit_fresh", None, || wire.submit_seed(seed))
        .decode();
    if let Ok((status, _)) = &answer {
        counts.saw(*status);
    }
    let admitted = match &answer {
        Ok((201, body)) => match (str_field(body, "run_id"), str_field(body, "digest")) {
            (Some(id), Some(digest)) => Some(Submitted {
                seed,
                id: id.to_string(),
                digest: digest.to_string(),
            }),
            _ => None,
        },
        _ => None,
    };
    tally.check(admitted.is_some(), || {
        format!("fresh submit of seed {seed}: {answer:?}")
    });
    admitted
}

/// Polls `run` until it completes; returns when it was first seen running
/// and when completed, as `Instant`s.
fn await_run(
    wire: &Wire,
    tracer: &Tracer,
    counts: &mut Counts,
    tally: &mut Tally,
    run: &Submitted,
) -> (Option<Instant>, Option<Instant>) {
    let start = Instant::now();
    let mut running = None;
    loop {
        let exchange = tracer.span("svc.status", None, || wire.run_status(&run.id));
        let now = exchange.answered;
        let answer = exchange.decode();
        let status = match &answer {
            Ok((code, body)) => {
                counts.saw(*code);
                str_field(body, "status").unwrap_or("").to_string()
            }
            Err(_) => String::new(),
        };
        match status.as_str() {
            "running" => {
                running.get_or_insert(now);
            }
            "completed" => {
                tally.check(true, String::new);
                return (running, Some(now));
            }
            "queued" => {}
            other => {
                tally.check(false, || format!("run {} reached status `{other}`", run.id));
                return (running, None);
            }
        }
        if start.elapsed() > RUN_TIMEOUT {
            tally.check(false, || format!("run {} did not complete in time", run.id));
            return (running, None);
        }
        std::thread::sleep(POLL);
    }
}

/// `GET /v1/runs/{id}/result`, timed as `svc.result`.
fn fetch_result(wire: &Wire, tracer: &Tracer, id: &str) -> Exchange {
    tracer.span("svc.result", None, || wire.run_result(id))
}

/// Checks a result answer; the run's own flow wall time when it answered
/// 200 with timings.
fn result_wall(
    exchange: &Exchange,
    counts: &mut Counts,
    tally: &mut Tally,
    id: &str,
) -> Option<f64> {
    let answer = exchange.decode();
    if let Ok((status, _)) = &answer {
        counts.saw(*status);
    }
    let wall = match &answer {
        Ok((200, body)) => body
            .get("timings")
            .and_then(|t| FlowTimings::from_value(t).ok())
            .map(|t| t.total().as_secs_f64()),
        _ => None,
    };
    tally.check(wall.is_some(), || {
        format!("result of {id}: {:?}", answer.as_ref().map(|a| a.0))
    });
    wall
}

/// What one measurement window observed.
struct WindowLog {
    exec: Vec<ExecRun>,
    exec_seconds: f64,
    cached_latency: Vec<f64>,
    cached_late: Vec<f64>,
    resubmits: u64,
    cache_answers: u64,
    counts: Counts,
    tally: Tally,
}

/// Runs both streams for `ctx.seconds` against `url`; `served[i]` is the
/// result body `warm[i]` answered before the window. The exec stream walks
/// the pool forward from its start, so two windows of one benchmark seed
/// submit the same runs.
fn window(
    ctx: &Ctx,
    url: &str,
    (warm, served): (&[Submitted], &[Vec<u8>]),
    tracer: &Tracer,
    pool: &Pool,
) -> WindowLog {
    let wire = Wire::new(url);
    let origin = Instant::now();
    let at = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
    let (exec, cached) = std::thread::scope(|scope| {
        let exec = scope.spawn(|| {
            let mut counts = Counts::default();
            let mut tally = Tally::default();
            let mut runs = Vec::new();
            let mut next = 0;
            while origin.elapsed().as_secs_f64() < ctx.seconds {
                let mut burst = Vec::new();
                for _ in 0..BURST {
                    let seed = pool.forward(next);
                    next += 1;
                    let submitted = Instant::now();
                    if let Some(run) = submit_fresh(&wire, tracer, &mut counts, &mut tally, seed) {
                        burst.push((run, submitted));
                    }
                }
                let mut first = true;
                for (run, submitted) in &burst {
                    let (running, completed) =
                        await_run(&wire, tracer, &mut counts, &mut tally, run);
                    runs.push(ExecRun {
                        submitted: at(*submitted),
                        running: running.map(at),
                        completed: completed.map(at),
                        first_of_burst: std::mem::take(&mut first),
                        flow_wall: None,
                    });
                }
                let fetched = runs.len() - burst.len();
                for ((run, _), exec) in burst.iter().zip(&mut runs[fetched..]) {
                    if exec.completed.is_some() {
                        let exchange = fetch_result(&wire, tracer, &run.id);
                        exec.flow_wall = result_wall(&exchange, &mut counts, &mut tally, &run.id);
                    }
                }
            }
            (runs, origin.elapsed().as_secs_f64(), counts, tally)
        });
        let cached = scope.spawn(|| {
            let mut counts = Counts::default();
            let mut tally = Tally::default();
            let mut latency = Vec::new();
            let mut late = Vec::new();
            let (mut resubmits, mut cache_answers) = (0u64, 0u64);
            for op in cached_plan(ctx.seed, CACHED_RATE_HZ, ctx.seconds, warm.len()) {
                let due = Duration::from_secs_f64(op.due);
                if let Some(wait) = due.checked_sub(origin.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = at(Instant::now());
                let target = &warm[op.target];
                let exchange = match op.kind {
                    CachedKind::Resubmit => {
                        tracer.span("svc.submit_cached", None, || wire.submit_seed(target.seed))
                    }
                    CachedKind::Result => fetch_result(&wire, tracer, &target.id),
                };
                let sample = account(op.due, sent, at(exchange.answered));
                latency.push(sample.latency * 1e3);
                late.push(sample.late * 1e3);
                match op.kind {
                    CachedKind::Resubmit => {
                        resubmits += 1;
                        let answer = exchange.decode();
                        let from_cache = matches!(&answer, Ok((200, body))
                            if body.get("served_from_cache") == Some(&Value::Bool(true)));
                        cache_answers += u64::from(from_cache);
                        let ok = matches!(&answer, Ok((200, body))
                            if str_field(body, "run_id") == Some(target.id.as_str())
                                && str_field(body, "digest") == Some(target.digest.as_str()));
                        if let Ok((status, _)) = &answer {
                            counts.saw(*status);
                        }
                        tally.check(ok, || {
                            format!("cached answer for seed {}: {answer:?}", target.seed)
                        });
                    }
                    CachedKind::Result => {
                        let answer = exchange.response.as_ref().ok();
                        if let Some(response) = answer {
                            counts.saw(response.status);
                        }
                        let ok =
                            answer.is_some_and(|r| r.status == 200 && r.body == served[op.target]);
                        tally.check(ok, || {
                            format!("result of {} differs from its first answer", target.id)
                        });
                    }
                }
            }
            (latency, late, resubmits, cache_answers, counts, tally)
        });
        (
            exec.join().expect("exec stream"),
            cached.join().expect("cached stream"),
        )
    });
    let (runs, exec_seconds, exec_counts, mut tally) = exec;
    let (cached_latency, cached_late, resubmits, cache_answers, cached_counts, cached_tally) =
        cached;
    tally.absorb(cached_tally);
    WindowLog {
        exec: runs,
        exec_seconds,
        cached_latency,
        cached_late,
        resubmits,
        cache_answers,
        counts: Counts {
            requests: exec_counts.requests + cached_counts.requests,
            refused: exec_counts.refused + cached_counts.refused,
        },
        tally,
    }
}

impl WindowLog {
    fn exec_latency(&self) -> Vec<f64> {
        self.exec
            .iter()
            .filter_map(|r| Some(r.completed? - r.submitted))
            .collect()
    }

    fn completed(&self) -> usize {
        self.exec.iter().filter(|r| r.completed.is_some()).count()
    }

    /// Wall seconds per executed run.
    fn seconds_per_run(&self) -> f64 {
        self.exec_seconds / self.completed().max(1) as f64
    }
}

/// Lines in every run's `events.jsonl`, per run directory.
fn events_per_run(store: &Path) -> f64 {
    let Ok(entries) = fs::read_dir(store.join("runs")) else {
        return 0.0;
    };
    let counts: Vec<usize> = entries
        .flatten()
        .map(|e| fs::read_to_string(e.path().join("events.jsonl")).map_or(0, |t| t.lines().count()))
        .collect();
    counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64
}

/// One service lifetime: start(s), warm-up, one window, checks.
struct Session {
    setup: Vec<f64>,
    warm: Vec<Submitted>,
    log: WindowLog,
    peak_rss_kb: u64,
    store_bytes: u64,
    events_per_run: f64,
    tally: Tally,
}

/// Starts the service on a fresh store and records the set-up time.
fn start_once(ctx: &Ctx, setup: &mut Vec<f64>, tally: &mut Tally) -> Option<(Server, TempDir)> {
    let dir = TempDir::new("svc");
    let started = start_server(ctx, &dir.join("store"));
    tally.check(started.is_ok(), || {
        format!("service: {:?}", started.as_ref().err())
    });
    let (seconds, server) = started.ok()?;
    setup.push(seconds);
    // Field order drops the server before its store.
    Some((server, dir))
}

/// Starts the service `starts.0` times on fresh stores (the last one stays
/// up), completes the warm-up runs, runs one window, checks what the cached
/// stream was served, then measures `starts.1` more starts.
fn session(ctx: &Ctx, pool: &Pool, tracer: &Tracer, starts: (usize, usize)) -> Session {
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..starts.0 {
        // The previous service stops before the next one starts.
        drop(server.take());
        server = start_once(ctx, &mut setup, &mut tally);
    }
    let (server, dir) = server.expect("no service could be started");
    let wire = Wire::new(&server.url);

    // Warm-up: complete the runs the cached stream will target.
    let mut counts = Counts::default();
    let warm: Vec<Submitted> = (0..WARMUP_RUNS)
        .filter_map(|i| {
            submit_fresh(
                &wire,
                &Tracer::new(),
                &mut counts,
                &mut tally,
                pool.backward(i),
            )
        })
        .collect();
    for run in &warm {
        await_run(&wire, &Tracer::new(), &mut counts, &mut tally, run);
    }
    assert!(!warm.is_empty(), "no warm-up run was admitted");
    let exchanges: Vec<Exchange> = warm.iter().map(|run| wire.run_result(&run.id)).collect();
    let served: Vec<Vec<u8>> = exchanges
        .iter()
        .map(|e| match &e.response {
            Ok(response) if response.status == 200 => response.body.clone(),
            _ => Vec::new(),
        })
        .collect();

    let mut log = window(ctx, &server.url, (&warm, &served), tracer, pool);
    tally.absorb(std::mem::take(&mut log.tally));
    let peak_rss_kb = vm_hwm_kb(server.pid()).unwrap_or(0);

    // The results the cached stream was served must digest like the
    // unsharded in-memory reference of each seed.
    for (run, exchange) in warm.iter().zip(&exchanges) {
        let result = exchange.decode().ok().and_then(|(status, body)| {
            (status == 200)
                .then(|| FlowResult::from_value(&body).ok())
                .flatten()
        });
        let reference = reference_digest("reduced", run.seed);
        let ok = matches!((&result, &reference), (Some(r), Ok(d)) if r.determinism_digest() == *d);
        tally.check(ok, || {
            format!(
                "served result of seed {} does not match its reference",
                run.seed
            )
        });
    }
    drop(server);
    for _ in 0..starts.1 {
        start_once(ctx, &mut setup, &mut tally);
    }
    let store = dir.join("store");
    Session {
        setup,
        warm,
        peak_rss_kb,
        store_bytes: dir_bytes(&store),
        events_per_run: events_per_run(&store),
        log,
        tally,
    }
}

/// Runs the workload; with `trace`, a second session on a fresh service
/// with the same inputs is traced, and the layer probes follow.
pub fn run(ctx: &Ctx, trace: bool) -> Outcome {
    let pool = Pool::reduced(ctx.seed);
    let Session {
        setup,
        warm,
        log,
        peak_rss_kb,
        store_bytes,
        events_per_run: _,
        mut tally,
    } = session(ctx, &pool, &Tracer::new(), SETUP_STARTS);

    let exec_latency = log.exec_latency();
    let walls: Vec<f64> = log.exec.iter().filter_map(|r| r.flow_wall).collect();
    let executed = log.completed() + warm.len();
    let end_to_end = vec![
        Metric::quantile("setup_s", "s", quantile(&setup, 0.5)),
        Metric::quantile("flow_wall_s", "s", quantile(&walls, 0.5)),
        Metric::value("store_mb", "MB", store_bytes as f64 / 1e6 / executed as f64),
        Metric::value("peak_rss_mb", "MB", peak_rss_kb as f64 / 1024.0),
        Metric::value("ok_ratio", "ratio", tally.ok_ratio()),
        Metric::quantile("exec_latency_p50_s", "s", quantile(&exec_latency, 0.5)),
        Metric::quantile("exec_latency_p90_s", "s", quantile(&exec_latency, 0.9)),
        Metric::value(
            "exec_runs_per_s",
            "1/s",
            log.completed() as f64 / log.exec_seconds,
        ),
        Metric::quantile(
            "cached_latency_p50_ms",
            "ms",
            quantile(&log.cached_latency, 0.5),
        ),
        Metric::quantile(
            "cached_latency_p95_ms",
            "ms",
            quantile(&log.cached_latency, 0.95),
        ),
    ];

    let layers = trace.then(|| {
        let tracer = Tracer::new();
        let mut traced = session(ctx, &pool, &tracer, (1, 0));
        let mut layers = svc_layers(&tracer, &traced.log);
        flow_layers(&mut layers, &traced.warm, &mut tally);
        // The service's own runs, not the in-process ones, give events per run.
        layers.set("obs.events_per_run", traced.events_per_run);
        layers.set(
            "trace.overhead_ratio",
            traced.log.seconds_per_run() / log.seconds_per_run(),
        );
        tally.absorb(std::mem::take(&mut traced.tally));
        layers
    });
    Outcome {
        end_to_end,
        layers,
        tally,
    }
}

/// `svc.*`, `jobs.*` and `load.*` from a traced window.
fn svc_layers(tracer: &Tracer, log: &WindowLog) -> Layers {
    let mut layers = Layers::default();
    let ms = |name: &str| -> Vec<f64> { tracer.durations(name).iter().map(|s| s * 1e3).collect() };
    layers.set_quantile("svc.submit_fresh_ms_p50", &ms("svc.submit_fresh"), 0.5);
    layers.set_quantile("svc.submit_cached_ms_p50", &ms("svc.submit_cached"), 0.5);
    layers.set_quantile("svc.status_ms_p50", &ms("svc.status"), 0.5);
    layers.set_quantile("svc.result_ms_p50", &ms("svc.result"), 0.5);
    layers.set(
        "svc.cache_answer_ratio",
        log.cache_answers as f64 / log.resubmits.max(1) as f64,
    );
    layers.set(
        "svc.rejected_ratio",
        log.counts.refused as f64 / log.counts.requests.max(1) as f64,
    );
    let queue_wait: Vec<f64> = log
        .exec
        .iter()
        .filter_map(|r| Some(r.running? - r.submitted))
        .collect();
    let idle: Vec<f64> = log
        .exec
        .iter()
        .filter(|r| r.first_of_burst)
        .filter_map(|r| Some((r.running? - r.submitted) * 1e3))
        .collect();
    let exec: Vec<f64> = log
        .exec
        .iter()
        .filter_map(|r| Some(r.completed? - r.running?))
        .collect();
    layers.set_quantile("jobs.queue_wait_s_p50", &queue_wait, 0.5);
    layers.set_quantile("jobs.dispatch_idle_ms_p50", &idle, 0.5);
    layers.set_quantile("jobs.exec_s_p50", &exec, 0.5);
    layers.set_quantile("load.gen_late_ms_p99", &log.cached_late, 0.99);
    layers
}

/// `core.*`, `moo.*`, `sim.*`, `process.*` and `store.*` from in-process
/// traced runs of the warm-up seeds (the work one service run does).
fn flow_layers(layers: &mut Layers, warm: &[Submitted], tally: &mut Tally) {
    let tracer = Tracer::new();
    let dir = TempDir::new("svc-traced");
    let store = Store::open(dir.join("store")).expect("open traced store");
    let mut flows = Vec::new();
    let mut last = None;
    for (index, run) in warm.iter().enumerate() {
        let (config, optimizer) = cli_flow("reduced", run.seed, None);
        let outcome = layers::traced_flow(
            &tracer,
            &store,
            &format!("traced-{index}"),
            &config,
            &optimizer,
        );
        let reference = reference_digest("reduced", run.seed);
        let ok =
            matches!((&outcome, &reference), (Ok(t), Ok(r)) if t.result.determinism_digest() == *r);
        tally.check(ok, || format!("traced flow of seed {} diverged", run.seed));
        if let Ok(flow) = outcome {
            flows.push(flow);
            last = Some((config, optimizer));
        }
    }
    layers::record_flows(layers, &tracer, &flows);
    if let (Some(flow), Some((config, optimizer))) = (flows.last(), &last) {
        let probed = layers::probe_all(layers, &tracer, &store, config, optimizer, &flow.result);
        tally.check(matches!(probed, Ok(0)), || {
            format!("layer probes disagree with the flow: {probed:?}")
        });
    }
}
