//! Integration tests for sharded multi-process execution: a flow run with
//! `sharded` evaluation produces a `determinism_digest` bit-identical to the
//! single-process run — alone against a coordinator, through a drain job
//! server hosting its own coordinator, through the coordinator a serving
//! job server advertises in the store (which peer servers on the store
//! join, and take over when its host exits), and across multiple
//! `ayb serve --shards-only` worker *processes*, including after one of
//! those workers is SIGKILLed mid-run and its shard claims are stolen. The
//! same holds for the sharded Monte Carlo variation stage, and a flow
//! interrupted mid-variation resumes from its per-point checkpoints without
//! re-analysing completed points. Every test that shards asserts
//! `shard_requests > 0`, so the work provably crossed the wire; a sharded
//! flow that finds no coordinator evaluates in-process and says so once.

use ayb_core::{
    AybError, FlowBuilder, FlowConfig, FlowObserver, FlowResult, FlowStage, TransportReport,
    VariationBoundary, VariationHaltHook,
};
use ayb_jobs::{JobServer, JobServerConfig};
use ayb_moo::CheckpointError;
use ayb_net::{Coordinator, CoordinatorConfig};
use ayb_store::{Manifest, RunStatus, Store};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_store(label: &str) -> (PathBuf, Store) {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "ayb-sharded-test-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let store = Store::open(&root).expect("store opens");
    (root, store)
}

/// The trimmed reduced-scale configuration the other integration tests use
/// (full five-stage flow, seconds of wall clock), without sharding.
fn small_config() -> FlowConfig {
    let mut config = FlowConfig::reduced();
    config.sweep = ayb_sim::FrequencySweep::logarithmic(10.0, 1e9, 4);
    config.monte_carlo.samples = 10;
    config.max_pareto_points = 8;
    config
}

/// The same configuration with sharded evaluation on (3-candidate shards, so
/// every 14-candidate generation spans 5 shards).
fn sharded_config() -> FlowConfig {
    let mut config = small_config();
    config.sharded = true;
    config.shard_size = 3;
    config
}

/// The sharded configuration pointed at a coordinator.
fn tcp_config(url: &str) -> FlowConfig {
    let mut config = sharded_config();
    config.transport = Some(url.to_string());
    config
}

/// A coordinator on an ephemeral loopback port. Workers heartbeat their
/// claims every second, so a claim two seconds stale belongs to a dead (or
/// SIGKILLed) worker and is stolen at the submitter's next recovery pass.
fn coordinator() -> Coordinator {
    Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            stale_after: Duration::from_secs(2),
        },
    )
    .expect("coordinator binds an ephemeral port")
}

fn transport_report(store: &Store, run_id: &str) -> TransportReport {
    use serde::Deserialize;
    let value = store
        .run(run_id)
        .unwrap()
        .transport_report_value()
        .unwrap()
        .expect("a sharded run persists its transport report");
    TransportReport::from_value(&value).expect("transport report parses")
}

/// Sequential, store-less, unsharded reference digest for a seed.
fn reference_digest(seed: u64) -> u64 {
    FlowBuilder::new(small_config())
        .with_seed(seed)
        .run()
        .expect("reference flow completes")
        .determinism_digest()
}

fn stored_digest(store: &Store, run_id: &str) -> u64 {
    let result: FlowResult = store
        .run(run_id)
        .expect("run exists")
        .load_result()
        .expect("result loads");
    result.determinism_digest()
}

#[test]
fn single_process_sharded_run_digests_identically_to_unsharded() {
    let (root, store) = temp_store("solo");
    let expected = reference_digest(41);
    let coordinator = coordinator();

    // No workers anywhere: the submitting flow itself claims and evaluates
    // every shard it publishes.
    let result = FlowBuilder::new(tcp_config(&coordinator.url()))
        .with_seed(41)
        .with_store(&store)
        .with_run_id("sharded-solo")
        .run()
        .expect("sharded flow completes without any workers");
    assert_eq!(
        result.determinism_digest(),
        expected,
        "sharding must not change the result"
    );
    assert!(
        result.timings.shard_requests > 0,
        "the shards crossed the wire"
    );

    let handle = store.run("sharded-solo").unwrap();
    assert_eq!(handle.status().unwrap(), RunStatus::Completed);
    assert_eq!(handle.claim().unwrap(), None, "claim released");
    assert_eq!(
        coordinator.stats().epochs,
        0,
        "every shard epoch was disposed after assembly"
    );
    assert_eq!(stored_digest(&store, "sharded-solo"), expected);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn builder_flags_enable_sharding_without_touching_the_config() {
    let (root, store) = temp_store("flags");
    let expected = reference_digest(43);
    let coordinator = coordinator();
    // `.sharded(true)` / `.shard_size(3)` on a plain config are equivalent
    // to pre-setting the FlowConfig fields, and `.with_coordinator` routes
    // the shards without recording the coordinator in the manifest.
    let result = FlowBuilder::new(small_config())
        .with_seed(43)
        .with_store(&store)
        .with_run_id("flags")
        .sharded(true)
        .shard_size(3)
        .with_coordinator(coordinator.url())
        .run()
        .expect("sharded flow completes");
    assert_eq!(result.determinism_digest(), expected);
    assert!(
        result.timings.shard_requests > 0,
        "the shards crossed the wire"
    );
    let manifest: Manifest<FlowConfig> = store.run("flags").unwrap().manifest().unwrap();
    assert!(manifest.flow.sharded);
    assert_eq!(
        manifest.flow.transport, None,
        "the manifest keeps the config"
    );
    assert_eq!(
        transport_report(&store, "flags").transport,
        coordinator.url()
    );
    let _ = std::fs::remove_dir_all(root);
}

/// Counts `on_transport_degraded` notices.
struct Degradations(Arc<AtomicUsize>);

impl FlowObserver for Degradations {
    fn on_transport_degraded(&mut self, _stage: FlowStage, _shard: usize, _detail: &str) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// A sharded flow with no coordinator to use — none advertised, an
/// advertisement whose server died without withdrawing it, or a malformed
/// `transport` in a hand-edited config — evaluates in-process with the
/// unsharded digest and reports that exactly once.
#[test]
fn sharded_run_without_a_coordinator_evaluates_in_process_with_one_notice() {
    let (root, store) = temp_store("nocoord");
    let expected = reference_digest(44);
    let dead = coordinator().url(); // bound, then dropped: nothing answers
    let cases = [
        (None, sharded_config()),
        (Some(dead.as_str()), sharded_config()),
        (Some(dead.as_str()), tcp_config("udp://127.0.0.1:1")),
    ];
    for (index, (advertised, config)) in cases.into_iter().enumerate() {
        if let Some(url) = advertised {
            store.advertise_coordinator(url).unwrap();
        }
        let notices = Arc::new(AtomicUsize::new(0));
        let run_id = format!("nocoord-{index}");
        let result = FlowBuilder::new(config)
            .with_seed(44)
            .with_store(&store)
            .with_run_id(&run_id)
            .with_observer(Degradations(Arc::clone(&notices)))
            .run()
            .expect("the flow completes in-process");
        assert_eq!(result.determinism_digest(), expected);
        assert_eq!(result.timings.shard_requests, 0);
        assert_eq!(
            notices.load(Ordering::SeqCst),
            1,
            "one notice, not one per shard"
        );
        let report = transport_report(&store, &run_id);
        assert_eq!(report.transport, "in-process");
        assert_eq!(report.incidents.len(), 1);
    }
    let _ = std::fs::remove_dir_all(root);
}

/// The serving lifecycle: a job server hosts a coordinator and advertises
/// it in the store while it runs; a standalone sharded flow on the same
/// store finds it there and its shards cross the wire; shutdown withdraws
/// the advertisement.
#[test]
fn serving_job_server_advertises_its_coordinator_until_shutdown() {
    let (root, store) = temp_store("advert");
    let expected = reference_digest(45);
    let server = JobServer::new(store.clone(), JobServerConfig::shards_only_with_workers(2));
    let shutdown = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.run().expect("server runs"));

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let url = loop {
        if let Some(url) = store.advertised_coordinator() {
            break url;
        }
        assert!(std::time::Instant::now() < deadline, "never advertised");
        std::thread::sleep(Duration::from_millis(10));
    };
    let result = FlowBuilder::new(sharded_config())
        .with_seed(45)
        .with_store(&store)
        .with_run_id("advert")
        .run()
        .expect("the sharded flow completes");
    assert_eq!(result.determinism_digest(), expected);
    assert!(
        result.timings.shard_requests > 0,
        "the shards crossed the wire"
    );
    assert_eq!(transport_report(&store, "advert").transport, url);

    shutdown.shutdown();
    serving.join().expect("server thread joins");
    assert_eq!(
        store.advertised_coordinator(),
        None,
        "withdrawn at shutdown"
    );
    let _ = std::fs::remove_dir_all(root);
}

/// Waits until the store advertises a coordinator other than `previous`.
fn await_advertisement(store: &Store, previous: Option<&str>) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match store.advertised_coordinator() {
            Some(url) if Some(url.as_str()) != previous => return url,
            _ => {}
        }
        assert!(std::time::Instant::now() < deadline, "never advertised");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Servers on one store share one coordinator: a second server joins the
/// advertised one instead of hosting (and advertising) its own, and when
/// the hosting server shuts down, the joined one takes over hosting, so
/// sharded runs on the store keep crossing the wire.
#[test]
fn job_servers_on_one_store_share_one_coordinator_and_fail_over() {
    let (root, store) = temp_store("shared");
    let expected = reference_digest(46);
    let start = |store: &Store| {
        let server = JobServer::new(store.clone(), JobServerConfig::shards_only_with_workers(1));
        let shutdown = server.shutdown_handle();
        (
            shutdown,
            std::thread::spawn(move || server.run().expect("server runs")),
        )
    };
    let sharded_run = |id: &str| {
        let result = FlowBuilder::new(sharded_config())
            .with_seed(46)
            .with_store(&store)
            .with_run_id(id)
            .run()
            .expect("the sharded flow completes");
        assert_eq!(result.determinism_digest(), expected);
        assert!(
            result.timings.shard_requests > 0,
            "the shards crossed the wire"
        );
        transport_report(&store, id).transport
    };

    let (stop_first, first) = start(&store);
    let hosted = await_advertisement(&store, None);
    let (stop_second, second) = start(&store);
    assert_eq!(sharded_run("joined"), hosted);
    assert_eq!(
        store.advertised_coordinator().as_deref(),
        Some(hosted.as_str()),
        "the second server joined instead of advertising its own"
    );

    stop_first.shutdown();
    let first_report = first.join().expect("first server joins");
    let successor = await_advertisement(&store, Some(&hosted));
    assert_eq!(sharded_run("failed-over"), successor);

    stop_second.shutdown();
    let second_report = second.join().expect("second server joins");
    assert!(first_report.shards_serviced + second_report.shards_serviced > 0);
    assert_eq!(
        store.advertised_coordinator(),
        None,
        "withdrawn at shutdown"
    );
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn drain_server_executes_sharded_runs_to_the_reference_digest() {
    let (root, store) = temp_store("server");
    let expected = reference_digest(42);

    let mut config = sharded_config();
    config.ga.seed = 42;
    config.monte_carlo.seed = 42;
    let optimizer = ayb_moo::OptimizerConfig::Wbga(config.ga);
    let run_id = store
        .enqueue_run(42, &optimizer, &config)
        .expect("enqueue succeeds")
        .id()
        .to_string();

    // Two workers: one claims the run (and becomes the shard submitter,
    // publishing to the coordinator the server hosts), the idle one
    // services shards — shard-first — until the queue drains.
    let server = JobServer::new(store.clone(), JobServerConfig::drain_with_workers(2));
    let report = server.run().expect("server drains");
    assert_eq!(report.completed, vec![run_id.clone()], "report: {report:?}");
    assert!(report.failed.is_empty());
    assert_eq!(stored_digest(&store, &run_id), expected);
    let result: FlowResult = store.run(&run_id).unwrap().load_result().unwrap();
    assert!(
        result.timings.shard_requests > 0,
        "the shards crossed the wire"
    );
    let manifest: Manifest<FlowConfig> = store.run(&run_id).unwrap().manifest().unwrap();
    assert_eq!(
        manifest.flow.transport, None,
        "the manifest keeps the config"
    );
    assert_eq!(store.advertised_coordinator(), None, "withdrawn at exit");
    let _ = std::fs::remove_dir_all(root);
}

/// An `ayb serve --shards-only` worker process servicing the coordinator at
/// `url`, with a scratch store of its own: the work and the flow
/// configuration travel over the wire.
fn spawn_shard_worker(scratch: &Path, url: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_ayb"))
        .args([
            "serve",
            "--store",
            scratch.to_str().expect("utf-8 store path"),
            "--shards-only",
            "--workers",
            "2",
            "--poll-ms",
            "20",
            "--transport",
            url,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("shard worker process spawns")
}

/// The acceptance scenario: a sharded flow evaluated across two independent
/// `ayb serve --shards-only` worker *processes* servicing one coordinator,
/// with one worker SIGKILLed mid-run, still digests bit-identically to the
/// single-process unsharded run.
#[test]
fn multi_process_sharded_run_survives_a_sigkilled_worker_bit_identically() {
    let (root, store) = temp_store("multiproc");
    let expected = reference_digest(77);
    let coordinator = coordinator();

    let mut config = tcp_config(&coordinator.url());
    config.ga.seed = 77;
    config.monte_carlo.seed = 77;
    let optimizer = ayb_moo::OptimizerConfig::Wbga(config.ga);
    let run_id = store
        .enqueue_run(77, &optimizer, &config)
        .expect("enqueue succeeds")
        .id()
        .to_string();

    // Two worker processes polling the coordinator for shard tasks.
    let doomed = spawn_shard_worker(&root.join("doomed"), &coordinator.url());
    let survivor = spawn_shard_worker(&root.join("survivor"), &coordinator.url());

    // SIGKILL one worker mid-run — whatever shard claim it holds right then
    // goes stale and is stolen without perturbing the result.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(700));
        let mut doomed = doomed;
        let _ = doomed.kill();
        doomed.wait_with_output().expect("doomed worker reaped")
    });

    // This process is the submitter: it executes the queued run, publishing
    // every generation's population as shard tasks for the workers.
    let result = FlowBuilder::resume(&store, &run_id)
        .expect("resume builds")
        .run()
        .expect("sharded flow completes despite the killed worker");
    assert_eq!(
        result.determinism_digest(),
        expected,
        "two worker processes and a SIGKILL change nothing about the result"
    );
    assert!(
        result.timings.shard_requests > 0,
        "the shards crossed the wire"
    );

    let doomed_output = killer.join().expect("killer thread joins");
    let mut survivor = survivor;
    survivor.kill().expect("survivor stops");
    let survivor_output = survivor.wait_with_output().expect("survivor reaped");

    // The workers genuinely participated: at least one shard was serviced
    // out-of-process (the submitter logs nothing, so any `serviced shard`
    // line is a worker's).
    let worker_logs = format!(
        "{}{}",
        String::from_utf8_lossy(&doomed_output.stderr),
        String::from_utf8_lossy(&survivor_output.stderr)
    );
    assert!(
        worker_logs.contains("serviced shard"),
        "external worker processes serviced at least one shard; logs:\n{worker_logs}"
    );

    let handle = store.run(&run_id).unwrap();
    assert_eq!(handle.status().unwrap(), RunStatus::Completed);
    assert_eq!(handle.claim().unwrap(), None);
    assert_eq!(coordinator.stats().epochs, 0, "no epoch outlives the run");
    assert_eq!(stored_digest(&store, &run_id), expected);
    let _ = std::fs::remove_dir_all(root);
}

/// Counts `on_progress` ticks of the variation stage — one per point
/// actually analysed by this flow (restored checkpoints never tick).
struct VariationTicks(Arc<AtomicUsize>);

impl FlowObserver for VariationTicks {
    fn on_progress(&mut self, stage: FlowStage, _done: usize, _total: usize) {
        if stage == FlowStage::AnalyzeVariation {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A flow interrupted mid-variation-stage resumes from its per-point
/// checkpoints: the already-analysed points are provably skipped (checkpoint
/// files untouched, observer ticks only for the remainder) and the final
/// result digests identically to the uninterrupted serial run.
#[test]
fn interrupted_variation_resumes_from_per_point_checkpoints() {
    let (root, store) = temp_store("varresume");
    let expected = reference_digest(99);
    let coordinator = coordinator();

    // Halt at the third variation result-write boundary — the deterministic
    // stand-in for a SIGKILL right after the third point's checkpoint landed.
    let writes = Arc::new(AtomicUsize::new(0));
    let hook: VariationHaltHook = {
        let writes = Arc::clone(&writes);
        Arc::new(move |boundary| match boundary {
            VariationBoundary::ResultWrite { .. } => writes.fetch_add(1, Ordering::SeqCst) + 1 >= 3,
            _ => false,
        })
    };
    let halted = FlowBuilder::new(tcp_config(&coordinator.url()))
        .with_seed(99)
        .with_store(&store)
        .with_run_id("var-halt")
        .halt_variation_when(hook)
        .run();
    assert!(
        matches!(
            halted,
            Err(AybError::Checkpoint(CheckpointError::Halted { .. }))
        ),
        "the hook halts the variation stage: {halted:?}"
    );

    let handle = store.run("var-halt").unwrap();
    assert_eq!(handle.status().unwrap(), RunStatus::Interrupted);
    assert_eq!(handle.claim().unwrap(), None, "claim released at the halt");
    let restored = handle.variation_checkpoint_indices().unwrap();
    assert_eq!(restored.len(), 3, "exactly three points were checkpointed");
    let mtimes: Vec<_> = restored
        .iter()
        .map(|&index| {
            let path = root.join(format!(
                "runs/var-halt/checkpoints/variation_{index:04}.json"
            ));
            std::fs::metadata(&path).unwrap().modified().unwrap()
        })
        .collect();

    // Resume: the three restored points must not be re-analysed.
    let ticks = Arc::new(AtomicUsize::new(0));
    let result = FlowBuilder::resume(&store, "var-halt")
        .expect("resume builds")
        .with_observer(VariationTicks(Arc::clone(&ticks)))
        .run()
        .expect("resumed flow completes");
    assert_eq!(
        result.determinism_digest(),
        expected,
        "interrupt + resume mid-variation changes nothing about the result"
    );
    assert!(
        result.timings.shard_requests > 0,
        "the resume crossed the wire"
    );
    let total = result.timings.mc_points;
    assert_eq!(
        ticks.load(Ordering::SeqCst),
        total - 3,
        "the resumed stage analysed only the unfinished points"
    );
    assert_eq!(
        handle.variation_checkpoint_indices().unwrap().len(),
        total,
        "every selected point ends up checkpointed"
    );
    for (&index, mtime) in restored.iter().zip(&mtimes) {
        let path = root.join(format!(
            "runs/var-halt/checkpoints/variation_{index:04}.json"
        ));
        assert_eq!(
            &std::fs::metadata(&path).unwrap().modified().unwrap(),
            mtime,
            "restored checkpoint {index} was never rewritten"
        );
    }
    assert_eq!(handle.status().unwrap(), RunStatus::Completed);
    assert_eq!(
        coordinator.stats().epochs,
        0,
        "the resume closed the halted attempt's epoch"
    );
    let _ = std::fs::remove_dir_all(root);
}

/// The variation acceptance scenario: the Monte Carlo stage of a sharded
/// flow is serviced by real `ayb serve --shards-only` worker *processes*
/// polling one coordinator,
/// one of which is SIGKILLed mid-variation-epoch — the run still completes
/// with the serial reference digest, and the workers provably analysed
/// points out-of-process.
#[test]
fn variation_stage_shards_across_processes_and_survives_a_sigkilled_worker() {
    let (root, store) = temp_store("varproc");
    let coordinator = coordinator();

    // Variation-heavy configuration: a short optimisation, then eight
    // 240-sample Monte Carlo points shipped as four two-point batches —
    // most of the wall clock is stage 4, and each batch takes many worker
    // poll intervals, so the external workers provably claim some.
    let mut config = tcp_config(&coordinator.url());
    config.ga.generations = 3;
    config.monte_carlo.samples = 240;
    config.variation_batch = 2;
    let expected = {
        let mut serial = config.clone();
        serial.sharded = false;
        serial.transport = None;
        FlowBuilder::new(serial)
            .with_seed(123)
            .run()
            .expect("reference flow completes")
            .determinism_digest()
    };

    config.ga.seed = 123;
    config.monte_carlo.seed = 123;
    let optimizer = ayb_moo::OptimizerConfig::Wbga(config.ga);
    let run_id = store
        .enqueue_run(123, &optimizer, &config)
        .expect("enqueue succeeds")
        .id()
        .to_string();

    let doomed = spawn_shard_worker(&root.join("doomed"), &coordinator.url());
    let survivor = spawn_shard_worker(&root.join("survivor"), &coordinator.url());

    // The submitter executes in a thread; the main thread watches the store
    // and SIGKILLs one worker as soon as the variation stage is provably in
    // flight (per-point checkpoints exist), so the kill lands mid-epoch.
    let submitter = {
        let store = store.clone();
        let run_id = run_id.clone();
        std::thread::spawn(move || {
            FlowBuilder::resume(&store, &run_id)
                .expect("resume builds")
                .run()
                .expect("sharded flow completes despite the killed worker")
        })
    };
    let handle = store.run(&run_id).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while handle
        .variation_checkpoint_indices()
        .map(|indices| indices.len() < 2)
        .unwrap_or(true)
        && std::time::Instant::now() < deadline
        && !handle.has_result()
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut doomed = doomed;
    doomed.kill().expect("doomed worker SIGKILLed");
    let doomed_output = doomed.wait_with_output().expect("doomed worker reaped");

    let result = submitter.join().expect("submitter thread joins");
    assert_eq!(
        result.determinism_digest(),
        expected,
        "worker processes and a SIGKILL mid-variation change nothing"
    );
    assert!(
        result.timings.shard_requests > 0,
        "the shards crossed the wire"
    );

    let mut survivor = survivor;
    survivor.kill().expect("survivor stops");
    let survivor_output = survivor.wait_with_output().expect("survivor reaped");
    let worker_logs = format!(
        "{}{}",
        String::from_utf8_lossy(&doomed_output.stderr),
        String::from_utf8_lossy(&survivor_output.stderr)
    );
    assert!(
        worker_logs.contains("serviced variation point"),
        "external worker processes analysed at least one point; logs:\n{worker_logs}"
    );

    assert_eq!(handle.status().unwrap(), RunStatus::Completed);
    assert_eq!(handle.claim().unwrap(), None);
    assert_eq!(coordinator.stats().epochs, 0, "no epoch outlives the run");
    assert_eq!(stored_digest(&store, &run_id), expected);
    let _ = std::fs::remove_dir_all(root);
}
