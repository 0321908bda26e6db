//! Per-layer probes of the traced run.
//!
//! Every number here comes from a span this harness records around a call
//! into one crate's public functions; the program itself is not
//! instrumented. A layer a workload does not exercise reports 0 with 0
//! samples.

use crate::report::Metric;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use ayb_circuit::ota::build_open_loop_testbench;
use ayb_core::flow::subsample_front;
use ayb_core::{
    analyse_variation_point, measure_testbench_with, point_mc_seed, FlowBuilder, FlowConfig,
    FlowResult, OtaSizingProblem,
};
use ayb_moo::{
    Checkpoint, CheckpointControl, Evaluation, ObjectiveSpec, OptimizerConfig, SizingProblem,
};
use ayb_process::montecarlo;
use ayb_sim::{ac_analysis_with, dc_operating_point_with, DcOptions, MnaLayout};
use ayb_store::Store;
use std::collections::BTreeMap;
use std::fs;
use std::time::Instant;

/// Worker threads every flow runs with (`--threads 2`).
pub const THREADS: usize = 2;

/// The digest the paper-scale flow produces at seed 2008.
pub const PAPER_2008_DIGEST: u64 = 0x474c_df80_654e_cf51;

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.optimize_s", "s"),
    ("core.variation_s", "s"),
    ("core.model_build_s", "s"),
    ("core.variation_overlap", "ratio"),
    ("moo.generations", "count"),
    ("moo.evaluations", "count"),
    ("moo.eval_ok_ratio", "ratio"),
    ("moo.eval_batch_s", "s"),
    ("moo.operator_self_s", "s"),
    ("sim.dc_us_p50", "us"),
    ("sim.ac_us_p50", "us"),
    ("sim.fail_ratio", "ratio"),
    ("process.points", "count"),
    ("process.point_s_p50", "s"),
    ("process.samples_ok_ratio", "ratio"),
    ("process.sampling_self_s", "s"),
    ("store.checkpoint_writes", "count"),
    ("store.checkpoint_mb", "MB"),
    ("store.checkpoint_write_s", "s"),
    ("store.result_write_s", "s"),
    ("net.requests", "count"),
    ("net.request_ms_mean", "ms"),
    ("net.roundtrip_ms_p50", "ms"),
    ("net.degraded", "count"),
    ("svc.submit_fresh_ms_p50", "ms"),
    ("svc.submit_cached_ms_p50", "ms"),
    ("svc.status_ms_p50", "ms"),
    ("svc.result_ms_p50", "ms"),
    ("svc.cache_answer_ratio", "ratio"),
    ("svc.rejected_ratio", "ratio"),
    ("jobs.queue_wait_s_p50", "s"),
    ("jobs.dispatch_idle_ms_p50", "ms"),
    ("jobs.exec_s_p50", "s"),
    ("obs.events_per_run", "count"),
    ("load.gen_late_ms_p99", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer metrics collected so far, keyed by name.
#[derive(Debug, Default)]
pub struct Layers {
    metrics: BTreeMap<String, Metric>,
}

impl Layers {
    /// Sets a single measured value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.put(Metric::value(name, unit_of(name), value));
    }

    /// Sets a quantile of `samples` (0 with no samples).
    pub fn set_quantile(&mut self, name: &str, samples: &[f64], q: f64) {
        self.put(Metric::quantile(name, unit_of(name), quantile(samples, q)));
    }

    fn put(&mut self, metric: Metric) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == metric.name),
            "unknown per-layer metric {}",
            metric.name
        );
        self.metrics.insert(metric.name.clone(), metric);
    }

    /// Every [`PER_LAYER`] metric in order; unset ones read 0 with no
    /// samples (the layer is not exercised by the workload).
    pub fn into_metrics(mut self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                self.metrics.remove(*name).unwrap_or(Metric {
                    samples: 0,
                    ..Metric::value(name, unit, 0.0)
                })
            })
            .collect()
    }
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The configuration and optimiser `ayb run --scale SCALE --threads 2
/// --seed SEED [--transport URL]` executes (mirrors the CLI's flag
/// handling).
pub fn cli_flow(scale: &str, seed: u64, transport: Option<&str>) -> (FlowConfig, OptimizerConfig) {
    let mut config = match scale {
        "paper" => FlowConfig::paper_scale(),
        "demo" => FlowConfig::demo_scale(),
        _ => FlowConfig::reduced(),
    };
    config.threads = THREADS;
    if let Some(url) = transport {
        config.transport = Some(url.to_string());
        config.sharded = true;
    }
    config.ga.seed = seed;
    config.monte_carlo.seed = seed;
    let optimizer = OptimizerConfig::Wbga(config.ga).with_seed(seed);
    (config, optimizer)
}

/// Digest of the unsharded in-memory flow for `seed`: the reference every
/// durable, sharded or served run of that seed must reproduce.
///
/// # Errors
///
/// The flow's error.
pub fn reference_digest(scale: &str, seed: u64) -> Result<u64, String> {
    if scale == "paper" && seed == 2008 {
        return Ok(PAPER_2008_DIGEST);
    }
    let (config, optimizer) = cli_flow(scale, seed, None);
    FlowBuilder::new(config)
        .with_optimizer(optimizer)
        .run()
        .map(|r| r.determinism_digest())
        .map_err(|e| e.to_string())
}

/// A durable flow run in-process with a span around each stage.
pub struct TracedFlow {
    /// The flow's result.
    pub result: FlowResult,
    /// Wall seconds of the whole flow.
    pub wall: f64,
    /// Lines in the run's `events.jsonl`.
    pub events: usize,
}

/// Runs the flow `ayb run` would, on `store` as run `run_id`, with
/// `core.*` spans around `FlowBuilder::optimize`,
/// `OptimizedFlow::analyze_variation` and `AnalyzedFlow::build_model`.
///
/// # Errors
///
/// The flow's error.
pub fn traced_flow(
    tracer: &Tracer,
    store: &Store,
    run_id: &str,
    config: &FlowConfig,
    optimizer: &OptimizerConfig,
) -> Result<TracedFlow, String> {
    let start = Instant::now();
    let root = tracer.open("core.flow", None);
    let builder = FlowBuilder::new(config.clone())
        .with_optimizer(optimizer.clone())
        .with_store(store)
        .with_run_id(run_id);
    let optimized = tracer
        .span("core.optimize", Some(root), || builder.optimize())
        .map_err(|e| e.to_string())?;
    let analyzed = tracer
        .span("core.variation", Some(root), || {
            optimized.analyze_variation()
        })
        .map_err(|e| e.to_string())?;
    let result = tracer
        .span("core.model_build", Some(root), || analyzed.build_model())
        .map_err(|e| e.to_string())?;
    tracer.close(root);
    let wall = start.elapsed().as_secs_f64();
    let events = store
        .run(run_id)
        .ok()
        .and_then(|h| fs::read_to_string(h.events_path()).ok())
        .map_or(0, |text| text.lines().count());
    Ok(TracedFlow {
        result,
        wall,
        events,
    })
}

/// Records the `core.*`, `net.*` (from `result.json` timings) and
/// `obs.*` metrics of traced flows.
pub fn record_flows(layers: &mut Layers, tracer: &Tracer, flows: &[TracedFlow]) {
    let med = |name: &str| median(&tracer.durations(name)).unwrap_or(0.0);
    layers.set("core.optimize_s", med("core.optimize"));
    layers.set("core.variation_s", med("core.variation"));
    layers.set("core.model_build_s", med("core.model_build"));
    let overlap: Vec<f64> = flows
        .iter()
        .map(|f| {
            let stage = f.result.timings.monte_carlo.as_secs_f64();
            if stage > 0.0 {
                f.result.timings.mc_point_seconds / stage
            } else {
                0.0
            }
        })
        .collect();
    layers.set_quantile("core.variation_overlap", &overlap, 0.5);
    let requests: u64 = flows.iter().map(|f| f.result.timings.shard_requests).sum();
    let request_seconds: f64 = flows
        .iter()
        .map(|f| f.result.timings.shard_request_seconds)
        .sum();
    let runs = flows.len().max(1) as f64;
    if requests > 0 {
        layers.set("net.requests", requests as f64 / runs);
        layers.set(
            "net.request_ms_mean",
            request_seconds * 1e3 / requests as f64,
        );
        let degraded: usize = flows.iter().map(|f| f.result.timings.shards_degraded).sum();
        layers.set("net.degraded", degraded as f64);
    }
    let events: usize = flows.iter().map(|f| f.events).sum();
    layers.set("obs.events_per_run", events as f64 / runs);
}

/// A [`SizingProblem`] that records a `moo.eval_batch` span around every
/// batch evaluation of the wrapped problem.
struct TimedProblem<'a> {
    inner: &'a OtaSizingProblem,
    tracer: &'a Tracer,
    parent: usize,
}

impl SizingProblem for TimedProblem<'_> {
    fn parameter_count(&self) -> usize {
        self.inner.parameter_count()
    }

    fn objectives(&self) -> &[ObjectiveSpec] {
        self.inner.objectives()
    }

    fn evaluate(&self, parameters: &[f64]) -> Option<Vec<f64>> {
        self.inner.evaluate(parameters)
    }

    fn evaluate_batch(&self, batch: &[Vec<f64>]) -> Vec<Option<Evaluation>> {
        self.tracer.span("moo.eval_batch", Some(self.parent), || {
            self.inner.evaluate_batch(batch)
        })
    }
}

/// Drives `Optimizer::run_checkpointed` with a timed problem and a timed
/// checkpoint sink writing through `Store::save_checkpoint`, then times
/// the result write of `result` into the same run. Records `moo.*` and
/// `store.*`. Returns the probe's evaluation count, which must equal the
/// flow's.
///
/// # Errors
///
/// Store or optimiser errors.
pub fn probe_moo_and_store(
    layers: &mut Layers,
    tracer: &Tracer,
    store: &Store,
    config: &FlowConfig,
    optimizer: &OptimizerConfig,
    result: &FlowResult,
) -> Result<usize, String> {
    let problem = OtaSizingProblem::new(config.testbench, config.sweep.clone())
        .with_threads(config.threads)
        .with_solver(config.solver);
    let handle = store
        .create_run(optimizer.seed(), optimizer, config)
        .map_err(|e| e.to_string())?;
    let root = tracer.open("moo.run", None);
    let timed = TimedProblem {
        inner: &problem,
        tracer,
        parent: root,
    };
    let mut writes = 0usize;
    let mut bytes = 0u64;
    let mut write_error: Option<String> = None;
    let mut sink =
        |checkpoint: &Checkpoint| match tracer.span("store.checkpoint", Some(root), || {
            handle.save_checkpoint(checkpoint)
        }) {
            Ok(path) => {
                writes += 1;
                bytes += fs::metadata(path).map_or(0, |m| m.len());
                CheckpointControl::Continue
            }
            Err(e) => {
                write_error = Some(e.to_string());
                CheckpointControl::Halt
            }
        };
    let outcome = optimizer.build().run_checkpointed(&timed, None, &mut sink);
    tracer.close(root);
    if let Some(error) = write_error {
        return Err(error);
    }
    let optimization = outcome.map_err(|e| e.to_string())?;
    tracer
        .span("store.result_write", None, || handle.save_result(result))
        .map_err(|e| e.to_string())?;

    layers.set("moo.generations", optimization.history.len() as f64);
    layers.set("moo.evaluations", optimization.evaluations as f64);
    layers.set(
        "moo.eval_ok_ratio",
        1.0 - optimization.failed_evaluations as f64 / optimization.evaluations.max(1) as f64,
    );
    layers.set("moo.eval_batch_s", tracer.total("moo.eval_batch"));
    layers.set("moo.operator_self_s", tracer.total_self("moo.run"));
    layers.set("store.checkpoint_writes", writes as f64);
    layers.set("store.checkpoint_mb", bytes as f64 / 1e6);
    layers.set("store.checkpoint_write_s", tracer.total("store.checkpoint"));
    layers.set("store.result_write_s", tracer.total("store.result_write"));
    Ok(optimization.evaluations)
}

/// Evenly spaced indices `0..len`, at most `limit` of them.
fn spread_indices(len: usize, limit: usize) -> Vec<usize> {
    if len <= limit {
        return (0..len).collect();
    }
    (0..limit)
        .map(|i| i * (len - 1) / (limit - 1).max(1))
        .collect()
}

/// Times `dc_operating_point_with` and `ac_analysis_with` on up to `limit`
/// of the run's own archive candidates. Records `sim.*`.
pub fn probe_sim(
    layers: &mut Layers,
    tracer: &Tracer,
    config: &FlowConfig,
    archive: &[Evaluation],
    limit: usize,
) {
    let problem = OtaSizingProblem::new(config.testbench, config.sweep.clone());
    let mut attempted = 0usize;
    let mut failed = 0usize;
    for index in spread_indices(archive.len(), limit) {
        attempted += 1;
        let Some(params) = problem.ota_parameters(&archive[index].parameters) else {
            failed += 1;
            continue;
        };
        let Ok(circuit) = build_open_loop_testbench(&params, &config.testbench) else {
            failed += 1;
            continue;
        };
        let layout = MnaLayout::new(&circuit);
        let dc = tracer.span("sim.dc", None, || {
            dc_operating_point_with(&circuit, &layout, &DcOptions::new(), config.solver)
        });
        let Ok(op) = dc else {
            failed += 1;
            continue;
        };
        let ac = tracer.span("sim.ac", None, || {
            ac_analysis_with(&circuit, &layout, &op, &config.sweep, config.solver)
        });
        if ac.is_err() {
            failed += 1;
        }
    }
    let us = |name: &str| -> Vec<f64> { tracer.durations(name).iter().map(|s| s * 1e6).collect() };
    layers.set_quantile("sim.dc_us_p50", &us("sim.dc"), 0.5);
    layers.set_quantile("sim.ac_us_p50", &us("sim.ac"), 0.5);
    layers.set("sim.fail_ratio", failed as f64 / attempted.max(1) as f64);
}

/// Re-analyses up to `limit` of the flow's analysed Pareto points with
/// `analyse_variation_point` (per-point seed from `point_mc_seed`) and
/// with `montecarlo::run` under a timed sample closure. Records
/// `process.*`; returns how many re-analysed points differ from the flow's
/// own variation data.
pub fn probe_process(
    layers: &mut Layers,
    tracer: &Tracer,
    config: &FlowConfig,
    result: &FlowResult,
    limit: usize,
) -> usize {
    let problem = OtaSizingProblem::new(config.testbench, config.sweep.clone())
        .with_threads(config.threads)
        .with_solver(config.solver);
    let selected = subsample_front(&result.pareto, config.max_pareto_points);
    let comparable = result.pareto_data.len() == selected.len();
    let mut mismatches = 0usize;
    let mut samples = 0usize;
    let mut ok = 0usize;
    for index in spread_indices(selected.len(), limit) {
        let genes = &selected[index].parameters;
        let seed = point_mc_seed(config.monte_carlo.seed, index);
        let data = tracer.span("process.point", None, || {
            analyse_variation_point(&problem, genes, config, seed)
        });
        if comparable && data.as_ref() != Some(&result.pareto_data[index]) {
            mismatches += 1;
        }
        let Some(params) = problem.ota_parameters(genes) else {
            continue;
        };
        let Ok(circuit) = build_open_loop_testbench(&params, &config.testbench) else {
            continue;
        };
        let mut mc = config.monte_carlo;
        mc.seed = seed;
        let root = tracer.open("process.montecarlo", None);
        let run = montecarlo::run(&circuit, &config.variation, &mc, |sample| {
            let start = Instant::now();
            let perf = measure_testbench_with(sample, &config.sweep, config.solver);
            tracer.record("process.sample", Some(root), start, Instant::now());
            perf
        });
        tracer.close(root);
        samples += mc.samples;
        ok += run.values.len();
    }
    layers.set("process.points", result.timings.mc_points as f64);
    layers.set_quantile(
        "process.point_s_p50",
        &tracer.durations("process.point"),
        0.5,
    );
    layers.set(
        "process.samples_ok_ratio",
        ok as f64 / samples.max(1) as f64,
    );
    layers.set(
        "process.sampling_self_s",
        tracer.total_self("process.montecarlo"),
    );
    mismatches
}

/// Runs the moo/store, sim and process probes on a traced flow's result.
/// Returns the number of probe answers that disagree with the flow.
pub fn probe_all(
    layers: &mut Layers,
    tracer: &Tracer,
    store: &Store,
    config: &FlowConfig,
    optimizer: &OptimizerConfig,
    result: &FlowResult,
) -> Result<usize, String> {
    let evaluations = probe_moo_and_store(layers, tracer, store, config, optimizer, result)?;
    let mut mismatches = usize::from(evaluations != result.optimization.evaluations);
    probe_sim(layers, tracer, config, &result.archive, 200);
    mismatches += probe_process(layers, tracer, config, result, 24);
    Ok(mismatches)
}
