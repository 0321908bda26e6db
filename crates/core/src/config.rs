//! Flow configuration.

use ayb_circuit::ota::OtaTestbenchConfig;
use ayb_moo::GaConfig;
use ayb_process::{MonteCarloConfig, ProcessVariation};
use ayb_sim::{FrequencySweep, SolverKind};
use serde::{Deserialize, Serialize};

/// Configuration of the complete model-generation flow (paper §3).
///
/// `Deserialize` is implemented by hand so that manifests written before the
/// sharding fields existed still load: absent `sharded`/`shard_size` fields
/// default to unsharded evaluation instead of failing the whole store.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FlowConfig {
    /// Genetic-algorithm settings for the OTA sizing optimisation (§3.2).
    pub ga: GaConfig,
    /// Monte Carlo settings applied to every Pareto point (§3.4).
    pub monte_carlo: MonteCarloConfig,
    /// Statistical process model.
    pub variation: ProcessVariation,
    /// Test-bench conditions (supply, common mode, load, servo loop).
    pub testbench: OtaTestbenchConfig,
    /// Frequency sweep used for every AC characterisation.
    pub sweep: FrequencySweep,
    /// k·σ level used to convert Monte Carlo spreads into the ±Δ% columns of
    /// Table 2 (3.0 = conventional process extremes).
    pub sigma_level: f64,
    /// Upper bound on the number of Pareto points taken through Monte Carlo
    /// analysis (the paper analyses all 1022; scaled-down runs cap this).
    pub max_pareto_points: usize,
    /// Number of worker threads for circuit evaluation: used both by the
    /// optimiser's batch candidate evaluation (via
    /// `OtaSizingProblem::with_threads`) and by the per-point Monte Carlo
    /// stage. Thread count never changes results, only wall-clock time.
    pub threads: usize,
    /// When `true` *and* the flow runs against a store, the flow's heavy
    /// stages go through a shard coordinator (the `ayb_net` crate):
    /// optimiser populations split into [`FlowConfig::shard_size`]-candidate
    /// evaluation shards, and the Monte Carlo variation stage (stage 4)
    /// publishes its Pareto points in [`FlowConfig::variation_batch`]-point
    /// tasks — either of which any worker servicing the coordinator, on this
    /// machine or another host, may claim. Sharding never changes results
    /// (shards reassemble in index order; variation points carry per-point
    /// derived seeds), only where the work is computed; without a store, or
    /// without a reachable coordinator, the flow evaluates in-process.
    pub sharded: bool,
    /// Maximum number of candidates per shard when [`FlowConfig::sharded`]
    /// is set (minimum 1; batches at most one shard long are evaluated
    /// locally).
    pub shard_size: usize,
    /// The coordinator a sharded flow's shards travel through. `None` (the
    /// default) uses the coordinator the run's executor supplies — the one
    /// an `ayb serve` hosts for the runs it executes, or the one advertised
    /// in the store. `Some("tcp://host:port")` names an `ayb coordinate`
    /// process explicitly. Workers need network reachability but **no
    /// shared filesystem**. The transport never changes results — only where
    /// shard payloads travel; an unreachable coordinator degrades (noisily,
    /// via [`FlowObserver::on_transport_degraded`](crate::FlowObserver)) to
    /// local evaluation.
    pub transport: Option<String>,
    /// Linear-solver backend used by every DC operating point and AC sweep
    /// in the flow. [`SolverKind::Dense`] is the historical default;
    /// [`SolverKind::Sparse`] routes solves through the sparse LU. Recorded
    /// in the manifest so resumed runs keep using the backend they started
    /// with. Node voltages agree between backends to solver tolerance
    /// (≪ 1e-9); each backend is individually bit-deterministic.
    pub solver: SolverKind,
    /// Number of Monte Carlo variation points carried per shard task when
    /// the sharded variation stage runs (minimum 1 = one point per task). Larger batches amortise task claim/commit
    /// overhead; per-point checkpoints are preserved, so batching never
    /// changes results or resumability.
    pub variation_batch: usize,
    /// Quantization step of the in-process evaluation cache
    /// ([`ayb_moo::CachedProblem`]). `None` (the default) disables the
    /// cache; `Some(step)` memoises evaluations keyed by the parameter
    /// vector quantized at `step`, serving a hit only on bit-identical raw
    /// parameters — so the cache skips repeated solves without ever
    /// changing results or the determinism digest. Hits are reported in
    /// [`FlowTimings::eval_cache_hits`](crate::FlowTimings).
    pub eval_cache: Option<f64>,
}

impl FlowConfig {
    /// Full paper-scale settings: 100 × 100 WBGA (10 000 simulations),
    /// 200-sample Monte Carlo on every Pareto point (§4, Table 5).
    pub fn paper_scale() -> Self {
        FlowConfig {
            ga: GaConfig::paper_ota(),
            monte_carlo: MonteCarloConfig::new(200, 2008),
            variation: ProcessVariation::generic_035um(),
            testbench: OtaTestbenchConfig::new(),
            sweep: FrequencySweep::logarithmic(10.0, 1e9, 8),
            sigma_level: 3.0,
            max_pareto_points: usize::MAX,
            threads: 4,
            sharded: false,
            shard_size: 25,
            transport: None,
            solver: SolverKind::Dense,
            variation_batch: 8,
            eval_cache: None,
        }
    }

    /// Reduced settings for unit tests and examples: small population, few
    /// Monte Carlo samples, capped Pareto set. Produces the same artefacts in
    /// seconds instead of hours.
    pub fn reduced() -> Self {
        FlowConfig {
            ga: GaConfig {
                population_size: 14,
                generations: 8,
                crossover_rate: 0.9,
                mutation_rate: 0.12,
                mutation_sigma: 0.12,
                tournament_size: 2,
                elitism: 1,
                seed: 2008,
                early_stop: None,
            },
            monte_carlo: MonteCarloConfig::new(16, 77),
            variation: ProcessVariation::generic_035um(),
            testbench: OtaTestbenchConfig::new(),
            sweep: FrequencySweep::logarithmic(10.0, 1e9, 5),
            sigma_level: 3.0,
            max_pareto_points: 12,
            threads: 2,
            sharded: false,
            shard_size: 4,
            transport: None,
            solver: SolverKind::Dense,
            variation_batch: 3,
            eval_cache: None,
        }
    }

    /// Intermediate settings used by the report binaries when `--full` is not
    /// requested: large enough to show the paper's trends, small enough to run
    /// in a couple of minutes.
    pub fn demo_scale() -> Self {
        FlowConfig {
            ga: GaConfig {
                population_size: 40,
                generations: 25,
                ..GaConfig::paper_ota()
            },
            monte_carlo: MonteCarloConfig::new(50, 0xa5a5),
            max_pareto_points: 60,
            threads: 4,
            shard_size: 10,
            variation_batch: 4,
            ..FlowConfig::reduced()
        }
    }

    /// Returns a copy with a different optimisation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.ga.seed = seed;
        self
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig::paper_scale()
    }
}

impl Deserialize for FlowConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // The sharding knobs postdate the first durable stores; treat their
        // absence as "unsharded" so pre-existing manifests stay resumable.
        let sharded = match value.get("sharded") {
            Some(field) => Deserialize::from_value(field)?,
            None => false,
        };
        let shard_size = match value.get("shard_size") {
            Some(field) => Deserialize::from_value(field)?,
            None => 25,
        };
        // The transport selector postdates the sharding knobs; absent (or
        // explicit null) means the disk data plane, as before.
        let transport = match value.get("transport") {
            Some(field) => Deserialize::from_value(field)?,
            None => None,
        };
        // The solver backend and variation batching postdate the transport
        // selector; absent fields mean the historical dense solver with one
        // variation point per shard task.
        let solver = match value.get("solver") {
            Some(field) => Deserialize::from_value(field)?,
            None => SolverKind::Dense,
        };
        let variation_batch = match value.get("variation_batch") {
            Some(field) => Deserialize::from_value(field)?,
            None => 1,
        };
        // The evaluation cache postdates everything above; absent (or
        // explicit null) means "cache off", the historical behaviour.
        let eval_cache = match value.get("eval_cache") {
            Some(field) => Deserialize::from_value(field)?,
            None => None,
        };
        Ok(FlowConfig {
            ga: Deserialize::from_value(serde::__field(value, "ga")?)?,
            monte_carlo: Deserialize::from_value(serde::__field(value, "monte_carlo")?)?,
            variation: Deserialize::from_value(serde::__field(value, "variation")?)?,
            testbench: Deserialize::from_value(serde::__field(value, "testbench")?)?,
            sweep: Deserialize::from_value(serde::__field(value, "sweep")?)?,
            sigma_level: Deserialize::from_value(serde::__field(value, "sigma_level")?)?,
            max_pareto_points: Deserialize::from_value(serde::__field(
                value,
                "max_pareto_points",
            )?)?,
            threads: Deserialize::from_value(serde::__field(value, "threads")?)?,
            sharded,
            shard_size,
            transport,
            solver,
            variation_batch,
            eval_cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_reported_budget() {
        let cfg = FlowConfig::paper_scale();
        assert_eq!(cfg.ga.evaluation_budget(), 10_000);
        assert_eq!(cfg.monte_carlo.samples, 200);
        assert_eq!(cfg.sigma_level, 3.0);
    }

    #[test]
    fn reduced_is_small() {
        let cfg = FlowConfig::reduced();
        assert!(cfg.ga.evaluation_budget() <= 200);
        assert!(cfg.monte_carlo.samples <= 32);
        assert!(cfg.max_pareto_points <= 16);
    }

    #[test]
    fn with_seed_changes_ga_seed_only() {
        let a = FlowConfig::reduced();
        let b = a.clone().with_seed(99);
        assert_ne!(a.ga.seed, b.ga.seed);
        assert_eq!(a.monte_carlo.seed, b.monte_carlo.seed);
    }

    #[test]
    fn deserializes_pre_sharding_manifest_json() {
        // A config serialized before the sharding fields existed (simulated
        // by stripping them from current JSON) must still load, defaulting
        // to unsharded evaluation — old stores stay resumable.
        let mut config = FlowConfig::reduced();
        config.sharded = true;
        config.shard_size = 7;
        config.transport = Some("tcp://127.0.0.1:4710".to_string());
        config.solver = SolverKind::Sparse;
        config.variation_batch = 5;
        config.eval_cache = Some(1e-9);
        let serde::Value::Object(mut pairs) = serde::Serialize::to_value(&config) else {
            panic!("FlowConfig serializes to an object");
        };
        pairs.retain(|(key, _)| {
            key != "sharded"
                && key != "shard_size"
                && key != "transport"
                && key != "solver"
                && key != "variation_batch"
                && key != "eval_cache"
        });
        let legacy = serde::Value::Object(pairs);
        let back: FlowConfig = serde::Deserialize::from_value(&legacy).expect("legacy loads");
        assert!(!back.sharded);
        assert!(back.shard_size >= 1);
        assert_eq!(back.transport, None);
        assert_eq!(back.solver, SolverKind::Dense);
        assert_eq!(back.variation_batch, 1);
        assert_eq!(back.eval_cache, None);
        assert_eq!(back.ga, config.ga);
        assert_eq!(back.threads, config.threads);

        // And the current shape round-trips unchanged.
        let roundtrip: FlowConfig =
            serde::Deserialize::from_value(&serde::Serialize::to_value(&config)).unwrap();
        assert_eq!(roundtrip, config);
    }
}
