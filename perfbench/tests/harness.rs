//! Self-tests of the benchmark harness: exact quantiles, seed-determined
//! inputs and schedules, open-loop lateness accounting, the report
//! round-trip, span self time, and agreement with `BENCHMARK.json`.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use perfbench::layers::PER_LAYER;
use perfbench::pools::{Pool, REDUCED_REJECTED};
use perfbench::report::{report_in, Host, Metric, Report, REPORT_PREFIX};
use perfbench::schedule::{account, cached_plan, derive, flow_seed, CachedKind, Stream};
use perfbench::stats::{nearest_rank, quantile, Spread};
use perfbench::trace::{self_time, Span};
use perfbench::workload::END_TO_END;
use serde::Value;

#[test]
fn quantiles_are_exact_order_statistics() {
    let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    let q = |level| quantile(&samples, level).unwrap();
    assert_eq!(q(0.5).value, 5.0);
    assert_eq!(q(0.5).beyond, 5);
    assert_eq!(q(0.9).value, 9.0);
    assert_eq!(q(0.9).beyond, 1);
    assert_eq!(q(0.99).value, 10.0);
    assert_eq!(q(0.99).beyond, 0);
    assert_eq!(q(0.0).value, 1.0);
    assert_eq!(q(1.0).value, 10.0);
    assert_eq!(q(0.5).samples, 10);

    // 1000 samples: p99 is the 990th, with ten samples beyond it.
    let many: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = quantile(&many, 0.99).unwrap();
    assert_eq!((p99.value, p99.beyond), (990.0, 10));

    // Ties: nothing beyond a maximum that repeats.
    let ties = [2.0, 2.0, 2.0, 1.0];
    assert_eq!(quantile(&ties, 0.5).unwrap().value, 2.0);
    assert_eq!(quantile(&ties, 0.5).unwrap().beyond, 0);

    assert!(quantile(&[], 0.5).is_none());
    assert_eq!(quantile(&[f64::NAN, 3.0], 0.5).unwrap().samples, 1);
    assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
}

#[test]
fn spread_reports_median_and_quartiles() {
    let spread = Spread::of(&[4.0, 1.0, 3.0, 2.0, 5.0, 6.0, 7.0, 8.0]).unwrap();
    assert_eq!((spread.q1, spread.median, spread.q3), (2.0, 4.0, 6.0));
    assert_eq!(spread.runs, 8);
    assert_eq!(spread.relative_iqr(), 1.0);
    assert!(Spread::of(&[]).is_none());
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_schedule() {
    for stream in [Stream::Flow, Stream::Pool, Stream::Cached] {
        let a: Vec<u64> = (0..64).map(|i| derive(2008, stream, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| derive(2008, stream, i)).collect();
        let other: Vec<u64> = (0..64).map(|i| derive(2009, stream, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, other);
        assert!(a.iter().all(|&s| s < 1 << 31));
    }
    assert_ne!(derive(1, Stream::Pool, 0), derive(1, Stream::Cached, 0));

    let pool = Pool::reduced(2008);
    let forward: Vec<u64> = (0..600).map(|i| pool.forward(i)).collect();
    let backward: Vec<u64> = (0..600).map(|i| pool.backward(i)).collect();
    assert_eq!(
        forward,
        (0..600)
            .map(|i| Pool::reduced(2008).forward(i))
            .collect::<Vec<_>>()
    );
    assert_ne!(forward[0], Pool::reduced(7).forward(0));
    let mut all: Vec<u64> = forward.iter().chain(&backward).copied().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), 1200, "forward and backward walks overlap");
    assert!(all.iter().all(|s| !REDUCED_REJECTED.contains(s)));
    assert_eq!(flow_seed(2008, 0), 2008);
    assert_ne!(flow_seed(2008, 1), flow_seed(2008, 2));

    let plan = cached_plan(2008, 20.0, 10.0, 8);
    assert_eq!(plan, cached_plan(2008, 20.0, 10.0, 8));
    assert_ne!(plan, cached_plan(7, 20.0, 10.0, 8));
    assert!(plan.iter().all(|op| op.target < 8));
}

#[test]
fn open_loop_requests_are_timed_from_when_they_were_due() {
    let plan = cached_plan(1, 20.0, 10.0, 4);
    assert_eq!(plan.len(), 200);
    for (i, op) in plan.iter().enumerate() {
        assert!((op.due - i as f64 * 0.05).abs() < 1e-12);
        let expected = if i % 2 == 0 {
            CachedKind::Resubmit
        } else {
            CachedKind::Result
        };
        assert_eq!(op.kind, expected);
    }

    // Sent on time: latency is the service time, no lateness.
    let on_time = account(1.0, 1.0, 1.02);
    assert!((on_time.latency - 0.02).abs() < 1e-12);
    assert_eq!(on_time.late, 0.0);
    // Sent 300 ms late behind a stall: the wait is charged to the request.
    let stalled = account(1.0, 1.3, 1.32);
    assert!((stalled.latency - 0.32).abs() < 1e-12);
    assert!((stalled.late - 0.3).abs() < 1e-12);
}

fn sample_report() -> Report {
    Report {
        workload: "svc_mixed".to_string(),
        seed: 2008,
        seconds: 20,
        trace: false,
        host: Host {
            nproc: 2,
            cpu_model: "cpu".to_string(),
            kernel: "6.0".to_string(),
            rustc: "rustc 1.0".to_string(),
            commit: "unknown".to_string(),
        },
        correct: true,
        attempted: 12,
        failed: 0,
        metrics: vec![
            Metric::value("setup_s", "s", 0.012_345_678_9),
            Metric::quantile(
                "cached_latency_p99_ms",
                "ms",
                quantile(&[1.0, 2.0, 3.0], 0.99),
            ),
        ],
        notes: vec!["a \"quoted\" note".to_string()],
    }
}

#[test]
fn a_report_round_trips_through_its_json_line() {
    let report = sample_report();
    let back = Report::from_json(&report.to_json()).unwrap();
    assert_eq!(back, report);

    let stdout = format!(
        "{}{REPORT_PREFIX}{}\n{}\n",
        report.render(),
        report.to_json(),
        report.contract_line()
    );
    assert_eq!(report_in(&stdout).unwrap().unwrap(), report);

    let line: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    let Value::Object(pairs) = &line else {
        panic!("contract line is not an object");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let setup = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
    assert_eq!(setup.get("value"), Some(&Value::Float(0.012_345_678_9)));
    assert_eq!(setup.get("unit"), Some(&Value::Str("s".to_string())));
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let span = |id, parent, start, end| Span {
        id,
        parent,
        name: "x",
        start,
        end,
    };
    let spans = [
        span(0, None, 0.0, 10.0),
        span(1, Some(0), 1.0, 3.0),
        span(2, Some(0), 2.0, 4.0),
        span(3, Some(0), 6.0, 7.0),
        span(4, Some(3), 6.0, 7.0),
        span(5, Some(0), 9.5, 12.0),
    ];
    assert!((self_time(&spans, 0) - 5.5).abs() < 1e-12);
    assert_eq!(self_time(&spans, 3), 0.0);
    assert_eq!(self_time(&spans, 1), 2.0);
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(benchmark: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = benchmark.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|item| match (item.get("name"), item.get("unit")) {
            (Some(Value::Str(name)), Some(Value::Str(unit))) => (name.clone(), unit.clone()),
            _ => panic!("malformed entry in `{key}`"),
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_harness_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let benchmark: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&benchmark, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&benchmark, "per_layer"), owned(PER_LAYER));
}
