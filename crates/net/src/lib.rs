//! The shard data plane: shard epochs over TCP.
//!
//! A sharded flow splits its heavy batches — each optimiser population, and
//! the Monte Carlo variation stage's Pareto points — into shards that any
//! number of worker processes may service. This crate is the one plane
//! those shards travel through, built on `std::net` and the vendored JSON
//! stack (no new dependencies):
//!
//! * **[`wire`]** — a length-prefixed JSON frame format, the typed shard
//!   payloads ([`ShardWork`] / [`ShardOutcome`]) and the request/response
//!   vocabulary spoken over it;
//! * **[`Coordinator`]** — a thread-per-connection TCP server owning epoch
//!   state *in memory*: it opens typed epochs, hands out claims stamped with
//!   **monotonic fencing tokens**, expires claims whose heartbeats lapse,
//!   and accepts a shard's result only from the holder of the *highest*
//!   token ever issued for that shard — a late write from a stolen (hung,
//!   then superseded) claim is rejected, not merged. `ayb coordinate` runs
//!   one standalone; every `ayb serve` without `--transport` hosts one
//!   in-process and advertises it in its store;
//! * **[`TcpTransport`]** — the client: a
//!   [`ShardTransport`](ayb_moo::ShardTransport) implementation plus the
//!   typed epoch API the variation stage uses, so
//!   `ShardedEvaluator`/`drive_epoch` run over TCP unchanged, and a
//!   worker-facing [`TcpTransport::claim_next`] that carries the run's
//!   `FlowConfig` over the wire so workers need no access to the run store
//!   at all.
//!
//! Determinism is untouched: the coordinator stores opaque payloads and the
//! submitting flow reassembles results in index order. If the coordinator
//! dies, every request errors, `drive_epoch`'s per-shard fallback services
//! the work locally, and the digest is unchanged — the coordinator is an
//! accelerator, never a correctness dependency.
//!
//! One shard's round trip — open an epoch, publish, claim, submit, fetch,
//! close — against a coordinator on an ephemeral loopback port:
//!
//! ```
//! use ayb_moo::{Evaluation, ShardTransport};
//! use ayb_net::{Coordinator, CoordinatorConfig, TcpTransport};
//!
//! let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default()).unwrap();
//! let plane = TcpTransport::from_url(&coordinator.url()).unwrap();
//! let epoch = plane.open_epoch(1).unwrap();
//! plane.publish(&epoch, 0, &[vec![0.5, 0.5]]).unwrap();
//! assert!(plane.try_claim(&epoch, 0).unwrap());
//! let results = vec![Some(Evaluation::new(vec![0.5, 0.5], vec![1.0]))];
//! plane.submit(&epoch, 0, &results).unwrap();
//! assert_eq!(plane.fetch(&epoch, 0).unwrap(), Some(results));
//! plane.close_epoch(&epoch).unwrap();
//! assert_eq!(coordinator.stats().epochs, 0);
//! ```

#![deny(missing_docs)]

mod coordinator;
mod transport;
pub mod wire;

pub use coordinator::{Coordinator, CoordinatorConfig};
pub use transport::{ClaimPulse, TcpTransport, TransportStats};
pub use wire::{
    CoordinatorStats, Request, Response, ShardOutcome, ShardWork, ShardWorkKind, VariationOutcome,
    VariationPointWork, WorkerTask,
};

/// Parses a `tcp://host:port` transport URL into its `host:port` socket
/// address, rejecting anything else.
///
/// This is the single parser behind [`TcpTransport::from_url`] and the CLI's
/// `--transport` flag, so both reject malformed selectors identically.
///
/// # Errors
///
/// Returns a human-readable message when `url` does not have the form
/// `tcp://host:port`.
pub fn parse_transport_url(url: &str) -> Result<String, String> {
    let Some(addr) = url.strip_prefix("tcp://") else {
        return Err(format!(
            "transport `{url}` is not supported: expected `tcp://host:port`"
        ));
    };
    let (host, port) = addr
        .rsplit_once(':')
        .ok_or_else(|| format!("transport `{url}` lacks a port: expected `tcp://host:port`"))?;
    if host.is_empty() {
        return Err(format!(
            "transport `{url}` lacks a host: expected `tcp://host:port`"
        ));
    }
    port.parse::<u16>()
        .map_err(|_| format!("transport `{url}` has an invalid port `{port}`"))?;
    Ok(addr.to_string())
}

#[cfg(test)]
mod tests {
    use super::parse_transport_url;

    #[test]
    fn transport_urls_parse_or_reject() {
        assert_eq!(
            parse_transport_url("tcp://127.0.0.1:4710").unwrap(),
            "127.0.0.1:4710"
        );
        assert_eq!(
            parse_transport_url("tcp://coordinator.example:80").unwrap(),
            "coordinator.example:80"
        );
        for bad in [
            "127.0.0.1:4710",
            "udp://127.0.0.1:4710",
            "tcp://127.0.0.1",
            "tcp://:4710",
            "tcp://host:notaport",
            "tcp://host:70000",
        ] {
            assert!(
                parse_transport_url(bad).is_err(),
                "{bad} should be rejected"
            );
        }
    }
}
