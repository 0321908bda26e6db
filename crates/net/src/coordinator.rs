//! The coordinator: a TCP server owning shard-epoch state in memory.
//!
//! One [`Coordinator`] is the meeting point of a sharded run: the submitting
//! flow opens epochs and publishes work here, workers claim and submit here,
//! and nobody touches anybody else's filesystem. State is deliberately *in memory only* — an epoch is
//! scratch space for one batch, and the flow's `drive_epoch` loop already
//! survives total state loss (every request errors, the per-shard fallback
//! services the work locally, the digest is unchanged). Claims are
//! **fenced**: every claim carries a
//! per-shard monotonic token, a claim whose heartbeat lapses can be stolen
//! by re-claiming at a higher token, and a submission is accepted only from
//! the highest token ever issued — so a hung worker that wakes up after its
//! claim was stolen has its late write *rejected*, not merged. Epochs are
//! fenced per run as well: each records the run-claim token of the flow that
//! opened it, and a flow that takes over a run drops its predecessor's
//! epochs ([`Request::CloseRunEpochs`]).

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ayb_obs::{kind as event_kind, Event, Recorder, Severity};
use serde::Value;

use crate::wire::{
    read_frame, write_frame, CoordinatorStats, Request, Response, ShardOutcome, ShardWork,
    ShardWorkKind, WorkerTask,
};

/// Tuning knobs for a [`Coordinator`].
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// A claim whose heartbeat is older than this is considered abandoned
    /// and may be expired (then re-claimed at a higher fencing token).
    pub stale_after: Duration,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            stale_after: Duration::from_secs(60),
        }
    }
}

/// A live claim on one shard.
struct ClaimSlot {
    /// The fencing token minted for this claim.
    token: u64,
    /// Label of the claiming worker (diagnostics).
    owner: String,
    /// Last heartbeat (claim or explicit heartbeat request).
    heartbeat: Instant,
}

/// One shard of one epoch.
#[derive(Default)]
struct ShardSlot {
    work: Option<ShardWork>,
    outcome: Option<ShardOutcome>,
    claim: Option<ClaimSlot>,
    /// Highest fencing token ever issued for this shard. Submissions are
    /// accepted only at exactly this token.
    last_token: u64,
}

impl ShardSlot {
    /// Drops the claim if its heartbeat lapsed. Returns whether it did.
    /// The token counter is *not* rewound: the next claim supersedes the
    /// expired one, which is what fences its holder off.
    fn expire_claim(&mut self, stale_after: Duration) -> bool {
        match &self.claim {
            Some(claim) if claim.heartbeat.elapsed() > stale_after => {
                self.claim = None;
                true
            }
            _ => false,
        }
    }

    /// Whether this shard still needs a worker: published, unfinished,
    /// unclaimed.
    fn claimable(&self) -> bool {
        self.work.is_some() && self.outcome.is_none() && self.claim.is_none()
    }
}

/// One open epoch.
struct EpochSlot {
    kind: ShardWorkKind,
    /// The run that opened the epoch: its store's identity and its id.
    store: String,
    run_id: String,
    /// Run-claim fencing token of the flow that opened the epoch.
    fence: u64,
    context: Option<Value>,
    shards: Vec<ShardSlot>,
}

/// Everything behind the mutex.
struct CoordState {
    /// Open epochs, ordered by name so `ClaimNext` scans deterministically.
    epochs: BTreeMap<String, EpochSlot>,
    /// Epoch name counter, never rewound (not even by [`Coordinator::wipe_state`]).
    next_epoch: u64,
    /// Per run (keyed by store identity and run id), the highest run-claim
    /// token a [`Request::CloseRunEpochs`] presented: opens under a lower
    /// token come from superseded executors.
    run_fences: BTreeMap<(String, String), u64>,
    /// Incremented by [`Coordinator::wipe_state`] and baked into epoch
    /// names, so a "restarted" coordinator can never re-mint a pre-restart
    /// epoch name (a real restart achieves the same with its fresh process).
    boot: u64,
    claims_issued: u64,
    fenced_rejections: u64,
}

struct CoordShared {
    config: CoordinatorConfig,
    state: Mutex<CoordState>,
    /// Telemetry: request counters/latency histogram, claim/fence events.
    /// Lives outside the state mutex — the recorder's own locks are leaves.
    recorder: Recorder,
}

/// The coordinator server. Binding spawns an accept loop (plus one short
/// thread per connection); dropping the handle shuts the server down.
pub struct Coordinator {
    addr: SocketAddr,
    shared: Arc<CoordShared>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Binds the coordinator to `addr` (e.g. `"127.0.0.1:4710"`, or port 0
    /// for an ephemeral port) and starts serving.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] when the address cannot be resolved or
    /// bound.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: CoordinatorConfig) -> io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(CoordShared {
            config,
            state: Mutex::new(CoordState {
                epochs: BTreeMap::new(),
                next_epoch: 0,
                run_fences: BTreeMap::new(),
                boot: 0,
                claims_issued: 0,
                fenced_rejections: 0,
            }),
            recorder: Recorder::new(),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept_shared = Arc::clone(&shared);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = thread::Builder::new()
            .name("ayb-net-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared, &accept_stop))?;
        Ok(Coordinator {
            addr,
            shared,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the coordinator actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The coordinator's address as a `tcp://host:port` transport URL.
    pub fn url(&self) -> String {
        format!("tcp://{}", self.addr)
    }

    /// The coordinator's event recorder. `ayb coordinate` attaches a
    /// stderr sink here so claim/fence events surface in the server log.
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// The coordinator's metrics registry rendered in the text exposition
    /// format, with the state gauges refreshed first — exactly what a
    /// [`Request::Metrics`] frame returns over the wire.
    pub fn metrics_text(&self) -> String {
        let state = self.shared.state.lock().expect("coordinator state lock");
        refresh_state_gauges(&self.shared.recorder, &state);
        drop(state);
        self.shared.recorder.metrics().render_text()
    }

    /// A snapshot of the coordinator's counters.
    pub fn stats(&self) -> CoordinatorStats {
        let state = self.shared.state.lock().expect("coordinator state lock");
        CoordinatorStats {
            epochs: state.epochs.len(),
            open_shards: state
                .epochs
                .values()
                .flat_map(|epoch| &epoch.shards)
                .filter(|slot| slot.work.is_some() && slot.outcome.is_none())
                .count(),
            claims_issued: state.claims_issued,
            fenced_rejections: state.fenced_rejections,
        }
    }

    /// Human-readable one-line descriptions of every open epoch (stage,
    /// submitting run, progress, live claims with their owners and tokens) —
    /// what `ayb coordinate` prints as its periodic status.
    pub fn describe(&self) -> Vec<String> {
        let state = self.shared.state.lock().expect("coordinator state lock");
        state
            .epochs
            .iter()
            .map(|(name, epoch)| {
                let stage = match epoch.kind {
                    ShardWorkKind::Eval => "eval",
                    ShardWorkKind::Variation => "var",
                };
                let done = epoch
                    .shards
                    .iter()
                    .filter(|slot| slot.outcome.is_some())
                    .count();
                let claims: Vec<String> = epoch
                    .shards
                    .iter()
                    .enumerate()
                    .filter_map(|(shard, slot)| {
                        slot.claim
                            .as_ref()
                            .map(|claim| format!("{shard}:{}#{}", claim.owner, claim.token))
                    })
                    .collect();
                let claims = if claims.is_empty() {
                    String::new()
                } else {
                    format!(" claims [{}]", claims.join(", "))
                };
                format!(
                    "{name} ({stage}, run {run}): {done}/{total} shards done{claims}",
                    run = epoch.run_id,
                    total = epoch.shards.len(),
                )
            })
            .collect()
    }

    /// Drops every epoch — claims, published work and results alike — as if
    /// the coordinator process had been killed and restarted (state is in
    /// memory only, so that is exactly what a restart does). The chaos
    /// harness uses this to script coordinator crashes without fighting the
    /// OS for the listening port. Epoch names stay unique across wipes, so
    /// a pre-wipe epoch identifier can never be resurrected.
    pub fn wipe_state(&self) {
        let mut state = self.shared.state.lock().expect("coordinator state lock");
        state.epochs.clear();
        state.run_fences.clear();
        state.boot += 1;
    }

    /// Stops the accept loop and joins it. Dropping the handle does the
    /// same; this form merely makes the shutdown point explicit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// How long the accept loop sleeps between polls of the non-blocking
/// listener (also bounds shutdown latency).
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Per-connection socket timeouts: a peer that stalls longer than this
/// mid-frame is dropped (its claim, if any, expires by heartbeat).
const IO_TIMEOUT: Duration = Duration::from_secs(10);

fn accept_loop(listener: &TcpListener, shared: &Arc<CoordShared>, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name("ayb-net-conn".to_string())
                    .spawn(move || serve_connection(stream, &shared));
                // Out of threads: drop the connection; the client retries or
                // falls back locally.
                drop(spawned);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Arc<CoordShared>) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // Clients are connect-per-request, but serving until EOF costs nothing
    // and keeps the protocol honest for pipelined callers.
    while let Ok(request) = read_frame::<Request>(&mut stream) {
        let response = handle_request(shared, request);
        if write_frame(&mut stream, &response).is_err() {
            break;
        }
    }
}

/// Refreshes the gauges derived from coordinator state (epoch and open
/// shard counts). Called with the state lock held, immediately before a
/// metrics rendering, so scrapes always see current values.
fn refresh_state_gauges(recorder: &Recorder, state: &CoordState) {
    let metrics = recorder.metrics();
    metrics.set_gauge("ayb_coord_epochs", state.epochs.len() as f64);
    metrics.set_gauge(
        "ayb_coord_open_shards",
        state
            .epochs
            .values()
            .flat_map(|epoch| &epoch.shards)
            .filter(|slot| slot.work.is_some() && slot.outcome.is_none())
            .count() as f64,
    );
}

/// An [`Event`] stamped with the coordinator's source label and the
/// shard coordinates every claim-lifecycle event shares.
fn coord_event(severity: Severity, kind: &str, run_id: &str, epoch: &str, shard: usize) -> Event {
    Event::new(severity, "coordinator", kind)
        .run(run_id)
        .epoch(epoch)
        .shard(shard as u64)
}

fn handle_request(shared: &CoordShared, request: Request) -> Response {
    let started = Instant::now();
    let label = request.label();
    let response = dispatch_request(shared, request);
    let metrics = shared.recorder.metrics();
    metrics.inc("ayb_coord_requests_total");
    metrics.inc(&format!("ayb_coord_requests_{label}_total"));
    metrics.observe("ayb_coord_request_seconds", started.elapsed().as_secs_f64());
    response
}

fn dispatch_request(shared: &CoordShared, request: Request) -> Response {
    let mut state = shared.state.lock().expect("coordinator state lock");
    let stale_after = shared.config.stale_after;
    match request {
        Request::OpenEpoch {
            kind,
            shard_count,
            store,
            run_id,
            fence,
            context,
        } => {
            if state
                .run_fences
                .get(&(store.clone(), run_id.clone()))
                .is_some_and(|&floor| fence < floor)
            {
                return Response::Error {
                    message: format!(
                        "run `{run_id}` was taken over by a newer claim; \
                         fencing token {fence} is superseded"
                    ),
                };
            }
            state.next_epoch += 1;
            let prefix = match kind {
                ShardWorkKind::Eval => "ep",
                ShardWorkKind::Variation => "var",
            };
            let epoch = format!("{prefix}-net-{}-{:04}", state.boot, state.next_epoch);
            let mut shards = Vec::with_capacity(shard_count);
            shards.resize_with(shard_count, ShardSlot::default);
            state.epochs.insert(
                epoch.clone(),
                EpochSlot {
                    kind,
                    store,
                    run_id,
                    fence,
                    context,
                    shards,
                },
            );
            Response::EpochOpened { epoch }
        }
        Request::Publish { epoch, shard, work } => match state.epochs.get_mut(&epoch) {
            Some(slot) => {
                if shard >= slot.shards.len() {
                    slot.shards.resize_with(shard + 1, ShardSlot::default);
                }
                slot.shards[shard].work = Some(work);
                Response::Ok
            }
            None => unknown_epoch(&epoch),
        },
        Request::TryClaim {
            epoch,
            shard,
            owner,
        } => {
            let run_id = state
                .epochs
                .get(&epoch)
                .map(|slot| slot.run_id.clone())
                .unwrap_or_default();
            let Some((slot, counters)) = shard_slot(&mut state, &epoch, shard) else {
                return unknown_shard(&epoch, shard);
            };
            slot.expire_claim(stale_after);
            if slot.claimable() {
                slot.last_token += 1;
                let token = slot.last_token;
                let detail = format!("claim granted to `{owner}`");
                slot.claim = Some(ClaimSlot {
                    token,
                    owner,
                    heartbeat: Instant::now(),
                });
                *counters += 1;
                shared.recorder.metrics().inc("ayb_coord_claims_total");
                shared.recorder.emit(
                    coord_event(
                        Severity::Debug,
                        event_kind::SHARD_CLAIM,
                        &run_id,
                        &epoch,
                        shard,
                    )
                    .fence(token)
                    .detail(detail),
                );
                Response::ClaimGranted {
                    granted: true,
                    token,
                }
            } else {
                Response::ClaimGranted {
                    granted: false,
                    token: 0,
                }
            }
        }
        Request::Heartbeat {
            epoch,
            shard,
            token,
        } => {
            if let Some((slot, _)) = shard_slot(&mut state, &epoch, shard) {
                if let Some(claim) = &mut slot.claim {
                    if claim.token == token {
                        claim.heartbeat = Instant::now();
                    }
                }
            }
            // Advisory: a heartbeat against a stolen claim or a closed epoch
            // is not an error, just ineffective.
            Response::Ok
        }
        Request::Submit {
            epoch,
            shard,
            token,
            outcome,
        } => {
            let run_id = state
                .epochs
                .get(&epoch)
                .map(|slot| slot.run_id.clone())
                .unwrap_or_default();
            let Some((slot, _)) = shard_slot(&mut state, &epoch, shard) else {
                return unknown_shard(&epoch, shard);
            };
            if token != slot.last_token {
                state.fenced_rejections += 1;
                shared.recorder.metrics().inc("ayb_coord_fenced_total");
                shared.recorder.emit(
                    coord_event(
                        Severity::Warn,
                        event_kind::SHARD_FENCED,
                        &run_id,
                        &epoch,
                        shard,
                    )
                    .fence(token)
                    .detail("stale submit fenced off: token superseded"),
                );
                return Response::SubmitAck { accepted: false };
            }
            shared.recorder.emit(
                coord_event(
                    Severity::Debug,
                    event_kind::SHARD_SUBMIT,
                    &run_id,
                    &epoch,
                    shard,
                )
                .fence(token),
            );
            if slot.outcome.is_none() {
                slot.outcome = Some(outcome);
            }
            if slot
                .claim
                .as_ref()
                .is_some_and(|claim| claim.token == token)
            {
                slot.claim = None;
            }
            Response::SubmitAck { accepted: true }
        }
        Request::Fetch { epoch, shard } => match shard_slot(&mut state, &epoch, shard) {
            Some((slot, _)) => Response::Outcome {
                outcome: slot.outcome.clone(),
            },
            None => unknown_shard(&epoch, shard),
        },
        Request::Recover { epoch, shard } => {
            let run_id = state
                .epochs
                .get(&epoch)
                .map(|slot| slot.run_id.clone())
                .unwrap_or_default();
            match shard_slot(&mut state, &epoch, shard) {
                Some((slot, _)) => {
                    let owner = slot.claim.as_ref().map(|claim| claim.owner.clone());
                    let expired = slot.expire_claim(stale_after);
                    if expired {
                        shared.recorder.emit(
                            coord_event(
                                Severity::Warn,
                                event_kind::SHARD_RECOVER,
                                &run_id,
                                &epoch,
                                shard,
                            )
                            .detail(format!(
                                "stale claim of `{}` expired",
                                owner.unwrap_or_default()
                            )),
                        );
                    }
                    Response::Recovered { expired }
                }
                None => unknown_shard(&epoch, shard),
            }
        }
        Request::CloseEpoch { epoch } => {
            state.epochs.remove(&epoch);
            Response::Ok
        }
        Request::CloseRunEpochs {
            store,
            run_id,
            fence,
        } => {
            let before = state.epochs.len();
            state.epochs.retain(|_, epoch| {
                epoch.store != store || epoch.run_id != run_id || epoch.fence >= fence
            });
            let floor = state.run_fences.entry((store, run_id)).or_insert(0);
            *floor = (*floor).max(fence);
            Response::RunEpochsClosed {
                closed: before - state.epochs.len(),
            }
        }
        Request::ClaimNext { owner } => {
            let mut claimed = None;
            let mut claims = 0;
            'epochs: for (name, epoch) in &mut state.epochs {
                for (shard, slot) in epoch.shards.iter_mut().enumerate() {
                    slot.expire_claim(stale_after);
                    if slot.claimable() {
                        slot.last_token += 1;
                        let token = slot.last_token;
                        slot.claim = Some(ClaimSlot {
                            token,
                            owner: owner.clone(),
                            heartbeat: Instant::now(),
                        });
                        claims += 1;
                        claimed = Some(WorkerTask {
                            run_id: epoch.run_id.clone(),
                            epoch: name.clone(),
                            shard,
                            token,
                            work: slot.work.clone().expect("claimable shard has work"),
                            context: epoch.context.clone(),
                        });
                        break 'epochs;
                    }
                }
            }
            state.claims_issued += claims;
            if let Some(task) = &claimed {
                shared.recorder.metrics().inc("ayb_coord_claims_total");
                shared.recorder.emit(
                    coord_event(
                        Severity::Debug,
                        event_kind::SHARD_CLAIM,
                        &task.run_id,
                        &task.epoch,
                        task.shard,
                    )
                    .fence(task.token)
                    .detail(format!("claim granted to `{owner}`")),
                );
            }
            Response::Task { task: claimed }
        }
        Request::Stats => {
            let stats = CoordinatorStats {
                epochs: state.epochs.len(),
                open_shards: state
                    .epochs
                    .values()
                    .flat_map(|epoch| &epoch.shards)
                    .filter(|slot| slot.work.is_some() && slot.outcome.is_none())
                    .count(),
                claims_issued: state.claims_issued,
                fenced_rejections: state.fenced_rejections,
            };
            Response::Stats { stats }
        }
        Request::Metrics => {
            refresh_state_gauges(&shared.recorder, &state);
            Response::Metrics {
                text: shared.recorder.metrics().render_text(),
            }
        }
    }
}

/// Looks up one shard slot, alongside a borrow of the claims-issued counter
/// (the borrow checker will not hand out `&mut state` twice).
fn shard_slot<'a>(
    state: &'a mut CoordState,
    epoch: &str,
    shard: usize,
) -> Option<(&'a mut ShardSlot, &'a mut u64)> {
    let CoordState {
        epochs,
        claims_issued,
        ..
    } = state;
    let slot = epochs.get_mut(epoch)?.shards.get_mut(shard)?;
    Some((slot, claims_issued))
}

fn unknown_epoch(epoch: &str) -> Response {
    Response::Error {
        message: format!("unknown epoch `{epoch}` (closed, or the coordinator restarted)"),
    }
}

fn unknown_shard(epoch: &str, shard: usize) -> Response {
    Response::Error {
        message: format!(
            "unknown shard {shard} of epoch `{epoch}` (closed, or the coordinator restarted)"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{VariationOutcome, VariationPointWork};
    use crate::TcpTransport;
    use ayb_moo::ShardTransport;

    fn coordinator(stale_after: Duration) -> Coordinator {
        Coordinator::bind("127.0.0.1:0", CoordinatorConfig { stale_after })
            .expect("coordinator binds an ephemeral port")
    }

    fn transport(coordinator: &Coordinator) -> TcpTransport {
        TcpTransport::from_url(&coordinator.url()).expect("coordinator URL parses")
    }

    #[test]
    fn epoch_roundtrip_over_tcp() {
        let coordinator = coordinator(Duration::from_secs(60));
        let plane = transport(&coordinator);
        let epoch = plane.open_epoch(2).unwrap();
        plane
            .publish(&epoch, 0, &[vec![0.1, 0.2], vec![0.3, 0.4]])
            .unwrap();
        plane.publish(&epoch, 1, &[vec![0.5, 0.6]]).unwrap();
        assert_eq!(plane.fetch(&epoch, 0).unwrap(), None);
        assert!(plane.try_claim(&epoch, 0).unwrap());
        assert!(!plane.try_claim(&epoch, 0).unwrap(), "claims are exclusive");
        plane.submit(&epoch, 0, &vec![None, None]).unwrap();
        assert_eq!(plane.fetch(&epoch, 0).unwrap(), Some(vec![None, None]));
        // A submitted shard cannot be re-claimed.
        assert!(!plane.try_claim(&epoch, 0).unwrap());
        plane.close_epoch(&epoch).unwrap();
        assert!(
            plane.fetch(&epoch, 0).is_err(),
            "a closed epoch is gone entirely"
        );
    }

    #[test]
    fn stale_claims_expire_and_reclaim_at_higher_token() {
        let coordinator = coordinator(Duration::from_millis(40));
        let plane = transport(&coordinator);
        let epoch = plane.open_epoch(1).unwrap();
        plane.publish(&epoch, 0, &[vec![1.0]]).unwrap();
        let first = plane
            .try_claim_token(&epoch, 0, "w1")
            .unwrap()
            .expect("first claim granted");
        // Heartbeats keep the claim alive across the staleness bound...
        std::thread::sleep(Duration::from_millis(25));
        plane.heartbeat(&epoch, 0, first).unwrap();
        std::thread::sleep(Duration::from_millis(25));
        assert!(
            !plane.recover(&epoch, 0).unwrap(),
            "heartbeat kept it fresh"
        );
        // ...then the worker hangs: the heartbeat lapses and recovery expires
        // the claim.
        std::thread::sleep(Duration::from_millis(60));
        assert!(plane.recover(&epoch, 0).unwrap());
        let second = plane
            .try_claim_token(&epoch, 0, "w2")
            .unwrap()
            .expect("shard reclaimable after expiry");
        assert!(second > first, "fencing tokens are monotonic per shard");
    }

    #[test]
    fn late_submission_from_stolen_claim_is_fenced_off() {
        let coordinator = coordinator(Duration::from_millis(30));
        let plane = transport(&coordinator);
        let epoch = plane.open_epoch(1).unwrap();
        plane.publish(&epoch, 0, &[vec![1.0], vec![2.0]]).unwrap();
        let zombie = plane
            .try_claim_token(&epoch, 0, "zombie")
            .unwrap()
            .expect("zombie claims first");
        std::thread::sleep(Duration::from_millis(60));
        assert!(plane.recover(&epoch, 0).unwrap(), "hung claim expired");
        let fresh = plane
            .try_claim_token(&epoch, 0, "steward")
            .unwrap()
            .expect("steward re-claims");
        // The zombie wakes up and submits: rejected, nothing stored.
        let results = ShardOutcome::Eval {
            results: vec![None, None],
        };
        assert!(!plane
            .submit_with_token(&epoch, 0, zombie, &results)
            .unwrap());
        assert_eq!(plane.fetch(&epoch, 0).unwrap(), None);
        // The steward's submission (highest token) lands.
        assert!(plane.submit_with_token(&epoch, 0, fresh, &results).unwrap());
        assert_eq!(plane.fetch(&epoch, 0).unwrap(), Some(vec![None, None]));
        let stats = coordinator.stats();
        assert_eq!(stats.fenced_rejections, 1);
        assert_eq!(stats.claims_issued, 2);
    }

    #[test]
    fn claim_next_hands_out_work_with_context() {
        let coordinator = coordinator(Duration::from_secs(60));
        let plane = transport(&coordinator).with_run_context(
            "store-a",
            "run-0042",
            1,
            Value::Object(vec![("threads".to_string(), Value::Int(2))]),
        );
        let epoch = plane.open_typed_epoch(ShardWorkKind::Variation, 1).unwrap();
        let point = VariationPointWork {
            parameters: vec![0.5, 0.5],
            mc_seed: 77,
        };
        plane
            .publish_work(
                &epoch,
                0,
                &ShardWork::VariationBatch {
                    points: vec![point.clone()],
                },
            )
            .unwrap();
        let task = plane
            .claim_next("worker-a")
            .unwrap()
            .expect("published work is claimable");
        assert_eq!(task.run_id, "run-0042");
        assert_eq!(task.epoch, epoch);
        assert_eq!(task.shard, 0);
        assert!(task.context.is_some(), "flow context travels with the task");
        assert_eq!(
            task.work,
            ShardWork::VariationBatch {
                points: vec![point]
            }
        );
        // Nothing else to hand out while the claim is live.
        assert_eq!(plane.claim_next("worker-b").unwrap(), None);
        let description = coordinator.describe().join("\n");
        assert!(
            description.contains("run run-0042") && description.contains("worker-a#1"),
            "coordinator describes its claims: {description}"
        );
        let outcome = ShardOutcome::VariationBatch {
            points: vec![VariationOutcome {
                data: None,
                elapsed_seconds: 0.25,
            }],
        };
        assert!(plane.submit_task(&task, &outcome).unwrap());
        assert_eq!(plane.fetch_outcome(&epoch, 0).unwrap(), Some(outcome));
    }

    #[test]
    fn a_new_run_claim_closes_its_predecessors_epochs() {
        let coordinator = coordinator(Duration::from_secs(60));
        let context = Value::Object(Vec::new());
        let crashed =
            transport(&coordinator).with_run_context("store-a", "run-7", 3, context.clone());
        let stale = crashed.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        crashed.publish(&stale, 0, &[vec![1.0]]).unwrap();
        let other =
            transport(&coordinator).with_run_context("store-a", "run-8", 1, context.clone());
        let bystander = other.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();

        // The successor (a higher run-claim token) drops the stale epoch —
        // and only that one.
        let successor = transport(&coordinator).with_run_context("store-a", "run-7", 4, context);
        assert_eq!(successor.close_run_epochs().unwrap(), 1);
        assert!(
            successor.fetch(&stale, 0).is_err(),
            "the stale epoch is gone"
        );
        assert_eq!(other.fetch(&bystander, 0).unwrap(), None);
        assert_eq!(successor.claim_next("worker").unwrap(), None);

        // The superseded executor can neither open new epochs nor close the
        // successor's.
        assert!(crashed.open_typed_epoch(ShardWorkKind::Eval, 1).is_err());
        let fresh = successor.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        assert_eq!(crashed.close_run_epochs().unwrap(), 0);
        assert_eq!(successor.fetch(&fresh, 0).unwrap(), None);
        assert_eq!(coordinator.stats().epochs, 2);
    }

    #[test]
    fn same_named_runs_of_different_stores_never_fence_each_other() {
        let coordinator = coordinator(Duration::from_secs(60));
        let context = Value::Object(Vec::new());
        // Store A's first attempt at its run-0001 is live...
        let a = transport(&coordinator).with_run_context("store-a", "run-0001", 1, context.clone());
        let live = a.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        // ...when store B resumes its own run-0001 under a higher token.
        let b = transport(&coordinator).with_run_context("store-b", "run-0001", 2, context.clone());
        assert_eq!(b.close_run_epochs().unwrap(), 0, "A's epoch is not B's");
        assert_eq!(a.fetch(&live, 0).unwrap(), None, "A's epoch survives");
        assert!(a.open_typed_epoch(ShardWorkKind::Eval, 1).is_ok());
        // A fresh run-0001 of a third store starts at token 1 unhindered.
        let c = transport(&coordinator).with_run_context("store-c", "run-0001", 1, context);
        assert_eq!(c.close_run_epochs().unwrap(), 0);
        assert!(c.open_typed_epoch(ShardWorkKind::Eval, 1).is_ok());
        assert_eq!(coordinator.stats().epochs, 3);
    }

    #[test]
    fn wipe_state_forgets_epochs_but_not_names() {
        let coordinator = coordinator(Duration::from_secs(60));
        let plane = transport(&coordinator);
        let before = plane.open_epoch(1).unwrap();
        plane.publish(&before, 0, &[vec![1.0]]).unwrap();
        coordinator.wipe_state();
        assert!(
            plane.fetch(&before, 0).is_err(),
            "pre-wipe epochs are unknown after the wipe"
        );
        let after = plane.open_epoch(1).unwrap();
        assert_ne!(before, after, "epoch names are never reused across wipes");
        assert_eq!(coordinator.stats().epochs, 1);
    }

    #[test]
    fn metrics_scrape_reports_claims_and_fences() {
        let coordinator = coordinator(Duration::from_millis(30));
        let plane = transport(&coordinator);
        let epoch = plane.open_epoch(1).unwrap();
        plane.publish(&epoch, 0, &[vec![1.0]]).unwrap();
        let zombie = plane.try_claim_token(&epoch, 0, "zombie").unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert!(plane.recover(&epoch, 0).unwrap());
        let fresh = plane
            .try_claim_token(&epoch, 0, "steward")
            .unwrap()
            .unwrap();
        let results = ShardOutcome::Eval {
            results: vec![None],
        };
        assert!(!plane
            .submit_with_token(&epoch, 0, zombie, &results)
            .unwrap());
        assert!(plane.submit_with_token(&epoch, 0, fresh, &results).unwrap());
        let text = plane
            .coordinator_metrics()
            .expect("metrics scrape over the wire");
        assert!(text.contains("ayb_coord_claims_total 2"), "{text}");
        assert!(text.contains("ayb_coord_fenced_total 1"), "{text}");
        assert!(text.contains("ayb_coord_epochs 1"), "{text}");
        assert!(
            text.contains("ayb_coord_request_seconds_count"),
            "request latency histogram is exported: {text}"
        );
        // The local render agrees on the counters (the scrape itself has
        // bumped the request totals since, so no exact text equality).
        let local = coordinator.metrics_text();
        assert!(local.contains("ayb_coord_claims_total 2"), "{local}");
        assert!(local.contains("ayb_coord_fenced_total 1"), "{local}");
        // The coordinator's own event stream carries the fence forensics.
        let events = coordinator.recorder().recent();
        let fenced: Vec<_> = events
            .iter()
            .filter(|event| event.kind == event_kind::SHARD_FENCED)
            .collect();
        assert_eq!(fenced.len(), 1);
        assert_eq!(fenced[0].fence, Some(zombie));
        assert_eq!(
            events
                .iter()
                .filter(|event| event.kind == event_kind::SHARD_CLAIM)
                .count(),
            2
        );
        assert_eq!(
            events
                .iter()
                .filter(|event| event.kind == event_kind::SHARD_RECOVER)
                .count(),
            1
        );
    }

    #[test]
    fn transport_recorder_sees_both_sides_of_a_fenced_submit() {
        let coordinator = coordinator(Duration::from_millis(30));
        let recorder = Recorder::new();
        let plane = transport(&coordinator).with_recorder(recorder.clone());
        let epoch = plane.open_epoch(1).unwrap();
        plane.publish(&epoch, 0, &[vec![1.0]]).unwrap();
        let zombie = plane.try_claim_token(&epoch, 0, "zombie").unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert!(plane.recover(&epoch, 0).unwrap());
        let fresh = plane
            .try_claim_token(&epoch, 0, "steward")
            .unwrap()
            .unwrap();
        let results = ShardOutcome::Eval {
            results: vec![None],
        };
        assert!(!plane
            .submit_with_token(&epoch, 0, zombie, &results)
            .unwrap());
        assert!(plane.submit_with_token(&epoch, 0, fresh, &results).unwrap());
        let events = recorder.recent();
        let fenced: Vec<_> = events
            .iter()
            .filter(|event| event.kind == event_kind::SHARD_FENCED)
            .collect();
        assert_eq!(fenced.len(), 1, "client records its own fenced submit");
        assert_eq!(fenced[0].fence, Some(zombie));
        assert_eq!(
            events
                .iter()
                .filter(|event| event.kind == event_kind::SHARD_SUBMIT)
                .count(),
            1
        );
        // Every round-trip landed in the latency histogram.
        let histogram = recorder
            .metrics()
            .histogram("ayb_shard_request_seconds")
            .expect("request latency histogram exists");
        assert_eq!(histogram.count(), plane.stats().requests);
    }

    #[test]
    fn requests_against_a_dead_coordinator_are_transport_errors() {
        let coordinator = coordinator(Duration::from_secs(60));
        let plane = transport(&coordinator);
        let epoch = plane.open_epoch(1).unwrap();
        coordinator.shutdown();
        let error = plane.fetch(&epoch, 0).expect_err("socket is gone");
        let ayb_moo::ShardError::Transport(message) = error;
        assert!(!message.is_empty());
    }
}
