//! The client side: a [`ShardTransport`] over TCP, plus the typed epoch API
//! the variation stage drives and the `claim_next` entry point job workers
//! poll.
//!
//! A [`TcpTransport`] holds no connection — every call dials the
//! coordinator, exchanges exactly one request/response frame and closes.
//! That makes the client trivially `Clone + Send + Sync` (clones share the
//! token table and the stats), keeps the coordinator free of per-client
//! connection state, and makes every call an independent failure domain:
//! any socket or protocol error surfaces as
//! [`ShardError::Transport`], which `drive_epoch` already converts into
//! "service this shard locally" after three strikes.
//!
//! Fencing is transparent to the `ShardTransport` consumer: a granted claim's
//! token is remembered per `(epoch, shard)` and attached to the matching
//! submit; a submission the coordinator fences off is *dropped silently*
//! (the shard's accepted result is identical by determinism) but counted in
//! [`TransportStats::fenced_rejections`].

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ayb_moo::{ShardError, ShardResults, ShardTransport};
use ayb_obs::{kind as event_kind, Event, Recorder, Severity};
use serde::Value;

use crate::wire::{
    read_frame, write_frame, Request, Response, ShardOutcome, ShardWork, ShardWorkKind, WorkerTask,
};

/// Per-call socket timeouts. Generous: a coordinator that takes longer than
/// this per request is effectively down, and the caller's fallback path is
/// the right response.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Cumulative client-side transport counters, shared by all clones of one
/// [`TcpTransport`]. The flow folds these into its timings so the
/// transport's cost is measured, not guessed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportStats {
    /// Requests attempted (successful or not).
    pub requests: u64,
    /// Wall-clock seconds spent in request round-trips, cumulatively.
    pub request_seconds: f64,
    /// Submissions this client had fenced off (token superseded).
    pub fenced_rejections: u64,
}

/// A [`ShardTransport`] speaking the wire protocol of an
/// [`ayb_net::Coordinator`](crate::Coordinator).
#[derive(Clone)]
pub struct TcpTransport {
    /// Coordinator socket address, `host:port`.
    addr: String,
    /// Identity of the submitting run's store, announced with `run_id`.
    store: String,
    /// Run identifier announced when opening epochs.
    run_id: String,
    /// Fencing token of the submitting flow's run claim.
    fence: u64,
    /// Submitter context forwarded to workers (the run's flow config).
    context: Option<Value>,
    /// Fencing tokens of claims this client holds, per `(epoch, shard)`.
    tokens: Arc<Mutex<HashMap<(String, usize), u64>>>,
    stats: Arc<Mutex<TransportStats>>,
    /// Optional telemetry: request latency and claim/fence events.
    recorder: Option<Recorder>,
}

impl TcpTransport {
    /// A transport dialing `addr` (`host:port`). No connection is made until
    /// the first call.
    pub fn connect(addr: impl Into<String>) -> TcpTransport {
        TcpTransport {
            addr: addr.into(),
            store: String::new(),
            run_id: String::new(),
            fence: 0,
            context: None,
            tokens: Arc::new(Mutex::new(HashMap::new())),
            stats: Arc::new(Mutex::new(TransportStats::default())),
            recorder: None,
        }
    }

    /// Builds a transport from a `tcp://host:port` URL.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for a malformed URL (wrong scheme,
    /// missing host or port).
    pub fn from_url(url: &str) -> Result<TcpTransport, String> {
        crate::parse_transport_url(url).map(TcpTransport::connect)
    }

    /// The coordinator address this transport dials, as a `tcp://` URL.
    pub fn url(&self) -> String {
        format!("tcp://{}", self.addr)
    }

    /// Attaches the submitting run's identity — its store's identity, its
    /// id and the fencing token of the run claim the flow holds — and
    /// context (its serialized flow configuration); all travel inside every
    /// subsequently opened epoch so that workers can service its shards
    /// store-free, and so the coordinator can tell this executor's epochs
    /// from a predecessor's (and from a same-named run of another store).
    #[must_use]
    pub fn with_run_context(
        mut self,
        store: &str,
        run_id: &str,
        fence: u64,
        context: Value,
    ) -> TcpTransport {
        self.store = store.to_string();
        self.run_id = run_id.to_string();
        self.fence = fence;
        self.context = Some(context);
        self
    }

    /// Attaches an event recorder: every request round-trip lands in the
    /// `ayb_shard_request_seconds` histogram, and claim/fence outcomes are
    /// emitted as events alongside the [`TransportStats`] counters.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> TcpTransport {
        self.recorder = Some(recorder);
        self
    }

    /// A snapshot of the cumulative transport counters (shared across
    /// clones).
    pub fn stats(&self) -> TransportStats {
        *self.stats.lock().expect("transport stats lock")
    }

    /// An [`Event`] stamped with this transport's source label and run id.
    fn event(&self, severity: Severity, kind: &str) -> Event {
        let event = Event::new(severity, "transport", kind);
        if self.run_id.is_empty() {
            event
        } else {
            event.run(&self.run_id)
        }
    }

    /// Emits `event` when a recorder is attached; a no-op otherwise.
    fn emit(&self, event: Event) {
        if let Some(recorder) = &self.recorder {
            recorder.emit(event);
        }
    }

    /// One request/response exchange, with stats accounting. Protocol-level
    /// [`Response::Error`]s are converted into [`ShardError::Transport`]
    /// here so callers only ever see the ordinary response variants.
    fn call(&self, request: &Request) -> Result<Response, ShardError> {
        let started = Instant::now();
        let outcome = self.call_inner(request);
        let elapsed = started.elapsed().as_secs_f64();
        {
            let mut stats = self.stats.lock().expect("transport stats lock");
            stats.requests += 1;
            stats.request_seconds += elapsed;
        }
        if let Some(recorder) = &self.recorder {
            recorder
                .metrics()
                .observe("ayb_shard_request_seconds", elapsed);
            recorder.emit(
                self.event(Severity::Debug, event_kind::SHARD_REQUEST)
                    .value(elapsed)
                    .detail(request.label()),
            );
        }
        match outcome? {
            Response::Error { message } => Err(ShardError::Transport(message)),
            response => Ok(response),
        }
    }

    fn call_inner(&self, request: &Request) -> Result<Response, ShardError> {
        let fail = |e: std::io::Error| ShardError::Transport(format!("{}: {e}", self.addr));
        let mut stream = TcpStream::connect(&self.addr).map_err(fail)?;
        stream.set_read_timeout(Some(CALL_TIMEOUT)).map_err(fail)?;
        stream.set_write_timeout(Some(CALL_TIMEOUT)).map_err(fail)?;
        write_frame(&mut stream, request).map_err(fail)?;
        read_frame(&mut stream).map_err(fail)
    }

    fn unexpected(response: &Response) -> ShardError {
        ShardError::Transport(format!("unexpected coordinator response: {response:?}"))
    }

    // ------------------------------------------------------------------
    // Typed epoch API (the variation stage and the `ShardTransport` impl
    // below are both thin layers over these).
    // ------------------------------------------------------------------

    /// Opens a typed epoch of `shard_count` shards.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the coordinator is unreachable
    /// or answers out of protocol.
    pub fn open_typed_epoch(
        &self,
        kind: ShardWorkKind,
        shard_count: usize,
    ) -> Result<String, ShardError> {
        match self.call(&Request::OpenEpoch {
            store: self.store.clone(),
            kind,
            shard_count,
            run_id: self.run_id.clone(),
            fence: self.fence,
            context: self.context.clone(),
        })? {
            Response::EpochOpened { epoch } => Ok(epoch),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Drops every epoch of this transport's run that was opened under a
    /// lower run-claim token than its own — the leftovers of a crashed
    /// predecessor — and returns how many there were. Only the current
    /// claim holder may call this: a flow sends it right after taking the
    /// run's claim, so workers never service a dead attempt's shards.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the coordinator is
    /// unreachable.
    pub fn close_run_epochs(&self) -> Result<usize, ShardError> {
        match self.call(&Request::CloseRunEpochs {
            store: self.store.clone(),
            run_id: self.run_id.clone(),
            fence: self.fence,
        })? {
            Response::RunEpochsClosed { closed } => Ok(closed),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Publishes shard `shard`'s typed work payload.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the epoch is unknown or the
    /// coordinator is unreachable.
    pub fn publish_work(
        &self,
        epoch: &str,
        shard: usize,
        work: &ShardWork,
    ) -> Result<(), ShardError> {
        match self.call(&Request::Publish {
            epoch: epoch.to_string(),
            shard,
            work: work.clone(),
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Attempts to claim shard `shard`, returning the claim's fencing token
    /// when granted (and remembering it for the matching submit).
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the epoch is unknown or the
    /// coordinator is unreachable.
    pub fn try_claim_token(
        &self,
        epoch: &str,
        shard: usize,
        owner: &str,
    ) -> Result<Option<u64>, ShardError> {
        match self.call(&Request::TryClaim {
            epoch: epoch.to_string(),
            shard,
            owner: owner.to_string(),
        })? {
            Response::ClaimGranted {
                granted: true,
                token,
            } => {
                self.tokens
                    .lock()
                    .expect("transport token lock")
                    .insert((epoch.to_string(), shard), token);
                self.emit(
                    self.event(Severity::Debug, event_kind::SHARD_CLAIM)
                        .epoch(epoch)
                        .shard(shard as u64)
                        .fence(token)
                        .detail(format!("claim granted to `{owner}`")),
                );
                Ok(Some(token))
            }
            Response::ClaimGranted { granted: false, .. } => Ok(None),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Refreshes the heartbeat of the claim holding `token`.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the coordinator is
    /// unreachable. (A stolen claim's heartbeat is silently ineffective.)
    pub fn heartbeat(&self, epoch: &str, shard: usize, token: u64) -> Result<(), ShardError> {
        match self.call(&Request::Heartbeat {
            epoch: epoch.to_string(),
            shard,
            token,
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Submits a typed outcome under this client's remembered token for the
    /// shard (token 0 — "never claimed" — when there is none). A fenced-off
    /// submission is counted and dropped: by determinism the accepted result
    /// is identical, so the caller need not care.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the epoch is unknown or the
    /// coordinator is unreachable.
    pub fn submit_outcome(
        &self,
        epoch: &str,
        shard: usize,
        outcome: &ShardOutcome,
    ) -> Result<(), ShardError> {
        let token = self
            .tokens
            .lock()
            .expect("transport token lock")
            .get(&(epoch.to_string(), shard))
            .copied()
            .unwrap_or(0);
        self.submit_with_token(epoch, shard, token, outcome)
            .map(|_accepted| ())
    }

    /// Submits a typed outcome under an explicit fencing token, returning
    /// whether the coordinator accepted it (`false`: fenced off).
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the epoch is unknown or the
    /// coordinator is unreachable.
    pub fn submit_with_token(
        &self,
        epoch: &str,
        shard: usize,
        token: u64,
        outcome: &ShardOutcome,
    ) -> Result<bool, ShardError> {
        match self.call(&Request::Submit {
            epoch: epoch.to_string(),
            shard,
            token,
            outcome: outcome.clone(),
        })? {
            Response::SubmitAck { accepted } => {
                if !accepted {
                    self.stats
                        .lock()
                        .expect("transport stats lock")
                        .fenced_rejections += 1;
                    self.emit(
                        self.event(Severity::Warn, event_kind::SHARD_FENCED)
                            .epoch(epoch)
                            .shard(shard as u64)
                            .fence(token)
                            .detail("submit fenced off: claim was stolen"),
                    );
                } else {
                    self.emit(
                        self.event(Severity::Debug, event_kind::SHARD_SUBMIT)
                            .epoch(epoch)
                            .shard(shard as u64)
                            .fence(token),
                    );
                }
                Ok(accepted)
            }
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Fetches shard `shard`'s typed outcome, if one has been accepted.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the epoch is unknown or the
    /// coordinator is unreachable.
    pub fn fetch_outcome(
        &self,
        epoch: &str,
        shard: usize,
    ) -> Result<Option<ShardOutcome>, ShardError> {
        match self.call(&Request::Fetch {
            epoch: epoch.to_string(),
            shard,
        })? {
            Response::Outcome { outcome } => Ok(outcome),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Claims the next available shard of *any* open epoch for `owner`,
    /// returning the self-contained task (work + token + submitter context)
    /// or `None` when the coordinator has nothing to hand out. This is the
    /// entry point every `ayb serve` worker polls; note the
    /// worker needs no access to the submitter's store.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the coordinator is
    /// unreachable.
    pub fn claim_next(&self, owner: &str) -> Result<Option<WorkerTask>, ShardError> {
        match self.call(&Request::ClaimNext {
            owner: owner.to_string(),
        })? {
            Response::Task { task } => Ok(task),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Submits the outcome of a task claimed via [`TcpTransport::claim_next`]
    /// under the task's own token. Returns whether it was accepted
    /// (`false`: this worker was presumed hung and its claim was stolen; the
    /// result was discarded).
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the coordinator is
    /// unreachable (the epoch may legitimately be gone if the submitter
    /// already finished or abandoned it).
    pub fn submit_task(
        &self,
        task: &WorkerTask,
        outcome: &ShardOutcome,
    ) -> Result<bool, ShardError> {
        self.submit_with_token(&task.epoch, task.shard, task.token, outcome)
    }

    /// Requests the coordinator's counters.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the coordinator is
    /// unreachable.
    pub fn coordinator_stats(&self) -> Result<crate::CoordinatorStats, ShardError> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Scrapes the coordinator's metrics registry in the text exposition
    /// format — what `ayb top --transport tcp://…` renders for a live
    /// fleet view.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the coordinator is
    /// unreachable or predates the `Metrics` request.
    pub fn coordinator_metrics(&self) -> Result<String, ShardError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(Self::unexpected(&other)),
        }
    }
}

impl ShardTransport for TcpTransport {
    fn open_epoch(&self, shard_count: usize) -> Result<String, ShardError> {
        self.open_typed_epoch(ShardWorkKind::Eval, shard_count)
    }

    fn publish(
        &self,
        epoch: &str,
        shard: usize,
        parameters: &[Vec<f64>],
    ) -> Result<(), ShardError> {
        self.publish_work(
            epoch,
            shard,
            &ShardWork::Eval {
                parameters: parameters.to_vec(),
            },
        )
    }

    fn try_claim(&self, epoch: &str, shard: usize) -> Result<bool, ShardError> {
        self.try_claim_token(epoch, shard, "shard-submitter")
            .map(|token| token.is_some())
    }

    fn submit(&self, epoch: &str, shard: usize, results: &ShardResults) -> Result<(), ShardError> {
        self.submit_outcome(
            epoch,
            shard,
            &ShardOutcome::Eval {
                results: results.clone(),
            },
        )
    }

    fn fetch(&self, epoch: &str, shard: usize) -> Result<Option<ShardResults>, ShardError> {
        match self.fetch_outcome(epoch, shard)? {
            Some(ShardOutcome::Eval { results }) => Ok(Some(results)),
            // An outcome of the wrong shape is unusable; leave the shard
            // pending so it is (re-)evaluated instead.
            Some(ShardOutcome::VariationBatch { .. }) | None => Ok(None),
        }
    }

    fn recover(&self, epoch: &str, shard: usize) -> Result<bool, ShardError> {
        match self.call(&Request::Recover {
            epoch: epoch.to_string(),
            shard,
        })? {
            Response::Recovered { expired } => Ok(expired),
            other => Err(Self::unexpected(&other)),
        }
    }

    fn close_epoch(&self, epoch: &str) -> Result<(), ShardError> {
        match self.call(&Request::CloseEpoch {
            epoch: epoch.to_string(),
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }
}

/// A guard refreshing one shard claim's heartbeat every `interval` from a
/// background thread, for as long as it lives (the shard analogue of the
/// store's run-claim `ClaimHeartbeat`). Job workers hold one while servicing a
/// [`WorkerTask`] so a long evaluation is not mistaken for a hang.
pub struct ClaimPulse {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl ClaimPulse {
    /// Starts heartbeating `task`'s claim through `transport`.
    pub fn start(transport: TcpTransport, task: &WorkerTask, interval: Duration) -> ClaimPulse {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let (epoch, shard, token) = (task.epoch.clone(), task.shard, task.token);
        let thread = std::thread::Builder::new()
            .name("ayb-net-pulse".to_string())
            .spawn(move || {
                let (lock, signal) = &*thread_stop;
                let mut stopped = lock.lock().expect("claim pulse lock");
                loop {
                    let (next, timeout) = signal
                        .wait_timeout(stopped, interval)
                        .expect("claim pulse lock");
                    stopped = next;
                    if *stopped {
                        return;
                    }
                    if timeout.timed_out() {
                        // Release the lock across the network call so a
                        // concurrent Drop is never blocked behind a slow
                        // coordinator. Best effort: a missed beat at worst
                        // lets the claim be stolen, which fencing makes safe.
                        drop(stopped);
                        let _ = transport.heartbeat(&epoch, shard, token);
                        stopped = lock.lock().expect("claim pulse lock");
                    }
                }
            })
            .ok();
        ClaimPulse { stop, thread }
    }
}

impl Drop for ClaimPulse {
    fn drop(&mut self) {
        let (lock, signal) = &*self.stop;
        *lock.lock().expect("claim pulse lock") = true;
        signal.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
