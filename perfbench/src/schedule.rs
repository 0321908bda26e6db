//! Inputs and send schedules derived from the benchmark seed.
//!
//! Everything a workload sends — flow seeds, which completed run a cached
//! request targets, when each open-loop request is due — is a pure function
//! of the `--seed` argument, so the same seed always produces the same
//! inputs and schedule.

/// splitmix64 finaliser.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Independent input streams of one benchmark seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Seeds of flows the CLI workloads execute.
    Flow,
    /// Where a workload enters its seed pool.
    Pool,
    /// Target choices of the service cached stream.
    Cached,
}

/// The `index`-th value of `stream` under `seed`: 31 bits, so it survives
/// every JSON number representation unchanged.
pub fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    let salt = match stream {
        Stream::Flow => 0x0f10,
        Stream::Pool => 0x9001,
        Stream::Cached => 0xcac4,
    };
    splitmix(splitmix(seed ^ salt).wrapping_add(index)) >> 33
}

/// The seed of the `index`-th flow a CLI workload runs: the benchmark seed
/// itself first (so seed 2008 reproduces the paper's run), then derived
/// seeds.
pub fn flow_seed(seed: u64, index: u64) -> u64 {
    if index == 0 {
        seed
    } else {
        derive(seed, Stream::Flow, index)
    }
}

/// What one cached-stream request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedKind {
    /// `POST /v1/runs` with a body whose run already completed.
    Resubmit,
    /// `GET /v1/runs/{id}/result` of a completed run.
    Result,
}

/// One scheduled request of the open-loop cached stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedOp {
    /// When the request is due, in seconds after the window opens.
    pub due: f64,
    /// Index into the completed warm-up runs.
    pub target: usize,
    /// Request kind; resubmissions and result fetches alternate.
    pub kind: CachedKind,
}

/// The open-loop schedule: requests due every `1 / rate_hz` seconds for
/// `seconds`, each aimed at one of `targets` completed runs.
pub fn cached_plan(seed: u64, rate_hz: f64, seconds: f64, targets: usize) -> Vec<CachedOp> {
    let count = (rate_hz * seconds).floor() as usize;
    (0..count)
        .map(|i| CachedOp {
            due: i as f64 / rate_hz,
            target: (derive(seed, Stream::Cached, i as u64) % targets.max(1) as u64) as usize,
            kind: if i % 2 == 0 {
                CachedKind::Resubmit
            } else {
                CachedKind::Result
            },
        })
        .collect()
}

/// Timing of one open-loop request, in seconds after the window opens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// Latency counted from when the request was due, so a stall also
    /// charges the requests queued behind it.
    pub latency: f64,
    /// How late the generator sent it (0 when on time).
    pub late: f64,
}

/// Accounts one request that was `due`, actually `sent` and answered at
/// `done`.
pub fn account(due: f64, sent: f64, done: f64) -> OpenLoopSample {
    OpenLoopSample {
        latency: (done - due).max(0.0),
        late: (sent - due).max(0.0),
    }
}
