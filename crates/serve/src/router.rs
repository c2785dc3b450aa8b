//! Shard router: consistent hashing with health-checked failover.
//!
//! `psta router` fronts N independent `psta serve` processes. Routing
//! is a consistent-hash ring over the *circuit content hash* — the
//! same key the parsed-circuit cache uses — so every re-analysis of a
//! netlist lands on the shard whose [`crate::cache::CircuitCache`] and
//! [`crate::cache::StateCache`] are already hot, and removing a dead
//! shard rehashes only that shard's arc of the ring.
//!
//! Reliability model, layer by layer:
//!
//! * **Active probing** — a prober thread hits every shard's `/readyz`
//!   on an interval; a shard that times out or answers non-200 stops
//!   receiving new work (but the kernel of the scheme is that only its
//!   keys move).
//! * **Circuit breakers** — per shard, `Closed → Open` after a run of
//!   consecutive transport failures, `Open → HalfOpen` after a
//!   cooldown, `HalfOpen → Closed` on the next success. An open
//!   breaker takes the shard out of every candidate list, so a dead
//!   upstream costs one connect timeout per threshold, not per
//!   request.
//! * **Bounded retry** — forwarding retries with jittered exponential
//!   backoff (honoring `Retry-After` on `429`), capped in attempts and
//!   total wait; a request never waits unboundedly and never hangs:
//!   exhaustion surfaces as a typed `502`/`503` with the attempt count.
//! * **Affinity** — job ids and retained-state base keys learned from
//!   responses pin follow-up `GET /jobs/:id` and delta requests to the
//!   shard that owns them; unknown job ids fan out to every shard.
//!
//! Determinism: the engine is a pure function of the request (see
//! DESIGN.md), so *which* shard answers never changes *what* it
//! answers — failover and retry are invisible in the result bytes.

use crate::api::{parse_analyze_request, Work};
use crate::cache::{fnv1a_extend, CircuitCache, FNV_OFFSET};
use crate::client::{self, RetryPolicy};
use crate::discovery::{open_membership_journal, Membership, MembershipRecord, RegisterOutcome};
use crate::http::{HttpLimits, Method, Request, Response};
use crate::journal::RecordLog;
use crate::reactor::{Dispatch, Handler, Lifecycle, Reactor, ReactorConfig, ReactorShared, Token};
use crate::server::parse_job_path;
use pep_core::faults;
use pep_dist::hash::mix64;
use pep_obs::{PromWriter, RunReport, Warning};
use pep_sta::cancel::{signal_state, CancelState};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Backend `psta serve` addresses (at least one).
    pub shards: Vec<String>,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// How often the prober hits each shard's `/readyz`.
    pub probe_interval: Duration,
    /// Per-probe timeout; an expired probe marks the shard not ready.
    pub probe_timeout: Duration,
    /// Consecutive transport failures that trip a shard's breaker.
    pub fail_threshold: u32,
    /// How long an open breaker waits before a half-open trial.
    pub open_cooldown: Duration,
    /// Retry/backoff policy for forwarding.
    pub retry: RetryPolicy,
    /// Forwarding worker threads.
    pub forwarders: usize,
    /// Bounded forward-queue capacity (beyond it: typed 503).
    pub forward_queue: usize,
    /// Per-upstream-request timeout.
    pub forward_timeout: Duration,
    /// Per-request parse limits on the router's own listener.
    pub limits: HttpLimits,
    /// Maximum simultaneously-open router connections.
    pub max_conns: usize,
    /// Whether the router drains on the process signal latch.
    pub follow_signals: bool,
    /// Durable state directory. When set, membership join/leave
    /// transitions are journaled and replayed at startup, so a
    /// restarted router re-learns its registered shards without
    /// `--shard` edits.
    pub data_dir: Option<PathBuf>,
    /// How long a registered shard may miss heartbeats before it stops
    /// receiving new work (it stays on the ring).
    pub member_suspect: Duration,
    /// How long before a silent registered shard is removed from the
    /// ring entirely (only its ranges rehash). Statically-seeded
    /// `--shard` entries are never removed.
    pub member_expiry: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: Vec::new(),
            vnodes: 64,
            probe_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_secs(1),
            fail_threshold: 3,
            open_cooldown: Duration::from_secs(1),
            retry: RetryPolicy::default(),
            forwarders: 4,
            forward_queue: 256,
            forward_timeout: Duration::from_secs(60),
            limits: HttpLimits::default(),
            max_conns: 16 * 1024,
            follow_signals: false,
            data_dir: None,
            member_suspect: Duration::from_secs(5),
            member_expiry: Duration::from_secs(60),
        }
    }
}

// ---- circuit breaker ----

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    /// Last probe verdict; starts optimistic so a router can come up
    /// before its first probe round.
    ready: bool,
}

/// One backend and its health state.
#[derive(Debug)]
struct Shard {
    addr: String,
    breaker: Mutex<Breaker>,
    forwards: AtomicU64,
    failures: AtomicU64,
}

impl Shard {
    fn new(addr: String) -> Shard {
        Shard {
            addr,
            breaker: Mutex::new(Breaker {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                ready: true,
            }),
            forwards: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    /// Whether new work may be sent here right now. An open breaker
    /// past its cooldown transitions to half-open and admits one
    /// trial.
    fn admit(&self, now: Instant, cooldown: Duration) -> bool {
        let mut b = lock_recover(&self.breaker);
        match b.state {
            BreakerState::Closed => b.ready,
            BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if b.opened_at.is_some_and(|at| now >= at + cooldown) {
                    b.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn record_success(&self) {
        let mut b = lock_recover(&self.breaker);
        b.state = BreakerState::Closed;
        b.consecutive_failures = 0;
        b.opened_at = None;
        b.ready = true;
    }

    /// Returns `true` when this failure newly opened the breaker.
    fn record_failure(&self, now: Instant, threshold: u32) -> bool {
        self.failures.fetch_add(1, Ordering::Relaxed);
        let mut b = lock_recover(&self.breaker);
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        let trip = match b.state {
            BreakerState::HalfOpen => true, // failed trial: straight back open
            BreakerState::Closed => b.consecutive_failures >= threshold.max(1),
            BreakerState::Open => false,
        };
        if trip {
            b.state = BreakerState::Open;
            b.opened_at = Some(now);
        }
        trip
    }

    fn set_ready(&self, ready: bool) {
        lock_recover(&self.breaker).ready = ready;
    }

    fn is_ready(&self, now: Instant, cooldown: Duration) -> bool {
        let b = lock_recover(&self.breaker);
        match b.state {
            BreakerState::Closed => b.ready,
            BreakerState::HalfOpen => false,
            BreakerState::Open => b.opened_at.is_some_and(|at| now >= at + cooldown) && b.ready,
        }
    }

    fn state_name(&self) -> &'static str {
        match lock_recover(&self.breaker).state {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

// ---- consistent-hash ring ----

/// The ring: sorted (point, shard index) pairs, `vnodes` points per
/// shard. Lookup walks clockwise from the key's point; removing a
/// shard (breaker open) only moves keys whose nearest point belonged
/// to it — everyone else's cache stays hot.
#[derive(Debug)]
struct Ring {
    points: Vec<(u64, usize)>,
    n_shards: usize,
}

impl Ring {
    fn build(shards: &[Arc<Shard>], vnodes: usize) -> Ring {
        let mut points = Vec::with_capacity(shards.len() * vnodes);
        for (idx, shard) in shards.iter().enumerate() {
            for v in 0..vnodes.max(1) {
                let mut h = fnv1a_extend(FNV_OFFSET, shard.addr.as_bytes());
                h = fnv1a_extend(h, &(v as u64).to_le_bytes());
                // FNV alone clusters on short, similar inputs like
                // `host:port` + a counter; one avalanche round spreads
                // the vnodes evenly.
                points.push((mix64(h), idx));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            n_shards: shards.len(),
        }
    }

    /// Every shard index, ordered by ring distance from `key`: the
    /// owner first, then the failover successor, and so on. The caller
    /// filters by breaker state, which is exactly "rehash only the
    /// dead shard's range".
    fn candidates(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.n_shards);
        if self.points.is_empty() {
            return order;
        }
        let start = self
            .points
            .partition_point(|&(p, _)| p < key)
            .checked_rem(self.points.len())
            .unwrap_or(0);
        for i in 0..self.points.len() {
            let idx = self.points[(start + i) % self.points.len()].1;
            if !order.contains(&idx) {
                order.push(idx);
                if order.len() == self.n_shards {
                    break;
                }
            }
        }
        order
    }
}

// ---- forwarding ----

/// How a forwarded request picks its shard.
#[derive(Debug, Clone)]
enum RouteKey {
    /// `POST /analyze` full: circuit content hash on the ring.
    Content(u64),
    /// `POST /analyze` delta: learned base-key affinity, falling back
    /// to the ring over the base key's bytes.
    Base(u64),
    /// `/jobs/:id` paths: learned job affinity, falling back to
    /// fan-out over every shard.
    Job(u64),
}

struct ForwardTask {
    token: Token,
    method: &'static str,
    path: String,
    body: Option<String>,
    route: RouteKey,
    cancelled: Arc<AtomicBool>,
}

/// Counters the router maintains (rendered into `/metrics`).
#[derive(Debug, Default)]
struct RouterMetrics {
    forwards: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    typed_failures: AtomicU64,
    sheds: AtomicU64,
    fanouts: AtomicU64,
    probes: AtomicU64,
    probe_failures: AtomicU64,
    breaker_opens: AtomicU64,
    requests: AtomicU64,
}

/// An immutable membership snapshot: the shard list and the ring built
/// over it. Readers grab the `Arc` once per request and work on a
/// consistent view; membership changes swap in a whole new snapshot
/// (existing `Shard` instances are reused by address, so breaker state
/// and counters survive rebuilds).
struct Topology {
    shards: Vec<Arc<Shard>>,
    ring: Ring,
}

impl Topology {
    fn index_of(&self, addr: &str) -> Option<usize> {
        self.shards.iter().position(|s| s.addr == addr)
    }
}

struct RouterCore {
    topology: Mutex<Arc<Topology>>,
    /// Addresses seeded by `--shard`: always on the ring, exempt from
    /// heartbeat expiry (they predate self-registration).
    static_shards: Vec<String>,
    membership: Membership,
    /// Join/leave journal (`--data-dir`); `RecordLog` serializes its
    /// own appends.
    membership_log: Option<RecordLog>,
    /// Warnings from the membership-journal replay, for the final
    /// report.
    recovery_warnings: Vec<Warning>,
    cfg: RouterConfig,
    transport: Arc<ReactorShared>,
    queue: Mutex<VecDeque<ForwardTask>>,
    queue_cv: Condvar,
    active_forwards: AtomicU64,
    shutdown: AtomicBool,
    /// job id → shard address and base key → shard address, learned
    /// from responses. Keyed by address, not index — indices die with
    /// their topology snapshot. Bounded: cleared wholesale past a cap
    /// (fan-out and the ring recover the mapping).
    affinity: Mutex<Affinity>,
    metrics: RouterMetrics,
    started: Instant,
}

#[derive(Default)]
struct Affinity {
    jobs: HashMap<u64, String>,
    bases: HashMap<u64, String>,
}

const AFFINITY_CAP: usize = 64 * 1024;

impl RouterCore {
    /// The current membership snapshot.
    fn topology(&self) -> Arc<Topology> {
        Arc::clone(&lock_recover(&self.topology))
    }

    fn ready_shards(&self) -> usize {
        let now = Instant::now();
        self.topology()
            .shards
            .iter()
            .filter(|s| s.is_ready(now, self.cfg.open_cooldown))
            .count()
    }

    fn learn_job(&self, id: u64, shard: String) {
        let mut a = lock_recover(&self.affinity);
        if a.jobs.len() >= AFFINITY_CAP {
            a.jobs.clear();
        }
        a.jobs.insert(id, shard);
    }

    fn learn_base(&self, base: u64, shard: String) {
        let mut a = lock_recover(&self.affinity);
        if a.bases.len() >= AFFINITY_CAP {
            a.bases.clear();
        }
        a.bases.insert(base, shard);
    }

    /// Shard order to try for a route key, as indices into `topo`.
    fn shard_order(&self, route: &RouteKey, topo: &Topology) -> (Vec<usize>, bool) {
        match route {
            RouteKey::Content(key) => (topo.ring.candidates(*key), false),
            RouteKey::Base(base) => {
                let learned = lock_recover(&self.affinity)
                    .bases
                    .get(base)
                    .and_then(|addr| topo.index_of(addr));
                let ring_key = fnv1a_extend(FNV_OFFSET, &base.to_le_bytes());
                let mut order = topo.ring.candidates(ring_key);
                if let Some(owner) = learned {
                    order.retain(|&i| i != owner);
                    order.insert(0, owner);
                }
                (order, false)
            }
            RouteKey::Job(id) => {
                let learned = lock_recover(&self.affinity)
                    .jobs
                    .get(id)
                    .and_then(|addr| topo.index_of(addr));
                match learned {
                    Some(owner) => (vec![owner], false),
                    None => ((0..topo.shards.len()).collect(), true),
                }
            }
        }
    }

    /// Harvest affinity facts from a successful upstream response.
    fn learn_from_response(&self, shard_addr: &str, body: &str) {
        let Ok(value) = serde::json::from_str(body) else {
            return;
        };
        if let Some(id) = value.get("id").and_then(|v| v.as_u64()) {
            self.learn_job(id, shard_addr.to_owned());
        }
        if let Some(base) = value
            .get("result")
            .and_then(|r| r.get("base"))
            .or_else(|| value.get("base"))
            .and_then(|v| v.as_str())
            .and_then(|s| u64::from_str_radix(s, 16).ok())
        {
            self.learn_base(base, shard_addr.to_owned());
        }
    }

    /// Journals a membership transition (best-effort — a failed append
    /// costs recovery fidelity, not routing correctness).
    fn journal_membership(&self, kind: &str, addr: &str, epoch: u64) {
        if let Some(log) = &self.membership_log {
            let record = MembershipRecord {
                kind: kind.to_owned(),
                addr: addr.to_owned(),
                epoch,
            };
            let _ = log.append(&serde::json::to_string(&record));
        }
    }

    /// Rebuilds the topology snapshot from static seeds + the live
    /// membership table. Existing `Shard` objects are reused by address
    /// so breaker state survives; only joined/left addresses change the
    /// ring's point set, so only their ranges rehash.
    fn rebuild_topology(&self) {
        let members = self.membership.members();
        let mut topology = lock_recover(&self.topology);
        let old = Arc::clone(&topology);
        let mut addrs: Vec<String> = self.static_shards.clone();
        for addr in members.keys() {
            if !addrs.iter().any(|a| a == addr) {
                addrs.push(addr.clone());
            }
        }
        let shards: Vec<Arc<Shard>> = addrs
            .into_iter()
            .map(|addr| {
                old.shards
                    .iter()
                    .find(|s| s.addr == addr)
                    .cloned()
                    .unwrap_or_else(|| Arc::new(Shard::new(addr)))
            })
            .collect();
        let ring = Ring::build(&shards, self.cfg.vnodes);
        *topology = Arc::new(Topology { shards, ring });
    }

    /// Applies a `POST /shards/register` announcement.
    fn apply_registration(&self, addr: &str, epoch: u64) -> RegisterOutcome {
        let outcome = self.membership.register(addr, epoch);
        match outcome {
            RegisterOutcome::Joined => {
                self.journal_membership("join", addr, epoch);
                self.rebuild_topology();
            }
            RegisterOutcome::Superseded => {
                // Same address, new incarnation: the ring is unchanged,
                // but the old entry's breaker verdicts are about a dead
                // process — reset them so the restarted shard gets
                // traffic immediately.
                self.journal_membership("join", addr, epoch);
                if let Some(idx) = self.topology().index_of(addr) {
                    self.topology().shards[idx].record_success();
                } else {
                    self.rebuild_topology();
                }
            }
            RegisterOutcome::Refreshed | RegisterOutcome::Stale => {}
        }
        outcome
    }

    /// One heartbeat-expiry sweep (runs on the prober cadence):
    /// suspected members stop receiving new work, expired members are
    /// journaled out and their ring ranges rehash.
    fn sweep_membership(&self) {
        let report = self
            .membership
            .sweep(self.cfg.member_suspect, self.cfg.member_expiry);
        if !report.suspected.is_empty() {
            let topo = self.topology();
            for addr in &report.suspected {
                if let Some(idx) = topo.index_of(addr) {
                    topo.shards[idx].set_ready(false);
                }
            }
        }
        if !report.removed.is_empty() {
            for addr in &report.removed {
                self.journal_membership("leave", addr, 0);
            }
            self.rebuild_topology();
        }
    }
}

// ---- the forward loop ----

/// Runs one forwarded request to a definite response: consistent-hash
/// candidates, breaker-aware failover, bounded jittered retry. Never
/// hangs — every exit is a response (possibly a typed `502`/`503`).
fn forward(core: &RouterCore, task: &ForwardTask) -> Response {
    let deadline = Instant::now() + core.cfg.retry.max_total_wait;
    let max_attempts = core.cfg.retry.max_attempts.max(1);
    let mut attempt: u32 = 0;
    let mut last_failure = String::from("no shard attempted");
    loop {
        attempt += 1;
        if attempt > max_attempts {
            break;
        }
        if task.cancelled.load(Ordering::Relaxed) {
            // Client vanished; the completion would be dropped anyway.
            return Response::error(499, "client-closed", "client disconnected");
        }
        if attempt > 1 {
            core.metrics.retries.fetch_add(1, Ordering::Relaxed);
        }
        // Fresh snapshot each attempt: a shard that registered between
        // attempts is eligible for the retry.
        let topo = core.topology();
        let (order, fan_out) = core.shard_order(&task.route, &topo);
        let now = Instant::now();
        let admitted: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| fan_out || topo.shards[i].admit(now, core.cfg.open_cooldown))
            .collect();
        if admitted.is_empty() {
            last_failure = "no shard ready (all breakers open)".to_owned();
            if !sleep_within(core.cfg.retry.backoff(attempt), deadline) {
                break;
            }
            continue;
        }
        if fan_out {
            core.metrics.fanouts.fetch_add(1, Ordering::Relaxed);
        }
        let mut saw_404 = false;
        for (nth, &idx) in admitted.iter().enumerate() {
            if nth > 0 {
                core.metrics.failovers.fetch_add(1, Ordering::Relaxed);
            }
            let shard = &topo.shards[idx];
            shard.forwards.fetch_add(1, Ordering::Relaxed);
            match client::request_with_timeout(
                &shard.addr,
                task.method,
                &task.path,
                task.body.as_deref(),
                core.cfg.forward_timeout,
            ) {
                Err(e) => {
                    // Transport failure: the shard may be dead. Feed
                    // the breaker and fail over to the next candidate.
                    last_failure = format!("{}: {e}", shard.addr);
                    if shard.record_failure(now, core.cfg.fail_threshold) {
                        core.metrics.breaker_opens.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Ok(r) if r.status == 429 => {
                    // Alive but shedding: honor Retry-After, then retry
                    // (same candidate order — the owner stays the owner).
                    shard.record_success();
                    last_failure = format!("{}: 429 queue full", shard.addr);
                    let pause = r
                        .retry_after()
                        .unwrap_or_else(|| core.cfg.retry.backoff(attempt));
                    if !sleep_within(pause, deadline) {
                        return typed_unavailable(503, attempt, &last_failure);
                    }
                    break; // out of the candidate loop → next attempt
                }
                Ok(r) if r.status == 503 => {
                    // Draining: it will leave the ring once the prober
                    // sees it; fail over now, and feed the breaker so
                    // a long drain stops attracting first-choice traffic.
                    last_failure = format!("{}: 503 draining", shard.addr);
                    if shard.record_failure(now, core.cfg.fail_threshold) {
                        core.metrics.breaker_opens.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Ok(r) if fan_out && r.status == 404 => {
                    shard.record_success();
                    saw_404 = true;
                }
                Ok(r) => {
                    // A definite answer (including app-level 4xx/5xx:
                    // those are deterministic, not transport trouble).
                    shard.record_success();
                    if r.is_success() {
                        core.learn_from_response(&shard.addr, &r.body);
                    }
                    return relay(&r);
                }
            }
        }
        if saw_404 {
            // Every shard answered, none knows the job.
            return Response::error(404, "unknown-job", &format!("no shard owns {}", task.path));
        }
    }
    core.metrics.typed_failures.fetch_add(1, Ordering::Relaxed);
    typed_unavailable(502, attempt.saturating_sub(1), &last_failure)
}

/// Sleeps `pause` unless that would cross `deadline`; returns whether
/// the sleep happened.
fn sleep_within(pause: Duration, deadline: Instant) -> bool {
    if Instant::now() + pause > deadline {
        return false;
    }
    std::thread::sleep(pause);
    true
}

fn typed_unavailable(status: u16, attempts: u32, detail: &str) -> Response {
    Response::error(
        status,
        if status == 502 {
            "shard-unreachable"
        } else {
            "no-ready-shard"
        },
        &format!("gave up after {attempts} attempt(s): {detail}"),
    )
    .with_header("retry-after", "1")
    .with_header("x-router-attempts", attempts.to_string())
}

/// Re-wraps an upstream response for the client (status, body, and
/// content type survive; hop-by-hop framing is re-done by our side).
fn relay(upstream: &client::ClientResponse) -> Response {
    let mut response = Response::text(upstream.status, upstream.body.clone());
    if let Some(ct) = upstream.header("content-type") {
        response.content_type = match ct {
            ct if ct.starts_with("application/json") => "application/json",
            ct if ct.starts_with("application/x-ndjson") => "application/x-ndjson",
            ct if ct.starts_with("text/plain") => "text/plain; charset=utf-8",
            _ => "application/octet-stream",
        };
    }
    if let Some(ra) = upstream.header("retry-after") {
        response = response.with_header("retry-after", ra);
    }
    response
}

fn forwarder_loop(core: &RouterCore) {
    loop {
        let task = {
            let mut q = lock_recover(&core.queue);
            loop {
                if let Some(task) = q.pop_front() {
                    break Some(task);
                }
                if core.shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                q = core
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        let Some(task) = task else { return };
        core.active_forwards.fetch_add(1, Ordering::Relaxed);
        core.metrics.forwards.fetch_add(1, Ordering::Relaxed);
        let response = forward(core, &task);
        core.transport.complete(task.token, response);
        core.active_forwards.fetch_sub(1, Ordering::Relaxed);
    }
}

fn prober_loop(core: &RouterCore) {
    while !core.shutdown.load(Ordering::Relaxed) {
        core.sweep_membership();
        let now = Instant::now();
        let topo = core.topology();
        for shard in &topo.shards {
            core.metrics.probes.fetch_add(1, Ordering::Relaxed);
            let probe = if faults::fires(pep_core::faults::PROBE_TIMEOUT) {
                Err(client::ClientError("injected probe timeout".into()))
            } else {
                client::request_with_timeout(
                    &shard.addr,
                    "GET",
                    "/readyz",
                    None,
                    core.cfg.probe_timeout,
                )
            };
            match probe {
                Ok(r) if r.status == 200 => shard.record_success(),
                Ok(_) => {
                    // Alive but draining/not ready: stop routing to it
                    // without burning breaker state (it answers fast).
                    core.metrics.probe_failures.fetch_add(1, Ordering::Relaxed);
                    shard.set_ready(false);
                }
                Err(_) => {
                    core.metrics.probe_failures.fetch_add(1, Ordering::Relaxed);
                    shard.set_ready(false);
                    if shard.record_failure(now, core.cfg.fail_threshold) {
                        core.metrics.breaker_opens.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        // Interruptible sleep so shutdown isn't delayed a full interval.
        let wake = Instant::now() + core.cfg.probe_interval;
        while Instant::now() < wake && !core.shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

// ---- the router's own HTTP surface ----

struct RouterHandler {
    core: Arc<RouterCore>,
    cancelled: HashMap<Token, Arc<AtomicBool>>,
    draining_since: Option<Instant>,
}

impl RouterHandler {
    fn enqueue(
        &mut self,
        token: Token,
        method: &'static str,
        path: String,
        body: Option<String>,
        route: RouteKey,
    ) -> Dispatch {
        let mut q = lock_recover(&self.core.queue);
        if q.len() >= self.core.cfg.forward_queue {
            self.core.metrics.sheds.fetch_add(1, Ordering::Relaxed);
            return Dispatch::Respond(
                Response::error(
                    503,
                    "router-overloaded",
                    "forward queue full; retry shortly",
                )
                .with_header("retry-after", "1"),
            );
        }
        let cancelled = Arc::new(AtomicBool::new(false));
        self.cancelled.insert(token, Arc::clone(&cancelled));
        q.push_back(ForwardTask {
            token,
            method,
            path,
            body,
            route,
            cancelled,
        });
        drop(q);
        self.core.queue_cv.notify_one();
        Dispatch::Pending
    }
}

impl Handler for RouterHandler {
    fn handle(&mut self, request: Request, token: Token) -> Dispatch {
        // A completed forward leaves its tombstone behind; reap lazily.
        self.cancelled
            .retain(|_, flag| !flag.load(Ordering::Relaxed) && Arc::strong_count(flag) > 1);
        self.core.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let path = request.path().to_owned();
        match (request.method, path.as_str()) {
            (Method::Get, "/healthz") => Dispatch::Respond(Response::text(200, "ok\n")),
            (Method::Get, "/readyz") => {
                let ready = self.core.ready_shards();
                if ready > 0 && !self.core.shutdown.load(Ordering::Relaxed) {
                    Dispatch::Respond(Response::text(200, format!("ready ({ready} shards)\n")))
                } else {
                    Dispatch::Respond(Response::error(503, "no-ready-shard", "no shard is ready"))
                }
            }
            (Method::Get, "/metrics") => {
                let mut response = Response::text(200, render_router_metrics(&self.core));
                response.content_type = "text/plain; version=0.0.4; charset=utf-8";
                Dispatch::Respond(response)
            }
            (Method::Get, "/shards") => Dispatch::Respond(shards_status(&self.core)),
            (Method::Post, "/shards/register") => {
                Dispatch::Respond(handle_register(&self.core, &request))
            }
            (Method::Post, "/analyze") => {
                let body = match request.body_utf8() {
                    Ok(body) => body.to_owned(),
                    Err(e) => {
                        return Dispatch::Respond(Response::error(
                            e.status(),
                            "bad-request",
                            &e.to_string(),
                        ))
                    }
                };
                let route = match parse_analyze_request(&body) {
                    Err(e) => {
                        // Reject garbage here: no shard round-trip, and
                        // the 400 is byte-identical to direct serve.
                        return Dispatch::Respond(Response::error(
                            400,
                            "bad-request",
                            &e.to_string(),
                        ));
                    }
                    Ok(parsed) => match &parsed.work {
                        Work::Full { circuit, .. } => {
                            RouteKey::Content(CircuitCache::key_for(circuit, parsed.seed))
                        }
                        Work::Delta { base, .. } => RouteKey::Base(*base),
                    },
                };
                self.enqueue(token, "POST", path, Some(body), route)
            }
            (Method::Get | Method::Delete, p) if p.starts_with("/jobs/") => {
                match parse_job_path(p) {
                    Some((id, suffix)) if suffix.is_empty() || suffix == "trace" => {
                        let method = if request.method == Method::Get {
                            "GET"
                        } else {
                            "DELETE"
                        };
                        self.enqueue(token, method, path, None, RouteKey::Job(id))
                    }
                    Some((id, "events")) => events_proxy(&self.core, id),
                    _ => Dispatch::Respond(Response::error(
                        400,
                        "bad-job-id",
                        "expected /jobs/:id, /jobs/:id/trace or /jobs/:id/events",
                    )),
                }
            }
            (
                _,
                "/healthz" | "/readyz" | "/metrics" | "/shards" | "/shards/register" | "/analyze",
            ) => Dispatch::Respond(Response::error(
                405,
                "method-not-allowed",
                "wrong method for this path",
            )),
            _ => Dispatch::Respond(Response::error(
                404,
                "not-found",
                &format!("no route for {path}"),
            )),
        }
    }

    fn on_disconnect(&mut self, token: Token) {
        if let Some(flag) = self.cancelled.remove(&token) {
            flag.store(true, Ordering::Relaxed);
        }
    }

    fn tick(&mut self) -> Lifecycle {
        let signal_stop = self.core.cfg.follow_signals && signal_state() != CancelState::Live;
        if !self.core.shutdown.load(Ordering::Relaxed) && !signal_stop {
            return Lifecycle::Continue;
        }
        self.core.shutdown.store(true, Ordering::Relaxed);
        self.core.queue_cv.notify_all();
        let since = *self.draining_since.get_or_insert_with(Instant::now);
        let idle = lock_recover(&self.core.queue).is_empty()
            && self.core.active_forwards.load(Ordering::Relaxed) == 0
            && self.core.transport.pending_completions() == 0;
        // In-flight forwards are themselves bounded (attempts × timeout),
        // but cap the wait so a wedged upstream can't hold the exit.
        if idle || since.elapsed() > Duration::from_secs(30) {
            Lifecycle::Exit
        } else {
            Lifecycle::Drain
        }
    }
}

/// `POST /shards/register` — a shard announcing itself (registration
/// and heartbeat are the same message; the epoch disambiguates
/// incarnations). Stale epochs are rejected with a typed 409 so a
/// delayed heartbeat from a dead process can't resurrect its entry.
fn handle_register(core: &Arc<RouterCore>, request: &Request) -> Response {
    let body = match request.body_utf8() {
        Ok(body) => body,
        Err(e) => return Response::error(e.status(), "bad-request", &e.to_string()),
    };
    let record: MembershipRecord = match serde::json::from_str_as(body) {
        Ok(r) => r,
        Err(e) => {
            return Response::error(400, "bad-request", &format!("bad registration: {e}"));
        }
    };
    if record.addr.is_empty() || !record.addr.contains(':') {
        return Response::error(
            400,
            "bad-request",
            "registration needs \"addr\" as host:port",
        );
    }
    let outcome = core.apply_registration(&record.addr, record.epoch);
    let name = match outcome {
        RegisterOutcome::Joined => "joined",
        RegisterOutcome::Superseded => "superseded",
        RegisterOutcome::Refreshed => "refreshed",
        RegisterOutcome::Stale => {
            return Response::error(
                409,
                "stale-epoch",
                &format!(
                    "epoch {} for {} is older than the registered incarnation",
                    record.epoch, record.addr
                ),
            );
        }
    };
    Response::json(
        200,
        format!(
            "{{\"outcome\":\"{name}\",\"addr\":\"{}\",\"epoch\":{}}}",
            record.addr, record.epoch
        ),
    )
}

/// `GET /jobs/:id/events` through the router: hijack the client socket
/// and proxy the shard's chunked stream byte-for-byte. Shard choice is
/// affinity-or-fan-out, resolved on the streaming thread (a 404 from
/// one shard falls through to the next).
fn events_proxy(core: &Arc<RouterCore>, id: u64) -> Dispatch {
    let core = Arc::clone(core);
    Dispatch::Hijack(Box::new(move |mut downstream: TcpStream| {
        let _ = downstream.set_write_timeout(Some(Duration::from_secs(10)));
        let topo = core.topology();
        let learned = lock_recover(&core.affinity)
            .jobs
            .get(&id)
            .and_then(|addr| topo.index_of(addr));
        let order = match learned {
            Some(owner) => vec![owner],
            None => (0..topo.shards.len()).collect(),
        };
        for idx in order {
            match open_upstream_stream(&topo.shards[idx].addr, id, core.cfg.forward_timeout) {
                Ok((head, upstream)) if !head.starts_with("HTTP/1.1 404") => {
                    let mut reader = upstream;
                    if downstream.write_all(head.as_bytes()).is_err() {
                        return;
                    }
                    let _ = io::copy(&mut reader, &mut downstream);
                    return;
                }
                Ok(_) | Err(_) => {} // 404 or dead shard: try the next one
            }
        }
        let body = format!("{{\"error\":\"unknown-job\",\"message\":\"no shard owns job {id}\"}}");
        let _ = downstream.write_all(
            format!(
                "HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }))
}

/// Connects to a shard, requests the event stream, and reads just the
/// response head (so a 404 can fall through to another shard before
/// any body bytes are relayed).
fn open_upstream_stream(
    addr: &str,
    id: u64,
    timeout: Duration,
) -> io::Result<(String, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut reader = BufReader::new(stream);
    reader.get_mut().write_all(
        format!("GET /jobs/{id}/events HTTP/1.1\r\nhost: pep-router\r\nconnection: close\r\n\r\n")
            .as_bytes(),
    )?;
    let mut head = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof in head"));
        }
        let done = line == "\r\n";
        head.push_str(&line);
        if done {
            return Ok((head, reader));
        }
    }
}

fn shards_status(core: &RouterCore) -> Response {
    let now = Instant::now();
    let topo = core.topology();
    let members = core.membership.members();
    let mut out = String::from("[");
    for (i, shard) in topo.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let source = if core.static_shards.iter().any(|a| a == &shard.addr) {
            "static"
        } else {
            "registered"
        };
        out.push_str(&format!(
            "{{\"addr\":\"{}\",\"breaker\":\"{}\",\"ready\":{},\"forwards\":{},\"failures\":{},\
             \"source\":\"{source}\",\"epoch\":{}}}",
            shard.addr,
            shard.state_name(),
            shard.is_ready(now, core.cfg.open_cooldown),
            shard.forwards.load(Ordering::Relaxed),
            shard.failures.load(Ordering::Relaxed),
            members.get(&shard.addr).copied().unwrap_or(0),
        ));
    }
    out.push(']');
    Response::json(200, out)
}

fn render_router_metrics(core: &RouterCore) -> String {
    let m = &core.metrics;
    let t = &core.transport.metrics;
    let mut w = PromWriter::new();
    w.gauge(
        "pep_router_uptime_seconds",
        "Seconds since the router started.",
        core.started.elapsed().as_secs_f64(),
    );
    w.gauge(
        "pep_router_shards_configured",
        "Backend shards on the ring (static + registered).",
        core.topology().shards.len() as f64,
    );
    w.gauge(
        "pep_router_shards_ready",
        "Backend shards currently routable.",
        core.ready_shards() as f64,
    );
    w.gauge(
        "pep_router_queue_depth",
        "Forward tasks waiting for a forwarder thread.",
        lock_recover(&core.queue).len() as f64,
    );
    w.gauge(
        "pep_router_forwards_active",
        "Forwards in flight right now.",
        core.active_forwards.load(Ordering::Relaxed) as f64,
    );
    w.counter(
        "pep_router_requests_total",
        "Requests parsed on the router listener.",
        m.requests.load(Ordering::Relaxed),
    );
    w.counter(
        "pep_router_forwards_total",
        "Requests forwarded to a shard.",
        m.forwards.load(Ordering::Relaxed),
    );
    w.counter(
        "pep_router_retries_total",
        "Forward retry rounds (backoff sleeps taken).",
        m.retries.load(Ordering::Relaxed),
    );
    w.counter(
        "pep_router_failovers_total",
        "Forwards that moved past the ring owner to a successor.",
        m.failovers.load(Ordering::Relaxed),
    );
    w.counter(
        "pep_router_typed_failures_total",
        "Forwards that exhausted retry and returned a typed 502/503.",
        m.typed_failures.load(Ordering::Relaxed),
    );
    w.counter(
        "pep_router_sheds_total",
        "Requests shed because the forward queue was full.",
        m.sheds.load(Ordering::Relaxed),
    );
    w.counter(
        "pep_router_fanouts_total",
        "Unknown-job lookups broadcast to every shard.",
        m.fanouts.load(Ordering::Relaxed),
    );
    w.counter(
        "pep_router_probes_total",
        "Health probes sent.",
        m.probes.load(Ordering::Relaxed),
    );
    w.counter(
        "pep_router_probe_failures_total",
        "Health probes that failed or timed out.",
        m.probe_failures.load(Ordering::Relaxed),
    );
    w.counter(
        "pep_router_breaker_opens_total",
        "Circuit-breaker trips (shard taken out of rotation).",
        m.breaker_opens.load(Ordering::Relaxed),
    );
    w.counter(
        "pep_router_registrations_total",
        "Shard registrations/heartbeats accepted.",
        core.membership.registrations(),
    );
    w.counter(
        "pep_router_supersessions_total",
        "Restarted shards that superseded their stale entry.",
        core.membership.supersessions(),
    );
    w.counter(
        "pep_router_stale_heartbeats_total",
        "Heartbeats rejected for a stale epoch.",
        core.membership.stale_rejected(),
    );
    w.counter(
        "pep_router_member_expirations_total",
        "Registered shards removed after heartbeat silence.",
        core.membership.expirations(),
    );
    w.counter(
        "pep_router_connections_accepted_total",
        "Connections accepted by the router reactor.",
        t.accepted.load(Ordering::Relaxed),
    );
    w.gauge(
        "pep_router_connections_active",
        "Router connections open right now.",
        t.active.load(Ordering::Relaxed) as f64,
    );
    let per_shard: Vec<(String, f64)> = core
        .topology()
        .shards
        .iter()
        .map(|s| (s.addr.clone(), s.forwards.load(Ordering::Relaxed) as f64))
        .collect();
    w.counter_family(
        "pep_router_shard_forwards",
        "Forwards per backend shard.",
        "shard",
        &per_shard,
    );
    w.finish()
}

// ---- lifecycle ----

/// What [`RouterHandle::join`] returns.
#[derive(Debug)]
pub struct RouterSummary {
    /// `true` when the drain completed with nothing in flight and
    /// every thread joined.
    pub clean: bool,
    /// Final router counters.
    pub report: RunReport,
}

/// A running router; call [`shutdown`](RouterHandle::shutdown) +
/// [`join`](RouterHandle::join) to stop it.
#[derive(Debug)]
pub struct RouterHandle {
    addr: SocketAddr,
    core: Arc<RouterCore>,
    thread: JoinHandle<RouterSummary>,
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Triggers the drain (idempotent).
    pub fn shutdown(&self) {
        self.core.shutdown.store(true, Ordering::Relaxed);
        self.core.queue_cv.notify_all();
    }

    /// Waits for the drain and returns the final summary.
    ///
    /// # Panics
    ///
    /// Panics if the router thread itself panicked (it never should).
    pub fn join(self) -> RouterSummary {
        self.thread.join().expect("router thread never panics")
    }

    /// Convenience: shutdown then join.
    pub fn shutdown_and_join(self) -> RouterSummary {
        self.shutdown();
        self.join()
    }
}

impl std::fmt::Debug for RouterCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterCore").finish_non_exhaustive()
    }
}

/// Binds the router, spawns forwarders and the prober, and returns.
///
/// Zero `--shard` entries is allowed: the router comes up empty (and
/// not ready) and fills its ring from `POST /shards/register`
/// announcements — with `--data-dir`, also from the replayed
/// membership journal of its previous incarnation.
///
/// # Errors
///
/// The bind/reactor failure, or the membership journal failing to
/// open.
pub fn start_router(config: RouterConfig) -> io::Result<RouterHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let reactor = Reactor::new(
        listener,
        ReactorConfig {
            limits: config.limits.clone(),
            max_conns: config.max_conns,
            ..ReactorConfig::default()
        },
    )?;
    let transport = reactor.shared();

    // Replay the previous incarnation's membership before the first
    // request: a restarted router re-learns its registered shards
    // without `--shard` edits (each gets a fresh expiry window to
    // heartbeat again).
    let (membership_log, recovered_members, recovery_warnings) = match &config.data_dir {
        Some(dir) => {
            let (log, members, warnings) = open_membership_journal(dir)?;
            (Some(log), members, warnings)
        }
        None => (None, HashMap::new(), Vec::new()),
    };
    let membership = Membership::from_members(recovered_members);

    let static_shards = config.shards.clone();
    let mut addrs = static_shards.clone();
    for addr in membership.members().into_keys() {
        if !addrs.iter().any(|a| a == &addr) {
            addrs.push(addr);
        }
    }
    let shards: Vec<Arc<Shard>> = addrs.into_iter().map(|a| Arc::new(Shard::new(a))).collect();
    let ring = Ring::build(&shards, config.vnodes);
    let core = Arc::new(RouterCore {
        topology: Mutex::new(Arc::new(Topology { shards, ring })),
        static_shards,
        membership,
        membership_log,
        recovery_warnings,
        cfg: config.clone(),
        transport,
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        active_forwards: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        affinity: Mutex::new(Affinity::default()),
        metrics: RouterMetrics::default(),
        started: Instant::now(),
    });

    let forwarders: Vec<JoinHandle<()>> = (0..config.forwarders.max(1))
        .map(|i| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name(format!("pep-router-fwd-{i}"))
                .spawn(move || forwarder_loop(&core))
                .expect("spawn forwarder")
        })
        .collect();
    let prober = {
        let core = Arc::clone(&core);
        std::thread::Builder::new()
            .name("pep-router-probe".to_owned())
            .spawn(move || prober_loop(&core))
            .expect("spawn prober")
    };

    let run_core = Arc::clone(&core);
    let thread = std::thread::Builder::new()
        .name("pep-router-reactor".to_owned())
        .spawn(move || {
            let mut handler = RouterHandler {
                core: Arc::clone(&run_core),
                cancelled: HashMap::new(),
                draining_since: None,
            };
            let reactor_result = reactor.run(&mut handler);
            run_core.shutdown.store(true, Ordering::Relaxed);
            run_core.queue_cv.notify_all();
            for f in forwarders {
                let _ = f.join();
            }
            let _ = prober.join();
            let clean = reactor_result.is_ok()
                && lock_recover(&run_core.queue).is_empty()
                && run_core.active_forwards.load(Ordering::Relaxed) == 0;
            RouterSummary {
                clean,
                report: final_router_report(&run_core),
            }
        })
        .expect("spawn router reactor");

    Ok(RouterHandle { addr, core, thread })
}

fn final_router_report(core: &RouterCore) -> RunReport {
    let m = &core.metrics;
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    counters.insert("router.requests".into(), m.requests.load(Ordering::Relaxed));
    counters.insert("router.forwards".into(), m.forwards.load(Ordering::Relaxed));
    counters.insert("router.retries".into(), m.retries.load(Ordering::Relaxed));
    counters.insert(
        "router.failovers".into(),
        m.failovers.load(Ordering::Relaxed),
    );
    counters.insert(
        "router.typed_failures".into(),
        m.typed_failures.load(Ordering::Relaxed),
    );
    counters.insert("router.sheds".into(), m.sheds.load(Ordering::Relaxed));
    counters.insert("router.fanouts".into(), m.fanouts.load(Ordering::Relaxed));
    counters.insert("router.probes".into(), m.probes.load(Ordering::Relaxed));
    counters.insert(
        "router.probe_failures".into(),
        m.probe_failures.load(Ordering::Relaxed),
    );
    counters.insert(
        "router.breaker_opens".into(),
        m.breaker_opens.load(Ordering::Relaxed),
    );
    counters.insert(
        "router.registrations".into(),
        core.membership.registrations(),
    );
    counters.insert(
        "router.supersessions".into(),
        core.membership.supersessions(),
    );
    counters.insert(
        "router.stale_heartbeats".into(),
        core.membership.stale_rejected(),
    );
    counters.insert(
        "router.member_expirations".into(),
        core.membership.expirations(),
    );
    let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
    gauges.insert(
        "router.uptime_seconds".into(),
        core.started.elapsed().as_secs_f64(),
    );
    gauges.insert("router.shards".into(), core.topology().shards.len() as f64);
    RunReport {
        tool: "psta".to_owned(),
        version: env!("CARGO_PKG_VERSION").to_owned(),
        command: "router".to_owned(),
        phases: Vec::new(),
        counters,
        gauges,
        histograms: BTreeMap::new(),
        warnings: core.recovery_warnings.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(addrs: &[&str]) -> Vec<Arc<Shard>> {
        addrs
            .iter()
            .map(|a| Arc::new(Shard::new((*a).to_owned())))
            .collect()
    }

    #[test]
    fn ring_is_stable_and_rehashes_only_the_dead_range() {
        let three = shards(&["a:1", "b:1", "c:1"]);
        let ring3 = Ring::build(&three, 64);
        let two = shards(&["a:1", "b:1"]);
        let ring2 = Ring::build(&two, 64);
        let mut moved = 0;
        let mut kept = 0;
        for key in 0..2000u64 {
            let h = fnv1a_extend(FNV_OFFSET, &key.to_le_bytes());
            let owner3 = ring3.candidates(h)[0];
            let owner2 = ring2.candidates(h)[0];
            if owner3 == 2 {
                // c's keys must redistribute…
                moved += 1;
            } else {
                // …while a's and b's keys stay put (same index order in
                // both rings, so indices are comparable).
                assert_eq!(owner3, owner2, "stable key moved shards");
                kept += 1;
            }
        }
        assert!(moved > 0, "shard c owned nothing?");
        assert!(kept > 0);
        // And the candidate order covers every shard exactly once.
        let order = ring3.candidates(12345);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn ring_balances_across_shards() {
        let four = shards(&["a:1", "b:1", "c:1", "d:1"]);
        let ring = Ring::build(&four, 64);
        let mut counts = [0usize; 4];
        for key in 0..4000u64 {
            let h = fnv1a_extend(FNV_OFFSET, &key.to_le_bytes());
            counts[ring.candidates(h)[0]] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 4000 / 4 / 3,
                "shard {i} owns only {c}/4000 keys — ring badly unbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let shard = Shard::new("x:1".into());
        let t0 = Instant::now();
        assert!(shard.admit(t0, Duration::from_secs(1)));
        // Two failures: still closed (threshold 3).
        assert!(!shard.record_failure(t0, 3));
        assert!(!shard.record_failure(t0, 3));
        assert!(shard.admit(t0, Duration::from_secs(1)));
        // Third trips it open.
        assert!(shard.record_failure(t0, 3));
        assert_eq!(shard.state_name(), "open");
        assert!(!shard.admit(t0, Duration::from_secs(1)));
        // After the cooldown: half-open trial admitted.
        let later = t0 + Duration::from_secs(2);
        assert!(shard.admit(later, Duration::from_secs(1)));
        assert_eq!(shard.state_name(), "half-open");
        // A failed trial goes straight back open; a success closes.
        assert!(shard.record_failure(later, 3));
        assert_eq!(shard.state_name(), "open");
        let even_later = later + Duration::from_secs(2);
        assert!(shard.admit(even_later, Duration::from_secs(1)));
        shard.record_success();
        assert_eq!(shard.state_name(), "closed");
        assert!(shard.admit(even_later, Duration::from_secs(1)));
    }

    #[test]
    fn router_starts_empty_and_fills_from_registration() {
        // Zero --shard entries: comes up not-ready instead of refusing.
        let handle = start_router(RouterConfig::default()).expect("router starts with no shards");
        let addr = handle.local_addr().to_string();
        let r = client::request(&addr, "GET", "/readyz", None).expect("readyz");
        assert_eq!(r.status, 503);
        // A registration adds the shard to the ring immediately.
        let r = client::request(
            &addr,
            "POST",
            "/shards/register",
            Some(r#"{"kind":"join","addr":"127.0.0.1:1","epoch":7}"#),
        )
        .expect("register");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"outcome\":\"joined\""));
        let r = client::request(&addr, "GET", "/shards", None).expect("shards");
        assert!(r.body.contains("127.0.0.1:1"));
        assert!(r.body.contains("\"epoch\":7"));
        // A stale epoch is a typed conflict, not a membership change.
        let r = client::request(
            &addr,
            "POST",
            "/shards/register",
            Some(r#"{"kind":"join","addr":"127.0.0.1:1","epoch":3}"#),
        )
        .expect("stale register");
        assert_eq!(r.status, 409);
        assert!(r.body.contains("stale-epoch"));
        let summary = handle.shutdown_and_join();
        assert!(summary.clean);
    }

    #[test]
    fn registration_survives_router_restart_via_journal() {
        let dir = std::env::temp_dir().join(format!(
            "pep-router-journal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let config = RouterConfig {
            data_dir: Some(dir.clone()),
            ..RouterConfig::default()
        };
        let handle = start_router(config.clone()).expect("first router");
        let addr = handle.local_addr().to_string();
        let r = client::request(
            &addr,
            "POST",
            "/shards/register",
            Some(r#"{"kind":"join","addr":"127.0.0.1:2","epoch":1}"#),
        )
        .expect("register");
        assert_eq!(r.status, 200);
        handle.shutdown_and_join();
        // The restarted router re-learns the shard from its journal.
        let handle = start_router(config).expect("second router");
        let addr = handle.local_addr().to_string();
        let r = client::request(&addr, "GET", "/shards", None).expect("shards");
        assert!(
            r.body.contains("127.0.0.1:2"),
            "journal replay lost the member: {}",
            r.body
        );
        handle.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
