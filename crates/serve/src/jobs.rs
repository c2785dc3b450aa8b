//! The bounded job queue, worker pool, and job registry.
//!
//! Admission control happens at [`Jobs::submit`]: a full queue sheds the
//! request (→ 429 + `Retry-After`), a draining server refuses it
//! (→ 503). Each accepted job carries its own [`CancelToken`]; workers
//! run the analysis under `catch_unwind` so one poisoned job returns a
//! 500 for *that job only* and the worker thread survives to take the
//! next one. Shutdown is cooperative: [`Jobs::drain`] stops admission,
//! cancels everything still queued, gives running jobs a grace window,
//! and only then escalates their tokens to abort.

use crate::api::{job_result, retained_result, AnalyzeRequest, JobResult, OverrideSpec, Work};
use crate::cache::{CircuitCache, RetainedState, StateCache};
use crate::journal::JobJournal;
use crate::snapshot::SnapshotStore;
use pep_core::{
    try_analyze_cancellable, AnalysisError, CancelToken, Delta, IncrementalAnalyzer, PepError,
};
use pep_dist::{ContinuousDist, DiscreteDist};
use pep_netlist::GateKind;
use pep_obs::{LogHistogram, MetricsRegistry, Session, Trace};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the data from a poisoned lock. A panicked
/// holder is always some *other* job's contained panic; inheriting its
/// (at worst slightly stale) aggregates beats taking `/metrics` and
/// every later job down with it.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fault site: panic in the serve worker just before the analysis runs
/// (probed through the engine's cfg-gated fault registry, so it
/// compiles away without the `fault-injection` feature).
pub const JOB_PANIC: &str = "serve-job-panic";

/// How many terminal jobs the registry remembers for `GET /jobs/:id`.
const TERMINAL_RETENTION: usize = 256;

/// Lifecycle of one job.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running it.
    Running,
    /// Finished successfully.
    Done(Box<JobResult>),
    /// Finished with a typed error.
    Failed(JobFailure),
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobState {
    /// Short state name for status JSON.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job will never change state again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done(_) | JobState::Failed(_) | JobState::Cancelled
        )
    }
}

/// A typed job failure (maps directly onto the HTTP response).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobFailure {
    /// HTTP status for this failure.
    pub status: u16,
    /// Machine-matchable code (`bad-circuit`, `budget-exceeded`,
    /// `worker-panic`, …).
    pub code: String,
    /// Human-readable message.
    pub error: String,
}

/// One job: the request, its cancel token, and its observable state.
#[derive(Debug)]
pub struct Job {
    /// Monotonic job id.
    pub id: u64,
    /// The parsed request.
    pub request: AnalyzeRequest,
    /// Cancels this job (degrade-free: service cancellation aborts).
    pub cancel: CancelToken,
    /// Span trace attached when the request asked for one
    /// (`GET /jobs/:id/trace` serves it).
    pub trace: Option<Trace>,
    state: Mutex<JobState>,
    /// Phase enter/exit progress lines, appended as the job runs and
    /// streamed by `GET /jobs/:id/events`. Shared with the phase
    /// listener installed on the job's session.
    progress: Arc<Mutex<Vec<String>>>,
}

impl Job {
    /// Snapshot of the current state.
    pub fn state(&self) -> JobState {
        lock_recover(&self.state).clone()
    }

    /// Progress lines recorded so far, starting at `offset` (so a
    /// streaming endpoint can poll incrementally).
    pub fn progress_since(&self, offset: usize) -> Vec<String> {
        let lines = lock_recover(&self.progress);
        lines
            .get(offset..)
            .map(<[String]>::to_vec)
            .unwrap_or_default()
    }
}

/// Wire shape of `GET /jobs/:id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// State name (`queued`, `running`, `done`, `failed`, `cancelled`).
    pub state: String,
    /// The result, when `state == "done"`.
    pub result: Option<JobResult>,
    /// The failure, when `state == "failed"`.
    pub failure: Option<JobFailure>,
}

impl JobStatus {
    /// Builds the status payload for a job.
    pub fn of(job: &Job) -> JobStatus {
        let state = job.state();
        JobStatus {
            id: job.id,
            state: state.name().to_owned(),
            result: match &state {
                JobState::Done(r) => Some((**r).clone()),
                _ => None,
            },
            failure: match state {
                JobState::Failed(f) => Some(f),
                _ => None,
            },
        }
    }
}

/// Why [`Jobs::submit`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue at capacity — shed with 429 + `Retry-After`.
    QueueFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// Server is draining — 503.
    Draining,
}

#[derive(Debug, Default)]
struct Inner {
    queue: VecDeque<Arc<Job>>,
    registry: HashMap<u64, Arc<Job>>,
    terminal_order: VecDeque<u64>,
    accepting: bool,
    in_flight: usize,
}

/// Monotonic counters the queue maintains for `/metrics`.
#[derive(Debug, Default)]
pub struct JobCounters {
    /// Jobs accepted into the queue.
    pub submitted: AtomicU64,
    /// Requests shed because the queue was full.
    pub shed: AtomicU64,
    /// Jobs finished successfully.
    pub completed: AtomicU64,
    /// Jobs finished with a typed failure.
    pub failed: AtomicU64,
    /// Jobs cancelled (client- or drain-initiated).
    pub cancelled: AtomicU64,
    /// Worker panics contained by `catch_unwind`.
    pub panics: AtomicU64,
}

/// Aggregated per-phase wall time across every job, for `/metrics`.
#[derive(Debug, Default)]
pub struct PhaseAgg {
    totals: Mutex<BTreeMap<String, (f64, u64)>>,
}

impl PhaseAgg {
    /// Folds one job's phase tree into the totals.
    pub fn fold(&self, phases: &[pep_obs::PhaseReport]) {
        let mut totals = lock_recover(&self.totals);
        fn walk(totals: &mut BTreeMap<String, (f64, u64)>, nodes: &[pep_obs::PhaseReport]) {
            for n in nodes {
                let entry = totals.entry(n.name.clone()).or_insert((0.0, 0));
                entry.0 += n.wall_seconds;
                entry.1 += n.count;
                walk(totals, &n.children);
            }
        }
        walk(&mut totals, phases);
    }

    /// Snapshot: phase name → (total seconds, count).
    pub fn snapshot(&self) -> BTreeMap<String, (f64, u64)> {
        lock_recover(&self.totals).clone()
    }
}

/// A callback fired with a job's id each time that job reaches a
/// terminal state (done / failed / cancelled). Runs on whichever
/// thread drove the transition, with no job lock held.
struct TerminalHook(Arc<dyn Fn(u64) + Send + Sync>);

impl std::fmt::Debug for TerminalHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TerminalHook(..)")
    }
}

/// The shared queue + registry; one per server.
#[derive(Debug)]
pub struct Jobs {
    inner: Mutex<Inner>,
    /// Wakes workers when work arrives or shutdown begins.
    work_cv: Condvar,
    /// Wakes waiters when any job reaches a terminal state.
    done_cv: Condvar,
    next_id: AtomicU64,
    capacity: usize,
    /// Fired on every terminal transition; the reactor transport uses
    /// it to complete parked connections without polling.
    terminal_hook: Mutex<Option<TerminalHook>>,
    /// Durable job journal (`--data-dir`): admissions and terminal
    /// transitions are appended so a restart can answer
    /// `GET /jobs/:id` for jobs this process never ran.
    journal: Mutex<Option<Arc<JobJournal>>>,
    /// Terminal statuses replayed from the journal at startup —
    /// consulted when the live registry has no entry for an id.
    recovered: Mutex<HashMap<u64, JobStatus>>,
    /// Monotonic counters for `/metrics`.
    pub counters: JobCounters,
    /// Per-phase timing rollup for `/metrics`.
    pub phases: PhaseAgg,
    /// Log2-bucket histograms (job latency) for `/metrics`.
    pub metrics: MetricsRegistry,
}

impl Jobs {
    /// A queue admitting at most `capacity` waiting jobs.
    pub fn new(capacity: usize) -> Self {
        Jobs {
            inner: Mutex::new(Inner {
                accepting: true,
                ..Inner::default()
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            capacity: capacity.max(1),
            terminal_hook: Mutex::new(None),
            journal: Mutex::new(None),
            recovered: Mutex::new(HashMap::new()),
            counters: JobCounters::default(),
            phases: PhaseAgg::default(),
            metrics: MetricsRegistry::default(),
        }
    }

    /// Like [`Jobs::new`], but job ids start at `id_base + 1`. A shard
    /// router fronting several serve processes gives each a disjoint
    /// base so job ids stay globally unique across the fleet.
    pub fn with_id_base(capacity: usize, id_base: u64) -> Self {
        let jobs = Jobs::new(capacity);
        jobs.next_id
            .store(id_base.saturating_add(1), Ordering::Relaxed);
        jobs
    }

    /// Installs the terminal-transition callback (replacing any
    /// previous one). The hook runs on worker/canceller threads with
    /// no lock held on the job's state, so it may inspect the job.
    pub fn set_terminal_hook(&self, hook: Arc<dyn Fn(u64) + Send + Sync>) {
        *lock_recover(&self.terminal_hook) = Some(TerminalHook(hook));
    }

    /// Attaches the durable journal and the statuses it replayed.
    /// Id allocation resumes past both the configured base and the
    /// highest journaled id, so recovered and fresh jobs never collide.
    pub fn attach_journal(
        &self,
        journal: Arc<JobJournal>,
        recovered: HashMap<u64, JobStatus>,
        max_recovered_id: u64,
    ) {
        self.next_id
            .fetch_max(max_recovered_id.saturating_add(1), Ordering::Relaxed);
        *lock_recover(&self.recovered) = recovered;
        *lock_recover(&self.journal) = Some(journal);
    }

    /// The terminal status of a journal-recovered job (jobs this
    /// process never ran). Live jobs are served from the registry; this
    /// is the fallback that turns a post-restart lookup into a typed
    /// answer instead of a 404.
    pub fn recovered_status(&self, id: u64) -> Option<JobStatus> {
        lock_recover(&self.recovered).get(&id).cloned()
    }

    /// Recovered-status counts: (terminal, interrupted).
    pub fn recovered_counts(&self) -> (u64, u64) {
        let recovered = lock_recover(&self.recovered);
        let interrupted = recovered
            .values()
            .filter(|s| s.state == crate::journal::INTERRUPTED)
            .count() as u64;
        (recovered.len() as u64 - interrupted, interrupted)
    }

    fn journal_handle(&self) -> Option<Arc<JobJournal>> {
        lock_recover(&self.journal).as_ref().map(Arc::clone)
    }

    /// Journals a job's (just-set) terminal state. Must run before the
    /// terminal hook fires: the hook completes the client's parked
    /// connection, and the response must never precede durability.
    fn journal_terminal(&self, job: &Job) {
        if let Some(journal) = self.journal_handle() {
            journal.record_terminal(&JobStatus::of(job));
        }
    }

    fn fire_terminal_hook(&self, id: u64) {
        let hook = lock_recover(&self.terminal_hook)
            .as_ref()
            .map(|h| Arc::clone(&h.0));
        if let Some(hook) = hook {
            hook(id);
        }
    }

    /// End-to-end job latency histogram (seconds, queued → terminal on
    /// a worker).
    pub fn job_seconds(&self) -> LogHistogram {
        self.metrics.log_histogram("pep.serve.job.seconds")
    }

    /// Jobs waiting for a worker right now.
    pub fn queue_depth(&self) -> usize {
        lock_recover(&self.inner).queue.len()
    }

    /// Jobs running right now.
    pub fn in_flight(&self) -> usize {
        lock_recover(&self.inner).in_flight
    }

    /// Whether the queue still admits work.
    pub fn accepting(&self) -> bool {
        lock_recover(&self.inner).accepting
    }

    /// Admission control: accepts the request or sheds it.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under load, [`SubmitError::Draining`]
    /// after shutdown began.
    pub fn submit(&self, request: AnalyzeRequest) -> Result<Arc<Job>, SubmitError> {
        let mut inner = lock_recover(&self.inner);
        if !inner.accepting {
            return Err(SubmitError::Draining);
        }
        if inner.queue.len() >= self.capacity {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                capacity: self.capacity,
            });
        }
        let trace = request.trace.map(Trace::new);
        let job = Arc::new(Job {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            request,
            cancel: CancelToken::new(),
            trace,
            state: Mutex::new(JobState::Queued),
            progress: Arc::new(Mutex::new(Vec::new())),
        });
        inner.queue.push_back(Arc::clone(&job));
        inner.registry.insert(job.id, Arc::clone(&job));
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        // Journal the admission outside the queue lock (file I/O), but
        // before waking a worker: the terminal record may otherwise be
        // appended first — replay copes (terminal wins), this just
        // keeps the common case ordered.
        drop(inner);
        if let Some(journal) = self.journal_handle() {
            journal.record_admit(job.id);
        }
        self.work_cv.notify_one();
        Ok(job)
    }

    /// Looks up a job by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        lock_recover(&self.inner).registry.get(&id).cloned()
    }

    /// Cancels a job: queued jobs terminate immediately, running jobs
    /// get their token escalated to abort and terminate at the next
    /// engine poll point. Returns the post-cancel state, or `None` for
    /// an unknown id.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let job = self.get(id)?;
        job.cancel.cancel_abort();
        {
            let mut state = lock_recover(&job.state);
            if matches!(*state, JobState::Queued) {
                *state = JobState::Cancelled;
                self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                drop(state);
                self.journal_terminal(&job);
                self.note_terminal(job.id);
                self.done_cv.notify_all();
                self.fire_terminal_hook(job.id);
            }
        }
        Some(job.state())
    }

    /// Blocks until a job is available; returns `None` when the queue
    /// is draining and empty (the worker should exit).
    pub fn take_next(&self) -> Option<Arc<Job>> {
        let mut inner = lock_recover(&self.inner);
        loop {
            while let Some(job) = inner.queue.pop_front() {
                let mut state = lock_recover(&job.state);
                if matches!(*state, JobState::Queued) {
                    *state = JobState::Running;
                    drop(state);
                    inner.in_flight += 1;
                    return Some(job);
                }
                // Cancelled while queued — skip it.
            }
            if !inner.accepting {
                return None;
            }
            inner = self
                .work_cv
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Records a job's terminal state and wakes waiters.
    pub fn finish(&self, job: &Job, state: JobState) {
        debug_assert!(state.is_terminal());
        match &state {
            JobState::Done(_) => self.counters.completed.fetch_add(1, Ordering::Relaxed),
            JobState::Cancelled => self.counters.cancelled.fetch_add(1, Ordering::Relaxed),
            _ => self.counters.failed.fetch_add(1, Ordering::Relaxed),
        };
        *lock_recover(&job.state) = state;
        {
            let mut inner = lock_recover(&self.inner);
            inner.in_flight = inner.in_flight.saturating_sub(1);
        }
        // Durability before visibility: the journal record lands before
        // the terminal hook completes any parked client connection.
        self.journal_terminal(job);
        self.note_terminal(job.id);
        self.done_cv.notify_all();
        self.fire_terminal_hook(job.id);
    }

    fn note_terminal(&self, id: u64) {
        let mut inner = lock_recover(&self.inner);
        inner.terminal_order.push_back(id);
        while inner.terminal_order.len() > TERMINAL_RETENTION {
            if let Some(old) = inner.terminal_order.pop_front() {
                inner.registry.remove(&old);
            }
        }
    }

    /// Waits up to `slice` for `job` to reach a terminal state; returns
    /// the state either way. Callers loop around this so they can poll
    /// side conditions (client disconnect) between slices.
    pub fn wait_terminal_slice(&self, job: &Job, slice: Duration) -> JobState {
        let deadline = Instant::now() + slice;
        let mut state = lock_recover(&job.state);
        while !state.is_terminal() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // The shared done_cv pairs with the *inner* mutex for
            // drain waits, but terminal transitions notify while the
            // job's own state lock is free — a short timed wait keeps
            // this simple and race-free.
            drop(state);
            std::thread::sleep(Duration::from_millis(2).min(deadline - now));
            state = lock_recover(&job.state);
        }
        state.clone()
    }

    /// Stops admission and cancels everything still queued.
    pub fn begin_shutdown(&self) {
        let queued: Vec<Arc<Job>> = {
            let mut inner = lock_recover(&self.inner);
            inner.accepting = false;
            inner.queue.drain(..).collect()
        };
        for job in queued {
            let mut state = lock_recover(&job.state);
            if matches!(*state, JobState::Queued) {
                *state = JobState::Cancelled;
                self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                drop(state);
                self.journal_terminal(&job);
                self.note_terminal(job.id);
                self.fire_terminal_hook(job.id);
            }
        }
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Graceful drain: stop admission, give running jobs `grace` to
    /// finish, then escalate their tokens to abort and wait (bounded)
    /// for the workers to observe. Returns `true` when everything
    /// terminated.
    pub fn drain(&self, grace: Duration) -> bool {
        self.begin_shutdown();
        let deadline = Instant::now() + grace;
        while self.in_flight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if self.in_flight() > 0 {
            // Grace expired: abort whatever is still running.
            let running: Vec<Arc<Job>> = {
                let inner = lock_recover(&self.inner);
                inner.registry.values().cloned().collect()
            };
            for job in running {
                if matches!(job.state(), JobState::Running) {
                    job.cancel.cancel_abort();
                }
            }
            // Cancellation latency is bounded by the engine's poll
            // granularity; wait a bounded extra window.
            let hard = Instant::now() + Duration::from_secs(10);
            while self.in_flight() > 0 && Instant::now() < hard {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.in_flight() == 0
    }
}

/// Runs one job to its terminal state. Everything — cache miss parse,
/// the analysis itself, result assembly — happens under
/// `catch_unwind`, so a panic poisons only this job.
pub fn run_job(
    jobs: &Jobs,
    cache: &CircuitCache,
    states: &StateCache,
    snapshots: Option<&SnapshotStore>,
    job: &Job,
) {
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(cache, states, snapshots, job)));
    let state = match outcome {
        Ok(Ok((result, report))) => {
            jobs.phases.fold(&report.phases);
            JobState::Done(Box::new(result))
        }
        Ok(Err(JobOutcomeErr::Cancelled)) => JobState::Cancelled,
        Ok(Err(JobOutcomeErr::Failure(f))) => JobState::Failed(f),
        Err(panic) => {
            jobs.counters.panics.fetch_add(1, Ordering::Relaxed);
            JobState::Failed(JobFailure {
                status: 500,
                code: "worker-panic".to_owned(),
                error: format!("worker panicked: {}", panic_message(&panic)),
            })
        }
    };
    jobs.job_seconds().record(started.elapsed().as_secs_f64());
    jobs.finish(job, state);
}

/// Worker thread body: take jobs until the queue drains.
pub fn worker_loop(
    jobs: &Jobs,
    cache: &CircuitCache,
    states: &StateCache,
    snapshots: Option<&SnapshotStore>,
) {
    while let Some(job) = jobs.take_next() {
        run_job(jobs, cache, states, snapshots, &job);
    }
}

enum JobOutcomeErr {
    Cancelled,
    Failure(JobFailure),
}

fn execute(
    cache: &CircuitCache,
    states: &StateCache,
    snapshots: Option<&SnapshotStore>,
    job: &Job,
) -> Result<(JobResult, pep_obs::RunReport), JobOutcomeErr> {
    let started = Instant::now();
    if pep_core::faults::fires(JOB_PANIC) {
        panic!("injected fault: {JOB_PANIC}");
    }
    let obs = Session::new();
    if let Some(trace) = &job.trace {
        obs.set_trace(trace.clone());
    }
    // Every phase boundary becomes one progress line the events
    // endpoint streams. Phase names are code-chosen identifiers, so
    // the hand-rolled JSON needs no escaping.
    let progress = Arc::clone(&job.progress);
    obs.set_phase_listener(Arc::new(move |phase: &str, entering: bool, t: f64| {
        let line = format!(
            "{{\"event\":\"{}\",\"phase\":\"{phase}\",\"t_seconds\":{t:.6}}}",
            if entering { "enter" } else { "exit" },
        );
        lock_recover(&progress).push(line);
    }));
    let mut result = match &job.request.work {
        Work::Full { circuit, retain } => {
            execute_full(cache, states, snapshots, job, &obs, circuit, *retain)?
        }
        Work::Delta { base, overrides } => {
            execute_delta(cache, states, snapshots, job, &obs, *base, overrides)?
        }
    };
    // Stamped after result assembly, so the job time covers it.
    result.elapsed_ms = started.elapsed().as_millis() as u64;
    Ok((result, obs.report("serve-analyze")))
}

fn execute_full(
    cache: &CircuitCache,
    states: &StateCache,
    snapshots: Option<&SnapshotStore>,
    job: &Job,
    obs: &Session,
    spec: &crate::api::CircuitSpec,
    retain: bool,
) -> Result<JobResult, JobOutcomeErr> {
    let request = &job.request;
    let circuit = cache.get_or_parse(spec, request.seed).map_err(|e| {
        JobOutcomeErr::Failure(JobFailure {
            status: 422,
            code: "bad-circuit".to_owned(),
            error: e.to_string(),
        })
    })?;
    let map_engine_err = |e: PepError| match e {
        PepError::Cancelled(_) => JobOutcomeErr::Cancelled,
        other => JobOutcomeErr::Failure(JobFailure {
            status: 422,
            code: "analysis-failed".to_owned(),
            error: other.to_string(),
        }),
    };
    if retain {
        // Build the analysis *through* the incremental engine — the
        // cold build is bit-identical to `analyze` — and retain its
        // state so follow-up delta requests hit a warm cache.
        let mut analyzer = IncrementalAnalyzer::new_observed(
            &circuit.netlist,
            &circuit.timing,
            &request.config,
            obs,
        )
        .map_err(map_engine_err)?;
        // Assembling the answer also primes the analyzer's cached base
        // hashes, so `resident_bytes` below counts them.
        let mut result = {
            let _phase = obs.phase("result-assembly");
            retained_result(spec.display_name(), &mut analyzer)
        };
        let key = StateCache::key_for(circuit.key, analyzer.config());
        let bytes = analyzer.resident_bytes();
        let (_kept, evicted) = states.insert(
            Arc::new(RetainedState {
                key,
                circuit: spec.display_name().to_owned(),
                circuit_text: spec.cache_text(),
                seed: request.seed,
                circuit_key: circuit.key,
                analyzer: Mutex::new(analyzer),
            }),
            bytes,
        );
        // Evicted bases are snapshotted *outside* the cache lock; a
        // later delta against them rehydrates from disk instead of
        // 404ing.
        if let Some(snapshots) = snapshots {
            for state in &evicted {
                snapshots.save(state);
            }
        }
        result.base = Some(format!("{key:016x}"));
        Ok(result)
    } else {
        let analysis = try_analyze_cancellable(
            &circuit.netlist,
            &circuit.timing,
            &request.config,
            obs,
            &job.cancel,
        )
        .map_err(map_engine_err)?;
        let _phase = obs.phase("result-assembly");
        Ok(job_result(
            spec.display_name(),
            &circuit.netlist,
            &analysis,
            0,
        ))
    }
}

fn execute_delta(
    cache: &CircuitCache,
    states: &StateCache,
    snapshots: Option<&SnapshotStore>,
    job: &Job,
    obs: &Session,
    base: u64,
    overrides: &[OverrideSpec],
) -> Result<JobResult, JobOutcomeErr> {
    // Miss in the in-memory cache → try the snapshot store before
    // giving up: a restarted (or eviction-pressured) shard rehydrates
    // the base from disk and answers bit-identically to a warm hit.
    let state = match states.get(base) {
        Some(state) => Some(state),
        None => snapshots
            .and_then(|snapshots| snapshots.rehydrate(base, cache))
            .map(|(state, bytes)| {
                let (kept, evicted) = states.insert(state, bytes);
                if let Some(snapshots) = snapshots {
                    for evicted_state in &evicted {
                        snapshots.save(evicted_state);
                    }
                }
                kept
            }),
    };
    let state = state.ok_or_else(|| {
        JobOutcomeErr::Failure(JobFailure {
            status: 404,
            code: "unknown-base".to_owned(),
            error: format!(
                "no retained analysis {base:016x} (run a full analysis with \
                 \"retain\": true first; retained states are evicted LRU)"
            ),
        })
    })?;
    let mut analyzer = lock_recover(&state.analyzer);
    // The lock guarantees the analyzer is at its pristine base here;
    // whatever happens below, put it back that way before returning.
    let outcome = apply_overrides(&mut analyzer, obs, &job.cancel, overrides);
    let result = outcome.map(|dirty_nodes| {
        let mut result = {
            let _phase = obs.phase("result-assembly");
            retained_result(&state.circuit, &mut analyzer)
        };
        result.incremental = true;
        result.base = Some(format!("{base:016x}"));
        result.dirty_nodes = Some(dirty_nodes);
        result
    });
    analyzer.revert();
    result
}

/// Resolves and applies each override; returns the total dirtied-node
/// count. The caller reverts the analyzer afterwards either way.
fn apply_overrides(
    analyzer: &mut IncrementalAnalyzer,
    obs: &Session,
    cancel: &CancelToken,
    overrides: &[OverrideSpec],
) -> Result<u64, JobOutcomeErr> {
    let bad = |error: String| {
        JobOutcomeErr::Failure(JobFailure {
            status: 422,
            code: "bad-override".to_owned(),
            error,
        })
    };
    let mut dirty_nodes = 0u64;
    for spec in overrides {
        let delta = match spec {
            OverrideSpec::Scale { gate, factor } => Delta::ScaleCell {
                gate: resolve(analyzer, gate, true).map_err(bad)?,
                factor: *factor,
            },
            OverrideSpec::Rebind { gate, mean, sigma } => {
                let sigma = sigma.unwrap_or(mean / 10.0);
                let delay = ContinuousDist::normal(*mean, sigma)
                    .map_err(|e| bad(format!("bad delay for gate {gate:?}: {e}")))?;
                Delta::RebindCell {
                    gate: resolve(analyzer, gate, true).map_err(bad)?,
                    delay,
                }
            }
            OverrideSpec::Arrival { input, ticks } => Delta::PiArrival {
                input: resolve(analyzer, input, false).map_err(bad)?,
                arrival: DiscreteDist::point(*ticks),
            },
        };
        let report = analyzer
            .apply_delta_cancellable(&delta, obs, cancel)
            .map_err(|e| match e {
                PepError::Cancelled(_) => JobOutcomeErr::Cancelled,
                PepError::Analysis(AnalysisError::InvalidDelta { detail }) => bad(detail),
                other => JobOutcomeErr::Failure(JobFailure {
                    status: 422,
                    code: "analysis-failed".to_owned(),
                    error: other.to_string(),
                }),
            })?;
        dirty_nodes += report.dirty_nodes as u64;
    }
    Ok(dirty_nodes)
}

/// Resolves an override target name to a node, checking its kind.
fn resolve(
    analyzer: &IncrementalAnalyzer,
    name: &str,
    want_gate: bool,
) -> Result<pep_netlist::NodeId, String> {
    let nl = analyzer.netlist();
    let node = nl
        .node_id(name)
        .ok_or_else(|| format!("no node {name:?} in circuit {:?}", nl.name()))?;
    let is_input = nl.kind(node) == GateKind::Input;
    match (want_gate, is_input) {
        (true, true) => Err(format!("{name:?} is a primary input, not a gate")),
        (false, false) => Err(format!("{name:?} is a gate, not a primary input")),
        _ => Ok(node),
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::CircuitSpec;
    use pep_core::AnalysisConfig;

    fn request() -> AnalyzeRequest {
        AnalyzeRequest {
            work: Work::Full {
                circuit: CircuitSpec::Sample("c17".into()),
                retain: false,
            },
            seed: 1,
            config: AnalysisConfig::default(),
            detach: false,
            trace: None,
        }
    }

    #[test]
    fn queue_sheds_beyond_capacity() {
        let jobs = Jobs::new(2);
        assert!(jobs.submit(request()).is_ok());
        assert!(jobs.submit(request()).is_ok());
        match jobs.submit(request()) {
            Err(SubmitError::QueueFull { capacity: 2 }) => {}
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(jobs.counters.shed.load(Ordering::Relaxed), 1);
        assert_eq!(jobs.queue_depth(), 2);
    }

    #[test]
    fn draining_queue_refuses_submissions() {
        let jobs = Jobs::new(4);
        let queued = jobs.submit(request()).unwrap();
        jobs.begin_shutdown();
        assert!(matches!(jobs.submit(request()), Err(SubmitError::Draining)));
        // The queued job was cancelled, not lost.
        assert!(matches!(queued.state(), JobState::Cancelled));
        // And workers see an empty, draining queue.
        assert!(jobs.take_next().is_none());
    }

    #[test]
    fn cancel_of_queued_job_is_immediate() {
        let jobs = Jobs::new(4);
        let job = jobs.submit(request()).unwrap();
        let state = jobs.cancel(job.id).expect("known id");
        assert!(matches!(state, JobState::Cancelled));
        assert!(jobs.cancel(999).is_none(), "unknown id is None");
        // A worker never sees it.
        jobs.begin_shutdown();
        assert!(jobs.take_next().is_none());
    }

    #[test]
    fn worker_runs_job_to_done() {
        let jobs = Jobs::new(4);
        let cache = CircuitCache::new(4);
        let states = StateCache::new(usize::MAX);
        let job = jobs.submit(request()).unwrap();
        let taken = jobs.take_next().unwrap();
        assert_eq!(taken.id, job.id);
        run_job(&jobs, &cache, &states, None, &taken);
        match job.state() {
            JobState::Done(result) => {
                assert_eq!(result.circuit, "c17");
                assert!(!result.outputs.is_empty());
            }
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(jobs.counters.completed.load(Ordering::Relaxed), 1);
        assert_eq!(jobs.in_flight(), 0);
        // Phase timings were folded into the rollup.
        assert!(!jobs.phases.snapshot().is_empty());
    }

    #[test]
    fn retained_analysis_serves_deltas_and_reverts() {
        let jobs = Jobs::new(8);
        let cache = CircuitCache::new(4);
        let states = StateCache::new(usize::MAX);
        let run = |req: AnalyzeRequest| {
            let job = jobs.submit(req).unwrap();
            let taken = jobs.take_next().unwrap();
            run_job(&jobs, &cache, &states, None, &taken);
            job.state()
        };

        // A retained full analysis returns its base key…
        let state = run(AnalyzeRequest {
            work: Work::Full {
                circuit: CircuitSpec::Sample("fig6".into()),
                retain: true,
            },
            ..request()
        });
        let JobState::Done(full) = state else {
            panic!("retain failed: {state:?}");
        };
        let base = full.base.clone().expect("retained analysis returns base");
        assert_eq!(states.len(), 1);

        // …and its digest matches the plain (non-retained) path.
        let JobState::Done(plain) = run(AnalyzeRequest {
            work: Work::Full {
                circuit: CircuitSpec::Sample("fig6".into()),
                retain: false,
            },
            ..request()
        }) else {
            panic!("plain analyze failed");
        };
        assert_eq!(full.groups_digest, plain.groups_digest);
        assert!(plain.base.is_none());

        // A delta against the base dirties only the fanout cone and
        // reports the base it was answered from.
        let delta_req = |overrides: Vec<OverrideSpec>| AnalyzeRequest {
            work: Work::Delta {
                base: u64::from_str_radix(&base, 16).unwrap(),
                overrides,
            },
            ..request()
        };
        let JobState::Done(delta) = run(delta_req(vec![OverrideSpec::Scale {
            gate: "s3".into(),
            factor: 1.5,
        }])) else {
            panic!("delta failed");
        };
        assert_eq!(delta.base.as_deref(), Some(base.as_str()));
        let dirty = delta.dirty_nodes.expect("delta reports dirty nodes");
        assert!(dirty > 0 && dirty < delta.nodes, "partial cone: {dirty}");
        assert_ne!(delta.groups_digest, full.groups_digest);

        // The state reverts between jobs: a no-op-free repeat of the
        // same delta digests identically (warm state cache hit).
        let hits_before = states.hits();
        let JobState::Done(again) = run(delta_req(vec![OverrideSpec::Scale {
            gate: "s3".into(),
            factor: 1.5,
        }])) else {
            panic!("repeat delta failed");
        };
        assert_eq!(again.groups_digest, delta.groups_digest);
        assert_eq!(states.hits(), hits_before + 1);

        // Unknown base → 404 unknown-base; bad override target → 422.
        let JobState::Failed(f) = run(AnalyzeRequest {
            work: Work::Delta {
                base: 0xdead_beef,
                overrides: vec![OverrideSpec::Scale {
                    gate: "s3".into(),
                    factor: 1.5,
                }],
            },
            ..request()
        }) else {
            panic!("expected failure");
        };
        assert_eq!((f.status, f.code.as_str()), (404, "unknown-base"));
        let JobState::Failed(f) = run(delta_req(vec![OverrideSpec::Scale {
            gate: "nope".into(),
            factor: 1.5,
        }])) else {
            panic!("expected failure");
        };
        assert_eq!((f.status, f.code.as_str()), (422, "bad-override"));

        // After the failures, the retained base still answers cleanly.
        let JobState::Done(clean) = run(delta_req(vec![OverrideSpec::Arrival {
            input: "s1".into(),
            ticks: 3,
        }])) else {
            panic!("post-failure delta failed");
        };
        assert_eq!(clean.base.as_deref(), Some(base.as_str()));
    }

    #[test]
    fn traced_job_records_spans_progress_and_latency() {
        let jobs = Jobs::new(4);
        let cache = CircuitCache::new(4);
        let states = StateCache::new(usize::MAX);
        let job = jobs
            .submit(AnalyzeRequest {
                trace: Some(pep_obs::TraceLevel::Nodes),
                ..request()
            })
            .unwrap();
        let taken = jobs.take_next().unwrap();
        run_job(&jobs, &cache, &states, None, &taken);
        assert!(matches!(job.state(), JobState::Done(_)));
        // The trace captured wave and node spans for the job.
        let trace = job.trace.as_ref().expect("trace requested");
        let spans = trace.spans();
        assert!(spans.iter().any(|s| s.cat == "wave"), "wave spans");
        assert!(spans.iter().any(|s| s.cat == "node"), "node spans");
        // Phase progress lines were streamed into the job.
        let lines = job.progress_since(0);
        assert!(
            lines.iter().any(|l| l.contains("\"event\":\"enter\"")),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.contains("\"event\":\"exit\"")),
            "{lines:?}"
        );
        assert!(job.progress_since(lines.len()).is_empty());
        // And the latency histogram saw exactly this job.
        let snap = jobs.job_seconds().snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.sum > 0.0);
        // An untraced job carries no trace.
        let plain = jobs.submit(request()).unwrap();
        assert!(plain.trace.is_none());
    }

    #[test]
    fn poisoned_phase_agg_still_serves_data() {
        let agg = PhaseAgg::default();
        agg.fold(&[pep_obs::PhaseReport {
            name: "analyze".into(),
            wall_seconds: 0.25,
            count: 1,
            children: Vec::new(),
        }]);
        // Poison the mutex the way a contained worker panic would.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = agg.totals.lock().unwrap();
            panic!("poison");
        }));
        assert!(agg.totals.lock().is_err(), "mutex is actually poisoned");
        // Both sides recover the data instead of propagating the panic.
        let snap = agg.snapshot();
        assert_eq!(snap.get("analyze"), Some(&(0.25, 1)));
        agg.fold(&[pep_obs::PhaseReport {
            name: "analyze".into(),
            wall_seconds: 0.75,
            count: 1,
            children: Vec::new(),
        }]);
        assert_eq!(agg.snapshot().get("analyze"), Some(&(1.0, 2)));
    }

    #[test]
    fn drain_with_no_workers_cancels_queued_work() {
        let jobs = Jobs::new(8);
        let a = jobs.submit(request()).unwrap();
        let b = jobs.submit(request()).unwrap();
        assert!(jobs.drain(Duration::from_millis(50)));
        assert!(matches!(a.state(), JobState::Cancelled));
        assert!(matches!(b.state(), JobState::Cancelled));
        assert_eq!(jobs.counters.cancelled.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn job_status_json_round_trips() {
        let jobs = Jobs::new(4);
        let job = jobs.submit(request()).unwrap();
        let status = JobStatus::of(&job);
        assert_eq!(status.state, "queued");
        let text = serde::json::to_string(&status);
        let back: JobStatus = serde::json::from_str_as(&text).unwrap();
        assert_eq!(back, status);
    }
}
