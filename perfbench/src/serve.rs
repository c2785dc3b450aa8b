//! `serve-mixed`: HTTP requests through `psta router` → one `psta
//! serve` shard, both real child processes with default flags, an
//! ephemeral port and a temporary `--data-dir`.
//!
//! One thread keeps one keep-alive connection busy in a closed loop
//! over a seeded sequence: the delta queries a `psta size` session would
//! send against an s38584 base retained in set-up (see
//! [`crate::gen::Session::queries`]), with one cold analysis of a small
//! inline circuit per sizing round, drawn from a pool larger than the
//! shard's 16-entry circuit cache. Every answer's `groups_digest` is
//! checked against the same analysis run in process.

use crate::catalog::Report;
use crate::gen::{
    serve_mix, sizing_sessions, small_circuit_pool, DeltaSpec, PoolCircuit, Req, CLASSES, OTHER,
    SHORT_ROUNDS,
};
use crate::http::{self, Conn};
use crate::procs::{cpu_ms, peak_rss_mb, ChildGuard};
use crate::stats::{median, rescale_groups, Summary, TailSpec};
use crate::whatif::{Base, CIRCUIT};
use crate::{annotate, config, nproc, profile_text, Args};
use pep_core::{analyze, ArcPmfs, IncrementalAnalyzer};
use pep_netlist::cone::SupportSets;
use pep_netlist::parse_bench;
use pep_serve::api::groups_digest;
use pep_serve::client::request;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Small circuits in the analyze pool (the shard caches 16).
pub const POOL: usize = 24;

/// Sizing rounds generated per run; far more than a window consumes.
const MIX_ROUNDS: usize = 3_000;

/// Concurrent keep-alive connections. With a second one, each request
/// queues behind the other's analysis on the shard, so its latency
/// measures the overlap more than the request.
pub const CONNS: usize = 1;

/// 218 to 421 requests fit the fixed run length on the reference host,
/// depending on its load. The tail is chosen for 85% of the slowest run
/// seen, so a host 15% slower still leaves ten samples beyond it. It is
/// taken over the raw latencies, as in whatif-sizing: rescaled to the
/// average request, a 2 ms analysis would carry its scheduler delays
/// into the tail thirtyfold.
pub const TAIL: TailSpec = TailSpec {
    pct: 90.0,
    expected_n: 185,
};

/// Limit on one request; a slower answer counts as a timeout.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a child gets to come up, and to drain after SIGTERM.
const START_TIMEOUT: Duration = Duration::from_secs(30);
const DRAIN_GRACE: Duration = Duration::from_secs(30);

/// The `psta` binary under test, from `PERFBENCH_PSTA`.
fn psta() -> Result<String, String> {
    std::env::var("PERFBENCH_PSTA")
        .map_err(|_| "PERFBENCH_PSTA must name the psta binary (run.py sets it)".to_owned())
}

/// A scratch directory under the working directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Result<TempDir, String> {
        let dir = Path::new(".perfbench-tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

/// A running router + shard pair. Dropping it kills and reaps both.
struct Cluster {
    router: ChildGuard,
    shard: ChildGuard,
    base_key: String,
    base_digest: String,
    _dir: TempDir,
}

impl Cluster {
    /// Starts the shard, then the router in front of it, waiting for
    /// each to report ready.
    fn start(tag: &str) -> Result<Cluster, String> {
        let psta = psta()?;
        let dir = TempDir::new(tag)?;
        let path = |name: &str| dir.0.join(name).to_string_lossy().into_owned();
        let shard = ChildGuard::spawn(
            "shard",
            &psta,
            &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--data-dir",
                &path("shard"),
            ],
            &dir.0.join("shard.log"),
            START_TIMEOUT,
        )?;
        wait_ready(&shard.addr)?;
        let router = ChildGuard::spawn(
            "router",
            &psta,
            &[
                "router",
                "--addr",
                "127.0.0.1:0",
                "--shard",
                &shard.addr,
                "--data-dir",
                &path("router"),
            ],
            &dir.0.join("router.log"),
            START_TIMEOUT,
        )?;
        wait_ready(&router.addr)?;
        Ok(Cluster {
            router,
            shard,
            base_key: String::new(),
            base_digest: String::new(),
            _dir: dir,
        })
    }

    /// SIGTERM to the router, then the shard; both must drain and exit 0.
    fn stop(self) -> Result<(), String> {
        let Cluster {
            router,
            shard,
            _dir,
            ..
        } = self;
        let r = router.terminate(DRAIN_GRACE).map(drop);
        let s = shard.terminate(DRAIN_GRACE).map(drop);
        r.and(s)
    }
}

fn wait_ready(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + START_TIMEOUT;
    loop {
        match request(addr, "GET", "/readyz", None) {
            Ok(r) if r.status == 200 => return Ok(()),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            other => return Err(format!("{addr} not ready: {other:?}")),
        }
    }
}

/// The workload's inputs: pool circuits, the base, delta queries and
/// the request sequence.
struct Inputs {
    pool: Vec<PoolCircuit>,
    base_text: String,
    base: Base,
    deltas: Vec<Vec<DeltaSpec>>,
    mix: Vec<Req>,
    seed: u64,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let base_text = profile_text(CIRCUIT);
        let mut base = Base::new(&base_text, seed);
        let space = base.space();
        let deltas = sizing_sessions(seed, &space, MIX_ROUNDS.div_ceil(SHORT_ROUNDS), false)
            .iter()
            .flat_map(|session| session.queries(&space))
            .collect();
        let mix = serve_mix(seed, MIX_ROUNDS, POOL);
        Inputs {
            pool: small_circuit_pool(seed, POOL),
            base_text,
            base,
            deltas,
            mix,
            seed,
        }
    }

    fn retain_body(&self) -> String {
        format!(
            "{{\"bench\": {}, \"name\": \"{CIRCUIT}\", \"seed\": {}, \"retain\": true, \
             \"config\": {{\"threads\": {}}}}}",
            json_string(&self.base_text),
            self.seed,
            nproc()
        )
    }

    /// The JSON body of request `req`; `trace` asks for a phase trace.
    fn body(&self, req: Req, base_key: &str, trace: bool) -> String {
        let trace = if trace { ", \"trace\": \"phases\"" } else { "" };
        match req {
            Req::Analyze(i) => {
                let c = &self.pool[i];
                format!(
                    "{{\"bench\": {}, \"name\": \"{}\", \"seed\": {}, \
                     \"config\": {{\"threads\": {}}}{trace}}}",
                    json_string(&c.bench),
                    c.name,
                    c.seed,
                    nproc()
                )
            }
            Req::Delta(i) => {
                let nl = &self.base.netlist;
                let overrides: Vec<String> = self.deltas[i]
                    .iter()
                    .map(|d| match *d {
                        DeltaSpec::Scale { gate, factor } => format!(
                            "{{\"gate\": \"{}\", \"scale\": {factor:?}}}",
                            nl.node_name(self.base.gates[gate])
                        ),
                        DeltaSpec::Rebind { gate, mean, sigma } => format!(
                            "{{\"gate\": \"{}\", \"mean\": {mean:?}, \"sigma\": {sigma:?}}}",
                            nl.node_name(self.base.gates[gate])
                        ),
                        DeltaSpec::Arrival { input, ticks } => format!(
                            "{{\"input\": \"{}\", \"arrival_ticks\": {ticks}}}",
                            nl.node_name(self.base.inputs[input])
                        ),
                    })
                    .collect();
                format!(
                    "{{\"base\": \"{base_key}\", \"overrides\": [{}]{trace}}}",
                    overrides.join(", ")
                )
            }
        }
    }

    /// The digests the service must return, computed in process: the
    /// retained base, each pool circuit, and each of the first `sent`
    /// delta queries.
    fn expected(&self, sent: usize) -> Expected {
        let pool = self
            .pool
            .iter()
            .map(|c| {
                let nl = parse_bench(&c.name, &c.bench).expect("generated text parses");
                let timing =
                    pep_celllib::Timing::annotate(&nl, &pep_celllib::DelayModel::dac2001(c.seed));
                format!(
                    "{:016x}",
                    groups_digest(&nl, &analyze(&nl, &timing, &config(nproc())))
                )
            })
            .collect();
        let (nl, timing) = (&self.base.netlist, &self.base.timing);
        let base = format!(
            "{:016x}",
            groups_digest(nl, &analyze(nl, timing, &config(nproc())))
        );
        // The queries split over one 1-thread analyzer per core; groups
        // are bit-identical at any thread count.
        let per = sent.div_ceil(nproc()).max(1);
        let deltas = std::thread::scope(|scope| {
            let workers: Vec<_> = self.deltas[..sent]
                .chunks(per)
                .map(|queries| {
                    scope.spawn(move || {
                        let mut incr = IncrementalAnalyzer::new(nl, timing, &config(1))
                            .expect("no fail-fast budget is configured");
                        queries
                            .iter()
                            .map(|query| {
                                for spec in query {
                                    incr.apply_delta(&self.base.delta(spec))
                                        .expect("generated deltas are valid");
                                }
                                let d = format!("{:016x}", groups_digest(nl, &incr.analysis()));
                                incr.revert();
                                d
                            })
                            .collect::<Vec<String>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("digest workers do not panic"))
                .collect()
        });
        Expected { base, pool, deltas }
    }
}

struct Expected {
    base: String,
    pool: Vec<String>,
    /// Digest of each delta query, by index.
    deltas: Vec<String>,
}

/// JSON string literal of `s`.
fn json_string(s: &str) -> String {
    serde::json::to_string(&s.to_owned())
}

/// The text after `"key":` in a response body, up to the next `,` or `}`.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let rest = body[at..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// One completed (or failed) request.
struct Rec {
    req: Req,
    ms: f64,
    ok: bool,
    job_ms: f64,
    bytes: usize,
    digest: String,
}

/// One closed-loop pass: `CONNS` keep-alive connections on one thread,
/// issuing `mix` in order until `stop` (time or count) is reached.
struct Load {
    recs: Vec<Rec>,
    transport_errors: u64,
    wall_s: f64,
}

impl Load {
    /// Client latencies of the completed requests, by request class.
    fn ms_by_class(&self) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); CLASSES];
        for r in self.recs.iter().filter(|r| r.ok) {
            out[r.req.class()].push(r.ms);
        }
        out
    }
}

enum Stop {
    After(Duration),
    Count(usize),
}

fn drive(addr: &str, inputs: &Inputs, base_key: &str, trace: bool, stop: Stop) -> Load {
    let start = Instant::now();
    let mut next = 0usize;
    let more = |next: usize| match stop {
        Stop::After(d) => start.elapsed() < d,
        Stop::Count(n) => next < n,
    };
    let mut load = Load {
        recs: Vec::new(),
        transport_errors: 0,
        wall_s: 0.0,
    };
    let mut conns: Vec<Option<Conn>> = (0..CONNS).map(|_| None).collect();
    let mut flight: Vec<Option<(Req, Instant)>> = vec![None; CONNS];
    // Sends the next request on connection `c`, reconnecting if needed.
    let send_next = |c: usize,
                     conns: &mut Vec<Option<Conn>>,
                     flight: &mut Vec<Option<(Req, Instant)>>,
                     next: &mut usize,
                     load: &mut Load| {
        while more(*next) {
            let req = inputs.mix[*next % inputs.mix.len()];
            *next += 1;
            if conns[c].is_none() {
                conns[c] = Conn::connect(addr, REQUEST_TIMEOUT).ok();
            }
            let body = inputs.body(req, base_key, trace);
            let sent = Instant::now();
            match conns[c].as_mut().map(|k| k.send("POST", "/analyze", &body)) {
                Some(Ok(())) => {
                    flight[c] = Some((req, sent));
                    return;
                }
                _ => {
                    conns[c] = None;
                    load.transport_errors += 1;
                    load.recs.push(failed(req, sent));
                }
            }
        }
    };
    for c in 0..CONNS {
        send_next(c, &mut conns, &mut flight, &mut next, &mut load);
    }
    loop {
        let live: Vec<usize> = (0..CONNS).filter(|&c| flight[c].is_some()).collect();
        if live.is_empty() {
            break;
        }
        let fds: Vec<i32> = live
            .iter()
            .map(|&c| conns[c].as_ref().map_or(-1, Conn::fd))
            .collect();
        let ready = http::readable(&fds, Duration::from_millis(200)).unwrap_or_default();
        for (i, &c) in live.iter().enumerate() {
            let (req, sent) = flight[c].expect("live connections have a request in flight");
            let outcome = if ready.get(i).copied().unwrap_or(false) {
                match conns[c].as_mut().map(Conn::read_some) {
                    Some(Ok(None)) => continue,
                    Some(Ok(Some(resp))) => Ok(resp),
                    other => Err(format!("{other:?}")),
                }
            } else if sent.elapsed() > REQUEST_TIMEOUT {
                Err("timeout".to_owned())
            } else {
                continue;
            };
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            flight[c] = None;
            match outcome {
                Ok(resp) => {
                    let done = (200..300).contains(&resp.status)
                        && field(&resp.body, "state") == Some("done");
                    load.recs.push(Rec {
                        req,
                        ms,
                        ok: done,
                        job_ms: field(&resp.body, "elapsed_ms")
                            .and_then(|v| v.parse().ok())
                            .unwrap_or(0.0),
                        bytes: resp.bytes,
                        digest: field(&resp.body, "groups_digest")
                            .unwrap_or_default()
                            .to_owned(),
                    });
                }
                Err(_) => {
                    conns[c] = None;
                    load.transport_errors += 1;
                    load.recs.push(failed(req, sent));
                }
            }
            send_next(c, &mut conns, &mut flight, &mut next, &mut load);
        }
    }
    load.wall_s = start.elapsed().as_secs_f64();
    load
}

fn failed(req: Req, sent: Instant) -> Rec {
    Rec {
        req,
        ms: sent.elapsed().as_secs_f64() * 1e3,
        ok: false,
        job_ms: 0.0,
        bytes: 0,
        digest: String::new(),
    }
}

/// Set-up: start the pair, retain the base, warm both request kinds.
fn setup(inputs: &Inputs, tag: &str) -> Result<Cluster, String> {
    let mut cluster = Cluster::start(tag)?;
    let resp = request(
        &cluster.router.addr,
        "POST",
        "/analyze",
        Some(&inputs.retain_body()),
    )
    .map_err(|e| format!("retain: {e}"))?;
    cluster.base_key = field(&resp.body, "base")
        .filter(|_| resp.status == 200)
        .ok_or_else(|| format!("retain answered {}: {:.200}", resp.status, resp.body))?
        .to_owned();
    cluster.base_digest = field(&resp.body, "groups_digest")
        .unwrap_or_default()
        .to_owned();
    drive(
        &cluster.router.addr,
        inputs,
        &cluster.base_key,
        false,
        Stop::Count(16),
    );
    Ok(cluster)
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let inputs = Inputs::new(args.seed);
    let mut times = Vec::new();
    let mut cluster = None;
    for k in 0..crate::SETUP_REPS {
        if let Some(c) = cluster.take() {
            Cluster::stop(c).map_err(|e| format!("set-up drain: {e}"))?;
        }
        let t0 = Instant::now();
        cluster = Some(setup(&inputs, &format!("serve{k}"))?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let cluster = cluster.expect("SETUP_REPS is positive");
    let loads = if args.trace {
        traced(args, &inputs, &cluster, report)
    } else {
        let load = drive(
            &cluster.router.addr,
            &inputs,
            &cluster.base_key,
            false,
            Stop::After(args.window),
        );
        let by_class = load.ms_by_class();
        let typical = rescale_groups(&by_class).0;
        let s = Summary::of(&by_class.concat(), TAIL);
        report.notes.push(s.describe("request, raw times", TAIL));
        report.set("setup_s", median(&times));
        report.set(
            "peak_rss_mb",
            peak_rss_mb(&cluster.shard.pid().to_string())
                + peak_rss_mb(&cluster.router.pid().to_string()),
        );
        report.set("op_ms_p50", typical);
        report.set("op_ms_tail", s.tail);
        report.set("work_per_s", s.n as f64 / load.wall_s.max(1e-9));
        vec![load]
    };
    let sent = loads
        .iter()
        .flat_map(|l| &l.recs)
        .filter_map(|r| match r.req {
            Req::Delta(i) => Some(i + 1),
            Req::Analyze(_) => None,
        })
        .max()
        .unwrap_or(0);
    let t0 = Instant::now();
    let expected = inputs.expected(sent);
    for load in &loads {
        check(load, &expected, report);
    }
    report.notes.push(format!(
        "checked every analyze digest and {} delta digests ({:.1} s)",
        expected.deltas.len(),
        t0.elapsed().as_secs_f64()
    ));
    if !args.trace {
        crate::set_ok_ratio(report);
    }
    if cluster.base_digest != expected.base {
        report.mismatch(format!(
            "retained base digest {:?} != in-process {}",
            cluster.base_digest, expected.base
        ));
    }
    if let Err(e) = cluster.stop() {
        report.mismatch(format!("drain: {e}"));
    }
    crate::report_accuracy(&crate::mc_references(), args.trace, report);
    Ok(())
}

/// Correctness gate and failure accounting for one pass.
fn check(load: &Load, expected: &Expected, report: &mut Report) {
    let mut wrong = 0;
    for r in &load.recs {
        report.attempted += 1;
        if !r.ok {
            report.failed += 1;
            continue;
        }
        let want = match r.req {
            Req::Analyze(i) => &expected.pool[i],
            Req::Delta(i) => &expected.deltas[i],
        };
        if &r.digest != want {
            report.failed += 1;
            wrong += 1;
        }
    }
    if wrong > 0 {
        report.mismatch(format!(
            "{wrong} responses carried a groups_digest other than the in-process one"
        ));
    }
}

/// Scrapes `/metrics` as `name{labels}` → value.
fn scrape(addr: &str) -> Vec<(String, f64)> {
    let body = request(addr, "GET", "/metrics", None)
        .map(|r| r.body)
        .unwrap_or_default();
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect()
}

fn metric(scrape: &[(String, f64)], name: &str) -> f64 {
    scrape
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// The traced run: the same request sequence via the router untraced,
/// via the router with phase traces, and straight to the shard.
fn traced(args: &Args, inputs: &Inputs, cluster: &Cluster, report: &mut Report) -> Vec<Load> {
    let (shard, router) = (&cluster.shard, &cluster.router);
    let (shard0, router0) = (scrape(&shard.addr), scrape(&router.addr));
    let (shard_cpu0, router_cpu0) = (cpu_ms(shard.pid()), cpu_ms(router.pid()));
    let plain = drive(
        &router.addr,
        inputs,
        &cluster.base_key,
        false,
        Stop::After(args.window / 3),
    );
    let (shard_cpu, router_cpu) = (
        cpu_ms(shard.pid()) - shard_cpu0,
        cpu_ms(router.pid()) - router_cpu0,
    );
    let (shard1, router1) = (scrape(&shard.addr), scrape(&router.addr));
    let n = plain.recs.len();
    let traced = drive(
        &router.addr,
        inputs,
        &cluster.base_key,
        true,
        Stop::Count(n),
    );
    let direct = drive(
        &shard.addr,
        inputs,
        &cluster.base_key,
        false,
        Stop::Count(n),
    );

    let delta =
        |a: &[(String, f64)], b: &[(String, f64)], name: &str| metric(b, name) - metric(a, name);
    let sd = |name: &str| delta(&shard0, &shard1, name);
    let rd = |name: &str| delta(&router0, &router1, name);
    for (kind, is_kind) in [
        (
            "analyze",
            (|r: &Req| matches!(r, Req::Analyze(_))) as fn(&Req) -> bool,
        ),
        ("delta", |r: &Req| matches!(r, Req::Delta(_))),
    ] {
        let recs: Vec<&Rec> = plain
            .recs
            .iter()
            .filter(|r| r.ok && is_kind(&r.req))
            .collect();
        let col = |f: &dyn Fn(&Rec) -> f64| median(&recs.iter().map(|r| f(r)).collect::<Vec<_>>());
        report.set(&format!("serve.{kind}_ms_p50"), col(&|r| r.ms));
        report.set(&format!("serve.{kind}_job_ms_p50"), col(&|r| r.job_ms));
        report.set(
            &format!("serve.{kind}_overhead_ms_p50"),
            col(&|r| r.ms - r.job_ms),
        );
        report.set(
            &format!("serve.{kind}_response_kb"),
            col(&|r| r.bytes as f64 / 1024.0),
        );
    }
    let p50 = |l: &Load| rescale_groups(&l.ms_by_class()).0;
    // The hop is about a millisecond; the analyze class shows it, while
    // the run-to-run noise of a 100 ms delta query would drown it.
    let analyze_p50 = |l: &Load| median(&l.ms_by_class()[OTHER]);
    report.set(
        "serve.router_hop_ms_p50",
        analyze_p50(&plain) - analyze_p50(&direct),
    );
    report.set(
        "obs.trace_overhead_pct",
        (p50(&traced) / p50(&plain).max(1e-9) - 1.0) * 100.0,
    );
    let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    report.set(
        "serve.circuit_cache_hit_ratio",
        ratio(
            sd("pep_serve_cache_hits_total"),
            sd("pep_serve_cache_misses_total"),
        ),
    );
    report.set(
        "serve.state_hit_ratio",
        ratio(
            sd("pep_serve_state_hits_total"),
            sd("pep_serve_state_misses_total"),
        ),
    );
    for phase in ["arc-pmf-build", "levelize", "propagate"] {
        let secs = sd(&format!("pep_serve_phase_seconds{{phase=\"{phase}\"}}"));
        let runs = sd(&format!("pep_serve_phase_runs{{phase=\"{phase}\"}}"));
        report.set(
            &format!("serve.phase.{phase}_ms"),
            secs * 1e3 / runs.max(1.0),
        );
    }
    let reqs = n.max(1) as f64;
    report.set("serve.shard_cpu_ms_per_req", shard_cpu / reqs);
    report.set("serve.router_cpu_ms_per_req", router_cpu / reqs);
    report.set("serve.shard_rss_mb", peak_rss_mb(&shard.pid().to_string()));
    report.set(
        "serve.router_rss_mb",
        peak_rss_mb(&router.pid().to_string()),
    );
    report.set(
        "serve.shed",
        sd("pep_serve_jobs_shed_total") + rd("pep_router_sheds_total"),
    );
    report.set("serve.http_errors", sd("pep_serve_http_errors_total"));
    report.set("serve.retries", rd("pep_router_retries_total"));
    report.set(
        "serve.transport_errors",
        (plain.transport_errors + traced.transport_errors + direct.transport_errors) as f64,
    );
    front_end_layers(inputs, report);
    report
        .notes
        .push(format!("traced run: {n} requests per pass"));
    vec![plain, traced, direct]
}

/// The front-end layers a cache miss pays, timed in process on the pool
/// circuits: median milliseconds per circuit.
fn front_end_layers(inputs: &Inputs, report: &mut Report) {
    let (mut parse, mut annot, mut arcs, mut lev) = (vec![], vec![], vec![], vec![]);
    for c in &inputs.pool {
        let t0 = Instant::now();
        let nl = parse_bench(&c.name, &c.bench).expect("generated text parses");
        let t1 = Instant::now();
        let timing = annotate(&nl, c.seed);
        let t2 = Instant::now();
        std::hint::black_box(ArcPmfs::discretize_all(
            &nl,
            &timing,
            timing.step_for_samples(config(1).samples),
        ));
        let t3 = Instant::now();
        std::hint::black_box(SupportSets::compute(&nl));
        let t4 = Instant::now();
        for (v, d) in [
            (&mut parse, t1 - t0),
            (&mut annot, t2 - t1),
            (&mut arcs, t3 - t2),
            (&mut lev, t4 - t3),
        ] {
            v.push(d.as_secs_f64() * 1e3);
        }
    }
    report.set("netlist.parse_ms", median(&parse));
    report.set("celllib.annotate_ms", median(&annot));
    report.set("core.arc_pmf_ms", median(&arcs));
    report.set("netlist.levelize_ms", median(&lev));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_read_from_response_bodies() {
        let body = r#"{"id":3,"state":"done","result":{"groups_digest":"00ab","elapsed_ms":7,"base":"ff"},"failure":null}"#;
        assert_eq!(field(body, "state"), Some("done"));
        assert_eq!(field(body, "groups_digest"), Some("00ab"));
        assert_eq!(field(body, "elapsed_ms"), Some("7"));
        assert_eq!(field(body, "base"), Some("ff"));
        assert_eq!(field(body, "missing"), None);
    }

    #[test]
    fn json_strings_escape_bench_text() {
        assert_eq!(json_string("a\nb\"c"), "\"a\\nb\\\"c\"");
    }
}
