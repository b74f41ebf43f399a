//! `dcam-router` — a fault-tolerant HTTP routing tier fronting a fleet of
//! `dcam-server` shards.
//!
//! The single-process [`dcam_server`] serves a model registry well, but a
//! production deployment wants N of them: for capacity, for isolation,
//! and so one crashed process does not take the explanation API down.
//! This crate is the tier that makes a fleet look like one server:
//!
//! * **Placement** — requests carry an optional `"model"` name; the
//!   router rendezvous-hashes it over the shard list ([`placement`]) and
//!   replicates each model on `replicas` shards. Among the healthy
//!   replicas it picks the least-loaded (fewest router-side in-flight
//!   requests, placement rank breaking ties).
//! * **Health checking** — one prober thread per shard hits
//!   `GET /healthz` on an interval; consecutive failures mark the shard
//!   down ([`health`]), consecutive successes bring it back.
//! * **Retry, backoff, failover** — every proxied request runs under an
//!   end-to-end deadline with a bounded number of attempts. Connect
//!   errors, timeouts and 5xx answers fail over to the next replica;
//!   rounds are separated by jittered exponential backoff ([`retry`]).
//!   Shard 4xx answers pass through verbatim (the request is wrong, not
//!   the shard).
//! * **Circuit breaking** — consecutive failures open a per-shard
//!   breaker ([`breaker`]); an open breaker skips the shard until a
//!   half-open trial succeeds. Health-check recovery resets the breaker.
//! * **Graceful degradation** — when no replica can take a request the
//!   client gets a structured 503 with `Retry-After`, never a hang and
//!   never a panic.
//! * **Rollouts** — `POST /v1/models/{name}/swap` at the router walks
//!   the model's replica set in placement order, swapping one shard at a
//!   time and aborting on first failure, so a bad checkpoint stops after
//!   one shard instead of taking out every replica.
//! * **Observability** — `GET /fleet` reports per-shard health, breaker
//!   state, in-flight counts and failure counters plus router totals and
//!   the front end's transport counters (`http`).
//!
//! The HTTP front end (accept loop, bounded backlog, connection workers,
//! keep-alive and receive deadlines, body parse, admin gate) is the
//! shard's own [`dcam_server::http::FrontEnd`], so both tiers answer
//! protocol errors identically; the router adds only its route function
//! and no dependencies beyond `dcam-server` itself and the vendored JSON
//! shims.

#![warn(missing_docs)]

pub mod breaker;
pub mod health;
pub mod placement;
pub mod retry;

use breaker::{BreakerConfig, CircuitBreaker};
use dcam_server::http::{lock, After, Exchange, FrontEnd, FrontEndConfig, HttpStats, Request};
use dcam_server::wire;
use dcam_server::{ClientConfig, ClientError, HttpClient, HttpResponse};
use health::{HealthConfig, HealthState, HealthTransition, ProbeOutcome};
use retry::{BackoffConfig, XorShift64};
use serde::Value;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Shard addresses (`host:port`), the hash universe for placement.
    /// Order does not matter — rendezvous hashing scores each address
    /// independently.
    pub shards: Vec<String>,
    /// Replicas per model (clamped to the fleet size).
    pub replicas: usize,
    /// Connection-worker threads.
    pub conn_workers: usize,
    /// Bound on accepted-but-unclaimed connections.
    pub conn_backlog: usize,
    /// Request bodies above this get a 413.
    pub max_body_bytes: usize,
    /// End-to-end budget per proxied request, covering every attempt,
    /// failover and backoff sleep. Also bounds receiving a request: one
    /// whose bytes have started arriving must be complete within it, or
    /// it gets a 408 (the shard's policy, so the router never cuts off an
    /// upload its shards would accept).
    pub request_deadline: Duration,
    /// Per-attempt cap within the request deadline: a stalled shard is
    /// abandoned (and failed over) after this long even when the overall
    /// deadline still has budget.
    pub upstream_timeout: Duration,
    /// TCP connect budget per upstream attempt.
    pub connect_timeout: Duration,
    /// Total upstream attempts per request before giving up with 503.
    pub max_attempts: u32,
    /// Backoff between retry rounds.
    pub backoff: BackoffConfig,
    /// Health-prober tuning.
    pub health: HealthConfig,
    /// Per-shard circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Per-shard budget for one rollout swap (checkpoint loads take
    /// longer than explain requests).
    pub rollout_deadline: Duration,
    /// How long an idle keep-alive client connection is held open.
    pub idle_keepalive: Duration,
    /// `Retry-After` value on router-origin 503s, seconds.
    pub retry_after_s: u32,
    /// When set, the router's rollout endpoint requires a matching
    /// `X-Admin-Token` header (401 missing / 403 mismatch), and the
    /// token is forwarded to the shards' own swap gates.
    pub admin_token: Option<String>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            replicas: 2,
            conn_workers: 2,
            conn_backlog: 64,
            max_body_bytes: 8 * 1024 * 1024,
            request_deadline: Duration::from_secs(30),
            upstream_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(2),
            max_attempts: 4,
            backoff: BackoffConfig::default(),
            health: HealthConfig::default(),
            breaker: BreakerConfig::default(),
            rollout_deadline: Duration::from_secs(30),
            idle_keepalive: Duration::from_secs(5),
            retry_after_s: 1,
            admin_token: None,
        }
    }
}

/// Cap on pooled keep-alive connections per shard.
const POOL_CAP: usize = 4;

/// Router-side state for one shard.
struct ShardState {
    addr: String,
    health: Mutex<HealthState>,
    breaker: Mutex<CircuitBreaker>,
    /// Requests this router currently has in flight against the shard
    /// (the load signal for replica choice).
    inflight: AtomicU64,
    /// Idle keep-alive connections to the shard.
    pool: Mutex<Vec<HttpClient>>,
    proxied_ok: AtomicU64,
    proxy_failures: AtomicU64,
    last_error: Mutex<Option<String>>,
}

impl ShardState {
    fn new(addr: String, breaker_cfg: BreakerConfig) -> Self {
        ShardState {
            addr,
            health: Mutex::new(HealthState::default()),
            breaker: Mutex::new(CircuitBreaker::new(breaker_cfg)),
            inflight: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
            proxied_ok: AtomicU64::new(0),
            proxy_failures: AtomicU64::new(0),
            last_error: Mutex::new(None),
        }
    }

    fn record_failure(&self, now: Instant, why: String) {
        lock(&self.breaker).on_failure(now);
        self.proxy_failures.fetch_add(1, Ordering::Relaxed);
        *lock(&self.last_error) = Some(why);
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    proxied_ok: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    unavailable_503: AtomicU64,
    rollouts: AtomicU64,
    rollouts_failed: AtomicU64,
}

/// State shared by the route function and the health probers.
struct Ctx {
    cfg: RouterConfig,
    shards: Vec<ShardState>,
    counters: Counters,
    /// Stops the health probers.
    shutdown: AtomicBool,
    /// Prober sleep wakes early on shutdown via this pair.
    sleeper: Mutex<()>,
    sleeper_cv: Condvar,
    /// Backoff jitter source, shared across connection workers.
    rng: Mutex<XorShift64>,
}

/// A running router tier.
///
/// Dropping it (or calling [`Router::shutdown`]) stops the HTTP threads
/// and the health probers; the shards it fronts are independent
/// processes (or [`dcam_server::DcamServer`] instances) and keep running.
pub struct Router {
    ctx: Arc<Ctx>,
    front: FrontEnd,
    health_threads: Vec<JoinHandle<()>>,
}

/// Boots a router over `cfg.shards`. Fails if the shard list is empty or
/// the bind address is taken; the shards themselves do not need to be up
/// yet — the health checkers find them when they arrive.
pub fn serve_router(cfg: RouterConfig) -> io::Result<Router> {
    if cfg.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one shard address",
        ));
    }
    let shards = cfg
        .shards
        .iter()
        .map(|a| ShardState::new(a.clone(), cfg.breaker.clone()))
        .collect();
    // Jitter seed: wall clock + pid, so two routers booted together do
    // not back off in lockstep. Determinism in tests comes from driving
    // BackoffConfig::delay with an explicit seed, not from here.
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1)
        ^ (std::process::id() as u64).rotate_left(32);
    let front_cfg = FrontEndConfig {
        name: "router",
        conn_workers: cfg.conn_workers,
        conn_backlog: cfg.conn_backlog,
        max_body_bytes: cfg.max_body_bytes,
        request_deadline: cfg.request_deadline,
        idle_keepalive: cfg.idle_keepalive,
        retry_after_s: cfg.retry_after_s,
        backlog_full: "router connection backlog full",
    };
    let ctx = Arc::new(Ctx {
        cfg,
        shards,
        counters: Counters::default(),
        shutdown: AtomicBool::new(false),
        sleeper: Mutex::new(()),
        sleeper_cv: Condvar::new(),
        rng: Mutex::new(XorShift64::new(seed)),
    });
    let front = FrontEnd::bind(&ctx.cfg.addr, front_cfg, {
        let ctx = Arc::clone(&ctx);
        move |ex, req| route(ex, req, &ctx)
    })?;
    let health_threads = (0..ctx.shards.len())
        .map(|i| {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("router-health-{i}"))
                .spawn(move || health_loop(&ctx, i))
                .expect("spawn health checker")
        })
        .collect();
    Ok(Router {
        ctx,
        front,
        health_threads,
    })
}

impl Router {
    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Stops the HTTP threads and health probers. Idempotent via drop.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.ctx.shutdown.store(true, Ordering::Release);
        self.ctx.sleeper_cv.notify_all();
        self.front.stop();
        for t in self.health_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

fn route(ex: &mut Exchange<'_>, req: &Request, ctx: &Ctx) -> After {
    if let Some(name) = req
        .path
        .strip_prefix("/v1/models/")
        .and_then(|rest| rest.strip_suffix("/swap"))
    {
        return if req.method == "POST" {
            handle_rollout(ex, req, ctx, name)
        } else {
            ex.method_not_allowed("POST")
        };
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let available = ctx
                .shards
                .iter()
                .filter(|s| lock(&s.health).is_up())
                .count();
            let body = serde_json::to_string(&obj(vec![
                (
                    "status",
                    Value::String(if available > 0 { "ok" } else { "degraded" }.into()),
                ),
                ("shards", num(ctx.shards.len() as f64)),
                ("available", num(available as f64)),
            ]))
            .unwrap_or_default();
            // A router with zero reachable shards is still *alive* — the
            // probe answers 200 and the body says degraded. Kubernetes-style
            // liveness kills on non-200; restarting the router would not
            // revive the shards.
            ex.json(200, &body)
        }
        ("GET", "/fleet") => {
            let fleet = fleet_value(ctx, &ex.http_stats());
            ex.json(200, &serde_json::to_string(&fleet).unwrap_or_default())
        }
        ("GET", "/v1/models") => handle_models(ex, ctx),
        ("POST", "/v1/explain" | "/v1/classify") => handle_proxy(ex, req, ctx),
        (_, "/healthz" | "/fleet" | "/v1/models") => ex.method_not_allowed("GET"),
        (_, "/v1/explain" | "/v1/classify") => ex.method_not_allowed("POST"),
        (_, path) => ex.error(404, "not_found", &format!("no route for {path}")),
    }
}

/// The `GET /fleet` document; `http` is the front end's transport
/// counters.
fn fleet_value(ctx: &Ctx, http: &HttpStats) -> Value {
    let now = Instant::now();
    let mut fleet = Vec::with_capacity(ctx.shards.len());
    let mut available = 0usize;
    for s in &ctx.shards {
        let health = lock(&s.health);
        let breaker = lock(&s.breaker);
        if health.is_up() {
            available += 1;
        }
        let mut fields = vec![
            ("addr", Value::String(s.addr.clone())),
            ("healthy", Value::Bool(health.is_up())),
            (
                "consecutive_probe_failures",
                num(health.consecutive_failures() as f64),
            ),
            ("probes", num(health.probes() as f64)),
            ("probe_failures", num(health.probe_failures() as f64)),
            ("circuit", Value::String(breaker.state(now).name().into())),
            ("circuit_opens", num(breaker.opens() as f64)),
            ("inflight", num(s.inflight.load(Ordering::Relaxed) as f64)),
            (
                "proxied_ok",
                num(s.proxied_ok.load(Ordering::Relaxed) as f64),
            ),
            (
                "proxy_failures",
                num(s.proxy_failures.load(Ordering::Relaxed) as f64),
            ),
        ];
        if let Some(err) = lock(&s.last_error).clone() {
            fields.push(("last_error", Value::String(err)));
        }
        fleet.push(obj(fields));
    }
    let c = &ctx.counters;
    obj(vec![
        (
            "status",
            Value::String(if available == ctx.shards.len() {
                "ok".into()
            } else if available > 0 {
                "degraded".into()
            } else {
                "down".into()
            }),
        ),
        ("shards", num(ctx.shards.len() as f64)),
        ("available", num(available as f64)),
        ("replicas", num(ctx.cfg.replicas as f64)),
        (
            "router",
            obj(vec![
                ("requests", num(c.requests.load(Ordering::Relaxed) as f64)),
                (
                    "proxied_ok",
                    num(c.proxied_ok.load(Ordering::Relaxed) as f64),
                ),
                ("retries", num(c.retries.load(Ordering::Relaxed) as f64)),
                ("failovers", num(c.failovers.load(Ordering::Relaxed) as f64)),
                (
                    "unavailable_503",
                    num(c.unavailable_503.load(Ordering::Relaxed) as f64),
                ),
                ("rollouts", num(c.rollouts.load(Ordering::Relaxed) as f64)),
                (
                    "rollouts_failed",
                    num(c.rollouts_failed.load(Ordering::Relaxed) as f64),
                ),
            ]),
        ),
        ("http", Value::Object(wire::http_stats_fields(http))),
        ("fleet", Value::Array(fleet)),
    ])
}

/// `GET /v1/models`: fans out to every healthy shard and reports each
/// shard's model list side by side (models are placed per shard, so the
/// union view keeps the shard attribution).
fn handle_models(ex: &mut Exchange<'_>, ctx: &Ctx) -> After {
    let mut entries = Vec::with_capacity(ctx.shards.len());
    for s in &ctx.shards {
        if !lock(&s.health).is_up() {
            entries.push(obj(vec![
                ("addr", Value::String(s.addr.clone())),
                ("reachable", Value::Bool(false)),
            ]));
            continue;
        }
        let result = HttpClient::connect_with(
            &s.addr,
            ClientConfig {
                connect_timeout: ctx.cfg.connect_timeout,
                request_deadline: ctx.cfg.upstream_timeout,
            },
        )
        .and_then(|mut client| client.get("/v1/models"));
        match result.map(|resp| (resp.status, resp.json())) {
            Ok((200, Ok(models))) => entries.push(obj(vec![
                ("addr", Value::String(s.addr.clone())),
                ("reachable", Value::Bool(true)),
                ("models", models),
            ])),
            Ok((status, _)) => entries.push(obj(vec![
                ("addr", Value::String(s.addr.clone())),
                ("reachable", Value::Bool(false)),
                ("status", num(status as f64)),
            ])),
            Err(e) => entries.push(obj(vec![
                ("addr", Value::String(s.addr.clone())),
                ("reachable", Value::Bool(false)),
                ("error", Value::String(e.to_string())),
            ])),
        }
    }
    let body =
        serde_json::to_string(&obj(vec![("shards", Value::Array(entries))])).unwrap_or_default();
    ex.json(200, &body)
}

/// The replica candidates able to take a request right now, ordered by
/// (in-flight load, placement rank).
fn available_candidates(ctx: &Ctx, order: &[usize], now: Instant) -> Vec<usize> {
    let mut cands: Vec<(u64, usize, usize)> = order
        .iter()
        .enumerate()
        .filter_map(|(rank, &i)| {
            let s = &ctx.shards[i];
            if !lock(&s.health).is_up() || !lock(&s.breaker).would_allow(now) {
                return None;
            }
            Some((s.inflight.load(Ordering::Relaxed), rank, i))
        })
        .collect();
    cands.sort_unstable();
    cands.into_iter().map(|(_, _, i)| i).collect()
}

/// One upstream attempt against one shard: reuse a pooled keep-alive
/// connection when possible, falling back to a fresh connect when the
/// pooled one turns out stale (the shard may have closed it while idle —
/// that is not a shard failure).
fn attempt_shard(
    ctx: &Ctx,
    shard: &ShardState,
    path: &str,
    body: &str,
    budget: Duration,
) -> Result<HttpResponse, ClientError> {
    let start = Instant::now();
    // One statement, so the pool guard drops before the request is sent:
    // under the 2021 if-let temporary rules, writing `lock(...).pop()` in
    // the scrutinee would hold the pool mutex across the network round
    // trip — and self-deadlock when `pool_back` re-locks it.
    let pooled = lock(&shard.pool).pop();
    if let Some(mut client) = pooled {
        match client.request_with_deadline("POST", path, Some(body), budget) {
            Ok(resp) => {
                pool_back(shard, client, &resp);
                return Ok(resp);
            }
            // A timeout on a live connection is a real shard problem; an
            // Io/Malformed failure on a *reused* connection is more likely
            // a stale keep-alive — retry once on a fresh connection.
            Err(e) if e.is_timeout() => return Err(e),
            Err(_) => {}
        }
    }
    let remaining = budget
        .checked_sub(start.elapsed())
        .filter(|r| !r.is_zero())
        .ok_or(ClientError::ReadTimeout {
            after: start.elapsed(),
        })?;
    let mut client = HttpClient::connect_with(
        &shard.addr,
        ClientConfig {
            connect_timeout: ctx.cfg.connect_timeout.min(remaining),
            request_deadline: remaining,
        },
    )?;
    let after_connect = budget
        .checked_sub(start.elapsed())
        .filter(|r| !r.is_zero())
        .ok_or(ClientError::ReadTimeout {
            after: start.elapsed(),
        })?;
    let resp = client.request_with_deadline("POST", path, Some(body), after_connect)?;
    pool_back(shard, client, &resp);
    Ok(resp)
}

fn pool_back(shard: &ShardState, client: HttpClient, resp: &HttpResponse) {
    if resp
        .header("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    {
        return;
    }
    let mut pool = lock(&shard.pool);
    if pool.len() < POOL_CAP {
        pool.push(client);
    }
}

/// `POST /v1/explain` / `POST /v1/classify`: proxy with load-aware
/// replica choice, bounded retry, backoff and failover.
fn handle_proxy(ex: &mut Exchange<'_>, req: &Request, ctx: &Ctx) -> After {
    ctx.counters.requests.fetch_add(1, Ordering::Relaxed);
    let text = match ex.body_text(req) {
        Ok(text) => text,
        Err(after) => return after,
    };
    let value = match ex.parse_json(text) {
        Ok(v) => v,
        Err(after) => return after,
    };
    // The hash key: the named model, or the fleet-wide "default" entry
    // (the same fallback each shard's registry applies).
    let model = value
        .get("model")
        .and_then(Value::as_str)
        .unwrap_or("default");
    let order = placement::placement(model, &ctx.cfg.shards, ctx.cfg.replicas);

    let start = Instant::now();
    let deadline = start + ctx.cfg.request_deadline;
    let mut attempts: u32 = 0;
    let mut last_failure: Option<String> = None;
    let mut round: u32 = 0;
    loop {
        let candidates = available_candidates(ctx, &order, Instant::now());
        if candidates.is_empty() {
            // Every replica is down or circuit-broken: fail fast with a
            // structured 503 instead of burning the deadline on sleeps.
            break;
        }
        for i in candidates {
            if attempts >= ctx.cfg.max_attempts || Instant::now() >= deadline {
                break;
            }
            let s = &ctx.shards[i];
            if !lock(&s.breaker).try_acquire(Instant::now()) {
                continue;
            }
            attempts += 1;
            if attempts > 1 {
                ctx.counters.failovers.fetch_add(1, Ordering::Relaxed);
            }
            let budget = deadline
                .saturating_duration_since(Instant::now())
                .min(ctx.cfg.upstream_timeout);
            s.inflight.fetch_add(1, Ordering::Relaxed);
            let result = attempt_shard(ctx, s, &req.path, text, budget);
            s.inflight.fetch_sub(1, Ordering::Relaxed);
            match result {
                Ok(resp) if resp.status < 500 => {
                    // 2xx pass through; 4xx pass through too — the request
                    // is at fault, not the shard, so it counts as a breaker
                    // success and is never retried elsewhere.
                    lock(&s.breaker).on_success();
                    s.proxied_ok.fetch_add(1, Ordering::Relaxed);
                    ctx.counters.proxied_ok.fetch_add(1, Ordering::Relaxed);
                    let extra: Vec<(&str, String)> = resp
                        .retry_after
                        .map(|v| vec![("retry-after", v.to_string())])
                        .unwrap_or_default();
                    return ex.respond(resp.status, &extra, &resp.body, false);
                }
                Ok(resp) => {
                    let why = format!("upstream status {}", resp.status);
                    s.record_failure(Instant::now(), why.clone());
                    last_failure = Some(format!("{}: {why}", s.addr));
                }
                Err(e) => {
                    s.record_failure(Instant::now(), e.to_string());
                    last_failure = Some(format!("{}: {e}", s.addr));
                }
            }
        }
        if attempts >= ctx.cfg.max_attempts || Instant::now() >= deadline {
            break;
        }
        // Round exhausted with budget left: back off (jittered) and retry.
        let delay = {
            let mut rng = lock(&ctx.rng);
            ctx.cfg.backoff.delay(round, &mut rng)
        };
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        std::thread::sleep(delay.min(remaining));
        ctx.counters.retries.fetch_add(1, Ordering::Relaxed);
        round += 1;
    }
    ctx.counters.unavailable_503.fetch_add(1, Ordering::Relaxed);
    let (code, detail) = match &last_failure {
        Some(why) => (
            "upstream_unavailable",
            format!("no replica of {model:?} answered after {attempts} attempts; last: {why}"),
        ),
        None => (
            "no_healthy_replica",
            format!("every replica of {model:?} is down or circuit-broken"),
        ),
    };
    ex.unavailable(code, &detail)
}

/// `POST /v1/models/{name}/swap` at the router: a fleet-wide rolling
/// swap. Walks the model's replica set in placement order, swapping one
/// shard at a time; the first failing shard aborts the rollout (the
/// remaining replicas keep the old version, which is the safe state) and
/// the response reports exactly what happened on each shard.
fn handle_rollout(ex: &mut Exchange<'_>, req: &Request, ctx: &Ctx, name: &str) -> After {
    if let Err(after) = ex.require_admin(req, ctx.cfg.admin_token.as_deref()) {
        return after;
    }
    let text = match ex.body_text(req) {
        Ok(text) => text,
        Err(after) => return after,
    };
    let token = req.header("x-admin-token");
    let order = placement::placement(name, &ctx.cfg.shards, ctx.cfg.replicas);
    let path = format!("/v1/models/{name}/swap");
    let mut reports: Vec<Value> = Vec::with_capacity(order.len());
    for &i in &order {
        let s = &ctx.shards[i];
        let result = HttpClient::connect_with(
            &s.addr,
            ClientConfig {
                connect_timeout: ctx.cfg.connect_timeout,
                request_deadline: ctx.cfg.rollout_deadline,
            },
        )
        .and_then(|mut client| {
            let headers: Vec<(&str, &str)> = token
                .map(|t| vec![("x-admin-token", t)])
                .unwrap_or_default();
            client.request_headers_deadline(
                "POST",
                &path,
                Some(text),
                &headers,
                ctx.cfg.rollout_deadline,
            )
        });
        let failure = match result {
            Ok(resp) if resp.status == 200 => {
                let version = resp
                    .json()
                    .ok()
                    .and_then(|v| v.get("version").and_then(Value::as_usize));
                let mut fields = vec![
                    ("addr", Value::String(s.addr.clone())),
                    ("swapped", Value::Bool(true)),
                ];
                if let Some(v) = version {
                    fields.push(("version", num(v as f64)));
                }
                reports.push(obj(fields));
                None
            }
            Ok(resp) => {
                reports.push(obj(vec![
                    ("addr", Value::String(s.addr.clone())),
                    ("swapped", Value::Bool(false)),
                    ("status", num(resp.status as f64)),
                    ("body", Value::String(resp.body.clone())),
                ]));
                Some(format!("shard {} answered {}", s.addr, resp.status))
            }
            Err(e) => {
                reports.push(obj(vec![
                    ("addr", Value::String(s.addr.clone())),
                    ("swapped", Value::Bool(false)),
                    ("error", Value::String(e.to_string())),
                ]));
                Some(format!("shard {} unreachable: {e}", s.addr))
            }
        };
        if let Some(why) = failure {
            ctx.counters.rollouts_failed.fetch_add(1, Ordering::Relaxed);
            let body = serde_json::to_string(&obj(vec![
                ("rolled_out", Value::Bool(false)),
                ("model", Value::String(name.into())),
                ("aborted_at", Value::String(s.addr.clone())),
                ("reason", Value::String(why)),
                ("shards", Value::Array(reports)),
            ]))
            .unwrap_or_default();
            return ex.json(502, &body);
        }
    }
    ctx.counters.rollouts.fetch_add(1, Ordering::Relaxed);
    let body = serde_json::to_string(&obj(vec![
        ("rolled_out", Value::Bool(true)),
        ("model", Value::String(name.into())),
        ("shards", Value::Array(reports)),
    ]))
    .unwrap_or_default();
    ex.json(200, &body)
}

/// One shard's health-prober loop.
fn health_loop(ctx: &Ctx, shard_idx: usize) {
    let shard = &ctx.shards[shard_idx];
    let cfg = &ctx.cfg.health;
    while !ctx.shutdown.load(Ordering::Acquire) {
        let outcome = probe(&shard.addr, cfg.probe_timeout);
        let transition = lock(&shard.health).on_probe(cfg, outcome);
        match transition {
            HealthTransition::Recovered => {
                // A recovered shard gets a clean slate: without the reset,
                // the first real request would still be spent on the
                // breaker's half-open dance against a known-good shard.
                lock(&shard.breaker).reset();
                *lock(&shard.last_error) = None;
            }
            HealthTransition::WentDown => {
                // Pooled connections to a down shard are dead weight (and
                // would each cost a stale-retry on the next use).
                lock(&shard.pool).clear();
            }
            HealthTransition::None => {}
        }
        // Condvar sleep so shutdown interrupts the interval promptly.
        let guard = lock(&ctx.sleeper);
        if !ctx.shutdown.load(Ordering::Acquire) {
            let _ = ctx
                .sleeper_cv
                .wait_timeout(guard, cfg.probe_interval)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// One health probe: fresh connection, `GET /healthz`, 200 means up.
fn probe(addr: &str, timeout: Duration) -> ProbeOutcome {
    let result = HttpClient::connect_with(
        addr,
        ClientConfig {
            connect_timeout: timeout,
            request_deadline: timeout,
        },
    )
    .and_then(|mut client| client.get("/healthz"));
    match result {
        Ok(resp) if resp.status == 200 => ProbeOutcome::Ok,
        _ => ProbeOutcome::Failed,
    }
}
