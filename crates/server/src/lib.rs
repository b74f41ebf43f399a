//! `dcam-server` — a dependency-free HTTP/1.1 front end for the
//! [`dcam::service`] asynchronous explanation service.
//!
//! The paper positions dCAM as an explanation practitioners query per
//! instance; this crate is the network layer that makes the in-process
//! service queryable: a hand-rolled HTTP/1.1 server on
//! [`std::net::TcpListener`] (the build environment has no crates.io
//! access) exposing
//!
//! * `POST /v1/explain` — series payload plus optional `model` / class /
//!   `strict_only_correct` / `top_k` options, answered with the dCAM map
//!   or a per-dimension importance summary;
//! * `POST /v1/classify` — series payload (plus optional `model`),
//!   answered with logits and the argmax class;
//! * `GET /v1/models` — every registered model: name, version,
//!   architecture descriptor, geometry, worker count and per-model stats;
//! * `POST /v1/models/{name}/swap` — hot-swaps the named model to a
//!   binary checkpoint file on the server's filesystem (an operator API:
//!   expose it only on trusted networks), without interrupting the other
//!   models;
//! * `POST /v1/eval` — submits a perturbation-based
//!   explanation-faithfulness job (instances + labels + methods + k-grid)
//!   and answers 202 with a job id; `GET /v1/eval/{id}` polls its status
//!   and, once done, the per-method deletion/insertion report;
//!   `DELETE /v1/eval/{id}` cancels a queued or running job;
//! * `POST /v1/analyze` — submits a motif-mining job (instances plus
//!   labels plus clustering parameters) that batch-explains the dataset
//!   and clusters the per-(class, dimension) dCAM activation rows under
//!   DTW; same job lifecycle as `/v1/eval` (202 + id,
//!   `GET /v1/analyze/{id}` polls, `DELETE /v1/analyze/{id}` cancels at
//!   a stage boundary);
//! * `GET /healthz` — liveness probe;
//! * `GET /stats` — JSON dump of the aggregate [`ServiceStats`] plus the
//!   server-level counters ([`ServerStats`]).
//!
//! The server fronts a [`ModelRegistry`]: requests carry an optional
//! `"model"` name, resolved per request (omitted names fall back to the
//! single registered model, or the one literally named `"default"`).
//! Unknown models get a structured 404, invalid names a 400.
//! [`serve`] wraps a single [`DcamService`] into a one-entry registry
//! under the name `"default"`; [`serve_registry`] fronts a shared,
//! multi-model registry.
//!
//! Architecture: the [`http::FrontEnd`] (shared with the `dcam-router`
//! tier) runs one **accept thread** feeding a bounded backlog and a pool
//! of **connection workers** that parse requests (keep-alive,
//! `Content-Length` framing, body-size cap); this crate's route function
//! submits them through the resolved model's [`ServiceHandle`], and the
//! `/v1/eval` and `/v1/analyze` job kinds share one job route. Queue
//! backpressure surfaces as
//! HTTP 503 with a `Retry-After` header, per-request deadlines as 504,
//! malformed payloads as structured 400 bodies. A client that disconnects
//! mid-request **cancels** its explanation (the service skips the cube
//! build), and [`DcamServer::shutdown`] performs a SIGTERM-style graceful
//! drain: stop accepting, finish queued connections and requests, then
//! drain every registered model and return the models and final stats.
//!
//! ```no_run
//! use dcam::arch::{cnn, InputEncoding, ModelScale};
//! use dcam::service::{DcamService, ServiceConfig};
//! use dcam_server::{serve, HttpClient, ServerConfig};
//! use dcam_tensor::SeededRng;
//!
//! let model = cnn(InputEncoding::Dcnn, 3, 2, ModelScale::Tiny, &mut SeededRng::new(7));
//! let service = DcamService::spawn(vec![model], ServiceConfig::default());
//! let server = serve(service, ServerConfig::default()).unwrap();
//!
//! let mut client = HttpClient::connect(&server.addr().to_string()).unwrap();
//! let resp = client
//!     .post("/v1/explain", r#"{"series": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], "class": 1}"#)
//!     .unwrap();
//! assert_eq!(resp.status, 200);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod jobs;
pub mod wire;

pub use client::{
    explain_payload, explain_payload_for, ClientConfig, ClientError, HttpClient, HttpResponse,
};

use dcam::arch::GapClassifier;
use dcam::occlusion::occlusion_spans;
use dcam::registry::{ModelInfo, ModelRegistry, RegistryError};
use dcam::service::{
    Backpressure, RequestOptions, ResponseFuture, ServiceConfig, ServiceError, ServiceHandle,
    ServiceStats,
};
use dcam::DcamService;
use dcam_analyze::{mine_motifs, AnalyzeConfig, MotifReport};
use dcam_eval::{
    run_harness, EvalBackend, EvalReport, ExplainerKind, HarnessConfig, ServiceBackend,
};
use dcam_series::MultivariateSeries;
use http::{After, Exchange, FrontEnd, FrontEndConfig, HttpStats, Request};
use jobs::{JobStatus, JobStore};
use serde::Value;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io;
use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wire::JobRequest;

/// Test- and drill-only fault injection switches for one server. Shared
/// by handle ([`ServerConfig::faults`] is an `Arc`), so a chaos test can
/// flip a running shard into a failure mode — sick health checks, erroring
/// or stalling request handlers, failing swaps — and back, without
/// restarting it. All switches default to off and cost one relaxed atomic
/// load on the paths they guard.
#[derive(Debug, Default)]
pub struct ServerFaults {
    /// `GET /healthz` answers 500 — the shard looks sick to a router's
    /// health checker while everything else still works.
    pub fail_healthz: AtomicBool,
    /// `POST /v1/explain` and `/v1/classify` answer 500 without touching
    /// the service — a shard whose serving path is broken.
    pub fail_requests: AtomicBool,
    /// Every request handler sleeps this many milliseconds before doing
    /// anything — a wedged or overloaded shard (drives client/router
    /// timeouts deterministically).
    pub stall_ms: AtomicU64,
    /// `POST /v1/models/{name}/swap` answers 500 before the registry is
    /// touched — for rollout abort drills.
    pub fail_swap: AtomicBool,
}

/// Configuration of a [`DcamServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (read it back with
    /// [`DcamServer::addr`]).
    pub addr: String,
    /// Connection-worker threads (each drives one connection at a time;
    /// the explanation work itself happens on the service's own workers).
    pub conn_workers: usize,
    /// Bound on accepted-but-unclaimed connections. The accept thread
    /// answers overflow with an immediate 503 instead of letting the
    /// kernel queue grow unbounded.
    pub conn_backlog: usize,
    /// Request bodies above this get a 413 and the connection closes.
    pub max_body_bytes: usize,
    /// End-to-end deadline per request (parse → submit → answer). A
    /// request that cannot be answered in time gets a 504 and its service
    /// work is cancelled.
    pub request_deadline: Duration,
    /// How long an idle keep-alive connection is held open.
    pub idle_keepalive: Duration,
    /// Value of the `Retry-After` header on backpressure 503s, seconds.
    pub retry_after_s: u32,
    /// Honour the `inject_panic` fault-injection field of explain
    /// requests (tests and ops drills only — never enable facing users).
    pub enable_fault_injection: bool,
    /// When set, `POST /v1/models/{name}/swap` — the operator API that
    /// loads server-side files — requires a matching `X-Admin-Token`
    /// header: missing token → structured 401, wrong token → 403. `None`
    /// leaves the endpoint open (trusted-network deployments only).
    pub admin_token: Option<String>,
    /// Fault-injection switches, shared with tests/drills via the `Arc`.
    pub faults: Arc<ServerFaults>,
    /// Bound on unfinished `/v1/eval` jobs (queued + running); submits
    /// beyond it get a 503. Evaluation re-classifies every instance once
    /// per method × grid point, so the bound keeps a burst of submits
    /// from pinning the runner thread for minutes.
    pub eval_capacity: usize,
    /// Bound on unfinished `/v1/analyze` jobs (queued + running). Mining
    /// explains every instance and then clusters per (class, dimension),
    /// so a single job already saturates the runner — the bound is small
    /// by default.
    pub analyze_capacity: usize,
    /// When set, every finished `/v1/eval` and `/v1/analyze` report is
    /// also written to this directory as `eval-{id}.json` /
    /// `analyze-{id}.json` (unique temp file + atomic rename, the same
    /// idiom as checkpoint saves) and survives a restart: `GET` answers
    /// for ids the in-memory store no longer knows fall back to the
    /// persisted report, and fresh job ids are reserved past anything
    /// already on disk so an old report is never shadowed. `None` keeps
    /// reports in memory only.
    pub jobs_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            conn_workers: 2,
            conn_backlog: 64,
            max_body_bytes: 8 * 1024 * 1024,
            request_deadline: Duration::from_secs(30),
            idle_keepalive: Duration::from_secs(5),
            retry_after_s: 1,
            enable_fault_injection: false,
            admin_token: None,
            faults: Arc::new(ServerFaults::default()),
            eval_capacity: 4,
            analyze_capacity: 2,
            jobs_dir: None,
        }
    }
}

/// Server-level counters (the transport's half of `GET /stats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted off the listener.
    pub connections_accepted: u64,
    /// Connections bounced with 503 because the backlog was full.
    pub connections_rejected: u64,
    /// Requests parsed off connections.
    pub requests: u64,
    /// Responses with status 2xx.
    pub responses_2xx: u64,
    /// Responses with status 4xx.
    pub responses_4xx: u64,
    /// Responses with status 5xx (including 503/504).
    pub responses_5xx: u64,
    /// 503s from service backpressure (subset of `responses_5xx`).
    pub backpressure_503: u64,
    /// 504s from the per-request deadline (subset of `responses_5xx`).
    pub deadline_504: u64,
    /// Requests whose client disconnected mid-flight; their service work
    /// was cancelled.
    pub disconnect_cancels: u64,
}

/// The shard's own counters; the transport's live in its [`FrontEnd`].
#[derive(Default)]
struct Counters {
    backpressure_503: AtomicU64,
    deadline_504: AtomicU64,
    disconnect_cancels: AtomicU64,
}

impl Counters {
    fn snapshot(&self, http: HttpStats) -> ServerStats {
        ServerStats {
            connections_accepted: http.connections_accepted,
            connections_rejected: http.connections_rejected,
            requests: http.requests,
            responses_2xx: http.responses_2xx,
            responses_4xx: http.responses_4xx,
            responses_5xx: http.responses_5xx,
            backpressure_503: self.backpressure_503.load(Ordering::Relaxed),
            deadline_504: self.deadline_504.load(Ordering::Relaxed),
            disconnect_cancels: self.disconnect_cancels.load(Ordering::Relaxed),
        }
    }
}

/// State shared by the route function and the job runners.
struct Ctx {
    registry: Arc<ModelRegistry>,
    cfg: ServerConfig,
    counters: Counters,
    /// Stops the job runners.
    shutdown: AtomicBool,
    eval: JobRoute<HarnessConfig, EvalReport>,
    analyze: JobRoute<AnalyzeConfig, MotifReport>,
}

impl Ctx {
    /// Aggregate service stats across every registered model (each
    /// model's stats include its swap-retired generations, so these
    /// counters are monotonic for as long as the models stay registered).
    fn aggregate_stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for info in self.registry.list() {
            total.absorb(&info.stats);
        }
        total
    }
}

/// A running explanation server.
///
/// Dropping it without [`DcamServer::shutdown`] stops the HTTP threads
/// but leaves the registry's models running — a shared registry may be
/// serving other fronts. (For a server built with [`serve`], dropping
/// the last `Arc` then drains the wrapped service anyway.)
pub struct DcamServer {
    ctx: Arc<Ctx>,
    front: FrontEnd,
    runners: Vec<JoinHandle<()>>,
    draining: bool,
}

/// Boots the HTTP front end over a single running [`DcamService`]: the
/// service is registered under the name `"default"` in a fresh
/// [`ModelRegistry`] (so requests that do not name a model keep working),
/// then served exactly like [`serve_registry`].
///
/// A checkpoint swap of this `"default"` entry re-spawns it with
/// [`ServiceConfig::default`] — register through a
/// [`ModelRegistry`] yourself to control the respawn config.
pub fn serve(service: DcamService, cfg: ServerConfig) -> io::Result<DcamServer> {
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register("default", service, "", ServiceConfig::default())
        .expect("fresh registry accepts the default model");
    serve_registry(registry, cfg)
}

/// Boots the HTTP front end over a [`ModelRegistry`]: binds `cfg.addr`,
/// starts the accept thread and `cfg.conn_workers` connection workers, and
/// returns immediately. The registry may be shared — models can be
/// registered, swapped and unregistered while the server runs, and the
/// HTTP swap endpoint drives the same registry.
pub fn serve_registry(registry: Arc<ModelRegistry>, cfg: ServerConfig) -> io::Result<DcamServer> {
    let eval = JobRoute::new(EVAL, cfg.eval_capacity);
    let analyze = JobRoute::new(ANALYZE, cfg.analyze_capacity);
    if let Some(dir) = cfg.jobs_dir.as_deref() {
        // A bad jobs directory should fail boot loudly, not surface as
        // silently non-durable reports later.
        std::fs::create_dir_all(dir)?;
        eval.jobs.reserve_through(max_persisted_id(dir, EVAL.name));
        analyze
            .jobs
            .reserve_through(max_persisted_id(dir, ANALYZE.name));
    }
    let front_cfg = FrontEndConfig {
        name: "dcam",
        conn_workers: cfg.conn_workers,
        conn_backlog: cfg.conn_backlog,
        max_body_bytes: cfg.max_body_bytes,
        request_deadline: cfg.request_deadline,
        idle_keepalive: cfg.idle_keepalive,
        retry_after_s: cfg.retry_after_s,
        backlog_full: "connection backlog full",
    };
    let ctx = Arc::new(Ctx {
        registry,
        cfg,
        counters: Counters::default(),
        shutdown: AtomicBool::new(false),
        eval,
        analyze,
    });
    let front = FrontEnd::bind(&ctx.cfg.addr, front_cfg, {
        let ctx = Arc::clone(&ctx);
        move |ex, req| route(ex, req, &ctx)
    })?;
    let runners = vec![
        spawn_runner(&ctx, |ctx| &ctx.eval),
        spawn_runner(&ctx, |ctx| &ctx.analyze),
    ];
    Ok(DcamServer {
        ctx,
        front,
        runners,
        draining: false,
    })
}

impl DcamServer {
    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The model registry this server routes into.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.ctx.registry
    }

    /// Server-level counters.
    pub fn server_stats(&self) -> ServerStats {
        self.ctx.counters.snapshot(self.front.stats())
    }

    /// Aggregate service-level counters across every registered model
    /// (same snapshot `GET /stats` serves).
    pub fn service_stats(&self) -> ServiceStats {
        self.ctx.aggregate_stats()
    }

    /// SIGTERM-style graceful drain: stop accepting connections, let the
    /// connection workers finish every accepted request (in-flight
    /// keep-alive connections get `Connection: close` on their next
    /// response), then drain every registered model and return all the
    /// models plus the aggregate final stats. The registry is left empty.
    pub fn shutdown(mut self) -> (Vec<GapClassifier>, ServiceStats, ServerStats) {
        self.draining = true;
        self.stop_threads();
        let mut models = Vec::new();
        let mut stats: Option<ServiceStats> = None;
        for (_, m, s) in self.ctx.registry.shutdown_all() {
            models.extend(m);
            match &mut stats {
                Some(total) => total.absorb(&s),
                None => stats = Some(s),
            }
        }
        (models, stats.unwrap_or_default(), self.server_stats())
    }

    fn stop_threads(&mut self) {
        // Jobs first: a running job bails at its next stage boundary
        // instead of competing with the requests being drained.
        self.ctx.shutdown.store(true, Ordering::Release);
        self.ctx.eval.jobs.notify_shutdown();
        self.ctx.analyze.jobs.notify_shutdown();
        self.front.stop();
        for t in self.runners.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for DcamServer {
    /// Stops the HTTP threads only — the registry's models keep serving
    /// (a shared registry may be behind other fronts; an exclusively
    /// owned one drains when its last `Arc` drops). Call
    /// [`DcamServer::shutdown`] to also drain the models.
    fn drop(&mut self) {
        if !self.draining {
            self.stop_threads();
        }
    }
}

fn route(ex: &mut Exchange<'_>, req: &Request, ctx: &Ctx) -> After {
    // Fault injection: a stalled shard stalls on *every* route, before any
    // of them get to answer.
    let faults = &ctx.cfg.faults;
    let stall = faults.stall_ms.load(Ordering::Relaxed);
    if stall > 0 {
        std::thread::sleep(Duration::from_millis(stall));
    }
    if faults.fail_healthz.load(Ordering::Relaxed) && req.path == "/healthz" {
        return ex.error(500, "unhealthy", "health check failing (injected fault)");
    }
    if faults.fail_requests.load(Ordering::Relaxed)
        && matches!(req.path.as_str(), "/v1/explain" | "/v1/classify")
    {
        return ex.error(
            500,
            "injected_failure",
            "request path failing (injected fault)",
        );
    }
    if let Some(after) = ctx.eval.route(ex, req, ctx) {
        return after;
    }
    if let Some(after) = ctx.analyze.route(ex, req, ctx) {
        return after;
    }
    // Model-admin routes: `/v1/models/{name}/swap`.
    if let Some(name) = req
        .path
        .strip_prefix("/v1/models/")
        .and_then(|rest| rest.strip_suffix("/swap"))
    {
        return if req.method == "POST" {
            handle_swap(ex, req, ctx, name)
        } else {
            ex.method_not_allowed("POST")
        };
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            // Liveness must stay cheap: queue depths only, no latency
            // snapshots (those are /stats and /v1/models work).
            let body = serde_json::to_string(&Value::Object(vec![
                ("status".into(), Value::String("ok".into())),
                ("models".into(), Value::Number(ctx.registry.len() as f64)),
                (
                    "workers".into(),
                    Value::Number(ctx.registry.total_workers() as f64),
                ),
                (
                    "queue_depth".into(),
                    Value::Number(ctx.registry.total_queue_depth() as f64),
                ),
            ]))
            .unwrap_or_default();
            ex.json(200, &body)
        }
        ("GET", "/v1/models") => ex.json(200, &wire::models_body(&ctx.registry.list())),
        ("GET", "/stats") => {
            let c = &ctx.counters;
            let mut server = wire::http_stats_fields(&ex.http_stats());
            for (name, counter) in [
                ("backpressure_503", &c.backpressure_503),
                ("deadline_504", &c.deadline_504),
                ("disconnect_cancels", &c.disconnect_cancels),
            ] {
                let n = counter.load(Ordering::Relaxed) as f64;
                server.push((name.into(), Value::Number(n)));
            }
            let jobs = Value::Object(vec![
                ("eval".into(), ctx.eval.counters_value()),
                ("analyze".into(), ctx.analyze.counters_value()),
            ]);
            let body = serde_json::to_string(&Value::Object(vec![
                (
                    "service".into(),
                    wire::service_stats_value(&ctx.aggregate_stats()),
                ),
                ("server".into(), Value::Object(server)),
                ("jobs".into(), jobs),
            ]))
            .unwrap_or_default();
            ex.json(200, &body)
        }
        ("POST", "/v1/explain") => handle_explain(ex, req, ctx),
        ("POST", "/v1/classify") => handle_classify(ex, req, ctx),
        (_, "/healthz" | "/stats" | "/v1/models") => ex.method_not_allowed("GET"),
        (_, "/v1/explain" | "/v1/classify") => ex.method_not_allowed("POST"),
        (_, path) => ex.error(404, "not_found", &format!("no route for {path}")),
    }
}

/// The request body decoded by a `wire::parse_*` function; a body that is
/// not JSON, or not the shape `parse` wants, is a structured 400.
fn parse_body<T>(
    ex: &mut Exchange<'_>,
    req: &Request,
    parse: fn(&Value) -> Result<T, String>,
) -> Result<T, After> {
    let value = ex.body_json(req)?;
    parse(&value).map_err(|msg| ex.error(400, "bad_request", &msg))
}

fn tenant_key(tenant: &str) -> u64 {
    let mut h = DefaultHasher::new();
    tenant.hash(&mut h);
    h.finish()
}

/// Maps a submit-time [`ServiceError`] onto an HTTP response.
fn respond_submit_error(ex: &mut Exchange<'_>, ctx: &Ctx, err: ServiceError) -> After {
    let code = match err {
        ServiceError::ShapeMismatch { .. } => "shape_mismatch",
        ServiceError::EmptySeries => "empty_series",
        ServiceError::InvalidClass { .. } => "invalid_class",
        ServiceError::QueueFull { .. } | ServiceError::SubmitTimeout { .. } => {
            ctx.counters
                .backpressure_503
                .fetch_add(1, Ordering::Relaxed);
            return ex.unavailable("overloaded", &err.to_string());
        }
        ServiceError::ShuttingDown => {
            let body = wire::error_body("shutting_down", &err.to_string());
            return ex.respond(503, &[], &body, true);
        }
        other => return ex.error(500, "internal", &other.to_string()),
    };
    ex.error(400, code, &err.to_string())
}

/// Maps a [`RegistryError`] onto an HTTP response.
fn respond_registry_error(ex: &mut Exchange<'_>, err: RegistryError) -> After {
    let (status, code) = match &err {
        RegistryError::UnknownModel { .. } => (404, "model_not_found"),
        RegistryError::InvalidName { .. } => (400, "invalid_model"),
        RegistryError::ModelRequired { .. } => (400, "model_required"),
        RegistryError::DuplicateModel { .. } => (409, "model_exists"),
        RegistryError::GeometryMismatch { .. } => (409, "geometry_mismatch"),
        RegistryError::Checkpoint(_) => (422, "bad_checkpoint"),
    };
    ex.error(status, code, &err.to_string())
}

/// The server's deadline bound on a submission handle: a `Block`
/// backpressure policy would park a connection worker (or a job runner)
/// on a full queue with no deadline and no disconnect detection, so it is
/// rebound to a timeout. (In-process submitters keep whatever policy the
/// service was configured with — this only rebinds the server's handle.)
fn bounded(handle: ServiceHandle, ctx: &Ctx) -> ServiceHandle {
    match handle.backpressure() {
        Backpressure::Block => {
            handle.with_backpressure(Backpressure::Timeout(ctx.cfg.request_deadline))
        }
        _ => handle,
    }
}

/// Resolves the model a request names (or the registry's default) into a
/// [`bounded`] submission handle.
fn resolve_handle(
    ex: &mut Exchange<'_>,
    ctx: &Ctx,
    model: Option<&str>,
) -> Result<ServiceHandle, After> {
    match ctx.registry.resolve(model) {
        Ok((_, handle)) => Ok(bounded(handle, ctx)),
        Err(e) => Err(respond_registry_error(ex, e)),
    }
}

/// `POST /v1/models/{name}/swap`: hot-swap the named model to the binary
/// checkpoint at the path given in the body. The swap happens on this
/// connection worker's thread — other connections (and every other model)
/// keep being served by the remaining workers meanwhile.
fn handle_swap(ex: &mut Exchange<'_>, req: &Request, ctx: &Ctx, name: &str) -> After {
    // Operator gate: swap loads server-side files, so when an admin token
    // is configured the request must present it before anything is parsed.
    if let Err(after) = ex.require_admin(req, ctx.cfg.admin_token.as_deref()) {
        return after;
    }
    if ctx.cfg.faults.fail_swap.load(Ordering::Relaxed) {
        return ex.error(500, "injected_failure", "swap failing (injected fault)");
    }
    let value = match ex.body_json(req) {
        Ok(v) => v,
        Err(after) => return after,
    };
    let Some(path) = value.get("path").and_then(Value::as_str) else {
        return ex.error(400, "bad_request", "missing string field \"path\"");
    };
    if let Err(e) = dcam::registry::validate_model_name(name) {
        return respond_registry_error(ex, e);
    }
    match ctx.registry.swap(name, path) {
        Ok(outcome) => ex.json(
            200,
            &wire::swap_body(name, outcome.version, &outcome.old_stats),
        ),
        Err(e) => respond_registry_error(ex, e),
    }
}

/// Waits for the worker's answer and writes it (`render` builds the 200
/// body), while polling the socket for an early client disconnect and
/// enforcing the per-request deadline. Returning on either of those drops
/// the future, which marks the request cancelled — the service's workers
/// observe that before doing the cube build.
///
/// The answer is polled every 5 ms (pure futex wait — cheap and it bounds
/// added response latency); the disconnect probe costs three syscalls, so
/// it runs on a coarser interval — a hang-up is only worth noticing at
/// the timescale of the engine work it would cancel.
fn answer<T>(
    ex: &mut Exchange<'_>,
    ctx: &Ctx,
    future: ResponseFuture<T>,
    render: impl FnOnce(&T) -> String,
) -> After {
    const PROBE_EVERY: Duration = Duration::from_millis(50);
    let deadline = Instant::now() + ctx.cfg.request_deadline;
    let mut next_probe = Instant::now() + PROBE_EVERY;
    loop {
        match future.wait_timeout(Duration::from_millis(5)) {
            Some(Ok(value)) => return ex.json(200, &render(&value)),
            Some(Err(ServiceError::OnlyCorrectMiss { .. })) => {
                return ex.error(
                    422,
                    "only_correct_miss",
                    "no permutation was classified as the target class",
                )
            }
            Some(Err(e)) => return ex.error(500, "worker_lost", &e.to_string()),
            None => {}
        }
        let now = Instant::now();
        if now >= next_probe {
            if ex.conn().peer_closed() {
                ctx.counters
                    .disconnect_cancels
                    .fetch_add(1, Ordering::Relaxed);
                return After::Close;
            }
            next_probe = now + PROBE_EVERY;
        }
        if now >= deadline {
            ctx.counters.deadline_504.fetch_add(1, Ordering::Relaxed);
            let body = wire::error_body("deadline_exceeded", "request deadline exceeded");
            return ex.respond(504, &[], &body, true);
        }
    }
}

fn handle_explain(ex: &mut Exchange<'_>, req: &Request, ctx: &Ctx) -> After {
    let parsed = match parse_body(ex, req, wire::parse_explain) {
        Ok(p) => p,
        Err(after) => return after,
    };
    if parsed.inject_panic && !ctx.cfg.enable_fault_injection {
        return ex.error(
            400,
            "fault_injection_disabled",
            "this server does not honour inject_panic",
        );
    }
    let handle = match resolve_handle(ex, ctx, parsed.model.as_deref()) {
        Ok(h) => h,
        Err(after) => return after,
    };
    let series = MultivariateSeries::from_rows(&parsed.series);
    let opts = RequestOptions {
        class: parsed.class,
        strict_only_correct: parsed.strict_only_correct,
        tenant: parsed.tenant.as_deref().map(tenant_key),
        inject_panic: parsed.inject_panic,
    };
    match handle.submit_with(&series, opts) {
        Ok(future) => answer(ex, ctx, future, |result| {
            wire::explain_body(result, parsed.summary, parsed.top_k)
        }),
        Err(e) => respond_submit_error(ex, ctx, e),
    }
}

fn handle_classify(ex: &mut Exchange<'_>, req: &Request, ctx: &Ctx) -> After {
    let parsed = match parse_body(ex, req, wire::parse_classify) {
        Ok(p) => p,
        Err(after) => return after,
    };
    let handle = match resolve_handle(ex, ctx, parsed.model.as_deref()) {
        Ok(h) => h,
        Err(after) => return after,
    };
    let series = MultivariateSeries::from_rows(&parsed.series);
    let tenant = parsed.tenant.as_deref().map(tenant_key);
    match handle.submit_classify_with(&series, tenant) {
        Ok(future) => answer(ex, ctx, future, wire::classify_body),
        Err(e) => respond_submit_error(ex, ctx, e),
    }
}

/// A submit-time rejection of a job: the 400's error code and message.
type Rejection = (&'static str, String);

/// A job kind's submit-time checks (see [`JobKind::validate`]).
type Validate<C> = fn(&JobRequest<C>, &str, Option<&ModelInfo>) -> Result<(), Rejection>;

/// A job kind's work: model backend, instances, labels, parameters and
/// cancel flag in, report out — the shape of [`run_harness`] and
/// [`mine_motifs`].
type Run<C, R> = fn(
    &mut dyn EvalBackend,
    &[MultivariateSeries],
    &[usize],
    &C,
    Option<&AtomicBool>,
) -> Result<R, String>;

/// What sets one kind of background job apart; everything else — the
/// routes, the store, the runner, persistence — is shared ([`JobRoute`]).
struct JobKind<C, R> {
    /// The route segment (`/v1/{name}`), the persisted-report prefix and
    /// the runner thread's name.
    name: &'static str,
    /// Decodes a submitted body.
    parse: fn(&Value) -> Result<JobRequest<C>, String>,
    /// Submit-time checks against the resolved model's name and registry
    /// listing, so a bad request is a structured 400 at submit time
    /// instead of a `failed` job discovered on the first poll.
    validate: Validate<C>,
    /// The work, driven through the model's own service.
    run: Run<C, R>,
    /// The report as the `report` field of `GET /v1/{name}/{id}`.
    report: fn(&R) -> Value,
}

/// `/v1/eval`: perturbation-based explanation-faithfulness jobs.
const EVAL: JobKind<HarnessConfig, EvalReport> = JobKind {
    name: "eval",
    parse: wire::parse_eval,
    validate: validate_eval,
    run: run_harness,
    report: wire::eval_report_value,
};

/// `/v1/analyze`: motif-mining jobs over dCAM maps.
const ANALYZE: JobKind<AnalyzeConfig, MotifReport> = JobKind {
    name: "analyze",
    parse: wire::parse_analyze,
    validate: validate_analyze,
    run: mine_motifs,
    report: wire::motif_report_value,
};

fn check_labels(labels: &[usize], model: &str, info: &ModelInfo) -> Result<(), Rejection> {
    match labels
        .iter()
        .enumerate()
        .find(|(_, &l)| l >= info.n_classes)
    {
        Some((i, l)) => Err((
            "invalid_class",
            format!(
                "labels[{i}] = {l} but model \"{model}\" has {} classes",
                info.n_classes
            ),
        )),
        None => Ok(()),
    }
}

fn validate_eval(
    job: &JobRequest<HarnessConfig>,
    model: &str,
    info: Option<&ModelInfo>,
) -> Result<(), Rejection> {
    if let Some(info) = info {
        for (i, rows) in job.series_list.iter().enumerate() {
            if rows.len() != info.dims {
                return Err((
                    "shape_mismatch",
                    format!(
                        "instance {i} has {} dimensions, model \"{model}\" expects {}",
                        rows.len(),
                        info.dims
                    ),
                ));
            }
        }
        check_labels(&job.labels, model, info)?;
    }
    if job.config.methods.contains(&ExplainerKind::Occlusion) {
        for (i, rows) in job.series_list.iter().enumerate() {
            let n = rows.first().map(Vec::len).unwrap_or(0);
            occlusion_spans(n, &job.config.occlusion)
                .map_err(|e| ("bad_occlusion_window", format!("instance {i}: {e}")))?;
        }
    }
    Ok(())
}

fn validate_analyze(
    job: &JobRequest<AnalyzeConfig>,
    model: &str,
    info: Option<&ModelInfo>,
) -> Result<(), Rejection> {
    // The pipeline needs one shared geometry: enforce it here (mining a
    // ragged dataset is a submit error, not a runtime failure).
    let geometry = |rows: &Vec<Vec<f32>>| (rows.len(), rows.first().map_or(0, Vec::len));
    let (dims, _) = geometry(&job.series_list[0]);
    if let Some(i) = job
        .series_list
        .iter()
        .position(|rows| geometry(rows) != geometry(&job.series_list[0]))
    {
        return Err((
            "shape_mismatch",
            format!("instance {i} does not share instance 0's (dims, len) geometry"),
        ));
    }
    if let Some(info) = info {
        if dims != info.dims {
            return Err((
                "shape_mismatch",
                format!(
                    "instances have {dims} dimensions, model \"{model}\" expects {}",
                    info.dims
                ),
            ));
        }
        check_labels(&job.labels, model, info)?;
    }
    Ok(())
}

/// One job kind's HTTP surface and store. `POST /v1/{name}` validates
/// and enqueues (202 + id; 503 + `Retry-After` past the capacity),
/// `GET /v1/{name}/{id}` polls, `DELETE /v1/{name}/{id}` cancels (queued:
/// immediately; running: at the work's next stage boundary). One
/// dedicated runner thread drains the queue, so shutdown never waits on
/// more than the job in hand.
struct JobRoute<C, R> {
    kind: JobKind<C, R>,
    jobs: JobStore<JobRequest<C>, R>,
}

impl<C, R: Clone> JobRoute<C, R> {
    fn new(kind: JobKind<C, R>, capacity: usize) -> Self {
        JobRoute {
            kind,
            jobs: JobStore::new(capacity),
        }
    }

    fn counters_value(&self) -> Value {
        wire::job_counters_value(&self.jobs.counters())
    }

    /// Answers `/v1/{name}` and `/v1/{name}/{id}`; `None` leaves any other
    /// path to the caller.
    fn route(&self, ex: &mut Exchange<'_>, req: &Request, ctx: &Ctx) -> Option<After> {
        let name = self.kind.name;
        let rest = req.path.strip_prefix("/v1/")?.strip_prefix(name)?;
        if rest.is_empty() {
            return Some(if req.method == "POST" {
                self.submit(ex, req, ctx)
            } else {
                ex.method_not_allowed("POST")
            });
        }
        let rest = rest.strip_prefix('/')?;
        let Ok(id) = rest.parse::<u64>() else {
            return Some(ex.error(404, "unknown_job", &format!("no {name} job \"{rest}\"")));
        };
        Some(match req.method.as_str() {
            "GET" => self.status(ex, ctx, id),
            // Idempotent on finished jobs; answers the status after the
            // cancel took effect.
            "DELETE" => match self.jobs.cancel(id) {
                Some(status) => ex.json(200, &wire::job_submitted_body(id, status.name())),
                None => self.unknown(ex, id),
            },
            _ => ex.method_not_allowed("GET, DELETE"),
        })
    }

    fn unknown(&self, ex: &mut Exchange<'_>, id: u64) -> After {
        let name = self.kind.name;
        ex.error(404, "unknown_job", &format!("no {name} job {id}"))
    }

    fn submit(&self, ex: &mut Exchange<'_>, req: &Request, ctx: &Ctx) -> After {
        let job = match parse_body(ex, req, self.kind.parse) {
            Ok(job) => job,
            Err(after) => return after,
        };
        let model = match ctx.registry.resolve(job.model.as_deref()) {
            Ok((model, _)) => model,
            Err(e) => return respond_registry_error(ex, e),
        };
        let info = ctx.registry.list().into_iter().find(|m| m.name == model);
        if let Err((code, message)) = (self.kind.validate)(&job, &model, info.as_ref()) {
            return ex.error(400, code, &message);
        }
        match self.jobs.submit(job) {
            Some(id) => ex.json(202, &wire::job_submitted_body(id, "queued")),
            None => {
                ctx.counters
                    .backpressure_503
                    .fetch_add(1, Ordering::Relaxed);
                let message = format!("{} job queue is full", self.kind.name);
                ex.unavailable("overloaded", &message)
            }
        }
    }

    /// Job status, plus the report once done or the failure message once
    /// failed. Ids unknown to the in-memory store (server restart, or
    /// eviction past the retention bound) fall back to a report persisted
    /// under [`ServerConfig::jobs_dir`], served verbatim.
    fn status(&self, ex: &mut Exchange<'_>, ctx: &Ctx, id: u64) -> After {
        if let Some(status) = self.jobs.status(id) {
            return ex.json(200, &wire::job_status_body(id, &status, self.kind.report));
        }
        let persisted = ctx
            .cfg
            .jobs_dir
            .as_deref()
            .and_then(|dir| std::fs::read_to_string(report_path(dir, self.kind.name, id)).ok());
        match persisted {
            Some(body) => ex.json(200, &body),
            None => self.unknown(ex, id),
        }
    }

    /// The runner loop: one job at a time, the target model re-resolved
    /// per job (a swap between submit and run uses the new generation —
    /// exactly what live traffic would see).
    fn run_jobs(&self, ctx: &Ctx) {
        while let Some((id, job, cancel)) = self.jobs.next_job(&ctx.shutdown) {
            let result = self.run(ctx, &job, &cancel);
            if let (Some(dir), Ok(report)) = (ctx.cfg.jobs_dir.as_deref(), &result) {
                let body =
                    wire::job_status_body(id, &JobStatus::Done(report), |r| (self.kind.report)(r));
                persist_report(dir, self.kind.name, id, &body);
            }
            self.jobs.finish(id, result);
        }
    }

    fn run(&self, ctx: &Ctx, job: &JobRequest<C>, cancel: &AtomicBool) -> Result<R, String> {
        let (_name, handle) = ctx
            .registry
            .resolve(job.model.as_deref())
            .map_err(|e| e.to_string())?;
        let samples: Vec<MultivariateSeries> = job
            .series_list
            .iter()
            .map(|rows| MultivariateSeries::from_rows(rows))
            .collect();
        let mut backend = ServiceBackend::new(bounded(handle, ctx), None);
        (self.kind.run)(
            &mut backend,
            &samples,
            &job.labels,
            &job.config,
            Some(cancel),
        )
    }
}

/// Starts the runner thread of the job route `pick` selects.
fn spawn_runner<C, R>(ctx: &Arc<Ctx>, pick: fn(&Ctx) -> &JobRoute<C, R>) -> JoinHandle<()>
where
    C: 'static,
    R: Clone + 'static,
{
    let ctx = Arc::clone(ctx);
    std::thread::Builder::new()
        .name(format!("dcam-{}-runner", pick(&ctx).kind.name))
        .spawn(move || pick(&ctx).run_jobs(&ctx))
        .expect("spawn job runner thread")
}

/// The on-disk location of a persisted job report.
fn report_path(dir: &Path, kind: &str, id: u64) -> PathBuf {
    dir.join(format!("{kind}-{id}.json"))
}

/// The highest job id with a persisted `{kind}-{id}.json` report in
/// `dir` (0 when there is none). Foreign files are ignored — the
/// directory is operator-owned and a stray file must not stop boot.
fn max_persisted_id(dir: &Path, kind: &str) -> u64 {
    let prefix = format!("{kind}-");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| {
            e.file_name()
                .to_str()?
                .strip_prefix(&prefix)?
                .strip_suffix(".json")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .unwrap_or(0)
}

/// Writes a finished job's rendered `GET` body to
/// `{dir}/{kind}-{id}.json` through a unique temp file and an atomic
/// rename, so a crash mid-write can never leave a half-written report
/// where a later `GET` would find it. Persistence failures are logged and
/// swallowed — the in-memory report still serves.
fn persist_report(dir: &Path, kind: &str, id: u64, body: &str) {
    let path = report_path(dir, kind, id);
    let tmp = dir.join(format!(".{kind}-{id}.json.tmp-{}", std::process::id()));
    let write = || -> io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, &path)
    };
    if let Err(e) = write() {
        let _ = std::fs::remove_file(&tmp);
        eprintln!(
            "dcam-server: cannot persist {kind} job {id} to {}: {e}",
            path.display()
        );
    }
}
