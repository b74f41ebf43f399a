//! The open-loop load generator.
//!
//! Requests follow a seeded Poisson schedule fixed before the phase
//! starts. `CONNS` workers, each owning one keep-alive connection, claim
//! the next due request in order, sleep until it is due and send it; a
//! request that comes due while both connections are busy waits in the
//! generator. Latency runs from the due time, so that wait counts.

use crate::workload::{Inputs, Pick, Schedule};
use dcam_server::{ClientConfig, HttpClient};
use serde::Value;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Worker threads, and keep-alive connections: one each. The calling
/// thread is one of the workers, so the generator runs on exactly this
/// many threads while a phase is in flight.
pub const CONNS: usize = 2;

/// Client-side bound on one request, from send to the last response byte.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// A phase is cut off this long after its last request was due; anything
/// not yet sent by then counts as failed rather than hanging the run.
const PHASE_GRACE: Duration = Duration::from_secs(20);

/// Generator-side lag (send time past the later of due time and the
/// moment a connection came free) whose p99 above this, or above a tenth
/// of the latency limit, means the generator, not the fleet, fell behind
/// and the phase is marked invalid.
const GEN_LAG_P99_FLOOR_MS: f64 = 5.0;

/// Responses kept for the output check: every request whose seeded hash
/// falls in 1/SAMPLE_EVERY, at most SAMPLE_CAP per phase.
const SAMPLE_EVERY: u64 = 12;
const SAMPLE_CAP: usize = 48;

/// Where a phase sends its requests: all to one address, or worker `i`
/// to address `i` (direct to the shards, bypassing the router).
pub enum Target<'a> {
    Router(&'a str),
    Shards(&'a [String]),
}

impl Target<'_> {
    fn addr(&self, worker: usize) -> &str {
        match self {
            Target::Router(a) => a,
            Target::Shards(s) => &s[worker % s.len()],
        }
    }
}

/// What happened to one scheduled request. Times are seconds from the
/// phase start.
#[derive(Clone)]
pub struct Rec {
    pub pick: Pick,
    pub due: f64,
    /// When a worker was free to take it.
    pub claim: f64,
    pub sent: f64,
    pub done: f64,
    pub was_sent: bool,
    pub error: Option<String>,
}

impl Rec {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

pub struct PhaseRun {
    pub name: String,
    pub rate: f64,
    pub recs: Vec<Rec>,
    /// Requests and the answers kept for the output check.
    pub samples: Vec<(Pick, String)>,
    pub wall_s: f64,
    /// An answer exceeded the phase's abort threshold and the rest of the
    /// schedule was not sent.
    pub aborted: bool,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A cheap shape check every answer gets; the sampled ones are also
/// compared against the in-process oracles.
fn looks_right(pick: &Pick, status: u16, body: &str, summary: bool) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    let prefix = match (pick.explain, summary) {
        (true, false) => "{\"dcam\":",
        (true, true) => "{\"dims\":",
        (false, _) => "{\"class\":",
    };
    if body.starts_with(prefix) && body.ends_with('}') {
        Ok(())
    } else {
        Err(format!("unexpected body {:?}", &body[..body.len().min(40)]))
    }
}

fn connect(addr: &str) -> Result<HttpClient, String> {
    let cfg = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_deadline: REQUEST_TIMEOUT,
    };
    HttpClient::connect_with(addr, cfg).map_err(|e| format!("connect {addr}: {e}"))
}

/// One worker's records, keyed by schedule index, and its kept answers.
type WorkerOutput = (Vec<(usize, Rec)>, Vec<(Pick, String)>);

/// Runs one phase of `sched` against `target` and returns the record of
/// every request sent. With `abort_ms`, the first answer slower than that
/// stops the phase: requests not yet claimed are not sent.
pub fn run_phase(
    name: &str,
    target: &Target,
    sched: &Schedule,
    inputs: &Inputs,
    summary: bool,
    sample_seed: u64,
    abort_ms: Option<f64>,
) -> PhaseRun {
    let n = sched.due.len();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(CONNS);
    let t0 = Mutex::new(None::<Instant>);
    let cutoff = sched.due.last().copied().unwrap_or(0.0) + PHASE_GRACE.as_secs_f64();

    let worker = |w: usize| -> WorkerOutput {
        let addr = target.addr(w);
        let mut client = connect(addr).ok();
        if barrier.wait().is_leader() {
            *t0.lock().expect("t0 lock") = Some(Instant::now());
        }
        barrier.wait();
        let t0 = t0.lock().expect("t0 lock").expect("t0 set by the leader");
        let mut recs = Vec::new();
        let mut samples = Vec::new();
        loop {
            let claim = t0.elapsed().as_secs_f64();
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let pick = sched.picks[i];
            let due = sched.due[i];
            let mut rec = Rec {
                pick,
                due,
                claim,
                sent: claim,
                done: claim,
                was_sent: false,
                error: None,
            };
            if claim > cutoff {
                rec.error = Some("phase cut off: fleet stalled".into());
                recs.push((i, rec));
                continue;
            }
            if due > claim {
                thread::sleep(Duration::from_secs_f64(due - claim));
            }
            rec.sent = t0.elapsed().as_secs_f64();
            rec.was_sent = true;
            let result = match client.as_mut() {
                Some(c) => c
                    .post(pick.path(), pick.body(inputs))
                    .map_err(|e| e.to_string()),
                None => connect(addr).and_then(|mut c| {
                    let r = c
                        .post(pick.path(), pick.body(inputs))
                        .map_err(|e| e.to_string());
                    client = Some(c);
                    r
                }),
            };
            rec.done = t0.elapsed().as_secs_f64();
            if abort_ms.is_some_and(|a| rec.latency_ms() > a) {
                stop.store(true, Ordering::Relaxed);
            }
            match result {
                Ok(resp) => {
                    if let Err(e) = looks_right(&pick, resp.status, &resp.body, summary) {
                        rec.error = Some(e);
                    } else if splitmix(sample_seed ^ i as u64).is_multiple_of(SAMPLE_EVERY)
                        && samples.len() < SAMPLE_CAP / CONNS
                    {
                        samples.push((pick, resp.body));
                    }
                }
                Err(e) => {
                    rec.error = Some(e);
                    client = None;
                }
            }
            recs.push((i, rec));
        }
        (recs, samples)
    };

    let start = Instant::now();
    let (mut a, b) = thread::scope(|s| {
        let other = s.spawn(|| worker(1));
        let mine = worker(0);
        (mine, other.join().expect("generator worker panicked"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    a.0.extend(b.0);
    a.0.sort_by_key(|(i, _)| *i);
    a.1.extend(b.1);
    PhaseRun {
        name: name.to_string(),
        rate: sched.rate,
        recs: a.0.into_iter().map(|(_, r)| r).collect(),
        samples: a.1,
        wall_s,
        aborted: stop.load(Ordering::Relaxed),
    }
}

/// Nearest-rank percentile of an unsorted sample, `q` in (0, 1].
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The generator's backlog (requests due, not yet sent) at each due time,
/// averaged over the first and the second half of the schedule.
fn backlog_halves(recs: &[Rec]) -> (f64, f64) {
    let mut sent: Vec<f64> = recs.iter().filter(|r| r.was_sent).map(|r| r.sent).collect();
    sent.sort_by(f64::total_cmp);
    let backlog: Vec<f64> = recs
        .iter()
        .enumerate()
        .map(|(i, r)| (i + 1) as f64 - sent.partition_point(|&s| s <= r.due) as f64)
        .collect();
    let half = backlog.len() / 2;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&backlog[..half]), mean(&backlog[half..]))
}

/// Summary of one phase.
pub struct PhaseStats {
    pub name: String,
    pub rate: f64,
    pub due: usize,
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub max_ms: f64,
    /// sent − due, the wait in the generator for a free connection plus
    /// its own lag.
    pub late_p50_ms: f64,
    pub late_max_ms: f64,
    /// The generator's own lag: sent − max(due, claim).
    pub gen_lag_p99_ms: f64,
    pub gen_lag_max_ms: f64,
    /// Mean number of requests due but not yet sent, sampled at each due
    /// time, over the first and the second half of the phase.
    pub backlog_halves: (f64, f64),
    /// The second half's backlog is more than twice the first's plus one.
    pub backlog_grows: bool,
    pub valid: bool,
    pub aborted: bool,
    pub wall_s: f64,
    pub errors: Vec<String>,
}

impl PhaseStats {
    pub fn of(run: &PhaseRun, only: Option<bool>, limit_ms: f64) -> PhaseStats {
        let recs: Vec<&Rec> = run
            .recs
            .iter()
            .filter(|r| only.is_none_or(|e| r.pick.explain == e))
            .collect();
        let ok: Vec<f64> = recs
            .iter()
            .filter(|r| r.error.is_none())
            .map(|r| r.latency_ms())
            .collect();
        let late: Vec<f64> = recs.iter().map(|r| (r.sent - r.due) * 1e3).collect();
        let lag: Vec<f64> = recs
            .iter()
            .map(|r| (r.sent - r.due.max(r.claim)).max(0.0) * 1e3)
            .collect();
        let backlog_halves = backlog_halves(&run.recs);
        let mut errors: Vec<String> = recs.iter().filter_map(|r| r.error.clone()).collect();
        errors.sort();
        errors.dedup();
        errors.truncate(5);
        let gen_lag_p99_ms = percentile(&lag, 0.99);
        PhaseStats {
            name: run.name.clone(),
            rate: run.rate,
            due: recs.len(),
            sent: recs.iter().filter(|r| r.was_sent).count(),
            ok: ok.len(),
            failed: recs.len() - ok.len(),
            p50_ms: percentile(&ok, 0.50),
            p95_ms: percentile(&ok, 0.95),
            max_ms: percentile(&ok, 1.0),
            late_p50_ms: percentile(&late, 0.50),
            late_max_ms: percentile(&late, 1.0),
            gen_lag_p99_ms,
            gen_lag_max_ms: percentile(&lag, 1.0),
            backlog_halves,
            backlog_grows: backlog_halves.1 > 2.0 * backlog_halves.0 + 1.0,
            valid: gen_lag_p99_ms <= GEN_LAG_P99_FLOOR_MS.max(limit_ms / 10.0),
            aborted: run.aborted,
            wall_s: run.wall_s,
            errors,
        }
    }

    pub fn to_value(&self) -> Value {
        // A phase with no answered request has no latency: record null.
        let f = |k: &str, v: f64| {
            let v = if v.is_finite() {
                Value::Number(v)
            } else {
                Value::Null
            };
            (k.to_string(), v)
        };
        Value::Object(vec![
            ("name".into(), Value::String(self.name.clone())),
            f("rate_rps", self.rate),
            f("due", self.due as f64),
            f("sent", self.sent as f64),
            f("ok", self.ok as f64),
            f("failed", self.failed as f64),
            f("p50_ms", self.p50_ms),
            f("p95_ms", self.p95_ms),
            f("max_ms", self.max_ms),
            f("late_p50_ms", self.late_p50_ms),
            f("late_max_ms", self.late_max_ms),
            f("gen_lag_p99_ms", self.gen_lag_p99_ms),
            f("gen_lag_max_ms", self.gen_lag_max_ms),
            f("backlog_first_half", self.backlog_halves.0),
            f("backlog_second_half", self.backlog_halves.1),
            ("backlog_grows".into(), Value::Bool(self.backlog_grows)),
            ("valid".into(), Value::Bool(self.valid)),
            ("aborted".into(), Value::Bool(self.aborted)),
            f("wall_s", self.wall_s),
            (
                "errors".into(),
                Value::Array(self.errors.iter().cloned().map(Value::String).collect()),
            ),
        ])
    }
}
