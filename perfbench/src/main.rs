//! Open-loop fleet benchmark for the dCAM serving stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Launches the release `dcam_router` in front of two `dcam_server`
//! shards, all with their shipped defaults, and drives them from this one
//! process on a seeded Poisson schedule. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is the separate traced run that times
//! each layer from outside and reports the per-layer metrics. Every run
//! checks a seeded sample of answers against in-process oracles, writes
//! its full record under `.bench_out/`, prints each metric with its unit,
//! and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod check;
mod fleet;
mod layers;
mod load;
mod trace;
mod workload;

use fleet::{CounterDelta, Fleet};
use load::{PhaseStats, Target, CONNS, REQUEST_TIMEOUT};
use serde::Value;
use std::path::PathBuf;
use std::process::Command;
use trace::Spans;
use workload::{Inputs, Pick, Schedule, Workload};

/// The low and high phases have at least this many requests, so their
/// p95 has ten samples beyond it.
const MIN_SAMPLES: usize = 200;

/// A ladder rung has at least this many requests (six beyond its p95).
const RUNG_SAMPLES: usize = 120;

/// The traced run only needs medians from its low-rate phases.
const TRACE_LOW_SAMPLES: usize = 120;

/// Requests sent to each fresh fleet before it is measured.
const WARM_SAMPLES: usize = 12;

/// Ratio between adjacent rungs of the `max_rps` ladder (at most 10%).
/// Seven rungs span 1.77x, and the binary search probes three of them.
const RUNG_STEP: f64 = 1.10;
const RUNGS: usize = 7;

/// A rung stops once one answer takes this many times the latency limit:
/// it has failed, and sending the rest would only stretch the run.
const LADDER_ABORT: f64 = 4.0;

/// Shares of `--seconds` spent at the low rate, the high rate and on the
/// ladder. A phase runs longer only when its share is too short for its
/// sample floor; at `--seconds 36` no gated workload's low or high phase
/// is, so a run measures for about `--seconds`.
const LOW_SHARE: f64 = 0.56;
const HIGH_SHARE: f64 = 0.19;
const LADDER_SHARE: f64 = 0.25;

/// `(name, unit, what it shows)` of the end-to-end metrics, reported by
/// `--trace 0`.
const END_TO_END: [(&str, &str, &str); 9] = [
    (
        "setup_s",
        "s",
        "spawn to both shards available and warm; median of the run's boots",
    ),
    (
        "p50_ms.low",
        "ms",
        "median latency from due time at the low rate",
    ),
    ("p95_ms.low", "ms", "p95 latency at the low rate"),
    ("p50_ms.high", "ms", "median latency at the high rate"),
    ("p95_ms.high", "ms", "p95 latency at the high rate"),
    (
        "max_rps",
        "1/s",
        "highest ladder rung meeting the p95 limit, no failures, no backlog",
    ),
    (
        "success_ratio",
        "ratio",
        "1 - error_rate: answered and checked / attempted",
    ),
    (
        "cpu_ms_per_req",
        "ms",
        "router + shard CPU per completed request, high phase",
    ),
    ("rss_mb", "MB", "sum of peak RSS of router and both shards"),
];

/// End-to-end metrics that are printed and recorded but left out of the
/// final JSON line, which `BENCHMARK.json` gates. On a shared 2-vCPU host
/// the whole host runs faster or slower for minutes at a time, and these
/// metrics follow it: their spread over ten seeds (IQR/median) reached
/// 0.2 to 0.7 in busy periods (the p95s and `max_rps` in most sets,
/// `p50_ms.low` 0.20 on classify_mix, `p50_ms.high` up to 0.57), and the
/// median of `cpu_ms_per_req` moved by 0.26 between two sets. A gated
/// metric's spread must stay well inside its bound, which is at most 0.25.
const UNGATED: [&str; 6] = [
    "p50_ms.low",
    "p95_ms.low",
    "p50_ms.high",
    "p95_ms.high",
    "max_rps",
    "cpu_ms_per_req",
];

/// `(name, unit, the end-to-end metric and workload it should move)` of
/// the per-layer metrics, reported by `--trace 1`.
const PER_LAYER: [(&str, &str, &str); 23] = [
    (
        "router.hop_ms",
        "ms",
        "p50_ms.low, cpu_ms_per_req on classify_mix; flat on explain_d20",
    ),
    (
        "router.retries_per_kreq",
        "count",
        "p50_ms.low, cpu_ms_per_req on classify_mix",
    ),
    (
        "router.failovers_per_kreq",
        "count",
        "p50_ms.low, cpu_ms_per_req on classify_mix",
    ),
    (
        "router.unavailable_503",
        "count",
        "success_ratio on every workload",
    ),
    (
        "router.probe_fail_ratio",
        "ratio",
        "p95_ms.high, success_ratio on classify_mix",
    ),
    ("http.read_ms", "ms", "p50_ms.low on classify_mix"),
    ("http.write_ms", "ms", "p50_ms.low on classify_mix"),
    (
        "serde_json.decode_ms",
        "ms",
        "cpu_ms_per_req, p50_ms.low on classify_mix",
    ),
    (
        "wire.parse_ms",
        "ms",
        "cpu_ms_per_req, p50_ms.low on classify_mix",
    ),
    (
        "wire.encode_ms",
        "ms",
        "cpu_ms_per_req, p50_ms.low on classify_mix",
    ),
    (
        "service.latency_ms",
        "ms",
        "p50_ms.low on explain_d20; p95_ms.high on classify_mix",
    ),
    (
        "service.wait_ms",
        "ms",
        "p50_ms.low on explain_d20 (the 10 ms flush deadline)",
    ),
    (
        "service.mean_batch",
        "count",
        "p95_ms.high, max_rps on explain_d20 and classify_mix",
    ),
    (
        "service.deadline_flush_share",
        "ratio",
        "p50_ms.low on explain_d20",
    ),
    (
        "service.max_queue_depth",
        "count",
        "p95_ms.high on classify_mix",
    ),
    (
        "dcam.many_ms",
        "ms",
        "p50_ms.*, max_rps, cpu_ms_per_req on explain_d20, explain_int8",
    ),
    (
        "dcam.assemble_mtransform_ms",
        "ms",
        "same as dcam.many_ms; flat on classify_mix",
    ),
    (
        "arch.forward_ms",
        "ms",
        "p50_ms.*, max_rps on explain_d20 (f32), explain_int8 (int8)",
    ),
    (
        "arch.classify_ms",
        "ms",
        "p50_ms.low, max_rps on classify_mix",
    ),
    ("cam.weighted_map_ms", "ms", "same as dcam.many_ms"),
    (
        "registry.load_ms",
        "ms",
        "setup_s; calibration on explain_int8",
    ),
    (
        "trace.coverage",
        "ratio",
        "share of the traced p50_ms.low the stages above account for",
    ),
    (
        "trace.unmeasured_ms",
        "ms",
        "traced p50_ms.low minus the stage sum",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into())
}

/// The host and build facts a result depends on.
fn host_record(nproc: usize) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .map(|l| {
            l.trim_start_matches([' ', '\t', ':'])
                .split_whitespace()
                .collect()
        })
        .unwrap_or_default();
    let has = |f: &str| Value::Bool(flags.contains(&f));
    obj(vec![
        ("nproc", num(nproc as f64)),
        ("avx2", has("avx2")),
        ("avx512bw", has("avx512bw")),
        ("avx512_vnni", has("avx512_vnni")),
        ("avx_vnni", has("avx_vnni")),
        (
            "git_commit",
            Value::String(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc",
            Value::String(command_line("rustc", &["--version"])),
        ),
    ])
}

fn run(args: &Args) -> Result<(), String> {
    let pinned: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DCAM_"))
        .collect();
    if !pinned.is_empty() {
        return Err(format!(
            "refusing to run with {pinned:?} set: these pin threads or kernel tiers and \
             would measure a different program"
        ));
    }
    let w = workload::find(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {:?} (have {names:?})", args.workload)
    })?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if CONNS > nproc {
        return Err(format!(
            "the generator uses {CONNS} threads and {CONNS} connections, more than nproc = {nproc}"
        ));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin_dir = exe.parent().ok_or("no executable directory")?.to_path_buf();
    for bin in ["dcam_server", "dcam_router"] {
        if !bin_dir.join(bin).is_file() {
            return Err(format!("{} is not built", bin_dir.join(bin).display()));
        }
    }
    let dir = fleet::run_dir(w.name, args.seed, args.trace)?;
    let ckpt = fleet::write_checkpoint(w, &dir)?;
    let inputs = Inputs::generate(w, args.seed);

    let mut bench = Bench {
        w,
        args,
        inputs: &inputs,
        bin_dir,
        dir: dir.clone(),
        ckpt,
        phases: Vec::new(),
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        deaths: Vec::new(),
        spans: Spans::new(),
    };
    let (metrics, extra) = if args.trace {
        bench.traced()?
    } else {
        bench.end_to_end()?
    };

    let mut oracle = check::Oracle::new(w, &inputs, &bench.ckpt)?;
    let verdict = oracle.check(&bench.samples);
    let failed = bench.failed + verdict.mismatches.len();
    // Correctness is about the answers: a request that failed in transport,
    // by status or by timeout lowers `success_ratio` instead.
    let correct = verdict.mismatches.is_empty() && bench.deaths.is_empty() && verdict.checked > 0;

    let table: &[(&str, &str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metric_values: Vec<(String, Value)> = Vec::new();
    for (name, unit, _) in table {
        let v = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v);
        if !v.is_finite() {
            return Err(format!(
                "metric {name} has no finite value: nothing was measured"
            ));
        }
        metric_values.push((
            name.to_string(),
            obj(vec![
                ("value", num(v)),
                ("unit", Value::String(unit.to_string())),
            ]),
        ));
    }

    let record = obj(vec![
        ("workload", Value::String(w.name.into())),
        ("why", Value::String(w.why.into())),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("host", host_record(nproc)),
        ("config", config_record(w)),
        ("phases", Value::Array(bench.phases.clone())),
        ("extra", extra),
        (
            "check",
            obj(vec![
                ("checked", num(verdict.checked as f64)),
                (
                    "mismatches",
                    Value::Array(
                        verdict
                            .mismatches
                            .iter()
                            .cloned()
                            .map(Value::String)
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "fleet_deaths",
            Value::Array(bench.deaths.iter().cloned().map(Value::String).collect()),
        ),
        ("attempted", num(bench.attempted as f64)),
        ("failed", num(failed as f64)),
        (
            "error_rate",
            num(failed as f64 / bench.attempted.max(1) as f64),
        ),
        ("metrics", Value::Object(metric_values.clone())),
    ]);
    let write = |name: &str, v: &Value| {
        let path = dir.join(name);
        let text = serde_json::to_string_pretty(v).unwrap_or_default();
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write("result.json", &record)?;
    if args.trace {
        write("spans.json", &bench.spans.to_value())?;
    }

    println!(
        "workload {}  seed {}  trace {}",
        w.name, args.seed, args.trace as u8
    );
    for ((name, unit, note), (_, v)) in table.iter().zip(&metric_values) {
        let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let gate = if UNGATED.contains(name) {
            " (not gated)"
        } else {
            ""
        };
        println!("  {name:<30} {value:>12.4} {unit:<6} {note}{gate}");
    }
    println!(
        "  error_rate {:.6} ({failed} failed of {} attempted)",
        failed as f64 / bench.attempted.max(1) as f64,
        bench.attempted
    );
    println!(
        "  output check: {} ({} sampled answers against the in-process oracles, {} mismatches)",
        if verdict.mismatches.is_empty() && verdict.checked > 0 {
            "PASS"
        } else {
            "FAIL"
        },
        verdict.checked,
        verdict.mismatches.len()
    );
    for m in verdict.mismatches.iter().take(5) {
        println!("    mismatch: {m}");
    }
    for d in &bench.deaths {
        println!("  fleet process died: {d}");
    }
    println!("  correct: {correct} (output check passed, no fleet death)");
    println!("  full record: {}", dir.join("result.json").display());
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", num(bench.attempted as f64)),
        ("failed", num(failed as f64)),
        (
            "metrics",
            Value::Object(
                metric_values
                    .into_iter()
                    .filter(|(n, _)| !UNGATED.contains(&n.as_str()))
                    .collect(),
            ),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn config_record(w: &Workload) -> Value {
    obj(vec![
        ("dims", num(w.dims as f64)),
        ("len", num(w.len as f64)),
        ("k", num(w.k as f64)),
        ("scale", Value::String(format!("{:?}", w.scale))),
        ("precision", Value::String(format!("{:?}", w.precision))),
        ("explain_share", num(w.explain_share)),
        ("summary", Value::Bool(w.summary)),
        ("low_rps", num(w.low_rps)),
        ("high_rps", num(w.high_rps)),
        (
            "ladder_rps",
            Value::Array(rungs(w).into_iter().map(num).collect()),
        ),
        ("limit_p95_ms", num(w.limit_ms)),
        ("min_samples_per_phase", num(MIN_SAMPLES as f64)),
        ("min_samples_per_rung", num(RUNG_SAMPLES as f64)),
        ("generator_threads", num(CONNS as f64)),
        ("generator_connections", num(CONNS as f64)),
        ("request_timeout_s", num(REQUEST_TIMEOUT.as_secs_f64())),
    ])
}

fn rungs(w: &Workload) -> Vec<f64> {
    (0..RUNGS)
        .map(|i| w.ladder_base * RUNG_STEP.powi(i as i32))
        .collect()
}

struct Bench<'a> {
    w: &'static Workload,
    args: &'a Args,
    inputs: &'a Inputs,
    bin_dir: PathBuf,
    dir: PathBuf,
    ckpt: PathBuf,
    phases: Vec<Value>,
    samples: Vec<(Pick, String)>,
    attempted: usize,
    failed: usize,
    /// Fleet processes that died, with their exit status. Their requests
    /// already count as failed; the run goes on with the next fresh fleet.
    deaths: Vec<String>,
    spans: Spans,
}

/// What one phase produced: its stats over every request, over the
/// primary kind, and the fleet counters it moved.
struct Phase {
    all: PhaseStats,
    primary: PhaseStats,
    counters: CounterDelta,
}

impl Bench<'_> {
    fn boot(&self) -> Result<(Fleet, f64), String> {
        let pick = Pick {
            input: 0,
            explain: self.w.primary_is_explain(),
        };
        let warm = (pick.path(), pick.body(self.inputs));
        Fleet::boot(&self.bin_dir, &self.dir, self.w, &self.ckpt, warm)
    }

    /// Runs one phase at `rate`. Phases that share a `stream` get the
    /// same arrival pattern and request mix, scaled to their rate, so
    /// ladder rungs differ only in load.
    fn phase(
        &mut self,
        fleet: &mut Fleet,
        name: &str,
        direct: bool,
        rate: f64,
        n: usize,
        stream: u64,
        abort_ms: Option<f64>,
    ) -> Result<Phase, String> {
        let salt = self.phases.len() as u64 + 1;
        let sched = Schedule::poisson(
            self.w,
            self.inputs,
            rate,
            n,
            stream,
            self.args.seed.wrapping_mul(1_000_003).wrapping_add(salt),
        );
        let before = fleet.counters()?;
        let span = self.spans.open(name, None);
        let origin = self.spans.now_ms();
        let target = if direct {
            Target::Shards(&fleet.shards)
        } else {
            Target::Router(&fleet.router)
        };
        let run = load::run_phase(
            name,
            &target,
            &sched,
            self.inputs,
            self.w.summary,
            self.args.seed ^ salt << 32,
            abort_ms,
        );
        self.spans.close(span);
        if self.args.trace {
            for (i, r) in run.recs.iter().enumerate() {
                let req = self.spans.add(
                    &format!("request {i} {}", r.pick.path()),
                    Some(span),
                    origin + r.due * 1e3,
                    origin + r.done * 1e3,
                );
                self.spans.add(
                    "send",
                    Some(req),
                    origin + r.sent * 1e3,
                    origin + r.done * 1e3,
                );
            }
        }
        let exited = fleet.exited();
        let counters = match fleet.counters() {
            Ok(after) => CounterDelta::between(&before, &after),
            Err(e) if !exited.is_empty() => {
                eprintln!("perfbench: counters unavailable after {name}: {e}");
                CounterDelta::default()
            }
            Err(e) => return Err(e),
        };
        let all = PhaseStats::of(&run, None, self.w.limit_ms);
        let primary = PhaseStats::of(&run, Some(self.w.primary_is_explain()), self.w.limit_ms);
        self.attempted += all.due;
        self.failed += all.failed;
        self.samples.extend(run.samples.iter().cloned());
        let mut record = all.to_value();
        if let Value::Object(fields) = &mut record {
            fields.push((
                "target".into(),
                Value::String(if direct { "shards" } else { "router" }.into()),
            ));
            fields.push(("primary".into(), primary.to_value()));
            fields.push(("counters".into(), counters.to_value()));
            fields.push((
                "exited_children".into(),
                Value::Array(
                    exited
                        .iter()
                        .map(|e| Value::String(format!("{}: {}", e.name, e.status)))
                        .collect(),
                ),
            ));
        }
        eprintln!(
            "perfbench: {name:<12} {rate:>7.1}/s n={:<4} p50 {:>8.2} ms p95 {:>8.2} ms \
             fail {} late p50 {:.2} max {:.1} ms gen-lag p99 {:.2} ms backlog {:.1}->{:.1} {}",
            all.due,
            all.p50_ms,
            all.p95_ms,
            all.failed,
            all.late_p50_ms,
            all.late_max_ms,
            all.gen_lag_p99_ms,
            all.backlog_halves.0,
            all.backlog_halves.1,
            if all.valid {
                ""
            } else {
                "INVALID: generator fell behind"
            }
        );
        for e in &exited {
            eprintln!("perfbench: {} exited during {name}: {}", e.name, e.status);
            self.deaths
                .push(format!("{} exited during {name}: {}", e.name, e.status));
        }
        self.phases.push(record);
        Ok(Phase {
            all,
            primary,
            counters,
        })
    }

    fn samples_for(&self, rate: f64, share: f64, floor: usize) -> usize {
        floor.max((rate * share * self.args.seconds).round() as usize)
    }

    /// Boots a fresh fleet for one measured phase and warms it. Every
    /// phase gets its own fleet: state a fleet accumulates under load
    /// (pooled upstream connections, health verdicts) then cannot carry
    /// over from one phase into the next.
    fn fresh_fleet(&mut self, setups: &mut Vec<f64>) -> Result<Fleet, String> {
        let (mut fleet, s) = self.boot()?;
        setups.push(s);
        let w = self.w;
        self.phase(&mut fleet, "warm", false, w.high_rps, WARM_SAMPLES, 0, None)?;
        Ok(fleet)
    }

    fn end_to_end(&mut self) -> Result<(Vec<(String, f64)>, Value), String> {
        let w = self.w;
        let mut setups = Vec::new();
        // Each fleet is dropped, and its processes reaped, before the next
        // boots: an idle fleet still polls and probes, and would load the
        // CPUs the measured one runs on.
        let mut fleet = self.fresh_fleet(&mut setups)?;
        let n = self.samples_for(w.low_rps, LOW_SHARE, MIN_SAMPLES);
        let low = self.phase(&mut fleet, "low", false, w.low_rps, n, 1, None)?;
        drop(fleet);

        let mut fleet = self.fresh_fleet(&mut setups)?;
        let cpu0 = fleet.cpu_ms();
        let n = self.samples_for(w.high_rps, HIGH_SHARE, MIN_SAMPLES);
        let high = self.phase(&mut fleet, "high", false, w.high_rps, n, 2, None)?;
        let cpu_ms = fleet.cpu_ms() - cpu0;
        let completed = high.all.ok.max(1) as f64;
        let rss_mb = fleet.peak_rss_mb();
        drop(fleet);

        // Binary search over the ladder; every rung shares one arrival
        // pattern, scaled to its rate.
        let rungs = rungs(w);
        let probes = (rungs.len() as f64 + 1.0).log2().ceil();
        let (mut lo, mut hi) = (-1isize, rungs.len() as isize);
        let mut ladder = Vec::new();
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let rate = rungs[mid as usize];
            let mut fleet = self.fresh_fleet(&mut setups)?;
            let n = self.samples_for(rate, LADDER_SHARE / probes, RUNG_SAMPLES);
            let abort = Some(LADDER_ABORT * w.limit_ms);
            let p = self.phase(
                &mut fleet,
                &format!("ladder{mid}"),
                false,
                rate,
                n,
                3,
                abort,
            )?;
            let s = &p.all;
            let pass = s.p95_ms <= w.limit_ms
                && s.failed == 0
                && !s.backlog_grows
                && s.valid
                && !s.aborted;
            ladder.push(obj(vec![
                ("rate_rps", num(rate)),
                ("p95_ms", num(s.p95_ms)),
                ("backlog_first_half", num(s.backlog_halves.0)),
                ("backlog_second_half", num(s.backlog_halves.1)),
                ("pass", Value::Bool(pass)),
            ]));
            if pass {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let max_rps = if lo >= 0 { rungs[lo as usize] } else { 0.0 };

        let success = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        let metrics = vec![
            ("setup_s".to_string(), load::percentile(&setups, 0.5)),
            ("p50_ms.low".into(), low.all.p50_ms),
            ("p95_ms.low".into(), low.all.p95_ms),
            ("p50_ms.high".into(), high.all.p50_ms),
            ("p95_ms.high".into(), high.all.p95_ms),
            ("max_rps".into(), max_rps),
            ("success_ratio".into(), success),
            ("cpu_ms_per_req".into(), cpu_ms / completed),
            ("rss_mb".into(), rss_mb),
        ];
        let extra = obj(vec![
            (
                "setups_s",
                Value::Array(setups.into_iter().map(num).collect()),
            ),
            ("ladder", Value::Array(ladder)),
            ("high_phase_cpu_ms", num(cpu_ms)),
            ("high_phase_completed", num(completed)),
        ]);
        Ok((metrics, extra))
    }

    fn traced(&mut self) -> Result<(Vec<(String, f64)>, Value), String> {
        let w = self.w;
        let mut setups = Vec::new();
        let mut fleet = self.fresh_fleet(&mut setups)?;
        // Both low phases share one fleet, so the hop is not buried under
        // fleet-to-fleet spread; the router sits idle during the second.
        let via = self.phase(
            &mut fleet,
            "low",
            false,
            w.low_rps,
            TRACE_LOW_SAMPLES,
            1,
            None,
        )?;
        let direct = self.phase(
            &mut fleet,
            "low-direct",
            true,
            w.low_rps,
            TRACE_LOW_SAMPLES,
            1,
            None,
        )?;
        drop(fleet);
        let mut fleet = self.fresh_fleet(&mut setups)?;
        let high = self.phase(&mut fleet, "high", false, w.high_rps, MIN_SAMPLES, 2, None)?;
        drop(fleet);

        let ckpt = self.ckpt.clone();
        let t = layers::measure(w, self.inputs, &ckpt, &mut self.spans)?;
        let hop = via.primary.p50_ms - direct.primary.p50_ms;
        let engine = if w.primary_is_explain() {
            t.dcam_many
        } else {
            t.arch_classify
        };
        let stages = hop
            + t.http_read
            + t.json_decode
            + t.wire_parse
            + t.service_latency
            + t.wire_encode
            + t.http_write;
        let base = via.primary.p50_ms;
        let c = &high.counters;
        let metrics = vec![
            ("router.hop_ms".to_string(), hop),
            ("router.retries_per_kreq".into(), c.per_kreq(c.retries)),
            ("router.failovers_per_kreq".into(), c.per_kreq(c.failovers)),
            ("router.unavailable_503".into(), c.unavailable_503),
            ("router.probe_fail_ratio".into(), c.probe_fail_ratio()),
            ("http.read_ms".into(), t.http_read),
            ("http.write_ms".into(), t.http_write),
            ("serde_json.decode_ms".into(), t.json_decode),
            ("wire.parse_ms".into(), t.wire_parse),
            ("wire.encode_ms".into(), t.wire_encode),
            ("service.latency_ms".into(), t.service_latency),
            ("service.wait_ms".into(), t.service_latency - engine),
            ("service.mean_batch".into(), c.mean_batch()),
            (
                "service.deadline_flush_share".into(),
                c.deadline_flush_share(),
            ),
            ("service.max_queue_depth".into(), c.max_queue_depth),
            ("dcam.many_ms".into(), t.dcam_many),
            (
                "dcam.assemble_mtransform_ms".into(),
                t.dcam_many - t.arch_forward - t.cam,
            ),
            ("arch.forward_ms".into(), t.arch_forward),
            ("arch.classify_ms".into(), t.arch_classify),
            ("cam.weighted_map_ms".into(), t.cam),
            ("registry.load_ms".into(), t.registry_load),
            ("trace.coverage".into(), stages / base),
            ("trace.unmeasured_ms".into(), base - stages),
        ];
        let extra = obj(vec![
            (
                "setups_s",
                Value::Array(setups.into_iter().map(num).collect()),
            ),
            ("traced_p50_ms_low", num(base)),
            ("direct_p50_ms_low", num(direct.primary.p50_ms)),
            ("stage_sum_ms", num(stages)),
            ("high_p95_ms", num(high.all.p95_ms)),
            ("low_p95_ms", num(via.all.p95_ms)),
        ]);
        Ok((metrics, extra))
    }
}
