//! The fleet under test: two `dcam_server` shards behind one `dcam_router`,
//! launched as child processes with their shipped defaults.
//!
//! Every child is killed and reaped when the [`Fleet`] drops, which covers
//! early returns and panics; `PR_SET_PDEATHSIG` covers the benchmark
//! itself being killed.

use crate::workload::{Workload, MODEL};
use dcam_server::{ClientConfig, HttpClient};
use serde::Value;
use std::fs;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// How long a child may take to bind its listener (checkpoint load and
/// int8 calibration included) before the run gives up.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

extern "C" {
    fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
}
const PR_SET_PDEATHSIG: std::ffi::c_int = 1;
const SIGKILL: std::ffi::c_ulong = 9;

struct Proc {
    name: String,
    child: Child,
}

pub struct Fleet {
    procs: Vec<Proc>,
    pub router: String,
    pub shards: Vec<String>,
}

/// A child that is no longer running, with how it ended.
pub struct Exited {
    pub name: String,
    pub status: String,
}

fn spawn(bin: &Path, args: &[String], log: &Path, name: &str) -> Result<Proc, String> {
    let log_file = fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log_file);
    // SAFETY: the hook runs in the forked child before exec and only makes
    // the async-signal-safe prctl system call with integer arguments.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    Ok(Proc {
        name: name.to_string(),
        child,
    })
}

impl Proc {
    /// Waits for the child to write its bound address to `port_file`.
    fn wait_port(&mut self, port_file: &Path) -> Result<String, String> {
        let start = Instant::now();
        loop {
            if let Ok(text) = fs::read_to_string(port_file) {
                if text.parse::<std::net::SocketAddr>().is_ok() {
                    return Ok(text);
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("{} exited during boot: {status}", self.name));
            }
            if start.elapsed() > BOOT_TIMEOUT {
                return Err(format!(
                    "{} did not bind within {BOOT_TIMEOUT:?}",
                    self.name
                ));
            }
            thread::sleep(Duration::from_millis(1));
        }
    }
}

fn get_json(addr: &str, path: &str) -> Result<Value, String> {
    let cfg = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_deadline: Duration::from_secs(10),
    };
    let mut client = HttpClient::connect_with(addr, cfg).map_err(|e| format!("{addr}: {e}"))?;
    let resp = client
        .get(path)
        .map_err(|e| format!("GET {addr}{path}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET {addr}{path}: status {}", resp.status));
    }
    resp.json().map_err(|e| format!("GET {addr}{path}: {e}"))
}

fn post_ok(addr: &str, path: &str, body: &str) -> Result<(), String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let resp = client
        .post(path, body)
        .map_err(|e| format!("POST {addr}{path}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("POST {addr}{path}: status {}", resp.status));
    }
    Ok(())
}

impl Fleet {
    /// Boots two shards and the router, waits until the router reports
    /// both shards available, then sends one warm-up request straight to
    /// each shard. Returns the fleet and the seconds all of that took.
    pub fn boot(
        bin_dir: &Path,
        dir: &Path,
        w: &Workload,
        ckpt: &Path,
        warmup: (&str, &str),
    ) -> Result<(Fleet, f64), String> {
        let start = Instant::now();
        let mut fleet = Fleet {
            procs: Vec::new(),
            router: String::new(),
            shards: Vec::new(),
        };
        let model = w.model_flag(&ckpt.display().to_string());
        let mut port_files = Vec::new();
        for i in 0..2 {
            let port_file = dir.join(format!("shard{i}.port"));
            let _ = fs::remove_file(&port_file);
            let args = vec![
                "--dims".to_string(),
                w.dims.to_string(),
                "--k".to_string(),
                w.k.to_string(),
                "--model".to_string(),
                model.clone(),
                "--port-file".to_string(),
                port_file.display().to_string(),
            ];
            let log = dir.join(format!("shard{i}.log"));
            fleet.procs.push(spawn(
                &bin_dir.join("dcam_server"),
                &args,
                &log,
                &format!("shard{i}"),
            )?);
            port_files.push(port_file);
        }
        for (i, port_file) in port_files.iter().enumerate() {
            let addr = fleet.procs[i].wait_port(port_file)?;
            fleet.shards.push(addr);
        }
        let port_file = dir.join("router.port");
        let _ = fs::remove_file(&port_file);
        let mut args = Vec::new();
        for s in &fleet.shards {
            args.push("--shard".to_string());
            args.push(s.clone());
        }
        args.push("--port-file".to_string());
        args.push(port_file.display().to_string());
        fleet.procs.push(spawn(
            &bin_dir.join("dcam_router"),
            &args,
            &dir.join("router.log"),
            "router",
        )?);
        let router_idx = fleet.procs.len() - 1;
        fleet.router = fleet.procs[router_idx].wait_port(&port_file)?;
        loop {
            let health = get_json(&fleet.router, "/healthz")?;
            if health.get("available").and_then(Value::as_usize) == Some(2) {
                break;
            }
            if start.elapsed() > BOOT_TIMEOUT {
                return Err("router never reported both shards available".into());
            }
            thread::sleep(Duration::from_millis(1));
        }
        for shard in &fleet.shards {
            post_ok(shard, warmup.0, warmup.1)?;
        }
        Ok((fleet, start.elapsed().as_secs_f64()))
    }

    fn pids(&self) -> Vec<u32> {
        self.procs.iter().map(|p| p.child.id()).collect()
    }

    /// Children that have exited, with their exit status.
    pub fn exited(&mut self) -> Vec<Exited> {
        self.procs
            .iter_mut()
            .filter_map(|p| match p.child.try_wait() {
                Ok(Some(status)) => Some(Exited {
                    name: p.name.clone(),
                    status: status.to_string(),
                }),
                Ok(None) => None,
                Err(e) => Some(Exited {
                    name: p.name.clone(),
                    status: format!("unknown ({e})"),
                }),
            })
            .collect()
    }

    /// utime + stime of every fleet process, in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        self.pids().into_iter().map(proc_cpu_ms).sum()
    }

    /// Sum of the fleet processes' peak resident set, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids().into_iter().map(proc_hwm_kb).sum::<f64>() / 1024.0
    }

    /// One snapshot of the counters the fleet publishes: the router's
    /// `/fleet` page and each shard's `/stats` page.
    pub fn counters(&self) -> Result<Counters, String> {
        let fleet = get_json(&self.router, "/fleet")?;
        let mut stats = Vec::new();
        for s in &self.shards {
            stats.push(get_json(s, "/stats")?);
        }
        Ok(Counters { fleet, stats })
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }
}

/// Linux reports utime and stime in clock ticks of `USER_HZ`, which is
/// 100 on every architecture the kernel ABI fixes it for.
const USER_HZ: f64 = 100.0;

fn proc_cpu_ms(pid: u32) -> f64 {
    let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3, so
    // utime (field 14) and stime (field 15) are entries 11 and 12.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0.0))
        .collect();
    match (f.get(11), f.get(12)) {
        (Some(u), Some(s)) => (u + s) * 1000.0 / USER_HZ,
        _ => 0.0,
    }
}

fn proc_hwm_kb(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// `/fleet` and per-shard `/stats` documents taken at one instant.
pub struct Counters {
    fleet: Value,
    stats: Vec<Value>,
}

fn num(v: &Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Fleet and service counters accumulated over one phase.
#[derive(Clone, Default)]
pub struct CounterDelta {
    pub router_requests: f64,
    pub retries: f64,
    pub failovers: f64,
    pub unavailable_503: f64,
    pub probes: f64,
    pub probe_failures: f64,
    pub explained: f64,
    pub classified: f64,
    pub flushes: f64,
    pub flushes_deadline: f64,
    pub batched_requests: f64,
    pub max_queue_depth: f64,
    pub shard_5xx: f64,
}

impl CounterDelta {
    pub fn between(a: &Counters, b: &Counters) -> CounterDelta {
        let d = |path: &[&str]| num(&b.fleet, path) - num(&a.fleet, path);
        let mut out = CounterDelta {
            router_requests: d(&["router", "requests"]),
            retries: d(&["router", "retries"]),
            failovers: d(&["router", "failovers"]),
            unavailable_503: d(&["router", "unavailable_503"]),
            ..Default::default()
        };
        let shards = |v: &Value| {
            v.get("fleet")
                .and_then(Value::as_array)
                .map(<[Value]>::to_vec)
        };
        if let (Some(sa), Some(sb)) = (shards(&a.fleet), shards(&b.fleet)) {
            for (x, y) in sa.iter().zip(&sb) {
                out.probes += num(y, &["probes"]) - num(x, &["probes"]);
                out.probe_failures += num(y, &["probe_failures"]) - num(x, &["probe_failures"]);
            }
        }
        for (x, y) in a.stats.iter().zip(&b.stats) {
            let d = |path: &[&str]| num(y, path) - num(x, path);
            out.explained += d(&["service", "completed"]);
            out.classified += d(&["service", "classified"]);
            out.shard_5xx += d(&["server", "responses_5xx"]);
            out.flushes_deadline += d(&["service", "flushes_deadline"]);
            let hist = |v: &Value| -> Vec<f64> {
                v.get("service")
                    .and_then(|s| s.get("batch_size_hist"))
                    .and_then(Value::as_array)
                    .map(|h| h.iter().map(|c| c.as_f64().unwrap_or(0.0)).collect())
                    .unwrap_or_default()
            };
            // Bucket i counts flushes of i + 1 requests.
            for (i, (cx, cy)) in hist(x).iter().zip(&hist(y)).enumerate() {
                out.flushes += cy - cx;
                out.batched_requests += (i + 1) as f64 * (cy - cx);
            }
            out.max_queue_depth = out
                .max_queue_depth
                .max(num(y, &["service", "max_queue_depth"]));
        }
        out
    }

    pub fn per_kreq(&self, x: f64) -> f64 {
        if self.router_requests > 0.0 {
            x * 1000.0 / self.router_requests
        } else {
            0.0
        }
    }

    pub fn probe_fail_ratio(&self) -> f64 {
        ratio(self.probe_failures, self.probes)
    }

    pub fn mean_batch(&self) -> f64 {
        ratio(self.batched_requests, self.flushes)
    }

    pub fn deadline_flush_share(&self) -> f64 {
        ratio(self.flushes_deadline, self.flushes)
    }

    pub fn to_value(&self) -> Value {
        let f = |k: &str, v: f64| (k.to_string(), Value::Number(v));
        Value::Object(vec![
            f("router_requests", self.router_requests),
            f("retries", self.retries),
            f("failovers", self.failovers),
            f("unavailable_503", self.unavailable_503),
            f("probes", self.probes),
            f("probe_failures", self.probe_failures),
            f("probe_fail_ratio", self.probe_fail_ratio()),
            f("explained", self.explained),
            f("classified", self.classified),
            f("flushes", self.flushes),
            f("flushes_deadline", self.flushes_deadline),
            f("deadline_flush_share", self.deadline_flush_share()),
            f("mean_batch", self.mean_batch()),
            f("max_queue_depth", self.max_queue_depth),
            f("shard_5xx", self.shard_5xx),
        ])
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Where the run keeps its checkpoint, port files and child logs.
pub fn run_dir(workload: &str, seed: u64, trace: bool) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out").join(format!(
        "{workload}-seed{seed}-trace{}-{}",
        trace as u8,
        std::process::id()
    ));
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The model every shard serves and every oracle replays, written through
/// the registry's checkpoint format.
pub fn write_checkpoint(w: &Workload, dir: &Path) -> Result<PathBuf, String> {
    let desc = w.arch();
    let mut model = desc.build(7);
    let ckpt = dcam::registry::checkpoint_model(&mut model, &desc);
    let path = dir.join(format!("{MODEL}.ckpt"));
    dcam::registry::save_checkpoint(&ckpt, &path).map_err(|e| e.to_string())?;
    Ok(path)
}
