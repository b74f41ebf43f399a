//! The in-process half of the layer trace: each module's public entry
//! points timed from outside, on the run's own inputs. Every timed call
//! is recorded as a span; a layer's figure is the median over its spans.

use crate::check::{replica, serving_config};
use crate::trace::Spans;
use crate::workload::{Inputs, Pick, Workload, MODEL};
use dcam::cam::weighted_map_batch;
use dcam::dcam_many::{compute_dcam_many_with_arena, DcamRequest};
use dcam::registry::{spawn_from_checkpoint, ModelRegistry};
use dcam::service::RequestOptions;
use dcam_nn::BatchArena;
use dcam_series::{cube, MultivariateSeries};
use dcam_server::http::{write_response, Conn};
use dcam_server::wire;
use dcam_tensor::{SeededRng, Tensor};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

/// Each layer is timed at least `MIN_REPS` times and until it has used
/// `BUDGET_MS` of wall time (or `MAX_REPS` calls), so slow layers on long
/// series do not dominate the run.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 200;
const BUDGET_MS: f64 = 400.0;

/// Median milliseconds per layer call, one field per traced layer.
#[derive(Default)]
pub struct LayerTimes {
    pub http_read: f64,
    pub http_write: f64,
    pub json_decode: f64,
    pub wire_parse: f64,
    pub wire_encode: f64,
    pub service_latency: f64,
    pub dcam_many: f64,
    pub arch_forward: f64,
    pub arch_classify: f64,
    pub cam: f64,
    pub registry_load: f64,
}

/// Times `f` repeatedly under one span named `name`; each call is a child
/// span. Returns the median call time in milliseconds.
fn timed(spans: &mut Spans, name: &str, mut f: impl FnMut() -> f64) -> f64 {
    let parent = spans.open(name, None);
    let start = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < MIN_REPS
        || (ms.len() < MAX_REPS && start.elapsed().as_secs_f64() * 1e3 < BUDGET_MS)
    {
        let id = spans.open(name, Some(parent));
        let dt = f();
        spans.close_with(id, dt);
        ms.push(dt);
    }
    spans.close(parent);
    crate::load::percentile(&ms, 0.5)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn loopback() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let client = TcpStream::connect(listener.local_addr()?)?;
    let (server, _) = listener.accept()?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    Ok((client, server))
}

/// The bytes the generator's client puts on the wire for one request.
fn request_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: dcam\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn measure(
    w: &Workload,
    inputs: &Inputs,
    ckpt: &Path,
    spans: &mut Spans,
) -> Result<LayerTimes, String> {
    let mut t = LayerTimes::default();
    let explain = w.primary_is_explain();
    let series = &inputs.series[0];
    let class = inputs.classes[0];
    let pick = Pick { input: 0, explain };
    let body = pick.body(inputs);
    let cfg = serving_config(w);

    t.registry_load = timed(spans, "registry.load", || {
        let registry = ModelRegistry::new();
        let t0 = Instant::now();
        let loaded = registry.register_from_checkpoint(MODEL, ckpt, cfg.clone(), 1);
        let dt = ms_since(t0);
        loaded.expect("checkpoint registers");
        registry.shutdown_all();
        dt
    });

    let (service, _) = spawn_from_checkpoint(ckpt, cfg.clone(), 1).map_err(|e| e.to_string())?;
    let handle = service.handle();
    t.service_latency = timed(spans, "service.submit_wait", || {
        let t0 = Instant::now();
        if explain {
            let opts = RequestOptions {
                class: Some(class),
                ..Default::default()
            };
            let r = handle.submit_with(series, opts).expect("submit").wait();
            black_box(r.expect("explained"));
        } else {
            let r = handle.submit_classify(series).expect("submit").wait();
            black_box(r.expect("classified"));
        }
        ms_since(t0)
    });
    drop(handle);
    drop(service.shutdown());

    // The service worker's engine call: one request, a long-lived arena.
    let mut model = replica(w, ckpt)?;
    let req = [DcamRequest { series, class }];
    let mut arena = BatchArena::new();
    let mut result = None;
    t.dcam_many = timed(spans, "dcam.compute_dcam_many_with_arena", || {
        let t0 = Instant::now();
        let r = compute_dcam_many_with_arena(&mut model, &req, &cfg.batcher.many, &mut arena);
        let dt = ms_since(t0);
        result = r.into_iter().next();
        dt
    });
    let result = result.ok_or("the engine returned nothing")?;

    // The engine's batches: k permuted cubes in groups of max_batch, built
    // outside the timed region (cube assembly is the engine's own work).
    let batches = permuted_batches(series, w.k, cfg.batcher.many.max_batch);
    let (mut fwd, mut cam) = (Vec::new(), Vec::new());
    let forward_id = spans.open("arch.forward_with_features_eval", None);
    let cam_id = spans.open("cam.weighted_map_batch", None);
    let start = Instant::now();
    while fwd.len() < MIN_REPS || (fwd.len() < MAX_REPS && ms_since(start) < 2.0 * BUDGET_MS) {
        let (mut f_ms, mut c_ms) = (0.0, 0.0);
        for xb in &batches {
            let xb = xb.clone();
            let bs = xb.dims()[0];
            let id = spans.open("arch.forward_with_features_eval", Some(forward_id));
            let t0 = Instant::now();
            let (features, logits) = model.forward_with_features_eval(xb, &mut arena);
            let dt = ms_since(t0);
            spans.close_with(id, dt);
            f_ms += dt;
            black_box(logits);
            let mut out = vec![0.0f32; bs * w.dims * w.len];
            let id = spans.open("cam.weighted_map_batch", Some(cam_id));
            let t0 = Instant::now();
            weighted_map_batch(&features, model.class_weights(), class, &mut out);
            let dt = ms_since(t0);
            spans.close_with(id, dt);
            c_ms += dt;
            black_box(out);
            arena.recycle(features);
        }
        fwd.push(f_ms);
        cam.push(c_ms);
    }
    spans.close(forward_id);
    spans.close(cam_id);
    t.arch_forward = crate::load::percentile(&fwd, 0.5);
    t.cam = crate::load::percentile(&cam, 0.5);

    let mut logits = None;
    t.arch_classify = timed(spans, "arch.logits_for", || {
        let t0 = Instant::now();
        let l = model.logits_for(series);
        let dt = ms_since(t0);
        logits = Some(l);
        dt
    });

    let response = if explain {
        t.wire_encode = timed(spans, "wire.explain_body", || {
            let t0 = Instant::now();
            black_box(wire::explain_body(&result, w.summary, None));
            ms_since(t0)
        });
        wire::explain_body(&result, w.summary, None)
    } else {
        let logits = logits.ok_or("no logits")?.data().to_vec();
        let c = dcam::Classification {
            class: dcam_tensor::argmax(&logits).unwrap_or(0),
            logits,
        };
        t.wire_encode = timed(spans, "wire.classify_body", || {
            let t0 = Instant::now();
            black_box(wire::classify_body(&c));
            ms_since(t0)
        });
        wire::classify_body(&c)
    };

    t.json_decode = timed(spans, "serde_json.parse", || {
        let t0 = Instant::now();
        black_box(serde_json::parse(body).expect("request body is JSON"));
        ms_since(t0)
    });
    let value = serde_json::parse(body).map_err(|e| e.to_string())?;
    t.wire_parse = timed(spans, "wire.parse", || {
        let t0 = Instant::now();
        if explain {
            black_box(wire::parse_explain(&value).expect("explain body parses"));
        } else {
            black_box(wire::parse_classify(&value).expect("classify body parses"));
        }
        ms_since(t0)
    });

    let (t_read, t_write) = http_times(spans, &request_bytes(pick.path(), body), &response)?;
    t.http_read = t_read;
    t.http_write = t_write;
    Ok(t)
}

fn permuted_batches(series: &MultivariateSeries, k: usize, max_batch: usize) -> Vec<Tensor> {
    let d = series.n_dims();
    let mut rng = SeededRng::new(0);
    let mut perms: Vec<Vec<usize>> = vec![(0..d).collect()];
    while perms.len() < k {
        perms.push(rng.permutation(d));
    }
    perms
        .chunks(max_batch.max(1))
        .map(|chunk| {
            let cubes: Vec<Tensor> = chunk
                .iter()
                .map(|p| cube::cube(&series.permute_dims(p)))
                .collect();
            let refs: Vec<&Tensor> = cubes.iter().collect();
            dcam_nn::trainer::stack(&refs)
        })
        .collect()
}

/// `Conn::read_request` and `write_response` over a loopback socket pair,
/// with a peer thread writing (reading) the other end.
fn http_times(spans: &mut Spans, request: &[u8], response: &str) -> Result<(f64, f64), String> {
    let io = |e: std::io::Error| e.to_string();
    let (mut client, server) = loopback().map_err(io)?;
    let mut server_side = server.try_clone().map_err(io)?;
    let mut conn = Conn::new(server);
    let (go_tx, go_rx) = mpsc::channel::<bool>();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let response_len = response.len();
    thread::scope(|s| -> Result<(f64, f64), String> {
        // true: write one request; false: drain one response.
        s.spawn(move || {
            let mut buf = vec![0u8; 64 * 1024];
            while let Ok(write) = go_rx.recv() {
                if write {
                    if client.write_all(request).is_err() {
                        break;
                    }
                } else {
                    // Head plus body: read until the body's bytes are in.
                    let mut got = Vec::new();
                    while !response_complete(&got, response_len) {
                        match client.read(&mut buf) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => got.extend_from_slice(&buf[..n]),
                        }
                    }
                }
                if done_tx.send(()).is_err() {
                    break;
                }
            }
        });
        let read = timed(spans, "http.read_request", || {
            let t0 = Instant::now();
            go_tx.send(true).expect("peer alive");
            black_box(conn.read_request(8 * 1024 * 1024).expect("request parses"));
            let dt = ms_since(t0);
            done_rx.recv().expect("peer alive");
            dt
        });
        let write = timed(spans, "http.write_response", || {
            go_tx.send(false).expect("peer alive");
            let t0 = Instant::now();
            write_response(&mut server_side, 200, &[], response, false).expect("write");
            let dt = ms_since(t0);
            done_rx.recv().expect("peer alive");
            dt
        });
        drop(go_tx);
        Ok((read, write))
    })
}

fn response_complete(got: &[u8], body_len: usize) -> bool {
    got.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .is_some_and(|head| got.len() >= head + 4 + body_len)
}
