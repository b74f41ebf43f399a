//! The output check: sampled answers from the fleet against in-process
//! oracles built from the same checkpoint.

use crate::workload::{Inputs, Pick, Workload};
use dcam::dcam::{compute_dcam, DcamConfig};
use dcam::registry::spawn_from_checkpoint;
use dcam::service::{Classification, ServiceConfig};
use dcam::GapClassifier;
use dcam_server::wire;
use dcam_tensor::argmax;
use serde::Value;
use std::collections::HashMap;
use std::path::Path;

/// The equivalence tests' agreement bound: `1e-5` relative to magnitude.
const TOL: f64 = 1e-5;

/// The service configuration `dcam_server --k K --model …,precision=P`
/// builds: shipped defaults plus the flags that select the model.
pub fn serving_config(w: &Workload) -> ServiceConfig {
    let mut cfg = ServiceConfig {
        precision: w.precision,
        ..ServiceConfig::default()
    };
    cfg.batcher.many.dcam = DcamConfig {
        k: w.k,
        only_correct: false,
        ..Default::default()
    };
    cfg
}

/// A model identical to the one each shard serves: restored from the
/// checkpoint and, for int8, calibrated by the same service spawn path.
pub fn replica(w: &Workload, ckpt: &Path) -> Result<GapClassifier, String> {
    let (service, _) =
        spawn_from_checkpoint(ckpt, serving_config(w), 1).map_err(|e| e.to_string())?;
    let (mut models, _) = service.shutdown();
    models
        .pop()
        .ok_or_else(|| "service returned no model".to_string())
}

pub struct Oracle<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    model: GapClassifier,
    cache: HashMap<(usize, bool), Value>,
}

pub struct Verdict {
    pub checked: usize,
    pub mismatches: Vec<String>,
}

impl<'a> Oracle<'a> {
    pub fn new(w: &'a Workload, inputs: &'a Inputs, ckpt: &Path) -> Result<Self, String> {
        Ok(Oracle {
            w,
            inputs,
            model: replica(w, ckpt)?,
            cache: HashMap::new(),
        })
    }

    fn expected(&mut self, pick: Pick) -> &Value {
        let (w, inputs, model) = (self.w, self.inputs, &mut self.model);
        self.cache
            .entry((pick.input, pick.explain))
            .or_insert_with(|| {
                let series = &inputs.series[pick.input];
                let body = if pick.explain {
                    let cfg = serving_config(w).batcher.many.dcam;
                    let r = compute_dcam(model, series, inputs.classes[pick.input], &cfg);
                    wire::explain_body(&r, w.summary, None)
                } else {
                    let logits = model.logits_for(series).data().to_vec();
                    let class = argmax(&logits).expect("model has classes");
                    wire::classify_body(&Classification { class, logits })
                };
                serde_json::parse(&body).expect("oracle body is JSON")
            })
    }

    pub fn check(&mut self, samples: &[(Pick, String)]) -> Verdict {
        let mut v = Verdict {
            checked: 0,
            mismatches: Vec::new(),
        };
        for (pick, body) in samples {
            v.checked += 1;
            let served = match serde_json::parse(body) {
                Ok(x) => x,
                Err(e) => {
                    v.mismatches.push(format!("{}: not JSON: {e}", pick.path()));
                    continue;
                }
            };
            if let Err(e) = close(&served, self.expected(*pick), "$") {
                v.mismatches
                    .push(format!("{} input {}: {e}", pick.path(), pick.input));
            }
        }
        v
    }
}

fn close(a: &Value, b: &Value, at: &str) -> Result<(), String> {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => {
            if (x - y).abs() <= TOL * x.abs().max(y.abs()).max(1.0) {
                Ok(())
            } else {
                Err(format!("{at}: served {x}, oracle {y}"))
            }
        }
        (Value::Array(xs), Value::Array(ys)) if xs.len() == ys.len() => xs
            .iter()
            .zip(ys)
            .enumerate()
            .try_for_each(|(i, (x, y))| close(x, y, &format!("{at}[{i}]"))),
        (Value::Object(xs), Value::Object(ys)) if xs.len() == ys.len() => {
            xs.iter().zip(ys).try_for_each(|((kx, x), (ky, y))| {
                if kx == ky {
                    close(x, y, &format!("{at}.{kx}"))
                } else {
                    Err(format!("{at}: key {kx:?} where the oracle has {ky:?}"))
                }
            })
        }
        _ if a == b => Ok(()),
        _ => Err(format!("{at}: shapes differ")),
    }
}
