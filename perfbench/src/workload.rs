//! The three workloads and the seeded inputs each run sends.

use dcam::arch::{ArchDescriptor, ArchFamily, InputEncoding, ModelScale};
use dcam::Precision;
use dcam_series::MultivariateSeries;
use dcam_tensor::SeededRng;
use serde::{Serialize, Value};

/// Name every shard registers the workload's model under.
pub const MODEL: &str = "bench";

/// Distinct series per run; requests cycle through them in seeded order.
const POOL: usize = 32;

/// One traffic mix against one model, served the same way by both shards.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: what it stresses and what it bypasses.
    pub why: &'static str,
    pub dims: usize,
    pub len: usize,
    pub k: usize,
    pub scale: ModelScale,
    pub precision: Precision,
    /// Share of requests that are `/v1/explain` (the rest `/v1/classify`).
    pub explain_share: f64,
    /// Explain answers carry the per-dimension summary, not the full map.
    pub summary: bool,
    /// The fixed `low` and `high` rates, about 20% and 60% of the
    /// capacity measured when the benchmark was written.
    pub low_rps: f64,
    pub high_rps: f64,
    /// Lowest rung of the `max_rps` ladder; the rungs span that
    /// capacity.
    pub ladder_base: f64,
    /// p95 latency limit a ladder rung must meet.
    pub limit_ms: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "explain_d20",
        why: "Full-map /v1/explain, tiny dCNN f32, D=20 n=128 k=100: stresses the dCAM engine \
              and the service flush wait; the front end is a small share.",
        dims: 20,
        len: 128,
        k: 100,
        scale: ModelScale::Tiny,
        precision: Precision::F32,
        explain_share: 1.0,
        summary: false,
        low_rps: 10.0,
        high_rps: 30.0,
        ladder_base: 33.0,
        limit_ms: 300.0,
    },
    Workload {
        name: "classify_mix",
        why: "90% /v1/classify, 10% summary /v1/explain, same model: stresses HTTP and JSON on \
              router and shard; bypasses most engine work, but explains block the one worker.",
        dims: 20,
        len: 128,
        k: 100,
        scale: ModelScale::Tiny,
        precision: Precision::F32,
        explain_share: 0.1,
        summary: true,
        low_rps: 45.0,
        high_rps: 130.0,
        ladder_base: 210.0,
        limit_ms: 150.0,
    },
    Workload {
        name: "explain_int8",
        why: "explain_d20 served with precision=int8: stresses the qgemm/quant forward and int8 \
              calibration in set-up; the front end is a small share.",
        dims: 20,
        len: 128,
        k: 100,
        scale: ModelScale::Tiny,
        precision: Precision::Int8,
        explain_share: 1.0,
        summary: false,
        low_rps: 10.0,
        high_rps: 30.0,
        ladder_base: 36.0,
        limit_ms: 300.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn arch(&self) -> ArchDescriptor {
        ArchDescriptor {
            family: ArchFamily::Cnn,
            encoding: InputEncoding::Dcnn,
            dims: self.dims,
            classes: 2,
            scale: self.scale,
        }
    }

    /// The `--model` flag value both shards load.
    pub fn model_flag(&self, ckpt: &str) -> String {
        let p = match self.precision {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        };
        format!("{MODEL}={ckpt},precision={p}")
    }

    /// The kind of request that makes up most of the traffic; the layer
    /// trace times the request path of this kind.
    pub fn primary_is_explain(&self) -> bool {
        self.explain_share >= 0.5
    }
}

/// The seeded request pool of one run.
pub struct Inputs {
    pub series: Vec<MultivariateSeries>,
    pub classes: Vec<usize>,
    pub explain_bodies: Vec<String>,
    pub classify_bodies: Vec<String>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let mut rng = SeededRng::new(seed ^ 0x5eed_0000_1a9b);
        let mut out = Inputs {
            series: Vec::new(),
            classes: Vec::new(),
            explain_bodies: Vec::new(),
            classify_bodies: Vec::new(),
        };
        for _ in 0..POOL {
            let rows: Vec<Vec<f32>> = (0..w.dims)
                .map(|_| (0..w.len).map(|_| rng.normal()).collect())
                .collect();
            let class = rng.index(2);
            let series = rows.to_value();
            let model = Value::String(MODEL.into());
            let mut explain = vec![
                ("series".to_string(), series.clone()),
                ("class".to_string(), Value::Number(class as f64)),
                ("model".to_string(), model.clone()),
            ];
            if w.summary {
                explain.push(("summary".to_string(), Value::Bool(true)));
            }
            let classify = vec![("series".to_string(), series), ("model".to_string(), model)];
            out.explain_bodies
                .push(serde_json::to_string(&Value::Object(explain)).expect("render body"));
            out.classify_bodies
                .push(serde_json::to_string(&Value::Object(classify)).expect("render body"));
            out.series.push(MultivariateSeries::from_rows(&rows));
            out.classes.push(class);
        }
        out
    }

    pub fn len(&self) -> usize {
        self.series.len()
    }
}

/// One scheduled request: which pool entry, and which endpoint.
#[derive(Clone, Copy)]
pub struct Pick {
    pub input: usize,
    pub explain: bool,
}

impl Pick {
    pub fn path(&self) -> &'static str {
        if self.explain {
            "/v1/explain"
        } else {
            "/v1/classify"
        }
    }

    pub fn body<'a>(&self, inputs: &'a Inputs) -> &'a str {
        if self.explain {
            &inputs.explain_bodies[self.input]
        } else {
            &inputs.classify_bodies[self.input]
        }
    }
}

/// An open-loop schedule: Poisson arrivals at `rate` per second, `n`
/// requests, each due at an offset (seconds) from the phase start; the
/// n-th gap ends at exactly `n / rate`.
pub struct Schedule {
    pub rate: f64,
    pub due: Vec<f64>,
    pub picks: Vec<Pick>,
}

impl Schedule {
    /// The arrival gaps and the explain/classify sequence come from
    /// `shape`, a fixed stream per phase, so every run offers the same
    /// load shape and run-to-run spread measures the fleet, not the draw.
    /// `seed` picks which of the run's series each request carries.
    pub fn poisson(
        w: &Workload,
        inputs: &Inputs,
        rate: f64,
        n: usize,
        shape: u64,
        seed: u64,
    ) -> Schedule {
        let mut shape_rng = SeededRng::new(shape);
        let mut pick_rng = SeededRng::new(seed);
        let mut t = 0.0f64;
        let mut due = Vec::with_capacity(n);
        let mut picks = Vec::with_capacity(n);
        for _ in 0..n {
            due.push(t);
            // Inverse-CDF exponential gap; `1 - u` keeps the log finite.
            let u = shape_rng.uniform() as f64;
            t += -(1.0 - u).max(1e-12).ln() / rate;
            picks.push(Pick {
                input: pick_rng.index(inputs.len()),
                explain: (shape_rng.uniform() as f64) < w.explain_share,
            });
        }
        // Rescale the gaps so the phase offers exactly `rate` on average:
        // the Poisson draws shape the bursts, not the load level.
        let scale = n as f64 / rate / t;
        for d in &mut due {
            *d *= scale;
        }
        Schedule { rate, due, picks }
    }
}
