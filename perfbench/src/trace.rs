//! Spans recorded by the traced run, kept in memory and written out once
//! at the end: a name, start and end (ms from the run start), the span
//! that caused it, and for timed calls the call's own duration.

use serde::Value;
use std::time::Instant;

struct Span {
    parent: Option<usize>,
    name: String,
    start_ms: f64,
    end_ms: f64,
    dur_ms: Option<f64>,
}

pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ms(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    pub fn add(&mut self, name: &str, parent: Option<usize>, start_ms: f64, end_ms: f64) -> usize {
        self.spans.push(Span {
            parent,
            name: name.to_string(),
            start_ms,
            end_ms,
            dur_ms: None,
        });
        self.spans.len() - 1
    }

    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ms();
        self.add(name, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ms = self.now_ms();
    }

    /// Closes a span around a timed call, keeping the call's own time.
    pub fn close_with(&mut self, id: usize, dur_ms: f64) {
        self.close(id);
        self.spans[id].dur_ms = Some(dur_ms);
    }

    pub fn to_value(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut f = vec![
                        ("id".to_string(), Value::Number(id as f64)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                        ),
                        ("name".to_string(), Value::String(s.name.clone())),
                        ("start_ms".to_string(), Value::Number(s.start_ms)),
                        ("end_ms".to_string(), Value::Number(s.end_ms)),
                    ];
                    if let Some(d) = s.dur_ms {
                        f.push(("dur_ms".to_string(), Value::Number(d)));
                    }
                    Value::Object(f)
                })
                .collect(),
        )
    }
}
