//! The HTTP front end both tiers share (`dcam_server::http::FrontEnd`),
//! driven from outside with raw bytes: one table of protocol violations
//! is sent to a shard and to a router in front of it, and each tier must
//! answer every case with the same status and structured error code.
//! Hostile bodies — JSON nested far past the parser's depth cap and
//! samples that are not finite `f32` values — must be refused with a
//! structured 400 while both processes keep answering `/healthz`.

use dcam::arch::{cnn, InputEncoding, ModelScale};
use dcam::service::ServiceConfig;
use dcam::DcamService;
use dcam_router::{serve_router, Router, RouterConfig};
use dcam_server::{serve, DcamServer, ServerConfig};
use dcam_tensor::SeededRng;
use serde::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long either tier waits for the rest of a started request.
const RECEIVE_DEADLINE: Duration = Duration::from_millis(300);

/// A shard serving a tiny 3-dimensional model, and a router in front of
/// it; both give up on a stalled upload after [`RECEIVE_DEADLINE`].
fn boot_fleet() -> (DcamServer, Router) {
    let model = cnn(
        InputEncoding::Dcnn,
        3,
        2,
        ModelScale::Tiny,
        &mut SeededRng::new(3),
    );
    let shard = serve(
        DcamService::spawn(vec![model], ServiceConfig::default()),
        ServerConfig {
            request_deadline: RECEIVE_DEADLINE,
            ..Default::default()
        },
    )
    .expect("bind shard");
    let router = serve_router(RouterConfig {
        shards: vec![shard.addr().to_string()],
        replicas: 1,
        request_deadline: RECEIVE_DEADLINE,
        ..Default::default()
    })
    .expect("bind router");
    (shard, router)
}

/// One parsed response off a raw connection.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Value,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn error_code(&self) -> &str {
        self.body
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("no structured error in {:?}", self.body))
    }

    fn error_message(&self) -> &str {
        self.body
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap_or_default()
    }
}

/// Sends `raw` on a fresh connection and reads one `Content-Length`-framed
/// response.
fn exchange(addr: &str, raw: &[u8]) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).expect("send");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before a response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("ASCII head");
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .expect("content-length");
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < len {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    let body = serde_json::parse(std::str::from_utf8(&body).expect("UTF-8 body"))
        .expect("every response body is JSON");
    Reply {
        status,
        headers,
        body,
    }
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn assert_healthy(addr: &str) {
    let reply = exchange(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(reply.status, 200, "{addr} /healthz: {:?}", reply.body);
}

/// One row of the protocol table: a raw request and the rejection both
/// tiers must answer it with.
struct Case {
    name: &'static str,
    raw: &'static [u8],
    status: u16,
    code: &'static str,
    allow: Option<&'static str>,
}

const PROTOCOL_TABLE: [Case; 7] = [
    Case {
        name: "malformed request line",
        raw: b"NONSENSE\r\n\r\n",
        status: 400,
        code: "bad_request",
        allow: None,
    },
    Case {
        name: "duplicate Content-Length",
        raw: b"POST /v1/explain HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\n{}",
        status: 400,
        code: "bad_request",
        allow: None,
    },
    Case {
        name: "chunked transfer encoding",
        raw: b"POST /v1/explain HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        status: 400,
        code: "bad_request",
        allow: None,
    },
    Case {
        name: "oversized body",
        raw: b"POST /v1/explain HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n",
        status: 413,
        code: "payload_too_large",
        allow: None,
    },
    Case {
        name: "stalled partial upload",
        raw: b"POST /v1/explain HTTP/1.1\r\ncontent-length: 100\r\n\r\n{\"series\":",
        status: 408,
        code: "request_timeout",
        allow: None,
    },
    Case {
        name: "unknown path",
        raw: b"GET /v1/nope HTTP/1.1\r\n\r\n",
        status: 404,
        code: "not_found",
        allow: None,
    },
    Case {
        name: "wrong method",
        raw: b"GET /v1/explain HTTP/1.1\r\n\r\n",
        status: 405,
        code: "method_not_allowed",
        allow: Some("POST"),
    },
];

/// Every protocol-level rejection is the same status and error code
/// whether the shard or the router receives it — and the router, like
/// the shard, answers a stalled upload with a structured 408.
#[test]
fn protocol_table_answers_identically_on_shard_and_router() {
    let (shard, router) = boot_fleet();
    for (tier, addr) in [
        ("shard", shard.addr().to_string()),
        ("router", router.addr().to_string()),
    ] {
        for case in &PROTOCOL_TABLE {
            let reply = exchange(&addr, case.raw);
            let what = format!("{tier}: {}", case.name);
            assert_eq!(reply.status, case.status, "{what}: {:?}", reply.body);
            assert_eq!(reply.error_code(), case.code, "{what}");
            assert_eq!(reply.header("allow"), case.allow, "{what}");
        }
        assert_healthy(&addr);
    }
    router.shutdown();
    shard.shutdown();
}

/// 200 000 nested `[` would recurse the JSON parser off the end of a
/// connection worker's stack and abort the whole process; the depth cap
/// turns it into a structured 400 on both tiers.
#[test]
fn deeply_nested_json_is_a_400_and_both_tiers_survive() {
    let (shard, router) = boot_fleet();
    let body = "[".repeat(200_000);
    for addr in [shard.addr().to_string(), router.addr().to_string()] {
        let reply = exchange(&addr, &post("/v1/explain", &body));
        assert_eq!(reply.status, 400, "{addr}: {:?}", reply.body);
        assert_eq!(reply.error_code(), "bad_json");
        assert!(
            reply.error_message().contains("nesting deeper than 128"),
            "{:?}",
            reply.body
        );
    }
    for addr in [shard.addr().to_string(), router.addr().to_string()] {
        assert_healthy(&addr);
    }
    router.shutdown();
    shard.shutdown();
}

/// `1e400` parses to infinity and `1e39` overflows `f32`: both are
/// refused at parse time with a 400 naming the sample, on the explain and
/// classify routes of both tiers and in the shard's job bodies.
#[test]
fn non_finite_samples_are_rejected_on_both_tiers() {
    let (shard, router) = boot_fleet();
    for bad in ["1e400", "1e39", "-1e400"] {
        let series = format!("[[0.1, 0.2, 0.3], [0.4, {bad}, 0.6], [0.7, 0.8, 0.9]]");
        let single = format!("{{\"series\": {series}, \"class\": 1}}");
        let job = format!("{{\"series\": [{series}], \"labels\": [0]}}");
        let mut probes = Vec::new();
        for addr in [shard.addr().to_string(), router.addr().to_string()] {
            probes.push((addr.clone(), post("/v1/explain", &single), "series[1][1]"));
            probes.push((addr, post("/v1/classify", &single), "series[1][1]"));
        }
        let shard_addr = shard.addr().to_string();
        for path in ["/v1/eval", "/v1/analyze"] {
            probes.push((
                shard_addr.clone(),
                post(path, &job),
                "instance 0: series[1][1]",
            ));
        }
        for (addr, raw, names) in probes {
            let reply = exchange(&addr, &raw);
            assert_eq!(reply.status, 400, "{addr} {bad}: {:?}", reply.body);
            assert_eq!(reply.error_code(), "bad_request");
            assert!(
                reply.error_message().contains(names),
                "{addr} {bad}: message must name {names}: {:?}",
                reply.body
            );
        }
    }
    for addr in [shard.addr().to_string(), router.addr().to_string()] {
        assert_healthy(&addr);
    }
    let (_, service, _) = shard.shutdown();
    assert_eq!(
        service.submitted, 0,
        "no non-finite sample reached the queue"
    );
    router.shutdown();
}
