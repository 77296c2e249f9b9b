//! Smoke tests for the `vtld serve` daemon: concurrent clients query a
//! live server *while* it ingests the chaos-injected feed, every answer
//! must be a parseable, epoch-consistent snapshot — and hostile wire
//! input (oversized lines, truncated JSON, binary garbage, half-closed
//! or silent sockets) must earn typed errors or eviction, never a
//! panic, a hang, or a wedged daemon.

mod common;

use common::{ask, connect};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use vt_label_dynamics::obs::json;
use vt_label_dynamics::prelude::*;
use vt_label_dynamics::serve::MAX_LINE_BYTES;

#[test]
fn serve_answers_concurrent_clients_during_ingestion() {
    let mut config = ServeConfig::new(4_000, 0x5E12E);
    config.segment_reports = 1_000; // several seals → several epoch swaps
    config.workers = 2;
    let server = Server::start(config).expect("bind ephemeral port");
    let addr = server.addr();

    // 8 concurrent clients hammer the four query commands while the
    // ingest thread folds segments and swaps snapshots underneath them.
    let clients: Vec<_> = (0..8)
        .map(|client| {
            std::thread::spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                let mut last_epoch = 0u64;
                for round in 0..40 {
                    let cmd = ["status", "results", "engines", "metrics"][round % 4];
                    let v = ask(&mut stream, &mut reader, cmd);
                    let epoch = v
                        .get("epoch")
                        .and_then(|e| e.as_u64())
                        .unwrap_or_else(|| panic!("client {client}: {cmd} lacks epoch"));
                    assert!(
                        epoch >= last_epoch,
                        "client {client}: epoch went backwards ({epoch} < {last_epoch})"
                    );
                    last_epoch = epoch;
                    match cmd {
                        "status" => assert!(v.get("samples").is_some()),
                        "results" => assert!(v.get("dataset").is_some()),
                        "engines" => assert!(v.get("engines").is_some()),
                        _ => assert!(v.get("metrics").is_some()),
                    }
                }
                last_epoch
            })
        })
        .collect();

    // A ninth connection watches for ingestion to finish.
    let (mut stream, mut reader) = connect(addr);
    let final_status = loop {
        let v = ask(&mut stream, &mut reader, "status");
        if v.get("ingest_done").and_then(|d| d.as_bool()) == Some(true) {
            break v;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(
        final_status.get("epoch").and_then(|e| e.as_u64()).unwrap() >= 2,
        "expected at least one segment swap plus the final swap"
    );
    assert_eq!(
        final_status.get("samples").and_then(|s| s.as_u64()),
        Some(4_000)
    );

    for c in clients {
        c.join().expect("client thread");
    }

    // Unknown commands get a typed error, not a dropped connection.
    let err = ask(&mut stream, &mut reader, "bogus");
    assert!(err.get("error").is_some());
    assert!(err.get("epoch").is_some());

    // A fresh client still sees the final snapshot after ingestion.
    let (mut s2, mut r2) = connect(addr);
    let results = ask(&mut s2, &mut r2, "results");
    assert_eq!(
        results
            .get("dataset")
            .and_then(|d| d.get("samples"))
            .and_then(|s| s.as_u64()),
        Some(4_000)
    );

    // Shutdown over the wire; wait() must return.
    let bye = ask(&mut stream, &mut reader, "shutdown");
    assert_eq!(
        bye.get("shutting_down").and_then(|b| b.as_bool()),
        Some(true)
    );
    server.wait();
}

/// `status` and `metrics` are rendered per request from the live
/// registry, so a total that moves after the last publish — here an
/// eviction — moves in both instead of freezing at its publish-time
/// value.
#[test]
fn status_counters_stay_live_after_ingest_done() {
    let mut config = ServeConfig::new(300, 0x57A7);
    config.segment_reports = 1_000;
    config.workers = 1;
    let server = Server::start(config).expect("bind ephemeral port");
    let (mut stream, mut reader) = connect(server.addr());
    let done = loop {
        let v = ask(&mut stream, &mut reader, "status");
        if v.get("ingest_done").and_then(|d| d.as_bool()) == Some(true) {
            break v;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let u64_of = |v: &json::Value, key: &str| v.get(key).and_then(|n| n.as_u64()).expect("member");

    // No publish can follow `ingest_done`: whatever moves now moves
    // only in the registry. A second connection earns an eviction.
    let mut over = vec![b'a'; MAX_LINE_BYTES + 1];
    over.push(b'\n');
    let notice = send_raw(server.addr(), &over).expect("an eviction notice");
    assert!(notice.contains("\"evicted\":true"), "{notice}");

    let after = ask(&mut stream, &mut reader, "status");
    assert_eq!(u64_of(&after, "epoch"), u64_of(&done, "epoch"));
    assert_eq!(
        u64_of(&after, "evicted"),
        u64_of(&done, "evicted") + 1,
        "the eviction happened after the last publish, and status must say so"
    );
    let metrics = ask(&mut stream, &mut reader, "metrics");
    assert_eq!(u64_of(&metrics, "epoch"), u64_of(&done, "epoch"));
    let counters = metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("metrics.counters");
    assert_eq!(
        u64_of(counters, "serve/evicted"),
        u64_of(&after, "evicted"),
        "metrics reads the same live registry"
    );
    // The epoch-consistent members are the snapshot's, unchanged.
    for key in ["samples", "indexed", "s_samples", "segments"] {
        assert_eq!(u64_of(&after, key), u64_of(&done, key), "{key}");
    }
    server.shutdown();
    server.wait();
}

/// Sends raw bytes on a fresh connection and returns the first response
/// line (if the server sent one before closing).
fn send_raw(addr: std::net::SocketAddr, payload: &[u8]) -> Option<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(payload).expect("write payload");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line),
        Err(_) => None,
    }
}

/// A tiny idle server for protocol-abuse tests: no ingestion to speak
/// of, and a short read deadline so a silent client trips it quickly.
fn hostile_test_server() -> Server {
    let mut config = ServeConfig::new(50, 0xBAD);
    config.segment_reports = 1_000;
    config.workers = 1;
    config.read_timeout = Duration::from_millis(400);
    Server::start(config).expect("bind ephemeral port")
}

#[test]
fn hostile_wire_input_gets_typed_errors_never_a_panic() {
    let server = hostile_test_server();
    let addr = server.addr();

    // Truncated JSON: typed parse error carrying the epoch.
    let line = send_raw(addr, b"{\"cmd\":\"sta\n").expect("a response");
    let v = json::parse(line.trim_end()).expect("parseable error response");
    assert!(v.get("error").is_some(), "{line}");
    assert!(v.get("epoch").is_some(), "{line}");

    // Binary garbage (not UTF-8, not JSON): typed error, not a panic.
    let mut garbage = vec![0xFFu8, 0xFE, 0x00, 0x9B, 0x01, 0x80];
    garbage.push(b'\n');
    let line = send_raw(addr, &garbage).expect("a response");
    let v = json::parse(line.trim_end()).expect("parseable error response");
    assert!(v.get("error").is_some(), "{line}");

    // A wrong-typed cmd member: typed error.
    let line = send_raw(addr, b"{\"cmd\":42}\n").expect("a response");
    let v = json::parse(line.trim_end()).expect("parseable error response");
    assert!(v.get("error").is_some(), "{line}");

    // An oversized request line (no newline until past the limit):
    // the client is evicted with a typed response and the connection is
    // closed.
    let mut huge = vec![b'a'; MAX_LINE_BYTES + 1];
    huge.push(b'\n');
    let line = send_raw(addr, &huge).expect("an eviction notice");
    let v = json::parse(line.trim_end()).expect("parseable eviction response");
    assert_eq!(v.get("evicted").and_then(|e| e.as_bool()), Some(true));
    assert!(v.get("error").is_some(), "{line}");

    // Half-closed socket: the client shuts down its write side without
    // sending anything; the server must treat it as EOF and move on.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut rest = Vec::new();
        let mut reader = BufReader::new(stream);
        let _ = reader.read_to_end(&mut rest); // server closes quietly
    }

    // After all of that abuse, a well-formed client is served normally.
    let (mut stream, mut reader) = connect(addr);
    let v = ask(&mut stream, &mut reader, "status");
    assert!(v.get("epoch").is_some());
    server.shutdown();
    server.wait();
}

#[test]
fn a_deeply_nested_request_line_is_an_error_not_a_stack_overflow() {
    // Regression: the JSON reader recursed once per open bracket with no
    // bound, so one line under the default 64 KiB limit overflowed the
    // connection thread's stack and aborted the whole daemon.
    let mut config = ServeConfig::new(50, 0xBAD);
    config.segment_reports = 1_000;
    config.workers = 1;
    let server = Server::start(config).expect("bind ephemeral port");
    let addr = server.addr();

    let mut deep = vec![b'['; 60_000];
    deep.push(b'\n');
    let line = send_raw(addr, &deep).expect("a response");
    let v = json::parse(line.trim_end()).expect("parseable error response");
    let error = v.get("error").and_then(|e| e.as_str()).expect("an error");
    assert!(error.starts_with("bad request: "), "{line}");

    // The daemon is still there for the next client.
    let (mut stream, mut reader) = connect(addr);
    let v = ask(&mut stream, &mut reader, "status");
    assert!(v.get("epoch").is_some());
    server.shutdown();
    server.wait();
}

#[test]
fn unterminated_final_request_is_answered_at_eof() {
    // Regression: a client whose last request line lacks the trailing
    // newline (it shuts down its write half right after the bytes) used
    // to be dropped silently — EOF discarded the buffered partial line.
    // EOF now terminates the final line and the request is answered.
    let server = hostile_test_server();
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("client timeout");
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(b"{\"cmd\":\"status\"}") // no '\n'
        .expect("write unterminated request");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close after the partial line");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("a response");
    let v = json::parse(line.trim_end()).expect("parseable response");
    assert!(
        v.get("samples").is_some(),
        "the unterminated request must be answered as a status query: {line}"
    );
    // ...after which the connection sees a clean EOF.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);

    server.shutdown();
    server.wait();
}

#[test]
fn request_line_bound_is_exact() {
    // Regression: the length check ran after buffering, so the
    // documented MAX_LINE_BYTES bound could be exceeded by up to one
    // BufReader chunk. The bound is now exact: a line of exactly
    // MAX_LINE_BYTES bytes is served, one more byte evicts.
    let server = hostile_test_server();
    let addr = server.addr();

    // Exactly MAX_LINE_BYTES of valid JSON (newline excluded from the
    // bound).
    let base = "{\"cmd\":\"status\",\"pad\":\"\"}";
    let mut exact = format!(
        "{{\"cmd\":\"status\",\"pad\":\"{}\"}}",
        "a".repeat(MAX_LINE_BYTES - base.len())
    )
    .into_bytes();
    assert_eq!(exact.len(), MAX_LINE_BYTES);
    exact.push(b'\n');
    let line = send_raw(addr, &exact).expect("a response");
    let v = json::parse(line.trim_end()).expect("parseable response");
    assert!(
        v.get("samples").is_some(),
        "a line of exactly max bytes must be served: {line}"
    );

    // One byte more: evicted, not serviced.
    let mut over = vec![b'a'; MAX_LINE_BYTES + 1];
    over.push(b'\n');
    let line = send_raw(addr, &over).expect("an eviction notice");
    let v = json::parse(line.trim_end()).expect("parseable eviction response");
    assert_eq!(
        v.get("evicted").and_then(|e| e.as_bool()),
        Some(true),
        "one byte past the bound must evict: {line}"
    );

    server.shutdown();
    server.wait();
}

#[test]
fn silent_clients_are_evicted_on_the_read_deadline() {
    let server = hostile_test_server();
    let addr = server.addr();

    // Connect and say nothing: the read deadline must evict us with a
    // typed response instead of holding the slot forever.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("client timeout");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("eviction notice");
    let v = json::parse(line.trim_end()).expect("parseable eviction response");
    assert_eq!(v.get("evicted").and_then(|e| e.as_bool()), Some(true));
    // ...and the connection is then closed.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);

    server.shutdown();
    server.wait();
}

#[test]
fn connection_cap_sheds_load_with_typed_overloaded_responses() {
    let mut config = ServeConfig::new(50, 0xCA5);
    config.segment_reports = 1_000;
    config.workers = 1;
    config.max_clients = 2;
    let server = Server::start(config).expect("bind ephemeral port");
    let addr = server.addr();

    // Two admitted clients, proven live by a round-trip each.
    let mut held: Vec<_> = (0..2)
        .map(|_| {
            let (mut stream, mut reader) = connect(addr);
            let v = ask(&mut stream, &mut reader, "status");
            assert!(v.get("epoch").is_some());
            (stream, reader)
        })
        .collect();

    // The third connection is shed at the gate with a typed response.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("overload notice");
    let v = json::parse(line.trim_end()).expect("parseable overload response");
    assert_eq!(v.get("overloaded").and_then(|o| o.as_bool()), Some(true));
    assert!(v.get("error").is_some(), "{line}");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0, "then closed");

    // Freeing a slot re-admits new clients (retry until the handler's
    // exit is visible to the admission gate).
    drop(held.pop());
    let mut admitted = false;
    for _ in 0..100 {
        let (mut stream, mut reader) = connect(addr);
        stream
            .write_all(b"{\"cmd\":\"status\"}\n")
            .expect("write request");
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        let v = json::parse(line.trim_end()).expect("parseable response");
        if v.get("overloaded").is_none() {
            assert!(v.get("samples").is_some(), "{line}");
            admitted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(admitted, "slot release must re-open admission");

    drop(held);
    server.shutdown();
    server.wait();
}
