//! The one line-protocol client the `vtld serve` integration suites
//! share. Each suite is its own crate and uses a subset, hence the
//! blanket `dead_code`.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use vt_label_dynamics::obs::json;

pub fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// One request/response round trip over an existing connection: the
/// response line as served, without its terminator.
pub fn query_raw(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> String {
    stream
        .write_all(format!("{req}\n").as_bytes())
        .expect("write request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(line.ends_with('\n'), "response must be newline-terminated");
    line.trim_end().to_string()
}

/// [`query_raw`], parsed.
pub fn query(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> json::Value {
    let raw = query_raw(stream, reader, req);
    json::parse(&raw).unwrap_or_else(|e| panic!("unparseable response to {req}: {e}: {raw}"))
}

/// [`query`] for a verb that takes no members beside `cmd`.
pub fn ask(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, cmd: &str) -> json::Value {
    query(stream, reader, &format!("{{\"cmd\":\"{cmd}\"}}"))
}

/// Polls `status` until `ingest_done`, returning the connected client.
pub fn await_ingest_done(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let (mut stream, mut reader) = connect(addr);
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let v = ask(&mut stream, &mut reader, "status");
        if v.get("ingest_done").and_then(|d| d.as_bool()) == Some(true) {
            return (stream, reader);
        }
        assert!(Instant::now() < deadline, "ingestion never finished");
        std::thread::sleep(Duration::from_millis(25));
    }
}

pub fn u64s(v: &json::Value, key: &str) -> u64 {
    v.get(key)
        .and_then(|x| x.as_u64())
        .unwrap_or_else(|| panic!("missing u64 member {key}: {v:?}"))
}
