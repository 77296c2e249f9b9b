//! Connector-style alert sinks: drift alerts leaving the daemon.
//!
//! The merger hands every fold's freshly fired alert batch (the bodies
//! it rendered for the ring with [`super::wire::render_alert`], one JSON
//! object per alert, flagged as replayed or live) to one sink thread
//! over an mpsc channel; the thread fans each batch out to the
//! configured connectors:
//!
//! * **JSONL file** (`--alerts-out PATH`): one rendered alert per line,
//!   appended and flushed per batch. The file is opened by
//!   `Server::start`, before any thread runs, so a path the daemon
//!   cannot open refuses the start. Delivery is **exactly-once across
//!   crash-recovery**: on startup the sink reads the file back and
//!   seeds a dedup set with every line already present, so the WAL
//!   replay after a SIGKILL (which regenerates the same alerts under
//!   the same `(slot, seq, detector, ordinal)` keys, rendered to the
//!   same bytes) appends nothing it already delivered. A last line the
//!   kill tore mid-write was not delivered: it is cut off the file, and
//!   the replay appends that alert whole.
//! * **Webhook-shaped TCP** (`--alerts-tcp ADDR`): rendered alerts
//!   written line-by-line to a TCP endpoint, connected lazily and
//!   retried with exponential backoff. Recovery-replayed batches are
//!   skipped entirely (the remote saw them before the crash, or never
//!   will). A live batch whose write fails is resent **whole** on a
//!   fresh connection, so the lines that got through before the failure
//!   can arrive twice: delivery is neither at-most- nor exactly-once,
//!   and a consumer that needs exactly-once dedups on the alert key,
//!   which is stable across resends and replays. A batch that exhausts
//!   its retries is dropped and counted rather than wedging ingest.
//!
//! The channel is unbounded but its producer is bounded: detectors cap
//! alerts per segment, so the sink can never grow past the WAL's
//! segment count times a small constant. The thread exits when the
//! merger, its one producer, returns after the final publish, and the
//! daemon joins it on shutdown — a flushed file is part of the drain
//! contract.

use std::collections::HashSet;
use std::io::{BufWriter, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::mpsc::Receiver;
use std::time::Duration;

use crate::obs::Counter;

/// One fold's rendered alerts, travelling from the merger to the sink
/// thread.
pub(super) struct SinkMsg {
    /// Rendered alert bodies (see [`super::wire::render_alert`]), in
    /// key order within the batch; never empty.
    pub lines: Vec<String>,
    /// The batch came from a crash-recovery WAL replay rather than live
    /// ingest (the file sink dedups it; the TCP sink skips it).
    pub recovered: bool,
}

/// The connectors the sink thread delivers to, opened before it starts.
#[derive(Default)]
pub(super) struct Sinks {
    file: Option<FileSink>,
    tcp: Option<TcpSink>,
}

impl Sinks {
    /// Opens the configured connectors: the JSONL file here, so a path
    /// the daemon cannot open is an error its caller sees before any
    /// alert is fired; the TCP endpoint lazily, on its first batch.
    pub fn open(out: Option<&Path>, tcp: Option<&str>) -> std::io::Result<Sinks> {
        let file = out.map(|path| {
            FileSink::open(path).map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("cannot open alerts sink {}: {e}", path.display()),
                )
            })
        });
        Ok(Sinks {
            file: file.transpose()?,
            tcp: tcp.map(|addr| TcpSink::new(addr.to_string())),
        })
    }

    /// Whether any connector is configured (no thread is spawned
    /// otherwise).
    pub fn is_active(&self) -> bool {
        self.file.is_some() || self.tcp.is_some()
    }
}

/// The JSONL file connector with its crash-recovery dedup set.
struct FileSink {
    writer: BufWriter<std::fs::File>,
    /// Every line already in the file — alerts are rendered
    /// deterministically, so byte equality is key equality.
    delivered: HashSet<String>,
}

impl FileSink {
    fn open(path: &Path) -> std::io::Result<FileSink> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let mut existing = Vec::new();
        file.read_to_end(&mut existing)?;
        // A batch is several `write`s, so a kill can leave the last
        // line without its end. Appending onto that fragment would glue
        // the replayed alert to it: the file is cut back to its last
        // whole line, and the fragment is no delivery to dedup against.
        let whole = existing
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |at| at + 1);
        if whole < existing.len() {
            file.set_len(whole as u64)?;
        }
        let delivered = std::str::from_utf8(&existing[..whole])
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            .lines()
            .filter(|line| !line.is_empty())
            .map(str::to_owned)
            .collect();
        Ok(FileSink {
            writer: BufWriter::new(file),
            delivered,
        })
    }

    /// Appends the batch's new lines, flushing once per batch. Returns
    /// `(emitted, deduped)`.
    fn deliver(&mut self, lines: &[String]) -> std::io::Result<(u64, u64)> {
        let mut emitted = 0;
        let mut deduped = 0;
        for line in lines {
            if self.delivered.contains(line) {
                deduped += 1;
                continue;
            }
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
            self.delivered.insert(line.clone());
            emitted += 1;
        }
        self.writer.flush()?;
        Ok((emitted, deduped))
    }
}

/// Connection attempts per batch before the TCP connector drops it.
const TCP_ATTEMPTS: u32 = 5;
/// First retry backoff; doubles per attempt up to [`TCP_BACKOFF_CAP`].
const TCP_BACKOFF: Duration = Duration::from_millis(50);
/// Backoff ceiling.
const TCP_BACKOFF_CAP: Duration = Duration::from_millis(800);

/// The TCP connector: lazy connect, per-batch retry with exponential
/// backoff, a failed batch resent whole.
struct TcpSink {
    addr: String,
    conn: Option<TcpStream>,
}

impl TcpSink {
    fn new(addr: String) -> TcpSink {
        TcpSink { addr, conn: None }
    }

    /// Writes the whole batch over one connection, reconnecting (with
    /// backoff) on failure. Returns the lines actually written.
    fn deliver(&mut self, lines: &[String]) -> u64 {
        let mut backoff = TCP_BACKOFF;
        for attempt in 0..TCP_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(TCP_BACKOFF_CAP);
            }
            let conn = match self.conn.as_mut() {
                Some(conn) => conn,
                None => match TcpStream::connect(&self.addr) {
                    Ok(conn) => self.conn.insert(conn),
                    Err(_) => continue,
                },
            };
            let mut payload = String::new();
            for line in lines {
                payload.push_str(line);
                payload.push('\n');
            }
            match conn
                .write_all(payload.as_bytes())
                .and_then(|()| conn.flush())
            {
                Ok(()) => return lines.len() as u64,
                Err(_) => {
                    // A dead connection is retried on a fresh one; the
                    // whole batch is resent (the consumer dedups by
                    // alert key if it must).
                    self.conn = None;
                }
            }
        }
        0
    }
}

/// The sink thread body: drains batches until the merger hangs up,
/// delivering to whichever connectors are configured and counting
/// `serve/alerts_emitted` / `serve/alerts_dropped`.
pub(super) fn sink_loop(rx: Receiver<SinkMsg>, sinks: Sinks, emitted: Counter, dropped: Counter) {
    let Sinks { mut file, mut tcp } = sinks;
    while let Ok(SinkMsg { lines, recovered }) = rx.recv() {
        if let Some(sink) = file.as_mut() {
            match sink.deliver(&lines) {
                Ok((wrote, deduped)) => {
                    emitted.add(wrote);
                    dropped.add(deduped);
                }
                Err(e) => {
                    eprintln!("vtld serve: alerts sink write failed: {e}");
                    dropped.add(lines.len() as u64);
                }
            }
        }
        if let Some(sink) = tcp.as_mut() {
            if recovered {
                // At-most-once: replayed alerts were either delivered
                // before the crash or are gone; never send them twice.
                dropped.add(lines.len() as u64);
            } else {
                let wrote = sink.deliver(&lines);
                emitted.add(wrote);
                dropped.add(lines.len() as u64 - wrote);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::path::PathBuf;
    use std::sync::mpsc::channel;

    fn counters() -> (Counter, Counter, crate::obs::Obs) {
        let obs = crate::obs::Obs::new();
        (
            obs.counter("serve/alerts_emitted"),
            obs.counter("serve/alerts_dropped"),
            obs,
        )
    }

    /// A fresh directory of this test thread's own.
    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vtld-sink-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    #[test]
    fn a_torn_last_line_is_cut_off_and_its_alert_replayed_whole() {
        let dir = temp_dir();
        let path = dir.join("alerts.jsonl");
        let batch = ["{\"a\":1}".to_string(), "{\"b\":2}".to_string()];
        // The kill fell inside the second line, then inside the first.
        for (torn, delivered) in [("{\"a\":1}\n{\"b\":", (1, 1)), ("{\"a", (2, 0))] {
            std::fs::write(&path, torn).expect("write");
            let mut sink = FileSink::open(&path).expect("open");
            assert_eq!(sink.deliver(&batch).expect("deliver"), delivered);
            assert_eq!(
                std::fs::read_to_string(&path).expect("read back"),
                "{\"a\":1}\n{\"b\":2}\n",
                "after {torn:?}"
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn file_sink_appends_and_dedups_across_reopen() {
        let dir = temp_dir();
        let path = dir.join("alerts.jsonl");

        let (emitted, dropped, _obs) = counters();
        let (tx, rx) = channel();
        let lines = vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()];
        tx.send(SinkMsg {
            lines: lines.clone(),
            recovered: false,
        })
        .expect("send");
        drop(tx);
        let sinks = Sinks::open(Some(&path), None).expect("open");
        sink_loop(rx, sinks, emitted.clone(), dropped.clone());
        assert_eq!(emitted.value(), 2);
        assert_eq!(dropped.value(), 0);

        // A second sink over the same file (the recovery case) dedups
        // replayed lines and appends only the genuinely new one.
        let (tx, rx) = channel();
        tx.send(SinkMsg {
            lines: vec![lines[0].clone(), "{\"c\":3}".to_string()],
            recovered: true,
        })
        .expect("send");
        drop(tx);
        let sinks = Sinks::open(Some(&path), None).expect("reopen");
        sink_loop(rx, sinks, emitted.clone(), dropped.clone());
        assert_eq!(emitted.value(), 3, "one new line appended");
        assert_eq!(dropped.value(), 1, "one replayed line deduped");
        let contents = std::fs::read_to_string(&path).expect("read back");
        let got: Vec<&str> = contents.lines().collect();
        assert_eq!(got, vec!["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"]);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn tcp_sink_delivers_live_and_skips_recovered() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let reader = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut lines = Vec::new();
            for line in BufReader::new(stream).lines() {
                match line {
                    Ok(line) => lines.push(line),
                    Err(_) => break,
                }
            }
            lines
        });

        let (emitted, dropped, _obs) = counters();
        let (tx, rx) = channel();
        tx.send(SinkMsg {
            lines: vec!["{\"replayed\":true}".to_string()],
            recovered: true,
        })
        .expect("send");
        tx.send(SinkMsg {
            lines: vec!["{\"live\":1}".to_string(), "{\"live\":2}".to_string()],
            recovered: false,
        })
        .expect("send");
        drop(tx);
        let sinks = Sinks::open(None, Some(&addr)).expect("open");
        sink_loop(rx, sinks, emitted.clone(), dropped.clone());
        assert_eq!(emitted.value(), 2);
        assert_eq!(dropped.value(), 1, "the replayed batch is skipped");
        let got = reader.join().expect("reader thread");
        assert_eq!(got, vec!["{\"live\":1}", "{\"live\":2}"]);
    }

    #[test]
    fn tcp_sink_gives_up_after_bounded_retries() {
        // A port nothing listens on: bind, take the port, drop the
        // listener.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        drop(listener);

        let (emitted, dropped, _obs) = counters();
        let (tx, rx) = channel();
        tx.send(SinkMsg {
            lines: vec!["{\"x\":1}".to_string()],
            recovered: false,
        })
        .expect("send");
        drop(tx);
        let sinks = Sinks::open(None, Some(&addr)).expect("open");
        sink_loop(rx, sinks, emitted.clone(), dropped.clone());
        assert_eq!(emitted.value(), 0);
        assert_eq!(dropped.value(), 1, "undeliverable batches drop, not wedge");
    }
}
