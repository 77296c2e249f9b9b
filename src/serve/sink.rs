//! Connector-style alert sinks: drift alerts leaving the daemon.
//!
//! The merger hands every fold's freshly fired alert batch (the bodies
//! it rendered for the ring with [`super::wire::render_alert`], one JSON
//! object per alert, flagged as replayed or live, with the slot that
//! fired it) to [`Sinks::deliver`], on its own thread and before the
//! publish that carries those alerts, which fans it out:
//!
//! * **JSONL file** (`--alerts-out PATH`): one rendered alert per line,
//!   appended and flushed per batch, so a line is in the file before its
//!   alert is published, to a regular file of one feed (a start without
//!   `--recover` refuses a non-empty one). Delivery is **exactly-once
//!   across crash-recovery** by one count per slot: every data dir is a
//!   prefix of the clean run's seals, alerts are a pure function of the
//!   WAL, and a slot's updates reach the sink in its seal order, so each
//!   slot's lines in the file are a prefix of what its replay fires
//!   again; `--recover` counts them and skips that many. A last line a
//!   kill tore is cut off, and the replay appends that alert whole. A
//!   failed write ends file delivery for the run (that batch and every
//!   later one count as dropped): a batch past a gap would break its
//!   slot's prefix, and a partial line left is what the next `--recover`
//!   cuts.
//! * **Webhook-shaped TCP** (`--alerts-tcp ADDR`): the one sink thread,
//!   [`tcp_loop`], writes each live batch line-by-line to a TCP
//!   endpoint, connected lazily and retried with exponential backoff.
//!   `deliver` queues a batch for it without waiting; one that finds the
//!   [`TCP_QUEUE_BATCHES`] queue full is dropped and counted, so a slow
//!   or dead endpoint costs counted drops, never the merger's time or
//!   memory. Recovery-replayed batches are skipped entirely (the remote
//!   saw them before the crash, or never will). A batch whose write
//!   fails is resent **whole** on a fresh connection, so the lines that
//!   got through before the failure can arrive twice: a consumer that
//!   needs exactly-once dedups on the alert key, stable across resends
//!   and replays. A batch that exhausts its retries is dropped and
//!   counted. Once the daemon is asked to stop, every batch not yet
//!   delivered is counted as dropped without a connect or a sleep, so a
//!   dead endpoint cannot hold up the exit; the thread exits when the
//!   merger, returning after the final publish, drops the queue's sender.

use std::io::ErrorKind::{InvalidData, InvalidInput};
use std::io::{BufRead, BufReader, BufWriter, Error, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Duration;

use super::INGEST_SLOTS;
use crate::obs::Counter;

/// One fold's rendered alerts, travelling from the merger to the sinks.
pub(super) struct SinkMsg {
    /// The slot whose fold fired the batch.
    pub slot: usize,
    /// Rendered alert bodies (see [`super::wire::render_alert`]), in
    /// key order within the batch; never empty.
    pub lines: Vec<String>,
    /// The batch came from a crash-recovery WAL replay rather than live
    /// ingest (the TCP sink skips it).
    pub recovered: bool,
}

/// Live batches the TCP connector's queue holds; [`Sinks::deliver`]
/// drops a batch past them. At the default detector caps a batch holds
/// at most 33 lines (16 crossovers, 16 sample events, one regression).
const TCP_QUEUE_BATCHES: usize = 32;

/// The merger's side of the connectors: the file, and the TCP queue.
#[derive(Default)]
pub(super) struct Sinks {
    file: Option<FileSink>,
    /// A file write failed: file delivery has ended for the run.
    failed: bool,
    tcp: Option<SyncSender<Vec<String>>>,
}

impl Sinks {
    /// Opens the configured connectors: the JSONL file here, resumed if
    /// `resume`, so a path the daemon cannot open fails the start before
    /// any alert is fired; for the TCP endpoint, the queue and the
    /// connector [`tcp_loop`] runs, which connects on its first batch.
    pub fn open(
        out: Option<&Path>,
        tcp: Option<&str>,
        resume: bool,
    ) -> std::io::Result<(Sinks, Option<TcpSink>)> {
        let file = out.map(|path| FileSink::open(path, resume)).transpose()?;
        let (tcp, connector) = tcp.map(TcpSink::queued).unzip();
        let failed = false;
        Ok((Sinks { file, failed, tcp }, connector))
    }

    /// Delivers one batch on the caller's thread: appends it to the file,
    /// flushed, and queues a live batch for the TCP connector without
    /// waiting. Counts `serve/alerts_emitted` / `serve/alerts_dropped`
    /// for what it settles here; [`tcp_loop`] counts the queued rest.
    pub fn deliver(&mut self, msg: SinkMsg, emitted: &Counter, dropped: &Counter) {
        let offered = msg.lines.len() as u64;
        if let Some(sink) = self.file.as_mut() {
            match sink.deliver(msg.slot, &msg.lines) {
                Ok((wrote, skipped)) => {
                    emitted.add(wrote);
                    dropped.add(skipped);
                }
                Err(e) => {
                    eprintln!("vtld serve: alerts sink write failed, file delivery ends: {e}");
                    (self.file, self.failed) = (None, true);
                }
            }
        }
        if self.failed {
            dropped.add(offered);
        }
        // At-most-once: replayed alerts were either delivered before the
        // crash or are gone; never send them twice. A live batch the
        // queue cannot take now is shed, not held.
        if let Some(queue) = &self.tcp {
            if msg.recovered || queue.try_send(msg.lines).is_err() {
                dropped.add(offered);
            }
        }
    }
}

/// The JSONL file connector with its per-slot resume counts.
struct FileSink {
    writer: BufWriter<std::fs::File>,
    /// Per slot, the whole lines the file held at open that this run
    /// has not offered again, and so skips.
    held: [u64; INGEST_SLOTS],
}

impl FileSink {
    /// Opens `path` for appending. A non-regular path, and without
    /// `resume` a non-empty file, refuse the start; with `resume`, each
    /// whole line is counted under its slot and a torn last line is cut.
    fn open(path: &Path, resume: bool) -> std::io::Result<FileSink> {
        let at = path.display();
        let cannot = |e: Error| Error::new(e.kind(), format!("cannot open alerts sink {at}: {e}"));
        let meta = std::fs::metadata(path).ok();
        if meta.as_ref().is_some_and(|meta| !meta.is_file()) {
            return Err(cannot(Error::new(InvalidInput, "not a regular file")));
        }
        if !resume && meta.is_some_and(|meta| meta.len() > 0) {
            let why = "already holds alerts; restart with --recover or point at a clean file";
            return Err(Error::new(InvalidInput, format!("alerts file {at} {why}")));
        }
        let mut options = std::fs::File::options();
        options.create(true).read(true).append(true);
        let file = options.open(path).map_err(cannot)?;
        let (mut held, mut whole, mut line) = ([0; INGEST_SLOTS], 0, Vec::new());
        let mut reader = BufReader::new(&file);
        for number in 1u64.. {
            line.clear();
            let read = reader.read_until(b'\n', &mut line).map_err(cannot)?;
            if line.last() != Some(&b'\n') {
                break;
            }
            let Some(slot) = alert_slot(&line) else {
                let why = format!("line {number} is not an alert of a slot below {INGEST_SLOTS}");
                return Err(cannot(Error::new(InvalidData, why)));
            };
            held[slot] += 1;
            whole += read as u64;
        }
        // A batch is several `write`s, so a kill can tear its last line.
        // Appending onto the fragment would glue the replayed alert to it.
        file.set_len(whole).map_err(cannot)?;
        let writer = BufWriter::new(file);
        Ok(FileSink { writer, held })
    }

    /// Appends the batch of `slot`'s lines past those the file already
    /// held, flushing once per batch. Returns `(emitted, skipped)`.
    fn deliver(&mut self, slot: usize, lines: &[String]) -> std::io::Result<(u64, u64)> {
        let skipped = self.held[slot].min(lines.len() as u64);
        self.held[slot] -= skipped;
        for line in &lines[skipped as usize..] {
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()?;
        Ok((lines.len() as u64 - skipped, skipped))
    }
}

/// The `"slot"` below [`INGEST_SLOTS`] of the alert `line`, if it is one.
fn alert_slot(line: &[u8]) -> Option<usize> {
    let doc = crate::obs::json::parse(std::str::from_utf8(line).ok()?).ok()?;
    let slot = usize::try_from(doc.get("slot")?.as_u64()?).ok()?;
    (slot < INGEST_SLOTS).then_some(slot)
}

/// Connection attempts per batch before the TCP connector drops it.
const TCP_ATTEMPTS: u32 = 5;
/// First retry backoff; doubles per attempt up to [`TCP_BACKOFF_CAP`].
const TCP_BACKOFF: Duration = Duration::from_millis(50);
/// Backoff ceiling.
const TCP_BACKOFF_CAP: Duration = Duration::from_millis(800);

/// The TCP connector: its queue of live batches, lazy connect,
/// per-batch retry with exponential backoff, a failed batch resent
/// whole.
pub(super) struct TcpSink {
    addr: String,
    conn: Option<TcpStream>,
    queue: Receiver<Vec<String>>,
}

impl TcpSink {
    /// A connector for `addr`, and the sender of its queue.
    fn queued(addr: &str) -> (SyncSender<Vec<String>>, TcpSink) {
        let (tx, queue) = sync_channel(TCP_QUEUE_BATCHES);
        let (addr, conn) = (addr.to_string(), None);
        (tx, TcpSink { addr, conn, queue })
    }

    /// Writes the whole batch over one connection, reconnecting (with
    /// backoff) on failure, until `stop()` turns true. Returns the lines
    /// actually written.
    fn deliver(&mut self, lines: &[String], stop: &impl Fn() -> bool) -> u64 {
        let payload = lines.join("\n") + "\n";
        let mut backoff = TCP_BACKOFF;
        for attempt in 0..TCP_ATTEMPTS {
            if stop() {
                break;
            }
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
            if conn.write_all(payload.as_bytes()).is_ok() && conn.flush().is_ok() {
                return lines.len() as u64;
            }
            // A dead connection is retried on a fresh one; the whole
            // batch is resent (the consumer dedups by alert key if it
            // must).
            self.conn = None;
        }
        0
    }
}

/// The sink thread body: delivers each queued batch until the merger's
/// [`Sinks`] is dropped, counting `serve/alerts_emitted` /
/// `serve/alerts_dropped`. `stop()` (a shutdown was requested) ends the
/// retries, so every batch still queued is counted as dropped at once.
pub(super) fn tcp_loop(
    mut sink: TcpSink,
    stop: impl Fn() -> bool,
    emitted: &Counter,
    dropped: &Counter,
) {
    while let Ok(lines) = sink.queue.recv() {
        let wrote = sink.deliver(&lines, &stop);
        emitted.add(wrote);
        dropped.add(lines.len() as u64 - wrote);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::ErrorKind;
    use std::path::PathBuf;

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

    /// An alert line of `slot`, the `n`-th its file holds.
    fn alert(slot: usize, n: usize) -> String {
        format!("{{\"slot\":{slot},\"seq\":{n},\"detector\":\"rate_crossover\",\"ordinal\":0}}")
    }

    /// Hands `batches` of `(slot, lines, recovered)` to `sinks`' `deliver`,
    /// then, its queue's sender dropped, runs its TCP connector, if any,
    /// to the queue's end.
    fn run(
        (mut sinks, tcp): (Sinks, Option<TcpSink>),
        batches: Vec<(usize, Vec<String>, bool)>,
        (emitted, dropped): (&Counter, &Counter),
    ) {
        for (slot, lines, recovered) in batches {
            let msg = SinkMsg {
                slot,
                lines,
                recovered,
            };
            sinks.deliver(msg, emitted, dropped);
        }
        drop(sinks);
        if let Some(tcp) = tcp {
            tcp_loop(tcp, || false, emitted, dropped);
        }
    }

    #[test]
    fn a_torn_last_line_is_cut_off_and_its_alert_replayed_whole() {
        let dir = temp_dir();
        let path = dir.join("alerts.jsonl");
        let batch = [alert(0, 1), alert(0, 2)];
        let (a, b) = (&batch[0], &batch[1]);
        // The kill fell inside the second line, then inside the first.
        for (torn, delivered) in [
            (format!("{a}\n{}", &b[..6]), (1, 1)),
            (a[..3].to_string(), (2, 0)),
        ] {
            std::fs::write(&path, &torn).expect("write");
            let mut sink = FileSink::open(&path, true).expect("open");
            assert_eq!(sink.deliver(0, &batch).expect("deliver"), delivered);
            assert_eq!(
                std::fs::read_to_string(&path).expect("read back"),
                format!("{a}\n{b}\n"),
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
        let (a0, b0, c0, x1, y1) = (
            alert(0, 0),
            alert(0, 1),
            alert(0, 2),
            alert(1, 0),
            alert(1, 1),
        );
        let first = vec![
            (0, vec![a0.clone(), b0.clone()], false),
            (1, vec![x1.clone()], false),
        ];
        run(
            Sinks::open(Some(&path), None, false).expect("open"),
            first,
            (&emitted, &dropped),
        );
        assert_eq!((emitted.value(), dropped.value()), (3, 0));

        // A fresh start over the file is another feed's run: refused.
        let err = Sinks::open(Some(&path), None, false)
            .err()
            .expect("a fresh start is refused");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert_eq!(
            err.to_string(),
            format!(
                "alerts file {} already holds alerts; restart with --recover or point at a clean file",
                path.display()
            )
        );

        // A recovery replays each slot's lines from its first: the sink
        // skips as many of each slot's as the file holds, whatever order
        // the slots' batches arrive in, and appends the genuinely new.
        let replay = vec![
            (1, vec![x1.clone(), y1.clone()], true),
            (0, vec![a0.clone()], true),
            (0, vec![b0.clone(), c0.clone()], false),
        ];
        run(
            Sinks::open(Some(&path), None, true).expect("reopen"),
            replay,
            (&emitted, &dropped),
        );
        assert_eq!(emitted.value(), 5, "two new lines appended");
        assert_eq!(dropped.value(), 3, "three replayed lines skipped");
        let contents = std::fs::read_to_string(&path).expect("read back");
        let got: Vec<&str> = contents.lines().collect();
        assert_eq!(got, [&a0, &b0, &x1, &y1, &c0]);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    /// A write that fails ends file delivery for the run: that batch and
    /// every later one count as dropped.
    #[test]
    fn a_failed_write_ends_file_delivery_for_the_run() {
        let dir = temp_dir();
        let path = dir.join("alerts.jsonl");
        std::fs::write(&path, "").expect("an empty file");
        // A read-only handle: the flush of the first batch fails.
        let writer = BufWriter::new(std::fs::File::open(&path).expect("open"));
        let file = Some(FileSink {
            writer,
            held: [0; INGEST_SLOTS],
        });
        let sinks = Sinks {
            file,
            ..Sinks::default()
        };
        let (emitted, dropped, _obs) = counters();
        let batches = vec![
            (0, vec![alert(0, 0), alert(0, 1)], false),
            (1, vec![alert(1, 0)], false),
        ];
        run((sinks, None), batches, (&emitted, &dropped));
        assert_eq!((emitted.value(), dropped.value()), (0, 3));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Writes `bytes` to `path` and resumes a sink over it: `Ok` with its
    /// per-slot counts, which sum to the whole lines of the file left
    /// (`bytes` cut back to its last `\n`), or `InvalidData` with its
    /// message. Anything else fails the case.
    fn resume_over(
        path: &Path,
        bytes: &[u8],
    ) -> Result<Result<[u64; INGEST_SLOTS], String>, TestCaseError> {
        std::fs::write(path, bytes).expect("write");
        match FileSink::open(path, true) {
            Ok(sink) => {
                let kept = std::fs::read(path).expect("read back");
                let whole = bytes
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |at| at + 1);
                prop_assert_eq!(&kept[..], &bytes[..whole]);
                let lines = kept.iter().filter(|&&b| b == b'\n').count() as u64;
                prop_assert_eq!(sink.held.iter().sum::<u64>(), lines);
                Ok(Ok(sink.held))
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => Ok(Err(e.to_string())),
            Err(e) => Err(TestCaseError::fail(format!("{e:?}"))),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Arbitrary bytes, and valid files cut, with a byte flipped, or
        /// followed by foreign JSON, an alert of slot 8 or more, or a line
        /// that is not UTF-8: resuming over one is `Ok` or `InvalidData`,
        /// never a panic; a valid file's counts are its whole lines of
        /// each slot, and a bad line is named by path and number.
        #[test]
        fn generated_alert_files_resume_or_fail_as_invalid_data(
            bytes in proptest::collection::vec(any::<u8>(), 0..256),
            slots in proptest::collection::vec(0..INGEST_SLOTS, 0..24),
            edit in 0u8..6,
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let dir = temp_dir();
            let path = dir.join("alerts.jsonl");
            let _ = resume_over(&path, &bytes)?;
            let lines = slots.iter().enumerate().map(|(n, &slot)| alert(slot, n) + "\n");
            let mut file = lines.collect::<String>().into_bytes();
            match edit {
                0 => {}
                1 => file.truncate(at % (file.len() + 1)),
                2 if !file.is_empty() => {
                    let at = at % file.len();
                    file[at] ^= byte | 1;
                }
                2 => {}
                3 => file.extend_from_slice(b"{\"cmd\":\"status\"}\n"),
                4 => file.extend((alert(INGEST_SLOTS + usize::from(byte), 0) + "\n").bytes()),
                _ => file.extend_from_slice(b"{\"slot\":0,\"detector\":\"\xff\"}\n"),
            }
            let resumed = resume_over(&path, &file)?;
            if edit < 2 {
                let kept = file.iter().filter(|&&b| b == b'\n').count();
                let mut held = [0; INGEST_SLOTS];
                slots[..kept].iter().for_each(|&slot| held[slot] += 1);
                prop_assert_eq!(resumed, Ok(held));
            } else if edit > 2 {
                let line = slots.len() + 1;
                let bad = format!("line {line} is not an alert of a slot below {INGEST_SLOTS}");
                let want = format!("cannot open alerts sink {}: {bad}", path.display());
                prop_assert_eq!(resumed, Err(want));
            }
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
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
        let batches = vec![
            (0, vec!["{\"replayed\":true}".to_string()], true),
            (
                1,
                vec!["{\"live\":1}".to_string(), "{\"live\":2}".to_string()],
                false,
            ),
        ];
        let sinks = Sinks::open(None, Some(&addr), false).expect("open");
        run(sinks, batches, (&emitted, &dropped));
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
        let batches = vec![(0, vec!["{\"x\":1}".to_string()], false)];
        let sinks = Sinks::open(None, Some(&addr), false).expect("open");
        run(sinks, batches, (&emitted, &dropped));
        assert_eq!(emitted.value(), 0);
        assert_eq!(dropped.value(), 1, "undeliverable batches drop, not wedge");
    }

    /// The TCP connector's queue is the one place a live batch waits: a
    /// `Sinks` whose connector never drains it takes the bound's batches
    /// and drops exactly the overflow's lines, and once the connector is
    /// gone every live batch's; every line offered is emitted, dropped or
    /// still queued.
    #[test]
    fn a_full_tcp_queue_drops_and_counts_exactly_the_overflow() {
        // Never connected: no connector runs.
        let (mut sinks, tcp) = Sinks::open(None, Some("127.0.0.1:9"), false).expect("open");
        let tcp = tcp.expect("a connector");
        let (emitted, dropped, _obs) = counters();
        let overflow = 5;
        let (mut offered, mut shed) = (0, 0);
        for n in 0..TCP_QUEUE_BATCHES + overflow {
            let lines: Vec<_> = (0..1 + n % 3).map(|i| alert(n % INGEST_SLOTS, i)).collect();
            offered += lines.len() as u64;
            if n >= TCP_QUEUE_BATCHES {
                shed += lines.len() as u64;
            }
            let msg = SinkMsg {
                slot: n % INGEST_SLOTS,
                lines,
                recovered: false,
            };
            sinks.deliver(msg, &emitted, &dropped);
        }
        assert!(shed > 0);
        assert_eq!((emitted.value(), dropped.value()), (0, shed));
        let queued: Vec<Vec<String>> = tcp.queue.try_iter().collect();
        assert_eq!(queued.len(), TCP_QUEUE_BATCHES);
        let queued = queued.iter().map(|batch| batch.len() as u64).sum::<u64>();
        assert_eq!(emitted.value() + dropped.value() + queued, offered);

        // The connector gone, a live batch is dropped, not held.
        drop(tcp);
        let msg = SinkMsg {
            slot: 0,
            lines: vec![alert(0, 0), alert(0, 1)],
            recovered: false,
        };
        sinks.deliver(msg, &emitted, &dropped);
        assert_eq!(dropped.value(), shed + 2);
    }
}
