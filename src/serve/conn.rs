//! Layer 5 — sockets ↔ request lines: admission, deadlines, dispatch.
//!
//! The accept path is capped: beyond `max_clients` concurrent
//! connections, new clients get a typed `overloaded` response and are
//! closed (`serve/rejected`). Every accepted connection gets a handler
//! thread, read and write deadlines and a request-line length limit;
//! slow or hostile clients are evicted with a typed response
//! (`serve/evicted`), never serviced forever. Each request line is
//! parsed into the typed `wire::Request` and answered from the snapshot
//! current at that moment, pinned once (`status` and `metrics` read the
//! live registry beside it); a `subscribe` switches the connection to a
//! push stream that parks on the publish seam between epochs. Past the
//! seam's pointer clone a handler takes no lock.
//!
//! This is the one place a readiness-based reactor could replace
//! thread-per-connection: nothing below it knows what a socket is.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::counters::ServeCounters;
use super::publish::Seam;
use super::render::{
    render_alerts, render_engine, render_engines, render_fingerprint, render_flip_leaders,
    render_metrics, render_recommend, render_results, render_sample, render_stabilized,
    render_status,
};
use super::wire::{self, quoted, Request};
use super::ServeConfig;
use crate::obs::Obs;

/// Per-connection write deadline: a client that will not drain its
/// responses is evicted.
const WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// What the accept loop and every connection handler share. Owned, not
/// borrowed: handler threads are detached and outlive the accept loop.
pub(super) struct ConnCtx {
    pub(super) config: ServeConfig,
    pub(super) seam: Arc<Seam>,
    pub(super) counters: ServeCounters,
    /// The daemon's registry itself, shared: `metrics` renders it live.
    pub(super) obs: Arc<Obs>,
    pub(super) active_clients: AtomicU64,
}

/// The accept loop: admission-controlled, one handler thread per
/// admitted connection, until shutdown.
pub(super) fn accept_loop(listener: &TcpListener, ctx: &Arc<ConnCtx>) {
    for stream in listener.incoming() {
        if ctx.seam.shutdown_requested() {
            break;
        }
        let Ok(stream) = stream else { continue };
        if ctx.active_clients.load(Ordering::SeqCst) >= ctx.config.max_clients as u64 {
            shed_connection(stream, ctx);
            continue;
        }
        ctx.active_clients.fetch_add(1, Ordering::SeqCst);
        let ctx = Arc::clone(ctx);
        std::thread::spawn(move || {
            // Decrement even if the handler panics, so one bad
            // connection can never wedge the admission gate.
            struct Guard(Arc<ConnCtx>);
            impl Drop for Guard {
                fn drop(&mut self) {
                    self.0.active_clients.fetch_sub(1, Ordering::SeqCst);
                }
            }
            let guard = Guard(Arc::clone(&ctx));
            handle_connection(stream, &ctx);
            drop(guard);
        });
    }
}

/// Sheds one connection at the admission gate with a typed `overloaded`
/// response (best effort — a client that will not even read it is
/// simply dropped).
fn shed_connection(mut stream: TcpStream, ctx: &ConnCtx) {
    ctx.counters.rejected.incr();
    let epoch = ctx.seam.current().epoch;
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.write_all(
        format!(
            "{{\"epoch\":{epoch},\"overloaded\":true,\
             \"error\":\"overloaded: connection limit reached, retry later\"}}\n"
        )
        .as_bytes(),
    );
}

/// Why a bounded line read stopped without producing a line.
#[derive(Debug, PartialEq, Eq)]
enum LineError {
    /// The line exceeded the configured byte limit.
    TooLong,
    /// The read deadline expired with no complete line.
    Timeout,
    /// Any other I/O failure (connection reset and friends).
    Io,
}

/// Reads one `\n`-terminated line of at most `max` bytes (exclusive of
/// the terminator). `Ok(None)` is EOF. EOF with a partial line buffered
/// yields that line — a client that shuts down its write half right
/// after its final unterminated request still gets an answer (the next
/// call sees a clean EOF). The bound is exact: the length check runs
/// *before* bytes are buffered, so a line of `max` bytes passes and
/// `max + 1` fails, regardless of how the reader chunks its input.
fn read_bounded_line(reader: &mut impl BufRead, max: usize) -> Result<Option<String>, LineError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (consumed, complete) = {
            let available = match reader.fill_buf() {
                Ok([]) => {
                    if buf.is_empty() {
                        return Ok(None);
                    }
                    // EOF terminates the final line.
                    return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
                }
                Ok(bytes) => bytes,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(LineError::Timeout)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(LineError::Io),
            };
            let take = match available.iter().position(|&b| b == b'\n') {
                Some(pos) => pos,
                None => available.len(),
            };
            if buf.len() + take > max {
                return Err(LineError::TooLong);
            }
            buf.extend_from_slice(&available[..take]);
            let complete = take < available.len();
            (take + usize::from(complete), complete)
        };
        reader.consume(consumed);
        if complete {
            // Non-UTF-8 input degrades to a replacement-character string
            // that fails JSON parsing and earns a typed error response.
            return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
        }
    }
}

/// One client connection: newline-delimited JSON requests under read
/// and write deadlines, each answered from the snapshot current at that
/// moment; deadline or line-limit violations evict with a typed
/// response.
fn handle_connection(stream: TcpStream, ctx: &ConnCtx) {
    if stream
        .set_read_timeout(Some(ctx.config.read_timeout))
        .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)))
        .is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    loop {
        if ctx.seam.shutdown_requested() {
            break;
        }
        match read_bounded_line(&mut reader, ctx.config.max_line_bytes) {
            Ok(None) => break,
            Ok(Some(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                let action = respond(&line, ctx);
                let response = match &action {
                    Action::Reply(r) | Action::ReplyThenShutdown(r) => r,
                    Action::Subscribe { ack, .. } => ack,
                };
                if writer
                    .write_all(format!("{response}\n").as_bytes())
                    .is_err()
                {
                    ctx.counters.evicted.incr();
                    break;
                }
                match action {
                    Action::Reply(_) => {}
                    Action::ReplyThenShutdown(_) => {
                        ctx.seam.request_shutdown();
                        // Wake the accept loop so it observes the flag.
                        if let Ok(addr) = writer.local_addr() {
                            let _ = TcpStream::connect(SocketAddr::new(addr.ip(), addr.port()));
                        }
                        break;
                    }
                    Action::Subscribe { epoch, .. } => {
                        subscribe_loop(&mut writer, &ctx.seam, epoch);
                        break;
                    }
                }
            }
            Err(LineError::TooLong) => {
                evict(&mut writer, ctx, "request line exceeds the length limit");
                break;
            }
            Err(LineError::Timeout) => {
                evict(&mut writer, ctx, "idle past the read deadline");
                break;
            }
            Err(LineError::Io) => break,
        }
    }
}

/// Evicts one connection with a typed response (best effort) and counts
/// it.
fn evict(writer: &mut TcpStream, ctx: &ConnCtx, reason: &str) {
    ctx.counters.evicted.incr();
    let epoch = ctx.seam.current().epoch;
    let _ = writer.write_all(
        format!(
            "{{\"epoch\":{epoch},\"evicted\":true,\"error\":{}}}\n",
            quoted(&format!("connection evicted: {reason}"))
        )
        .as_bytes(),
    );
}

/// What the connection handler does with one parsed request.
enum Action {
    /// Write the response and keep reading requests.
    Reply(String),
    /// Write the response, then begin daemon shutdown and close.
    ReplyThenShutdown(String),
    /// Write the ack, then switch the connection to alert push mode
    /// ([`subscribe_loop`]) until shutdown or the client hangs up.
    /// `epoch` is the push cursor — the ack's epoch, so no alert
    /// published between the ack render and the loop start is skipped.
    Subscribe {
        /// The rendered `subscribed` acknowledgement.
        ack: String,
        /// Epoch the ack was rendered at.
        epoch: u64,
    },
}

/// Routes one request line through the typed [`Request`] API to its
/// response: every verb answers from the one snapshot pinned here —
/// the aggregate documents as the first request for each rendered it
/// into that snapshot, the per-hash ones rendered per request — and
/// `status` and `metrics` read the live registry beside it.
fn respond(line: &str, ctx: &ConnCtx) -> Action {
    let snap = ctx.seam.current();
    let req = match Request::parse_line(line) {
        Ok(req) => req,
        Err(e) => return Action::Reply(e.render(snap.epoch)),
    };
    Action::Reply(match req {
        Request::Status => render_status(&snap, &ctx.counters),
        Request::Results => render_results(&snap).to_owned(),
        Request::Engines => render_engines(&snap).to_owned(),
        Request::Metrics => render_metrics(&snap, &ctx.obs),
        Request::Fingerprint => render_fingerprint(&snap).to_owned(),
        Request::Alerts { since } => render_alerts(&snap, since),
        Request::Recommend => render_recommend(&snap).to_owned(),
        Request::Subscribe => {
            return Action::Subscribe {
                ack: wire::subscribe_ack(snap.epoch),
                epoch: snap.epoch,
            }
        }
        Request::Shutdown => return Action::ReplyThenShutdown(wire::shutdown_ack(snap.epoch)),
        Request::Sample { hash } => render_sample(&snap, hash),
        Request::Stabilized { hash, threshold } => render_stabilized(&snap, hash, threshold),
        Request::FlipLeaders { k } => render_flip_leaders(&snap, k),
        // Resolution happens against the snapshot's roster, not at
        // parse time (the parser cannot know the roster).
        Request::Engine { name } => match snap.engine_names.iter().position(|n| *n == name) {
            Some(engine) => render_engine(&snap, engine),
            None => format!(
                "{{\"epoch\":{},\"error\":{}}}",
                snap.epoch,
                quoted(&format!("unknown engine '{name}'"))
            ),
        },
    })
}

/// Push mode: after the `subscribe` ack, park on the publish seam and
/// stream every alert stamped after the epochs this connection has
/// already seen, one `{"epoch":E,"alert":{…}}` line each, until
/// shutdown or the client hangs up. Alerts published before the
/// subscription are not replayed — a client wanting history pulls
/// `{"cmd":"alerts","since":0}` first and dedups by the alert key.
fn subscribe_loop(writer: &mut TcpStream, seam: &Seam, mut seen_epoch: u64) {
    while let Some(snap) = seam.wait_past(seen_epoch) {
        for alert in snap.alerts.iter().filter(|a| a.published > seen_epoch) {
            let line = format!(
                "{{\"epoch\":{},\"alert\":{}}}\n",
                alert.published, alert.rendered
            );
            if writer.write_all(line.as_bytes()).is_err() {
                return;
            }
        }
        seen_epoch = snap.epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads every line of `input` through a reader that hands out at
    /// most `chunk` bytes per `fill_buf`.
    fn lines(input: &[u8], chunk: usize, max: usize) -> Vec<Result<Option<String>, LineError>> {
        let mut reader = BufReader::with_capacity(chunk, input);
        let mut out = Vec::new();
        loop {
            let line = read_bounded_line(&mut reader, max);
            let last = !matches!(line, Ok(Some(_)));
            out.push(line);
            if last {
                return out;
            }
        }
    }

    #[test]
    fn the_line_bound_is_exact_at_every_reader_chunk_size() {
        let max = 64;
        let fits = "x".repeat(max);
        let over = "x".repeat(max + 1);
        for chunk in [1usize, 7, 4_096] {
            assert_eq!(
                lines(format!("{fits}\n{fits}\n").as_bytes(), chunk, max),
                vec![Ok(Some(fits.clone())), Ok(Some(fits.clone())), Ok(None)],
                "chunk={chunk}: a line of exactly max bytes passes"
            );
            assert_eq!(
                lines(format!("{fits}\n{over}\n").as_bytes(), chunk, max),
                vec![Ok(Some(fits.clone())), Err(LineError::TooLong)],
                "chunk={chunk}: max + 1 bytes is too long"
            );
            assert_eq!(
                lines(over.as_bytes(), chunk, max),
                vec![Err(LineError::TooLong)],
                "chunk={chunk}: the bound holds without a terminator too"
            );
        }
    }

    #[test]
    fn eof_terminates_an_unterminated_final_line() {
        for chunk in [1usize, 7, 4_096] {
            assert_eq!(
                lines(b"{\"cmd\":\"status\"}\n{\"cmd\":\"results\"}", chunk, 64),
                vec![
                    Ok(Some("{\"cmd\":\"status\"}".to_string())),
                    Ok(Some("{\"cmd\":\"results\"}".to_string())),
                    Ok(None),
                ],
                "chunk={chunk}"
            );
        }
        assert_eq!(lines(b"", 7, 64), vec![Ok(None)]);
        // An empty line is a line, not EOF; the handler skips it.
        assert_eq!(lines(b"\n", 7, 64), vec![Ok(Some(String::new())), Ok(None)]);
    }

    #[test]
    fn non_utf8_input_degrades_to_a_line_the_parser_rejects() {
        let got = lines(b"{\"cmd\":\"st\xff\xfeatus\"}\n", 7, 64);
        let Some(Ok(Some(line))) = got.first() else {
            panic!("expected a line, got {got:?}");
        };
        assert!(line.contains('\u{fffd}'), "lossy decode marks the damage");
        let err = Request::parse_line(line).expect_err("not a known request");
        assert!(
            err.render(0).starts_with("{\"epoch\":0,\"error\":"),
            "typed error, got {}",
            err.render(0)
        );
    }
}
