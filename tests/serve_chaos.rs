//! Chaos tests for the hardened `vtld serve` daemon.
//!
//! The contract under test (ISSUE 6 / DESIGN.md §2.8):
//!
//! * **Kill-recover bit-identity** — a daemon SIGKILLed mid-feed (with
//!   at least ten full segments sealed and more still to come, asserted
//!   from the files) and restarted with `--recover` over the same
//!   `--data-dir` must finish with a study fingerprint bit-identical to
//!   a never-killed run's, at every shard × worker combination.
//! * **Shard-count invariance** — the published fingerprint is
//!   identical at shards 1, 2 and 4 (the merger folds the fixed hash
//!   slots in canonical order, so shard parallelism can never show).
//! * **Quarantine self-healing** — a corrupted segment file quarantines
//!   (along with everything orphaned behind it) and its samples are
//!   simply re-ingested: same fingerprint, `quarantined_segments`
//!   counted, damaged bytes preserved under `quarantine/`.
//! * **Load shedding** — a connection flood gets typed `overloaded`
//!   responses beyond the client cap; epochs stay monotone, nothing
//!   panics, and no accepted sample is lost.
//! * **A stop is a crash that loses nothing** — a daemon told
//!   `{"cmd":"shutdown"}` mid-feed exits 0 having sealed only full
//!   segments, and `--recover` over its data dir publishes the
//!   never-stopped run's fingerprint, bit for bit.
//! * **A failed recovery is an error** — `--recover` over a data dir
//!   holding another feed's seal exits non-zero with the replay's error.
//!
//! The reference fingerprints (same feed, in-memory, never killed) are
//! computed once per test process and shared: one for the short chaos
//! feed, one for the long feed the kills and the stop run on.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use vt_label_dynamics::obs::json;
use vt_label_dynamics::prelude::*;

/// One feed shared by every scenario: the fingerprints must agree
/// across all of them.
const SAMPLES: u64 = 2_400;
const SEED: u64 = 0x00C0_FFEE;
const SEGMENT_REPORTS: u64 = 400;

/// The chaos config for this feed at a given shard/worker count.
fn chaos_config(shards: usize, workers: usize) -> ServeConfig {
    let mut config = ServeConfig::new(SAMPLES, SEED);
    config.segment_reports = SEGMENT_REPORTS;
    config.workers = workers;
    config.shards = shards;
    config
}

/// Polls a live server until `ingest_done`, then returns the
/// `(fingerprint, rho_fnv)` pair and the final status document.
/// One request over a fresh connection; `None` when the connection was
/// refused or shed (the admission controller answers unprompted with
/// `overloaded:true` and closes, so a reused stream would break on the
/// next write — right after a flood the probe itself can be shed while
/// the server's connection accounting catches up with client closes).
fn try_ask(addr: SocketAddr, cmd: &str) -> Option<json::Value> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    stream
        .write_all(format!("{{\"cmd\":\"{cmd}\"}}\n").as_bytes())
        .ok()?;
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let v = json::parse(line.trim_end()).ok()?;
    if v.get("overloaded").and_then(|o| o.as_bool()) == Some(true) {
        return None;
    }
    Some(v)
}

fn await_fingerprint(addr: SocketAddr) -> ((String, String), json::Value) {
    let deadline = Instant::now() + Duration::from_secs(300);
    let status = loop {
        if let Some(v) = try_ask(addr, "status") {
            if v.get("ingest_done").and_then(|d| d.as_bool()) == Some(true) {
                break v;
            }
        }
        assert!(Instant::now() < deadline, "ingestion never finished");
        std::thread::sleep(Duration::from_millis(25));
    };
    let fp = loop {
        if let Some(v) = try_ask(addr, "fingerprint") {
            break v;
        }
        assert!(Instant::now() < deadline, "fingerprint never served");
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(
        fp.get("ingest_done").and_then(|d| d.as_bool()),
        Some(true),
        "{fp:?}"
    );
    let pair = (
        fp.get("fingerprint")
            .and_then(|f| f.as_str())
            .expect("fingerprint member")
            .to_string(),
        fp.get("rho_fnv")
            .and_then(|f| f.as_str())
            .expect("rho_fnv member")
            .to_string(),
    );
    (pair, status)
}

/// Runs one in-process server to completion and returns its fingerprint
/// pair and final status.
fn run_to_completion(config: ServeConfig) -> ((String, String), json::Value) {
    let server = Server::start(config).expect("start server");
    let out = await_fingerprint(server.addr());
    server.shutdown();
    server.wait();
    out
}

/// The never-killed, in-memory reference fingerprint for this feed,
/// computed once per test process.
fn reference_fingerprint() -> &'static (String, String) {
    static REFERENCE: OnceLock<(String, String)> = OnceLock::new();
    REFERENCE.get_or_init(|| run_to_completion(chaos_config(1, 1)).0)
}

/// The feed a kill or a stop lands in: long enough (20 ingest chunks,
/// ~70 seals) that ten full segments are sealed well before the feed's
/// end. The chaos feed cannot show a mid-feed crash: 8 of its 9 seals
/// are the feed end's tails.
const LONG_SAMPLES: u64 = 20_000;

/// Full segments on disk before a kill or a stop is sent.
const MID_FEED_SEALS: usize = 10;

/// The chaos config for the long feed.
fn long_config(shards: usize, workers: usize) -> ServeConfig {
    let mut config = chaos_config(shards, workers);
    config.samples = LONG_SAMPLES;
    config
}

/// The long feed's never-killed reference fingerprint.
fn long_reference() -> &'static (String, String) {
    static REFERENCE: OnceLock<(String, String)> = OnceLock::new();
    REFERENCE.get_or_init(|| run_to_completion(long_config(1, 1)).0)
}

/// A unique scratch directory for one scenario's segment log.
fn temp_data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vtld-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Counts durable (non-tmp, non-quarantined) segment files in a data
/// dir.
fn segment_files(dir: &Path) -> usize {
    match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file() && e.file_name().to_string_lossy().ends_with(".vtseg"))
            .count(),
        Err(_) => 0,
    }
}

/// Spawns the real `vtld serve` on the long feed with a durable
/// segment log in `data_dir`, plus `extra` arguments.
fn spawn_long_feed(
    data_dir: &Path,
    shards: usize,
    workers: usize,
    extra: &[&str],
    stderr: Stdio,
) -> Child {
    Command::new(env!("CARGO_BIN_EXE_vtld"))
        .args([
            "serve",
            "--samples",
            &LONG_SAMPLES.to_string(),
            "--seed",
            &format!("{SEED:#x}"),
            "--segment-reports",
            &SEGMENT_REPORTS.to_string(),
            "--workers",
            &workers.to_string(),
            "--shards",
            &shards.to_string(),
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().expect("utf-8 temp path"),
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .expect("spawn vtld serve")
}

/// Waits until `data_dir` holds [`MID_FEED_SEALS`] full segments and
/// `ready()` holds, failing if the daemon exits first.
fn await_mid_feed(child: &mut Child, data_dir: &Path, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while segment_files(data_dir) < MID_FEED_SEALS || !ready() {
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("vtld serve exited early with {status}");
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!(
                "fewer than {MID_FEED_SEALS} segments appeared in {}",
                data_dir.display()
            );
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// SIGKILLs the daemon once it is mid-feed — no grace, no drain:
/// whatever the log holds is all that survives — and returns the
/// segment files it left.
fn kill_mid_feed(mut child: Child, data_dir: &Path, ready: impl Fn() -> bool) -> usize {
    await_mid_feed(&mut child, data_dir, ready);
    child.kill().expect("SIGKILL");
    child.wait().expect("reap child");
    segment_files(data_dir)
}

/// Asserts from the files that a crash or stop which left `cut`
/// segment files landed mid-feed: at least [`MID_FEED_SEALS`] sealed,
/// and fewer than the `complete` log the recovered run ends with.
fn assert_landed_mid_feed(cut: usize, complete: usize) {
    assert!(
        (MID_FEED_SEALS..complete).contains(&cut),
        "the cut must land mid-feed: {cut} of {complete} seals"
    );
}

/// The full kill-recover scenario: spawn the real `vtld` binary on the
/// long feed with a durable segment log, SIGKILL it mid-feed, then
/// recover in-process over the same directory and demand the reference
/// fingerprint, bit for bit.
fn kill_mid_ingest_then_recover(tag: &str, shards: usize, workers: usize) {
    let data_dir = temp_data_dir(tag);
    let child = spawn_long_feed(&data_dir, shards, workers, &[], Stdio::null());
    let killed = kill_mid_feed(child, &data_dir, || true);

    // A dirty data dir must refuse to start without recovery enabled —
    // silently interleaving two runs' streams is the one unforgivable
    // outcome.
    let mut config = long_config(shards, workers);
    config.data_dir = Some(data_dir.clone());
    let err = Server::start(config.clone()).expect_err("dirty dir must refuse without recover");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");

    // Recover: replay the clean prefix, resume ingest past it, finish.
    config.recover = true;
    let (fingerprint, status) = run_to_completion(config);
    assert_landed_mid_feed(killed, segment_files(&data_dir));
    assert_eq!(
        &fingerprint,
        long_reference(),
        "recovered run (shards={shards}, workers={workers}) must be \
         bit-identical to the never-killed run"
    );
    assert_eq!(
        status.get("recovered_segments").and_then(|r| r.as_u64()),
        Some(killed as u64),
        "every segment the kill left is replayed: {status:?}"
    );
    assert_eq!(
        status.get("samples").and_then(|s| s.as_u64()),
        Some(LONG_SAMPLES),
        "every sample must be folded exactly once after recovery"
    );

    std::fs::remove_dir_all(&data_dir).expect("cleanup");
}

#[test]
fn kill_recover_bit_identical_shards1_workers1() {
    kill_mid_ingest_then_recover("s1w1", 1, 1);
}

/// SIGKILL with a JSONL alert sink attached: the recovered run replays
/// the WAL (regenerating the same alerts under the same keys) and must
/// end with an alert file that is duplicate-free and set-equal to a
/// never-killed run's — exactly-once delivery across the crash
/// (DESIGN.md §2.8). Killed twice, both mid-feed: once as it stands,
/// before this feed's late alerts are out, so the replay must not
/// duplicate what was delivered; and once the file holds a delivery,
/// with the kill made to fall inside its last line, so the replay must
/// dedup against the whole lines and deliver the torn one again, whole.
#[test]
fn kill_recover_delivers_each_alert_exactly_once() {
    let read_lines = |p: &PathBuf| -> Vec<String> {
        std::fs::read_to_string(p)
            .unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
            .lines()
            .map(str::to_string)
            .collect()
    };
    // A clean, never-killed run over the same feed defines the exact
    // alert set that must have been delivered.
    let clean_dir = temp_data_dir("alerts-clean");
    std::fs::create_dir_all(&clean_dir).expect("mkdir");
    let clean_path = clean_dir.join("alerts.jsonl");
    let mut clean = long_config(2, 2);
    clean.alerts_out = Some(clean_path.clone());
    let (fingerprint, _) = run_to_completion(clean);
    assert_eq!(&fingerprint, long_reference());
    let mut expect = read_lines(&clean_path);
    assert!(!expect.is_empty(), "this feed must fire alerts");
    expect.sort();
    std::fs::remove_dir_all(&clean_dir).expect("cleanup");

    for after_a_delivery in [false, true] {
        let data_dir = temp_data_dir("alerts");
        std::fs::create_dir_all(&data_dir).expect("mkdir");
        let alerts_path = data_dir.join("alerts.jsonl");

        let sink = [
            "--alerts-out",
            alerts_path.to_str().expect("utf-8 temp path"),
        ];
        let child = spawn_long_feed(&data_dir, 2, 2, &sink, Stdio::null());
        let delivered = || std::fs::metadata(&alerts_path).map_or(0, |m| m.len());
        let killed = kill_mid_feed(child, &data_dir, || !after_a_delivery || delivered() > 0);
        if after_a_delivery {
            // A batch is several `write`s, and a SIGKILL between two of
            // them leaves exactly this: the bytes so far, less a few.
            std::fs::OpenOptions::new()
                .write(true)
                .open(&alerts_path)
                .and_then(|file| file.set_len(delivered().saturating_sub(3)))
                .expect("tear the last line");
        }

        // Recover in-process over the same WAL *and* the same alert file.
        let mut config = long_config(2, 2);
        config.data_dir = Some(data_dir.clone());
        config.recover = true;
        config.alerts_out = Some(alerts_path.clone());
        let (fingerprint, _) = run_to_completion(config);
        assert_landed_mid_feed(killed, segment_files(&data_dir));
        assert_eq!(&fingerprint, long_reference());

        let survived = read_lines(&alerts_path);
        let mut deduped = survived.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(
            deduped.len(),
            survived.len(),
            "the recovery replay appended a duplicate alert"
        );
        assert_eq!(
            deduped, expect,
            "crash + recovery must deliver exactly the clean run's alerts \
             (killed after a delivery: {after_a_delivery})"
        );

        std::fs::remove_dir_all(&data_dir).expect("cleanup");
    }
}

/// Spawn the real `vtld serve --data-dir` on the long feed, send
/// `{"cmd":"shutdown"}` over the wire once it is mid-feed, and demand a
/// clean exit with the feed unfinished; then recover in-process over the
/// same directory and demand the never-stopped run's fingerprint, every
/// stopped seal replayed and every sample folded once. A stop seals no
/// unfilled segment, so the stop lands where a kill would.
#[test]
fn graceful_stop_recovers_bit_identical() {
    let data_dir = temp_data_dir("stop");
    let mut child = spawn_long_feed(&data_dir, 1, 1, &[], Stdio::piped());
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("the listening line");
    let addr: SocketAddr = (banner.split("listening on ").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));

    await_mid_feed(&mut child, &data_dir, || true);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"{\"cmd\":\"shutdown\"}\n")
        .expect("send shutdown");
    let mut ack = String::new();
    BufReader::new(stream)
        .read_line(&mut ack)
        .expect("the shutdown ack");
    assert!(ack.contains("\"shutting_down\":true"), "{ack}");
    let exit = child.wait().expect("reap child");
    assert!(exit.success(), "a graceful stop exits 0, not {exit}");

    let stopped = segment_files(&data_dir);
    let litter = std::fs::read_dir(&data_dir)
        .expect("data dir")
        .filter(|entry| {
            (entry.as_ref()).is_ok_and(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        });
    assert_eq!(litter.count(), 0, "a stop leaves no *.tmp");

    let mut config = long_config(1, 1);
    config.data_dir = Some(data_dir.clone());
    config.recover = true;
    let (fingerprint, status) = run_to_completion(config);
    assert_landed_mid_feed(stopped, segment_files(&data_dir));
    assert_eq!(
        &fingerprint,
        long_reference(),
        "a stopped and recovered run must be bit-identical to the never-stopped run"
    );
    let member = |name: &str| status.get(name).and_then(|v| v.as_u64());
    assert_eq!(
        member("recovered_segments"),
        Some(stopped as u64),
        "{status:?}"
    );
    assert_eq!(member("quarantined_segments"), Some(0), "{status:?}");
    assert_eq!(
        member("samples"),
        Some(LONG_SAMPLES),
        "every sample must be folded exactly once after recovery"
    );

    std::fs::remove_dir_all(&data_dir).expect("cleanup");
}

/// A recovery that meets another feed's seal ends the daemon, and the
/// binary says so: the replay's typed error on stderr and a non-zero
/// exit, where a stop (above) exits 0.
#[test]
fn a_failed_recovery_exits_non_zero() {
    let root = temp_data_dir("foreign");
    let sealed_by = |seed: u64| {
        let mut config = chaos_config(1, 1);
        config.seed = seed;
        let dir = root.join(format!("{seed:#x}"));
        config.data_dir = Some(dir.clone());
        run_to_completion(config);
        dir
    };
    let (ours, theirs) = (sealed_by(SEED), sealed_by(SEED + 1));
    let mut names: Vec<_> = (std::fs::read_dir(&theirs).expect("their dir"))
        .map(|entry| entry.expect("entry").file_name())
        .filter(|name| name.to_string_lossy().ends_with(".vtseg") && ours.join(name).is_file())
        .collect();
    names.sort();
    let foreign = names.first().expect("a seal both feeds wrote");
    std::fs::copy(theirs.join(foreign), ours.join(foreign)).expect("a foreign seal");

    let mut child = Command::new(env!("CARGO_BIN_EXE_vtld"))
        .args([
            "serve",
            "--samples",
            &SAMPLES.to_string(),
            "--seed",
            &format!("{SEED:#x}"),
            "--segment-reports",
            &SEGMENT_REPORTS.to_string(),
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            ours.to_str().expect("utf-8 temp path"),
            "--recover",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn vtld serve");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("try_wait").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("a failed recovery left the daemon up");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("reap child");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit {}: {stderr}", out.status);
    assert!(
        stderr.contains("vtld: serve failed: recovery replay failed: slot "),
        "{stderr}"
    );
    assert!(!stderr.contains("shut down"), "{stderr}");
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn kill_recover_bit_identical_shards2_workers2() {
    kill_mid_ingest_then_recover("s2w2", 2, 2);
}

#[test]
fn kill_recover_bit_identical_shards4_workers8() {
    kill_mid_ingest_then_recover("s4w8", 4, 8);
}

#[test]
fn fingerprint_bit_identical_across_shard_and_worker_counts() {
    // The full shards 1/2/4 × workers 1/2/8 grid against the (1, 1)
    // reference: the merger adds each fold's delta in whatever order
    // the shard workers' sends arrive, and must still publish exactly
    // the same bits at every combination.
    for shards in [1usize, 2, 4] {
        for workers in [1usize, 2, 8] {
            if (shards, workers) == (1, 1) {
                continue; // the reference itself
            }
            let (fingerprint, _) = run_to_completion(chaos_config(shards, workers));
            assert_eq!(
                &fingerprint,
                reference_fingerprint(),
                "shards={shards}, workers={workers} must publish the same bits as shards=1"
            );
        }
    }
}

#[test]
fn corrupt_segment_quarantines_and_recovery_self_heals() {
    let data_dir = temp_data_dir("quarantine");

    // A clean durable run to completion seeds the log.
    let mut config = chaos_config(2, 2);
    config.data_dir = Some(data_dir.clone());
    let (fingerprint, _) = run_to_completion(config.clone());
    assert_eq!(&fingerprint, reference_fingerprint());

    // Corrupt some slot's seq-1 segment mid-payload: salvage will only
    // partially recover it, so replay must quarantine it *and* the same
    // slot's later segments (orphaned behind the gap).
    let victim = std::fs::read_dir(&data_dir)
        .expect("read data dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .map(|n| {
                    let n = n.to_string_lossy();
                    n.starts_with("seg-") && n.ends_with("-0000000001.vtseg")
                })
                .unwrap_or(false)
        })
        .expect("some slot sealed at least two segments");
    let mut bytes = std::fs::read(&victim).expect("read victim");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&victim, bytes).expect("rewrite victim");
    // Interrupted-persist leftovers must be ignored, not tripped over.
    std::fs::write(data_dir.join("seg-000-0000000099.vtseg.tmp"), b"junk").expect("tmp litter");

    // Recovery serves from the clean prefix and re-ingests the rest —
    // converging on the same bits, with the damage counted and kept.
    config.recover = true;
    let (fingerprint, status) = run_to_completion(config);
    assert_eq!(
        &fingerprint,
        reference_fingerprint(),
        "quarantine-and-reingest must converge on the reference bits"
    );
    assert!(
        status
            .get("quarantined_segments")
            .and_then(|q| q.as_u64())
            .expect("quarantined_segments member")
            >= 1,
        "{status:?}"
    );
    let quarantine = data_dir.join("quarantine");
    assert!(
        std::fs::read_dir(&quarantine)
            .expect("quarantine dir exists")
            .next()
            .is_some(),
        "damaged segments are preserved for inspection"
    );

    std::fs::remove_dir_all(&data_dir).expect("cleanup");
}

/// A segment whose partition-count word alone is damaged — every
/// marker, header, CRC and block behind it intact. Replay reads with
/// the strict reader, to which the declared count is not advisory: the
/// file is quarantined and its samples re-ingested, and the recovered
/// daemon converges on the reference bits.
#[test]
fn damaged_partition_count_recovers_the_reference_bits() {
    let data_dir = temp_data_dir("partition-count");
    let mut config = chaos_config(1, 2);
    config.data_dir = Some(data_dir.clone());
    let (fingerprint, _) = run_to_completion(config.clone());
    assert_eq!(&fingerprint, reference_fingerprint());

    // "VTSEG001", u64 seq, "VTSTORE2", then the u32 partition count.
    let victim = (0..8)
        .map(|slot| data_dir.join(format!("seg-{slot:03}-0000000001.vtseg")))
        .find(|p| p.is_file())
        .expect("some slot sealed at least two segments");
    let mut bytes = std::fs::read(&victim).expect("read victim");
    assert_eq!(bytes[24..28], 15u32.to_le_bytes());
    bytes[24] ^= 0x01;
    std::fs::write(&victim, bytes).expect("rewrite victim");

    config.recover = true;
    let (fingerprint, status) = run_to_completion(config);
    assert_eq!(&fingerprint, reference_fingerprint());
    assert!(
        status
            .get("quarantined_segments")
            .and_then(|q| q.as_u64())
            .expect("quarantined_segments member")
            >= 1,
        "{status:?}"
    );
    assert!(data_dir
        .join("quarantine")
        .join(victim.file_name().expect("victim name"))
        .is_file());
    std::fs::remove_dir_all(&data_dir).expect("cleanup");
}

#[test]
fn connection_flood_sheds_load_and_loses_nothing() {
    let mut config = chaos_config(2, 2);
    config.max_clients = 4;
    let server = Server::start(config).expect("start server");
    let addr = server.addr();

    // 24 clients vs a 4-connection cap, hammering while ingestion runs.
    let floods: Vec<_> = (0..24)
        .map(|_| {
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut shed = 0u64;
                let mut last_epoch = 0u64;
                for _ in 0..15 {
                    let Ok(mut stream) = TcpStream::connect(addr) else {
                        continue;
                    };
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut line = String::new();
                    let first = {
                        // An admitted connection answers our request; a
                        // shed one responds unprompted. Write first —
                        // the shed path never reads it.
                        if stream.write_all(b"{\"cmd\":\"status\"}\n").is_err() {
                            continue;
                        }
                        reader.read_line(&mut line)
                    };
                    if first.map(|n| n == 0).unwrap_or(true) {
                        continue;
                    }
                    let v = json::parse(line.trim_end())
                        .unwrap_or_else(|e| panic!("unparseable flood response: {e}: {line}"));
                    let epoch = v
                        .get("epoch")
                        .and_then(|e| e.as_u64())
                        .expect("every response carries the epoch");
                    assert!(epoch >= last_epoch, "epoch went backwards under flood");
                    last_epoch = epoch;
                    if v.get("overloaded").and_then(|o| o.as_bool()) == Some(true) {
                        assert!(v.get("error").is_some(), "{line}");
                        shed += 1;
                    } else {
                        assert!(v.get("samples").is_some(), "{line}");
                        served += 1;
                    }
                }
                (served, shed)
            })
        })
        .collect();

    let mut served = 0u64;
    let mut shed = 0u64;
    for f in floods {
        let (s, r) = f.join().expect("flood thread");
        served += s;
        shed += r;
    }
    assert!(shed > 0, "24 clients vs cap 4 must shed something");
    assert!(served > 0, "admitted clients must still be answered");

    // The flood must not have cost a single accepted sample.
    let (_, status) = await_fingerprint(addr);
    assert_eq!(
        status.get("samples").and_then(|s| s.as_u64()),
        Some(SAMPLES)
    );
    assert!(
        status.get("rejected").and_then(|r| r.as_u64()).is_some(),
        "the shed counter must be published: {status:?}"
    );
    server.shutdown();
    server.wait();
}
