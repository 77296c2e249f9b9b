//! Chaos tests for the hardened `vtld serve` daemon.
//!
//! The contract under test (ISSUE 6 / DESIGN.md §2.8):
//!
//! * **Kill-recover bit-identity** — a daemon SIGKILLed mid-ingest and
//!   restarted with `--recover` over the same `--data-dir` must finish
//!   with a study fingerprint bit-identical to a never-killed run's, at
//!   every shard × worker combination.
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
//!
//! The reference fingerprint (same feed, in-memory, never killed) is
//! computed once per test process and shared.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
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

/// A unique scratch directory for one scenario's segment log.
fn temp_data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vtld-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Counts durable (non-tmp, non-quarantined) segment files in a data
/// dir.
fn segment_files(dir: &PathBuf) -> usize {
    match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file() && e.file_name().to_string_lossy().ends_with(".vtseg"))
            .count(),
        Err(_) => 0,
    }
}

/// The full kill-recover scenario: spawn the real `vtld` binary on this
/// feed with a durable segment log, SIGKILL it mid-ingest, then recover
/// in-process over the same directory and demand the reference
/// fingerprint, bit for bit.
fn kill_mid_ingest_then_recover(tag: &str, shards: usize, workers: usize) {
    let data_dir = temp_data_dir(tag);

    let mut child = Command::new(env!("CARGO_BIN_EXE_vtld"))
        .args([
            "serve",
            "--samples",
            &SAMPLES.to_string(),
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
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn vtld serve");

    // Wait until the write-ahead log holds a few durable segments —
    // proof the daemon is mid-ingest — then SIGKILL it. No grace, no
    // drain: whatever the log holds is all that survives.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if segment_files(&data_dir) >= 3 {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("vtld serve exited early with {status}");
        }
        assert!(
            Instant::now() < deadline,
            "no segments appeared in {}",
            data_dir.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap child");

    // A dirty data dir must refuse to start without recovery enabled —
    // silently interleaving two runs' streams is the one unforgivable
    // outcome.
    let mut config = chaos_config(shards, workers);
    config.data_dir = Some(data_dir.clone());
    let err = Server::start(config.clone()).expect_err("dirty dir must refuse without recover");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");

    // Recover: replay the clean prefix, resume ingest past it, finish.
    config.recover = true;
    let (fingerprint, status) = run_to_completion(config);
    assert_eq!(
        &fingerprint,
        reference_fingerprint(),
        "recovered run (shards={shards}, workers={workers}) must be \
         bit-identical to the never-killed run"
    );
    assert!(
        status
            .get("recovered_segments")
            .and_then(|r| r.as_u64())
            .expect("recovered_segments member")
            >= 3,
        "{status:?}"
    );
    assert_eq!(
        status.get("samples").and_then(|s| s.as_u64()),
        Some(SAMPLES),
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
/// (DESIGN.md §2.8). Killed twice: mid-ingest, before this feed's late
/// alerts are out, so the replay alone must not duplicate; and once
/// the file holds a delivery, with the kill made to fall inside its
/// last line, so the replay must dedup against the whole lines and
/// deliver the torn one again, whole.
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
    let mut clean = chaos_config(2, 2);
    clean.alerts_out = Some(clean_path.clone());
    let (fingerprint, _) = run_to_completion(clean);
    assert_eq!(&fingerprint, reference_fingerprint());
    let mut expect = read_lines(&clean_path);
    assert!(!expect.is_empty(), "this feed must fire alerts");
    expect.sort();
    std::fs::remove_dir_all(&clean_dir).expect("cleanup");

    for after_a_delivery in [false, true] {
        let data_dir = temp_data_dir("alerts");
        std::fs::create_dir_all(&data_dir).expect("mkdir");
        let alerts_path = data_dir.join("alerts.jsonl");

        let mut child = Command::new(env!("CARGO_BIN_EXE_vtld"))
            .args([
                "serve",
                "--samples",
                &SAMPLES.to_string(),
                "--seed",
                &format!("{SEED:#x}"),
                "--segment-reports",
                &SEGMENT_REPORTS.to_string(),
                "--shards",
                "2",
                "--workers",
                "2",
                "--addr",
                "127.0.0.1:0",
                "--data-dir",
                data_dir.to_str().expect("utf-8 temp path"),
                "--alerts-out",
                alerts_path.to_str().expect("utf-8 temp path"),
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn vtld serve");
        let delivered = || std::fs::metadata(&alerts_path).map_or(0, |m| m.len());
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if segment_files(&data_dir) >= 3 && (!after_a_delivery || delivered() > 0) {
                break;
            }
            if let Some(status) = child.try_wait().expect("try_wait") {
                panic!("vtld serve exited early with {status}");
            }
            assert!(Instant::now() < deadline, "no segments appeared");
            std::thread::sleep(Duration::from_millis(10));
        }
        child.kill().expect("SIGKILL");
        child.wait().expect("reap child");
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
        let mut config = chaos_config(2, 2);
        config.data_dir = Some(data_dir.clone());
        config.recover = true;
        config.alerts_out = Some(alerts_path.clone());
        let (fingerprint, _) = run_to_completion(config);
        assert_eq!(&fingerprint, reference_fingerprint());

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

/// The graceful-stop feed: long enough (20 ingest chunks, ~70 seals)
/// that a stop sent once three segments are on disk lands mid-feed. The
/// chaos feed cannot show it: 8 of its 9 seals are the feed end's tails,
/// and a stop seals none.
const STOP_SAMPLES: u64 = 20_000;

/// Spawn the real `vtld serve --data-dir`, send `{"cmd":"shutdown"}` over
/// the wire once three segments are durable, and demand a clean exit
/// with the feed unfinished; then recover in-process over the same
/// directory and demand the never-stopped run's fingerprint, every
/// stopped seal replayed and every sample folded once.
#[test]
fn graceful_stop_recovers_bit_identical() {
    let data_dir = temp_data_dir("stop");
    let mut config = chaos_config(1, 1);
    config.samples = STOP_SAMPLES;
    let (reference, _) = run_to_completion(config.clone());

    let mut child = Command::new(env!("CARGO_BIN_EXE_vtld"))
        .args([
            "serve",
            "--samples",
            &STOP_SAMPLES.to_string(),
            "--seed",
            &format!("{SEED:#x}"),
            "--segment-reports",
            &SEGMENT_REPORTS.to_string(),
            "--workers",
            "1",
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().expect("utf-8 temp path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn vtld serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("the listening line");
    let addr: SocketAddr = (banner.split("listening on ").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));

    let deadline = Instant::now() + Duration::from_secs(120);
    while segment_files(&data_dir) < 3 {
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("vtld serve exited early with {status}");
        }
        assert!(Instant::now() < deadline, "no segments appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
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

    config.data_dir = Some(data_dir.clone());
    config.recover = true;
    let (fingerprint, status) = run_to_completion(config);
    let complete = segment_files(&data_dir);
    assert!(
        (3..complete).contains(&stopped),
        "the stop must land mid-feed: {stopped} of {complete} seals"
    );
    assert_eq!(
        fingerprint, reference,
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
        Some(STOP_SAMPLES),
        "every sample must be folded exactly once after recovery"
    );

    std::fs::remove_dir_all(&data_dir).expect("cleanup");
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
