//! Running the real `vtld` binary as a child process: building and
//! locating it, timing batch commands, and driving `vtld serve` over
//! its TCP wire protocol. CLI flags and wire strings are the repo's
//! stable surface, so nothing here depends on the library's internals.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use vt_label_dynamics::obs::json::{self, Value};

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Fixed at
/// 100 on every Linux the sandbox runs (`getconf CLK_TCK`).
const CLK_TCK: f64 = 100.0;

/// The repository this package sits in (`examples/benchmark` of it); a
/// checkout is built where it lies, so the compile-time path holds.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The built `vtld` binary plus a scratch directory inside the target
/// directory (so everything the benchmark writes stays in the checkout
/// and is ignored by git).
pub struct Vtld {
    pub exe: PathBuf,
    pub target_dir: PathBuf,
    pub work: PathBuf,
}

impl Vtld {
    /// Builds `vtld` from the repository root into the target directory
    /// this benchmark itself was built into, so the binary under test is
    /// always the one next to `current_exe()`.
    pub fn build() -> Result<Vtld, String> {
        let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let profile_dir = me.parent().ok_or("benchmark binary has no parent dir")?;
        let target_dir = profile_dir.parent().ok_or("no target dir")?;
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "--bin", "vtld"])
            .arg("--manifest-path")
            .arg(repo_root().join("Cargo.toml"))
            .arg("--target-dir")
            .arg(target_dir)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err("building vtld failed".into());
        }
        let exe = profile_dir.join("vtld");
        if !exe.is_file() {
            return Err(format!("{} missing after the build", exe.display()));
        }
        let work = target_dir
            .join("benchmark-work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Vtld {
            exe,
            target_dir: target_dir.to_path_buf(),
            work,
        })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

impl Drop for Vtld {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// `VmHWM` of a live process in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds of a live process (all threads).
pub fn cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// One finished batch child.
pub struct BatchRun {
    pub wall_s: f64,
    pub ok: bool,
    pub stdout: Vec<u8>,
    pub rss_mb: f64,
}

impl Vtld {
    /// Runs one batch command to completion: wall-clock from spawn to
    /// exit, stdout captured through a file (no pipe to fill), and
    /// `VmHWM` polled every 5 ms while the main thread blocks in `wait`.
    pub fn run_batch(&self, args: &[String]) -> Result<BatchRun, String> {
        let out_path = self.path("batch.stdout");
        let out = std::fs::File::create(&out_path).map_err(|e| format!("stdout file: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(&self.exe)
            .args(args)
            .stdout(out)
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn vtld: {e}"))?;
        let pid = child.id();
        let done = AtomicBool::new(false);
        let (status, rss_mb) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut peak = 0.0f64;
                while !done.load(Ordering::SeqCst) {
                    if let Some(mb) = peak_rss_mb(pid) {
                        peak = peak.max(mb);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                peak
            });
            let status = child.wait();
            done.store(true, Ordering::SeqCst);
            (status, poller.join().unwrap_or(0.0))
        });
        let wall_s = started.elapsed().as_secs_f64();
        let status = status.map_err(|e| format!("wait vtld: {e}"))?;
        let stdout = std::fs::read(&out_path).map_err(|e| format!("read stdout: {e}"))?;
        Ok(BatchRun {
            wall_s,
            ok: status.success(),
            stdout,
            rss_mb,
        })
    }
}

/// One request/response connection to a daemon, checking every line it
/// reads the way `failed_ratio` defines failure.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    last_epoch: u64,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .and_then(|()| writer.set_read_timeout(Some(Duration::from_secs(30))))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            writer,
            reader,
            last_epoch: 0,
        })
    }

    pub fn send(&mut self, request: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))
    }

    /// Reads one raw response line (without the newline).
    pub fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => {
                line.truncate(line.trim_end().len());
                Ok(line)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Validates one response line: parseable, no `error` / `overloaded`
    /// / `evicted` member, and an epoch that never goes backwards on
    /// this connection.
    pub fn check(&mut self, line: &str) -> Result<Value, String> {
        let v = json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
        // `status` carries an `evicted` *counter*; the typed refusals
        // carry `true`.
        let refused = |key: &str| v.get(key).and_then(Value::as_bool) == Some(true);
        if v.get("error").is_some() || refused("overloaded") || refused("evicted") {
            return Err(format!("refused or failed: {line:.120}"));
        }
        let epoch = v
            .get("epoch")
            .and_then(Value::as_u64)
            .ok_or("response has no epoch")?;
        if epoch < self.last_epoch {
            return Err(format!("epoch went back {} -> {epoch}", self.last_epoch));
        }
        self.last_epoch = epoch;
        Ok(v)
    }

    /// One checked round trip.
    pub fn ask(&mut self, request: &str) -> Result<Value, String> {
        self.send(request)?;
        let line = self.read_line()?;
        self.check(&line)
    }
}

/// A running `vtld serve` child.
pub struct Daemon {
    child: Child,
    stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
    pub spawned: Instant,
}

impl Daemon {
    /// Spawns `vtld serve <args> --addr 127.0.0.1:0` and reads the bound
    /// address off its first stderr line.
    pub fn spawn(vtld: &Vtld, args: &[String]) -> Result<Daemon, String> {
        let spawned = Instant::now();
        let mut child = Command::new(&vtld.exe)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn vtld serve: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut line = String::new();
        let addr = match stderr.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .split_whitespace()
                .find_map(|word| word.parse::<SocketAddr>().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("vtld serve did not start: {}", line.trim_end()));
        };
        Ok(Daemon {
            child,
            stderr,
            addr,
            spawned,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` on `conn` and waits for a clean exit; returns
    /// whether the daemon exited with status 0 within 30 s.
    pub fn shutdown(mut self, conn: &mut Conn) -> bool {
        let acked = conn.ask("{\"cmd\":\"shutdown\"}").is_ok();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    // Drain what the daemon said on its way out.
                    let mut rest = String::new();
                    let _ = std::io::Read::read_to_string(&mut self.stderr, &mut rest);
                    return acked && status.success();
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                _ => return false, // Drop kills it.
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
