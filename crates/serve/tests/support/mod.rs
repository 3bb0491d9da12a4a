//! Child-process helpers for the daemon tests of `tdc-serve` and
//! `tdc-router`; the router's test includes this file by path.
//!
//! A [`Daemon`] is drained over `POST /admin/shutdown` on drop and killed if
//! it is still up ten seconds later, and a [`TempDir`] is removed on drop,
//! so a failing assertion leaves no process and no directory behind.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use tdc_serve::http::http_request;

/// A fresh directory under the system temp dir, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("tdc-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    pub fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `bin` with the whitespace-separated `args` and the daemons' environment
/// fallbacks cleared, so the caller's shell cannot change what a test
/// passes as flags.
pub fn command(bin: &str, args: &str) -> Command {
    let mut command = Command::new(bin);
    for var in "SERVE_HTTP_ADDR SERVE_HTTP_MODELS SERVE_HTTP_SPILL_DIR ROUTER_ADDR ROUTER_POLICY"
        .split(' ')
    {
        command.env_remove(var);
    }
    command.args(args.split_whitespace()).stdin(Stdio::null());
    command
}

/// Wait up to ten seconds for `child` to exit; kill it if it has not.
fn wait(child: &mut Child) -> Option<ExitStatus> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(Some(status)) = child.try_wait() {
            return Some(status);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
    None
}

/// A running daemon. Its stdout stays open for its whole life, so the
/// lines it prints while draining never meet a closed pipe.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The address the daemon announced.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawn `command` and read its stdout up to the line `banner`
    /// followed by the bound address.
    pub fn start(mut command: Command, banner: &str) -> Daemon {
        let mut child = command.stdout(Stdio::piped()).spawn().unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        while stdout.read_line(&mut line).unwrap() > 0 {
            if let Some(rest) = line.trim().strip_prefix(banner) {
                let addr = rest.split(' ').next().unwrap().parse().unwrap();
                return Daemon {
                    child,
                    _stdout: stdout,
                    addr,
                };
            }
            line.clear();
        }
        wait(&mut child);
        panic!("the daemon exited before announcing {banner:?}");
    }

    /// Send one request and assert its status.
    pub fn request(&self, expect: u16, method: &str, path: &str, body: Option<&str>) -> String {
        let (status, reply) = http_request(&self.addr, method, path, body).unwrap();
        assert_eq!(status, expect, "{method} {path}: {reply}");
        reply
    }

    /// `POST /admin/shutdown`, then the exit code.
    pub fn shut_down(mut self) -> Option<i32> {
        self.request(200, "POST", "/admin/shutdown", None);
        wait(&mut self.child).and_then(|status| status.code())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = http_request(&self.addr, "POST", "/admin/shutdown", None);
            wait(&mut self.child);
        }
    }
}

/// Run `command` to its exit and assert a start-up error: exit code 2,
/// one stderr line starting with `prefix`, and no `banner` on stdout.
pub fn assert_start_up_error(case: &str, mut command: Command, prefix: &str, banner: &str) {
    let piped = command.stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = piped.spawn().unwrap();
    assert_eq!(wait(&mut child).and_then(|s| s.code()), Some(2), "{case}");
    let stdout = std::io::read_to_string(child.stdout.take().unwrap()).unwrap();
    let stderr = std::io::read_to_string(child.stderr.take().unwrap()).unwrap();
    assert!(!stdout.contains(banner), "{case} bound: {stdout}");
    assert_eq!(stderr.lines().count(), 1, "{case}: {stderr}");
    assert!(stderr.starts_with(prefix), "{case}: {stderr}");
}

/// A replica's `plan_cache.disk_hits` from its `GET /metrics`.
pub fn disk_hits(addr: &SocketAddr) -> f64 {
    let (status, body) = http_request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let metrics = serde_json::parse_value(&body).unwrap();
    let hits = metrics.get("plan_cache").and_then(|c| c.get("disk_hits"));
    hits.and_then(|h| h.as_f64()).unwrap()
}
