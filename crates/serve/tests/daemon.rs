//! The `serve_http` daemon as a real process, driven with the flags a user
//! passes: two processes warming plans through one `--spill-dir`, graceful
//! `POST /admin/shutdown`, and start-up errors that exit 2 before anything
//! is bound.

mod support;

use std::net::TcpListener;

use support::{assert_start_up_error, command, disk_hits, Daemon, TempDir};
use tdc_serve::http::RegisterBody;
use tdc_serve::serving_descriptor;

const SERVE_HTTP: &str = env!("CARGO_BIN_EXE_serve_http");
const BANNER: &str = "tdc-serve HTTP front end on http://";

/// `serve_http --addr 127.0.0.1:0 --models 1 --spill-dir D`.
fn start(spill: &TempDir) -> Daemon {
    let mut daemon = command(SERVE_HTTP, "--addr 127.0.0.1:0 --models 1");
    daemon.args(["--spill-dir", spill.path()]);
    Daemon::start(daemon, BANNER)
}

/// A model `PUT` on the first daemon is planned and spilled; the same `PUT`
/// on the second warms from disk.
#[test]
fn two_daemons_share_a_spill_dir() {
    let spill = TempDir::new("serve-spill");
    let (first, second) = (start(&spill), start(&spill));
    let descriptor = serving_descriptor("daemon-hot", 10, 4, 6);
    let body = serde_json::to_string(&RegisterBody::for_descriptor(descriptor)).unwrap();
    first.request(200, "PUT", "/v1/models/hot", Some(&body));
    let before = disk_hits(&second.addr);
    second.request(200, "PUT", "/v1/models/hot", Some(&body));
    assert!(disk_hits(&second.addr) >= before + 1.0, "re-planned");
    assert_eq!(first.shut_down(), Some(0));
    assert_eq!(second.shut_down(), Some(0));
}

#[test]
fn start_up_errors_exit_2_with_one_line_and_nothing_bound() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let taken = listener.local_addr().unwrap().to_string();
    let models_0 = command(SERVE_HTTP, "--addr 127.0.0.1:0 --models 0");
    let mut models_abc = command(SERVE_HTTP, "--addr 127.0.0.1:0");
    models_abc.env("SERVE_HTTP_MODELS", "abc");
    let port_taken = command(SERVE_HTTP, &format!("--addr {taken} --models 1"));
    for (case, daemon) in [
        ("--models 0", models_0),
        ("SERVE_HTTP_MODELS=abc", models_abc),
        ("a taken port", port_taken),
    ] {
        assert_start_up_error(case, daemon, "serve_http: ", BANNER);
    }
}
