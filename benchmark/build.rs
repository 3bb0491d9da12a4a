//! Records how this binary was built, for the host header of every result:
//! the rustc version and whether `-C target-cpu=native` was in effect (the
//! repo's `.cargo/config.toml` sets it; cargo finds that file by searching
//! upward from the directory it is run in).

use std::process::Command;

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let native = flags
        .split('\x1f')
        .any(|flag| flag.contains("target-cpu=native"));
    println!("cargo:rustc-env=TDCB_TARGET_CPU_NATIVE={native}");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=TDCB_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
