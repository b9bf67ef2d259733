//! Records the toolchain and build profile for the benchmark's host
//! descriptor.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "rustc (unknown)".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=HOSTBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=HOSTBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
