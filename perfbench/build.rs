//! Bakes the host-fingerprint fields that only the build knows into the
//! binary: the compiler version and the commit of the checkout being measured.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // Read the commit from the files git keeps, without running git: a
    // checkout without `.git` reports "unknown" instead of finding some
    // enclosing repository's commit.
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit(&git).unwrap_or("unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
    let head = git.join("HEAD");
    if head.is_file() {
        println!("cargo:rerun-if-changed={}", head.display());
        if let Some(target) = symbolic_ref(&git) {
            let ref_file = git.join(target);
            if ref_file.is_file() {
                println!("cargo:rerun-if-changed={}", ref_file.display());
            }
        }
    }
}

fn symbolic_ref(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    head.trim().strip_prefix("ref: ").map(str::to_string)
}

fn commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(target) = symbolic_ref(git) else {
        return Some(head.trim().to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(&target)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == target).then(|| hash.to_string())
    })
}
