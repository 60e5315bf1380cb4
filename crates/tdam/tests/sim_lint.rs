//! Source lint: no real clock, real disk, or real sockets on simulated
//! paths.
//!
//! The deterministic simulation only works if every time, disk, and
//! network touch goes through the injectable abstractions ([`Clock`],
//! `Storage`, `Transport`). Real-world call sites are allowed only on
//! the explicitly marked production islands:
//!
//! - `// [real-time ok]`  — the wall arm of the clock abstraction
//! - `// [real-disk ok]`  — the OS storage backend / scratch dirs
//! - `// [real-net ok]`   — the TCP transport and front-end
//!
//! Anything else that calls `Instant::now`, sleeps a real thread, opens
//! a real file, or binds a real socket is a determinism leak this test
//! rejects. Code under `#[cfg(test)]` is exempt (tests may use real
//! scratch directories).

use std::fs;
use std::path::Path;

/// Forbidden substrings: direct wall-clock reads, real sleeps, real
/// sockets, and real filesystem access.
const FORBIDDEN: &[&str] = &[
    "Instant::now(",
    "SystemTime::now(",
    "thread::sleep(",
    "TcpStream::connect",
    "TcpListener::bind",
    "set_read_timeout",
    "set_write_timeout",
    "set_nodelay",
    "fs::read",
    "fs::write",
    "fs::File",
    "fs::rename",
    "fs::remove",
    "fs::create_dir",
    "OpenOptions::new(",
];

/// Island markers that bless a real-world call site.
const MARKERS: &[&str] = &["[real-time ok]", "[real-disk ok]", "[real-net ok]"];

fn scan_file(path: &Path, violations: &mut Vec<String>) {
    let src = fs::read_to_string(path).expect("source readable");
    let mut in_tests = false;
    let mut blessed_next = false;
    for (i, line) in src.lines().enumerate() {
        if line.contains("#[cfg(test)]") {
            // Repo convention: the test module is the tail of the file.
            in_tests = true;
        }
        if in_tests {
            continue;
        }
        if MARKERS.iter().any(|m| line.contains(m)) {
            // A trailing marker blesses its own line; a standalone
            // marker comment blesses the line after it (rustfmt moves
            // trailing comments off multi-line statements).
            blessed_next = line.trim_start().starts_with("//");
            continue;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue; // prose may name the patterns it bans
        }
        if std::mem::take(&mut blessed_next) {
            continue;
        }
        for pat in FORBIDDEN {
            if line.contains(pat) {
                violations.push(format!(
                    "{}:{}: unmarked `{}`: {}",
                    path.display(),
                    i + 1,
                    pat,
                    line.trim()
                ));
            }
        }
    }
}

/// Every `src/` file of this crate must be free of unmarked real-time /
/// real-disk / real-net call sites.
#[test]
fn no_unmarked_real_world_call_sites() {
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for entry in fs::read_dir(&src_dir).expect("src dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            scan_file(&path, &mut violations);
            scanned += 1;
        }
    }
    assert!(scanned > 10, "scanned only {scanned} files — wrong dir?");
    assert!(
        violations.is_empty(),
        "determinism leaks (route through Clock/Storage/Transport or mark the island):\n{}",
        violations.join("\n")
    );
}

/// The markers themselves must stay confined to the known islands — a
/// marker sprayed across new files silently widens the exemption.
#[test]
fn real_world_islands_stay_small() {
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let allowed: &[&str] = &["clock.rs", "store.rs", "serve.rs"];
    for entry in fs::read_dir(&src_dir).expect("src dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        if allowed.contains(&name.as_str()) {
            continue;
        }
        let src = fs::read_to_string(&path).expect("source readable");
        for m in MARKERS {
            assert!(
                !src.contains(m),
                "{name} uses island marker {m} but is not a known island file"
            );
        }
    }
}
