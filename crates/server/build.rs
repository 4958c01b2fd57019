//! Embeds the git revision into the build so trace headers and the
//! metrics page can stamp a build identifier: the short commit hash, with
//! `-dirty` appended when tracked files differ from it. Falls back to
//! "unknown" outside a git checkout (e.g. a source tarball) — the stamp is
//! diagnostic, never load-bearing.
//!
//! The stamp is taken when this script runs: on the first build, and again
//! whenever HEAD or the branch it names moves (a checkout or a commit). A
//! tree that turns dirty after that is not seen until the next restamp.

use std::path::Path;
use std::process::Command;

/// `git <args>`'s trimmed stdout, or `None` if git is absent or fails.
fn git(args: &[&str]) -> Option<String> {
    Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
}

fn main() {
    let stamp = match git(&["rev-parse", "--short=12", "HEAD"]).filter(|s| !s.is_empty()) {
        None => "unknown".to_string(),
        Some(hash) => {
            let status = git(&["status", "--porcelain", "--untracked-files=no"]);
            if status.is_some_and(|s| !s.is_empty()) {
                format!("{hash}-dirty")
            } else {
                hash
            }
        }
    };
    println!("cargo:rustc-env=RACOD_GIT_HASH={stamp}");
    // Restamp when HEAD moves, or the branch it names does. A branch whose
    // ref is packed has no file of its own; its commits land in
    // `packed-refs` until git writes the loose ref.
    let mut watched = vec!["HEAD".to_string()];
    if let Some(branch) = git(&["symbolic-ref", "-q", "HEAD"]) {
        watched.push(branch);
        watched.push("packed-refs".to_string());
    }
    for name in watched {
        // Only paths that exist: cargo reruns a script on every build while
        // a watched path is missing.
        if let Some(path) = git(&["rev-parse", "--git-path", &name]) {
            if Path::new(&path).exists() {
                println!("cargo:rerun-if-changed={path}");
            }
        }
    }
}
