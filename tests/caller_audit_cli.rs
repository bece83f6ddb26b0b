//! Drives `scripts/caller_audit.sh --check` the way `scripts/verify.sh`
//! does, on a temp tree with one crate: a `pub fn` with a caller and a
//! `pub fn` whose one use sits in a `#[cfg(test)]` module. The exit
//! code is the contract verify relies on.

use std::path::{Path, PathBuf};
use std::process::Command;

const LIB: &str = "\
/// Called from `run` below.
pub fn called() -> u32 {
    1
}

/// Only the unit tests use this.
pub fn orphan() -> u32 {
    2
}

fn run() -> u32 {
    called()
}

#[cfg(test)]
mod tests {
    #[test]
    fn orphan_is_two() {
        assert_eq!(super::orphan(), 2);
    }
}
";

/// A fresh tree holding the script and the crate.
fn tree() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("holo_caller_audit_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("scripts")).unwrap();
    std::fs::create_dir_all(dir.join("crates/holo-demo/src")).unwrap();
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/caller_audit.sh");
    std::fs::copy(script, dir.join("scripts/caller_audit.sh")).unwrap();
    std::fs::write(dir.join("crates/holo-demo/src/lib.rs"), LIB).unwrap();
    dir
}

/// `caller_audit.sh --check` in `dir`: exit code and the failure lines.
fn check(dir: &Path) -> (i32, Vec<String>) {
    let out = Command::new("bash").arg(dir.join("scripts/caller_audit.sh")).arg("--check").output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    let failures = stderr.lines().filter(|l| l.contains("no non-test caller")).map(str::to_string).collect();
    (out.status.code().unwrap(), failures)
}

#[test]
fn an_item_only_a_test_module_uses_fails_the_check_until_it_has_a_caller() {
    let dir = tree();
    let (code, failures) = check(&dir);
    assert_eq!(code, 1, "{failures:?}");
    assert_eq!(failures, ["caller_audit: no non-test caller: holo_demo::orphan  (crates/holo-demo/src/lib.rs:7)"]);

    std::fs::create_dir_all(dir.join("examples")).unwrap();
    std::fs::write(dir.join("examples/demo.rs"), "fn main() {\n    println!(\"{}\", holo_demo::orphan());\n}\n").unwrap();
    let (code, failures) = check(&dir);
    assert_eq!((code, failures), (0, vec![]));
    std::fs::remove_dir_all(dir).unwrap();
}
