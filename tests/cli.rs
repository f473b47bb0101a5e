//! The `jsdetect-cli` binary's verdict lines, run as a user runs it.

use std::path::PathBuf;
use std::process::Command;

/// A file under the system temp directory, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str, contents: &str) -> TempFile {
        let path =
            std::env::temp_dir().join(format!("jsdetect-cli-{}-{}", std::process::id(), name));
        std::fs::write(&path, contents).unwrap();
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// `classify` marks a verdict from the lexical fallback with the failure
/// behind it, and prints a rejection as a rejection with its kind: a
/// script rejected for depth is valid JavaScript.
#[test]
fn classify_names_degraded_and_rejected_outcomes() {
    let root = env!("CARGO_MANIFEST_DIR");
    let clean = std::fs::read_to_string(format!("{root}/examples/corpus/events.js")).unwrap();
    let broken = TempFile::new("broken.js", &format!("{clean}\nvar = ;\n"));
    let deep =
        TempFile::new("deep.js", &format!("x = {}{};", "[".repeat(3_000), "]".repeat(3_000)));
    let out = Command::new(env!("CARGO_BIN_EXE_jsdetect-cli"))
        .args(["classify", "--model", &format!("{root}/results/model_n240_s42.json")])
        .arg(format!("{root}/examples/corpus/events.js"))
        .arg(&broken.0)
        .arg(&deep.0)
        .output()
        .expect("run jsdetect-cli classify");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{}", stdout);
    assert!(!lines[0].contains("degraded"), "the clean file is not degraded: {}", lines[0]);
    assert!(lines[1].ends_with(" [degraded: parse_error]"), "{}", lines[1]);
    let deep_prefix = format!("{}: rejected (ast_depth_exceeded: ", deep.0.display());
    assert!(lines[2].starts_with(&deep_prefix), "{}", lines[2]);
}
