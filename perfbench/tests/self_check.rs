//! The output checks can go red: a run told to corrupt one expected value
//! must report a mismatch and exit nonzero, on every workload, while the
//! same run without the corruption passes.

use std::process::Command;

fn run(workload: &str, corrupt: bool) -> (Option<i32>, String) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("self-check-{workload}-{corrupt}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(&dir).args([
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "0.5",
        "--trace",
        "0",
        "--smoke",
    ]);
    if corrupt {
        cmd.arg("--corrupt-expected");
    }
    let out = cmd.output().expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code(), last)
}

fn check(workload: &str) {
    let (code, last) = run(workload, false);
    assert_eq!(code, Some(0), "{workload} clean run: {last}");
    assert!(last.starts_with("{\"correct\": true"), "{workload}: {last}");
    let (code, last) = run(workload, true);
    assert_eq!(code, Some(1), "{workload} corrupted run must fail: {last}");
    assert!(
        last.starts_with("{\"correct\": false"),
        "{workload}: {last}"
    );
}

#[test]
fn embedded_check_goes_red() {
    check("embedded_5050");
}

#[test]
fn wire_write_check_goes_red() {
    check("wire_write_repl");
}

#[test]
fn wire_read_check_goes_red() {
    check("wire_read_open");
}
