//! Drives the `spp-loadgen` binary end to end at tiny sizes, each run in
//! its own scratch directory: every mode writes its artifact,
//! `--inject-garbage` turns every mode red, usage errors exit 2 naming the
//! flag, and connections past the server's limit fail the run.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Small in-process pools for every run.
const TINY: &[&str] = &["--smoke", "--pool-mb", "16"];

/// Each mode: a name, its flags, its artifact, and a field that artifact
/// must carry. The pipeline run is throttled so its speedup floor (a
/// timing check CI gates separately) cannot make this test flaky.
const MODES: &[(&str, &[&str], &str, &str)] = &[
    (
        "roundtrip",
        &["--ops", "40"],
        "server_loadgen.json",
        r#""mode":"roundtrip""#,
    ),
    (
        "pipeline",
        &["--ops", "40", "--pipeline", "8", "--throttle-us", "1"],
        "server_loadgen.json",
        r#""mode":"pipeline""#,
    ),
    (
        "multi",
        &["--ops", "40", "--local-shards", "2"],
        "server_loadgen.json",
        r#""mode":"multi""#,
    ),
    (
        "sweep",
        &["--ops", "20", "--sweep-threads", "1,2"],
        "server_loadgen.json",
        r#""knee_conns""#,
    ),
    (
        "idle",
        &["--ops", "40", "--idle-conns", "20"],
        "server_loadgen_idle.json",
        r#""mode":"idle_scaling""#,
    ),
];

/// Run `spp-loadgen` with `TINY` plus `args` from a fresh directory named
/// after `case`; returns its output and that directory.
fn loadgen(case: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("spp-loadgen-cli-{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_spp-loadgen"))
        .args(TINY)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    (out, dir)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn every_mode_writes_its_artifact() {
    for &(name, flags, file, field) in MODES {
        let (out, dir) = loadgen(name, flags);
        assert!(out.status.success(), "{name}: {}", stderr(&out));
        let doc = std::fs::read_to_string(dir.join("results").join(file)).unwrap();
        assert!(doc.contains(field), "{name}: {file} lacks {field}: {doc}");
        if name == "sweep" {
            assert!(dir.join("results/contention_loadgen.txt").exists());
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn inject_garbage_fails_every_mode() {
    for &(name, flags, file, _) in MODES {
        let case = format!("{name}-garbage");
        let (out, dir) = loadgen(&case, &[flags, &["--inject-garbage"]].concat());
        assert_eq!(out.status.code(), Some(1), "{case}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("result validation failed"),
            "{case}: {}",
            stderr(&out)
        );
        assert!(
            !dir.join("results").join(file).exists(),
            "{case} wrote {file}"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn usage_errors_exit_2_naming_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        (&["--sweep-threads", "1,x,2"], "--sweep-threads"),
        (&["--sweep-threads", "1,0,2"], "--sweep-threads"),
        (&["--addrs", "127.0.0.1:1,bogus"], "--addrs"),
        (&["--addrs", "127.0.0.1:1,127.0.0.1:0"], "--addrs"),
        (&["--sweep-threads", "1,2", "--pipeline", "8"], "--pipeline"),
        (
            &["--idle-conns", "5", "--local-shards", "2"],
            "--local-shards",
        ),
        (
            &["--pipeline", "8", "--addrs", "127.0.0.1:1,127.0.0.1:2"],
            "--addrs",
        ),
        (
            &["--sweep-threads", "1,2", "--addr", "127.0.0.1:1"],
            "--addr",
        ),
        (&["--sweep-threads", "1,2", "--shutdown"], "--shutdown"),
        (&["--idle-conns", "5", "--addr", "127.0.0.1:1"], "--addr"),
        (&["--idle-conns", "5", "--shutdown"], "--shutdown"),
        (&["--throttle-us", "5"], "--throttle-us"),
        (
            &["--idle-conns", "5", "--throttle-us", "5"],
            "--throttle-us",
        ),
        (
            &["--local-shards", "2", "--throttle-us", "5"],
            "--throttle-us",
        ),
    ];
    for (i, &(args, flag)) in cases.iter().enumerate() {
        let (out, dir) = loadgen(&format!("usage-{i}"), &[args, &["--ops", "20"]].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(flag), "{args:?}: {}", stderr(&out));
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn conns_past_the_limit_fail_with_the_limit_message() {
    // Four concurrent connections against a two-connection limit: the
    // server answers the extra ones BUSY and hangs up.
    let args = ["--conns", "4", "--max-conns", "2", "--ops", "2000"];
    let (out, dir) = loadgen("limit", &args);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("server at its connection limit"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(dir).unwrap();
}
