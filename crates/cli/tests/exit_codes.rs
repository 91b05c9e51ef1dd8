//! Error paths of the `ccdb` binary: every failure must exit nonzero with
//! a one-line rendered message on stderr — never a panic, a backtrace, or
//! a `Debug` dump.

use std::process::{Command, Output};

fn ccdb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccdb"))
        .args(args)
        .output()
        .expect("spawn ccdb")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Shared checks for every failure: prefixed one-liner, no panic noise.
fn assert_clean_failure(out: &Output, expect_code: i32) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(expect_code), "stderr: {err}");
    assert!(err.starts_with("ccdb: "), "unprefixed stderr: {err}");
    assert_eq!(
        err.trim_end().lines().count(),
        1,
        "multi-line stderr: {err}"
    );
    for noise in ["panicked", "backtrace", "RUST_BACKTRACE", "CliError {"] {
        assert!(!err.contains(noise), "panic noise in stderr: {err}");
    }
    assert!(out.stdout.is_empty(), "failures must not write stdout");
}

#[test]
fn missing_schema_file_exits_2() {
    let out = ccdb(&["check", "/no/such/schema.ccdb"]);
    assert_clean_failure(&out, 2);
    assert!(stderr(&out).contains("/no/such/schema.ccdb"));
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    let out = ccdb(&["frobnicate"]);
    assert_clean_failure(&out, 2);
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn no_arguments_exits_2_with_usage() {
    let out = ccdb(&[]);
    assert_clean_failure(&out, 2);
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn invalid_schema_exits_1_with_compile_error() {
    let dir = tempfile::tempdir().unwrap();
    let file = dir.path().join("bad.ccdb");
    std::fs::write(
        &file,
        "obj-type Broken = attributes: X: NoSuchDomain; end Broken;",
    )
    .unwrap();
    let out = ccdb(&["check", file.to_str().unwrap()]);
    assert_clean_failure(&out, 1);
    assert!(stderr(&out).contains("NoSuchDomain"));
}

#[test]
fn unknown_type_exits_1() {
    let dir = tempfile::tempdir().unwrap();
    let file = dir.path().join("s.ccdb");
    std::fs::write(&file, "obj-type If = attributes: Length: integer; end If;").unwrap();
    let out = ccdb(&["effective", file.to_str().unwrap(), "Ghost"]);
    assert_clean_failure(&out, 1);
    assert!(stderr(&out).contains("Ghost"));
}

#[test]
fn bad_serve_flags_exit_2() {
    let dir = tempfile::tempdir().unwrap();
    let file = dir.path().join("s.ccdb");
    std::fs::write(&file, "obj-type If = attributes: Length: integer; end If;").unwrap();
    let path = file.to_str().unwrap();

    let out = ccdb(&["serve", path, "--threads", "lots"]);
    assert_clean_failure(&out, 2);
    assert!(stderr(&out).contains("--threads"));

    let out = ccdb(&["serve", path, "--wat"]);
    assert_clean_failure(&out, 2);

    // The readiness backend is chosen by a platform probe, not a flag.
    for cmd in ["serve", "bench-net"] {
        let out = ccdb(&[cmd, path, "--backend", "poll"]);
        assert_clean_failure(&out, 2);
        assert!(stderr(&out).contains("unknown flag `--backend`"));
    }

    let out = ccdb(&["bench-net", path, "--requests"]);
    assert_clean_failure(&out, 2);
}

#[test]
fn serve_on_unbindable_address_exits_2() {
    let dir = tempfile::tempdir().unwrap();
    let file = dir.path().join("s.ccdb");
    std::fs::write(&file, "obj-type If = attributes: Length: integer; end If;").unwrap();
    let out = ccdb(&[
        "serve",
        file.to_str().unwrap(),
        "--addr",
        "256.256.256.256:1",
    ]);
    assert_clean_failure(&out, 2);
    assert!(stderr(&out).contains("cannot bind"));
}

#[test]
fn bench_net_without_inheritance_exits_1() {
    let dir = tempfile::tempdir().unwrap();
    let file = dir.path().join("flat.ccdb");
    std::fs::write(&file, "obj-type Lone = attributes: X: integer; end Lone;").unwrap();
    let out = ccdb(&[
        "bench-net",
        file.to_str().unwrap(),
        "--clients",
        "1",
        "--requests",
        "1",
    ]);
    assert_clean_failure(&out, 1);
    assert!(stderr(&out).contains("inheritance"));
}

#[test]
fn success_paths_exit_0() {
    let dir = tempfile::tempdir().unwrap();
    let file = dir.path().join("ok.ccdb");
    std::fs::write(
        &file,
        r#"
        obj-type If = attributes: Length: integer; end If;
        inher-rel-type AllOf_If =
            transmitter: object-of-type If;
            inheritor: object;
            inheriting: Length;
        end AllOf_If;
        obj-type Impl = inheritor-in: AllOf_If; end Impl;
        "#,
    )
    .unwrap();
    let path = file.to_str().unwrap();

    let out = ccdb(&["check", path]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("schema OK"));

    let out = ccdb(&[
        "bench-net",
        path,
        "--clients",
        "2",
        "--requests",
        "10",
        "--threads",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("throughput"));
}
