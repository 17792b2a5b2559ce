//! Bad command lines exit 2 from every binary that shares the strict
//! flag walker: an unknown flag, a value flag without its value, or a
//! value that does not parse. Each case fails during argument parsing,
//! before any simulation runs or any file is written. `--workload list`
//! exits 0 with the suite's names.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_usage_error(bin: &str, args: &[&str], needle: &str) {
    let (code, stderr) = exit_code(bin, args);
    assert_eq!(code, Some(2), "{bin} {args:?} must exit 2; stderr:\n{stderr}");
    assert!(stderr.contains(needle), "{bin} {args:?}: stderr lacks {needle:?}:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?} panicked:\n{stderr}");
}

#[test]
fn laperm_sim_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_laperm-sim");
    assert_usage_error(bin, &["--schduler", "tb-pri"], "unknown argument --schduler");
    assert_usage_error(bin, &["--scheduler=tb-pri"], "unknown argument --scheduler=tb-pri");
    assert_usage_error(bin, &["--seed"], "--seed expects a value");
    assert_usage_error(bin, &["--seed", "x"], "--seed expects a number");
    assert_usage_error(bin, &["--scale", "huge"], "unknown scale huge");
    assert_usage_error(bin, &["--workload", "nope"], "unknown workload nope");
}

#[test]
fn workload_list_prints_the_suite_in_order() {
    let out = Command::new(env!("CARGO_BIN_EXE_laperm-sim"))
        .args(["--workload", "list"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let names: Vec<String> =
        workloads::suite(workloads::Scale::Tiny).iter().map(|w| w.full_name()).collect();
    assert_eq!(names.len(), 16);
    assert_eq!(String::from_utf8_lossy(&out.stdout), names.join("\n") + "\n");
}

#[test]
fn laperm_trace_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_laperm-trace");
    assert_usage_error(bin, &["--latncy"], "unknown argument --latncy");
    assert_usage_error(bin, &["--out"], "--out expects a value");
    assert_usage_error(bin, &["--model", "ptx"], "unknown launch model ptx");
}

#[test]
fn sweepbench_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_sweepbench");
    assert_usage_error(bin, &["--bogus"], "unknown argument --bogus");
    assert_usage_error(bin, &["--out"], "--out expects a value");
    assert_usage_error(bin, &["--scale", "huge"], "--scale expects tiny|ci|small|paper");
    assert_usage_error(bin, &["--jobs", "1,x"], "--jobs expects a comma-separated list");
    assert_usage_error(bin, &["--jobs", "0"], "--jobs expects a comma-separated list");
}

#[test]
fn hotloop_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_hotloop");
    assert_usage_error(bin, &["--bogus"], "unknown argument --bogus");
    assert_usage_error(bin, &["--baseline"], "--baseline expects a value");
    assert_usage_error(bin, &["--max-regression", "lots"], "--max-regression expects a number");
    assert_usage_error(
        bin,
        &["--baseline", "no/such/baseline.json"],
        "cannot read baseline no/such/baseline.json",
    );
}

#[test]
fn repro_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_repro");
    assert_usage_error(bin, &["all", "--scael", "ci"], "unknown argument --scael");
    assert_usage_error(bin, &["all", "stray"], "unknown argument stray");
    assert_usage_error(bin, &["check", "--json"], "--json expects a value");
    assert_usage_error(bin, &["all", "--retries", "x"], "--retries expects a number");
}
