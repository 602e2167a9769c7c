//! `ftd serve --stats-file` writes the Prometheus text exposition, the
//! one format a metrics snapshot is written in, and no subcommand reads
//! a stats file back.

use std::io::Write;
use std::process::{Command, Stdio};

use fault_trajectory::prelude::*;
use fault_trajectory::serve::synthetic_queries;

const FTD: &str = env!("CARGO_BIN_EXE_ftd");
const Q1_V3: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/serve/tests/fixtures/q1_v3.ftb"
);

#[test]
fn serve_stats_file_is_prometheus_text() {
    let dir = std::env::temp_dir().join("ftd_stats_file_test");
    let _ = std::fs::remove_dir_all(&dir);
    let shards = dir.join("shards");
    std::fs::create_dir_all(&shards).expect("shard dir");
    std::fs::copy(Q1_V3, shards.join("q1.ftb")).expect("copies the shard");
    let bank = TrajectoryBank::load(Q1_V3).expect("fixture loads");
    let count = 40;
    let mut requests = String::new();
    for sig in synthetic_queries(bank.trajectory_set(), count, 3) {
        requests.push_str("q1");
        for x in sig.coords() {
            requests.push_str(&format!(" {x}"));
        }
        requests.push('\n');
    }
    let stats = dir.join("serve_stats.prom");

    let mut serve = Command::new(FTD)
        .args(["serve", "--workers", "2", "--batch", "7", "--banks"])
        .arg(&shards)
        .arg("--stats-file")
        .arg(&stats)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ftd serve starts");
    serve
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(requests.as_bytes())
        .expect("writes the requests");
    let out = serve.wait_with_output().expect("ftd serve runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), count);

    let text = std::fs::read_to_string(&stats).expect("stats file written");
    assert!(
        text.lines()
            .any(|l| l == format!("serve_requests_total {count}")),
        "no `serve_requests_total {count}` line in:\n{text}"
    );
    assert!(text.contains("# TYPE serve_requests_total counter\n"));

    // Nothing reads a stats file back: `stats` is an unknown subcommand.
    let status = Command::new(FTD)
        .arg("stats")
        .arg(&stats)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("ftd runs");
    assert_eq!(status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}
