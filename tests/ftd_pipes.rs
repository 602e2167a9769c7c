//! The `ftd` binary under closed pipes and vanished peers: printing
//! into a closed stdout ends the process quietly instead of panicking,
//! and a TCP peer that disconnects mid-response never takes the server
//! down with it.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use fault_trajectory::prelude::*;
use fault_trajectory::serve::net::{decode_frame, decode_response, encode_request, FRAME_RESPONSE};
use fault_trajectory::serve::synthetic_queries;

const FTD: &str = env!("CARGO_BIN_EXE_ftd");
const Q1_V3: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/serve/tests/fixtures/q1_v3.ftb"
);

#[test]
fn bank_info_into_a_closed_pipe_does_not_panic() {
    // The read end is closed before the process starts, so its first
    // write hits EPIPE deterministically.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(FTD)
        .args(["bank-info", Q1_V3])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("ftd runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "ftd panicked: {stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

/// Kills the server however the test ends.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_survives_a_peer_that_closes_without_reading() {
    let dir = std::env::temp_dir().join("ftd_pipes_serve_test");
    std::fs::create_dir_all(&dir).expect("shard dir");
    std::fs::copy(Q1_V3, dir.join("q1.ftb")).expect("copies the shard");
    let bank = TrajectoryBank::load(Q1_V3).expect("fixture loads");
    let requests: Vec<u8> = synthetic_queries(bank.trajectory_set(), 512, 7)
        .into_iter()
        .flat_map(|sig| encode_request(&DiagnosisRequest::new("q1", sig)))
        .collect();

    let mut server = Server(
        Command::new(FTD)
            .args(["serve", "--banks"])
            .arg(&dir)
            .args(["--listen", "127.0.0.1:0", "--workers", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("server starts"),
    );
    // Held open for the whole test: the server logs to stderr, and a
    // closed stderr pipe would now end it with SIGPIPE.
    let mut stderr = BufReader::new(server.0.stderr.take().expect("stderr piped"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("reads the banner");
    // "listening on 127.0.0.1:PORT: shard directory with ..."
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_once(": "))
        .map(|(addr, _)| addr.to_string())
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"));

    // Peers that pipeline a burst and hang up without reading: the
    // server's pending response writes then fail with EPIPE/ECONNRESET.
    for _ in 0..3 {
        let mut peer = TcpStream::connect(&addr).expect("peer connects");
        peer.write_all(&requests).expect("peer sends its burst");
        drop(peer);
    }
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        server.0.try_wait().expect("polls the server").is_none(),
        "server exited after a peer hung up"
    );

    // The next connection is still answered.
    let mut client = TcpStream::connect(&addr).expect("client connects");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let sig = synthetic_queries(bank.trajectory_set(), 1, 8).remove(0);
    client
        .write_all(&encode_request(&DiagnosisRequest::new("q1", sig)))
        .expect("client sends");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let (kind, failed) = loop {
        if let Some((kind, payload, _)) = decode_frame(&buf).expect("valid frame") {
            break (kind, decode_response(payload).expect("response decodes").0);
        }
        let n = client.read(&mut chunk).expect("client reads");
        assert!(n > 0, "server closed the connection without answering");
        buf.extend_from_slice(&chunk[..n]);
    };
    assert_eq!(kind, FRAME_RESPONSE);
    assert!(!failed, "the request is answered, not refused");
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
