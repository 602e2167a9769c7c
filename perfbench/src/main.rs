//! Benchmark harness for the fault-trajectory workspace.
//!
//! ```text
//! perfbench --ftd PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --ftd PATH --all [--seed N] [--seconds S]
//! ```
//!
//! One run measures one workload for `--seconds` and prints diagnostics
//! followed by one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer metrics from a separate traced run. `--all` runs every
//! workload both ways in child processes and writes the collected
//! results, stamped, to `.bench_out/results.json`. See `README.md`.

mod loadgen;
mod offline;
mod online;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["offline-paper", "online-paper", "online-shards"];

/// End-to-end metrics: every untraced run reports every one of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("bank_build_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("latency_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run reports every one of them; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("faults.dictionary_build_ms", "ms"),
    ("evolve.ga_self_ms", "ms"),
    ("evolve.evaluations", "count"),
    ("core.trajectory_interp_us", "us"),
    ("core.fitness_us", "us"),
    ("core.scratch_hit_ratio", "ratio"),
    ("serve.bank_build_us", "us"),
    ("serve.codec_encode_us", "us"),
    ("serve.bank_bytes", "bytes"),
    ("circuit.instance_us", "us"),
    ("circuit.sample_us", "us"),
    ("core.diagnose_us", "us"),
    ("net.decode_ns", "ns"),
    ("net.encode_ns", "ns"),
    ("net.wire_residual_us", "us"),
    ("net.wire_p50_us", "us"),
    ("net.ref_p99_us", "us"),
    ("net.backpressure_stalls", "count"),
    ("pool.self_us_per_req", "us"),
    ("pool.batch_size_mean", "count"),
    ("store.route_ns", "ns"),
    ("store.loads", "count"),
    ("store.evictions", "count"),
    ("store.section_evictions", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.load_ms_mean", "ms"),
    ("engine.diagnose_us", "us"),
    ("engine.self_us", "us"),
    ("engine.share_pct", "%"),
    ("index.query_us", "us"),
    ("index.segments_examined_per_req", "count"),
    ("index.nodes_visited_per_req", "count"),
    ("replay.stage_sum_us", "us"),
    ("replay.e2e_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.threads", "count"),
    ("trace.reconcile_slack_pct", "%"),
    ("trace.pool_overrun_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub errors: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation; a failed check is recorded with its
    /// description.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    /// Adds a batch of `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.errors.len() < 8 {
            self.errors.push(what());
        }
    }

    fn to_json(&self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
        )
    }
}

/// Writes a traced run's spans under `.bench_out/`.
pub fn write_trace(tracer: &trace::Tracer, workload: &str, seed: u64) {
    let path =
        std::path::Path::new(".bench_out").join(format!("trace-{workload}-seed{seed}.jsonl"));
    match tracer.write(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// Commit, core count, build profile, compiler and seed of a run.
fn stamp(seed: u64) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"commit\": \"{commit}\", \"source_hash\": \"{:016x}\", \"nproc\": {}, \
         \"profile\": \"{profile}\", \"rustc\": \"{rustc}\", \"seed\": {seed}}}",
        source_hash(),
        nproc()
    )
}

/// FNV-1a over the repository's sources (`crates/`, `src/`, `Cargo.lock`),
/// identifying the measured code where no git metadata exists.
fn source_hash() -> u64 {
    fn visit(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                visit(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    visit(std::path::Path::new("crates"), &mut files);
    visit(std::path::Path::new("src"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        for byte in path
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&path).unwrap_or_default())
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// CPUs the process may use, as counted at its first call (`main` calls
/// it before any pinning).
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

struct Args {
    ftd: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    all: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ftd: String::new(),
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        all: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--ftd" => args.ftd = value()?,
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--all" => args.all = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.ftd.is_empty() {
        return Err("--ftd PATH is required (run through perfbench/run.sh)".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// `--all`: every workload, untraced then traced, each in a child
/// process so peak-memory readings stay per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut results = String::new();
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let output = std::process::Command::new(&exe)
                .args(["--ftd", &args.ftd, "--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("benchmark child runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let last = stdout.lines().last().unwrap_or("null");
            ok &= output.status.success();
            let sep = if results.is_empty() { "" } else { ",\n" };
            let _ = write!(
                results,
                "{sep}  {{\"workload\": \"{workload}\", \"trace\": {trace}, \"result\": {last}}}"
            );
        }
    }
    let doc = format!(
        "{{\"stamp\": {},\n\"runs\": [\n{results}\n]}}\n",
        stamp(args.seed)
    );
    let path = std::path::Path::new(".bench_out").join("results.json");
    let written = std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, doc));
    match written {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.all {
        return run_all(&args);
    }
    let Some(workload) = args.workload.clone() else {
        eprintln!("perfbench: --workload NAME or --all is required");
        return ExitCode::from(2);
    };
    println!(
        "stamp: {} workload={workload} trace={}",
        stamp(args.seed),
        u8::from(args.trace)
    );
    let mut report = Report::default();
    match workload.as_str() {
        "offline-paper" => offline::run(args.seed, args.seconds, args.trace, &mut report),
        "online-paper" | "online-shards" => {
            if let Err(e) = online::run(
                &workload,
                &args.ftd,
                args.seed,
                args.seconds,
                args.trace,
                &mut report,
            ) {
                report.check(false, || format!("online run aborted: {e}"));
            }
        }
        other => {
            eprintln!("perfbench: unknown workload `{other}` (expected one of {WORKLOADS:?})");
            return ExitCode::from(2);
        }
    }
    for error in &report.errors {
        eprintln!("FAILED: {error}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in table {
        match report.metrics.get(name) {
            Some(v) => println!("  {name:<34} {v:>14.4} {unit}"),
            None if !args.trace => {
                report.check(false, || format!("metric {name} was not measured"));
            }
            None => println!("  {name:<34} {:>14} {unit} (not exercised)", 0),
        }
    }
    println!("{}", report.to_json(args.trace));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
