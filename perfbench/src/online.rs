//! `online-paper` and `online-shards`: the production `ftd serve --listen`
//! binary driven over TCP by the open-loop generator.
//!
//! Untraced runs: set-up (bank builds, server spawn, readiness, warm-up),
//! then the reference rate, then a fixed ladder of offered rates. Every
//! answer is checked against the in-process oracle
//! (`BankStore::diagnose` + `response_line` over the same directory and
//! `StoreConfig`).
//!
//! Traced runs: the lowest rung and the reference rate once more against
//! the server (for its counters and the wire latency), then an in-process
//! replay of the reference stream, stage by stage, with spans around the
//! calls into the codec, pool, store, engine and index.

use std::fmt;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_circuit::rlc_ladder_lowpass;
use ft_core::{SegmentQuery, Signature, TestVector};
use ft_faults::{DeviationGrid, FaultDictionary, FaultUniverse};
use ft_numerics::FrequencyGrid;
use ft_serve::net::{
    decode_frame, decode_request, encode_request, encode_response, fetch_stats, response_line,
};
use ft_serve::{
    BankStore, DiagnosisEngine, DiagnosisRequest, EngineConfig, MetricsRegistry, ServeHandle,
    StoreConfig, TrajectoryBank,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::loadgen::{LoadGen, RunStats, Target};
use crate::trace::Tracer;
use crate::util::{
    cpu_seconds, fnv1a, gaps_ms, median, mix, peak_rss_mb, pin_current, self_busy_threads,
    spinners_paused, split_cpus, CpuMask, FastestPieces, IdleSpinner, Stats,
};
use crate::Report;

/// One online workload's fixed load shape.
struct Spec {
    /// The offered-rate ladder: lowest rate (req/s) and rung count; each
    /// rung offers `RUNG_RATIO` times the one below.
    ladder: (f64, usize),
    /// Rate of the latency and CPU measurement, below capacity.
    reference_rps: f64,
    /// Gaussian noise added to each signature coordinate, dB.
    noise_db: f64,
    /// `--mem-budget` falls short of the shard set's hot bytes by this
    /// share of the smallest shard's hot bytes.
    budget_shortfall: Option<f64>,
}

impl Spec {
    fn rungs(&self) -> impl Iterator<Item = f64> {
        let (lowest, count) = self.ladder;
        (0..count).map(move |i| lowest * RUNG_RATIO.powi(i as i32))
    }
}

const PAPER: Spec = Spec {
    ladder: (50_000.0, 15),
    reference_rps: 30_000.0,
    noise_db: 0.25,
    budget_shortfall: None,
};

const SHARDS: Spec = Spec {
    ladder: (5_000.0, 18),
    reference_rps: 2_500.0,
    noise_db: 3.0,
    budget_shortfall: Some(0.5),
};

/// The p99 (and generator lateness p99) a ladder rung must stay within,
/// µs; a rung whose p50 is beyond it is overloaded (its queue grows).
const LIMIT_P99_US: f64 = 10_000.0;
/// Ratio between neighbouring ladder rungs.
const RUNG_RATIO: f64 = 1.2;

/// The ladder shards, most popular first: RLC low-pass order,
/// deviation-grid step (%), and the two test frequencies (rad/s).
/// Segments = (order + 2) × 80 / step: five large head shards (44k–17.5k)
/// and three equal 10k-segment tail shards, which the memory budget makes
/// take turns being resident.
const LADDERS: [(usize, f64, f64, f64); 8] = [
    (9, 0.02, 0.6, 1.6),
    (8, 0.025, 0.5, 1.0),
    (7, 0.025, 0.6, 1.1),
    (6, 0.032, 0.4, 1.2),
    (5, 0.032, 0.6, 1.4),
    (3, 0.04, 0.6, 1.6),
    (3, 0.04, 0.5, 1.3),
    (3, 0.04, 0.7, 1.5),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Distinct requests each run draws from.
const POOL_SIZE: usize = 4096;
/// Zipf exponent of the CUT mix on `online-shards`.
const ZIPF_S: f64 = 3.0;
/// Dictionary sweep points per ladder shard.
const LADDER_GRID_POINTS: usize = 21;
/// The server's shard refresh period (its default), which listen mode
/// also uses as the per-hit stat interval.
const REFRESH_MS: u64 = 1000;
/// Share of the measured time spent on the ladder; the rest is the
/// reference rate.
const LADDER_SHARE: f64 = 0.5;
const WARMUP: Duration = Duration::from_millis(300);
/// Traced run: seconds at the lowest rung and at the reference rate, and
/// the number of reference requests replayed in-process.
const TRACE_LOW_S: f64 = 2.0;
const TRACE_REF_S: f64 = 3.0;
const REPLAY_REQUESTS: usize = 20_000;

#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl<E: std::error::Error> From<E> for Error {
    fn from(e: E) -> Self {
        Error(e.to_string())
    }
}

fn err(msg: impl Into<String>) -> Error {
    Error(msg.into())
}

/// A scratch directory inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> Result<WorkDir, Error> {
        let path = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// A running `ftd serve --listen`, killed and reaped on drop.
struct Server {
    child: Option<Child>,
    addr: String,
    pid: u32,
    log: PathBuf,
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGINT: i32 = 2;

impl Server {
    fn spawn(
        cpus: Option<CpuMask>,
        ftd: &str,
        banks: &Path,
        budget: Option<u64>,
        log: PathBuf,
    ) -> Result<Server, Error> {
        let mut cmd = Command::new(ftd);
        cmd.arg("serve").arg("--banks").arg(banks).args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "1",
        ]);
        if let Some(bytes) = budget {
            cmd.args(["--mem-budget", &bytes.to_string()]);
        }
        if let Some(mask) = cpus {
            // SAFETY: the hook only makes the sched_setaffinity syscall.
            unsafe {
                cmd.pre_exec(move || {
                    pin_current(&mask);
                    Ok(())
                });
            }
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&log)?)
            .spawn()
            .map_err(|e| err(format!("spawning {ftd}: {e}")))?;
        let pid = child.id();
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            pid,
            log,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.addr.is_empty() {
            let text = std::fs::read_to_string(&server.log).unwrap_or_default();
            if let Some(rest) = text.split("listening on ").nth(1) {
                if let Some((addr, _)) = rest.split_once(": ") {
                    server.addr = addr.to_string();
                    break;
                }
            }
            if let Some(status) = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(err(format!("server exited early ({status}): {text}")));
            }
            if Instant::now() > deadline {
                return Err(err("server did not report its address within 10 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(server)
    }

    fn stats(&self) -> Result<Stats, Error> {
        Ok(Stats::parse(&fetch_stats(&self.addr)?))
    }

    /// SIGINT (graceful drain) and reap; the server must exit 0 and log
    /// its drain.
    fn stop(mut self) -> Result<(), Error> {
        let mut child = self.child.take().expect("running server");
        // SAFETY: plain syscall on our own child's pid.
        unsafe {
            kill(self.pid as i32, SIGINT);
        }
        let status = child.wait()?;
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        if !status.success() || !log.contains("drained:") {
            return Err(err(format!(
                "server did not drain cleanly ({status}): {log}"
            )));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The banks of one set-up, with the build-time samples.
#[derive(Default)]
struct Built {
    banks: Vec<(String, TrajectoryBank)>,
    bank_ms: Vec<f64>,
    dict_ms: Vec<f64>,
    bank_build_us: Vec<f64>,
    encode_us: Vec<f64>,
    bytes: usize,
    /// FNV-1a of each encoded bank.
    digests: Vec<u64>,
    /// The whole build split into pieces that are the same work on every
    /// build, ms: each GA fitness evaluation of the paper bank; each
    /// ladder shard's dictionary, and its bank build and encode.
    pieces_ms: Vec<f64>,
    hot_bytes: Vec<u64>,
}

/// Netlist → encoded bank for every CUT of the workload, written to
/// `<dir>/<cut>.ftb` when a directory is given.
fn build_banks(shards: bool, dir: Option<&Path>) -> Result<Built, Error> {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let mut built = Built::default();
    let persist =
        |built: &mut Built, cut: String, bank: TrajectoryBank, t0: Instant| -> Result<(), Error> {
            let t1 = Instant::now();
            let bytes = bank.to_bytes();
            built.encode_us.push(t1.elapsed().as_secs_f64() * 1e6);
            built.bank_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            built.bytes += bytes.len();
            built.digests.push(fnv1a(&bytes));
            if let Some(dir) = dir {
                std::fs::write(dir.join(format!("{cut}.ftb")), bytes)?;
            }
            built.banks.push((cut, bank));
            Ok(())
        };
    if !shards {
        let t0 = Instant::now();
        let cut = crate::offline::paper_cut();
        built.dict_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let config =
            ft_core::AtpgConfig::paper_seeded(cut.bench.search_band, crate::offline::PAPER_GA_SEED);
        let mut marks = vec![t0];
        let atpg = crate::offline::select_test_vector_marked(&cut.dict, &config, &mut marks);
        let t1 = Instant::now();
        let bank = TrajectoryBank::build(cut.dict, &atpg.test_vector);
        built.bank_build_us.push(t1.elapsed().as_secs_f64() * 1e6);
        persist(&mut built, "paper".into(), bank, t0)?;
        // The last piece runs from the last mark to the end of the encode.
        built.pieces_ms = gaps_ms(&marks);
        let rest = built.bank_ms[0] - built.pieces_ms.iter().sum::<f64>();
        built.pieces_ms.push(rest);
    } else {
        for (i, &(order, step, f1, f2)) in LADDERS.iter().enumerate() {
            let t0 = Instant::now();
            let bench = rlc_ladder_lowpass(order)?;
            let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::new(40.0, step));
            let grid = FrequencyGrid::log_space(
                bench.search_band.0,
                bench.search_band.1,
                LADDER_GRID_POINTS,
            );
            let dict = FaultDictionary::build(
                &bench.circuit,
                &universe,
                &bench.input,
                &bench.probe,
                &grid,
            )?;
            built.dict_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t1 = Instant::now();
            let bank = TrajectoryBank::build(dict, &TestVector::pair(f1, f2));
            built.bank_build_us.push(t1.elapsed().as_secs_f64() * 1e6);
            persist(&mut built, format!("ladder{i}-o{order}"), bank, t0)?;
        }
        built.pieces_ms = (built.dict_ms.iter().zip(&built.bank_ms))
            .flat_map(|(&dict, &bank)| [dict, bank - dict])
            .collect();
    }
    if let Some(dir) = dir {
        for (cut, _) in &built.banks {
            let path = dir.join(format!("{cut}.ftb"));
            let engine = DiagnosisEngine::load_mapped(path, EngineConfig::default())?;
            built.hot_bytes.push(engine.resident_bytes());
        }
    }
    Ok(built)
}

/// Every bank build of a run: the total of each, and the fastest time of
/// each piece over all of them.
#[derive(Default)]
struct BankBuilds {
    ms: Vec<f64>,
    pieces: FastestPieces,
}

impl BankBuilds {
    fn add(&mut self, built: &Built, out: &mut Report) {
        self.ms.push(built.bank_ms.iter().sum());
        let added = self.pieces.add(&built.pieces_ms);
        out.check(added.is_ok(), || {
            format!("bank build: {}", added.unwrap_err())
        });
    }
}

/// Builds the served banks once more, in memory, between two loads, and
/// checks that the bytes are those being served.
fn rebuild_banks(
    shards: bool,
    spinners: &[IdleSpinner],
    served: &[u64],
    builds: &mut BankBuilds,
    out: &mut Report,
) -> Result<(), Error> {
    let built = spinners_paused(spinners, || build_banks(shards, None))?;
    out.check(built.digests == served, || {
        "a rebuilt bank encoded other bytes than the served one".into()
    });
    builds.add(&built, out);
    Ok(())
}

/// A memory budget below the shards' hot bytes: their sum minus `short`
/// of the smallest shard's, so the least recently used tail shard is
/// evicted whenever another cold shard loads.
fn budget(hot: &[u64], short: f64) -> u64 {
    let smallest = hot.iter().copied().min().unwrap_or(0);
    hot.iter().sum::<u64>() - (smallest as f64 * short) as u64
}

fn store_config(budget: Option<u64>) -> StoreConfig {
    StoreConfig {
        mem_budget: budget,
        min_stat_interval: Duration::from_millis(REFRESH_MS),
        ..StoreConfig::new(EngineConfig::default())
    }
}

/// Seeded requests near the trajectories: a CUT, a trajectory, a segment
/// and a point on it, plus Gaussian noise per coordinate. The CUTs follow
/// a Zipf mix over the banks in build order with exact counts, so every
/// seed sends each shard the same share of the pool and the shard loads
/// differ between seeds only by the order of the requests.
fn request_pool(
    banks: &[(String, TrajectoryBank)],
    noise_db: f64,
    seed: u64,
) -> Vec<DiagnosisRequest> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 42));
    let weights: Vec<f64> = (0..banks.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    // Largest-remainder apportionment of POOL_SIZE over the weights.
    let quotas: Vec<f64> = weights
        .iter()
        .map(|w| w / total * POOL_SIZE as f64)
        .collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..banks.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    for &cut in by_remainder
        .iter()
        .take(POOL_SIZE - counts.iter().sum::<usize>())
    {
        counts[cut] += 1;
    }
    let mut pool = Vec::with_capacity(POOL_SIZE);
    for ((cut_id, bank), &count) in banks.iter().zip(&counts) {
        let set = bank.trajectory_set();
        for _ in 0..count {
            let view = set.view(rng.gen_range(0..set.len()));
            let (_, p0, _, p1) = view.segment(rng.gen_range(0..view.segment_count()));
            let t: f64 = rng.gen_range(0.0..1.0);
            let coords = p0
                .iter()
                .zip(p1)
                .map(|(a, b)| a + t * (b - a) + noise_db * ft_evolve::gaussian(&mut rng))
                .collect();
            pool.push(DiagnosisRequest::new(
                cut_id.clone(),
                Signature::new(coords),
            ));
        }
    }
    pool
}

/// The expected response line of every pooled request, from an
/// in-process store over the same directory and configuration.
fn oracle(
    dir: &Path,
    config: StoreConfig,
    pool: &[DiagnosisRequest],
) -> Result<Vec<String>, Error> {
    let store = BankStore::open_with(dir, config)?;
    pool.iter()
        .map(|req| {
            let result = store.diagnose(req);
            if let Err(e) = &result {
                return Err(err(format!("oracle cannot answer {}: {e}", req.cut_id)));
            }
            Ok(response_line(&req.cut_id, &result))
        })
        .collect()
}

/// The banks, request pool and oracle answers of one set-up.
struct Data {
    built: Built,
    pool: Vec<DiagnosisRequest>,
    frames: Vec<Vec<u8>>,
    expected: Vec<String>,
    config: StoreConfig,
    banks_dir: PathBuf,
}

impl Data {
    fn target(&self) -> Target<'_> {
        Target {
            frames: &self.frames,
            expected: &self.expected,
        }
    }
}

/// A warmed-up server with its generator connections.
struct Live {
    server: Server,
    gen: LoadGen,
    data: Data,
}

impl Live {
    fn run(&mut self, rate: f64, seconds: f64, seed: u64) -> Result<RunStats, Error> {
        let target = self.data.target();
        Ok(self
            .gen
            .run(&target, rate, Duration::from_secs_f64(seconds), seed)?)
    }

    fn stop(self) -> Result<Data, Error> {
        drop(self.gen);
        self.server.stop()?;
        Ok(self.data)
    }
}

/// Builds the banks, starts the server and warms it up; returns the live
/// set-up and the set-up seconds (oracle time excluded).
fn set_up(
    ftd: &str,
    server_cpus: Option<CpuMask>,
    spinners: &[IdleSpinner],
    spec: &Spec,
    shards: bool,
    seed: u64,
    work: &WorkDir,
    oracle_lines: Option<(Vec<DiagnosisRequest>, Vec<String>)>,
) -> Result<(Live, f64), Error> {
    let t0 = Instant::now();
    let banks_dir = work.0.join("banks");
    let _ = std::fs::remove_dir_all(&banks_dir);
    let built = spinners_paused(spinners, || build_banks(shards, Some(&banks_dir)))?;
    let budget = spec
        .budget_shortfall
        .map(|short| budget(&built.hot_bytes, short));
    let config = store_config(budget);
    let t_oracle = Instant::now();
    let (pool, expected) = match oracle_lines {
        Some(known) => known,
        None => {
            let pool = request_pool(&built.banks, spec.noise_db, seed);
            let expected = oracle(&banks_dir, config, &pool)?;
            (pool, expected)
        }
    };
    let oracle_time = t_oracle.elapsed();
    let frames = pool.iter().map(encode_request).collect();
    let server = Server::spawn(
        server_cpus,
        ftd,
        &banks_dir,
        budget,
        work.0.join("server.log"),
    )?;
    let gen = LoadGen::connect(&server.addr)?;
    let mut live = Live {
        server,
        gen,
        data: Data {
            built,
            pool,
            frames,
            expected,
            config,
            banks_dir,
        },
    };
    let warm = live.run(spec.reference_rps, WARMUP.as_secs_f64(), mix(seed, 99))?;
    if warm.failed > 0 {
        return Err(err(format!(
            "warm-up answers wrong: {}",
            warm.mismatch.unwrap_or_default()
        )));
    }
    let setup = t0.elapsed().saturating_sub(oracle_time);
    Ok((live, setup.as_secs_f64()))
}

fn rung_line(label: &str, r: &RunStats, pass: Option<bool>) -> String {
    let (fewest, fewest_beyond) = r.window_samples();
    format!(
        "{label} {:>7.0} req/s: sent {:>7} served {:>7.0}/s p50 {:>8.1} us p99 {:>8.1} us ({} windows, \
         >= {fewest} answers, >= {fewest_beyond} beyond p99) pooled p99 {:>8.1} us late p99 {:>7.1} us failed {}{}",
        r.offered_rps,
        r.sent,
        r.served_rps,
        r.p50_us(),
        r.p99_us(),
        r.windows.len(),
        r.pooled_p99_us(),
        r.late_p99_us(),
        r.failed,
        match pass {
            Some(true) => "  pass",
            Some(false) => "  FAIL",
            None => "",
        }
    )
}

/// A rung passes with zero failures and both its p99 and the generator's
/// lateness p99 within the limit (a late generator means a backlog).
fn passes(r: &RunStats) -> bool {
    r.failed == 0 && r.p99_us() <= LIMIT_P99_US && r.late_p99_us() <= LIMIT_P99_US
}

pub fn run(
    workload: &str,
    ftd: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Report,
) -> Result<(), Error> {
    let shards = workload == "online-shards";
    let spec = if shards { &SHARDS } else { &PAPER };
    let work = WorkDir::new(workload)?;
    let cpus = split_cpus();
    let server_cpus = cpus.map(|(_, server)| server);
    // Keep both CPUs from idling while the generator and the server wait
    // for each other (see `IdleSpinner`).
    let spinners: Vec<IdleSpinner> = cpus.map_or(Vec::new(), |(own, server)| {
        vec![IdleSpinner::start(own), IdleSpinner::start(server)]
    });
    println!(
        "generator: open loop, Poisson arrivals, 1 thread, 1 connection; \
         generator and server pinned to a CPU each, both kept from idling: {}",
        server_cpus.is_some(),
    );
    if trace {
        return run_traced(ftd, server_cpus, &spinners, spec, shards, seed, &work, out);
    }

    let mut setups = Vec::new();
    let mut builds = BankBuilds::default();
    let mut known = None;
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let (l, setup_s) = set_up(
            ftd,
            server_cpus,
            &spinners,
            spec,
            shards,
            seed,
            &work,
            known.take(),
        )?;
        setups.push(setup_s);
        builds.add(&l.data.built, out);
        if rep + 1 < SETUP_REPS {
            let data = l.stop()?;
            known = Some((data.pool, data.expected));
        } else {
            live = Some(l);
        }
    }
    let mut live = live.expect("at least one set-up");
    out.set("setup_s", median(&setups));
    let built = &live.data.built;
    println!(
        "setup: {} rep(s), median {:.3} s; {} bank(s), {} bytes, hot bytes {}, mem budget {:?}",
        setups.len(),
        median(&setups),
        built.banks.len(),
        built.bytes,
        built.hot_bytes.iter().sum::<u64>(),
        live.data.config.mem_budget,
    );

    // Reference rate; peak memory is read before the ladder pushes the
    // server into overload.
    let ref_s = seconds * (1.0 - LADDER_SHARE);
    let pid = live.server.pid.to_string();
    let before_ref = live.server.stats()?;
    let cpu0 = cpu_seconds(&pid);
    let r = live.run(spec.reference_rps, ref_s, mix(seed, 200))?;
    let cpu = cpu_seconds(&pid) - cpu0;
    let after_ref = live.server.stats()?;
    out.set("peak_rss_mb", peak_rss_mb(live.server.pid));
    out.tally(r.sent, r.failed, || {
        format!("reference: {}", r.mismatch.clone().unwrap_or_default())
    });
    let answered = r.latency_us.len();
    println!("reference: {ref_s:.2} s, {answered} answers; server cpu {cpu:.2} s");
    println!("  {}", rung_line("reference", &r, None));
    out.set("latency_us", r.p50_us());
    out.set("cpu_us_per_op", cpu * 1e6 / answered.max(1) as f64);

    // The banks are built again after the reference load and after every
    // rung, while the server idles, so that `bank_build_ms` samples the
    // whole run: the shared host slows stretches of some seconds. Every
    // build does the same work; the fastest time of each of its pieces is
    // summed.
    let served_digests = live.data.built.digests.clone();
    rebuild_banks(shards, &spinners, &served_digests, &mut builds, out)?;

    // Ladder of offered rates, up to the first rung whose median misses
    // the limit: its queue grows throughout, so the server hardly idles,
    // and the rate at which it answers there is its capacity.
    let rung_s = seconds * LADDER_SHARE / spec.ladder.1 as f64;
    let mut rungs = Vec::new();
    let mut capacity = None;
    println!("ladder: p99 and lateness p99 limit {LIMIT_P99_US} us, {rung_s:.2} s per rung");
    for (i, rate) in spec.rungs().enumerate() {
        let r = live.run(rate, rung_s, mix(seed, 100 + i as u64))?;
        out.tally(r.sent, r.failed, || {
            format!("rung {rate}: {}", r.mismatch.clone().unwrap_or_default())
        });
        println!("  {}", rung_line("rung", &r, Some(passes(&r))));
        rebuild_banks(shards, &spinners, &served_digests, &mut builds, out)?;
        let overloaded = r.p50_us() > LIMIT_P99_US;
        rungs.push(r);
        if overloaded {
            capacity = rungs.last().map(|r| r.served_rps);
            println!("  (overloaded: higher rungs skipped)");
            break;
        }
    }
    let cap = capacity.unwrap_or_else(|| {
        println!("  (no rung overloaded the server: capacity is at least the top rung's rate)");
        rungs.last().map_or(0.0, |r| r.served_rps)
    });
    out.set("throughput_per_s", cap);
    let within = rungs
        .iter()
        .rposition(passes)
        .map_or(0.0, |i| rungs[i].offered_rps);
    println!(
        "capacity: {cap:.0} req/s answered on the first overloaded rung; \
         highest rung within the limits: {within:.0} req/s"
    );
    let pieces = builds.pieces.total();
    out.set("bank_build_ms", pieces);
    println!(
        "bank builds: {} ({SETUP_REPS} in set-ups), fastest pieces summed {pieces:.1} ms, \
         fastest whole build {:.1} ms, median {:.1} ms: {:.0?}",
        builds.ms.len(),
        builds.ms.iter().copied().fold(f64::INFINITY, f64::min),
        median(&builds.ms),
        builds.ms,
    );
    let after_ladder = live.server.stats()?;
    print_counters("reference", &before_ref, &after_ref);
    print_counters("ladder", &after_ref, &after_ladder);
    live.stop()?;
    Ok(())
}

fn print_counters(phase: &str, a: &Stats, b: &Stats) {
    println!(
        "server counters ({phase}): requests {} batches {} loads {} evictions {} section evictions {} \
         stalls {} wire p50 {:.1} us",
        b.diff(a, "serve_requests_total"),
        b.diff(a, "pool_batch_requests_count"),
        b.diff(a, "store_shard_loads_total"),
        b.diff(a, "store_shard_evictions_total"),
        b.diff(a, "store_section_evictions_total"),
        b.diff(a, "net_backpressure_stalls_total"),
        b.hist_quantile_diff(a, "net_request_wire_us", 0.5),
    );
}

/// Outcome of one in-process replay.
struct Replay {
    requests: usize,
    failed: u64,
    total: Duration,
    /// Shard loads the pool's routing did, and their summed time (the
    /// store's own load histogram, whole µs per load).
    loads: f64,
    load_us: f64,
    /// Traced replay: batches whose re-run route + engine time exceeded
    /// the batch's pool span, which they must fit inside.
    overruns: usize,
    batches: usize,
}

/// Replays `stream` through the same stages the server runs — frame and
/// request decode, pool submit → drain, response render and encode — over
/// a fresh store on the banks directory. With a tracer, each stage gets a
/// span per batch, and after each batch (outside its root span) the
/// store route, engine diagnose and index query are re-run on this
/// thread to time what the pool's worker did. Shard loads happen inside
/// the pool's own routing (the re-run route then hits), so their time is
/// read from a metrics registry on the replay store. The re-runs are
/// checked against the pool span they stand for: batches whose re-run
/// route + engine time exceeds their pool span are counted.
fn replay(
    data: &Data,
    stream: &[u32],
    batch: usize,
    mut tr: Option<&mut Tracer>,
) -> Result<Replay, Error> {
    let registry = Arc::new(MetricsRegistry::new());
    let store =
        Arc::new(BankStore::open_with(&data.banks_dir, data.config)?.with_metrics(&registry));
    let mut pool = ServeHandle::new(Arc::clone(&store), 1);
    let mut failed = 0;
    let mut overruns = 0;
    let t0 = Instant::now();
    for chunk in stream.chunks(batch) {
        let root = tr.as_deref_mut().map(|t| t.enter("replay.batch"));
        let span = tr.as_deref_mut().map(|t| t.enter("net.decode"));
        let mut cuts = Vec::with_capacity(chunk.len());
        let mut requests = Vec::with_capacity(chunk.len());
        for &i in chunk {
            let (_, payload, _) = decode_frame(&data.frames[i as usize])
                .ok()
                .flatten()
                .ok_or_else(|| err("replay frame does not decode"))?;
            let request = decode_request(payload).map_err(|e| err(format!("{e:?}")))?;
            cuts.push(request.cut_id.clone());
            requests.push(request);
        }
        exit(&mut tr, span);
        let pool_span = tr.as_deref_mut().map(|t| t.enter("pool.batch"));
        pool.submit(requests);
        let results = pool.drain_one().ok_or_else(|| err("pool lost a batch"))?;
        exit(&mut tr, pool_span);
        let span = tr.as_deref_mut().map(|t| t.enter("net.encode"));
        let mut lines = Vec::with_capacity(chunk.len());
        for (cut, result) in cuts.iter().zip(&results) {
            let line = response_line(cut, result);
            std::hint::black_box(encode_response(&line, result.is_err()));
            lines.push(line);
        }
        exit(&mut tr, span);
        exit(&mut tr, root);
        for (&i, line) in chunk.iter().zip(&lines) {
            failed += u64::from(*line != data.expected[i as usize]);
        }
        if let Some(t) = tr.as_deref_mut() {
            let reqs: Vec<&DiagnosisRequest> =
                chunk.iter().map(|&i| &data.pool[i as usize]).collect();
            let route_span = t.enter("store.route");
            let engines: Vec<Arc<DiagnosisEngine>> = reqs
                .iter()
                .map(|r| store.engine(&r.cut_id))
                .collect::<Result<_, _>>()?;
            t.exit(route_span);
            let engine_span = t.enter("engine.diagnose");
            for (engine, r) in engines.iter().zip(&reqs) {
                std::hint::black_box(engine.diagnose(&r.signature));
            }
            t.exit(engine_span);
            let rerun_ns = t.duration_ns(route_span) + t.duration_ns(engine_span);
            overruns += usize::from(rerun_ns > t.duration_ns(pool_span.expect("traced replay")));
            t.span("index.query", || {
                for (engine, r) in engines.iter().zip(&reqs) {
                    std::hint::black_box(
                        engine
                            .index()
                            .best_per_trajectory(engine.trajectory_set(), &r.signature),
                    );
                }
            });
        }
    }
    let total = t0.elapsed();
    let stats = Stats::parse(&registry.snapshot().to_prometheus());
    Ok(Replay {
        requests: stream.len(),
        failed,
        total,
        loads: stats.get("store_shard_loads_total"),
        load_us: stats.get("store_shard_load_us_sum"),
        overruns,
        batches: stream.len().div_ceil(batch),
    })
}

fn exit(tr: &mut Option<&mut Tracer>, span: Option<usize>) {
    if let (Some(t), Some(id)) = (tr.as_deref_mut(), span) {
        t.exit(id);
    }
}

fn run_traced(
    ftd: &str,
    server_cpus: Option<CpuMask>,
    spinners: &[IdleSpinner],
    spec: &Spec,
    shards: bool,
    seed: u64,
    work: &WorkDir,
    out: &mut Report,
) -> Result<(), Error> {
    let (mut live, _) = set_up(ftd, server_cpus, spinners, spec, shards, seed, work, None)?;
    let built = &live.data.built;
    out.set("faults.dictionary_build_ms", median(&built.dict_ms));
    out.set("serve.bank_build_us", median(&built.bank_build_us));
    out.set("serve.codec_encode_us", median(&built.encode_us));
    out.set("serve.bank_bytes", built.bytes as f64);

    // The lowest rung (wire latency with no queueing) and the reference
    // rate (the stream the replay repeats), with counter scrapes around.
    let s0 = live.server.stats()?;
    let low = live.run(spec.ladder.0, TRACE_LOW_S, mix(seed, 100))?;
    let s1 = live.server.stats()?;
    let refr = live.run(spec.reference_rps, TRACE_REF_S, mix(seed, 200))?;
    let s2 = live.server.stats()?;
    for (label, r) in [("lowest rung", &low), ("reference", &refr)] {
        out.tally(r.sent, r.failed, || {
            format!("{label}: {}", r.mismatch.clone().unwrap_or_default())
        });
        println!("  {}", rung_line(label, r, None));
    }
    print_counters("lowest rung", &s0, &s1);
    print_counters("reference", &s1, &s2);
    let data = live.stop()?;

    // Server counters over the reference phase.
    let requests = s2.diff(&s1, "serve_requests_total").max(1.0);
    let batches = s2.diff(&s1, "pool_batch_requests_count").max(1.0);
    let batch_mean = s2.diff(&s1, "pool_batch_requests_sum") / batches;
    let hits = s2.diff(&s1, "store_shard_cache_hits_total");
    let misses = s2.diff(&s1, "store_shard_cache_misses_total");
    let loads = s2.diff(&s1, "store_shard_loads_total");
    let load_count = s2.diff(&s1, "store_shard_load_us_count").max(1.0);
    out.set("pool.batch_size_mean", batch_mean);
    out.set(
        "net.wire_p50_us",
        s2.hist_quantile_diff(&s1, "net_request_wire_us", 0.5),
    );
    out.set(
        "net.backpressure_stalls",
        s2.diff(&s1, "net_backpressure_stalls_total"),
    );
    out.set("store.loads", loads);
    out.set(
        "store.evictions",
        s2.diff(&s1, "store_shard_evictions_total"),
    );
    out.set(
        "store.section_evictions",
        s2.diff(&s1, "store_section_evictions_total"),
    );
    out.set(
        "store.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            1.0
        },
    );
    out.set(
        "store.load_ms_mean",
        s2.diff(&s1, "store_shard_load_us_sum") / load_count / 1e3,
    );
    out.set(
        "index.segments_examined_per_req",
        s2.diff(&s1, "engine_index_segments_examined_total") / requests,
    );
    out.set(
        "index.nodes_visited_per_req",
        s2.diff(&s1, "engine_index_nodes_visited_total") / requests,
    );
    out.set("gen.late_p99_us", refr.late_p99_us());
    out.set("net.ref_p99_us", refr.p99_us());
    // The generator's process, read before the replay starts its pool
    // thread: it must not run more threads than the machine has cores
    // (the idle spinners, at `SCHED_IDLE`, do not count).
    let threads = self_busy_threads();
    out.set("gen.threads", threads);
    out.check(threads <= crate::nproc() as f64, || {
        format!(
            "the generator ran {threads} threads on {} cores",
            crate::nproc()
        )
    });

    // In-process replay of the reference stream, untraced then traced,
    // each over a fresh store, in batches of the server's mean size.
    let stream = &refr.stream[..refr.stream.len().min(REPLAY_REQUESTS)];
    let batch = (batch_mean.round() as usize).max(1);
    let plain = replay(&data, stream, batch, None)?;
    let mut tr = Tracer::default();
    let traced = replay(&data, stream, batch, Some(&mut tr))?;
    for r in [&plain, &traced] {
        out.tally(r.requests as u64, r.failed, || {
            "replay answer differs from the oracle".into()
        });
    }
    for (cut, _) in &data.built.banks {
        let path = data.banks_dir.join(format!("{cut}.ftb"));
        tr.span("engine.load_mapped", || {
            DiagnosisEngine::load_mapped(path, EngineConfig::default())
        })?;
    }
    let n = stream.len().max(1) as f64;
    let per_req_us = |name: &str| tr.total_ns(name) as f64 / 1e3 / n;
    let (decode, pool, encode) = (
        per_req_us("net.decode"),
        per_req_us("pool.batch"),
        per_req_us("net.encode"),
    );
    let route = per_req_us("store.route") + traced.load_us / n;
    let (engine, index) = (per_req_us("engine.diagnose"), per_req_us("index.query"));
    // The re-runs stand for work done inside the pool span, so together
    // they must fit in it; if they do not, the per-layer split is void.
    let pool_self = pool - route - engine;
    out.check(pool_self >= 0.0, || {
        format!(
            "re-run route {:.2} us + engine {engine:.2} us exceed the pool span {pool:.2} us",
            route
        )
    });
    let overrun_pct = 100.0 * traced.overruns as f64 / traced.batches.max(1) as f64;
    let stage_sum = decode + pool_self + route + engine + encode;
    let e2e = per_req_us("replay.batch");
    let untraced = plain.total.as_secs_f64() * 1e6 / n;
    let wire_p50 = low.p50_us();
    out.set("net.decode_ns", decode * 1e3);
    out.set("net.encode_ns", encode * 1e3);
    out.set("pool.self_us_per_req", pool_self);
    out.set("store.route_ns", route * 1e3);
    out.set("engine.diagnose_us", engine);
    out.set("index.query_us", index);
    out.set("engine.self_us", engine - index);
    out.set("engine.share_pct", 100.0 * engine / wire_p50);
    out.set("net.wire_residual_us", wire_p50 - stage_sum);
    out.set("replay.stage_sum_us", stage_sum);
    out.set("replay.e2e_us", e2e);
    out.set("trace.reconcile_slack_pct", 100.0 * (e2e - stage_sum) / e2e);
    out.set("trace.pool_overrun_pct", overrun_pct);
    out.set("trace.overhead_pct", 100.0 * (e2e - untraced) / untraced);
    println!(
        "replay of {} reference requests in batches of {batch}: per request decode {:.0} ns + pool self {pool_self:.2} us \
         + route {:.0} ns + engine {engine:.2} us (index {index:.2}) + encode {:.0} ns = {stage_sum:.2} us; \
         replay e2e {e2e:.2} us (slack {:.2}%), untraced {untraced:.2} us (overhead {:+.2}%)",
        stream.len(),
        decode * 1e3,
        route * 1e3,
        encode * 1e3,
        100.0 * (e2e - stage_sum) / e2e,
        100.0 * (e2e - untraced) / untraced,
    );
    println!(
        "pool span {pool:.2} us per request: re-run route + engine explain {:.1}%, pool self {:.1}%; \
         {} of {} batches ({overrun_pct:.2}%) had re-runs longer than their pool span",
        100.0 * (route + engine) / pool,
        100.0 * pool_self / pool,
        traced.overruns,
        traced.batches,
    );
    println!(
        "wire: p50 at the lowest rung {wire_p50:.1} us = replay stages {stage_sum:.2} us + reactor/socket/kernel {:.2} us; \
         replay loads {} ({:.3} ms each, inside store.route); load_mapped {:.3} ms per shard",
        wire_p50 - stage_sum,
        traced.loads,
        traced.load_us / 1e3 / traced.loads.max(1.0),
        tr.total_ns("engine.load_mapped") as f64 / 1e6 / data.built.banks.len() as f64,
    );
    crate::write_trace(
        &tr,
        if shards {
            "online-shards"
        } else {
            "online-paper"
        },
        seed,
    );
    Ok(())
}
