//! `offline-paper`: the paper's offline phase on its own CUT.
//!
//! ATPG: for a few GA seeds derived from the workload seed, built in
//! turn again and again, netlist → fault dictionary → GA test-vector
//! selection → trajectory bank → encoded bytes, each bank round-tripped
//! through the decoder. Monte Carlo: chunks of `evaluate_classifier`
//! trials at the first seed's test vector with 5% component tolerance
//! and 0.5 dB measurement noise (the middle row of table T-F). The two
//! take turns for the whole run.
//!
//! The traced run repeats the bodies of `select_test_vector_from` and
//! `evaluate_classifier` from public functions only, with spans around
//! each layer call, and checks that the replays return exactly what the
//! library calls return.

use std::cell::RefCell;
use std::time::Instant;

use ft_circuit::{sample_at, tow_thomas_normalized, Benchmark};
use ft_core::{
    count_intersections, evaluate_classifier, evaluate_fitness, genome_to_test_vector,
    sample_response_db, scratch_pool_stats, select_test_vector, select_test_vector_from,
    signature_from_db, trajectories_from_dictionary, AccuracyReport, AtpgConfig, AtpgResult,
    ConfusionMatrix, Diagnoser, DiagnoserConfig, EvalConfig, TestVector, TrajectorySet,
    TrajectorySource,
};
use ft_evolve::RealVector;
use ft_faults::{DeviationGrid, FaultDictionary, FaultUniverse, MeasurementNoise, Tolerance};
use ft_numerics::FrequencyGrid;
use ft_serve::TrajectoryBank;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;
use crate::util::{
    gaps_ms, median, mix, quantile, self_peak_rss_mb, split_cpus, thread_cpu_seconds, FastestPieces,
};
use crate::Report;

/// Grid points of the paper dictionary sweep (as `ft-bench`'s setup).
const DICT_GRID_POINTS: usize = 41;
/// Monte Carlo trials per `evaluate_classifier` call.
const MC_CHUNK: usize = 250;
/// Share of the measured time given to ATPG builds.
const ATPG_SHARE: f64 = 0.6;
/// GA seeds of the ATPG builds, each built again and again in turn.
const ATPG_GA_SEEDS: u64 = 4;
/// Quantile of the Monte Carlo chunk times reported as `latency_us`.
const MC_LATENCY_QUANTILE: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: u64 = 5;
/// Monte Carlo trials of each set-up's warm-up.
const WARMUP_TRIALS: usize = 2000;
/// GA seed of the set-up warm-up here and of the `online-paper` bank:
/// the same GA run for every workload seed, so set-up time varies with
/// the machine, not with the GA's path (a GA run took 0.3–0.6 s,
/// depending on its seed).
pub const PAPER_GA_SEED: u64 = 77;
/// Traced run: GA seeds replayed and Monte Carlo trials replayed.
const TRACED_GA_SEEDS: u64 = 2;
const TRACED_MC_TRIALS: usize = 20_000;

/// The paper's CUT with its fault universe and dictionary.
pub struct PaperCut {
    pub bench: Benchmark,
    pub universe: FaultUniverse,
    pub dict: FaultDictionary,
}

/// Netlist → fault dictionary for the normalized Tow-Thomas biquad.
pub fn paper_cut() -> PaperCut {
    let bench = tow_thomas_normalized(1.0).expect("stock benchmark builds");
    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
    let grid = FrequencyGrid::log_space(bench.search_band.0, bench.search_band.1, DICT_GRID_POINTS);
    let dict = FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
        .expect("paper dictionary builds");
    PaperCut {
        bench,
        universe,
        dict,
    }
}

/// The Monte Carlo configuration of T-F's middle row.
fn eval_config(trials: usize, seed: u64) -> EvalConfig {
    EvalConfig {
        tolerance: Tolerance::new(5.0),
        noise: MeasurementNoise::new(0.5),
        ..EvalConfig::clean(trials, seed)
    }
}

/// Netlist → encoded bank for one GA seed: the bank bytes, the ATPG
/// result they were built from, and the build split into pieces (see
/// `select_test_vector_marked`), in ms.
pub fn build_paper_bank(ga_seed: u64) -> (Vec<u8>, AtpgResult, Vec<f64>) {
    let mut marks = vec![Instant::now()];
    let cut = paper_cut();
    let config = AtpgConfig::paper_seeded(cut.bench.search_band, ga_seed);
    let atpg = select_test_vector_marked(&cut.dict, &config, &mut marks);
    let bank = TrajectoryBank::build(cut.dict, &atpg.test_vector);
    let bytes = bank.to_bytes();
    marks.push(Instant::now());
    (bytes, atpg, gaps_ms(&marks))
}

/// A fault dictionary that notes when each `trajectories_at` call starts.
struct Stopwatch<'a> {
    dict: &'a FaultDictionary,
    marks: RefCell<Vec<Instant>>,
}

impl TrajectorySource for Stopwatch<'_> {
    fn trajectories_at(&self, tv: &TestVector) -> TrajectorySet {
        self.marks.borrow_mut().push(Instant::now());
        self.dict.trajectories_at(tv)
    }
}

/// `select_test_vector` (the library's `select_test_vector_from` over
/// `dict`), appending to `marks` the start of every trajectory lookup.
/// Every fitness evaluation starts with one, so the gaps between marks
/// split the GA into the same pieces on every run with the same seed.
pub fn select_test_vector_marked(
    dict: &FaultDictionary,
    config: &AtpgConfig,
    marks: &mut Vec<Instant>,
) -> AtpgResult {
    let source = Stopwatch {
        dict,
        marks: RefCell::new(std::mem::take(marks)),
    };
    let atpg = select_test_vector_from(&source, config);
    *marks = source.marks.into_inner();
    atpg
}

/// Oracle: the bytes decode, re-encode identically, and hold `expected`.
pub fn bank_round_trips(bytes: &[u8], expected: &ft_core::TrajectorySet) -> Result<(), String> {
    let bank = TrajectoryBank::from_bytes(bytes).map_err(|e| format!("bank decode: {e}"))?;
    if bank.to_bytes() != bytes {
        return Err("bank re-encode differs from the original bytes".into());
    }
    if bank.trajectory_set() != expected {
        return Err("decoded trajectories differ from the ATPG result".into());
    }
    Ok(())
}

/// Oracle for one Monte Carlo chunk: counts add up and rates are sane.
fn report_is_sane(report: &AccuracyReport, trials: usize) -> bool {
    let comps = report.confusion.components();
    let total: usize = comps
        .iter()
        .flat_map(|t| comps.iter().map(move |p| (t, p)))
        .map(|(t, p)| report.confusion.count(t, p))
        .sum();
    report.trials == trials
        && total == trials
        && (0.0..=1.0).contains(&report.top1)
        && report.top1 <= report.top2
        && report.top2 <= 1.0
}

pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Report) {
    // Same CPUs as the benchmark process of the online workloads.
    split_cpus();
    if trace {
        return run_traced(seed, out);
    }
    // Set-up: netlist → dictionary, then a warm-up of both timed paths:
    // one GA run to an encoded bank, and Monte Carlo trials at its test
    // vector. Every set-up does the same work, whatever the seed.
    let mut setups = Vec::new();
    let mut cut = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let c = paper_cut();
        let (bytes, atpg, _) = build_paper_bank(PAPER_GA_SEED);
        let verdict = bank_round_trips(&bytes, &atpg.trajectories);
        out.check(verdict.is_ok(), || {
            format!("warm-up bank: {}", verdict.unwrap_err())
        });
        let diagnoser = Diagnoser::new(atpg.trajectories, DiagnoserConfig::default());
        let warm = evaluate_classifier(
            &c.bench.circuit,
            &c.universe,
            &diagnoser,
            &c.bench.input,
            &c.bench.probe,
            &eval_config(WARMUP_TRIALS, PAPER_GA_SEED),
        )
        .expect("warm-up Monte Carlo runs");
        out.check(report_is_sane(&warm, WARMUP_TRIALS), || {
            "warm-up report".into()
        });
        setups.push(t0.elapsed().as_secs_f64());
        cut = Some(c);
    }
    let cut = cut.expect("at least one set-up");
    out.set("setup_s", median(&setups));

    // ATPG and Monte Carlo work take turns for the whole run, each
    // getting its share of the time, so both sample every stretch of the
    // run: the shared host slows whole stretches of some seconds.
    let mut atpg = Atpg::default();
    let mut mc = MonteCarlo::default();
    let run = Instant::now();
    let mut diagnoser = None;
    while atpg.builds < 3 * ATPG_GA_SEEDS || run.elapsed().as_secs_f64() < seconds {
        if atpg.busy_s < ATPG_SHARE * run.elapsed().as_secs_f64() || diagnoser.is_none() {
            let trajectories = atpg.build_next(seed, out);
            // Monte Carlo runs at the first GA seed's test vector.
            diagnoser
                .get_or_insert_with(|| Diagnoser::new(trajectories, DiagnoserConfig::default()));
        } else if let Some(diagnoser) = &diagnoser {
            mc.chunk(&cut, diagnoser, seed, out);
        }
    }

    let per_seed: Vec<f64> = atpg.pieces.iter().map(FastestPieces::total).collect();
    let bank_ms = per_seed.iter().sum::<f64>() / per_seed.len() as f64;
    out.set("bank_build_ms", bank_ms);
    let whole: Vec<f64> = atpg
        .ms
        .iter()
        .map(|ms| ms.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let all: Vec<f64> = atpg.ms.iter().flatten().copied().collect();
    println!(
        "atpg: {} builds of {ATPG_GA_SEEDS} GA seeds in {:.2} s; netlist→bank per seed, \
         fastest pieces summed {per_seed:.1?} ms (mean {bank_ms:.1}), fastest whole build \
         {whole:.1?} ms; median of all builds {:.1} ms, max {:.1}",
        atpg.builds,
        atpg.busy_s,
        median(&all),
        all.iter().copied().fold(0.0, f64::max),
    );

    let trials = mc.chunk_mean_us.len() as f64 * MC_CHUNK as f64;
    out.set("throughput_per_s", trials / mc.busy_s);
    mc.chunk_mean_us.sort_by(f64::total_cmp);
    let latency = quantile(&mc.chunk_mean_us, MC_LATENCY_QUANTILE);
    out.set("latency_us", latency);
    out.set("cpu_us_per_op", mc.cpu_s * 1e6 / trials);
    out.set("peak_rss_mb", self_peak_rss_mb());
    println!(
        "monte-carlo: {} chunks x {MC_CHUNK} trials = {trials} trials in {:.2} s \
         ({:.0} trials/s); mean trial time of the chunks: p10 {latency:.3} us, median {:.3} us",
        mc.chunk_mean_us.len(),
        mc.busy_s,
        trials / mc.busy_s,
        quantile(&mc.chunk_mean_us, 0.5),
    );
}

/// The ATPG side of a run: netlist → encoded bank for `ATPG_GA_SEEDS`
/// GA seeds in turn. Every build of one GA seed does the same work.
#[derive(Default)]
struct Atpg {
    builds: u64,
    busy_s: f64,
    /// Per GA seed: the bytes of its first build, every build's time, and
    /// the fastest time of each piece of its builds.
    first_bytes: Vec<Vec<u8>>,
    ms: Vec<Vec<f64>>,
    pieces: Vec<FastestPieces>,
}

impl Atpg {
    /// Builds the next GA seed's bank and checks it: the first build of a
    /// seed must round-trip, every later one must encode the same bytes
    /// in as many pieces.
    fn build_next(&mut self, seed: u64, out: &mut Report) -> TrajectorySet {
        let k = (self.builds % ATPG_GA_SEEDS) as usize;
        let t0 = Instant::now();
        let (bytes, atpg, pieces) = build_paper_bank(mix(seed, k as u64));
        let elapsed = t0.elapsed().as_secs_f64();
        self.busy_s += elapsed;
        self.builds += 1;
        if let Some(first) = self.first_bytes.get(k) {
            out.check(*first == bytes, || {
                format!("ATPG seed {k}: a repeated build encoded other bytes")
            });
            self.ms[k].push(elapsed * 1e3);
        } else {
            let verdict = bank_round_trips(&bytes, &atpg.trajectories);
            out.check(verdict.is_ok(), || {
                format!("ATPG seed {k}: {}", verdict.unwrap_err())
            });
            self.first_bytes.push(bytes);
            self.ms.push(vec![elapsed * 1e3]);
            self.pieces.push(FastestPieces::default());
        }
        let added = self.pieces[k].add(&pieces);
        out.check(added.is_ok(), || {
            format!("ATPG seed {k}: {}", added.unwrap_err())
        });
        atpg.trajectories
    }
}

/// The Monte Carlo side of a run: chunks of `MC_CHUNK` trials.
#[derive(Default)]
struct MonteCarlo {
    busy_s: f64,
    cpu_s: f64,
    /// Mean trial time of each chunk, µs.
    chunk_mean_us: Vec<f64>,
}

impl MonteCarlo {
    fn chunk(&mut self, cut: &PaperCut, diagnoser: &Diagnoser, seed: u64, out: &mut Report) {
        let chunk = self.chunk_mean_us.len() as u64;
        let cpu0 = thread_cpu_seconds();
        let t0 = Instant::now();
        let report = evaluate_classifier(
            &cut.bench.circuit,
            &cut.universe,
            diagnoser,
            &cut.bench.input,
            &cut.bench.probe,
            &eval_config(MC_CHUNK, mix(seed, 1_000_000 + chunk)),
        )
        .expect("Monte Carlo chunk runs");
        let elapsed = t0.elapsed().as_secs_f64();
        self.cpu_s += thread_cpu_seconds() - cpu0;
        self.busy_s += elapsed;
        self.chunk_mean_us.push(elapsed * 1e6 / MC_CHUNK as f64);
        out.check(report_is_sane(&report, MC_CHUNK), || {
            format!("MC chunk {chunk}")
        });
    }
}

/// `AccuracyReport` equality with NaN deviation errors treated as equal.
fn same_report(a: &AccuracyReport, b: &AccuracyReport) -> bool {
    let dev_eq = a.mean_deviation_error_pct == b.mean_deviation_error_pct
        || (a.mean_deviation_error_pct.is_nan() && b.mean_deviation_error_pct.is_nan());
    a.trials == b.trials
        && a.top1 == b.top1
        && a.top2 == b.top2
        && dev_eq
        && a.confusion == b.confusion
}

fn same_atpg(a: &AtpgResult, b: &AtpgResult) -> bool {
    a.test_vector == b.test_vector
        && a.fitness == b.fitness
        && a.intersections == b.intersections
        && a.trajectories == b.trajectories
        && a.history == b.history
        && a.evaluations == b.evaluations
}

/// The body of `select_test_vector_from` with spans around each layer
/// call, followed by the bank build and encode.
fn traced_atpg(
    tr: &mut Tracer,
    dict: &FaultDictionary,
    config: &AtpgConfig,
) -> (AtpgResult, Vec<u8>) {
    let (lo, hi) = config.band;
    let species = RealVector::new(vec![(lo.log10(), hi.log10()); config.n_frequencies]);
    let run = tr.enter("evolve.run");
    let ga = ft_evolve::run(
        &species,
        |genome| {
            let tv = genome_to_test_vector(genome);
            let set = tr.span("core.trajectories", || {
                trajectories_from_dictionary(dict, &tv)
            });
            tr.span("core.fitness", || {
                evaluate_fitness(&set, config.fitness, &config.geometry)
            })
        },
        &config.ga,
    );
    tr.exit(run);
    let test_vector = genome_to_test_vector(&ga.best);
    let trajectories = trajectories_from_dictionary(dict, &test_vector);
    let intersections = count_intersections(&trajectories, &config.geometry);
    let result = AtpgResult {
        test_vector,
        fitness: ga.best_fitness,
        intersections,
        trajectories,
        history: ga.history,
        evaluations: ga.evaluations,
    };
    let dict = dict.clone();
    let bank = tr.span("serve.bank_build", || {
        TrajectoryBank::build(dict, &result.test_vector)
    });
    let bytes = tr.span("serve.codec_encode", || bank.to_bytes());
    (result, bytes)
}

/// The body of `evaluate_classifier` (with `measure_faulty` inlined) for
/// the trajectory diagnoser, with spans around each layer call.
fn traced_monte_carlo(
    tr: &mut Tracer,
    cut: &PaperCut,
    diagnoser: &Diagnoser,
    config: &EvalConfig,
) -> AccuracyReport {
    let bench = &cut.bench;
    let tv = diagnoser.trajectory_set().test_vector();
    let golden_db =
        sample_response_db(&bench.circuit, &bench.input, &bench.probe, tv).expect("golden");
    let tolerance_set: Vec<String> = cut.universe.components().to_vec();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut confusion = ConfusionMatrix::new(cut.universe.components().to_vec());
    let (mut top1, mut top2, mut dev_sum, mut dev_n) = (0usize, 0usize, 0.0, 0usize);
    for _ in 0..config.trials {
        let trial = tr.enter("mc.trial");
        let fault = cut.universe.sample_unknown(&mut rng, config.min_fault_pct);
        let instance = tr.span("circuit.instance", || {
            let mut instance = bench.circuit.clone();
            for name in &tolerance_set {
                if name == fault.component() {
                    continue;
                }
                let nominal = instance.value(name).expect("known").expect("valued");
                let dev = config.tolerance.sample(&mut rng);
                instance
                    .set_value(name, nominal * (1.0 + dev))
                    .expect("settable");
            }
            fault.apply_in_place(&mut instance).expect("fault applies");
            instance
        });
        let samples = tr.span("circuit.sample", || {
            sample_at(&instance, &bench.input, &bench.probe, tv.omegas()).expect("samples")
        });
        let measured: Vec<f64> = samples
            .iter()
            .map(|v| {
                let db = ft_numerics::decibel::clamp_db(v.abs_db(), -300.0);
                config.noise.perturb(db, &mut rng)
            })
            .collect();
        let observed = signature_from_db(&measured, &golden_db);
        let diagnosis = tr.span("core.diagnose", || diagnoser.diagnose(&observed));
        let ranked = diagnosis.candidates();
        let truth = fault.component();
        confusion.record(truth, &ranked[0].component);
        if ranked[0].component == truth {
            top1 += 1;
            dev_sum += (ranked[0].deviation_pct - fault.percent()).abs();
            dev_n += 1;
        }
        if ranked.iter().take(2).any(|c| c.component == truth) {
            top2 += 1;
        }
        tr.exit(trial);
    }
    AccuracyReport {
        trials: config.trials,
        top1: top1 as f64 / config.trials as f64,
        top2: top2 as f64 / config.trials as f64,
        mean_deviation_error_pct: if dev_n > 0 {
            dev_sum / dev_n as f64
        } else {
            f64::NAN
        },
        confusion,
    }
}

fn run_traced(seed: u64, out: &mut Report) {
    let mut tr = Tracer::default();
    let builds: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            tr.span("faults.dictionary_build", paper_cut);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set("faults.dictionary_build_ms", median(&builds));
    let cut = paper_cut();

    // ATPG replay against the library call, per GA seed, after one
    // untimed run so neither side pays the cold start.
    select_test_vector(
        &cut.dict,
        &AtpgConfig::paper_seeded(cut.bench.search_band, seed),
    );
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (hits0, allocs0) = scratch_pool_stats();
    let mut evaluations = 0;
    let mut first = None;
    for i in 0..TRACED_GA_SEEDS {
        let config = AtpgConfig::paper_seeded(cut.bench.search_band, mix(seed, i));
        let t0 = Instant::now();
        let expected = select_test_vector(&cut.dict, &config);
        untraced_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let atpg = tr.enter("atpg");
        let (replayed, bytes) = traced_atpg(&mut tr, &cut.dict, &config);
        tr.exit(atpg);
        traced_s += t0.elapsed().as_secs_f64();
        out.check(same_atpg(&replayed, &expected), || {
            format!("traced GA replay differs from select_test_vector (seed {i})")
        });
        let verdict = bank_round_trips(&bytes, &expected.trajectories);
        out.check(verdict.is_ok(), || {
            format!("traced bank: {}", verdict.unwrap_err())
        });
        out.set("serve.bank_bytes", bytes.len() as f64);
        evaluations = replayed.evaluations;
        first.get_or_insert(expected.trajectories);
    }
    let (hits1, allocs1) = scratch_pool_stats();
    let (hits, allocs) = ((hits1 - hits0) as f64, (allocs1 - allocs0) as f64);
    let runs = TRACED_GA_SEEDS as f64;
    let per_eval = |name: &str| tr.total_ns(name) as f64 / 1e3 / tr.count(name).max(1) as f64;
    out.set(
        "evolve.ga_self_ms",
        tr.self_ns("evolve.run") as f64 / 1e6 / runs,
    );
    out.set("evolve.evaluations", evaluations as f64);
    out.set("core.trajectory_interp_us", per_eval("core.trajectories"));
    out.set("core.fitness_us", per_eval("core.fitness"));
    out.set(
        "core.scratch_hit_ratio",
        if hits + allocs > 0.0 {
            hits / (hits + allocs)
        } else {
            1.0
        },
    );
    out.set("serve.bank_build_us", per_eval("serve.bank_build"));
    out.set("serve.codec_encode_us", per_eval("serve.codec_encode"));
    let atpg_total = tr.total_ns("atpg") as f64;
    let atpg_slack = tr.self_ns("atpg") as f64 / atpg_total;
    let atpg_overhead = traced_s / untraced_s - 1.0;

    // Monte Carlo replay against the library call.
    let diagnoser = Diagnoser::new(first.expect("one GA seed"), DiagnoserConfig::default());
    let config = eval_config(TRACED_MC_TRIALS, mix(seed, 1_000_000));
    let bench = &cut.bench;
    let t0 = Instant::now();
    let expected = evaluate_classifier(
        &bench.circuit,
        &cut.universe,
        &diagnoser,
        &bench.input,
        &bench.probe,
        &config,
    )
    .expect("Monte Carlo runs");
    let mc_untraced = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let replayed = traced_monte_carlo(&mut tr, &cut, &diagnoser, &config);
    let mc_traced = t0.elapsed().as_secs_f64();
    out.check(same_report(&replayed, &expected), || {
        "traced Monte Carlo replay differs from evaluate_classifier".into()
    });
    let per_trial = |name: &str| tr.total_ns(name) as f64 / 1e3 / TRACED_MC_TRIALS as f64;
    out.set("circuit.instance_us", per_trial("circuit.instance"));
    out.set("circuit.sample_us", per_trial("circuit.sample"));
    out.set("core.diagnose_us", per_trial("core.diagnose"));
    let mc_slack = tr.self_ns("mc.trial") as f64 / tr.total_ns("mc.trial") as f64;
    let mc_overhead = mc_traced / mc_untraced - 1.0;

    out.set(
        "trace.reconcile_slack_pct",
        100.0 * atpg_slack.max(mc_slack),
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_s + mc_traced - untraced_s - mc_untraced) / (untraced_s + mc_untraced),
    );
    let ga_ms = atpg_total / 1e6 / runs;
    println!(
        "atpg split per seed ({runs} seeds): total {ga_ms:.1} ms = ga self {:.1} + interp {:.1} \
         + fitness {:.1} + bank {:.2} + encode {:.2} + unspanned {:.2} ms (slack {:.2}%)",
        tr.self_ns("evolve.run") as f64 / 1e6 / runs,
        tr.total_ns("core.trajectories") as f64 / 1e6 / runs,
        tr.total_ns("core.fitness") as f64 / 1e6 / runs,
        tr.total_ns("serve.bank_build") as f64 / 1e6 / runs,
        tr.total_ns("serve.codec_encode") as f64 / 1e6 / runs,
        tr.self_ns("atpg") as f64 / 1e6 / runs,
        100.0 * atpg_slack,
    );
    println!(
        "monte-carlo split per trial ({TRACED_MC_TRIALS} trials): total {:.2} us = instance {:.2} \
         + sample {:.2} + diagnose {:.2} + unspanned {:.2} us (slack {:.2}%)",
        tr.total_ns("mc.trial") as f64 / 1e3 / TRACED_MC_TRIALS as f64,
        per_trial("circuit.instance"),
        per_trial("circuit.sample"),
        per_trial("core.diagnose"),
        tr.self_ns("mc.trial") as f64 / 1e3 / TRACED_MC_TRIALS as f64,
        100.0 * mc_slack,
    );
    println!(
        "tracing overhead: atpg {:+.2}% ({untraced_s:.3} s untraced), monte-carlo {:+.2}% \
         ({mc_untraced:.3} s untraced)",
        100.0 * atpg_overhead,
        100.0 * mc_overhead,
    );
    crate::write_trace(&tr, "offline-paper", seed);
}
