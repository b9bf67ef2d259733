//! Host-clock benchmark of the Fortran-90-Y compiler, its three engines
//! and its serving layer.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <swe512|stencil-reduce|compile-gen|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a set of programs plus a seeded NDJSON request
//! stream, and every run goes through the same stages: set-up (compile
//! the programs, build the serve engine), then rounds of compile (all
//! three pipelines), analyze (lint, comm plan, static prediction) and
//! run (each program on CM/2, CM/5 and the accelerator, 16 nodes, one
//! host thread), with a third of a closed-loop serve chunk (one
//! client, the engine's default two workers) after each engine, until
//! `--seconds` are spent. The workloads differ in their programs and so
//! in which stage dominates; `hostbench/layers.json` records which
//! metric each layer should move on which workload.
//!
//! `--trace 0` prints the end-to-end metrics: for each host-clock stage
//! the sum of its units' fastest repetitions, for serving the median
//! round, both at the reference speed of `calib`, beside the figures as
//! measured;
//! `--trace 1` alternates outside-in traced rounds with untraced ones
//! and prints the per-layer ledger, writing the spans to
//! `hostbench/out/<workload>-<seed>.trace.json`. Both modes end with
//! the correctness gate and exit non-zero if any operation failed.

mod calib;
mod gate;
mod gen;
mod ledger;
mod traced;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use f90y_core::{workloads, Compiler, Executable, Pipeline, Target};
use f90y_serve::engine::{Engine, ServeConfig};
use f90y_serve::protocol::{Request, Response};

use gate::Observed;
use gen::{Family, Rng};
use ledger::{Rec, Recorder};

const PIPELINES: [Pipeline; 3] = [Pipeline::F90y, Pipeline::Cmf, Pipeline::StarLisp];
const TARGETS: [Target; 3] = [
    Target::Cm2 { nodes: 16 },
    Target::Cm5Mimd { nodes: 16 },
    Target::Accel { nodes: 16 },
];
const ENGINES: [&str; 3] = ["cm2", "cm5", "accel"];
const RUN_STAGES: [&str; 3] = ["run_s.cm2", "run_s.cm5", "run_s.accel"];
/// Closed-loop serve clients: each sends one request and waits for its
/// reply. One, so that serving keeps one thread busy at a time (the
/// client or the worker holding its request) and the host's two cores
/// are never both needed: with two clients, a neighbour taking one core
/// cut the throughput of three runs in ten to a third and tripled their
/// p99.
pub const CLIENTS: usize = 1;
/// Requests a round serves after each engine; a round's three parts
/// make its chunk, whose p99 has ten requests beyond it.
pub const SERVE_PART: usize = 350;
pub const SERVE_CHUNK: usize = 3 * SERVE_PART;
/// Serve stream length in chunks; chunks take successive slices of it,
/// cyclically.
const STREAM_CHUNKS: usize = 6;
/// Set-up batches, each repeating set-up for at least `SETUP_BATCH_S`.
const SETUP_BATCHES: usize = 5;
const SETUP_BATCH_S: f64 = 0.1;
/// Rounds a run makes even when `--seconds` is spent sooner.
const MIN_ROUNDS: usize = 3;
/// Host seconds the compile, analyze and run stages each repeat for
/// per round.
const STAGE_MIN_S: f64 = 0.2;

/// Single-repetition host times of every stage unit over a run: one
/// compile of a program under a pipeline, one analysis of a program,
/// one run of a program on an engine, one repetition of the
/// calibration kernel.
///
/// A host-clock end-to-end metric is the sum over its stage's units of
/// each unit's fastest repetition. The benchmark's host shares its
/// cores: for stretches of a second to a minute a neighbour slows every
/// stage by 1.3-1.6x, and the share of a run spent in such stretches
/// differs from run to run, so a median over a run's repetitions moves
/// with it (over ten runs its spread was up to 0.31 of the median for
/// the analysis, against 0.11 for the fastest repetition). Units are
/// short and every stage is sampled at several moments of every round,
/// so some repetitions of each unit clear the neighbour. The total is
/// reported at reference speed (see `calib`), with the fastest and the
/// median totals as measured printed beside it.
#[derive(Default)]
pub struct Samples(BTreeMap<(&'static str, usize, usize), Vec<f64>>);

impl Samples {
    fn push(&mut self, stage: &'static str, a: usize, b: usize, secs: f64) {
        self.0.entry((stage, a, b)).or_default().push(secs);
    }

    /// The stage's totals (sums over its units) of fastest and of
    /// median repetitions, and the number of repetitions.
    fn total(&self, stage: &str) -> Measured {
        let mut out = Measured::default();
        for (_, xs) in self
            .0
            .range((stage, 0, 0)..=(stage, usize::MAX, usize::MAX))
        {
            out.fastest += xs.iter().copied().fold(f64::INFINITY, f64::min);
            out.median += median(xs);
            out.n += xs.len();
        }
        out
    }

    /// Time one repetition of the calibration kernel, and return it.
    fn calibrate(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(calib::kernel());
        let secs = t.elapsed().as_secs_f64();
        self.push("calibrate", 0, 0, secs);
        secs
    }

    /// Time the calibration kernel on both cores at once, as serving
    /// uses them (its client and worker threads run on either), and
    /// return the wall time.
    fn calibrate_both(&mut self) -> f64 {
        let t = Instant::now();
        std::thread::scope(|s| {
            let other = s.spawn(calib::kernel);
            std::hint::black_box(calib::kernel());
            std::hint::black_box(other.join().expect("calibration thread panicked"));
        });
        let secs = t.elapsed().as_secs_f64();
        self.push("calibrate-both", 0, 0, secs);
        secs
    }
}

/// `measured` at reference speed for host factor `factor` (see
/// `calib`): a time divided by it, a rate (`unit` per second)
/// multiplied by it.
fn at_reference(measured: f64, factor: f64, unit: &str) -> f64 {
    if unit.ends_with("/s") {
        measured * factor
    } else {
        measured / factor
    }
}

/// A stage's figures as measured.
#[derive(Default, Clone, Copy)]
pub struct Measured {
    pub fastest: f64,
    pub median: f64,
    pub n: usize,
}

pub struct Program {
    pub label: String,
    pub source: String,
}

pub struct Workload {
    pub name: &'static str,
    pub programs: Vec<Program>,
    /// The serve stream: NDJSON request lines, served cyclically.
    pub stream: Vec<String>,
    /// Validate every pipeline's executable against the evaluator with
    /// `Executable::validate` (cheap at the generated programs' grid).
    pub validate_pipelines: bool,
}

/// Every family the serve stream draws from.
const FAMILIES: [Family; 6] = [
    Family::Swe,
    Family::Life,
    Family::HeatResidual,
    Family::Heat,
    Family::RedBlack,
    Family::Generated,
];

fn workload(name: &str, seed: u64) -> Result<Workload, String> {
    let mut rng = Rng::new(seed);
    let (name, programs, validate_pipelines) = match name {
        // The paper's benchmark at the largest grid the host runs in
        // about a second: engine dispatch dominates every run.
        "swe512" => (
            "swe512",
            vec![Program {
                label: "swe512x2".into(),
                source: workloads::swe_source(512, 2),
            }],
            false,
        ),
        // Integer WHERE masks, eight CSHIFTs per Life step, and a
        // per-step residual whose host time is mostly the front end's
        // own: the same engine layers used differently.
        "stencil-reduce" => (
            "stencil-reduce",
            vec![
                Program {
                    label: "life512x4".into(),
                    source: workloads::life_source(512, 4),
                },
                Program {
                    label: "heat512x8-residual".into(),
                    source: gen::heat_residual_source(512, 8),
                },
            ],
            false,
        ),
        // Generated programs of 25-400 statements: compile time is
        // superlinear in length, so pass-level work shows here and the
        // engines do little.
        "compile-gen" => (
            "compile-gen",
            [25usize, 50, 100, 200, 400]
                .iter()
                .map(|&stmts| Program {
                    label: format!("gen{stmts}"),
                    source: gen::program(&mut rng, 32, stmts),
                })
                .collect(),
            true,
        ),
        // Small programs, so serving is most of every round: one of
        // each shipped family at the stream's largest grid.
        "serve-mix" => (
            "serve-mix",
            FAMILIES[..5]
                .iter()
                .enumerate()
                .map(|(i, f)| Program {
                    label: format!("mix{i}-32"),
                    source: f.source(&mut rng, 32, 2),
                })
                .collect(),
            false,
        ),
        other => return Err(format!("unknown workload '{other}'")),
    };
    // Every workload serves the same kind of traffic, so that the serve
    // figures of one workload are comparable with another's.
    let items = gen::mix_items(&mut rng, &FAMILIES);
    Ok(Workload {
        name,
        programs,
        stream: gen::stream(&mut rng, &items, SERVE_CHUNK, STREAM_CHUNKS),
        validate_pipelines,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Counts every operation attempted and every one that failed: an
/// error, a refusal, or a result that does not match its reference.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    /// Count `r`, keeping its value when it is `Ok`.
    pub fn check<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.ok();
                Some(v)
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Metrics in print order: name → (value, unit, samples, and for a
/// figure at reference speed, what was measured).
#[derive(Default)]
pub struct Report(BTreeMap<String, (f64, &'static str, usize, Option<String>)>);

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.insert(name.into(), (value, unit, samples, None));
    }

    /// A stage's fastest total at reference speed, for host factor
    /// `factor`.
    fn put_stage(&mut self, name: &str, m: Measured, factor: f64) {
        let aside = format!("fastest {:.6}, median {:.6}", m.fastest, m.median);
        self.0.insert(
            name.into(),
            (at_reference(m.fastest, factor, "s"), "s", m.n, Some(aside)),
        );
    }

    /// A median at reference speed, beside the median as measured.
    fn put_median(
        &mut self,
        name: &str,
        at_reference: f64,
        measured: f64,
        unit: &'static str,
        n: usize,
    ) {
        let aside = format!("median {measured:.6}");
        self.0
            .insert(name.into(), (at_reference, unit, n, Some(aside)));
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile of `xs` (`q` in 0..=1).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The workload's programs compiled under the F90y pipeline — the
/// executables the run stage executes — and the serve engine.
pub struct Setup {
    pub exes: Vec<Executable>,
    pub engine: Engine,
}

fn setup(w: &Workload) -> Result<Setup, String> {
    let exes = w
        .programs
        .iter()
        .map(|p| {
            Compiler::new(Pipeline::F90y)
                .compile(&p.source)
                .map_err(|e| format!("compile {}: {e}", p.label))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let engine = Engine::new(ServeConfig::default());
    Ok(Setup { exes, engine })
}

/// One served request as its client saw it.
pub struct Served {
    pub line: usize,
    pub latency: Duration,
    pub response: Response,
}

/// Serve `count` lines of `stream` starting at `start` (cyclically)
/// with `CLIENTS` closed-loop clients. With `origin`, each client
/// records parse/submit/wait/encode spans and returns its recorder.
pub fn serve_chunk(
    engine: &Engine,
    stream: &[String],
    start: usize,
    count: usize,
    origin: Option<Instant>,
) -> (Vec<Served>, Duration, Vec<Recorder>) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Served>, Option<Recorder>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let rec: Option<Rec> = origin.map(|o| Rec::new(Recorder::new(o)));
                    let mut served = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let line = (start + i) % stream.len();
                        served.push(serve_one(engine, &stream[line], line, rec.as_ref()));
                    }
                    (served, rec.map(|r| r.into_inner()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let mut all = Vec::new();
    let mut recs = Vec::new();
    for (served, rec) in per_client {
        all.extend(served);
        recs.extend(rec);
    }
    all.sort_by_key(|s| s.line);
    (all, wall, recs)
}

fn serve_one(engine: &Engine, line: &str, idx: usize, rec: Option<&Rec>) -> Served {
    let timed = |layer: &'static str| {
        if let Some(r) = rec {
            let mut r = r.borrow_mut();
            r.detail = idx as u32;
            r.begin(layer);
        }
    };
    let done = || {
        if let Some(r) = rec {
            r.borrow_mut().end();
        }
    };
    let t0 = Instant::now();
    timed("serve.parse");
    let parsed = Request::parse(line);
    done();
    let response = match parsed {
        Err(e) => Response::error(0, f90y_serve::protocol::ErrorKind::Protocol, e),
        Ok(req) => {
            let (tx, rx) = channel();
            timed("serve.submit");
            let submitted = engine.submit(req, tx);
            done();
            match submitted {
                Err(refused) => refused,
                Ok(()) => {
                    timed("serve.wait");
                    let reply = rx
                        .recv()
                        .expect("the engine answers every admitted request");
                    done();
                    reply
                }
            }
        }
    };
    timed("serve.encode");
    let wire = std::hint::black_box(response.to_json());
    done();
    drop(wire);
    Served {
        line: idx,
        latency: t0.elapsed(),
        response,
    }
}

/// Run `f` at least once and until `min_s` seconds have passed;
/// returns the repetitions and the seconds they took.
fn repeat_for(min_s: f64, mut f: impl FnMut()) -> (usize, f64) {
    let start = Instant::now();
    let mut reps = 0;
    while reps == 0 || start.elapsed().as_secs_f64() < min_s {
        f();
        reps += 1;
    }
    (reps, start.elapsed().as_secs_f64())
}

/// What one untraced round measured.
pub struct RoundOut {
    pub compile_s: f64,
    pub analyze_s: f64,
    pub run_s: [f64; 3],
    pub modelled_s: [f64; 3],
    pub pe_instructions: u64,
    pub serve_wall: Duration,
    /// The round's serve chunk: requests per second, p50 and p99 ms.
    pub serve: [f64; 3],
    /// The round's median two-core calibration (taken around each part
    /// of the chunk) over `calib::REFERENCE_S`: the host factor for the
    /// round's chunk.
    pub host_factor: f64,
}

/// One untraced round: compile, analyze, run, serve. Runs and replies
/// land in `obs` for the gate.
///
/// The round is three passes, one per pipeline and engine: compile
/// every program under the pipeline, analyze (lint, communication plan,
/// static prediction), run every program on the engine, serve a third
/// of the round's chunk. Each stage repeats until it has run its share
/// of `STAGE_MIN_S`, so every stage is sampled at several moments of
/// every round; the round reports each stage's mean repetition.
pub fn plain_round(
    w: &Workload,
    engine: &Engine,
    obs: &mut Observed,
    cursor: &mut usize,
    tally: &mut Tally,
    samples: &mut Samples,
) -> RoundOut {
    let mut out = RoundOut {
        compile_s: 0.0,
        analyze_s: 0.0,
        run_s: [0.0; 3],
        modelled_s: [0.0; 3],
        pe_instructions: 0,
        serve_wall: Duration::ZERO,
        serve: [0.0; 3],
        host_factor: 1.0,
    };
    let mut pe = [0u64; 3];
    let (mut analyze_reps, mut analyze_s) = (0, 0.0);
    let mut calibration = Vec::new();
    let mut served = Vec::new();
    for (k, pipeline) in PIPELINES.into_iter().enumerate() {
        samples.calibrate();
        let (reps, stage_s) = repeat_for(STAGE_MIN_S / 3.0, || {
            pe[k] = 0;
            for (i, p) in w.programs.iter().enumerate() {
                let t = Instant::now();
                let r = Compiler::new(pipeline).compile(&p.source);
                samples.push("compile", i, k, t.elapsed().as_secs_f64());
                if let Some(exe) = tally.check(&format!("compile {} {pipeline:?}", p.label), r) {
                    pe[k] += exe.compiled.pe_stats().instructions as u64;
                }
            }
        });
        out.compile_s += stage_s / reps as f64;

        samples.calibrate();
        let (reps, stage_s) = repeat_for(STAGE_MIN_S / 3.0, || {
            for (i, (p, exe)) in w.programs.iter().zip(&obs.exes).enumerate() {
                let t = Instant::now();
                let lint = Compiler::new(Pipeline::F90y).lint(&p.source);
                std::hint::black_box(f90y_analysis::comm_plan(&exe.optimized));
                let predicted = TARGETS.map(|target| exe.predict(target));
                samples.push("analyze", i, 0, t.elapsed().as_secs_f64());
                tally.check(&format!("lint {}", p.label), lint);
                for r in predicted {
                    tally.check(&format!("predict {}", p.label), r);
                }
            }
        });
        analyze_reps += reps;
        analyze_s += stage_s;

        let e = k;
        let target = TARGETS[e];
        samples.calibrate();
        let stage = Instant::now();
        let (mut reps, mut secs) = (0, 0.0);
        while reps == 0 || stage.elapsed().as_secs_f64() < STAGE_MIN_S {
            for i in 0..obs.exes.len() {
                let t = Instant::now();
                let r = obs.exes[i].session(target).host_threads(1).run();
                let dt = t.elapsed().as_secs_f64();
                secs += dt;
                samples.push(RUN_STAGES[e], i, 0, dt);
                let what = format!("run {} on {}", w.programs[i].label, ENGINES[e]);
                if let Some(run) = tally.check(&what, r) {
                    if reps == 0 {
                        out.modelled_s[e] += run.elapsed_seconds();
                    }
                    obs.record(i, e, gate::counters(&run), run.finals());
                }
            }
            reps += 1;
        }
        out.run_s[e] = secs / reps as f64;

        calibration.push(samples.calibrate_both());
        let (part, wall, _) = serve_chunk(engine, &w.stream, *cursor, SERVE_PART, None);
        calibration.push(samples.calibrate_both());
        *cursor += SERVE_PART;
        out.serve_wall += wall;
        served.extend(part);
    }
    out.analyze_s = analyze_s / analyze_reps as f64;
    out.pe_instructions = pe.iter().sum();
    let lat_ms: Vec<f64> = served
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    out.serve = [
        served.len() as f64 / out.serve_wall.as_secs_f64(),
        quantile(&lat_ms, 0.5),
        quantile(&lat_ms, 0.99),
    ];
    obs.served.extend(served);
    out.host_factor = median(&calibration) / calib::REFERENCE_S;
    out
}

fn timed_run(
    w: &Workload,
    args: &Args,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<Observed, String> {
    // Set-up, several times; the last one is kept. Each sample is the
    // mean set-up of a batch lasting `SETUP_BATCH_S`; `setup_s` is the
    // median batch at reference speed.
    let mut samples = Samples::default();
    let (mut setup_s, mut setup_calibration) = (Vec::new(), Vec::new());
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUP_BATCHES {
        setup_calibration.push(samples.calibrate());
        let batch = Instant::now();
        let (mut reps, mut secs) = (0, 0.0);
        while reps == 0 || batch.elapsed().as_secs_f64() < SETUP_BATCH_S {
            let t = Instant::now();
            let s = setup(w)?;
            secs += t.elapsed().as_secs_f64();
            reps += 1;
            if let Some(old) = kept.replace(s) {
                old.engine.shutdown();
            }
        }
        setup_s.push(secs / reps as f64);
    }
    let Setup { exes, engine } = kept.expect("at least one set-up");

    let mut obs = Observed::new(exes);
    let mut rounds = Vec::new();
    let mut cursor = 0usize;
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        rounds.push(plain_round(
            w,
            &engine,
            &mut obs,
            &mut cursor,
            tally,
            &mut samples,
        ));
    }
    let peak = gate::peak_rss_mib();
    engine.shutdown();

    // Each figure is scaled by the calibration taken the same way: a
    // stage's fastest repetitions by the run's fastest calibration, the
    // set-up median by the median calibration between set-up batches,
    // each round's serve chunk by the round's median calibration on
    // both cores.
    let calibration = samples.total("calibrate");
    let both = samples.total("calibrate-both");
    let factor = calibration.fastest / calib::REFERENCE_S;
    println!(
        "host factor {factor:.4} (calibration fastest {:.6} s, median {:.6} s, n={}; on both cores median {:.6} s, n={}; reference {} s)",
        calibration.fastest,
        calibration.median,
        calibration.n,
        both.median,
        both.n,
        calib::REFERENCE_S
    );
    let setup_factor = median(&setup_calibration) / calib::REFERENCE_S;
    let setup = median(&setup_s);
    report.put_median("setup_s", setup / setup_factor, setup, "s", setup_s.len());
    report.put_stage("compile_s", samples.total("compile"), factor);
    report.put_stage("analyze_s", samples.total("analyze"), factor);
    for (e, engine) in ENGINES.iter().enumerate() {
        report.put_stage(RUN_STAGES[e], samples.total(RUN_STAGES[e]), factor);
        report.put(
            format!("modelled_s.{engine}"),
            rounds[0].modelled_s[e],
            "modelled_s",
            1,
        );
    }
    report.put(
        "pe_instructions",
        rounds[0].pe_instructions as f64,
        "count",
        1,
    );
    report.put("peak_rss_mb", peak, "MiB", 1);
    // Serve figures are per round's chunk, then the median round.
    let requests = obs.served.len();
    for (k, (name, unit)) in [
        ("serve.rps", "req/s"),
        ("serve.p50_ms", "ms"),
        ("serve.p99_ms", "ms"),
    ]
    .into_iter()
    .enumerate()
    {
        let measured: Vec<f64> = rounds.iter().map(|r| r.serve[k]).collect();
        let scaled: Vec<f64> = rounds
            .iter()
            .map(|r| at_reference(r.serve[k], r.host_factor, unit))
            .collect();
        report.put_median(name, median(&scaled), median(&measured), unit, requests);
    }
    Ok(obs)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    let w = match workload(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "hostbench: workload {} seed {} seconds {} trace {} | nproc {} | {} | profile {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("HOSTBENCH_RUSTC"),
        env!("HOSTBENCH_PROFILE"),
    );

    let mut tally = Tally::default();
    let mut report = Report::default();
    let result = if args.trace {
        traced::run(&w, &args, &mut tally, &mut report)
    } else {
        timed_run(&w, &args, &mut tally, &mut report).map(|obs| gate::check(&w, &obs, &mut tally))
    };
    if let Err(e) = result {
        eprintln!("hostbench: {e}");
        std::process::exit(1);
    }

    for note in &tally.notes {
        eprintln!("hostbench: FAILED {note}");
    }
    let mut metrics = Vec::new();
    for (name, (value, unit, samples, measured)) in &report.0 {
        match measured {
            Some(m) => println!(
                "{name:<34} {value:>16.6} {unit:<10} (at reference speed; measured {m}; n={samples})"
            ),
            None => println!("{name:<34} {value:>16.6} {unit:<10} (n={samples})"),
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        ));
    }
    println!(
        "failed_ratio {:.6} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A JSON number with every digit the measurement has (non-finite
/// values, which JSON cannot carry, become `null`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
