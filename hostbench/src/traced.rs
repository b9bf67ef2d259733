//! The traced run: the same stages as the timed rounds, driven from
//! outside through each module's public functions with a span around
//! every call, alternating with untraced rounds so that the tracing
//! overhead is measured rather than assumed.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use f90y_accel::{Accel, AccelConfig};
use f90y_backend::fe::{HostExecutor, HostRun};
use f90y_backend::CompiledProgram;
use f90y_baselines::{compile_baseline, Baseline};
use f90y_core::predict::fold;
use f90y_core::{Executable, Pipeline, Telemetry, TraceBuffer};
use f90y_mimd::{MimdConfig, MimdMachine};
use f90y_nir::Imp;
use f90y_serve::protocol::{Request, Response};
use f90y_transform::pass::{pass_by_name, Pass, MAX_FIXPOINT_ITERS};
use f90y_transform::ProgramBody;

use crate::gate::{self, Observed};
use crate::ledger::{self, span, Rec, Recorder, Timed};
use crate::{
    median, plain_round, serve_chunk, setup, Args, Report, Samples, Setup, Tally, Workload,
    ENGINES, PIPELINES, SERVE_CHUNK, SERVE_PART, TARGETS,
};

/// Repetitions of each instrumentation on/off run.
const OBS_REPS: usize = 2;

/// Span details on the main track: program `i`'s compile under
/// pipeline `k`, or (`STAGE_EXEC`) its analysis and runs.
const STAGE_EXEC: usize = 3;

fn detail(program: usize, stage: usize) -> u32 {
    (program * 4 + stage) as u32
}

fn detail_labels(w: &Workload) -> Vec<String> {
    w.programs
        .iter()
        .flat_map(|p| {
            [
                "compile-f90y",
                "compile-cmf",
                "compile-starlisp",
                "analyze+run",
            ]
            .map(|stage| format!("{}/{stage}", p.label))
        })
        .collect()
}

/// The layer key of a middle-end pass.
fn pass_layer(name: &str) -> &'static str {
    match name {
        "comm-split" => "transform.comm-split",
        "comm-cse" => "transform.comm-cse",
        "mask-pad" => "transform.mask-pad",
        "blocking-reorder" => "transform.blocking-reorder",
        "blocking-fuse" => "transform.blocking-fuse",
        "dce-temps" => "transform.dce-temps",
        _ => "transform.other",
    }
}

enum Unit {
    Single(Box<dyn Pass>),
    Fixpoint(Vec<Box<dyn Pass>>),
}

/// The pass schedule `Compiler` runs for `pipeline`, rebuilt from the
/// pass manager's own description of it.
fn schedule(pipeline: Pipeline) -> Vec<Unit> {
    let mgr = match pipeline {
        Pipeline::F90y => f90y_transform::default_passes(),
        Pipeline::Cmf | Pipeline::StarLisp => f90y_transform::per_statement_passes(),
    };
    let pass =
        |name: &str| pass_by_name(name).expect("the manager only schedules registered passes");
    mgr.pass_names()
        .iter()
        .map(|name| {
            match name
                .strip_prefix("fixpoint(")
                .and_then(|r| r.strip_suffix(')'))
            {
                Some(group) => Unit::Fixpoint(group.split(", ").map(pass).collect()),
                None => Unit::Single(pass(name)),
            }
        })
        .collect()
}

struct Compiled {
    optimized: Imp,
    compiled: CompiledProgram,
    rewrites: u64,
    clauses: u64,
}

/// `Compiler::compile`'s call sequence, one span per layer call.
fn compile_traced(
    rec: &Rec,
    src: &str,
    pipeline: Pipeline,
    units: &[Unit],
) -> Result<Compiled, String> {
    let text = |e: &dyn std::fmt::Display| e.to_string();
    let file =
        span(rec, "frontend.parse", || f90y_frontend::parse_file(src)).map_err(|e| text(&e))?;
    let nir =
        span(rec, "lowering.lower", || f90y_lowering::lower_file(&file)).map_err(|e| text(&e))?;
    let mut body =
        span(rec, "transform.body", || ProgramBody::decompose(&nir)).map_err(|e| text(&e))?;
    let (mut rewrites, mut clauses) = (0u64, 0u64);
    let mut run = |pass: &dyn Pass, body: &mut ProgramBody| -> Result<usize, String> {
        let outcome =
            span(rec, pass_layer(pass.name()), || pass.run(body)).map_err(|e| text(&e))?;
        rewrites += outcome.rewrites as u64;
        if let Some(&(_, n)) = outcome.counters.iter().find(|(c, _)| *c == "clauses") {
            clauses = n;
        }
        Ok(outcome.rewrites)
    };
    for unit in units {
        match unit {
            Unit::Single(pass) => {
                run(pass.as_ref(), &mut body)?;
            }
            Unit::Fixpoint(passes) => {
                for _ in 0..MAX_FIXPOINT_ITERS {
                    let mut applied = 0;
                    for pass in passes {
                        applied += run(pass.as_ref(), &mut body)?;
                    }
                    if applied == 0 {
                        break;
                    }
                }
            }
        }
    }
    let optimized = span(rec, "transform.body", || body.recompose());
    let compiled = match pipeline {
        Pipeline::F90y => span(rec, "backend.codegen", || f90y_backend::compile(&optimized)),
        Pipeline::Cmf => span(rec, "baselines.codegen", || {
            compile_baseline(&nir, Baseline::Cmf)
        }),
        Pipeline::StarLisp => span(rec, "baselines.codegen", || {
            compile_baseline(&nir, Baseline::StarLisp)
        }),
    }
    .map_err(|e| text(&e))?;
    Ok(Compiled {
        optimized,
        compiled,
        rewrites,
        clauses,
    })
}

/// One run through the timed machine wrapper, as `Session::run` drives
/// the bare engine. Returns counters, finals and simulated flops.
fn run_traced(
    rec: &Rec,
    exe: &Executable,
    e: usize,
) -> Result<(f90y_core::TargetPrediction, HostRun, u64), String> {
    let text = |e: f90y_backend::BackendError| e.to_string();
    match e {
        0 => {
            let cm = span(rec, ledger::CM2.store, || exe.pipeline.machine(16));
            let mut m = Timed::new(cm, rec, &ledger::CM2);
            let finals = span(rec, "fe.cm2", || {
                HostExecutor::new(&mut m).run(&exe.compiled)
            })
            .map_err(text)?;
            let s = m.inner.stats();
            span(rec, ledger::CM2.store, || drop(m));
            Ok((gate::cm2_counters(&s), finals, s.flops))
        }
        1 => {
            let engine = span(rec, ledger::CM5.store, || {
                MimdMachine::new(MimdConfig::new(16).with_host_threads(1))
            });
            let mut m = Timed::new(engine, rec, &ledger::CM5);
            let finals = span(rec, "fe.cm5", || {
                HostExecutor::new(&mut m).run(&exe.compiled)
            })
            .map_err(text)?;
            let counters = gate::cm5_counters(m.inner.stats());
            let flops = m.inner.stats().flops;
            span(rec, ledger::CM5.store, || drop(m));
            Ok((counters, finals, flops))
        }
        _ => {
            let dev = span(rec, ledger::ACCEL.store, || {
                Accel::new(AccelConfig::new(16))
            });
            let mut m = Timed::new(dev, rec, &ledger::ACCEL);
            let finals = span(rec, "fe.accel", || {
                HostExecutor::new(&mut m).run(&exe.compiled)
            })
            .map_err(text)?;
            let s = m.inner.stats();
            span(rec, ledger::ACCEL.store, || drop(m));
            Ok((gate::accel_counters(&s), finals, s.flops))
        }
    }
}

/// Counts the traced rounds accumulate alongside the spans.
#[derive(Default)]
struct Counts {
    tokens: u64,
    rewrites: u64,
    clauses: u64,
    pe_instructions: u64,
    flops: [u64; 3],
    shifted_elems: [u64; 3],
    messages: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    latency_hit_ms: Vec<f64>,
    latency_miss_ms: Vec<f64>,
    work_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
}

/// One traced round.
#[allow(clippy::too_many_arguments)]
fn traced_round(
    w: &Workload,
    rec: &Rec,
    origin: Instant,
    engine: &f90y_serve::engine::Engine,
    obs: &mut Observed,
    cursor: &mut usize,
    tally: &mut Tally,
    counts: &mut Counts,
    clients: &mut Vec<Recorder>,
    first: bool,
) {
    let schedules: Vec<Vec<Unit>> = PIPELINES.iter().map(|&p| schedule(p)).collect();
    let tokens: Vec<u64> = w
        .programs
        .iter()
        .map(|p| f90y_frontend::lexer::lex(&p.source).map_or(0, |t| t.len() as u64))
        .collect();
    let shifted: Vec<u64> = obs
        .exes
        .iter()
        .map(|exe| {
            exe.static_profile().map_or(0, |p| {
                p.shifts
                    .iter()
                    .map(|s| s.dims.iter().product::<usize>() as u64)
                    .sum()
            })
        })
        .collect();

    let mut runs = Vec::new();
    rec.borrow_mut().begin("round");
    // Compile.
    for (i, p) in w.programs.iter().enumerate() {
        for (k, &pipeline) in PIPELINES.iter().enumerate() {
            rec.borrow_mut().detail = detail(i, k);
            let r = compile_traced(rec, &p.source, pipeline, &schedules[k]);
            let what = format!("traced compile {} {pipeline:?}", p.label);
            if let Some(c) = tally.check(&what, r) {
                counts.tokens += tokens[i];
                counts.rewrites += c.rewrites;
                counts.clauses += c.clauses;
                counts.pe_instructions += c.compiled.pe_stats().instructions as u64;
                if first && pipeline == Pipeline::F90y {
                    // The outside-in schedule must be the compiler's own.
                    let same = c.optimized.to_string() == obs.exes[i].optimized.to_string()
                        && c.compiled.listings() == obs.exes[i].compiled.listings();
                    let r = if same {
                        Ok(())
                    } else {
                        Err("differs from Compiler::compile")
                    };
                    tally.check(&format!("outside-in compile of {}", p.label), r);
                }
            }
        }
    }
    // Analyze.
    for (i, p) in w.programs.iter().enumerate() {
        rec.borrow_mut().detail = detail(i, STAGE_EXEC);
        let exe = &obs.exes[i];
        let nir = span(rec, "frontend.parse", || {
            f90y_frontend::parse_file(&p.source)
        })
        .map_err(|e| e.to_string())
        .and_then(|f| {
            span(rec, "lowering.lower", || f90y_lowering::lower_file(&f)).map_err(|e| e.to_string())
        });
        if let Some(nir) = tally.check(&format!("traced parse {}", p.label), nir) {
            counts.tokens += tokens[i];
            std::hint::black_box(span(rec, "analysis.lint", || f90y_analysis::lint(&nir)));
        }
        std::hint::black_box(span(rec, "analysis.comm_plan", || {
            f90y_analysis::comm_plan(&exe.optimized)
        }));
        let predicted = span(rec, "analysis.predict", || {
            f90y_backend::plan::profile(&exe.compiled).map(|prof| TARGETS.map(|t| fold(&prof, t)))
        });
        tally.check(&format!("traced predict {}", p.label), predicted);
    }
    // Run each program on each engine, and after each engine serve a
    // third of the round's chunk of the stream.
    let before = engine.stats().cache;
    let mut served = Vec::new();
    for (e, engine_name) in ENGINES.iter().enumerate() {
        for (i, exe) in obs.exes.iter().enumerate() {
            rec.borrow_mut().detail = detail(i, STAGE_EXEC);
            let r = run_traced(rec, exe, e);
            let what = format!("traced run {} on {}", w.programs[i].label, engine_name);
            if let Some((observed, finals, flops)) = tally.check(&what, r) {
                counts.flops[e] += flops;
                counts.shifted_elems[e] += shifted[i];
                if let f90y_core::TargetPrediction::Cm5 { messages, .. } = observed {
                    counts.messages += messages;
                }
                runs.push((i, e, observed, finals));
            }
        }
        rec.borrow_mut().begin("serve.phase");
        let (chunk, _, recs) = serve_chunk(engine, &w.stream, *cursor, SERVE_PART, Some(origin));
        rec.borrow_mut().end();
        *cursor += SERVE_PART;
        clients.extend(recs);
        served.extend(chunk);
    }
    rec.borrow_mut().end(); // round
    let after = engine.stats().cache;
    for (i, e, observed, finals) in runs {
        obs.record(i, e, observed, &finals);
    }
    counts.hits += after.hits - before.hits;
    counts.misses += after.misses - before.misses;
    counts.evictions += after.evictions - before.evictions;

    // Outside the round: replay one chunk's requests straight through
    // the compiler and the engine for their work time.
    for s in served.iter().take(SERVE_CHUNK) {
        let Ok(req) = Request::parse(&w.stream[s.line]) else {
            continue;
        };
        let direct = gate::direct(&req);
        let lat = s.latency.as_secs_f64() * 1e3;
        let hit = matches!(&s.response, Response::Done(d) if d.cache == "hit");
        let work = if hit {
            direct.work
        } else {
            direct.compile + direct.work
        };
        counts.work_ms.push(work.as_secs_f64() * 1e3);
        counts.overhead_ms.push(lat - work.as_secs_f64() * 1e3);
        if hit {
            counts.latency_hit_ms.push(lat);
        } else if matches!(&s.response, Response::Done(d) if d.cache == "miss") {
            counts.latency_miss_ms.push(lat);
        }
    }
    obs.served.extend(served);
}

/// On/off cost of the program's own instrumentation per engine: a
/// flight-recorder trace sink against none, and a recording telemetry
/// collector against a disabled one. Ratios of medians, minus one.
fn obs_overheads(obs: &Observed, tally: &mut Tally, report: &mut Report) {
    for (e, target) in TARGETS.into_iter().enumerate() {
        let mut secs: [Vec<f64>; 3] = Default::default();
        for _ in 0..OBS_REPS {
            for (mode, samples) in secs.iter_mut().enumerate() {
                let mut total = 0.0;
                for exe in &obs.exes {
                    let mut buf = TraceBuffer::new();
                    let mut tel = if mode == 2 {
                        Telemetry::new()
                    } else {
                        Telemetry::disabled()
                    };
                    let session = exe.session(target).host_threads(1).telemetry(&mut tel);
                    let session = if mode == 1 {
                        session.trace(&mut buf)
                    } else {
                        session
                    };
                    let t = Instant::now();
                    let r = session.run();
                    total += t.elapsed().as_secs_f64();
                    tally.check(&format!("instrumented run on {}", ENGINES[e]), r);
                }
                samples.push(total);
            }
        }
        let plain = median(&secs[0]);
        report.put(
            format!("obs.trace_overhead.{}", ENGINES[e]),
            median(&secs[1]) / plain - 1.0,
            "ratio",
            OBS_REPS,
        );
        report.put(
            format!("obs.telemetry_overhead.{}", ENGINES[e]),
            median(&secs[2]) / plain - 1.0,
            "ratio",
            OBS_REPS,
        );
    }
}

pub fn run(
    w: &Workload,
    args: &Args,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<(), String> {
    let Setup { exes, engine } = setup(w)?;
    let origin = Instant::now();
    let rec = Rec::new(Recorder::new(origin));
    let mut obs = Observed::new(exes);
    let mut counts = Counts::default();
    let mut clients = Vec::new();
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut cursor = 0usize;
    let start = Instant::now();
    // A first, uncounted round fills the compile cache and the
    // allocator, so neither side of the comparison pays for a cold start.
    let mut samples = Samples::default();
    plain_round(w, &engine, &mut obs, &mut cursor, tally, &mut samples);
    while traced_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        traced_round(
            w,
            &rec,
            origin,
            &engine,
            &mut obs,
            &mut cursor,
            tally,
            &mut counts,
            &mut clients,
            traced_s.is_empty(),
        );
        // The round's own span covers it; the replay after it is not
        // part of the traced end-to-end time.
        let round_ns = rec
            .borrow()
            .spans
            .iter()
            .rev()
            .find(|s| s.layer == "round")
            .expect("every traced round records its span")
            .dur_ns;
        traced_s.push(round_ns as f64 / 1e9);
        let r = plain_round(w, &engine, &mut obs, &mut cursor, tally, &mut samples);
        // One compile and one analyze repetition, as in a traced round.
        plain_s.push(
            r.compile_s + r.analyze_s + r.run_s.iter().sum::<f64>() + r.serve_wall.as_secs_f64(),
        );
    }
    engine.shutdown();
    obs_overheads(&obs, tally, report);

    let rec = rec.into_inner();
    layer_report(&rec, &clients, &counts, traced_s.len(), report);
    report.put("trace.e2e_s", median(&traced_s), "s", traced_s.len());
    report.put("trace.untraced_s", median(&plain_s), "s", plain_s.len());
    let overhead = median(&traced_s) - median(&plain_s);
    report.put("trace.overhead_s", overhead, "s", traced_s.len());

    print_top_layers(w, &rec);
    write_trace(w, args, &rec, &clients)?;
    gate::check(w, &obs, tally);
    Ok(())
}

/// The per-layer ledger: each layer's self time per traced round, with
/// the counts that normalise it.
fn layer_report(
    rec: &Recorder,
    clients: &[Recorder],
    counts: &Counts,
    n: usize,
    report: &mut Report,
) {
    let rounds = n as f64;
    let layers = rec.self_times();
    let get = |k: &str| layers.get(k).copied().unwrap_or((0, 0));
    let secs = |k: &str| get(k).0 as f64 / 1e9 / rounds;
    let calls = |k: &str| get(k).1 as f64 / rounds;
    let mut put = |name: String, value: f64, unit: &'static str| report.put(name, value, unit, n);

    for (e, name) in ENGINES.iter().enumerate() {
        let key = |l: &str| format!("{name}.{l}");
        let comm = secs(&key("shift")) + secs(&key("reduce")) + secs(&key("router"));
        put(key("dispatch_s"), secs(&key("dispatch")), "s");
        put(key("dispatch_calls"), calls(&key("dispatch")), "count");
        let dispatch_ns = get(&key("dispatch")).0 as f64;
        put(
            key("ns_per_flop"),
            dispatch_ns / counts.flops[e] as f64,
            "ns/flop",
        );
        put(key("comm_s"), comm, "s");
        put(key("shift_calls"), calls(&key("shift")), "count");
        put(key("reduce_calls"), calls(&key("reduce")), "count");
        let shift_ns = get(&key("shift")).0 as f64;
        put(
            key("ns_per_shifted_elem"),
            shift_ns / counts.shifted_elems[e] as f64,
            "ns/elem",
        );
        put(key("store_s"), secs(&key("store")), "s");
        put(key("host_elem_s"), secs(&key("host_elem")), "s");
        put(key("host_elem_calls"), calls(&key("host_elem")), "count");
        put(
            format!("fe.{name}.self_s"),
            secs(&format!("fe.{name}")),
            "s",
        );
    }
    let cm5_comm = secs("cm5.shift") + secs("cm5.reduce") + secs("cm5.router");
    let messages = counts.messages as f64 / rounds;
    put("cm5.messages".into(), messages, "count");
    put(
        "cm5.ns_per_message".into(),
        cm5_comm * 1e9 / messages,
        "ns/msg",
    );

    put("frontend.parse_s".into(), secs("frontend.parse"), "s");
    put(
        "frontend.tokens".into(),
        counts.tokens as f64 / rounds,
        "count",
    );
    put("lowering.lower_s".into(), secs("lowering.lower"), "s");
    for pass in f90y_transform::pass::PASS_NAMES {
        put(format!("transform.{pass}.s"), secs(pass_layer(pass)), "s");
    }
    put("transform.body_s".into(), secs("transform.body"), "s");
    put(
        "transform.rewrites".into(),
        counts.rewrites as f64 / rounds,
        "count",
    );
    put(
        "transform.clauses_after".into(),
        counts.clauses as f64 / rounds,
        "count",
    );
    put("backend.codegen_s".into(), secs("backend.codegen"), "s");
    put("baselines.codegen_s".into(), secs("baselines.codegen"), "s");
    let pe = counts.pe_instructions as f64 / rounds;
    put("backend.pe_instructions".into(), pe, "count");
    put("analysis.lint_s".into(), secs("analysis.lint"), "s");
    put(
        "analysis.comm_plan_s".into(),
        secs("analysis.comm_plan"),
        "s",
    );
    put("analysis.predict_s".into(), secs("analysis.predict"), "s");

    // Serve: the main track sees one span per part of a chunk; the client
    // tracks split each request into parse, submit, wait and encode.
    put("serve.phase_s".into(), secs("serve.phase"), "s");
    for step in ["parse", "submit", "wait", "encode"] {
        let layer = format!("serve.{step}");
        let (ns, calls) = clients
            .iter()
            .filter_map(|c| c.self_times().get(layer.as_str()).copied())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        put(
            format!("{layer}_us"),
            ns as f64 / 1e3 / calls.max(1) as f64,
            "us",
        );
    }
    let lookups = (counts.hits + counts.misses).max(1) as f64;
    put(
        "serve.cache_hit_ratio".into(),
        counts.hits as f64 / lookups,
        "ratio",
    );
    put(
        "serve.cache_evictions".into(),
        counts.evictions as f64 / rounds,
        "count",
    );
    put(
        "serve.latency_hit_ms".into(),
        median(&counts.latency_hit_ms),
        "ms",
    );
    put(
        "serve.latency_miss_ms".into(),
        median(&counts.latency_miss_ms),
        "ms",
    );
    put("serve.work_ms".into(), median(&counts.work_ms), "ms");
    put(
        "serve.overhead_ms".into(),
        median(&counts.overhead_ms),
        "ms",
    );

    // Tiling: every span lies inside a round, so the layers' self times
    // plus the rounds' own self time are exactly the rounds' duration.
    let total: u64 = layers.values().map(|v| v.0).sum();
    let layered = total - get("round").0;
    put(
        "trace.coverage".into(),
        layered as f64 / total as f64,
        "ratio",
    );
}

/// Per program, the largest layers by self time — where each program's
/// host time goes.
fn print_top_layers(w: &Workload, rec: &Recorder) {
    let mut by: HashMap<u32, BTreeMap<&str, u64>> = HashMap::new();
    for (s, own) in rec.spans.iter().zip(rec.self_ns()) {
        if s.layer == "round" || s.layer == "serve.phase" {
            continue;
        }
        *by.entry(s.detail).or_default().entry(s.layer).or_default() += own;
    }
    for (d, label) in detail_labels(w).iter().enumerate() {
        let Some(layers) = by.get(&(d as u32)) else {
            continue;
        };
        let total: u64 = layers.values().sum();
        let mut top: Vec<_> = layers.iter().collect();
        top.sort_by(|a, b| b.1.cmp(a.1));
        let shown: Vec<String> = top
            .iter()
            .take(5)
            .map(|(k, ns)| format!("{k} {:.1}%", **ns as f64 * 100.0 / total as f64))
            .collect();
        eprintln!("hostbench: {label} top layers: {}", shown.join(", "));
    }
}

fn write_trace(
    w: &Workload,
    args: &Args,
    rec: &Recorder,
    clients: &[Recorder],
) -> Result<(), String> {
    let mut tracks: Vec<(String, &Recorder)> = vec![("main".into(), rec)];
    for (k, c) in clients.iter().enumerate() {
        tracks.push((format!("serve-client-{}", k % crate::CLIENTS), c));
    }
    let json = ledger::chrome_trace(w.name, &tracks, &detail_labels(w));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.trace.json", w.name, args.seed));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("hostbench: wrote {}", path.display());
    Ok(())
}
