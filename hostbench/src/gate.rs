//! The correctness gate: every check here counts as an attempted
//! operation and every mismatch as a failed one.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use f90y_backend::fe::{Final, HostRun};
use f90y_core::{AccelStats, Compiler, Executable, MachineStats, MimdStats, Run, TargetPrediction};
use f90y_nir::eval::Evaluator;
use f90y_serve::engine::{executable_fingerprint, finals_fingerprint};
use f90y_serve::protocol::{Request, RequestKind, Response};

use crate::{Served, Tally, Workload, ENGINES, PIPELINES, TARGETS};

/// What the timed (or traced) rounds produced, for checking afterwards.
pub struct Observed {
    pub exes: Vec<Executable>,
    /// Per program and engine: the counters of the first run.
    pub counters: Vec<[Option<TargetPrediction>; 3]>,
    /// Per program: the finals of its first run. Runs on every engine
    /// must fingerprint bit-identical to it, so one copy is checked
    /// against the evaluator for all of them.
    pub finals: Vec<Option<HostRun>>,
    /// Per program and engine: the finals fingerprint of every run.
    pub fingerprints: Vec<[Vec<String>; 3]>,
    pub served: Vec<Served>,
}

impl Observed {
    pub fn new(exes: Vec<Executable>) -> Observed {
        let n = exes.len();
        Observed {
            exes,
            counters: (0..n).map(|_| [None, None, None]).collect(),
            finals: (0..n).map(|_| None).collect(),
            fingerprints: (0..n).map(|_| Default::default()).collect(),
            served: Vec::new(),
        }
    }

    /// Record one run of program `i` on engine `e`.
    pub fn record(&mut self, i: usize, e: usize, counters: TargetPrediction, finals: &HostRun) {
        self.fingerprints[i][e].push(finals_fingerprint(finals));
        self.counters[i][e].get_or_insert(counters);
        if self.finals[i].is_none() {
            self.finals[i] = Some(finals.clone());
        }
    }
}

pub fn cm2_counters(s: &MachineStats) -> TargetPrediction {
    TargetPrediction::Cm2 {
        dispatches: s.dispatches,
        comm_calls: s.comm_calls,
        reductions: s.reductions,
    }
}

pub fn cm5_counters(s: &MimdStats) -> TargetPrediction {
    TargetPrediction::Cm5 {
        dispatches: s.dispatches,
        comm_calls: s.comm_calls,
        halo_exchanges: s.halo_exchanges,
        router_batches: s.router_batches,
        reductions: s.reductions,
        supersteps: s.supersteps,
        messages: s.messages,
    }
}

pub fn accel_counters(s: &AccelStats) -> TargetPrediction {
    TargetPrediction::Accel {
        kernel_launches: s.kernel_launches,
        h2d_transfers: s.h2d_transfers,
        d2h_transfers: s.d2h_transfers,
        comm_calls: s.comm_calls,
        reductions: s.reductions,
    }
}

/// The counters a `Session` run reports, in prediction form.
pub fn counters(run: &Run) -> TargetPrediction {
    match run {
        Run::Cm2(r) => cm2_counters(&r.stats),
        Run::Mimd(r) => cm5_counters(&r.stats),
        Run::Accel(r) => accel_counters(&r.stats),
    }
}

/// Every final the evaluator also has must agree with it within
/// `Executable::validate`'s tolerance (transformation temporaries have
/// no counterpart in the unoptimized program and are skipped).
fn matches_reference(ev: &Evaluator, finals: &HostRun) -> Result<(), String> {
    let close = |e: f64, g: f64| (e - g).abs() <= 1e-9 * e.abs().max(1.0);
    for (name, value) in finals.finals() {
        if ev.final_cell(name).is_none() {
            continue;
        }
        match value {
            Final::Array(got) => {
                let expect = ev.final_array_f64(name).map_err(|e| e.to_string())?;
                if expect.len() != got.len() {
                    return Err(format!(
                        "{name}: {} elements, expected {}",
                        got.len(),
                        expect.len()
                    ));
                }
                if let Some(i) = (0..got.len()).find(|&i| !close(expect[i], got[i])) {
                    return Err(format!(
                        "{name}[{i}] evaluator={} machine={}",
                        expect[i], got[i]
                    ));
                }
            }
            Final::Scalar(got) => {
                let expect = ev.final_scalar_f64(name).map_err(|e| e.to_string())?;
                if !close(expect, *got) {
                    return Err(format!("{name} evaluator={expect} machine={got}"));
                }
            }
        }
    }
    Ok(())
}

/// What a served reply must carry, worked out without the serve layer.
#[derive(PartialEq)]
pub enum Expect {
    Fingerprint(String),
    Warnings(Vec<String>),
}

/// A request replayed straight through `Compiler` and `Session`: the
/// expected reply and the host time the compile and the run (or lint)
/// took.
pub struct Direct {
    pub expect: Result<Expect, String>,
    pub compile: Duration,
    pub work: Duration,
}

pub fn direct(req: &Request) -> Direct {
    let compiler = Compiler::new(req.pipeline);
    if req.kind == RequestKind::Lint {
        let t = Instant::now();
        let expect = compiler
            .lint(&req.source)
            .map(|r| Expect::Warnings(r.diagnostics.iter().map(|d| d.code.to_string()).collect()))
            .map_err(|e| e.to_string());
        return Direct {
            expect,
            compile: Duration::ZERO,
            work: t.elapsed(),
        };
    }
    let t = Instant::now();
    let exe = compiler.compile(&req.source);
    let compile = t.elapsed();
    let t = Instant::now();
    let expect = match (exe, req.kind) {
        (Err(e), _) => Err(e.to_string()),
        (Ok(exe), RequestKind::Compile) => Ok(Expect::Fingerprint(executable_fingerprint(&exe))),
        (Ok(exe), _) => exe
            .session(req.target)
            .host_threads(req.host_threads)
            .run()
            .map(|run| Expect::Fingerprint(finals_fingerprint(run.finals())))
            .map_err(|e| e.to_string()),
    };
    Direct {
        expect,
        compile,
        work: t.elapsed(),
    }
}

/// The key of a request's direct replay: everything but id and tenant.
fn replay_key(req: &Request) -> String {
    let (target, nodes) = req.target_parts();
    format!(
        "{}|{}|{target}|{nodes}|{}",
        req.kind.as_str(),
        req.pipeline_name(),
        req.source
    )
}

pub fn check(w: &Workload, obs: &Observed, tally: &mut Tally) {
    for (i, exe) in obs.exes.iter().enumerate() {
        let label = &w.programs[i].label;
        // Finals bit-identical across engines and across rounds.
        let prints: Vec<&String> = obs.fingerprints[i].iter().flatten().collect();
        match prints.first() {
            None => tally.fail(format!("{label}: no run succeeded")),
            Some(first) if prints.iter().all(|p| p == first) => tally.ok(),
            Some(_) => tally.fail(format!("{label}: finals differ across engines or rounds")),
        }
        // Finals equal to the NIR evaluator's, computed once, here,
        // outside the timed phase and outside set-up.
        if let Some(finals) = &obs.finals[i] {
            let mut ev = Evaluator::new();
            let r = ev
                .run(&exe.nir)
                .map_err(|e| format!("evaluator failed: {e}"))
                .and_then(|()| matches_reference(&ev, finals));
            tally.check(&format!("{label} vs evaluator"), r);
        }
        for (e, observed) in obs.counters[i].iter().enumerate() {
            let Some(observed) = observed else {
                continue;
            };
            let engine = ENGINES[e];
            // Counters equal to the static prediction.
            match exe.predict(TARGETS[e]) {
                Ok(p) if p == *observed => tally.ok(),
                Ok(p) => tally.fail(format!(
                    "{label} on {engine}: counters {observed:?} != predicted {p:?}"
                )),
                Err(err) => tally.fail(format!("{label} on {engine}: no prediction: {err}")),
            }
        }
    }

    if w.validate_pipelines {
        for p in &w.programs {
            for pipeline in PIPELINES {
                let r = Compiler::new(pipeline)
                    .compile(&p.source)
                    .map_err(|e| e.to_string())
                    .and_then(|exe| exe.validate().map_err(|e| e.to_string()));
                tally.check(&format!("validate {} {pipeline:?}", p.label), r);
            }
        }
    }

    check_served(w, &obs.served, tally);
}

/// Every reply must match the direct replay of its request; errors and
/// refusals are failures. Each distinct request is replayed once.
fn check_served(w: &Workload, served: &[Served], tally: &mut Tally) {
    let mut memo: HashMap<String, Direct> = HashMap::new();
    for s in served {
        let req = match Request::parse(&w.stream[s.line]) {
            Ok(req) => req,
            Err(e) => {
                tally.fail(format!("stream line {}: {e}", s.line));
                continue;
            }
        };
        let want = &memo
            .entry(replay_key(&req))
            .or_insert_with(|| direct(&req))
            .expect;
        let got = match &s.response {
            Response::Done(d) if d.kind == RequestKind::Lint => {
                Some(Expect::Warnings(d.warnings.clone()))
            }
            Response::Done(d) => d.fingerprint.clone().map(Expect::Fingerprint),
            Response::Error(_) => None,
        };
        match (got, want) {
            (Some(g), Ok(w)) if g == *w => tally.ok(),
            _ => tally.fail(format!(
                "request {} ({} on line {}): reply {} does not match the direct replay",
                req.id,
                req.kind.as_str(),
                s.line,
                s.response.to_json()
            )),
        }
    }
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Rusage {
        utime: [c_long; 2],
        stime: [c_long; 2],
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of Linux's `struct rusage` (two
    // `timeval`s of two longs, then fourteen longs), and `usage` is a
    // valid, exclusively borrowed instance for the call to fill.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.maxrss as f64 / 1024.0
}
