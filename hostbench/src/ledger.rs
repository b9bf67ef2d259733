//! Outside-in host-clock spans: the benchmark wraps its calls into each
//! module's public functions in spans, keeps every span in memory, and
//! writes them once at the end as Chrome trace-event JSON (the format
//! `f90yc --emit-trace` flight recordings use, so both open in
//! Perfetto side by side).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use f90y_backend::machine::Machine;
use f90y_cm2::runtime::ReduceOp;
use f90y_cm2::Cm2Error;
use f90y_peac::Routine;

/// No parent: a track's root span.
const ROOT: u32 = u32::MAX;

/// One timed call into a layer.
pub struct Span {
    /// Layer key, e.g. `cm2.dispatch` or `transform.comm-cse`.
    pub layer: &'static str,
    /// What the call was about (a program label, a request id), for the
    /// trace viewer.
    pub detail: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub parent: u32,
}

/// The spans of one thread of the benchmark.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    /// Detail stamped on spans begun from now on.
    pub detail: u32,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            detail: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            detail: self.detail,
            start_ns,
            dur_ns: 0,
            parent,
        });
        self.open.push(id);
    }

    pub fn end(&mut self) {
        let end = self.now_ns();
        let id = self.open.pop().expect("end() matches a begin()") as usize;
        self.spans[id].dur_ns = end - self.spans[id].start_ns;
    }

    /// Each span's self time: its duration minus the part its children
    /// cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                own[s.parent as usize] -= s.dur_ns;
            }
        }
        own
    }

    /// Per-layer self time and call count over every span so far.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.layer).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }
}

/// A shared handle the engine wrapper and the main thread both record into.
pub type Rec = RefCell<Recorder>;

/// Run `f` inside a span.
pub fn span<T>(rec: &Rec, layer: &'static str, f: impl FnOnce() -> T) -> T {
    rec.borrow_mut().begin(layer);
    let out = f();
    rec.borrow_mut().end();
    out
}

/// Layer keys of one engine's machine calls. Shifts, reductions and
/// router moves are the engine's communication; host element access
/// and host-op charges its serial front-end traffic.
pub struct EngineLayers {
    pub dispatch: &'static str,
    pub shift: &'static str,
    pub reduce: &'static str,
    pub router: &'static str,
    pub store: &'static str,
    pub host_elem: &'static str,
}

pub const CM2: EngineLayers = EngineLayers {
    dispatch: "cm2.dispatch",
    shift: "cm2.shift",
    reduce: "cm2.reduce",
    router: "cm2.router",
    store: "cm2.store",
    host_elem: "cm2.host_elem",
};
pub const CM5: EngineLayers = EngineLayers {
    dispatch: "cm5.dispatch",
    shift: "cm5.shift",
    reduce: "cm5.reduce",
    router: "cm5.router",
    store: "cm5.store",
    host_elem: "cm5.host_elem",
};
pub const ACCEL: EngineLayers = EngineLayers {
    dispatch: "accel.dispatch",
    shift: "accel.shift",
    reduce: "accel.reduce",
    router: "accel.router",
    store: "accel.store",
    host_elem: "accel.host_elem",
};

/// A [`Machine`] that times every trait call and delegates it to the
/// engine underneath. `HostExecutor` drives it exactly as `Session::run`
/// drives the bare engine.
pub struct Timed<'r, M> {
    pub inner: M,
    rec: &'r Rec,
    layers: &'static EngineLayers,
}

impl<'r, M> Timed<'r, M> {
    pub fn new(inner: M, rec: &'r Rec, layers: &'static EngineLayers) -> Self {
        Timed { inner, rec, layers }
    }
}

impl<M: Machine> Machine for Timed<'_, M> {
    type Id = M::Id;

    fn alloc_with_bounds(&mut self, dims: &[usize], lower: &[i64]) -> M::Id {
        let inner = &mut self.inner;
        span(self.rec, self.layers.store, || {
            inner.alloc_with_bounds(dims, lower)
        })
    }

    fn alloc(&mut self, dims: &[usize]) -> M::Id {
        let inner = &mut self.inner;
        span(self.rec, self.layers.store, || inner.alloc(dims))
    }

    fn alloc_from(&mut self, dims: &[usize], data: Vec<f64>) -> M::Id {
        let inner = &mut self.inner;
        span(self.rec, self.layers.store, || inner.alloc_from(dims, data))
    }

    fn free(&mut self, id: M::Id) -> Result<(), Cm2Error> {
        let inner = &mut self.inner;
        span(self.rec, self.layers.store, || inner.free(id))
    }

    fn read(&self, id: M::Id) -> Result<Vec<f64>, Cm2Error> {
        span(self.rec, self.layers.store, || self.inner.read(id))
    }

    fn write(&mut self, id: M::Id, data: &[f64]) -> Result<(), Cm2Error> {
        let inner = &mut self.inner;
        span(self.rec, self.layers.store, || inner.write(id, data))
    }

    fn dispatch(
        &mut self,
        routine: &Routine,
        ptr_args: &[M::Id],
        scalar_args: &[f64],
    ) -> Result<(), Cm2Error> {
        let inner = &mut self.inner;
        span(self.rec, self.layers.dispatch, || {
            inner.dispatch(routine, ptr_args, scalar_args)
        })
    }

    fn cshift(&mut self, src: M::Id, axis: usize, shift: i64) -> Result<M::Id, Cm2Error> {
        let inner = &mut self.inner;
        span(self.rec, self.layers.shift, || {
            inner.cshift(src, axis, shift)
        })
    }

    fn eoshift(
        &mut self,
        src: M::Id,
        axis: usize,
        shift: i64,
        boundary: f64,
    ) -> Result<M::Id, Cm2Error> {
        let inner = &mut self.inner;
        span(self.rec, self.layers.shift, || {
            inner.eoshift(src, axis, shift, boundary)
        })
    }

    fn reduce(&mut self, src: M::Id, op: ReduceOp) -> Result<f64, Cm2Error> {
        let inner = &mut self.inner;
        span(self.rec, self.layers.reduce, || inner.reduce(src, op))
    }

    fn coordinates(&mut self, dims: &[usize], lower: &[i64], axis: usize) -> M::Id {
        let inner = &mut self.inner;
        span(self.rec, self.layers.store, || {
            inner.coordinates(dims, lower, axis)
        })
    }

    fn charge_router_move(&mut self, id: M::Id) -> Result<(), Cm2Error> {
        let inner = &mut self.inner;
        span(self.rec, self.layers.router, || {
            inner.charge_router_move(id)
        })
    }

    fn charge_host_ops(&mut self, n: u64) {
        let inner = &mut self.inner;
        span(self.rec, self.layers.host_elem, || inner.charge_host_ops(n))
    }

    fn host_read_elem(&mut self, id: M::Id, flat: usize) -> Result<f64, Cm2Error> {
        let inner = &mut self.inner;
        span(self.rec, self.layers.host_elem, || {
            inner.host_read_elem(id, flat)
        })
    }

    fn host_write_elem(&mut self, id: M::Id, flat: usize, v: f64) -> Result<(), Cm2Error> {
        let inner = &mut self.inner;
        span(self.rec, self.layers.host_elem, || {
            inner.host_write_elem(id, flat, v)
        })
    }
}

/// Chrome trace-event JSON of every track: one complete (`"ph":"X"`)
/// event per span, with the span's id, parent id, detail and the
/// workload in `args`. `tracks` pairs a thread name with its recorder;
/// `labels` names the programs that span details index on the main
/// track (serve tracks stamp the request's stream line instead).
pub fn chrome_trace(workload: &str, tracks: &[(String, &Recorder)], labels: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"hostbench {workload}\",\"programs\":\"{}\"}}}}",
        labels.join(",")
    );
    for (tid, (name, rec)) in tracks.iter().enumerate() {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
        );
        for (id, s) in rec.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{name}\",\"cat\":\"{cat}\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"detail\":{detail},\"workload\":\"{workload}\"}}}}",
                name = s.layer,
                cat = s.layer.split('.').next().unwrap_or(""),
                ts = s.start_ns as f64 / 1e3,
                dur = s.dur_ns as f64 / 1e3,
                detail = s.detail,
            );
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}
