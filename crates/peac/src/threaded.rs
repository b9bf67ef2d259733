//! Slab execution: a routine's body run op by op over slabs of
//! elements, in place over the caller's buffers.
//!
//! [`CompiledBlock::compile`] decodes the body into small `Copy` ops
//! whose operands are resolved to a vector register, a broadcast scalar
//! or a pointer stream. Execution walks the element space in slabs of up
//! to [`SLAB`] elements and runs each op over the whole slab before the
//! next: a `match`, then a lanewise loop over equal-length slices that
//! the compiler can vectorise. The last slab is simply shorter; nothing
//! is padded.
//!
//! The validator guarantees every vector register is defined in the
//! body before it is read, and every op is lanewise, so op-major order
//! over a slab computes exactly what the body computes element by
//! element: the same IEEE operations in the same order (`fmaddv` stays
//! `x*y + z` with two roundings). Only two streams into one buffer at
//! different bases, overlapping while one is stored, could tell the
//! orders apart; the executor refuses them on entry with a typed
//! [`PeacError::Fault`]. [`ExecStats`] follow the modelled four-wide
//! machine, not the host strategy. Decoding costs a few dozen
//! instructions against slabs of hundreds of elements, so callers
//! decode per dispatch and keep no cache (DESIGN.md §14).

use crate::costs;
use crate::isa::{CmpOp, Instr, LibOp, Operand, PReg, Routine, VReg, NUM_VREGS, VLEN};
use crate::sim::{ExecStats, NodeMemory, Ptr};
use crate::PeacError;

/// Elements per slab: each op runs over this many elements (fewer in
/// the last slab) before the next op starts.
pub const SLAB: usize = 256;

/// Lanewise functions of one operand.
#[derive(Debug, Clone, Copy)]
enum Un {
    Neg,
    Abs,
    Trunc,
    Sqrt,
    Sin,
    Cos,
    Exp,
    Log,
}

/// Lanewise functions of two operands.
#[derive(Debug, Clone, Copy)]
enum Bin {
    Add,
    Sub,
    Mul,
    Div,
    Max,
    Min,
    Pow,
    Cmp(CmpOp),
}

/// One decoded instruction. Arithmetic operands stay [`Operand`]s (a
/// vector register, a broadcast scalar or a pointer stream, by index);
/// registers and streams are `u8` indices, spill slots `u16`; the last
/// field is the destination.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Stream, destination register.
    Load(u8, u8),
    /// Source register, stream.
    Store(u8, u8),
    Imm(f64, u8),
    SpillStore(u8, u16),
    SpillLoad(u16, u8),
    Un(Un, Operand, u8),
    Bin(Bin, Operand, Operand, u8),
    Madd(Operand, Operand, Operand, u8),
    /// Mask, then the lanes picked where it is nonzero and where it is
    /// zero.
    Sel(Operand, Operand, Operand, u8),
}

fn decode(i: &Instr) -> Op {
    use Instr::*;
    let bin = |f, a, b, d: VReg| Op::Bin(f, a, b, d.0);
    match *i {
        Flodv { src, dst, .. } => Op::Load(src.ptr.0, dst.0),
        Fstrv { src, dst, .. } => Op::Store(src.0, dst.ptr.0),
        Fimmv { value, dst } => Op::Imm(value, dst.0),
        SpillStore { src, slot, .. } => Op::SpillStore(src.0, slot),
        SpillLoad { slot, dst, .. } => Op::SpillLoad(slot, dst.0),
        Fnegv { a, dst } => Op::Un(Un::Neg, a, dst.0),
        Fabsv { a, dst } => Op::Un(Un::Abs, a, dst.0),
        Ftruncv { a, dst } => Op::Un(Un::Trunc, a, dst.0),
        Flib { op, a, b, dst } => {
            let f = match op {
                LibOp::Sqrt => Un::Sqrt,
                LibOp::Sin => Un::Sin,
                LibOp::Cos => Un::Cos,
                LibOp::Exp => Un::Exp,
                LibOp::Log => Un::Log,
                LibOp::Pow => {
                    let b = b.expect("validator guarantees Pow arity");
                    return bin(Bin::Pow, a, b, dst);
                }
            };
            Op::Un(f, a, dst.0)
        }
        Faddv { a, b, dst } => bin(Bin::Add, a, b, dst),
        Fsubv { a, b, dst } => bin(Bin::Sub, a, b, dst),
        Fmulv { a, b, dst } => bin(Bin::Mul, a, b, dst),
        Fdivv { a, b, dst } => bin(Bin::Div, a, b, dst),
        Fmaxv { a, b, dst } => bin(Bin::Max, a, b, dst),
        Fminv { a, b, dst } => bin(Bin::Min, a, b, dst),
        Fcmpv { op, a, b, dst } => bin(Bin::Cmp(op), a, b, dst),
        Fmaddv { a, b, c, dst } => Op::Madd(a, b, c, dst.0),
        Fselv { mask, a, b, dst } => Op::Sel(Operand::V(mask), a, b, dst.0),
    }
}

// The lanewise kernels: `zip` over equal-length slices, so bounds are
// checked once per slab and the loop vectorises.

fn map1(out: &mut [f64], x: &[f64], f: impl Fn(f64) -> f64) {
    for (o, &a) in out.iter_mut().zip(x) {
        *o = f(a);
    }
}

fn map2(out: &mut [f64], x: &[f64], y: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &a), &b) in out.iter_mut().zip(x).zip(y) {
        *o = f(a, b);
    }
}

fn map3(out: &mut [f64], x: &[f64], y: &[f64], z: &[f64], f: impl Fn(f64, f64, f64) -> f64) {
    for (((o, &a), &b), &c) in out.iter_mut().zip(x).zip(y).zip(z) {
        *o = f(a, b, c);
    }
}

/// An `fcmpv` result lane.
fn mask(hit: bool) -> f64 {
    f64::from(u8::from(hit))
}

/// Where one slab's operands live: registers, scalar broadcasts and
/// the argument buffers, read-only while an op computes.
struct Operands<'a> {
    v: &'a [&'a mut [f64]],
    s: &'a [&'a mut [f64]],
    bufs: &'a [Vec<f64>],
    streams: &'a [(usize, usize)],
    off: usize,
    len: usize,
}

impl<'a> Operands<'a> {
    fn get(&self, o: Operand) -> &'a [f64] {
        match o {
            Operand::V(r) => &self.v[r.0 as usize][..self.len],
            Operand::S(r) => &self.s[r.0 as usize][..self.len],
            Operand::M(m) => {
                let (buf, base) = self.streams[m.ptr.0 as usize];
                &self.bufs[buf][base + self.off..][..self.len]
            }
        }
    }
}

/// A routine decoded for slab execution, with its signature and cost
/// constants.
///
/// `Send + Sync` by construction — decode once, execute from many
/// threads (each run owns its registers and spill slots; only the
/// read-only ops are shared).
#[derive(Debug)]
pub struct CompiledBlock {
    name: String,
    nargs_scalar: usize,
    spill_slots: usize,
    ops: Vec<Op>,
    /// Per pointer argument: `None` when the body never touches its
    /// stream, else whether it stores (streams are single-direction).
    stores: Vec<Option<bool>>,
    body_len: u64,
    body_cycles: u64,
    flops_per_elem: u64,
}

impl CompiledBlock {
    /// Decode `routine`'s body for slab execution.
    #[must_use]
    pub fn compile(routine: &Routine) -> CompiledBlock {
        let body = routine.body();
        let mut stores = vec![None; routine.nargs_ptr()];
        for i in body {
            for m in i.mem_operands() {
                stores[m.ptr.0 as usize] = Some(false);
            }
            match i {
                Instr::Flodv { src, .. } => stores[src.ptr.0 as usize] = Some(false),
                Instr::Fstrv { dst, .. } => stores[dst.ptr.0 as usize] = Some(true),
                _ => {}
            }
        }
        CompiledBlock {
            name: routine.name().to_string(),
            nargs_scalar: routine.nargs_scalar(),
            spill_slots: routine.spill_slots() as usize,
            ops: body.iter().map(decode).collect(),
            stores,
            body_len: body.len() as u64,
            body_cycles: costs::body_cycles(body),
            flops_per_elem: body.iter().map(Instr::flops_per_elem).sum(),
        }
    }

    /// The compiled routine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Run over one node heap: pointer stream `p` starts at
    /// `ptr_args[p]` in `mem` — the adapter behind
    /// [`crate::sim::run_routine`].
    ///
    /// # Errors
    ///
    /// As [`CompiledBlock::run_in_place`], plus two streams overlapping
    /// at different bases while one of them is stored.
    pub fn run(
        &self,
        mem: &mut NodeMemory,
        ptr_args: &[Ptr],
        scalar_args: &[f64],
        n_elems: usize,
    ) -> Result<ExecStats, PeacError> {
        let streams: Vec<(usize, usize)> = ptr_args.iter().map(|&base| (0, base)).collect();
        let heap = std::slice::from_mut(&mut mem.heap);
        self.exec(heap, &streams, scalar_args, n_elems)
    }

    /// Run in place over caller-owned buffers: pointer stream `p` reads
    /// or writes `bufs[slots[p]]` from its start, so streams of one
    /// buffer share a base, as an array passed through several pointer
    /// arguments is one region of machine memory.
    ///
    /// # Errors
    ///
    /// Fails, before anything is written, when arguments do not match
    /// the routine signature, a slot names no buffer, or a stream runs
    /// past the end of its buffer.
    pub fn run_in_place(
        &self,
        bufs: &mut [Vec<f64>],
        slots: &[usize],
        scalar_args: &[f64],
        n_elems: usize,
    ) -> Result<ExecStats, PeacError> {
        let streams: Vec<(usize, usize)> = slots.iter().map(|&slot| (slot, 0)).collect();
        self.exec(bufs, &streams, scalar_args, n_elems)
    }

    /// Check the arguments against the signature and the `(buffer,
    /// base)` streams against the buffers and each other.
    fn check(
        &self,
        bufs: &[Vec<f64>],
        streams: &[(usize, usize)],
        scalar_args: &[f64],
        n: usize,
    ) -> Result<(), PeacError> {
        let fault = |m: String| Err(PeacError::Fault(m));
        let (name, nptr, nsc) = (&self.name, self.stores.len(), self.nargs_scalar);
        if streams.len() != nptr {
            return fault(format!(
                "routine '{name}' expects {nptr} pointer arguments, got {}",
                streams.len()
            ));
        }
        if scalar_args.len() != nsc {
            return fault(format!(
                "routine '{name}' expects {nsc} scalar arguments, got {}",
                scalar_args.len()
            ));
        }
        if n == 0 {
            return Ok(());
        }
        let used: Vec<(PReg, (usize, usize), bool)> = (streams.iter().zip(&self.stores))
            .enumerate()
            .filter_map(|(p, (&s, st))| st.map(|st| (PReg(p as u8), s, st)))
            .collect();
        for &(reg, (buf, base), _) in &used {
            let Some(len) = bufs.get(buf).map(Vec::len) else {
                return fault(format!(
                    "pointer {reg} names buffer {buf} of {}",
                    bufs.len()
                ));
            };
            if base.checked_add(n).is_none_or(|end| end > len) {
                return fault(format!("pointer {reg} ran off the heap"));
            }
        }
        for (i, &(reg, (buf, base), stored)) in used.iter().enumerate() {
            for &(reg_q, (buf_q, base_q), stored_q) in &used[i + 1..] {
                if buf == buf_q
                    && base != base_q
                    && base.abs_diff(base_q) < n
                    && (stored || stored_q)
                {
                    return fault(format!(
                        "pointer streams {reg} and {reg_q} overlap in one buffer at \
                         different bases ({base} and {base_q}, {n} elements)"
                    ));
                }
            }
        }
        Ok(())
    }

    fn exec(
        &self,
        bufs: &mut [Vec<f64>],
        streams: &[(usize, usize)],
        scalar_args: &[f64],
        n: usize,
    ) -> Result<ExecStats, PeacError> {
        self.check(bufs, streams, scalar_args, n)?;
        let iterations = n.div_ceil(VLEN) as u64;
        let stats = ExecStats {
            iterations,
            cycles: iterations * self.body_cycles,
            flops: self.flops_per_elem * n as u64,
            instructions: iterations * self.body_len,
        };
        if n == 0 {
            return Ok(stats);
        }

        // One arena holds every register file at slab width: the vector
        // registers, a scratch result, the spill slots and one broadcast
        // slab per scalar argument.
        let width = n.min(SLAB);
        let nv = NUM_VREGS as usize;
        let mut arena = vec![0.0; width * (nv + 1 + self.spill_slots + self.nargs_scalar)];
        let mut files = arena.chunks_exact_mut(width);
        let mut v: Vec<&mut [f64]> = files.by_ref().take(nv).collect();
        let mut tmp: &mut [f64] = files.next().expect("the arena holds the scratch");
        let mut spill: Vec<&mut [f64]> = files.by_ref().take(self.spill_slots).collect();
        let s: Vec<&mut [f64]> = (files.zip(scalar_args))
            .map(|(lanes, &x)| {
                lanes.fill(x);
                lanes
            })
            .collect();

        for off in (0..n).step_by(SLAB) {
            let len = SLAB.min(n - off);
            for op in &self.ops {
                // Arithmetic computes into the scratch, which is then
                // swapped in as the destination: sources may name it.
                let at = Operands {
                    v: &v,
                    s: &s,
                    bufs,
                    streams,
                    off,
                    len,
                };
                let out = &mut tmp[..len];
                let dst = match *op {
                    Op::Un(f, a, d) => {
                        let x = at.get(a);
                        match f {
                            Un::Neg => map1(out, x, |p| -p),
                            Un::Abs => map1(out, x, f64::abs),
                            Un::Trunc => map1(out, x, f64::trunc),
                            Un::Sqrt => map1(out, x, f64::sqrt),
                            Un::Sin => map1(out, x, f64::sin),
                            Un::Cos => map1(out, x, f64::cos),
                            Un::Exp => map1(out, x, f64::exp),
                            Un::Log => map1(out, x, f64::ln),
                        }
                        d
                    }
                    Op::Bin(f, a, b, d) => {
                        let (x, y) = (at.get(a), at.get(b));
                        match f {
                            Bin::Add => map2(out, x, y, |p, q| p + q),
                            Bin::Sub => map2(out, x, y, |p, q| p - q),
                            Bin::Mul => map2(out, x, y, |p, q| p * q),
                            Bin::Div => map2(out, x, y, |p, q| p / q),
                            Bin::Max => map2(out, x, y, f64::max),
                            Bin::Min => map2(out, x, y, f64::min),
                            Bin::Pow => map2(out, x, y, f64::powf),
                            Bin::Cmp(CmpOp::Eq) => map2(out, x, y, |p, q| mask(p == q)),
                            Bin::Cmp(CmpOp::Ne) => map2(out, x, y, |p, q| mask(p != q)),
                            Bin::Cmp(CmpOp::Lt) => map2(out, x, y, |p, q| mask(p < q)),
                            Bin::Cmp(CmpOp::Le) => map2(out, x, y, |p, q| mask(p <= q)),
                            Bin::Cmp(CmpOp::Gt) => map2(out, x, y, |p, q| mask(p > q)),
                            Bin::Cmp(CmpOp::Ge) => map2(out, x, y, |p, q| mask(p >= q)),
                        }
                        d
                    }
                    Op::Madd(a, b, c, d) => {
                        map3(out, at.get(a), at.get(b), at.get(c), |x, y, z| x * y + z);
                        d
                    }
                    Op::Sel(m, a, b, d) => {
                        map3(out, at.get(m), at.get(a), at.get(b), |m, x, y| {
                            if m != 0.0 {
                                x
                            } else {
                                y
                            }
                        });
                        d
                    }
                    Op::Load(p, d) => {
                        let (buf, base) = streams[p as usize];
                        v[d as usize][..len].copy_from_slice(&bufs[buf][base + off..][..len]);
                        continue;
                    }
                    Op::Store(r, p) => {
                        let (buf, base) = streams[p as usize];
                        bufs[buf][base + off..][..len].copy_from_slice(&v[r as usize][..len]);
                        continue;
                    }
                    Op::Imm(x, d) => {
                        v[d as usize][..len].fill(x);
                        continue;
                    }
                    Op::SpillStore(r, slot) => {
                        spill[slot as usize][..len].copy_from_slice(&v[r as usize][..len]);
                        continue;
                    }
                    Op::SpillLoad(slot, d) => {
                        v[d as usize][..len].copy_from_slice(&spill[slot as usize][..len]);
                        continue;
                    }
                };
                std::mem::swap(&mut v[dst as usize], &mut tmp);
            }
        }
        Ok(stats)
    }
}

/// The distinct arrays among a dispatch's pointer arguments, in first
/// appearance order, and each argument's index into them: the buffer
/// slots for [`CompiledBlock::run_in_place`]. An array passed through
/// several pointer arguments (the load and store streams of one
/// variable) gets one slot, so its streams share one buffer.
pub fn arg_slots<T: Copy + PartialEq>(args: &[T]) -> (Vec<T>, Vec<usize>) {
    let mut unique: Vec<T> = Vec::with_capacity(args.len());
    let slots = args
        .iter()
        .map(|a| {
            unique.iter().position(|u| u == a).unwrap_or_else(|| {
                unique.push(*a);
                unique.len() - 1
            })
        })
        .collect();
    (unique, slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, Mem, Operand, VReg};

    fn saxpyish() -> Routine {
        // z = s*x + y, with y as a chained memory operand; streams are
        // single-direction so the output is a distinct pointer.
        Routine::new(
            "t",
            3,
            1,
            vec![
                Instr::Flodv {
                    src: Mem::arg(0),
                    dst: VReg(0),
                    overlapped: false,
                },
                Instr::Fmaddv {
                    a: Operand::S(crate::isa::SReg(0)),
                    b: Operand::V(VReg(0)),
                    c: Operand::M(Mem::arg(1)),
                    dst: VReg(1),
                },
                Instr::Fstrv {
                    src: VReg(1),
                    dst: Mem::arg(2),
                    overlapped: false,
                },
            ],
        )
        .expect("valid test routine")
    }

    #[test]
    fn block_is_send_sync_and_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledBlock>();

        // One block, many threads, disjoint memories: every node must
        // compute the identical bits.
        let block = CompiledBlock::compile(&saxpyish());
        let outputs: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let block = &block;
                    scope.spawn(move || {
                        let mut mem = NodeMemory::new();
                        let x = mem.alloc(&[1.0, 2.0, 3.0, 4.0]);
                        let y = mem.alloc(&[0.5, 0.5, 0.5, 0.5]);
                        let z = mem.alloc_zeroed(4);
                        block.run(&mut mem, &[x, y, z], &[3.0], 4).unwrap();
                        mem.read(z, 4)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in &outputs {
            assert_eq!(out, &vec![3.5, 6.5, 9.5, 12.5]);
        }
    }

    #[test]
    fn stats_match_the_interpreter_formulas() {
        let r = saxpyish();
        let block = CompiledBlock::compile(&r);
        for n in [0, 1, 10, SLAB + 3] {
            let mut bufs = vec![vec![1.0; n], vec![2.0; n], vec![0.0; n]];
            let stats = block
                .run_in_place(&mut bufs, &[0, 1, 2], &[1.0], n)
                .unwrap();
            let iterations = n.div_ceil(VLEN) as u64;
            assert_eq!(stats.iterations, iterations);
            assert_eq!(stats.cycles, iterations * costs::body_cycles(r.body()));
            assert_eq!(stats.instructions, iterations * r.body().len() as u64);
            assert_eq!(stats.flops, 2 * n as u64);
            assert_eq!(bufs[2], vec![3.0; n]);
        }
    }

    #[test]
    fn arity_and_bounds_faults_are_preserved() {
        let block = CompiledBlock::compile(&saxpyish());
        let mut mem = NodeMemory::new();
        assert!(block.run(&mut mem, &[], &[1.0], 4).is_err());
        // Pointer past the heap: the stream bounds check must fire.
        let err = block.run(&mut mem, &[1_000_000, 0, 0], &[1.0], 4);
        assert!(matches!(err, Err(PeacError::Fault(m)) if m.contains("ran off the heap")));
        // A slot naming no buffer is a fault too, not a panic.
        let err = block.run_in_place(&mut [vec![0.0; 4]], &[0, 0, 1], &[1.0], 4);
        assert!(matches!(err, Err(PeacError::Fault(m)) if m.contains("names buffer 1")));
    }
}
