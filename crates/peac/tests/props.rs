//! Property tests for the PEAC simulator: stream semantics, masked
//! selection, arity of the cost model, validator totality, and the
//! slab executor against an element-at-a-time oracle.

use proptest::prelude::*;

use f90y_peac::costs::body_cycles;
use f90y_peac::isa::{CmpOp, Instr, LibOp, Mem, Operand, Routine, SReg, VReg, VLEN};
use f90y_peac::sim::{run_routine, NodeMemory};
use f90y_peac::threaded::{arg_slots, CompiledBlock, SLAB};
use f90y_peac::PeacError;

fn copy_routine() -> Routine {
    Routine::new(
        "copy",
        2,
        0,
        vec![
            Instr::Flodv {
                src: Mem::arg(0),
                dst: VReg(0),
                overlapped: false,
            },
            Instr::Fstrv {
                src: VReg(0),
                dst: Mem::arg(1),
                overlapped: false,
            },
        ],
    )
    .expect("valid")
}

proptest! {
    /// A copy routine copies exactly, for any element count (including
    /// counts that are not multiples of the vector length).
    #[test]
    fn copy_is_exact(data in proptest::collection::vec(-1e6f64..1e6, 0..70)) {
        let r = copy_routine();
        let mut mem = NodeMemory::new();
        let src = mem.alloc(&data);
        let dst = mem.alloc_zeroed(data.len());
        let stats = run_routine(&r, &mut mem, &[src, dst], &[], data.len()).expect("runs");
        prop_assert_eq!(mem.read(dst, data.len()), data.clone());
        prop_assert_eq!(stats.iterations, data.len().div_ceil(VLEN) as u64);
        // A pure copy performs no floating-point operations.
        prop_assert_eq!(stats.flops, 0);
    }

    /// `fselv` selects per lane exactly like the scalar ternary.
    #[test]
    fn select_matches_ternary(
        a in proptest::collection::vec(-100f64..100.0, 8),
        b in proptest::collection::vec(-100f64..100.0, 8),
        threshold in -50f64..50.0,
    ) {
        let r = Routine::new(
            "sel",
            3,
            1,
            vec![
                Instr::Flodv { src: Mem::arg(0), dst: VReg(0), overlapped: false },
                Instr::Flodv { src: Mem::arg(1), dst: VReg(1), overlapped: false },
                Instr::Fcmpv {
                    op: CmpOp::Gt,
                    a: Operand::V(VReg(0)),
                    b: Operand::S(f90y_peac::isa::SReg(0)),
                    dst: VReg(2),
                },
                Instr::Fselv {
                    mask: VReg(2),
                    a: Operand::V(VReg(0)),
                    b: Operand::V(VReg(1)),
                    dst: VReg(3),
                },
                Instr::Fstrv { src: VReg(3), dst: Mem::arg(2), overlapped: false },
            ],
        )
        .expect("valid");
        let mut mem = NodeMemory::new();
        let pa = mem.alloc(&a);
        let pb = mem.alloc(&b);
        let pc = mem.alloc_zeroed(8);
        run_routine(&r, &mut mem, &[pa, pb, pc], &[threshold], 8).expect("runs");
        let out = mem.read(pc, 8);
        for i in 0..8 {
            let expect = if a[i] > threshold { a[i] } else { b[i] };
            prop_assert_eq!(out[i], expect, "lane {}", i);
        }
    }

    /// The cost model is additive over instructions: appending an
    /// instruction never reduces the body cost, and the loop overhead is
    /// charged exactly once.
    #[test]
    fn body_cycles_are_additive(extra in 0usize..12) {
        let mut body = vec![
            Instr::Flodv { src: Mem::arg(0), dst: VReg(0), overlapped: false },
        ];
        let mut last = body_cycles(&body);
        for _ in 0..extra {
            body.push(Instr::Faddv {
                a: Operand::V(VReg(0)),
                b: Operand::V(VReg(0)),
                dst: VReg(0),
            });
            let now = body_cycles(&body);
            prop_assert!(now > last);
            prop_assert_eq!(now - last, f90y_peac::costs::VOP_CYCLES);
            last = now;
        }
    }

    /// Random register indices: the validator either accepts (indices in
    /// range, defined before use) or rejects — never panics — and
    /// whatever it accepts, the simulator runs.
    #[test]
    fn validator_is_total_and_sound(
        ops in proptest::collection::vec((0u8..12, 0u8..12, 0u8..12, 0u8..4), 1..12)
    ) {
        let mut body: Vec<Instr> = vec![Instr::Flodv {
            src: Mem::arg(0),
            dst: VReg(0),
            overlapped: false,
        }];
        for (a, b, d, kind) in ops {
            body.push(match kind {
                0 => Instr::Faddv {
                    a: Operand::V(VReg(a)),
                    b: Operand::V(VReg(b)),
                    dst: VReg(d),
                },
                1 => Instr::Fmulv {
                    a: Operand::V(VReg(a)),
                    b: Operand::V(VReg(b)),
                    dst: VReg(d),
                },
                2 => Instr::Fnegv { a: Operand::V(VReg(a)), dst: VReg(d) },
                _ => Instr::Fimmv { value: a as f64, dst: VReg(d) },
            });
        }
        // Rejection is fine; panicking is not.
        if let Ok(r) = Routine::new("r", 1, 0, body) {
            let mut mem = NodeMemory::new();
            let p = mem.alloc(&[1.0; 8]);
            run_routine(&r, &mut mem, &[p], &[], 8).expect("validated routines run");
        }
    }
}

/// The reference semantics, one element at a time: run the whole body
/// for element `i` before element `i + 1`, stream `p` at
/// `heap[ptrs[p] + i]`.
fn oracle(r: &Routine, heap: &mut [f64], ptrs: &[usize], scalars: &[f64], n: usize) {
    let mut spill = vec![0.0; r.spill_slots() as usize];
    for i in 0..n {
        let mut v = [0.0f64; 8];
        for ins in r.body() {
            let get = |o: &Operand, v: &[f64; 8], heap: &[f64]| match o {
                Operand::V(r) => v[r.0 as usize],
                Operand::S(r) => scalars[r.0 as usize],
                Operand::M(m) => heap[ptrs[m.ptr.0 as usize] + i],
            };
            let (dst, value) = match ins {
                Instr::Flodv { src, dst, .. } => (dst, heap[ptrs[src.ptr.0 as usize] + i]),
                Instr::Fstrv { src, dst, .. } => {
                    heap[ptrs[dst.ptr.0 as usize] + i] = v[src.0 as usize];
                    continue;
                }
                Instr::Faddv { a, b, dst } => (dst, get(a, &v, heap) + get(b, &v, heap)),
                Instr::Fsubv { a, b, dst } => (dst, get(a, &v, heap) - get(b, &v, heap)),
                Instr::Fmulv { a, b, dst } => (dst, get(a, &v, heap) * get(b, &v, heap)),
                Instr::Fdivv { a, b, dst } => (dst, get(a, &v, heap) / get(b, &v, heap)),
                Instr::Fmaxv { a, b, dst } => (dst, get(a, &v, heap).max(get(b, &v, heap))),
                Instr::Fminv { a, b, dst } => (dst, get(a, &v, heap).min(get(b, &v, heap))),
                Instr::Fmaddv { a, b, c, dst } => {
                    (dst, get(a, &v, heap) * get(b, &v, heap) + get(c, &v, heap))
                }
                Instr::Fnegv { a, dst } => (dst, -get(a, &v, heap)),
                Instr::Fabsv { a, dst } => (dst, get(a, &v, heap).abs()),
                Instr::Ftruncv { a, dst } => (dst, get(a, &v, heap).trunc()),
                Instr::Fcmpv { op, a, b, dst } => {
                    let hit = op.apply(get(a, &v, heap), get(b, &v, heap));
                    (dst, if hit { 1.0 } else { 0.0 })
                }
                Instr::Fselv { mask, a, b, dst } => {
                    let pick = if v[mask.0 as usize] != 0.0 { a } else { b };
                    (dst, get(pick, &v, heap))
                }
                Instr::Fimmv { value, dst } => (dst, *value),
                Instr::Flib { op, a, b, dst } => {
                    let x = get(a, &v, heap);
                    (
                        dst,
                        match op {
                            LibOp::Sqrt => x.sqrt(),
                            LibOp::Sin => x.sin(),
                            LibOp::Cos => x.cos(),
                            LibOp::Exp => x.exp(),
                            LibOp::Log => x.ln(),
                            LibOp::Pow => x.powf(get(b.as_ref().unwrap(), &v, heap)),
                        },
                    )
                }
                Instr::SpillStore { src, slot, .. } => {
                    spill[*slot as usize] = v[src.0 as usize];
                    continue;
                }
                Instr::SpillLoad { slot, dst, .. } => (dst, spill[*slot as usize]),
            };
            v[dst.0 as usize] = value;
        }
    }
}

/// Deterministic test data: mostly small values, with the zeros,
/// signed zeros and infinities that make divisions and selects
/// interesting.
fn data(seed: u64, n: usize) -> Vec<f64> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::INFINITY,
                _ => (x % 2001) as f64 / 125.0 - 8.0,
            }
        })
        .collect()
}

/// A random routine over `nload` load streams (args `0..nload`) and
/// `nstore` store streams (args after them), built so that every
/// register is defined before use and each instruction chains at most
/// one memory operand.
fn build_routine(nload: u8, nstore: u8, nscalar: u8, ops: &[[u8; 5]]) -> Routine {
    let mut body: Vec<Instr> = (0..nload)
        .map(|p| Instr::Flodv {
            src: Mem::arg(p),
            dst: VReg(p),
            overlapped: false,
        })
        .collect();
    let mut defined: Vec<u8> = (0..nload).collect();
    for &[kind, a, b, c, d] in ops {
        let mut mem_used = false;
        let vreg = |x: u8, defined: &[u8]| VReg(defined[x as usize % defined.len()]);
        let mut opnd = |x: u8| match x % 4 {
            2 if nscalar > 0 => Operand::S(SReg(x / 4 % nscalar)),
            3 if !mem_used => {
                mem_used = true;
                Operand::M(Mem::arg(x / 4 % nload))
            }
            _ => Operand::V(vreg(x / 4, &defined)),
        };
        let (a, b, c, dst) = (opnd(a), opnd(b), opnd(c), VReg(d % 8));
        let cmp = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let lib = [
            LibOp::Sqrt,
            LibOp::Sin,
            LibOp::Cos,
            LibOp::Exp,
            LibOp::Log,
            LibOp::Pow,
        ];
        let ins = match kind % 15 {
            0 => Instr::Faddv { a, b, dst },
            1 => Instr::Fsubv { a, b, dst },
            2 => Instr::Fmulv { a, b, dst },
            3 => Instr::Fdivv { a, b, dst },
            4 => Instr::Fmaxv { a, b, dst },
            5 => Instr::Fminv { a, b, dst },
            6 => Instr::Fmaddv { a, b, c, dst },
            7 => Instr::Fnegv { a, dst },
            8 => Instr::Fabsv { a, dst },
            9 => Instr::Ftruncv { a, dst },
            10 => Instr::Fcmpv {
                op: cmp[d as usize % 6],
                a,
                b,
                dst,
            },
            11 => Instr::Fselv {
                mask: vreg(kind / 15, &defined),
                a,
                b,
                dst,
            },
            12 => Instr::Fimmv {
                value: f64::from(kind) - 7.5,
                dst,
            },
            13 => {
                let op = lib[kind as usize / 15 % 6];
                let b = (op == LibOp::Pow).then_some(b);
                Instr::Flib { op, a, b, dst }
            }
            _ => {
                body.push(Instr::SpillStore {
                    src: vreg(kind / 15, &defined),
                    slot: 0,
                    overlapped: false,
                });
                Instr::SpillLoad {
                    slot: 0,
                    dst,
                    overlapped: false,
                }
            }
        };
        body.push(ins);
        defined.push(dst.0);
    }
    for k in 0..nstore {
        body.push(Instr::Fstrv {
            src: VReg(defined[defined.len() - 1 - k as usize % defined.len()]),
            dst: Mem::arg(nload + k),
            overlapped: false,
        });
    }
    Routine::new(
        "rand",
        usize::from(nload + nstore),
        usize::from(nscalar),
        body,
    )
    .expect("the generator only builds valid routines")
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The slab executor is bit-identical to the element-at-a-time
    /// oracle at every element count across the `VLEN` and `SLAB`
    /// boundaries, through both the one-heap adapter and in place over
    /// separate buffers — including when the first store stream and
    /// the first load stream are one buffer (an in-place update).
    #[test]
    fn slab_execution_matches_the_element_oracle(
        n in 0usize..1100,
        nload in 1u8..4,
        nstore in 1u8..3,
        nscalar in 0u8..3,
        ops in proptest::collection::vec(any::<u64>(), 0..12),
        alias in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Each op's kind and operand selectors are bytes of one word.
        let ops: Vec<[u8; 5]> = ops.iter().map(|w| {
            let b = w.to_le_bytes();
            [b[0], b[1], b[2], b[3], b[4]]
        }).collect();
        let r = build_routine(nload, nstore, nscalar, &ops);
        let scalars = data(seed ^ 1, usize::from(nscalar));
        let nbuf = usize::from(nload + nstore);
        let arrays: Vec<Vec<f64>> = (0..nbuf).map(|b| data(seed + b as u64, n)).collect();
        // Stream p's array; with `alias`, the first store stream
        // shares the first load stream's array.
        let slots: Vec<usize> = (0..nbuf)
            .map(|p| if alias && p == usize::from(nload) { 0 } else { p })
            .collect();

        let mut heap: Vec<f64> = arrays.concat();
        let ptrs: Vec<usize> = slots.iter().map(|&s| s * n).collect();
        let mut want = heap.clone();
        oracle(&r, &mut want, &ptrs, &scalars, n);

        let mut mem = NodeMemory::new();
        let base = mem.alloc(&heap);
        prop_assert_eq!(base, 0);
        let stats = run_routine(&r, &mut mem, &ptrs, &scalars, n).expect("runs");
        prop_assert_eq!(bits(&mem.read(0, heap.len())), bits(&want));

        let mut bufs = arrays.clone();
        let in_place = CompiledBlock::compile(&r)
            .run_in_place(&mut bufs, &slots, &scalars, n)
            .expect("runs in place");
        heap = bufs.concat();
        prop_assert_eq!(bits(&heap), bits(&want));

        let iterations = n.div_ceil(VLEN) as u64;
        prop_assert_eq!(stats, in_place);
        prop_assert_eq!(stats.iterations, iterations);
        prop_assert_eq!(stats.cycles, iterations * body_cycles(r.body()));
        prop_assert_eq!(stats.instructions, iterations * r.body().len() as u64);
    }
}

/// A load stream and a store stream into one heap at different bases
/// whose ranges overlap would make slab order observable: the executor
/// refuses it on entry, before writing anything. Read-only overlap and
/// adjacent ranges are fine.
#[test]
fn overlapping_streams_at_different_bases_fault() {
    let copy = copy_routine();
    let n = SLAB + 5;
    let mut mem = NodeMemory::new();
    let heap = data(3, 2 * n + 1);
    mem.alloc(&heap);
    for store_base in [1, n - 1] {
        let err = run_routine(&copy, &mut mem, &[0, store_base], &[], n).unwrap_err();
        assert!(
            matches!(&err, PeacError::Fault(m) if m.contains("overlap")),
            "{err}"
        );
        assert_eq!(
            bits(&mem.read(0, heap.len())),
            bits(&heap),
            "nothing written"
        );
    }
    // Adjacent ranges do not overlap.
    run_routine(&copy, &mut mem, &[0, n], &[], n).expect("adjacent streams run");

    // Two load streams may overlap: nothing they read changes.
    let sum = Routine::new(
        "sum",
        3,
        0,
        vec![
            Instr::Flodv {
                src: Mem::arg(0),
                dst: VReg(0),
                overlapped: false,
            },
            Instr::Faddv {
                a: Operand::V(VReg(0)),
                b: Operand::M(Mem::arg(1)),
                dst: VReg(1),
            },
            Instr::Fstrv {
                src: VReg(1),
                dst: Mem::arg(2),
                overlapped: false,
            },
        ],
    )
    .expect("valid");
    let mut mem = NodeMemory::new();
    mem.alloc(&heap);
    let ptrs = [0, 1, n + 1];
    let mut want = heap.clone();
    oracle(&sum, &mut want, &ptrs, &[], n);
    run_routine(&sum, &mut mem, &ptrs, &[], n).expect("read-only overlap runs");
    assert_eq!(bits(&mem.read(0, heap.len())), bits(&want));
}

/// A stream that runs past its buffer fails the run on entry, before
/// any slab is written.
#[test]
fn faults_leave_every_buffer_untouched() {
    let copy = CompiledBlock::compile(&copy_routine());
    let n = 2 * SLAB + 1;
    let mut bufs = vec![data(5, n), data(6, n - 1)];
    let before = bufs.clone();
    let err = copy.run_in_place(&mut bufs, &[0, 1], &[], n).unwrap_err();
    assert!(
        matches!(&err, PeacError::Fault(m) if m.contains("ran off the heap")),
        "{err}"
    );
    assert_eq!(bufs, before);
}

#[test]
fn arg_slots_share_one_slot_per_array() {
    assert_eq!(
        arg_slots(&['a', 'b', 'a', 'c', 'b']),
        (vec!['a', 'b', 'c'], vec![0, 1, 0, 2, 1])
    );
    assert_eq!(arg_slots::<u8>(&[]), (vec![], vec![]));
}
