//! The three-way target differential: for the paper's workloads, the
//! NIR reference evaluator, the CM/2 SIMD simulator, the CM/5 MIMD
//! engine, and the accelerator model must all compute bit-identical
//! finals at every node count. The targets differ in *everything the
//! manifest describes* — clocks, topology, launch and transfer costs —
//! and in nothing the program can observe.
//!
//! The fingerprint here is the serve protocol's FNV-1a over the finals
//! bytes (inlined to keep this suite free of a serve dev-dependency),
//! so equality below is exactly the equality `f90y-serve` clients see.

use f90y_accel::{Accel, AccelConfig};
use f90y_backend::Machine;
use f90y_cm2::{Cm2, Cm2Config};
use f90y_core::{workloads, Compiler, Pipeline, Target};
use f90y_mimd::{MimdConfig, MimdMachine};
use f90y_peac::isa::{Instr, Mem, Routine, VReg};

fn f90y(src: &str) -> f90y_core::Executable {
    Compiler::new(Pipeline::F90y)
        .compile(src)
        .expect("compiles")
}

/// FNV-1a 64 over a run's finals — `f90y_serve::engine::
/// finals_fingerprint` replicated byte for byte (sorted names, NUL
/// separators, IEEE-754 bit patterns little-endian), so equality here
/// is exactly the fingerprint equality serve clients observe.
fn fingerprint(finals: &f90y_backend::fe::HostRun) -> String {
    let mut names: Vec<&String> = finals.finals().keys().collect();
    names.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for name in names {
        eat(name.as_bytes());
        eat(&[0]);
        match &finals.finals()[name] {
            f90y_backend::fe::Final::Array(values) => {
                for v in values {
                    eat(&v.to_bits().to_le_bytes());
                }
            }
            f90y_backend::fe::Final::Scalar(v) => eat(&v.to_bits().to_le_bytes()),
        }
        eat(&[0]);
    }
    format!("fnv1a64:{hash:016x}")
}

/// Run one workload on all three machine targets at N ∈ {4, 16, 64},
/// plus the reference evaluator, and assert one common fingerprint.
fn assert_three_way(exe: &f90y_core::Executable, arrays: &[&str]) {
    // The machine-independent reference: the NIR evaluator.
    exe.validate().expect("reference evaluator agrees");

    let reference = exe
        .session(Target::Cm2 { nodes: 64 })
        .run()
        .expect("CM/2 run")
        .into_cm2();
    let want = fingerprint(&reference.finals);

    for nodes in [4usize, 16, 64] {
        let cm2 = exe
            .session(Target::Cm2 { nodes })
            .run()
            .expect("CM/2 run")
            .into_cm2();
        let mimd = exe
            .session(Target::Cm5Mimd { nodes })
            .run()
            .expect("CM/5 run")
            .into_mimd();
        let accel = exe
            .session(Target::Accel { nodes })
            .run()
            .expect("Accel run")
            .into_accel();

        for (target, finals) in [
            ("cm2", &cm2.finals),
            ("cm5", &mimd.finals),
            ("accel", &accel.finals),
        ] {
            for &name in arrays {
                assert_eq!(
                    finals.final_array(name).unwrap(),
                    reference.finals.final_array(name).unwrap(),
                    "array '{name}' diverged on {target} at {nodes} nodes"
                );
            }
            assert_eq!(
                fingerprint(finals),
                want,
                "fingerprint diverged on {target} at {nodes} nodes"
            );
        }
        accel.stats.verify().expect("accel stats invariants");
        assert!(
            accel.stats.kernel_launches > 0,
            "the accelerator must run its arrays through kernel launches"
        );
        assert!(
            accel.stats.d2h_transfers > 0,
            "reading finals back must cross the bus"
        );
    }
}

#[test]
fn swe_finals_agree_across_all_targets() {
    let exe = f90y(&workloads::swe_source(64, 3));
    assert_three_way(&exe, &["u", "v", "p"]);
}

#[test]
fn fig9_finals_agree_across_all_targets() {
    let exe = f90y(workloads::fig9_source());
    assert_three_way(&exe, &["a", "b", "c"]);
}

#[test]
fn heat_finals_agree_across_all_targets() {
    let exe = f90y(&workloads::heat_source(48, 3));
    assert_three_way(&exe, &["t"]);
}

#[test]
fn accel_costs_differ_even_when_answers_agree() {
    // Same answers, different machine: the accelerator's clock must
    // show launch and transfer time no other target reports.
    let exe = f90y(&workloads::heat_source(32, 2));
    let accel = exe
        .session(Target::Accel { nodes: 16 })
        .run()
        .expect("Accel run")
        .into_accel();
    assert!(accel.stats.launch_cycles > 0);
    assert!(accel.stats.transfer_cycles > 0);
    assert!(accel.stats.h2d_bytes + accel.stats.d2h_bytes > 0);
    assert!(accel.elapsed_seconds > 0.0);
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn in_place_update_above_one_slab_matches_the_evaluator() {
    // `a` is both a load stream and the store stream of one dispatch,
    // over 33×31 = 1023 elements: several executor slabs and a ragged
    // last one, at every node count's shard boundaries.
    let exe = f90y(
        "REAL a(33,31)\n\
         FORALL (i=1:33, j=1:31) a(i,j) = MOD(i*j, 13) - 6.5\n\
         DO step = 1, 3\n\
           a = 3.0*a + 1.0\n\
         END DO\n",
    );
    let mut ev = f90y_nir::eval::Evaluator::new();
    ev.run(&exe.nir).expect("reference evaluator runs");
    let want = bits(&ev.final_array_f64("a").expect("evaluator final"));
    for nodes in [4usize, 16] {
        // The host pool only exists on the CM/5; the single-image
        // machines refuse a host thread count.
        let sessions = [
            exe.session(Target::Cm2 { nodes }),
            exe.session(Target::Accel { nodes }),
            exe.session(Target::Cm5Mimd { nodes }).host_threads(1),
            exe.session(Target::Cm5Mimd { nodes }).host_threads(4),
        ];
        for (i, session) in sessions.into_iter().enumerate() {
            let run = session.run().expect("runs");
            assert_eq!(
                bits(&run.finals().final_array("a").unwrap()),
                want,
                "session {i} at {nodes} nodes"
            );
        }
    }
}

/// Dispatches that fail the signature or extent checks must leave every
/// argument array as it was and the machine usable: an engine that
/// lends its arrays to the executor has to put them back on failure.
fn failed_dispatch_leaves_arrays_intact<M: Machine>(m: &mut M) {
    let copy = Routine::new(
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
    .expect("valid routine");
    let data = |seed: usize, n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7 + seed) % 23) as f64 - 11.0)
            .collect()
    };
    let a = m.alloc_from(&[33, 31], data(1, 1023));
    let b = m.alloc_from(&[33, 31], data(2, 1023));
    let small = m.alloc_from(&[4], data(3, 4));
    let failing: [(&[M::Id], &[f64]); 4] = [
        (&[a, b, a], &[]),  // one pointer argument too many
        (&[a], &[]),        // one too few
        (&[a, b], &[1.0]),  // a scalar the routine does not take
        (&[a, small], &[]), // extents disagree
    ];
    for (ptrs, scalars) in failing {
        assert!(m.dispatch(&copy, ptrs, scalars).is_err(), "{ptrs:?}");
        for (id, want) in [(a, data(1, 1023)), (b, data(2, 1023)), (small, data(3, 4))] {
            assert!(m.read(id).unwrap() == want, "{id:?} changed after {ptrs:?}");
        }
    }
    m.dispatch(&copy, &[a, b], &[])
        .expect("later dispatches run");
    assert!(m.read(b).unwrap() == data(1, 1023), "the copy ran");
}

#[test]
fn failed_cm2_dispatch_leaves_arrays_intact() {
    failed_dispatch_leaves_arrays_intact(&mut Cm2::new(Cm2Config::slicewise(16)));
}

#[test]
fn failed_cm5_dispatch_leaves_arrays_intact() {
    for threads in [1, 4] {
        let config = MimdConfig::new(16).with_host_threads(threads);
        failed_dispatch_leaves_arrays_intact(&mut MimdMachine::new(config));
    }
}

#[test]
fn failed_accel_dispatch_leaves_arrays_intact() {
    failed_dispatch_leaves_arrays_intact(&mut Accel::new(AccelConfig::new(16)));
}
