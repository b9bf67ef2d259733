//! The host-speed yardstick.
//!
//! The benchmark's host shares its cores with other tenants, and its
//! speed drifts: over minutes every stage of the program slows or
//! speeds up together by 10-30%, even in its fastest repetitions. A
//! fixed kernel of the benchmark's own, which calls nothing of the
//! program under test, is timed between the stages of every round. The
//! host-clock end-to-end metrics are reported at reference speed: each
//! divided by a host factor (a rate multiplied by it), the kernel's
//! figure taken the same way over `REFERENCE_S`. A stage's fastest
//! repetitions are scaled by the run's fastest kernel repetition, a
//! median by the median kernel repetition over the same stretch (for
//! serving, of the kernel run on both cores at once, as serving uses
//! them). A
//! change to the program moves them; a change in the host's speed mostly
//! does not. Over ten runs of compile-gen, the spread (interquartile
//! range over median) of the analysis time was 0.23 for the median
//! repetition as measured, 0.13 for the fastest and 0.07 for the fastest
//! at reference speed; on serve-mix that of the median latency was 0.15
//! as measured and 0.03 at reference speed. The figures as measured are
//! printed beside them.

use std::collections::BTreeMap;

/// The kernel's fastest repetition on the host the benchmark was
/// written on (2 vCPUs of an Intel Xeon, release build), so that
/// figures at reference speed read as seconds on that host when quiet.
pub const REFERENCE_S: f64 = 0.003;

/// One repetition: inserts and range lookups in an ordered map of small
/// heap strings (allocation and pointer chasing, like the compiler's
/// passes), then elementwise float arithmetic over arrays and a sort
/// (like the engines' data plane).
pub fn kernel() -> u64 {
    let mut map: BTreeMap<u64, String> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..10_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, format!("v{i}"));
        if let Some((_, v)) = map.range(x % 3072..).next() {
            acc = acc.wrapping_add(v.len() as u64);
        }
    }
    let a: Vec<f64> = (0..8192).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut b: Vec<f64> = a
        .iter()
        .zip(a.iter().rev())
        .map(|(p, q)| 0.5 * p + 0.25 * q * q)
        .collect();
    b.sort_by(f64::total_cmp);
    acc.wrapping_add(b[b.len() / 3].to_bits())
}
