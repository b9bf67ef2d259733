//! Seeded inputs: generated Fortran 90 programs and NDJSON request
//! streams. Everything here is a pure function of the seed, so the same
//! `--seed` always gives the same program text and the same stream.

use f90y_core::{workloads, Pipeline, Target};
use f90y_serve::protocol::{Request, RequestKind};

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The arrays every generated program declares.
const ARRAYS: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];

/// A generated program over eight `n × n` REAL arrays with `stmts`
/// array statements after initialisation (every eighth preceded by a
/// scalar reduction it uses): whole-array arithmetic,
/// `CSHIFT`/`EOSHIFT` operands, `WHERE`/`ELSEWHERE` blocks and `SUM`
/// reductions. The statement kinds, operand kinds and expression forms
/// cycle in a fixed order, so a program's cost depends on its length;
/// the seed draws which arrays, axes and shift distances each statement
/// uses. Coefficients are convex combinations, so values stay bounded
/// however long the program.
pub fn program(rng: &mut Rng, n: usize, stmts: usize) -> String {
    let mut src = String::from("PROGRAM gen\n");
    src.push_str(&format!(
        "REAL {}\nREAL s\n",
        ARRAYS
            .iter()
            .map(|a| format!("{a}({n},{n})"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    for (k, a) in ARRAYS.iter().enumerate() {
        src.push_str(&format!(
            "FORALL (i=1:{n}, j=1:{n}) {a}(i,j) = MOD(i*{} + j*{} + {k}, 17) - 8\n",
            2 * k + 3,
            k + 5
        ));
    }
    src.push_str("s = 0.0\n");
    let mut g = Gen {
        rng,
        n,
        operands: 0,
    };
    for i in 0..stmts {
        let dst = g.array();
        let x = g.operand();
        let y = g.operand();
        match i % 8 {
            0..=3 => src.push_str(&format!("{dst} = {}\n", combine(i, &x, &y))),
            4 | 5 => {
                let z = g.operand();
                src.push_str(&format!("{dst} = 0.5*{x} + 0.25*({y} - {z})\n"));
            }
            6 => {
                let (m, m2, other) = (g.array(), g.array(), g.operand());
                src.push_str(&format!(
                    "WHERE ({m} > {m2})\n  {dst} = {}\nELSEWHERE\n  {dst} = 0.5*{other}\nEND WHERE\n",
                    combine(i / 8, &x, &y)
                ));
            }
            _ => {
                let r = g.array();
                src.push_str(&format!("s = 0.001*SUM({r})\n"));
                src.push_str(&format!("{dst} = 0.5*{x} + 0.0001*s\n"));
            }
        }
    }
    src.push_str("END PROGRAM gen\n");
    src
}

struct Gen<'r> {
    rng: &'r mut Rng,
    n: usize,
    operands: usize,
}

impl Gen<'_> {
    fn array(&mut self) -> &'static str {
        ARRAYS[self.rng.below(ARRAYS.len())]
    }

    /// An array operand, cycling plain, circular shift, plain, end-off
    /// shift, along a drawn axis by a drawn distance.
    fn operand(&mut self) -> String {
        let a = self.array();
        let dim = 1 + self.rng.below(2);
        let shift = [-2i64, -1, 1, 2][self.rng.below(4)];
        debug_assert!(shift.unsigned_abs() < self.n as u64);
        self.operands += 1;
        match self.operands % 4 {
            0 | 2 => a.to_string(),
            1 => format!("CSHIFT({a}, DIM={dim}, SHIFT={shift})"),
            _ => format!("EOSHIFT({a}, DIM={dim}, SHIFT={shift}, BOUNDARY=1.0)"),
        }
    }
}

fn combine(form: usize, x: &str, y: &str) -> String {
    match form % 3 {
        0 => format!("0.5*({x} + {y})"),
        1 => format!("0.75*{x} - 0.25*{y}"),
        _ => format!("0.5*{x} + 0.001*{x}*{y}"),
    }
}

/// The heat stencil of `workloads::heat_source` with a per-step
/// residual `res = SUM(ABS(tnew - t))`, a reduction no shipped workload
/// has, whose host time is mostly the front end's own (`fe.*.self_s`).
pub fn heat_residual_source(n: usize, steps: usize) -> String {
    let src = workloads::heat_source(n, steps)
        .replacen("REAL kappa\n", "REAL kappa, res\n", 1)
        .replacen(
            "  t = tnew\n",
            "  res = SUM(ABS(tnew - t))\n  t = tnew\n",
            1,
        );
    assert!(
        src.contains("REAL kappa, res") && src.contains("res = SUM"),
        "heat_source changed shape; the residual no longer splices in"
    );
    src
}

/// One distinct serve item: the cache-relevant part of a request.
pub struct Item {
    pub kind: RequestKind,
    pub source: String,
    pub target: Target,
}

/// Source families a serve stream draws from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Swe,
    Life,
    HeatResidual,
    Heat,
    RedBlack,
    Generated,
}

impl Family {
    /// A program of this family on an `n × n` grid; `rng` draws the
    /// statements of generated programs.
    pub fn source(self, rng: &mut Rng, n: usize, steps: usize) -> String {
        match self {
            Family::Swe => workloads::swe_source(n, steps),
            Family::Life => workloads::life_source(n, steps),
            Family::HeatResidual => heat_residual_source(n, steps),
            Family::Heat => workloads::heat_source(n, steps),
            Family::RedBlack => workloads::redblack_source(n, steps),
            Family::Generated => program(rng, n, 8 + 8 * steps),
        }
    }
}

/// Distinct items in the skewed stream: 1.5× the serve engine's
/// default compile cache capacity of 64, so a skewed draw over them
/// hits, misses and evicts.
pub const MIX_ITEMS: usize = 96;

/// Tenants sharing every stream.
pub const TENANTS: [&str; 3] = ["ames", "ncar", "yale"];

const TARGETS: [Target; 3] = [
    Target::Cm2 { nodes: 16 },
    Target::Cm5Mimd { nodes: 16 },
    Target::Accel { nodes: 16 },
];

/// The skewed mix: `MIX_ITEMS` items over `families` at 8–32² grids —
/// per eight items six runs (two per target), one compile and one lint.
/// Item shapes (family, grid, steps, kind, target) are fixed, so every
/// seed offers the same cost mix; the seed draws the generated
/// programs' text.
pub fn mix_items(rng: &mut Rng, families: &[Family]) -> Vec<Item> {
    let grids = [8usize, 12, 16, 20, 24, 28, 32];
    let f = families.len();
    (0..MIX_ITEMS)
        .map(|i| {
            let n = grids[(i / f) % grids.len()];
            let steps = 1 + (i / (f * grids.len())) % 2;
            let (kind, target) = match i % 8 {
                6 => (RequestKind::Compile, TARGETS[0]),
                7 => (RequestKind::Lint, TARGETS[0]),
                k => (RequestKind::Run, TARGETS[k % 3]),
            };
            Item {
                kind,
                source: families[i % f].source(rng, n, steps),
                target,
            }
        })
        .collect()
}

/// A seeded stream of `decks × deck` NDJSON request lines over
/// `items`, item `i` with popularity `1/(i+1)` (Zipf-like). Each
/// consecutive deck of `deck` requests holds every item its share of
/// times, in a seeded order, so every deck costs about the same and
/// its p99 is set by the mix rather than by which items a draw
/// happened to favour. Tenants take turns. The program under test only
/// ever sees the text.
pub fn stream(rng: &mut Rng, items: &[Item], deck: usize, decks: usize) -> Vec<String> {
    let weights: Vec<f64> = (0..items.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    // Largest-remainder apportionment of `deck` slots to the items.
    let exact: Vec<f64> = weights.iter().map(|w| w / total * deck as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = deck - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    let mut slots: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    let mut lines = Vec::with_capacity(deck * decks);
    for _ in 0..decks {
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.below(i + 1));
        }
        for &r in &slots {
            let id = lines.len();
            let item = &items[r];
            lines.push(
                Request {
                    id: id as u64,
                    tenant: TENANTS[id % TENANTS.len()].to_string(),
                    kind: item.kind,
                    source: item.source.clone(),
                    pipeline: Pipeline::F90y,
                    passes: None,
                    target: item.target,
                    host_threads: 1,
                    faults: None,
                }
                .to_json(),
            );
        }
    }
    lines
}
