//! Seeded input generators owned by the benchmark: PyLite programs for
//! `stage_chain`, request rows for `serve_mlp`, and the fixed probe
//! program that prices one dispatched scalar operation.
//!
//! The same seed gives byte-identical programs and inputs. Every seed
//! gives programs of the same *shape* (the same statements, token count
//! and graph size) and varies only operators, operands and constants, so
//! the staging cost of a workload does not depend on which seed the
//! driver happens to pass.

use std::fmt::Write as _;

/// SplitMix64: tiny, seedable, and independent of the repository's own
/// generator, so the program under test cannot influence its inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// The literals of one program: three-decimal values in `[0.250, 1.500)`
/// drawn without replacement. None is 0 or 1 and no two are equal, so
/// the optimizer has no identity to fold or constant to share on one
/// seed and not on another: every seed stages the same number of nodes.
struct Literals(Vec<u16>);

impl Literals {
    fn new(r: &mut Rng) -> Literals {
        let mut pool: Vec<u16> = (250..1500).filter(|m| *m != 1000).collect();
        for i in (1..pool.len()).rev() {
            pool.swap(i, r.below(i + 1));
        }
        Literals(pool)
    }

    fn next(&mut self) -> String {
        let m = self
            .0
            .pop()
            .expect("a program uses far fewer literals than the pool holds");
        format!("{}.{:03}", m / 1000, m % 1000)
    }
}

/// Length of the two vector arguments of a generated program.
pub const CHAIN_LEN: usize = 16;
/// Programs per `stage_chain` run.
pub const CHAIN_PROGRAMS: usize = 8;
/// Name of the function every generated program defines.
pub const CHAIN_FN: &str = "chain";
/// Its placeholder names.
pub const CHAIN_ARGS: [&str; 2] = ["x", "y"];

/// One generated program with its inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainProgram {
    /// PyLite source text (about 120 lines).
    pub source: String,
    /// First argument, `[CHAIN_LEN]` f32.
    pub x: Vec<f32>,
    /// Second argument, `[CHAIN_LEN]` f32.
    pub y: Vec<f32>,
}

const SQUASH: [&str; 2] = ["tf.tanh", "tf.sigmoid"];
const BIN: [&str; 3] = ["+", "-", "*"];
const OPERAND: [&str; 3] = ["x", "y", "b"];

/// Program `index` of the set for `seed`: four sections, each an
/// elementwise chain, a data-dependent `if`, a tensor-bounded `while`
/// and a `for` with a data-dependent `break` — the constructs the
/// converter exists to stage. The seed picks operators, operands,
/// constants and inputs; loop bounds depend on the section only. Values
/// are squashed every line, so they stay bounded for any seed.
pub fn chain_program(seed: u64, index: usize) -> ChainProgram {
    let mut r = Rng::new(seed, 0x5747 + index as u64);
    let mut lit = Literals::new(&mut r);
    let mut s = String::new();
    let _ = writeln!(s, "def {CHAIN_FN}(x, y):");
    let _ = writeln!(s, "    a = x * {} + y", lit.next());
    let _ = writeln!(s, "    b = tf.tanh(y * {} - x)", lit.next());
    for section in 0..4 {
        for _ in 0..14 {
            let _ = writeln!(
                s,
                "    a = {}(a * {} {} {} * {})",
                r.pick(&SQUASH),
                lit.next(),
                r.pick(&BIN),
                r.pick(&OPERAND),
                lit.next()
            );
        }
        let _ = writeln!(s, "    if tf.reduce_sum(a) > {}:", lit.next());
        let _ = writeln!(s, "        a = {}(a * {} + x)", r.pick(&SQUASH), lit.next());
        let _ = writeln!(s, "        b = b - a * {}", lit.next());
        let _ = writeln!(s, "    else:");
        let _ = writeln!(s, "        a = {}(a - y * {})", r.pick(&SQUASH), lit.next());
        let _ = writeln!(s, "        b = b + a * {}", lit.next());
        let _ = writeln!(s, "    i = tf.constant(0.0)");
        let _ = writeln!(s, "    while i < {}.0:", 2 + section % 3);
        let _ = writeln!(s, "        a = tf.tanh(a * {} + b)", lit.next());
        let _ = writeln!(
            s,
            "        b = {}(b * {} {} x)",
            r.pick(&SQUASH),
            lit.next(),
            r.pick(&BIN)
        );
        let _ = writeln!(s, "        i = i + 1.0");
        let _ = writeln!(s, "    for j in tf.range({}):", 3 + section % 3);
        let _ = writeln!(s, "        b = tf.sigmoid(b + a * {})", lit.next());
        // sigmoid output: a threshold in (0.7, 0.95) sometimes breaks
        let _ = writeln!(s, "        if tf.reduce_max(b) > 0.{}:", 700 + r.below(250));
        let _ = writeln!(s, "            break");
    }
    let _ = writeln!(s, "    return a, b");
    let vec = |r: &mut Rng| (0..CHAIN_LEN).map(|_| r.uniform(-1.0, 1.0)).collect();
    let x = vec(&mut r);
    let y = vec(&mut r);
    ChainProgram { source: s, x, y }
}

/// The served program: the two-layer MLP of `examples/serve/mlp.pylite`
/// (its `predict`), embedded so the benchmark reads nothing outside its
/// own directory at run time.
pub const MLP_SRC: &str = "\
def predict(x):
    w1 = tf.constant([[0.5, -0.3, 0.8, 0.1],
                      [0.2, 0.7, -0.4, 0.3],
                      [-0.6, 0.1, 0.5, -0.2],
                      [0.4, -0.1, 0.2, 0.6]])
    b1 = tf.constant([0.1, -0.2, 0.05, 0.3])
    h = tf.relu(tf.matmul(x, w1) + b1)
    w2 = tf.constant([[0.3, -0.5],
                      [0.8, 0.2],
                      [-0.1, 0.4],
                      [0.6, -0.3]])
    b2 = tf.constant([0.05, -0.1])
    return tf.matmul(h, w2) + b2
";

/// Distinct request rows a `serve_mlp` client cycles through.
pub const MLP_ROWS: usize = 64;

/// The `[1, 4]` request rows for `seed`.
pub fn mlp_rows(seed: u64) -> Vec<[f32; 4]> {
    let mut r = Rng::new(seed, 0x4D4C50);
    (0..MLP_ROWS)
        .map(|_| std::array::from_fn(|_| r.uniform(-2.0, 2.0)))
        .collect()
}

/// Loop iterations of the dispatch probe.
pub const PROBE_ITERS: usize = 1000;
/// Scalar operations per iteration, as written in the source.
pub const PROBE_OPS_PER_ITER: usize = 8;

/// The dispatch probe: a staged `while` whose body is eight scalar
/// operations, so its run time is dispatch and allocation, not kernels.
pub const PROBE_SRC: &str = "\
def probe(x):
    i = tf.constant(0.0)
    a = x
    while i < 1000.0:
        a = a * 0.5 + 0.25
        a = tf.tanh(a) - 0.125
        a = a * a + 0.5
        i = i + 1.0
    return a
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_different_seed_different() {
        for index in 0..CHAIN_PROGRAMS {
            assert_eq!(chain_program(7, index), chain_program(7, index));
            let (a, b) = (chain_program(7, index), chain_program(8, index));
            assert_ne!(a.source, b.source);
            assert_ne!(a.x, b.x);
        }
        assert_ne!(chain_program(7, 0).source, chain_program(7, 1).source);
        assert_eq!(mlp_rows(3), mlp_rows(3));
        assert_ne!(mlp_rows(3), mlp_rows(4));
    }

    #[test]
    fn every_seed_gives_the_same_program_shape() {
        let lines = |p: &ChainProgram| p.source.lines().count();
        let words = |p: &ChainProgram| p.source.split_whitespace().count();
        let base = chain_program(1, 0);
        assert!(
            (115..=125).contains(&lines(&base)),
            "{} lines",
            lines(&base)
        );
        for seed in [2u64, 99, u64::MAX] {
            for index in 0..CHAIN_PROGRAMS {
                let p = chain_program(seed, index);
                assert_eq!(lines(&p), lines(&base));
                assert_eq!(words(&p), words(&base));
                assert!(p.x.iter().chain(&p.y).all(|v| (-1.0..1.0).contains(v)));
            }
        }
    }

    #[test]
    fn probe_source_matches_its_constants() {
        assert!(PROBE_SRC.contains(&format!("i < {PROBE_ITERS}.0")));
        let body_ops = PROBE_SRC
            .lines()
            .filter(|l| l.starts_with("        "))
            .map(|l| l.matches(['*', '+', '-']).count() + l.matches("tf.").count())
            .sum::<usize>();
        // seven body operations plus the loop condition
        assert_eq!(body_ops + 1, PROBE_OPS_PER_ITER);
    }
}
