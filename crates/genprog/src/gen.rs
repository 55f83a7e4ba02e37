//! Seeded, typed PyLite program generator.
//!
//! Programs are built from a *gated* expression/statement grammar: every
//! construct the generator can emit is one the conversion pipeline and
//! all execution backends are specified to support, so a generated
//! program that fails to convert, stage, or run is itself a bug find
//! (either a converter bug or a gate bug — both worth a reproducer).
//!
//! ## Gating rules
//!
//! * **Types.** Three tensor types: `Scalar` (rank 0), `Vector` (`[3]`)
//!   and `Matrix` (`[3, 3]`), all f32. Every expression is generated
//!   *for* a target type, and operands are chosen so shapes always
//!   broadcast (scalars combine with anything; vectors never meet
//!   matrices except through reductions / row iteration).
//! * **Finiteness.** Division is always guarded
//!   (`a / (tf.square(b) + 1.0)`), `exp`/`log`/`sqrt` arguments are
//!   squashed or offset, literals stay in `[-1.5, 2.0]`, and loop-carried
//!   assignments are *contractive* (squashed through `tanh`/`sigmoid` or
//!   bounded additive updates), so iteration cannot blow values up.
//! * **Termination.** `while` loops either count a host integer up to a
//!   small bound (the counter increment is the first body statement, so
//!   `continue` can never skip it) or accumulate a strictly positive
//!   quantity toward a threshold. `break` may *shorten* but never extend
//!   a loop.
//! * **Definedness.** Conditional branches only assign variables that
//!   already exist before the branch, so every variable is defined on
//!   all code paths (the converter rejects anything else at staging).
//!   Early `return`s always match the final return's arity and types.
//!
//! The same seed always produces the byte-identical program and feeds —
//! the fuzz driver's replay contract.

use crate::oracle::GenCase;
use autograph_tensor::{Rng64, Tensor};

/// Vector length / matrix side used for every generated tensor.
pub(crate) const VLEN: usize = 3;

/// Safe literal pool: small magnitudes, exactly representable.
const LITS: [&str; 12] = [
    "-1.5", "-1.0", "-0.75", "-0.5", "-0.25", "0.25", "0.5", "0.75", "1.0", "1.25", "1.5", "2.0",
];

/// Tensor value types the generator tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Scalar,
    Vector,
    Matrix,
}

struct Gen {
    rng: Rng64,
    lines: Vec<(usize, String)>,
    scalars: Vec<String>,
    vectors: Vec<String>,
    matrices: Vec<String>,
    next_id: usize,
    loop_depth: usize,
    lantern_ok: bool,
    differentiable: bool,
}

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_below(n) as u64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn lit(&mut self) -> String {
        LITS[self.below(LITS.len() as u64) as usize].to_string()
    }

    fn fresh(&mut self, prefix: &str) -> String {
        let n = self.next_id;
        self.next_id += 1;
        format!("{prefix}{n}")
    }

    fn line(&mut self, indent: usize, text: String) {
        self.lines.push((indent, text));
    }

    fn vars_of(&self, ty: Ty) -> &[String] {
        match ty {
            Ty::Scalar => &self.scalars,
            Ty::Vector => &self.vectors,
            Ty::Matrix => &self.matrices,
        }
    }

    fn pick_var(&mut self, ty: Ty) -> Option<String> {
        let vars = self.vars_of(ty);
        if vars.is_empty() {
            return None;
        }
        let i = self.below(vars.len() as u64) as usize;
        Some(self.vars_of(ty)[i].clone())
    }

    fn register(&mut self, ty: Ty, name: String) {
        match ty {
            Ty::Scalar => self.scalars.push(name),
            Ty::Vector => self.vectors.push(name),
            Ty::Matrix => self.matrices.push(name),
        }
    }

    /// A type that has at least one live variable, biased toward vectors.
    fn pick_ty(&mut self) -> Ty {
        let mut pool = Vec::new();
        if !self.scalars.is_empty() {
            pool.extend([Ty::Scalar; 2]);
        }
        if !self.vectors.is_empty() {
            pool.extend([Ty::Vector; 3]);
        }
        if !self.matrices.is_empty() {
            pool.push(Ty::Matrix);
        }
        if pool.is_empty() {
            return Ty::Scalar;
        }
        pool[self.below(pool.len() as u64) as usize]
    }

    // ---- expressions ---------------------------------------------------

    /// An expression of type `ty`, with remaining recursion depth `d`.
    fn expr(&mut self, ty: Ty, d: usize) -> String {
        match ty {
            Ty::Scalar => self.scalar_expr(d),
            Ty::Vector => self.vector_expr(d),
            Ty::Matrix => self.matrix_expr(d),
        }
    }

    fn scalar_atom(&mut self) -> String {
        if self.scalars.is_empty() || self.chance(35) {
            self.lit()
        } else {
            self.pick_var(Ty::Scalar).unwrap_or_else(|| self.lit())
        }
    }

    fn scalar_expr(&mut self, d: usize) -> String {
        if d == 0 {
            return self.scalar_atom();
        }
        match self.below(12) {
            0 | 1 => {
                let a = self.scalar_expr(d - 1);
                let b = self.scalar_expr(d - 1);
                let op = ["+", "-", "*"][self.below(3) as usize];
                format!("({a} {op} {b})")
            }
            2 => {
                let a = self.scalar_expr(d - 1);
                let b = self.scalar_expr(d - 1);
                format!("({a} / (tf.square({b}) + 1.0))")
            }
            3 => {
                let f = ["tf.tanh", "tf.sigmoid"][self.below(2) as usize];
                let a = self.scalar_expr(d - 1);
                format!("{f}({a})")
            }
            4 if !self.vectors.is_empty() => {
                let f = ["tf.reduce_sum", "tf.reduce_mean"][self.below(2) as usize];
                let v = self.vector_expr(d - 1);
                format!("{f}({v})")
            }
            5 if !self.matrices.is_empty() => {
                let m = self.matrix_expr(d - 1);
                format!("tf.reduce_sum({m})")
            }
            6 => {
                let a = self.scalar_expr(d - 1);
                format!("(-{a})")
            }
            7 => {
                // ternary: dynamic dispatch on a tensor condition
                self.differentiable = false;
                let c = self.cond_expr(d - 1);
                let a = self.scalar_expr(d - 1);
                let b = self.scalar_expr(d - 1);
                format!("({a} if {c} else {b})")
            }
            8 => {
                self.differentiable = false;
                self.lantern_ok = false;
                let f = ["tf.maximum", "tf.minimum"][self.below(2) as usize];
                let a = self.scalar_expr(d - 1);
                let b = self.scalar_expr(d - 1);
                format!("{f}({a}, {b})")
            }
            9 => {
                // smooth, guarded transcendentals
                let a = self.scalar_expr(d - 1);
                match self.below(3) {
                    0 => format!("tf.sqrt(tf.square({a}) + 0.5)"),
                    1 => format!("tf.log(tf.square({a}) + 1.0)"),
                    _ => format!("tf.exp(tf.tanh({a}))"),
                }
            }
            10 => {
                let a = self.scalar_expr(d - 1);
                format!("tf.square({a})")
            }
            _ => self.scalar_atom(),
        }
    }

    fn vector_atom(&mut self) -> String {
        match self.pick_var(Ty::Vector) {
            Some(v) => v,
            // callers only request vectors when one exists, but stay safe
            None => self.scalar_atom(),
        }
    }

    /// Vector-or-scalar operand (broadcasting keeps the result a vector
    /// as long as the *other* operand is a vector).
    fn vec_or_scalar(&mut self, d: usize) -> String {
        if self.chance(35) {
            self.scalar_expr(d)
        } else {
            self.vector_expr(d)
        }
    }

    fn vector_expr(&mut self, d: usize) -> String {
        if d == 0 || self.vectors.is_empty() {
            return self.vector_atom();
        }
        match self.below(11) {
            0 | 1 => {
                let a = self.vector_expr(d - 1);
                let b = self.vec_or_scalar(d - 1);
                let op = ["+", "-", "*"][self.below(3) as usize];
                format!("({a} {op} {b})")
            }
            2 => {
                let a = self.vector_expr(d - 1);
                let b = self.vec_or_scalar(d - 1);
                format!("({a} / (tf.square({b}) + 1.0))")
            }
            3 => {
                let f = ["tf.tanh", "tf.sigmoid"][self.below(2) as usize];
                let a = self.vector_expr(d - 1);
                format!("{f}({a})")
            }
            4 => {
                // relu has a kink: fine for value oracles, not for FD
                self.differentiable = false;
                let a = self.vector_expr(d - 1);
                format!("tf.relu({a})")
            }
            5 => {
                self.differentiable = false;
                self.lantern_ok = false;
                let a = self.vector_expr(d - 1);
                format!("tf.abs({a})")
            }
            6 => {
                self.differentiable = false;
                self.lantern_ok = false;
                let a = self.vector_expr(d - 1);
                let b = self.vector_expr(d - 1);
                let c = self.vector_expr(d - 1);
                let e = self.vec_or_scalar(d - 1);
                format!("tf.where(({a} > {e}), {b}, {c})")
            }
            7 => {
                self.differentiable = false;
                self.lantern_ok = false;
                let f = ["tf.maximum", "tf.minimum"][self.below(2) as usize];
                let a = self.vector_expr(d - 1);
                let b = self.vec_or_scalar(d - 1);
                format!("{f}({a}, {b})")
            }
            8 => {
                self.differentiable = false;
                let c = self.cond_expr(d - 1);
                let a = self.vector_expr(d - 1);
                let b = self.vector_expr(d - 1);
                format!("({a} if {c} else {b})")
            }
            9 => {
                let a = self.vector_expr(d - 1);
                format!("(-{a})")
            }
            _ => self.vector_atom(),
        }
    }

    fn matrix_expr(&mut self, d: usize) -> String {
        let atom = match self.pick_var(Ty::Matrix) {
            Some(m) => m,
            None => return self.scalar_atom(),
        };
        if d == 0 {
            return atom;
        }
        match self.below(6) {
            0 => {
                let a = self.matrix_expr(d - 1);
                let b = self.matrix_expr(d - 1);
                format!("tf.matmul({a}, {b})")
            }
            1 => {
                let a = self.matrix_expr(d - 1);
                format!("tf.tanh({a})")
            }
            2 => {
                let a = self.matrix_expr(d - 1);
                let b = self.matrix_expr(d - 1);
                let op = ["+", "-"][self.below(2) as usize];
                format!("({a} {op} {b})")
            }
            3 => {
                let a = self.matrix_expr(d - 1);
                let s = self.scalar_expr(d - 1);
                format!("({a} * {s})")
            }
            _ => atom,
        }
    }

    /// A scalar boolean (tensor) condition.
    fn cond_expr(&mut self, d: usize) -> String {
        let base = |g: &mut Gen, d: usize| {
            let a = g.scalar_expr(d);
            let b = if g.chance(50) {
                g.lit()
            } else {
                g.scalar_expr(d)
            };
            let cmp = ["<", "<=", ">", ">="][g.below(4) as usize];
            format!("({a} {cmp} {b})")
        };
        if d == 0 {
            return base(self, 0);
        }
        match self.below(8) {
            0 => {
                let a = base(self, d - 1);
                let b = base(self, d - 1);
                format!("({a} and {b})")
            }
            1 => {
                let a = base(self, d - 1);
                let b = base(self, d - 1);
                format!("({a} or {b})")
            }
            2 => {
                let a = base(self, d - 1);
                format!("(not {a})")
            }
            _ => base(self, d),
        }
    }

    // ---- statements ----------------------------------------------------

    /// A contractive right-hand side for loop-carried variables: the
    /// result is either squashed into `[-1, 1]`-ish range or a bounded
    /// additive/decaying update of the target itself.
    fn bounded_update(&mut self, target: &str, ty: Ty) -> String {
        match self.below(4) {
            0 => format!("tf.tanh({})", self.expr(ty, 2)),
            1 => format!("tf.sigmoid({})", self.expr(ty, 2)),
            2 => {
                let inc = self.expr(ty, 1);
                format!("({target} + tf.tanh({inc}) * 0.5)")
            }
            _ => {
                let inc = self.lit();
                format!("({target} * 0.5 + {inc} * 0.25)")
            }
        }
    }

    /// Assignment to an *existing* variable (used in branch/loop bodies,
    /// where fresh names must not escape their scope).
    fn assign_existing(&mut self, indent: usize, bounded: bool) {
        let ty = self.pick_ty();
        let Some(target) = self.pick_var(ty) else {
            let t = self.fresh("s");
            let rhs = self.scalar_expr(2);
            self.line(indent, format!("{t} = {rhs}"));
            self.register(Ty::Scalar, t);
            return;
        };
        let rhs = if bounded {
            self.bounded_update(&target, ty)
        } else {
            self.expr(ty, 3)
        };
        if self.chance(20) && !bounded {
            let op = ["+", "*"][self.below(2) as usize];
            self.line(indent, format!("{target} {op}= tf.tanh({rhs})"));
        } else {
            self.line(indent, format!("{target} = {rhs}"));
        }
    }

    fn assign_new(&mut self, indent: usize) {
        let ty = self.pick_ty();
        let prefix = match ty {
            Ty::Scalar => "s",
            Ty::Vector => "v",
            Ty::Matrix => "m",
        };
        let name = self.fresh(prefix);
        let mut rhs = self.expr(ty, 3);
        // squash bias: keeps chained squaring from overflowing downstream
        if self.chance(40) {
            rhs = format!("tf.tanh({rhs})");
        }
        self.line(indent, format!("{name} = {rhs}"));
        self.register(ty, name);
    }

    fn if_stmt(&mut self, indent: usize, depth: usize) {
        self.differentiable = false;
        let cond = self.cond_expr(1);
        self.line(indent, format!("if {cond}:"));
        let n = 1 + self.below(2);
        for _ in 0..n {
            if depth > 0 && self.chance(25) {
                self.if_stmt(indent + 1, depth - 1);
            } else {
                self.assign_existing(indent + 1, false);
            }
        }
        if self.chance(60) {
            self.line(indent, "else:".to_string());
            let n = 1 + self.below(2);
            for _ in 0..n {
                self.assign_existing(indent + 1, false);
            }
        }
    }

    /// `i = 0; while i < K:` — the counter increment is always the first
    /// body statement, so `continue` can never skip it.
    fn host_while(&mut self, indent: usize) {
        self.differentiable &= true; // host-unrolled loops stay smooth
        self.lantern_ok = false;
        let i = self.fresh("i");
        let k = 2 + self.below(4); // 2..=5 iterations
        self.line(indent, format!("{i} = 0"));
        self.line(indent, format!("while {i} < {k}:"));
        self.line(indent + 1, format!("{i} = {i} + 1"));
        self.loop_depth += 1;
        let n = 1 + self.below(3);
        for _ in 0..n {
            self.loop_body_stmt(indent + 1, &i);
        }
        self.loop_depth -= 1;
    }

    /// One statement inside a loop body: bounded assignment, a guarded
    /// `break`/`continue`, or (shallowly) a nested loop.
    fn loop_body_stmt(&mut self, indent: usize, counter: &str) {
        match self.below(10) {
            0 if self.loop_depth < 2 => self.host_while(indent),
            1 => {
                // guarded break — the guard must be a *host* condition:
                // a tensor-guarded break entangles the loop's (host)
                // continuation condition with staged state, which cannot
                // stage (and errors, correctly, at staging time)
                self.differentiable = false;
                let m = 2 + self.below(3);
                self.line(indent, format!("if {counter} % {m} == 0:"));
                self.line(indent + 1, "break".to_string());
            }
            2 => {
                // guarded continue — host condition (see break), and
                // safe: the counter already advanced
                self.differentiable = false;
                let m = 2 + self.below(3);
                self.line(indent, format!("if {counter} % {m} == 0:"));
                self.line(indent + 1, "continue".to_string());
            }
            3 => {
                self.differentiable = false;
                let cond = self.cond_expr(1);
                self.line(indent, format!("if {cond}:"));
                self.assign_existing(indent + 1, true);
                if self.chance(50) {
                    self.line(indent, "else:".to_string());
                    self.assign_existing(indent + 1, true);
                }
            }
            _ => self.assign_existing(indent, true),
        }
    }

    /// Data-dependent `while`: accumulates a strictly positive quantity
    /// toward a small threshold, so the staged `While` node always
    /// terminates (progress >= 0.25 per iteration per element).
    fn tensor_while(&mut self, indent: usize) {
        self.differentiable = false;
        self.lantern_ok = false;
        let Some(seedv) = self.pick_var(Ty::Vector) else {
            return self.host_while(indent);
        };
        let t = self.fresh("v");
        let lim = 1 + self.below(5); // 1..=5
        let inc = self.vector_expr(1);
        self.line(indent, format!("{t} = {seedv} * 0.0"));
        self.line(
            indent,
            format!("while tf.reduce_sum(tf.abs({t})) < {lim}.0:"),
        );
        self.line(
            indent + 1,
            format!("{t} = {t} + tf.abs(tf.tanh({inc})) + 0.25"),
        );
        self.loop_depth += 1;
        if self.chance(50) {
            self.assign_existing(indent + 1, true);
        }
        self.loop_depth -= 1;
        self.register(Ty::Vector, t);
    }

    /// `for i in tf.range(K)` — optionally the list append/stack pattern.
    fn for_range(&mut self, indent: usize) {
        self.lantern_ok = false;
        let k = 2 + self.below(3); // 2..=4
        let i = self.fresh("i");
        if !self.vectors.is_empty() && self.chance(45) {
            // list pattern: append in a staged loop, optionally pop once
            // after it, then reduce the stacked result back to a vector
            self.differentiable = false;
            let l = self.fresh("l");
            let out = self.fresh("v");
            let elem = self.vector_expr(1);
            self.line(indent, format!("{l} = []"));
            self.line(indent, format!("ag.set_element_type({l}, tf.float32)"));
            self.line(indent, format!("for {i} in tf.range({k}):"));
            self.line(
                indent + 1,
                format!("{l}.append(tf.tanh({elem}) * float({i} + 1))"),
            );
            if self.chance(40) {
                let popped = self.fresh("v");
                self.line(indent, format!("{popped} = {l}.pop()"));
                self.line(indent, format!("{l}.append(tf.sigmoid({popped}))"));
                self.register(Ty::Vector, popped);
            }
            self.line(indent, format!("{out} = tf.reduce_sum(ag.stack({l}), 0)"));
            self.register(Ty::Vector, out);
        } else {
            self.line(indent, format!("for {i} in tf.range({k}):"));
            self.loop_depth += 1;
            let n = 1 + self.below(2);
            for _ in 0..n {
                self.assign_existing(indent + 1, true);
            }
            self.loop_depth -= 1;
        }
    }

    /// `for row in m:` — iterate the rows of a matrix.
    fn for_rows(&mut self, indent: usize) {
        self.differentiable = false;
        self.lantern_ok = false;
        let Some(m) = self.pick_var(Ty::Matrix) else {
            return self.for_range(indent);
        };
        let r = self.fresh("v");
        self.line(indent, format!("for {r} in {m}:"));
        // the row is visible inside the body only: converted `for` does
        // not guarantee the loop variable survives the loop
        self.vectors.push(r.clone());
        self.loop_depth += 1;
        let n = 1 + self.below(2);
        for _ in 0..n {
            self.assign_existing(indent + 1, true);
        }
        self.loop_depth -= 1;
        self.vectors.retain(|v| v != &r);
    }

    fn assert_stmt(&mut self, indent: usize) {
        self.lantern_ok = false;
        self.differentiable = false;
        let e = self.scalar_expr(1);
        // tautology: square(e) + 0.5 > 0 for every finite e
        self.line(indent, format!("assert tf.square({e}) + 0.5 > 0.0"));
    }

    fn top_stmt(&mut self, indent: usize) {
        match self.below(20) {
            0..=5 => self.assign_new(indent),
            6..=8 => self.assign_existing(indent, false),
            9..=11 => self.if_stmt(indent, 1),
            12..=13 => self.host_while(indent),
            14 => self.tensor_while(indent),
            15..=16 => self.for_range(indent),
            17 => self.for_rows(indent),
            18 => self.assert_stmt(indent),
            _ => self.assign_new(indent),
        }
    }

    /// The return-expression list (1 or 2 outputs).
    fn return_sig(&mut self) -> Vec<Ty> {
        let mut sig = vec![self.pick_ty()];
        if self.chance(20) {
            self.lantern_ok = false; // tuple results: graph/eager only
            self.differentiable = false;
            sig.push(self.pick_ty());
        }
        sig
    }

    fn return_exprs(&mut self, sig: &[Ty]) -> String {
        let parts: Vec<String> = sig.iter().map(|&t| self.expr(t, 2)).collect();
        parts.join(", ")
    }
}

/// Uniform tensor in `[lo, hi)` with the given shape.
fn uniform(rng: &mut Rng64, shape: &[usize], lo: f32, hi: f32) -> Tensor {
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n.max(1))
        .map(|_| lo + (hi - lo) * rng.next_f32())
        .collect();
    Tensor::from_vec(data, shape).expect("genprog feed shape is internally consistent")
}

/// Generate the program (and feeds) for one seed. Deterministic: the
/// same seed yields the byte-identical [`GenCase`].
pub fn generate(seed: u64) -> GenCase {
    let mut g = Gen {
        rng: Rng64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5DEE_CE66),
        lines: Vec::new(),
        scalars: Vec::new(),
        vectors: Vec::new(),
        matrices: Vec::new(),
        next_id: 0,
        loop_depth: 0,
        lantern_ok: true,
        differentiable: true,
    };

    // parameters: 1..=3, always at least one vector so vector-typed
    // expressions have an atom to bottom out in
    let n_params = 1 + g.below(3);
    let mut params = Vec::new();
    for p in 0..n_params {
        let ty = if p == 0 {
            Ty::Vector
        } else {
            [Ty::Scalar, Ty::Vector, Ty::Vector, Ty::Matrix][g.below(4) as usize]
        };
        let name = format!("x{p}");
        g.register(ty, name.clone());
        params.push((name, ty));
    }

    let param_names: Vec<&str> = params.iter().map(|(n, _)| n.as_str()).collect();
    g.line(0, format!("def f({}):", param_names.join(", ")));

    let n_stmts = 3 + g.below(8); // 3..=10 top-level statements
    for _ in 0..n_stmts {
        g.top_stmt(1);
    }

    // return: usually a plain (possibly tuple) return; sometimes the
    // early-return-from-a-staged-branch shapes
    let sig = g.return_sig();
    match g.below(10) {
        0 => {
            // early return guarded by a tensor condition
            g.differentiable = false;
            let c = g.cond_expr(1);
            let early = g.return_exprs(&sig);
            g.line(1, format!("if {c}:"));
            g.line(2, format!("return {early}"));
            let last = g.return_exprs(&sig);
            g.line(1, format!("return {last}"));
        }
        1 => {
            // both branches of a staged `if` return
            g.differentiable = false;
            let c = g.cond_expr(1);
            let a = g.return_exprs(&sig);
            let b = g.return_exprs(&sig);
            g.line(1, format!("if {c}:"));
            g.line(2, format!("return {a}"));
            g.line(1, "else:".to_string());
            g.line(2, format!("return {b}"));
        }
        _ => {
            let last = g.return_exprs(&sig);
            g.line(1, format!("return {last}"));
        }
    }

    let mut src = String::new();
    for (indent, text) in &g.lines {
        for _ in 0..*indent {
            src.push_str("    ");
        }
        src.push_str(text);
        src.push('\n');
    }

    // feeds from an independent stream of the same seed
    let mut frng = Rng64::new(seed.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ 0xFEED);
    let feeds: Vec<(String, Tensor)> = params
        .iter()
        .map(|(n, ty)| {
            let shape: &[usize] = match ty {
                Ty::Scalar => &[],
                Ty::Vector => &[VLEN],
                Ty::Matrix => &[VLEN, VLEN],
            };
            (n.clone(), uniform(&mut frng, shape, -1.5, 1.5))
        })
        .collect();

    // gate the gradient oracle on a differentiable first parameter
    let differentiable = g.differentiable && !matches!(params[0].1, Ty::Matrix);

    GenCase {
        seed,
        src,
        feeds,
        lantern_ok: g.lantern_ok,
        differentiable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_program_bitwise() {
        for seed in [0u64, 1, 7, 41, 999, u64::MAX] {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.src, b.src, "seed {seed} not reproducible");
            assert_eq!(a.feeds.len(), b.feeds.len());
            for ((n1, t1), (n2, t2)) in a.feeds.iter().zip(&b.feeds) {
                assert_eq!(n1, n2);
                assert_eq!(t1.to_f32_vec(), t2.to_f32_vec());
            }
            assert_eq!(a.lantern_ok, b.lantern_ok);
            assert_eq!(a.differentiable, b.differentiable);
        }
    }

    #[test]
    fn seeds_produce_distinct_programs() {
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..50 {
            distinct.insert(generate(seed).src);
        }
        assert!(distinct.len() > 40, "only {} distinct", distinct.len());
    }

    #[test]
    fn generated_programs_parse() {
        for seed in 0..200 {
            let case = generate(seed);
            autograph_pylang::parse_module(&case.src)
                .unwrap_or_else(|e| panic!("seed {seed}: parse: {e}\n{}", case.src));
        }
    }

    #[test]
    fn grammar_reaches_all_constructs() {
        let mut saw = std::collections::HashSet::new();
        for seed in 0..400 {
            let src = generate(seed).src;
            for needle in [
                "while",
                "for",
                "break",
                "continue",
                "if ",
                " else",
                ".append(",
                ".pop()",
                "ag.stack",
                " and ",
                " or ",
                "not ",
                " if ",
                "assert",
                "tf.where",
                "tf.matmul",
                "return",
            ] {
                if src.contains(needle) {
                    saw.insert(needle);
                }
            }
        }
        for needle in [
            "while", "for", "break", "continue", ".append(", ".pop()", " and ", " if ", "assert",
        ] {
            assert!(saw.contains(needle), "grammar never produced {needle:?}");
        }
    }
}
