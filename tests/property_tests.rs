//! Property-based tests over core data structures and invariants:
//! tensor algebra, symbolic-vs-numeric gradients, structured-vs-CFG
//! liveness, and codegen round-trips.

use autograph::analysis;
use autograph::graph::builder::GraphBuilder;
use autograph::graph::grad::gradients;
use autograph::graph::ir::Op;
use autograph::prelude::*;
use proptest::prelude::*;

fn vec_tensor(max: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, 1..=max).prop_map(|v| {
        let n = v.len();
        Tensor::from_vec(v, &[n]).expect("shape")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- tensor algebra -----------------------------------------------------

    #[test]
    fn add_commutes((a, b) in (1usize..16).prop_flat_map(|n| (
        proptest::collection::vec(-10.0f32..10.0, n).prop_map(move |v| Tensor::from_vec(v, &[n]).unwrap()),
        proptest::collection::vec(-10.0f32..10.0, n).prop_map(move |v| Tensor::from_vec(v, &[n]).unwrap()),
    ))) {
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab.as_f32().unwrap(), ba.as_f32().unwrap());
    }

    #[test]
    fn mul_distributes_over_add((a, b, c) in (1usize..8).prop_flat_map(|n| (
        proptest::collection::vec(-10.0f32..10.0, n).prop_map(move |v| Tensor::from_vec(v, &[n]).unwrap()),
        proptest::collection::vec(-10.0f32..10.0, n).prop_map(move |v| Tensor::from_vec(v, &[n]).unwrap()),
        proptest::collection::vec(-10.0f32..10.0, n).prop_map(move |v| Tensor::from_vec(v, &[n]).unwrap()),
    ))) {
        let lhs = a.mul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.mul(&b).unwrap().add(&a.mul(&c).unwrap()).unwrap();
        for (x, y) in lhs.as_f32().unwrap().iter().zip(rhs.as_f32().unwrap()) {
            prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
    }

    #[test]
    fn broadcast_scalar_matches_elementwise(a in vec_tensor(16), s in -5.0f32..5.0) {
        let scalar = Tensor::scalar_f32(s);
        let out = a.add(&scalar).unwrap();
        for (x, y) in a.as_f32().unwrap().iter().zip(out.as_f32().unwrap()) {
            prop_assert_eq!(x + s, *y);
        }
    }

    #[test]
    fn stack_then_index_recovers(rows in (1usize..6).prop_flat_map(|n|
        proptest::collection::vec(
            proptest::collection::vec(-10.0f32..10.0, n)
                .prop_map(move |v| Tensor::from_vec(v, &[n]).unwrap()),
            1..5,
        ))) {
        let stacked = Tensor::stack(&rows).unwrap();
        for (i, r) in rows.iter().enumerate() {
            let back = stacked.index_axis0(i as i64).unwrap();
            prop_assert_eq!(back.as_f32().unwrap(), r.as_f32().unwrap());
        }
    }

    #[test]
    fn top_k_is_sorted_and_members(a in vec_tensor(24), k in 1usize..6) {
        prop_assume!(k <= a.num_elements());
        let (vals, idxs) = a.top_k(k).unwrap();
        let v = vals.as_f32().unwrap();
        prop_assert!(v.windows(2).all(|w| w[0] >= w[1]), "sorted descending");
        let data = a.as_f32().unwrap();
        for (val, idx) in v.iter().zip(idxs.as_i64().unwrap()) {
            prop_assert_eq!(*val, data[*idx as usize]);
        }
        // the k-th value is >= every non-selected element
        let selected: std::collections::HashSet<i64> =
            idxs.as_i64().unwrap().iter().copied().collect();
        let kth = v[k - 1];
        for (i, x) in data.iter().enumerate() {
            if !selected.contains(&(i as i64)) {
                prop_assert!(*x <= kth, "{} > kth {}", x, kth);
            }
        }
    }

    #[test]
    fn setitem_then_getitem(a in vec_tensor(10), v in -5.0f32..5.0, i in 0usize..10) {
        prop_assume!(i < a.num_elements());
        let updated = a.set_index_axis0(i as i64, &Tensor::scalar_f32(v)).unwrap();
        prop_assert_eq!(updated.index_axis0(i as i64).unwrap().scalar_value_f32().unwrap(), v);
        // all other elements untouched
        for j in 0..a.num_elements() {
            if j != i {
                prop_assert_eq!(
                    updated.as_f32().unwrap()[j],
                    a.as_f32().unwrap()[j]
                );
            }
        }
        // original unchanged (value semantics)
        prop_assert_ne!(a.as_f32().unwrap()[i].to_bits(), f32::to_bits(v + 100.0));
    }

    #[test]
    fn softmax_is_distribution(a in vec_tensor(12)) {
        let s = a.softmax().unwrap();
        let v = s.as_f32().unwrap();
        prop_assert!(v.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let total: f32 = v.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-4);
    }

    // ---- symbolic gradients vs finite differences ------------------------------

    #[test]
    fn graph_gradient_matches_finite_difference(x0 in proptest::collection::vec(-2.0f32..2.0, 3)) {
        // loss = sum(tanh(x)^2 + 0.5 x)
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let t = b.tanh(x);
        let sq = b.add(Op::Square, vec![t]);
        let half = b.scalar(0.5);
        let lin = b.mul(x, half);
        let s = b.add_op(sq, lin);
        let loss = b.add(Op::ReduceSum(None), vec![s]);
        let grads = gradients(&mut b, loss, &[x]).unwrap();
        let gx = grads[0];
        let mut sess = Session::new(b.finish());

        let base = Tensor::from_vec(x0.clone(), &[3]).unwrap();
        let analytic = sess.run(&[("x", base)], &[gx]).unwrap()[0].clone();
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut plus = x0.clone();
            plus[i] += eps;
            let mut minus = x0.clone();
            minus[i] -= eps;
            let lp = sess
                .run(&[("x", Tensor::from_vec(plus, &[3]).unwrap())], &[loss])
                .unwrap()[0]
                .scalar_value_f32()
                .unwrap();
            let lm = sess
                .run(&[("x", Tensor::from_vec(minus, &[3]).unwrap())], &[loss])
                .unwrap()[0]
                .scalar_value_f32()
                .unwrap();
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.as_f32().unwrap()[i];
            prop_assert!((a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()), "{} vs {}", a, numeric);
        }
    }

    // ---- optimization soundness --------------------------------------------------

    #[test]
    fn optimization_preserves_results(x0 in proptest::collection::vec(-3.0f32..3.0, 4)) {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        // build redundancy on purpose: duplicate subexpressions + constants
        let c1 = b.scalar(2.0);
        let c2 = b.scalar(3.0);
        let c3 = b.add_op(c1, c2);
        let t1 = b.tanh(x);
        let t2 = b.tanh(x);
        let m1 = b.mul(t1, c3);
        let m2 = b.mul(t2, c3);
        let out = b.add_op(m1, m2);
        let _dead = b.sigmoid(x);
        let g = b.finish();

        let input = Tensor::from_vec(x0, &[4]).unwrap();
        let mut sess_raw = Session::new(g.clone());
        let raw = sess_raw.run(&[("x", input.clone())], &[out]).unwrap();
        let (og, keep, stats) = autograph::graph::optimize::optimize(&g, &[out]);
        prop_assert!(stats.deduped >= 1 && stats.folded >= 1 && stats.eliminated >= 1);
        let mut sess_opt = Session::new(og);
        let opt = sess_opt.run(&[("x", input)], &[keep[0]]).unwrap();
        prop_assert_eq!(raw[0].as_f32().unwrap(), opt[0].as_f32().unwrap());
    }
}

// ---- analysis invariants (non-proptest fixtures + random programs) ----------

#[test]
fn structured_liveness_superset_of_cfg_liveness() {
    // on arbitrary (break-free) programs the structured analysis must be a
    // superset of (usually equal to) the CFG fixpoint
    let programs = [
        "x = a\ny = x + b\nz = y\n",
        "if c:\n    x = 1\nelse:\n    x = d\ny = x\n",
        "while c:\n    x = x + d\n    if e:\n        x = 0\nr = x\n",
        "for i in xs:\n    if i:\n        s = s + i\n    else:\n        t = t + 1\nr = s + t\n",
    ];
    for src in programs {
        let body = autograph::pylang::parse_module(src).unwrap().body;
        let out: analysis::SymbolSet = ["r", "y", "z"].iter().map(|s| s.to_string()).collect();
        let structured = analysis::liveness::live_into(&body, &out);
        let cfg = analysis::cfg::Cfg::build(&body);
        let fix = analysis::dataflow::liveness(&cfg, &out);
        for s in &fix.live_in[analysis::cfg::ENTRY] {
            assert!(
                structured.contains(s),
                "{src}: {s} missing from structured result"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Codegen is a fix-point: parse(render(ast)) renders identically.
    #[test]
    fn codegen_round_trip_on_random_programs(seed in 0u64..10_000) {
        // reuse the tensor RNG to synthesize small programs deterministically
        let mut rng = Rng64::new(seed);
        let mut src = String::from("def f(a, b):\n");
        let vars = ["a", "b", "x", "y"];
        for i in 0..(1 + rng.next_below(4)) {
            let v = vars[rng.next_below(4) as usize];
            let w = vars[rng.next_below(4) as usize];
            let op = ["+", "-", "*"][rng.next_below(3) as usize];
            match rng.next_below(3) {
                0 => src.push_str(&format!("    x = {v} {op} {w}\n")),
                1 => src.push_str(&format!(
                    "    if {v} < {w}:\n        y = {v} {op} {w}\n    else:\n        y = {}\n",
                    rng.next_below(50)
                )),
                _ => src.push_str(&format!(
                    "    for i{i} in range({}):\n        x = x {op} i{i}\n",
                    1 + rng.next_below(4)
                )),
            }
        }
        src.push_str("    return x + y\n");
        let m1 = autograph::pylang::parse_module(&src).unwrap();
        let r1 = autograph::pylang::codegen::ast_to_source(&m1);
        let m2 = autograph::pylang::parse_module(&r1).unwrap();
        let r2 = autograph::pylang::codegen::ast_to_source(&m2);
        prop_assert_eq!(r1, r2, "not a fixpoint for\n{}", src);
    }

    /// The frontend never panics: arbitrary byte soup either parses or
    /// returns a located error.
    #[test]
    fn parser_never_panics(input in r"[ -~\n\t]{0,200}") {
        match autograph::pylang::parse_module(&input) {
            Ok(m) => {
                // whatever parsed must render and re-parse
                let rendered = autograph::pylang::codegen::ast_to_source(&m);
                prop_assert!(autograph::pylang::parse_module(&rendered).is_ok(),
                    "codegen of parsed input must re-parse:\n{}", rendered);
            }
            Err(e) => {
                prop_assert!(e.span.line >= 1 || e.span.is_synthetic());
            }
        }
    }

    /// Neither does the full conversion pipeline.
    #[test]
    fn converter_never_panics(input in r"[a-z0-9 :=+*()<>\n-]{0,150}") {
        let _ = autograph::convert_source(&input); // Ok or Err, never panic
    }

    /// Conversion is idempotent: converting already-converted code leaves
    /// artifacts untouched (functions keep single markers and behaviour).
    #[test]
    fn conversion_artifact_marking_idempotent(n in 1i64..20) {
        let src = "def f(x):\n    if x > 0:\n        return x * 2\n    return x\n";
        let once = autograph::convert_source(src).unwrap();
        let mut rt = Runtime::load(&once, false).unwrap(); // already converted
        let v = rt.call("f", vec![Value::Int(n)]).unwrap();
        prop_assert_eq!(v.as_int().unwrap(), n * 2);
    }
}
