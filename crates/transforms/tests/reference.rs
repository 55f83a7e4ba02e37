//! End-to-end reference tests of the full conversion pipeline — the
//! paper's §10 engineering practice: "interactions between features are
//! tested in end-to-end reference tests". Each case pins the exact
//! generated source for a representative input; any pass-interaction
//! regression shows up as a readable diff. The last group pins the
//! `break` / `continue` / `return` lowerings one pass at a time.

use autograph_pylang::{codegen::ast_to_source, parse_module, Module};
use autograph_transforms::pipeline::{convert_source, ConversionConfig};
use autograph_transforms::{break_stmt, continue_stmt, return_stmt, ConversionError, PassContext};

fn convert(src: &str) -> String {
    convert_source(src, &ConversionConfig::default()).expect("conversion")
}

type Pass = fn(Module, &mut PassContext) -> Result<Module, ConversionError>;

/// Run only the given passes, in order and sharing one symbol counter, as
/// the pipeline does.
fn lower(src: &str, passes: &[Pass]) -> String {
    let mut ctx = PassContext::new();
    let mut m = parse_module(src).expect("parse");
    for pass in passes {
        m = pass(m, &mut ctx).expect("pass");
    }
    ast_to_source(&m)
}

#[test]
fn reference_listing1() {
    let got = convert("def f(x):\n    if x > 0:\n        x = x * x\n    return x\n");
    let want = "\
@ag.autograph_artifact
def f(x):
    @ag.autograph_artifact
    def if_true__1():
        x = x * x
        return x
    @ag.autograph_artifact
    def if_false__2():
        return x
    x = ag.if_stmt(x > 0, if_true__1, if_false__2)
    return x
";
    assert_eq!(got, want);
}

#[test]
fn reference_while_with_logical_test() {
    let got =
        convert("def f(x, eps):\n    while x > eps and x > 0:\n        x = f2(x)\n    return x\n");
    let want = "\
@ag.autograph_artifact
def f(x, eps):
    @ag.autograph_artifact
    def loop_test__1(x):
        return ag.and_(x > eps, lambda: x > 0)
    @ag.autograph_artifact
    def loop_body__2(x):
        x = ag.converted_call(f2, x)
        return (x,)
    (x,) = ag.while_stmt(loop_test__1, loop_body__2, (x,))
    return x
";
    assert_eq!(got, want);
}

#[test]
fn reference_for_with_break_and_append() {
    let got = convert(
        "def f(xs):\n    out = []\n    for v in xs:\n        if v > 9:\n            break\n        out.append(v)\n    return ag.stack(out)\n",
    );
    // break lowers to a guard; the loop body is masked; append becomes a
    // functional list op; everything then functionalizes.
    let want = "\
@ag.autograph_artifact
def f(xs):
    out = []
    break__1 = False
    @ag.autograph_artifact
    def for_body__8(v, break__1, out):
        @ag.autograph_artifact
        def if_true__6():
            @ag.autograph_artifact
            def if_true__2():
                break__1 = True
                return break__1
            @ag.autograph_artifact
            def if_false__3():
                return break__1
            break__1 = ag.if_stmt(v > 9, if_true__2, if_false__3)
            @ag.autograph_artifact
            def if_true__4():
                out = ag.list_append(out, v)
                return out
            @ag.autograph_artifact
            def if_false__5():
                return out
            out = ag.if_stmt(ag.not_(break__1), if_true__4, if_false__5)
            return (break__1, out)
        @ag.autograph_artifact
        def if_false__7():
            return (break__1, out)
        (break__1, out) = ag.if_stmt(ag.not_(break__1), if_true__6, if_false__7)
        return (break__1, out)
    (break__1, out) = ag.for_stmt(xs, for_body__8, (break__1, out))
    return ag.stack(out)
";
    assert_eq!(got, want);
}

#[test]
fn reference_early_return_structured() {
    let got = convert("def f(x):\n    if x > 0:\n        return g(x)\n    return h(x)\n");
    let want = "\
@ag.autograph_artifact
def f(x):
    retval__1 = ag.undefined('retval__1')
    @ag.autograph_artifact
    def if_true__2():
        retval__1 = ag.converted_call(g, x)
        return retval__1
    @ag.autograph_artifact
    def if_false__3():
        retval__1 = ag.converted_call(h, x)
        return retval__1
    retval__1 = ag.if_stmt(x > 0, if_true__2, if_false__3)
    return retval__1
";
    assert_eq!(got, want);
}

#[test]
fn reference_setitem_and_augassign() {
    let got = convert("def f(x, i):\n    x[i] += 1.0\n    return x\n");
    let want = "\
@ag.autograph_artifact
def f(x, i):
    x = ag.setitem(x, i, x[i] + 1.0)
    return x
";
    assert_eq!(got, want);
}

#[test]
fn reference_ternary_and_eq() {
    let got = convert("def f(a, b):\n    r = a if a == b else b\n    return r\n");
    let want = "\
@ag.autograph_artifact
def f(a, b):
    r = ag.if_stmt(ag.eq_(a, b), lambda: a, lambda: b)
    return r
";
    assert_eq!(got, want);
}

#[test]
fn reference_print_and_assert() {
    let got = convert("def f(x):\n    assert x > 0, 'positive'\n    print(x)\n    return x\n");
    let want = "\
@ag.autograph_artifact
def f(x):
    ag.assert_stmt(x > 0, 'positive')
    ag.print_(x)
    return x
";
    assert_eq!(got, want);
}

#[test]
fn reference_nested_function_conversion() {
    let got = convert(
        "def outer(x):\n    def inner(y):\n        if y > 0:\n            y = y - 1\n        return y\n    return inner(x)\n",
    );
    let want = "\
@ag.autograph_artifact
def outer(x):
    @ag.autograph_artifact
    def inner(y):
        @ag.autograph_artifact
        def if_true__1():
            y = y - 1
            return y
        @ag.autograph_artifact
        def if_false__2():
            return y
        y = ag.if_stmt(y > 0, if_true__1, if_false__2)
        return y
    return ag.converted_call(inner, x)
";
    assert_eq!(got, want);
}

#[test]
fn reference_continue_in_while() {
    let got = convert(
        "def f(n):\n    i = 0\n    s = 0\n    while i < n:\n        i = i + 1\n        if i % 2 == 0:\n            continue\n        s = s + i\n    return s\n",
    );
    // continue lowers to a guard + masked trailing statements, then the
    // whole loop functionalizes with (i, s) as state
    assert!(got.contains("continue__1 = False"), "{got}");
    assert!(
        got.contains("(continue__1, i, s)") || got.contains("(i, s)"),
        "{got}"
    );
    assert!(got.contains("ag.while_stmt"), "{got}");
    assert!(!got.contains("continue\n"), "{got}");
}

#[test]
fn reference_hyperparameter_if_still_functionalized_but_dispatches() {
    // conversion is type-blind: even a hyperparameter conditional becomes
    // ag.if_stmt; dynamic dispatch at runtime keeps it imperative
    let got =
        convert("def f(x, use_relu):\n    if use_relu:\n        x = tf.relu(x)\n    return x\n");
    assert!(got.contains("ag.if_stmt(use_relu"), "{got}");
    assert!(got.contains("tf.relu(x)"), "tf call not wrapped: {got}");
}

// ---- guard lowering of break / continue / return, pass by pass ----------

#[test]
fn reference_return_inside_while() {
    let got = lower(
        "def f(x):\n    while x > 0:\n        if x > 5:\n            return x\n        x = x - 1\n    return 0\n",
        &[return_stmt::run],
    );
    let want = "\
def f(x):
    do_return__2 = False
    retval__1 = None
    while not do_return__2 and x > 0:
        if x > 5:
            do_return__2 = True
            retval__1 = x
        if not do_return__2:
            x = x - 1
    if not do_return__2:
        do_return__2 = True
        retval__1 = 0
    return retval__1
";
    assert_eq!(got, want);
}

#[test]
fn reference_return_inside_for() {
    let got = lower(
        "def f(xs):\n    s = 0\n    for v in xs:\n        if v > 2:\n            return v\n        s = s + v\n    return s\n",
        &[return_stmt::run],
    );
    let want = "\
def f(xs):
    do_return__2 = False
    retval__1 = None
    s = 0
    for v in xs:
        if not do_return__2:
            if v > 2:
                do_return__2 = True
                retval__1 = v
            if not do_return__2:
                s = s + v
    if not do_return__2:
        do_return__2 = True
        retval__1 = s
    return retval__1
";
    assert_eq!(got, want);
}

#[test]
fn reference_return_partial_branch_falls_back_to_guards() {
    let got = lower(
        "def f(x):\n    if a:\n        if b:\n            return 1\n        x = 2\n    y = 3\n    return y\n",
        &[return_stmt::run],
    );
    let want = "\
def f(x):
    do_return__2 = False
    retval__1 = None
    if a:
        if b:
            do_return__2 = True
            retval__1 = 1
        if not do_return__2:
            x = 2
    if not do_return__2:
        y = 3
        do_return__2 = True
        retval__1 = y
    return retval__1
";
    assert_eq!(got, want);
}

#[test]
fn reference_break_and_continue_in_one_loop() {
    let got = lower(
        "def f(n):\n    i = 0\n    s = 0\n    while i < n:\n        i = i + 1\n        if i % 3 == 0:\n            continue\n        if s > 10:\n            break\n        s = s + i\n    return s\n",
        &[break_stmt::run, continue_stmt::run, return_stmt::run],
    );
    let want = "\
def f(n):
    i = 0
    s = 0
    break__1 = False
    while not break__1 and i < n:
        continue__2 = False
        i = i + 1
        if i % 3 == 0:
            continue__2 = True
        if not continue__2:
            if s > 10:
                break__1 = True
            if not break__1:
                s = s + i
    return s
";
    assert_eq!(got, want);
}

#[test]
fn reference_nested_loops_each_break() {
    let got = lower(
        "while a:\n    while b:\n        if p:\n            break\n        x = 1\n    if q:\n        break\n    y = 2\n",
        &[break_stmt::run],
    );
    let want = "\
break__2 = False
while not break__2 and a:
    break__1 = False
    while not break__1 and b:
        if p:
            break__1 = True
        if not break__1:
            x = 1
    if q:
        break__2 = True
    if not break__2:
        y = 2
";
    assert_eq!(got, want);
}

#[test]
fn reference_for_with_trailing_break() {
    let got = lower(
        "for i in xs:\n    s = s + i\n    break\n",
        &[break_stmt::run],
    );
    let want = "\
break__1 = False
for i in xs:
    if not break__1:
        s = s + i
        break__1 = True
";
    assert_eq!(got, want);
}
