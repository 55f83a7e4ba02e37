//! Shared PyLite program corpus used by the differential harness
//! (`tests/differential.rs`) and the chaos/fault-injection suite
//! (`tests/chaos.rs`). Include with `#[path = "support/corpus.rs"]`.
#![allow(dead_code)]

use autograph::prelude::*;

/// One corpus case: a function plus its feeds. `lantern` marks programs
/// whose op set the Lantern compiler supports (no loops — it expresses
/// iteration through recursion — and no list/stack ops).
pub struct Program {
    pub name: &'static str,
    pub src: &'static str,
    pub feeds: Vec<(&'static str, Tensor)>,
    pub lantern: bool,
}

pub fn v(data: Vec<f32>, shape: &[usize]) -> Tensor {
    Tensor::from_vec(data, shape).expect("literal tensor")
}

/// `n` deterministic values in `[-2, 2]` for feeds too large to spell out.
pub fn wave(n: usize, phase: f32) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 * 0.37 + phase).sin() * 2.0)
        .collect()
}

pub fn programs() -> Vec<Program> {
    vec![
        Program {
            name: "scalar_arith",
            src: "def f(x, y):\n    return x * 2.0 + y - 0.5\n",
            feeds: vec![("x", Tensor::scalar_f32(3.0)), ("y", Tensor::scalar_f32(4.0))],
            lantern: true,
        },
        Program {
            name: "vector_arith",
            src: "def f(x, y):\n    return (x + y) * (x - y) / (y + 2.0)\n",
            feeds: vec![
                ("x", v(vec![1.0, 2.0, 3.0], &[3])),
                ("y", v(vec![0.5, -1.5, 2.5], &[3])),
            ],
            lantern: true,
        },
        Program {
            name: "activations",
            src: "def f(x):\n    return tf.tanh(x) + tf.sigmoid(x) * tf.relu(x)\n",
            feeds: vec![("x", v(vec![-2.0, -0.5, 0.0, 0.5, 2.0], &[5]))],
            lantern: true,
        },
        Program {
            name: "exp_log_sqrt",
            src: "def f(x):\n    return tf.exp(x * 0.1) + tf.log(x + 3.0) + tf.sqrt(tf.square(x))\n",
            feeds: vec![("x", v(vec![0.5, 1.5, 2.5], &[3]))],
            lantern: true,
        },
        Program {
            name: "matmul_chain",
            src: "def f(a, b):\n    c = tf.matmul(a, b)\n    return tf.matmul(c, a)\n",
            feeds: vec![
                ("a", v(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])),
                ("b", v(vec![0.5, -0.5, 1.5, 0.25], &[2, 2])),
            ],
            lantern: true,
        },
        Program {
            name: "reduce_sum_mean",
            src: "def f(x):\n    return tf.reduce_sum(x) + tf.reduce_mean(x)\n",
            feeds: vec![("x", v(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]))],
            lantern: true,
        },
        Program {
            name: "cond_positive",
            src: "def f(x):\n    if tf.reduce_sum(x) > 0.0:\n        x = x * x\n    else:\n        x = -x\n    return x\n",
            feeds: vec![("x", v(vec![1.0, 2.0], &[2]))],
            lantern: true,
        },
        Program {
            name: "cond_negative",
            src: "def f(x):\n    if tf.reduce_sum(x) > 0.0:\n        x = x * x\n    else:\n        x = -x\n    return x\n",
            feeds: vec![("x", v(vec![-1.0, -2.0], &[2]))],
            lantern: true,
        },
        Program {
            name: "nested_cond",
            src: "def f(x):\n    s = tf.reduce_sum(x)\n    if s > 0.0:\n        if s > 10.0:\n            x = x * 3.0\n        else:\n            x = x * 2.0\n    else:\n        x = x - 1.0\n    return x\n",
            feeds: vec![("x", v(vec![2.0, 3.0], &[2]))],
            lantern: true,
        },
        Program {
            name: "early_return",
            src: "def f(x):\n    if tf.reduce_sum(x) > 0.0:\n        return x * 2.0\n    return x - 1.0\n",
            feeds: vec![("x", v(vec![0.5, 0.25], &[2]))],
            lantern: true,
        },
        Program {
            name: "helper_call",
            src: "def g(v):\n    return tf.tanh(v) + 1.0\n\ndef f(x):\n    return g(x) * g(x * 0.5)\n",
            feeds: vec![("x", v(vec![0.1, -0.2, 0.3], &[3]))],
            lantern: true,
        },
        Program {
            name: "while_accumulate",
            src: "def f(x):\n    total = x * 0.0\n    while tf.reduce_sum(total) < 50.0:\n        total = total + x\n    return total\n",
            feeds: vec![("x", v(vec![3.0, 4.0], &[2]))],
            lantern: false,
        },
        Program {
            name: "while_counter",
            src: "def f(x):\n    i = 0\n    while i < 7:\n        x = x * 1.1 + 0.01\n        i = i + 1\n    return x\n",
            feeds: vec![("x", v(vec![1.0, -1.0], &[2]))],
            lantern: false,
        },
        Program {
            name: "for_range",
            src: "def f(x):\n    acc = x * 0.0\n    for i in tf.range(5):\n        acc = acc + x * float(i)\n    return acc\n",
            feeds: vec![("x", v(vec![1.0, 2.0], &[2]))],
            lantern: false,
        },
        Program {
            name: "for_over_rows",
            src: "def f(xs):\n    run = tf.reduce_sum(xs[0]) * 0.0\n    for row in xs:\n        run = run + tf.reduce_sum(row)\n    return run\n",
            feeds: vec![("xs", v(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]))],
            lantern: false,
        },
        Program {
            name: "nested_loops",
            src: "def f(x):\n    i = 0\n    while i < 3:\n        j = 0\n        while j < 4:\n            x = x + 0.25\n            j = j + 1\n        i = i + 1\n    return x\n",
            feeds: vec![("x", v(vec![0.0, 10.0], &[2]))],
            lantern: false,
        },
        Program {
            name: "loop_with_cond",
            src: "def f(x):\n    i = 0\n    while i < 6:\n        if x[0] > 0.0:\n            x = x * 0.5\n        else:\n            x = x + 1.0\n        i = i + 1\n    return x\n",
            feeds: vec![("x", v(vec![4.0, -4.0], &[2]))],
            lantern: false,
        },
        Program {
            name: "break_continue",
            src: "def f(x):\n    i = 0\n    total = x * 0.0\n    while True:\n        i = i + 1\n        if i % 2 == 0:\n            continue\n        total = total + x * float(i)\n        if i >= 9:\n            break\n    return total\n",
            feeds: vec![("x", v(vec![1.0, 10.0], &[2]))],
            lantern: false,
        },
        Program {
            name: "list_append_stack",
            src: "def f(x):\n    acc = []\n    ag.set_element_type(acc, tf.float32)\n    for i in tf.range(4):\n        acc.append(x * float(i))\n    return ag.stack(acc)\n",
            feeds: vec![("x", v(vec![1.0, 2.0], &[2]))],
            lantern: false,
        },
        Program {
            name: "list_running_sums",
            src: "def f(xs):\n    acc = []\n    run = tf.reduce_sum(xs[0]) * 0.0\n    for row in xs:\n        run = run + tf.reduce_sum(row)\n        acc.append(run)\n    return ag.stack(acc)\n",
            feeds: vec![("xs", v(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]))],
            lantern: false,
        },
        Program {
            name: "assert_passes",
            src: "def f(x):\n    assert tf.reduce_sum(x) > 0.0\n    return x * 2.0\n",
            feeds: vec![("x", v(vec![1.0, 2.0], &[2]))],
            lantern: false,
        },
        Program {
            name: "assert_in_loop",
            src: "def f(x):\n    i = 0\n    while i < 3:\n        x = x + 1.0\n        assert x[0] > 0.0\n        i = i + 1\n    return x\n",
            feeds: vec![("x", v(vec![0.5, 1.5], &[2]))],
            lantern: false,
        },
        Program {
            name: "print_side_effect",
            src: "def f(x):\n    tf.print(x)\n    y = x * 3.0\n    tf.print(y)\n    return y\n",
            feeds: vec![("x", v(vec![1.0, 2.0], &[2]))],
            lantern: false,
        },
        Program {
            name: "indexing_slicing",
            src: "def f(m):\n    first = m[0]\n    rest = m[1:]\n    return first + tf.reduce_sum(rest, 0)\n",
            feeds: vec![("m", v(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]))],
            lantern: false,
        },
        Program {
            name: "where_select",
            src: "def f(x, y):\n    return tf.where(x > y, x, y)\n",
            feeds: vec![
                ("x", v(vec![1.0, 5.0, 3.0], &[3])),
                ("y", v(vec![4.0, 2.0, 3.5], &[3])),
            ],
            lantern: false,
        },
        Program {
            name: "reduce_axes",
            src: "def f(m):\n    a = tf.reduce_sum(m, 0)\n    b = tf.reduce_mean(m, 1)\n    return tf.reduce_sum(a) + tf.reduce_sum(b)\n",
            feeds: vec![("m", v(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]))],
            lantern: false,
        },
        Program {
            name: "multi_output",
            src: "def f(x):\n    return x + 1.0, x * 2.0\n",
            feeds: vec![("x", v(vec![1.0, 2.0], &[2]))],
            lantern: false,
        },
        Program {
            name: "independent_branches",
            src: "def f(x, y):\n    a = tf.tanh(tf.matmul(x, y))\n    b = tf.sigmoid(tf.matmul(y, x))\n    c = tf.relu(x - y)\n    d = tf.exp(y * 0.1)\n    return tf.reduce_sum(a) + tf.reduce_sum(b) + tf.reduce_sum(c) + tf.reduce_sum(d)\n",
            feeds: vec![
                ("x", v(vec![0.5, -0.5, 1.0, 0.25], &[2, 2])),
                ("y", v(vec![1.0, 0.5, -0.25, 0.75], &[2, 2])),
            ],
            lantern: true,
        },
        Program {
            name: "loop_carried_matmul",
            src: "def f(x, w):\n    i = 0\n    while i < 4:\n        x = tf.tanh(tf.matmul(x, w))\n        i = i + 1\n    return x\n",
            feeds: vec![
                ("x", v(vec![0.1, 0.2, 0.3, 0.4], &[2, 2])),
                ("w", v(vec![0.5, -0.5, 0.25, 0.75], &[2, 2])),
            ],
            lantern: false,
        },
        Program {
            name: "sibling_loops",
            // two staged `While` nodes in one function that share an
            // input but no state: one carries a matmul, one only counts
            src: "def f(x, w):\n    h = x\n    i = tf.constant(0.0)\n    while i < 4.0:\n        h = tf.tanh(tf.matmul(h, w))\n        i = i + 1.0\n    n = tf.reduce_sum(x) * 0.0\n    while n < 6.0:\n        n = n + 1.0\n    return h, n\n",
            feeds: vec![
                ("x", v(vec![0.1, 0.2, 0.3, 0.4], &[2, 2])),
                ("w", v(vec![0.5, -0.5, 0.25, 0.75], &[2, 2])),
            ],
            lantern: false,
        },
        Program {
            name: "max_min_mix",
            src: "def f(x, y):\n    return tf.maximum(x, y) + tf.minimum(x, y) - tf.abs(x - y)\n",
            feeds: vec![
                ("x", v(vec![1.0, -2.0, 3.0], &[3])),
                ("y", v(vec![-1.0, 2.0, 3.0], &[3])),
            ],
            lantern: false,
        },
        Program {
            name: "nested_while_break_continue",
            // break and continue at different nesting depths: the outer
            // loop skips even iterations, the inner loop breaks early
            src: "def f(x):\n    i = 0\n    total = x * 0.0\n    while i < 6:\n        i = i + 1\n        if i % 2 == 0:\n            continue\n        j = 0\n        while j < 5:\n            j = j + 1\n            if j >= 3:\n                break\n            total = total + x * float(i + j)\n    return total\n",
            feeds: vec![("x", v(vec![1.0, 10.0], &[2]))],
            lantern: false,
        },
        Program {
            name: "ternary_in_loop_condition",
            // a host ternary inside the while condition itself
            src: "def f(x):\n    i = 0\n    while (i if i % 3 != 0 else i + 1) < 7:\n        x = x * 1.05 + 0.01\n        i = i + 1\n    return x\n",
            feeds: vec![("x", v(vec![1.0, -1.0], &[2]))],
            lantern: false,
        },
        Program {
            name: "ternary_staged_select",
            // tensor-condition ternary: stages to a Select, no branching
            src: "def f(x):\n    y = (x * 2.0 if tf.reduce_sum(x) > 0.0 else x - 1.0)\n    return y + (0.5 if tf.reduce_mean(y) < 0.0 else 1.5)\n",
            feeds: vec![("x", v(vec![0.5, -0.25], &[2]))],
            lantern: true,
        },
        Program {
            name: "list_append_pop_in_cond",
            // list mutation under host control flow inside a staged loop:
            // every row is appended, every third accumulated prefix is
            // popped, squashed, and re-appended
            src: "def f(xs):\n    acc = []\n    ag.set_element_type(acc, tf.float32)\n    n = 0\n    for row in xs:\n        acc.append(tf.tanh(row))\n        n = n + 1\n        if n % 3 == 0:\n            last = acc.pop()\n            acc.append(tf.sigmoid(last))\n    return ag.stack(acc)\n",
            feeds: vec![(
                "xs",
                v(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[4, 2]),
            )],
            lantern: false,
        },
        Program {
            name: "early_return_both_branches",
            // both arms of a staged (tensor-condition) if return: the
            // converter must merge two early returns into one output
            src: "def f(x):\n    if tf.reduce_sum(x) > 0.0:\n        return x * 2.0\n    else:\n        return x - 1.0\n",
            feeds: vec![("x", v(vec![-0.5, -0.25], &[2]))],
            lantern: true,
        },
        Program {
            name: "logical_ops_staged_cond",
            // and/or/not over tensor comparisons in a staged condition
            src: "def f(x):\n    s = tf.reduce_sum(x)\n    m = tf.reduce_mean(x)\n    if s > 0.0 and not (m > 2.0):\n        x = x * 2.0\n    if s < -1.0 or m > 0.0:\n        x = x + 0.25\n    return x\n",
            feeds: vec![("x", v(vec![1.0, 0.5], &[2]))],
            lantern: true,
        },
        Program {
            name: "accumulate_scalars_in_loop",
            src: "def f(x):\n    s = 0.0\n    i = 0\n    while i < 10:\n        s = s + float(i) * 0.5\n        i = i + 1\n    return x * s\n",
            feeds: vec![("x", v(vec![1.0, 2.0], &[2]))],
            lantern: false,
        },
        Program {
            name: "multi_strip_bias_tanh",
            // 900 outputs: the elementwise kernels walk several strips
            // and end on a partial one, with a row bias and a scalar
            src: "def f(x, b, s):\n    return tf.tanh(x + b + x * s) * b - s\n",
            feeds: vec![
                ("x", v(wave(900, 0.0), &[3, 300])),
                ("b", v(wave(300, 1.0), &[300])),
                ("s", Tensor::scalar_f32(0.25)),
            ],
            lantern: true,
        },
        Program {
            name: "multi_strip_masked_loop",
            // the RNN step's shape: a fused chain and a select under a
            // column mask, loop-carried across strips-long state
            src: "def f(x, b, m):\n    h = x * 0.5\n    i = 0\n    while i < 3:\n        h = tf.where(m > 0.0, tf.tanh(h + b + x * 0.1), h - m)\n        i = i + 1\n    return h\n",
            feeds: vec![
                ("x", v(wave(3 * 267, 0.5), &[3, 267])),
                ("b", v(wave(267, 2.0), &[267])),
                ("m", v(vec![1.0, -1.0, 0.5], &[3, 1])),
            ],
            lantern: false,
        },
    ]
}
