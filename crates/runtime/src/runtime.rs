//! The top-level façade: load PyLite source (optionally converting it),
//! call functions eagerly, or stage them into a graph / Lantern program.

use crate::env::Env;
use crate::interp::{Interp, Stage};
use crate::operators;
use crate::value::{ModuleKind, PyFunction, Value};
use crate::{Result, RuntimeError};
use autograph_graph::ir::NodeId;
use autograph_graph::Graph;
use autograph_lantern::Program;
use autograph_obs as obs;
use autograph_tensor::Tensor;
use std::rc::Rc;

/// Build the global environment: the `tf` and `ag` modules plus Python
/// built-ins (which route through the same `ag.*` implementations the
/// calls pass would substitute).
pub(crate) fn global_env() -> Env {
    let env = Env::new();
    env.set("tf", Value::Module(ModuleKind::Tf));
    env.set("ag", Value::Module(ModuleKind::Ag));
    for (py, ag) in [
        ("print", "print_"),
        ("len", "len_"),
        ("range", "range_"),
        ("int", "int_"),
        ("float", "float_"),
        ("abs", "abs_"),
        ("min", "min_"),
        ("max", "max_"),
    ] {
        if let Some(b) = operators::lookup(ag) {
            env.set(py, b);
        }
    }
    env
}

/// An argument to [`Runtime::stage_to_graph`].
#[derive(Debug, Clone)]
pub enum GraphArg {
    /// A named feed point (becomes a `Placeholder` node).
    Placeholder(String),
    /// A concrete value passed through unchanged — Python values stay
    /// Python values (hyperparameter "macro-programming"); tensors embed
    /// as constants when ops touch them.
    Value(Value),
}

/// An argument to [`Runtime::stage_to_lantern`].
#[derive(Debug, Clone)]
pub enum LanternArg {
    /// A named external input (`(extern name)`).
    Extern(String),
    /// A named trainable parameter (`(param name)`).
    Param(String),
    /// A concrete host value passed through unchanged.
    Value(Value),
}

/// The result of staging a function into the dataflow graph.
#[derive(Debug)]
pub struct StagedGraph {
    /// The staged graph.
    pub graph: Graph,
    /// Output nodes (one per returned value; tuples flatten).
    pub outputs: Vec<NodeId>,
    /// Whether the function returned a tuple.
    pub tuple_result: bool,
}

/// Loads modules and drives execution/staging — the embodiment of the
/// paper's single-function API (`@ag.convert()` + calling the function).
pub struct Runtime {
    /// The interpreter.
    pub interp: Interp,
    /// Module-global environment.
    pub globals: Env,
}

impl Runtime {
    /// Load PyLite source. With `convert = true` the module is run through
    /// the full conversion pipeline first (every function becomes an
    /// AutoGraph artifact); with `false` it runs with native Python
    /// semantics (the Eager baseline).
    ///
    /// # Errors
    ///
    /// Returns parse and conversion errors (located in the original
    /// source) and errors from executing top-level statements.
    pub fn load(source: &str, convert: bool) -> Result<Runtime> {
        if convert {
            return Runtime::load_with(source, &autograph_transforms::ConversionConfig::default());
        }
        let module = autograph_pylang::parse_module(source)?;
        let mut interp = Interp::new();
        interp.source = Some(Rc::from(source));
        let globals = global_env();
        interp.exec_block(&module.body, &globals)?;
        Ok(Runtime { interp, globals })
    }

    /// Load PyLite source through the conversion pipeline with explicit
    /// options. With
    /// [`ConversionPolicy::FallbackToEager`](autograph_transforms::ConversionPolicy)
    /// unsupported functions are kept unconverted (they run op-by-op in
    /// the eager interpreter) and reported via [`Runtime::warnings`]
    /// instead of failing the load.
    ///
    /// # Errors
    ///
    /// Returns parse errors, conversion errors (under the strict policy),
    /// and errors from executing top-level statements.
    pub fn load_with(
        source: &str,
        config: &autograph_transforms::ConversionConfig,
    ) -> Result<Runtime> {
        let module = autograph_pylang::parse_module(source)?;
        let converted = {
            let _s = obs::span("staging", "convert");
            autograph_transforms::convert_module(module, config)?
        };
        let mut interp = Interp::new();
        interp.config = config.clone();
        interp.source = Some(Rc::from(source));
        // warnings gain the offending construct's text now that the
        // original source is in hand
        interp.conversion_warnings = converted
            .warnings
            .into_iter()
            .map(|w| w.with_source(source))
            .collect();
        let globals = global_env();
        interp.exec_block(&converted.module.body, &globals)?;
        Ok(Runtime { interp, globals })
    }

    /// Degradations recorded so far: load-time fallbacks first, then any
    /// functions `ag.converted_call` failed to convert at runtime.
    pub fn warnings(&self) -> &[autograph_transforms::ConversionWarning] {
        &self.interp.conversion_warnings
    }

    /// Fetch a loaded function by name.
    ///
    /// # Errors
    ///
    /// Fails when the name is unbound or not a function.
    pub fn function(&self, name: &str) -> Result<Rc<PyFunction>> {
        match self.globals.get(name) {
            Some(Value::Function(f)) => Ok(f),
            Some(other) => Err(RuntimeError::new(format!(
                "'{name}' is a {}, not a function",
                other.kind()
            ))),
            None => Err(RuntimeError::new(format!(
                "function '{name}' is not defined"
            ))),
        }
    }

    /// Call a loaded function with eager semantics.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Value> {
        let f = self.function(name)?;
        self.interp.stage = Stage::Eager;
        let result = self.interp.call_function(&f, args, vec![])?;
        // An "undefined" reification escaping to the caller means a
        // variable was read on a path that never assigned it — raise here,
        // matching Python's NameError-at-use semantics (§7.2).
        fn check_defined(v: &Value) -> Result<()> {
            match v {
                Value::Undefined(name) => Err(RuntimeError::new(format!(
                    "variable '{name}' may be used before assignment"
                ))),
                Value::Tuple(items) => items.iter().try_for_each(check_defined),
                _ => Ok(()),
            }
        }
        check_defined(&result)?;
        Ok(result)
    }

    /// Stage a function into a dataflow graph: run it once with symbolic
    /// arguments, recording every tensor op (and staged control flow) into
    /// the IR.
    ///
    /// # Errors
    ///
    /// Returns staging errors (unconverted data-dependent control flow,
    /// branch arity mismatches, …) located at the user's source.
    pub fn stage_to_graph(&mut self, name: &str, args: Vec<GraphArg>) -> Result<StagedGraph> {
        let _s = obs::span("staging", "stage");
        let f = self.function(name)?;
        let f = operators::ensure_converted(&mut self.interp, &f)?;
        self.interp.stage = Stage::Graph(crate::backend::GraphStage::new());

        // Placeholders stage before any user statement runs; attribute
        // them to the function's `def` line so every executed node
        // resolves to a source span.
        if !f.def_span.is_synthetic() {
            self.interp.current_span = f.def_span;
        }

        let mut arg_values = Vec::with_capacity(args.len());
        for a in args {
            let v = match a {
                GraphArg::Placeholder(n) => self
                    .interp
                    .graph_op(autograph_graph::ir::OpKind::Placeholder { name: n }, &[])?,
                GraphArg::Value(v) => v,
            };
            arg_values.push(v);
        }

        let result = self.interp.call_function(&f, arg_values, vec![]);
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                self.interp.stage = Stage::Eager;
                return Err(e);
            }
        };
        let (tuple_result, flat): (bool, Vec<Value>) = match &result {
            Value::Tuple(items) => (true, (**items).clone()),
            Value::None => (false, vec![]),
            single => (false, vec![single.clone()]),
        };
        let mut outputs = Vec::with_capacity(flat.len());
        for v in &flat {
            match self.interp.graph_node_for(v) {
                Ok(n) => outputs.push(n),
                Err(e) => {
                    self.interp.stage = Stage::Eager;
                    return Err(e);
                }
            }
        }
        let Stage::Graph(stage) = std::mem::replace(&mut self.interp.stage, Stage::Eager) else {
            return Err(RuntimeError::new("graph staging ended early"));
        };
        let graph = stage.finish()?;
        Ok(StagedGraph {
            graph,
            outputs,
            tuple_result,
        })
    }

    /// Stage a function into a Lantern program (§8). Returns the compiled
    /// program; run it with [`autograph_lantern::Engine`].
    ///
    /// # Errors
    ///
    /// Returns staging/compilation errors.
    pub fn stage_to_lantern(&mut self, name: &str, args: Vec<LanternArg>) -> Result<Program> {
        let _s = obs::span("staging", "stage");
        let f = self.function(name)?;
        self.interp.stage = Stage::Lantern(crate::backend::LanternStage::new());

        let arg_values: Vec<Value> = args
            .into_iter()
            .map(|a| match a {
                LanternArg::Extern(n) => {
                    Value::Lantern(Rc::new(autograph_lantern::sexpr::SExpr::list(vec![
                        autograph_lantern::sexpr::SExpr::sym("extern"),
                        autograph_lantern::sexpr::SExpr::sym(n),
                    ])))
                }
                LanternArg::Param(n) => {
                    Value::Lantern(Rc::new(autograph_lantern::sexpr::SExpr::list(vec![
                        autograph_lantern::sexpr::SExpr::sym("param"),
                        autograph_lantern::sexpr::SExpr::sym(n),
                    ])))
                }
                LanternArg::Value(v) => v,
            })
            .collect();

        let result = operators::converted_call_impl(
            &mut self.interp,
            Value::Function(f),
            arg_values,
            vec![],
        );
        let main = match result.and_then(|r| self.interp.to_lantern_sexpr(&r)) {
            Ok(s) => s,
            Err(e) => {
                self.interp.stage = Stage::Eager;
                return Err(e);
            }
        };
        let Stage::Lantern(stage) = std::mem::replace(&mut self.interp.stage, Stage::Eager) else {
            return Err(RuntimeError::new("lantern staging ended early"));
        };
        let program_sexpr = stage.program(main);
        Ok(Program::compile(&program_sexpr)?)
    }
}

/// A staged-and-compiled callable — the `tf.function` analog: the
/// function is converted and staged once (optionally graph-optimized),
/// then called repeatedly with tensor arguments at graph speed.
pub struct CompiledFunction {
    session: autograph_graph::Session,
    outputs: Vec<NodeId>,
    arg_names: Vec<String>,
    /// Whether the original function returned a tuple.
    pub tuple_result: bool,
}

impl CompiledFunction {
    /// Execute with tensors bound to the compiled placeholders in
    /// declaration order.
    ///
    /// # Errors
    ///
    /// Fails on arity mismatch or graph-execution errors.
    pub fn call(&mut self, args: &[Tensor]) -> Result<Vec<Tensor>> {
        if args.len() != self.arg_names.len() {
            return Err(RuntimeError::new(format!(
                "compiled function expects {} arguments, got {}",
                self.arg_names.len(),
                args.len()
            )));
        }
        let feeds: Vec<(&str, Tensor)> = self
            .arg_names
            .iter()
            .map(String::as_str)
            .zip(args.iter().cloned())
            .collect();
        Ok(self.session.run(&feeds, &self.outputs)?)
    }

    /// The staged graph (for inspection/dumping).
    pub fn graph(&self) -> &autograph_graph::Graph {
        self.session.graph()
    }

    /// The output node ids in the staged graph.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Pin the underlying session's thread count (see
    /// [`autograph_graph::Session::set_threads`]).
    pub fn set_threads(&mut self, threads: usize) -> &mut CompiledFunction {
        self.session.set_threads(threads);
        self
    }

    /// Plan-cache and progress counters from the underlying session.
    pub fn stats(&self) -> autograph_graph::SessionStats {
        self.session.stats()
    }

    /// Assemble a compiled function from already-staged parts — the
    /// warm-restage constructor used by [`crate::plan_cache`].
    pub(crate) fn from_parts(
        session: autograph_graph::Session,
        outputs: Vec<NodeId>,
        arg_names: Vec<String>,
        tuple_result: bool,
    ) -> CompiledFunction {
        CompiledFunction {
            session,
            outputs,
            arg_names,
            tuple_result,
        }
    }
}

impl Runtime {
    /// Convert + stage + optimize a function into a [`CompiledFunction`]
    /// with one placeholder per `arg_names` entry.
    ///
    /// # Errors
    ///
    /// Propagates staging errors.
    pub fn compile(&mut self, name: &str, arg_names: &[&str]) -> Result<CompiledFunction> {
        let staged = self.stage_to_graph(
            name,
            arg_names
                .iter()
                .map(|n| GraphArg::Placeholder((*n).to_string()))
                .collect(),
        )?;
        let _s = obs::span("staging", "optimize");
        let (graph, outputs, _) =
            autograph_graph::optimize::optimize(&staged.graph, &staged.outputs);
        // staging-time shape validation: provable mismatches fail here,
        // attributed to original source lines, instead of at run time
        autograph_graph::shapes::validate(&graph)?;
        Ok(CompiledFunction {
            session: autograph_graph::Session::new(graph),
            outputs,
            arg_names: arg_names.iter().map(|n| (*n).to_string()).collect(),
            tuple_result: staged.tuple_result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_graph::ir::Op;
    use autograph_graph::Session;

    const LISTING1: &str = "def f(x):\n    if x > 0:\n        x = x * x\n    return x\n";

    #[test]
    fn converted_eager_matches_python_semantics() {
        // hyperparameter-style dispatch: a Python number branches natively
        let mut rt = Runtime::load(LISTING1, true).unwrap();
        assert_eq!(
            rt.call("f", vec![Value::Int(3)]).unwrap().as_int().unwrap(),
            9
        );
        assert_eq!(
            rt.call("f", vec![Value::Int(-3)])
                .unwrap()
                .as_int()
                .unwrap(),
            -3
        );
        // and an eager tensor executes imperatively
        let r = rt
            .call("f", vec![Value::tensor(Tensor::scalar_f32(4.0))])
            .unwrap();
        match r {
            Value::Tensor(t) => assert_eq!(t.tensor().scalar_value_f32().unwrap(), 16.0),
            other => panic!("{}", other.kind()),
        }
    }

    #[test]
    fn unconverted_matches_converted() {
        let mut plain = Runtime::load(LISTING1, false).unwrap();
        let mut conv = Runtime::load(LISTING1, true).unwrap();
        for x in [-5i64, 0, 7] {
            let a = plain.call("f", vec![Value::Int(x)]).unwrap();
            let b = conv.call("f", vec![Value::Int(x)]).unwrap();
            assert!(a.py_eq(&b), "mismatch at {x}");
        }
    }

    #[test]
    fn listing1_stages_tf_cond() {
        let mut rt = Runtime::load(LISTING1, true).unwrap();
        let staged = rt
            .stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])
            .unwrap();
        // the graph contains a Cond node
        assert!(staged
            .graph
            .nodes
            .iter()
            .any(|n| matches!(n.op, autograph_graph::ir::OpKind::Cond { .. })));
        let mut sess = Session::new(staged.graph);
        let out = sess
            .run(&[("x", Tensor::scalar_f32(5.0))], &staged.outputs)
            .unwrap();
        assert_eq!(out[0].scalar_value_f32().unwrap(), 25.0);
        let out = sess
            .run(&[("x", Tensor::scalar_f32(-5.0))], &staged.outputs)
            .unwrap();
        assert_eq!(out[0].scalar_value_f32().unwrap(), -5.0);
    }

    #[test]
    fn hyperparameter_conditional_not_staged() {
        // §3: conditional on a plain Python value stays out of the graph
        let src = "def f(x, use_relu):\n    if use_relu:\n        y = tf.relu(x)\n    else:\n        y = tf.tanh(x)\n    return y\n";
        let mut rt = Runtime::load(src, true).unwrap();
        let staged = rt
            .stage_to_graph(
                "f",
                vec![
                    GraphArg::Placeholder("x".into()),
                    GraphArg::Value(Value::Bool(true)),
                ],
            )
            .unwrap();
        // no Cond node: the Python bool dispatched imperatively
        assert!(!staged
            .graph
            .nodes
            .iter()
            .any(|n| matches!(n.op, autograph_graph::ir::OpKind::Cond { .. })));
        let has = |op: Op| {
            staged
                .graph
                .nodes
                .iter()
                .any(|n| n.op.tensor() == Some(&op))
        };
        assert!(has(Op::Relu));
        assert!(!has(Op::Tanh));
    }

    #[test]
    fn staged_while_loop_runs() {
        let src = "def f(x, eps):\n    while x > eps:\n        x = x / 2.0\n    return x\n";
        let mut rt = Runtime::load(src, true).unwrap();
        // eager first
        let r = rt
            .call(
                "f",
                vec![
                    Value::tensor(Tensor::scalar_f32(100.0)),
                    Value::tensor(Tensor::scalar_f32(1.0)),
                ],
            )
            .unwrap();
        match &r {
            Value::Tensor(t) => assert_eq!(t.tensor().scalar_value_f32().unwrap(), 0.78125),
            other => panic!("{}", other.kind()),
        }
        // staged
        let staged = rt
            .stage_to_graph(
                "f",
                vec![
                    GraphArg::Placeholder("x".into()),
                    GraphArg::Placeholder("eps".into()),
                ],
            )
            .unwrap();
        assert!(staged
            .graph
            .nodes
            .iter()
            .any(|n| matches!(n.op, autograph_graph::ir::OpKind::While { .. })));
        let mut sess = Session::new(staged.graph);
        let out = sess
            .run(
                &[
                    ("x", Tensor::scalar_f32(100.0)),
                    ("eps", Tensor::scalar_f32(1.0)),
                ],
                &staged.outputs,
            )
            .unwrap();
        assert_eq!(out[0].scalar_value_f32().unwrap(), 0.78125);
    }

    #[test]
    fn staged_for_loop_with_list_append() {
        let src = "\
def f(xs):
    outputs = []
    total = tf.constant(0.0)
    for x in xs:
        total = total + x
        outputs.append(total)
    return ag.stack(outputs), total
";
        let mut rt = Runtime::load(src, true).unwrap();
        // eager
        let xs = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let r = rt.call("f", vec![Value::tensor(xs.clone())]).unwrap();
        match &r {
            Value::Tuple(items) => match &items[0] {
                Value::Tensor(t) => {
                    assert_eq!(t.tensor().as_f32().unwrap(), &[1.0, 3.0, 6.0])
                }
                other => panic!("{}", other.kind()),
            },
            other => panic!("{}", other.kind()),
        }
        // staged
        let staged = rt
            .stage_to_graph("f", vec![GraphArg::Placeholder("xs".into())])
            .unwrap();
        assert!(staged.tuple_result);
        let mut sess = Session::new(staged.graph);
        let out = sess.run(&[("xs", xs)], &staged.outputs).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[1.0, 3.0, 6.0]);
        assert_eq!(out[1].scalar_value_f32().unwrap(), 6.0);
    }

    #[test]
    fn staged_break_loop() {
        let src = "\
def f(limit):
    i = 0
    total = tf.constant(0.0)
    while True:
        total = total + 2.0
        i = i + 1
        if i >= limit:
            break
    return total
";
        let mut rt = Runtime::load(src, true).unwrap();
        let staged = rt
            .stage_to_graph("f", vec![GraphArg::Placeholder("limit".into())])
            .unwrap();
        let mut sess = Session::new(staged.graph);
        let out = sess
            .run(&[("limit", Tensor::scalar_i64(5))], &staged.outputs)
            .unwrap();
        assert_eq!(out[0].scalar_value_f32().unwrap(), 10.0);
    }

    #[test]
    fn branch_must_initialize_all_paths() {
        // §10 limitations: staged conditionals require consistent values
        let src = "def f(x):\n    if x > 0:\n        y = x\n    return y\n";
        let mut rt = Runtime::load(src, true).unwrap();
        let err = rt
            .stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("must be defined on all code paths")
                || err.to_string().contains("same number of values"),
            "{err}"
        );
    }

    #[test]
    fn lantern_recursion_stages_and_runs() {
        // the paper's tree_prod (§8), staged through converted code
        let src = "\
def tree_prod(base, tree):
    if tree.is_empty:
        return base
    l = tree_prod(base, tree.left)
    r = tree_prod(base, tree.right)
    return l * r * tree.value
";
        let mut rt = Runtime::load(src, true).unwrap();
        let program = rt
            .stage_to_lantern(
                "tree_prod",
                vec![
                    LanternArg::Extern("base".into()),
                    LanternArg::Extern("tree".into()),
                ],
            )
            .unwrap();
        // exactly one staged def despite two recursive call sites
        assert_eq!(program.funcs.len(), 1);
        let engine = autograph_lantern::Engine::new(program);
        use autograph_lantern::value::{LValue, Record};
        let leaf = LValue::Record(Record::new(vec![("is_empty", LValue::Bool(true))]));
        let node = |l: LValue, r: LValue, v: f32| {
            LValue::Record(Record::new(vec![
                ("is_empty", LValue::Bool(false)),
                ("left", l),
                ("right", r),
                ("value", LValue::scalar(v)),
            ]))
        };
        let tree = node(
            node(leaf.clone(), leaf.clone(), 2.0),
            node(leaf.clone(), leaf.clone(), 5.0),
            3.0,
        );
        let out = engine
            .run_values(&[("base", LValue::scalar(1.0)), ("tree", tree)], &[])
            .unwrap();
        assert_eq!(out.as_tensor().unwrap().scalar_value_f32().unwrap(), 30.0);
    }

    #[test]
    fn eager_call_still_works_for_recursive_function() {
        let src = "\
def tree_sum(tree):
    if tree.is_empty:
        return 0.0
    return tree_sum(tree.left) + tree_sum(tree.right) + tree.value
";
        let mut rt = Runtime::load(src, true).unwrap();
        let leaf = Value::record(vec![("is_empty", Value::Bool(true))]);
        let tree = Value::record(vec![
            ("is_empty", Value::Bool(false)),
            ("left", leaf.clone()),
            ("right", leaf),
            ("value", Value::Float(4.5)),
        ]);
        let out = rt.call("tree_sum", vec![tree]).unwrap();
        assert_eq!(out.as_float().unwrap(), 4.5);
    }

    #[test]
    fn runtime_conversion_of_unconverted_callee() {
        // converted caller invokes an unconverted helper through
        // converted_call; the helper is converted at runtime (recursive
        // mode) and its data-dependent control flow stages correctly
        let src = "\
def helper(x):
    if x > 0:
        return x * 2.0
    return x

def main(x):
    return helper(x) + 1.0
";
        let mut rt = Runtime::load(src, true).unwrap();
        let staged = rt
            .stage_to_graph("main", vec![GraphArg::Placeholder("x".into())])
            .unwrap();
        let mut sess = Session::new(staged.graph);
        let out = sess
            .run(&[("x", Tensor::scalar_f32(3.0))], &staged.outputs)
            .unwrap();
        assert_eq!(out[0].scalar_value_f32().unwrap(), 7.0);
    }

    #[test]
    fn missing_function_errors() {
        let mut rt = Runtime::load("x = 1\n", false).unwrap();
        assert!(rt.call("nope", vec![]).is_err());
        assert!(rt.globals.get("x").unwrap().as_int().unwrap() == 1);
    }
}
