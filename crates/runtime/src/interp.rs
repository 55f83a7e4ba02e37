//! The PyLite AST interpreter.
//!
//! Runs both *unconverted* code (full Python semantics: `if`/`while`/`for`
//! execute imperatively, `break`/`continue`/`return` flow natively — this
//! is the Eager baseline) and *converted* code (whose control flow has
//! become `ag.*` calls that dispatch dynamically; see
//! the `operators` module).
//!
//! Arithmetic and comparison operators dispatch on operand types, the
//! runtime analog of Python operator overloading (§4): Python numbers get
//! Python semantics; anything tensor-like goes to the `tf_api` row of the
//! same op, whose one dispatch rule picks the backend.

use crate::backend::{GraphStage, LanternStage};
use crate::env::Env;
use crate::tf_api;
use crate::value::{ModuleKind, PyFunction, Value};
use crate::{Result, RuntimeError};
use autograph_eager::Eager;
use autograph_graph::ir::{Op, OpKind};
use autograph_lantern::sexpr::SExpr;
use autograph_pylang::ast::*;
use autograph_tensor::{Rng64, Tensor};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

/// Control flow out of a statement.
#[derive(Debug)]
pub(crate) enum Flow {
    /// Fall through to the next statement.
    Normal,
    /// `break` reached.
    Break,
    /// `continue` reached.
    Continue,
    /// `return` with a value.
    Return(Value),
}

/// Active staging state.
pub(crate) enum Stage {
    /// No staging: ops execute eagerly.
    Eager,
    /// Building a dataflow graph.
    Graph(GraphStage),
    /// Emitting Lantern S-expressions.
    Lantern(LanternStage),
}

/// The interpreter: eager context, staging state, conversion cache.
pub struct Interp {
    /// Eager op dispatch (always available; graphs constant-fold through
    /// it too).
    pub eager: Eager,
    /// Active staging backend.
    pub(crate) stage: Stage,
    /// Cache of runtime-converted functions, keyed by the original
    /// function's `Rc` pointer identity.
    pub(crate) conversion_cache: HashMap<usize, Rc<PyFunction>>,
    /// Conversion options used by `ag.converted_call` when it converts a
    /// function at runtime.
    pub config: autograph_transforms::ConversionConfig,
    /// Functions that degraded to eager execution under
    /// [`autograph_transforms::ConversionPolicy::FallbackToEager`], in the
    /// order encountered (load-time conversions first, then runtime
    /// `converted_call` conversions).
    pub(crate) conversion_warnings: Vec<autograph_transforms::ConversionWarning>,
    /// Deterministic RNG for `tf.random_*`.
    pub(crate) rng: Rng64,
    /// Original-source location of the construct currently being
    /// evaluated; stamped onto staged nodes (Appendix B source maps).
    pub(crate) current_span: autograph_pylang::Span,
    /// Iteration limit requested by an `ag.set_loop_options` directive in
    /// the loop body currently being staged (§7.2 Directives); consumed by
    /// the staged-loop builders.
    pub(crate) pending_loop_options: Option<u64>,
    /// The original PyLite source text when known (set by
    /// `Runtime::load*`); lets runtime conversion warnings quote the
    /// offending construct.
    pub(crate) source: Option<Rc<str>>,
    depth: usize,
    max_depth: usize,
}

impl Interp {
    /// New interpreter in eager mode.
    pub fn new() -> Interp {
        Interp {
            eager: Eager::new(),
            stage: Stage::Eager,
            conversion_cache: HashMap::new(),
            config: autograph_transforms::ConversionConfig::default(),
            conversion_warnings: Vec::new(),
            rng: Rng64::new(0x5EED),
            current_span: autograph_pylang::Span::synthetic(),
            pending_loop_options: None,
            source: None,
            depth: 0,
            // CPython defaults to 1000; interpreter frames are large, so
            // this also keeps us inside the OS stack in debug builds.
            max_depth: 300,
        }
    }

    // ---- statements --------------------------------------------------------

    /// Execute a statement block.
    ///
    /// # Errors
    ///
    /// Propagates the first runtime error, annotated with the statement's
    /// original-source span.
    pub(crate) fn exec_block(&mut self, body: &[Stmt], env: &Env) -> Result<Flow> {
        for stmt in body {
            match self.exec_stmt(stmt, env)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &Env) -> Result<Flow> {
        let span = stmt.span;
        if !span.is_synthetic() {
            self.current_span = span;
        }
        let r = self.exec_stmt_inner(stmt, env);
        r.map_err(|e| e.at(span))
    }

    fn exec_stmt_inner(&mut self, stmt: &Stmt, env: &Env) -> Result<Flow> {
        match &stmt.kind {
            StmtKind::FunctionDef {
                name,
                params,
                body,
                decorators,
            } => {
                let defaults = params
                    .iter()
                    .filter_map(|p| p.default.as_ref())
                    .map(|d| self.eval_expr(d, env))
                    .collect::<Result<Vec<_>>>()?;
                let is_artifact = autograph_transforms::wrappers::is_artifact(decorators);
                let f = Value::Function(Rc::new(PyFunction {
                    name: name.clone(),
                    def_span: stmt.span,
                    params: params.clone(),
                    body: Rc::new(body.clone()),
                    closure: env.clone(),
                    is_artifact,
                    defaults,
                }));
                env.set(name, f);
                Ok(Flow::Normal)
            }
            StmtKind::Return(v) => {
                let value = match v {
                    Some(v) => self.eval_expr(v, env)?,
                    None => Value::None,
                };
                Ok(Flow::Return(value))
            }
            StmtKind::Assign { target, value } => {
                let v = self.eval_expr(value, env)?;
                self.assign_target(target, v, env)?;
                Ok(Flow::Normal)
            }
            StmtKind::AugAssign { target, op, value } => {
                let cur = self.eval_expr(target, env)?;
                let rhs = self.eval_expr(value, env)?;
                let v = self.binop(*op, cur, rhs)?;
                self.assign_target(target, v, env)?;
                Ok(Flow::Normal)
            }
            StmtKind::If { test, body, orelse } => {
                if self.eval_expr(test, env)?.truthy()? {
                    self.exec_block(body, env)
                } else {
                    self.exec_block(orelse, env)
                }
            }
            StmtKind::While { test, body } => {
                loop {
                    if !self.eval_expr(test, env)?.truthy()? {
                        break;
                    }
                    match self.exec_block(body, env)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For { target, iter, body } => {
                let iterable = self.eval_expr(iter, env)?;
                let items = self.iterate(&iterable)?;
                for item in items {
                    self.assign_target(target, item, env)?;
                    match self.exec_block(body, env)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Pass => Ok(Flow::Normal),
            StmtKind::Assert { test, msg } => {
                if !self.eval_expr(test, env)?.truthy()? {
                    let m = match msg {
                        Some(m) => self.eval_expr(m, env)?.render(),
                        None => "assertion failed".to_string(),
                    };
                    return Err(RuntimeError::new(m));
                }
                Ok(Flow::Normal)
            }
            StmtKind::ExprStmt(e) => {
                self.eval_expr(e, env)?;
                Ok(Flow::Normal)
            }
            StmtKind::Del(names) => {
                for n in names {
                    env.remove(n);
                }
                Ok(Flow::Normal)
            }
            StmtKind::Raise(v) => {
                let msg = match v {
                    Some(v) => self.eval_expr(v, env)?.render(),
                    None => "exception raised".to_string(),
                };
                Err(RuntimeError::new(msg))
            }
            StmtKind::Global(_) | StmtKind::Nonlocal(_) => Err(RuntimeError::new(
                "global/nonlocal are not supported (Table 6)",
            )),
        }
    }

    /// Iterate an eager value into a vector of items.
    ///
    /// # Errors
    ///
    /// Staged values cannot be iterated imperatively.
    pub(crate) fn iterate(&mut self, v: &Value) -> Result<Vec<Value>> {
        match v {
            Value::List(items) => Ok(items.borrow().clone()),
            Value::Tuple(items) => Ok((**items).clone()),
            Value::Range { start, stop, step } => {
                let mut out = Vec::new();
                let mut i = *start;
                while (*step > 0 && i < *stop) || (*step < 0 && i > *stop) {
                    out.push(Value::Int(i));
                    i += step;
                }
                Ok(out)
            }
            Value::Tensor(t) => {
                let t = t.tensor();
                if t.rank() == 0 {
                    return Err(RuntimeError::new("cannot iterate a scalar tensor"));
                }
                (0..t.shape()[0] as i64)
                    .map(|i| Ok(Value::tensor(t.index_axis0(i)?)))
                    .collect()
            }
            Value::GraphNode { .. } | Value::Lantern(_) => Err(RuntimeError::new(
                "cannot iterate a staged tensor imperatively; this loop must be converted",
            )),
            other => Err(RuntimeError::new(format!(
                "{} is not iterable",
                other.kind()
            ))),
        }
    }

    /// Bind a value to an assignment target.
    ///
    /// # Errors
    ///
    /// Fails on arity mismatches in tuple unpacking and invalid targets.
    pub(crate) fn assign_target(&mut self, target: &Expr, value: Value, env: &Env) -> Result<()> {
        match &target.kind {
            ExprKind::Name(name) => {
                // Lantern staging: reify assignments as let-bindings so
                // shared subexpressions evaluate once in the compiled IR.
                let value = self.lantern_let_hook(name, value);
                env.set(name, value);
                Ok(())
            }
            ExprKind::Tuple(items) | ExprKind::List(items) => {
                let values: Vec<Value> = match &value {
                    Value::Tuple(vs) => (**vs).clone(),
                    Value::List(vs) => vs.borrow().clone(),
                    // Staged Lantern tuple (e.g. `c, h = cell(...)`): bind
                    // the tuple expression once, project with `(get t i)`.
                    Value::Lantern(e) => {
                        let base = if let Stage::Lantern(stage) = &mut self.stage {
                            if stage.in_frame() && matches!(**e, SExpr::List(_)) {
                                let sym = stage.fresh("t");
                                stage.bind(sym.clone(), (**e).clone());
                                SExpr::sym(sym)
                            } else {
                                (**e).clone()
                            }
                        } else {
                            (**e).clone()
                        };
                        (0..items.len())
                            .map(|idx| {
                                Value::Lantern(Rc::new(SExpr::list(vec![
                                    SExpr::sym("get"),
                                    base.clone(),
                                    SExpr::Num(idx as f64),
                                ])))
                            })
                            .collect()
                    }
                    other => {
                        return Err(RuntimeError::new(format!(
                            "cannot unpack {} into {} targets",
                            other.kind(),
                            items.len()
                        )))
                    }
                };
                if values.len() != items.len() {
                    return Err(RuntimeError::new(format!(
                        "cannot unpack {} values into {} targets",
                        values.len(),
                        items.len()
                    )));
                }
                for (t, v) in items.iter().zip(values) {
                    self.assign_target(t, v, env)?;
                }
                Ok(())
            }
            ExprKind::Subscript { value: base, index } => {
                // Unconverted mutation path (Python list semantics).
                let container = self.eval_expr(base, env)?;
                match (&container, &**index) {
                    (Value::List(items), Index::Single(i)) => {
                        let i = self.eval_expr(i, env)?.as_int()?;
                        let mut items = items.borrow_mut();
                        let len = items.len() as i64;
                        let idx = if i < 0 { i + len } else { i };
                        if idx < 0 || idx >= len {
                            return Err(RuntimeError::new(format!(
                                "list assignment index {i} out of range"
                            )));
                        }
                        items[idx as usize] = value;
                        Ok(())
                    }
                    // PyLite tensors are immutable values; `x[i] = v` on a
                    // *named* tensor rebinds the name to the functional
                    // update — the same semantics the slices pass gives
                    // converted code (`x = ag.setitem(x, i, v)`).
                    (Value::Tensor(t), Index::Single(i)) => {
                        if let ExprKind::Name(name) = &base.kind {
                            let i = self.eval_expr(i, env)?.as_int()?;
                            let updated =
                                t.tensor().set_index_axis0(i, &value.as_eager_tensor()?)?;
                            env.set(name, Value::tensor(updated));
                            Ok(())
                        } else {
                            Err(RuntimeError::new(
                                "tensor item assignment requires a simple name target",
                            ))
                        }
                    }
                    _ => Err(RuntimeError::new(
                        "subscript assignment requires a list or tensor",
                    )),
                }
            }
            ExprKind::Attribute { value: base, attr } => {
                let obj = self.eval_expr(base, env)?;
                match obj {
                    Value::Record(fields) => {
                        fields.borrow_mut().insert(attr.clone(), value);
                        Ok(())
                    }
                    other => Err(RuntimeError::new(format!(
                        "cannot set attribute on {}",
                        other.kind()
                    ))),
                }
            }
            _ => Err(RuntimeError::new("invalid assignment target")),
        }
    }

    fn lantern_let_hook(&mut self, _name: &str, value: Value) -> Value {
        if let (Stage::Lantern(stage), Value::Lantern(sexpr)) = (&mut self.stage, &value) {
            if stage.in_frame() && matches!(**sexpr, SExpr::List(_)) {
                let sym = stage.fresh("t");
                stage.bind(sym.clone(), (**sexpr).clone());
                return Value::Lantern(Rc::new(SExpr::sym(sym)));
            }
        }
        value
    }

    // ---- expressions --------------------------------------------------------

    /// Evaluate an expression.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors annotated with the expression's span.
    pub(crate) fn eval_expr(&mut self, expr: &Expr, env: &Env) -> Result<Value> {
        let span = expr.span;
        if !span.is_synthetic() {
            self.current_span = span;
        }
        self.eval_expr_inner(expr, env).map_err(|e| e.at(span))
    }

    fn eval_expr_inner(&mut self, expr: &Expr, env: &Env) -> Result<Value> {
        match &expr.kind {
            ExprKind::Name(n) => env
                .get(n)
                .ok_or_else(|| RuntimeError::new(format!("name '{n}' is not defined"))),
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Float(v) => Ok(Value::Float(*v)),
            ExprKind::Str(s) => Ok(Value::str(s.clone())),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::NoneLit => Ok(Value::None),
            ExprKind::List(items) => {
                let vs = items
                    .iter()
                    .map(|i| self.eval_expr(i, env))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Value::list(vs))
            }
            ExprKind::Tuple(items) => {
                let vs = items
                    .iter()
                    .map(|i| self.eval_expr(i, env))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Value::tuple(vs))
            }
            ExprKind::Lambda { params, body } => {
                let defaults = params
                    .iter()
                    .filter_map(|p| p.default.as_ref())
                    .map(|d| self.eval_expr(d, env))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Value::Function(Rc::new(PyFunction {
                    name: "<lambda>".to_string(),
                    def_span: body.span,
                    params: params.clone(),
                    body: Rc::new(vec![Stmt::new(
                        StmtKind::Return(Some((**body).clone())),
                        body.span,
                    )]),
                    closure: env.clone(),
                    is_artifact: true, // lambdas are never re-converted
                    defaults,
                })))
            }
            ExprKind::Attribute { value, attr } => {
                let base = self.eval_expr(value, env)?;
                self.attr_get(base, attr)
            }
            ExprKind::Subscript { value, index } => {
                let base = self.eval_expr(value, env)?;
                match &**index {
                    Index::Single(i) => {
                        let idx = self.eval_expr(i, env)?;
                        self.subscript_get(base, idx)
                    }
                    Index::Slice { lower, upper } => {
                        let lo = lower
                            .as_ref()
                            .map(|e| self.eval_expr(e, env)?.as_int())
                            .transpose()?;
                        let hi = upper
                            .as_ref()
                            .map(|e| self.eval_expr(e, env)?.as_int())
                            .transpose()?;
                        self.slice_get(base, lo, hi)
                    }
                }
            }
            ExprKind::Call { func, args, kwargs } => {
                let callee = self.eval_expr(func, env)?;
                let argv = args
                    .iter()
                    .map(|a| self.eval_expr(a, env))
                    .collect::<Result<Vec<_>>>()?;
                let kwargv = kwargs
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), self.eval_expr(v, env)?)))
                    .collect::<Result<Vec<_>>>()?;
                self.call_value(callee, argv, kwargv)
            }
            ExprKind::BinOp { op, left, right } => {
                let l = self.eval_expr(left, env)?;
                let r = self.eval_expr(right, env)?;
                self.binop(*op, l, r)
            }
            ExprKind::UnaryOp { op, operand } => {
                let v = self.eval_expr(operand, env)?;
                self.unary(*op, v)
            }
            ExprKind::BoolOp { op, values } => {
                // native short-circuit semantics (unconverted code)
                let mut last = Value::Bool(matches!(op, BoolOpKind::And));
                for v in values {
                    last = self.eval_expr(v, env)?;
                    let t = last.truthy()?;
                    match op {
                        BoolOpKind::And if !t => return Ok(last),
                        BoolOpKind::Or if t => return Ok(last),
                        _ => {}
                    }
                }
                Ok(last)
            }
            ExprKind::Compare {
                left,
                ops,
                comparators,
            } => {
                let mut lhs = self.eval_expr(left, env)?;
                let mut result = Value::Bool(true);
                for (op, rhs_expr) in ops.iter().zip(comparators) {
                    let rhs = self.eval_expr(rhs_expr, env)?;
                    result = self.compare(*op, lhs.clone(), rhs.clone())?;
                    // chains require intermediate truthiness (host values)
                    if ops.len() > 1 && !result.truthy()? {
                        return Ok(Value::Bool(false));
                    }
                    lhs = rhs;
                }
                Ok(result)
            }
            ExprKind::IfExp { test, body, orelse } => {
                if self.eval_expr(test, env)?.truthy()? {
                    self.eval_expr(body, env)
                } else {
                    self.eval_expr(orelse, env)
                }
            }
        }
    }

    // ---- calls ---------------------------------------------------------------

    /// Call any callable value.
    ///
    /// # Errors
    ///
    /// Fails for non-callables, arity errors, and whatever the callee
    /// raises.
    pub(crate) fn call_value(
        &mut self,
        callee: Value,
        args: Vec<Value>,
        kwargs: Vec<(String, Value)>,
    ) -> Result<Value> {
        match callee {
            Value::Builtin(b) => (b.func)(self, args, kwargs),
            Value::Function(f) => self.call_function(&f, args, kwargs),
            other => Err(RuntimeError::new(format!(
                "{} is not callable",
                other.kind()
            ))),
        }
    }

    /// Call a user-defined function with Python binding rules.
    ///
    /// # Errors
    ///
    /// Fails on arity mismatch or recursion-depth exhaustion.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn call_function(
        &mut self,
        f: &Rc<PyFunction>,
        args: Vec<Value>,
        kwargs: Vec<(String, Value)>,
    ) -> Result<Value> {
        if self.depth >= self.max_depth {
            return Err(RuntimeError::new("maximum recursion depth exceeded"));
        }
        let env = f.closure.child();
        let n_params = f.params.len();
        if args.len() > n_params {
            return Err(RuntimeError::new(format!(
                "{}() takes {} arguments but {} were given",
                f.name,
                n_params,
                args.len()
            )));
        }
        let mut bound = vec![false; n_params];
        for (i, a) in args.into_iter().enumerate() {
            env.set(&f.params[i].name, a);
            bound[i] = true;
        }
        for (k, v) in kwargs {
            match f.params.iter().position(|p| p.name == k) {
                Some(i) if !bound[i] => {
                    env.set(&k, v);
                    bound[i] = true;
                }
                Some(_) => {
                    return Err(RuntimeError::new(format!(
                        "{}() got multiple values for argument '{k}'",
                        f.name
                    )))
                }
                None => {
                    return Err(RuntimeError::new(format!(
                        "{}() got an unexpected keyword argument '{k}'",
                        f.name
                    )))
                }
            }
        }
        // defaults are right-aligned with params
        let first_default = n_params - f.defaults.len();
        for i in 0..n_params {
            if !bound[i] {
                if i >= first_default {
                    env.set(&f.params[i].name, f.defaults[i - first_default].clone());
                } else {
                    return Err(RuntimeError::new(format!(
                        "{}() missing required argument '{}'",
                        f.name, f.params[i].name
                    )));
                }
            }
        }
        // converted functions stage under a name scope so graph nodes read
        // like `f/loop_body__2/matmul_7`
        let scoped = f.is_artifact && matches!(self.stage, Stage::Graph(_));
        if scoped {
            if let Stage::Graph(g) = &mut self.stage {
                g.push_scope(&f.name);
            }
        }
        self.depth += 1;
        let flow = self.exec_block(&f.body, &env);
        self.depth -= 1;
        if scoped {
            if let Stage::Graph(g) = &mut self.stage {
                g.pop_scope();
            }
        }
        match flow.map_err(|e| e.in_frame(&f.name, autograph_pylang::Span::synthetic()))? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::None),
        }
    }

    // ---- operator dispatch ------------------------------------------------

    /// Binary arithmetic with type dispatch.
    ///
    /// # Errors
    ///
    /// Fails for unsupported operand combinations.
    pub(crate) fn binop(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value> {
        if l.is_tensor_like() || r.is_tensor_like() {
            let row = match op {
                BinOp::Add => &tf_api::ADD,
                BinOp::Sub => &tf_api::SUB,
                BinOp::Mul => &tf_api::MUL,
                BinOp::Div => &tf_api::DIV,
                BinOp::FloorDiv => &tf_api::FLOORDIV,
                BinOp::Mod => &tf_api::MOD,
                BinOp::Pow => &tf_api::POW,
            };
            return self.apply(row, &[l, r]);
        }
        // host (Python) semantics
        match (op, &l, &r) {
            (BinOp::Add, Value::Str(a), Value::Str(b)) => Ok(Value::str(format!("{a}{b}"))),
            (BinOp::Add, Value::List(a), Value::List(b)) => {
                let mut out = a.borrow().clone();
                out.extend(b.borrow().iter().cloned());
                Ok(Value::list(out))
            }
            (BinOp::Add, Value::Tuple(a), Value::Tuple(b)) => {
                let mut out = (**a).clone();
                out.extend(b.iter().cloned());
                Ok(Value::tuple(out))
            }
            (_, Value::Int(a), Value::Int(b)) => {
                let (a, b) = (*a, *b);
                Ok(match op {
                    BinOp::Add => Value::Int(a.wrapping_add(b)),
                    BinOp::Sub => Value::Int(a.wrapping_sub(b)),
                    BinOp::Mul => Value::Int(a.wrapping_mul(b)),
                    BinOp::Div => {
                        if b == 0 {
                            return Err(RuntimeError::new("division by zero"));
                        }
                        Value::Float(a as f64 / b as f64)
                    }
                    BinOp::FloorDiv => {
                        if b == 0 {
                            return Err(RuntimeError::new("integer division by zero"));
                        }
                        Value::Int(a.div_euclid(b))
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            return Err(RuntimeError::new("integer modulo by zero"));
                        }
                        Value::Int(a.rem_euclid(b))
                    }
                    BinOp::Pow => {
                        if b >= 0 {
                            Value::Int(a.pow(b.min(u32::MAX as i64) as u32))
                        } else {
                            Value::Float((a as f64).powi(b as i32))
                        }
                    }
                })
            }
            _ => {
                let a = l.as_float().map_err(|_| {
                    RuntimeError::new(format!(
                        "unsupported operand types for {}: {} and {}",
                        op.as_str(),
                        l.kind(),
                        r.kind()
                    ))
                })?;
                let b = r.as_float().map_err(|_| {
                    RuntimeError::new(format!(
                        "unsupported operand types for {}: {} and {}",
                        op.as_str(),
                        l.kind(),
                        r.kind()
                    ))
                })?;
                Ok(match op {
                    BinOp::Add => Value::Float(a + b),
                    BinOp::Sub => Value::Float(a - b),
                    BinOp::Mul => Value::Float(a * b),
                    BinOp::Div => {
                        if b == 0.0 {
                            return Err(RuntimeError::new("float division by zero"));
                        }
                        Value::Float(a / b)
                    }
                    BinOp::FloorDiv => Value::Float((a / b).floor()),
                    BinOp::Mod => Value::Float(a.rem_euclid(b)),
                    BinOp::Pow => Value::Float(a.powf(b)),
                })
            }
        }
    }

    /// Comparison with type dispatch.
    ///
    /// # Errors
    ///
    /// Fails for incomparable operand combinations.
    pub fn compare(&mut self, op: CmpOp, l: Value, r: Value) -> Result<Value> {
        let row = match op {
            CmpOp::Is => return Ok(Value::Bool(value_is(&l, &r))),
            CmpOp::IsNot => return Ok(Value::Bool(!value_is(&l, &r))),
            CmpOp::In => return self.membership(&l, &r),
            CmpOp::NotIn => {
                let m = self.membership(&l, &r)?;
                return Ok(Value::Bool(!m.truthy()?));
            }
            CmpOp::Lt => &tf_api::LESS,
            CmpOp::Le => &tf_api::LESS_EQUAL,
            CmpOp::Gt => &tf_api::GREATER,
            CmpOp::Ge => &tf_api::GREATER_EQUAL,
            CmpOp::Eq => &tf_api::EQUAL,
            CmpOp::NotEq => &tf_api::NOT_EQUAL,
        };
        if l.is_tensor_like() || r.is_tensor_like() {
            return self.apply(row, &[l, r]);
        }
        // host comparisons
        let b = match op {
            CmpOp::Eq => l.py_eq(&r),
            CmpOp::NotEq => !l.py_eq(&r),
            _ => {
                let ord = match (&l, &r) {
                    (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
                    _ => l.as_float()?.partial_cmp(&r.as_float()?),
                };
                match op {
                    CmpOp::Lt => ord == Some(Ordering::Less),
                    CmpOp::Le => matches!(ord, Some(Ordering::Less | Ordering::Equal)),
                    CmpOp::Gt => ord == Some(Ordering::Greater),
                    _ => matches!(ord, Some(Ordering::Greater | Ordering::Equal)),
                }
            }
        };
        Ok(Value::Bool(b))
    }

    fn membership(&mut self, item: &Value, container: &Value) -> Result<Value> {
        match container {
            Value::List(items) => Ok(Value::Bool(items.borrow().iter().any(|x| x.py_eq(item)))),
            Value::Tuple(items) => Ok(Value::Bool(items.iter().any(|x| x.py_eq(item)))),
            Value::Str(s) => match item {
                Value::Str(sub) => Ok(Value::Bool(s.contains(&**sub))),
                _ => Ok(Value::Bool(false)),
            },
            Value::Range { start, stop, step } => {
                let i = item.as_int()?;
                let in_range = if *step > 0 {
                    i >= *start && i < *stop && (i - start) % step == 0
                } else {
                    i <= *start && i > *stop && (start - i) % (-step) == 0
                };
                Ok(Value::Bool(in_range))
            }
            other => Err(RuntimeError::new(format!(
                "argument of type {} is not a container",
                other.kind()
            ))),
        }
    }

    /// Unary operator with type dispatch.
    ///
    /// # Errors
    ///
    /// Fails for unsupported operand types.
    pub(crate) fn unary(&mut self, op: UnaryOp, v: Value) -> Result<Value> {
        match op {
            UnaryOp::Not => Ok(Value::Bool(!v.truthy()?)),
            UnaryOp::Pos => Ok(v),
            UnaryOp::Neg => match v {
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                Value::Bool(b) => Ok(Value::Int(-(b as i64))),
                v if v.is_tensor_like() => self.apply(&tf_api::NEG, &[v]),
                other => Err(RuntimeError::new(format!(
                    "bad operand type for unary -: {}",
                    other.kind()
                ))),
            },
        }
    }

    // ---- attribute / subscript --------------------------------------------

    /// Attribute access with module/record/staged dispatch.
    ///
    /// # Errors
    ///
    /// Fails for unknown attributes.
    pub(crate) fn attr_get(&mut self, base: Value, attr: &str) -> Result<Value> {
        match base {
            Value::Module(ModuleKind::Tf) => crate::tf_api::lookup(attr)
                .ok_or_else(|| RuntimeError::new(format!("module 'tf' has no attribute '{attr}'"))),
            Value::Module(ModuleKind::Ag) => crate::operators::lookup(attr)
                .ok_or_else(|| RuntimeError::new(format!("module 'ag' has no attribute '{attr}'"))),
            Value::Record(fields) => fields
                .borrow()
                .get(attr)
                .cloned()
                .ok_or_else(|| RuntimeError::new(format!("record has no field '{attr}'"))),
            // Staged Lantern record access: (attr base field)
            Value::Lantern(e) => Ok(Value::Lantern(Rc::new(SExpr::list(vec![
                SExpr::sym("attr"),
                (*e).clone(),
                SExpr::sym(attr),
            ])))),
            // native list methods (unconverted code path; converted code
            // goes through ag.list_append / ag.list_pop instead)
            Value::List(items) if attr == "append" => {
                let items = items.clone();
                Ok(Value::Builtin(Rc::new(crate::value::Builtin {
                    name: "list.append".into(),
                    func: Box::new(move |_, mut args, _| {
                        let v = args
                            .pop()
                            .ok_or_else(|| RuntimeError::new("append() takes one argument"))?;
                        items.borrow_mut().push(v);
                        Ok(Value::None)
                    }),
                })))
            }
            Value::List(items) if attr == "pop" => {
                let items = items.clone();
                Ok(Value::Builtin(Rc::new(crate::value::Builtin {
                    name: "list.pop".into(),
                    func: Box::new(move |_, _, _| {
                        items
                            .borrow_mut()
                            .pop()
                            .ok_or_else(|| RuntimeError::new("pop from empty list"))
                    }),
                })))
            }
            // tensor.shape convenience
            Value::Tensor(t) if attr == "shape" => {
                let dims: Vec<Value> = t
                    .tensor()
                    .shape()
                    .iter()
                    .map(|&d| Value::Int(d as i64))
                    .collect();
                Ok(Value::tuple(dims))
            }
            other => Err(RuntimeError::new(format!(
                "{} has no attribute '{attr}'",
                other.kind()
            ))),
        }
    }

    /// Subscript read with type dispatch (`x[i]`).
    ///
    /// # Errors
    ///
    /// Fails on out-of-range indices or unsupported containers.
    pub(crate) fn subscript_get(&mut self, base: Value, index: Value) -> Result<Value> {
        match &base {
            Value::List(items) => {
                let items = items.borrow();
                let i = index.as_int()?;
                let len = items.len() as i64;
                let idx = if i < 0 { i + len } else { i };
                items
                    .get(idx.max(0) as usize)
                    .filter(|_| idx >= 0 && idx < len)
                    .cloned()
                    .ok_or_else(|| RuntimeError::new(format!("list index {i} out of range")))
            }
            Value::Tuple(items) => {
                let i = index.as_int()?;
                let len = items.len() as i64;
                let idx = if i < 0 { i + len } else { i };
                items
                    .get(idx.max(0) as usize)
                    .filter(|_| idx >= 0 && idx < len)
                    .cloned()
                    .ok_or_else(|| RuntimeError::new(format!("tuple index {i} out of range")))
            }
            Value::Str(s) => {
                let i = index.as_int()?;
                let chars: Vec<char> = s.chars().collect();
                let len = chars.len() as i64;
                let idx = if i < 0 { i + len } else { i };
                if idx < 0 || idx >= len {
                    return Err(RuntimeError::new(format!("string index {i} out of range")));
                }
                Ok(Value::str(chars[idx as usize].to_string()))
            }
            Value::Tensor(t) => {
                let i = index.as_int()?;
                Ok(Value::tensor(t.tensor().index_axis0(i)?))
            }
            Value::GraphNode { .. } => self.graph_op(Op::IndexAxis0, &[base, index]),
            other => Err(RuntimeError::new(format!(
                "{} is not subscriptable",
                other.kind()
            ))),
        }
    }

    /// Range-slice read (`x[a:b]`) with static bounds.
    ///
    /// # Errors
    ///
    /// Fails for unsupported containers.
    pub(crate) fn slice_get(
        &mut self,
        base: Value,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> Result<Value> {
        match &base {
            Value::List(items) => {
                let items = items.borrow();
                let len = items.len() as i64;
                let norm = |x: i64| -> usize {
                    let x = if x < 0 { x + len } else { x };
                    x.clamp(0, len) as usize
                };
                let (s, e) = (norm(lo.unwrap_or(0)), norm(hi.unwrap_or(len)));
                Ok(Value::list(items[s..e.max(s)].to_vec()))
            }
            Value::Tuple(items) => {
                let len = items.len() as i64;
                let norm = |x: i64| -> usize {
                    let x = if x < 0 { x + len } else { x };
                    x.clamp(0, len) as usize
                };
                let (s, e) = (norm(lo.unwrap_or(0)), norm(hi.unwrap_or(len)));
                Ok(Value::tuple(items[s..e.max(s)].to_vec()))
            }
            Value::Tensor(t) => Ok(Value::tensor(t.tensor().slice_axis0(lo, hi)?)),
            Value::GraphNode { .. } => self.graph_op(
                Op::SliceAxis0 {
                    start: lo,
                    stop: hi,
                },
                &[base],
            ),
            other => Err(RuntimeError::new(format!(
                "{} does not support slicing",
                other.kind()
            ))),
        }
    }

    // ---- backend helpers -----------------------------------------------------

    /// Whether a graph is being staged.
    pub(crate) fn staging_graph(&self) -> bool {
        matches!(self.stage, Stage::Graph(_))
    }

    /// The active graph staging context.
    ///
    /// # Errors
    ///
    /// Fails when no graph is being staged.
    pub(crate) fn graph_stage(&mut self) -> Result<&mut GraphStage> {
        match &mut self.stage {
            Stage::Graph(g) => Ok(g),
            _ => Err(RuntimeError::new(
                "graph staging is not active (internal dispatch error)",
            )),
        }
    }

    /// The active Lantern staging context.
    ///
    /// # Errors
    ///
    /// Fails when no Lantern program is being staged.
    pub(crate) fn lantern_stage(&mut self) -> Result<&mut LanternStage> {
        match &mut self.stage {
            Stage::Lantern(s) => Ok(s),
            _ => Err(RuntimeError::new("lantern staging is not active")),
        }
    }

    /// Coerce a value to an eager tensor wrapper.
    ///
    /// # Errors
    ///
    /// Fails for staged or non-numeric values.
    pub(crate) fn to_eager(&self, v: &Value) -> Result<autograph_eager::EagerTensor> {
        match v {
            Value::Tensor(t) => Ok(t.clone()),
            other => Ok(autograph_eager::EagerTensor::from(other.as_eager_tensor()?)),
        }
    }

    /// Resolve/coerce a value to a node in the innermost graph layer.
    ///
    /// # Errors
    ///
    /// Fails outside graph staging, for undefined values, or for
    /// uncoercible types.
    pub(crate) fn graph_node_for(&mut self, v: &Value) -> Result<autograph_graph::NodeId> {
        // clone data needed before borrowing stage mutably
        let span = self.current_span;
        let stage = self.graph_stage()?;
        stage.top().builder.set_span(span);
        match v {
            Value::GraphNode { epoch, id } => stage.resolve(*epoch, *id),
            Value::Int(i) => Ok(stage.add(OpKind::Const(Tensor::scalar_i64(*i)), vec![]).1),
            Value::Float(f) => Ok(stage
                .add(OpKind::Const(Tensor::scalar_f32(*f as f32)), vec![])
                .1),
            Value::Bool(b) => Ok(stage.add(OpKind::Const(Tensor::scalar_bool(*b)), vec![]).1),
            Value::Tensor(t) => Ok(stage.add(OpKind::Const(t.tensor().clone()), vec![]).1),
            Value::List(items) => {
                // a Python list entering a staged context becomes a staged
                // tensor list (ArrayNew + pushes)
                let items = items.borrow().clone();
                let mut arr = stage.add(OpKind::ArrayNew, vec![]).1;
                for item in items {
                    let n = self.graph_node_for(&item)?;
                    arr = self.graph_stage()?.add(OpKind::ArrayPush, vec![arr, n]).1;
                }
                Ok(arr)
            }
            Value::Undefined(name) => Err(RuntimeError::new(format!(
                "'{name}' must be defined on all code paths before a staged \
                 control-flow construct can return it (staging error)"
            ))),
            other => Err(RuntimeError::new(format!(
                "cannot stage {} into the graph",
                other.kind()
            ))),
        }
    }

    /// Add a graph op over value inputs; returns a staged value.
    ///
    /// # Errors
    ///
    /// Fails when not staging a graph or inputs cannot be coerced.
    pub(crate) fn graph_op(&mut self, op: impl Into<OpKind>, inputs: &[Value]) -> Result<Value> {
        let mut ids = Vec::with_capacity(inputs.len());
        for v in inputs {
            ids.push(self.graph_node_for(v)?);
        }
        let span = self.current_span;
        let stage = self.graph_stage()?;
        stage.top().builder.set_span(span);
        let (epoch, id) = stage.add(op.into(), ids);
        Ok(Value::GraphNode { epoch, id })
    }

    /// Coerce a value to a Lantern S-expression.
    ///
    /// # Errors
    ///
    /// Fails for values the Lantern IR cannot represent.
    pub(crate) fn to_lantern_sexpr(&self, v: &Value) -> Result<SExpr> {
        match v {
            Value::Lantern(e) => Ok((**e).clone()),
            Value::Int(i) => Ok(SExpr::Num(*i as f64)),
            Value::Float(f) => Ok(SExpr::Num(*f)),
            Value::Tensor(t) if t.tensor().num_elements() == 1 => {
                Ok(SExpr::Num(t.tensor().scalar_value_f32()? as f64))
            }
            Value::Tuple(items) => {
                let mut parts = vec![SExpr::sym("tuple")];
                for item in items.iter() {
                    parts.push(self.to_lantern_sexpr(item)?);
                }
                Ok(SExpr::list(parts))
            }
            other => Err(RuntimeError::new(format!(
                "cannot stage {} into the lantern IR (pass tensors as params/externs)",
                other.kind()
            ))),
        }
    }

    /// The Lantern expression applying the op `symbol` to `operands`.
    ///
    /// # Errors
    ///
    /// Fails for operands the Lantern IR cannot represent.
    pub(crate) fn lantern_call(&mut self, symbol: &str, operands: &[Value]) -> Result<Value> {
        let mut items = vec![SExpr::sym(symbol)];
        for v in operands {
            items.push(self.to_lantern_sexpr(v)?);
        }
        Ok(Value::Lantern(Rc::new(SExpr::list(items))))
    }
}

fn value_is(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::None, Value::None) => true,
        (Value::Bool(a), Value::Bool(b)) => a == b,
        (Value::List(a), Value::List(b)) => Rc::ptr_eq(a, b),
        (Value::Tuple(a), Value::Tuple(b)) => Rc::ptr_eq(a, b),
        (Value::Function(a), Value::Function(b)) => Rc::ptr_eq(a, b),
        (Value::Record(a), Value::Record(b)) => Rc::ptr_eq(a, b),
        (Value::Int(a), Value::Int(b)) => a == b, // small-int interning analog
        _ => false,
    }
}

impl Default for Interp {
    fn default() -> Self {
        Interp::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_pylang::parse_module;

    fn run_src(src: &str) -> (Interp, Env) {
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new();
        let env = crate::runtime::global_env();
        interp.exec_block(&m.body, &env).unwrap();
        (interp, env)
    }

    fn eval_to(src: &str, var: &str) -> Value {
        let (_, env) = run_src(src);
        env.get(var).unwrap()
    }

    #[test]
    fn arithmetic_python_semantics() {
        assert_eq!(eval_to("x = 7 // 2\n", "x").as_int().unwrap(), 3);
        assert_eq!(eval_to("x = 7 / 2\n", "x").as_float().unwrap(), 3.5);
        assert_eq!(eval_to("x = 2 ** 10\n", "x").as_int().unwrap(), 1024);
        assert_eq!(eval_to("x = -7 % 3\n", "x").as_int().unwrap(), 2);
        assert_eq!(eval_to("x = 'a' + 'b'\n", "x").render(), "ab");
    }

    #[test]
    fn control_flow_native() {
        let v = eval_to(
            "total = 0\nfor i in range(10):\n    if i % 2 == 0:\n        continue\n    if i > 7:\n        break\n    total += i\n",
            "total",
        );
        assert_eq!(v.as_int().unwrap(), 1 + 3 + 5 + 7);
    }

    #[test]
    fn while_and_functions() {
        let v = eval_to(
            "def fib(n):\n    a = 0\n    b = 1\n    while n > 0:\n        a, b = b, a + b\n        n -= 1\n    return a\nr = fib(10)\n",
            "r",
        );
        assert_eq!(v.as_int().unwrap(), 55);
    }

    #[test]
    fn recursion_native() {
        let v = eval_to(
            "def fact(n):\n    if n <= 1:\n        return 1\n    return n * fact(n - 1)\nr = fact(6)\n",
            "r",
        );
        assert_eq!(v.as_int().unwrap(), 720);
    }

    #[test]
    fn closures_and_lambdas() {
        let v = eval_to(
            "def make_adder(k):\n    return lambda x: x + k\nadd3 = make_adder(3)\nr = add3(4)\n",
            "r",
        );
        assert_eq!(v.as_int().unwrap(), 7);
    }

    #[test]
    fn default_and_keyword_args() {
        let v = eval_to(
            "def f(a, b=10):\n    return a + b\nr = f(1) + f(1, b=2)\n",
            "r",
        );
        assert_eq!(v.as_int().unwrap(), 14);
        let m = parse_module("def f(a):\n    return a\nr = f(b=1)\n").unwrap();
        let mut interp = Interp::new();
        let env = crate::runtime::global_env();
        assert!(interp.exec_block(&m.body, &env).is_err());
    }

    #[test]
    fn lists_tuples_slices() {
        assert_eq!(
            eval_to("l = [1, 2, 3]\nx = l[-1]\n", "x").as_int().unwrap(),
            3
        );
        assert_eq!(
            eval_to("l = [1, 2, 3, 4]\nx = l[1:3]\n", "x").render(),
            "[2, 3]"
        );
        assert_eq!(
            eval_to("t = (5, 6)\na, b = t\nx = a * b\n", "x")
                .as_int()
                .unwrap(),
            30
        );
        assert_eq!(
            eval_to("l = [0, 0]\nl[1] = 9\nx = l[1]\n", "x")
                .as_int()
                .unwrap(),
            9
        );
    }

    #[test]
    fn comparison_chains_and_membership() {
        assert!(eval_to("x = 1 < 2 < 3\n", "x").truthy().unwrap());
        assert!(!eval_to("x = 1 < 2 < 2\n", "x").truthy().unwrap());
        assert!(eval_to("x = 2 in [1, 2]\n", "x").truthy().unwrap());
        assert!(eval_to("x = 5 not in (1, 2)\n", "x").truthy().unwrap());
        assert!(eval_to("x = None\ny = x is None\n", "y").truthy().unwrap());
        assert!(eval_to("x = 3 in range(5)\n", "x").truthy().unwrap());
    }

    #[test]
    fn boolop_short_circuit_returns_operand() {
        // Python returns the deciding operand, not a bool
        assert_eq!(eval_to("x = 0 or 5\n", "x").as_int().unwrap(), 5);
        assert_eq!(eval_to("x = 3 and 7\n", "x").as_int().unwrap(), 7);
        assert_eq!(eval_to("x = 0 and boom\n", "x").as_int().unwrap(), 0);
    }

    #[test]
    fn eager_tensor_operator_overloading() {
        // tf.constant + operator overloading (§4's motivating example)
        let v = eval_to("a = tf.constant(3)\nb = tf.constant(4)\nc = a + b\n", "c");
        match v {
            Value::Tensor(t) => assert_eq!(t.tensor().scalar_value_i64().unwrap(), 7),
            other => panic!("expected tensor, got {}", other.kind()),
        }
    }

    #[test]
    fn tensor_comparison_and_truthiness() {
        let v = eval_to("x = tf.constant(5.0)\nok = x > 2.0\n", "ok");
        match &v {
            Value::Tensor(t) => assert!(t.tensor().scalar_value_bool().unwrap()),
            other => panic!("{}", other.kind()),
        }
        // eager tensor works as a bool in a conditional
        let r = eval_to(
            "x = tf.constant(5.0)\nif x > 2.0:\n    y = 1\nelse:\n    y = 2\n",
            "y",
        );
        assert_eq!(r.as_int().unwrap(), 1);
    }

    #[test]
    fn errors_carry_spans() {
        let m = parse_module("x = 1\ny = unknown_name\n").unwrap();
        let mut interp = Interp::new();
        let env = crate::runtime::global_env();
        let err = interp.exec_block(&m.body, &env).unwrap_err();
        assert_eq!(err.span.line, 2);
        assert!(err.to_string().contains("unknown_name"));
    }

    #[test]
    fn recursion_limit() {
        // debug-mode interpreter frames are large; give the guard room to
        // trip before the OS stack would (as CPython's limit does)
        let handle = std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn(|| {
                let m = parse_module("def f():\n    return f()\nf()\n").unwrap();
                let mut interp = Interp::new();
                let env = crate::runtime::global_env();
                interp.exec_block(&m.body, &env).unwrap_err().to_string()
            })
            .unwrap();
        assert!(handle.join().unwrap().contains("recursion"));
    }

    #[test]
    fn assert_and_raise() {
        let m = parse_module("assert 1 > 2, 'nope'\n").unwrap();
        let mut interp = Interp::new();
        let env = crate::runtime::global_env();
        let err = interp.exec_block(&m.body, &env).unwrap_err();
        assert!(err.to_string().contains("nope"));
        let m2 = parse_module("raise 'custom error'\n").unwrap();
        let err2 = Interp::new()
            .exec_block(&m2.body, &crate::runtime::global_env())
            .unwrap_err();
        assert!(err2.to_string().contains("custom error"));
    }

    #[test]
    fn records_and_attributes() {
        let env = crate::runtime::global_env();
        env.set(
            "obj",
            Value::record(vec![("a", Value::Int(1)), ("b", Value::Int(2))]),
        );
        let m = parse_module("obj.a = obj.a + obj.b\nr = obj.a\n").unwrap();
        let mut interp = Interp::new();
        interp.exec_block(&m.body, &env).unwrap();
        assert_eq!(env.get("r").unwrap().as_int().unwrap(), 3);
    }

    #[test]
    fn iterate_eager_tensor_rows() {
        let v = eval_to(
            "m = tf.constant([[1.0, 2.0], [3.0, 4.0]])\ns = 0.0\nfor row in m:\n    s = s + tf.reduce_sum(row)\n",
            "s",
        );
        match v {
            Value::Tensor(t) => assert_eq!(t.tensor().scalar_value_f32().unwrap(), 10.0),
            other => panic!("{}", other.kind()),
        }
    }
}
