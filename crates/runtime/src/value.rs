//! Runtime values of the PyLite interpreter.

use crate::{Result, RuntimeError};
use autograph_eager::EagerTensor;
use autograph_lantern::sexpr::SExpr;
use autograph_pylang::ast::{Param, Stmt};
use autograph_tensor::{DType, Tensor};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::env::Env;

/// A user-defined PyLite function (its AST plus captured environment).
pub struct PyFunction {
    /// Function name.
    pub name: String,
    /// Source location of the `def` (synthetic for functions with no
    /// user-source origin); placeholders staged for the function's
    /// parameters are attributed here.
    pub def_span: autograph_pylang::Span,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body statements (shared with the defining module).
    pub body: Rc<Vec<Stmt>>,
    /// Lexical closure.
    pub closure: Env,
    /// Whether this definition carries `@ag.autograph_artifact`
    /// (already converted — `converted_call` will not convert it again).
    pub is_artifact: bool,
    /// Pre-evaluated default values (right-aligned with params).
    pub defaults: Vec<Value>,
}

impl fmt::Debug for PyFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<function {}/{}>", self.name, self.params.len())
    }
}

/// A native (Rust) function exposed to PyLite, e.g. the `tf.*` API and the
/// `ag.*` operators.
pub struct Builtin {
    /// Qualified display name, e.g. `"tf.matmul"`.
    pub name: String,
    /// Implementation.
    #[allow(clippy::type_complexity)]
    pub func:
        Box<dyn Fn(&mut crate::interp::Interp, Vec<Value>, Vec<(String, Value)>) -> Result<Value>>,
}

impl fmt::Debug for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<builtin {}>", self.name)
    }
}

/// Which namespace a module value denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleKind {
    /// The staged-ops module `tf`.
    Tf,
    /// The AutoGraph operator module `ag`.
    Ag,
}

/// A value in the PyLite interpreter.
#[derive(Debug, Clone)]
pub enum Value {
    /// `None`.
    None,
    /// Python bool.
    Bool(bool),
    /// Python int.
    Int(i64),
    /// Python float.
    Float(f64),
    /// Python str.
    Str(Rc<String>),
    /// Mutable list.
    List(Rc<RefCell<Vec<Value>>>),
    /// Immutable tuple.
    Tuple(Rc<Vec<Value>>),
    /// Lazy integer range (from `range(...)`).
    Range {
        /// Inclusive start.
        start: i64,
        /// Exclusive stop.
        stop: i64,
        /// Step (nonzero).
        step: i64,
    },
    /// User-defined function.
    Function(Rc<PyFunction>),
    /// Native function.
    Builtin(Rc<Builtin>),
    /// A namespace (`tf` / `ag`).
    Module(ModuleKind),
    /// Record with named fields (tree nodes, simple objects).
    Record(Rc<RefCell<HashMap<String, Value>>>),
    /// An eager tensor (imperative mode).
    Tensor(EagerTensor),
    /// A staged graph value. `epoch` identifies the builder layer that owns
    /// `id` (capture resolution across `cond`/`while` subgraphs).
    GraphNode {
        /// Builder-layer epoch.
        epoch: u64,
        /// Node id within that layer.
        id: autograph_graph::NodeId,
    },
    /// A staged Lantern expression.
    Lantern(Rc<SExpr>),
    /// A dtype constant (`tf.float32`).
    DType(DType),
    /// The reified "undefined" state of a variable (§7.2 Control Flow).
    Undefined(Rc<String>),
}

impl Value {
    /// Wrap a string.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Rc::new(s.into()))
    }

    /// Wrap an eager tensor.
    pub fn tensor(t: Tensor) -> Value {
        Value::Tensor(EagerTensor::from(t))
    }

    /// Build a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Rc::new(RefCell::new(items)))
    }

    /// Build a tuple value.
    pub fn tuple(items: Vec<Value>) -> Value {
        Value::Tuple(Rc::new(items))
    }

    /// Build a record value.
    pub fn record(fields: Vec<(&str, Value)>) -> Value {
        Value::Record(Rc::new(RefCell::new(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )))
    }

    /// Short kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::None => "None",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Tuple(_) => "tuple",
            Value::Range { .. } => "range",
            Value::Function(_) => "function",
            Value::Builtin(_) => "builtin",
            Value::Module(_) => "module",
            Value::Record(_) => "record",
            Value::Tensor(_) => "tensor",
            Value::GraphNode { .. } => "graph tensor",
            Value::Lantern(_) => "lantern expression",
            Value::DType(_) => "dtype",
            Value::Undefined(_) => "undefined",
        }
    }

    /// Is this a *staged* value (graph or Lantern)?
    pub(crate) fn is_staged(&self) -> bool {
        matches!(self, Value::GraphNode { .. } | Value::Lantern(_))
    }

    /// Is this a tensor of any backend (eager, graph or Lantern)?
    pub(crate) fn is_tensor_like(&self) -> bool {
        matches!(self, Value::Tensor(_)) || self.is_staged()
    }

    /// Python truthiness. Staged values refuse, exactly like using a
    /// `tf.Tensor` as a Python bool — the Appendix B staging error.
    ///
    /// # Errors
    ///
    /// Fails for staged values and `Undefined`.
    pub fn truthy(&self) -> Result<bool> {
        match self {
            Value::None => Ok(false),
            Value::Bool(b) => Ok(*b),
            Value::Int(i) => Ok(*i != 0),
            Value::Float(f) => Ok(*f != 0.0),
            Value::Str(s) => Ok(!s.is_empty()),
            Value::List(l) => Ok(!l.borrow().is_empty()),
            Value::Tuple(t) => Ok(!t.is_empty()),
            Value::Range { start, stop, step } => Ok(if *step > 0 {
                start < stop
            } else {
                start > stop
            }),
            Value::Tensor(t) => t
                .tensor()
                .scalar_value_bool()
                .map_err(|e| RuntimeError::new(format!("tensor used as bool: {e}"))),
            Value::GraphNode { .. } | Value::Lantern(_) => Err(RuntimeError::new(
                "using a staged tensor as a Python bool is not allowed; \
                 this conditional must be converted (staging error)",
            )),
            Value::Undefined(name) => Err(RuntimeError::new(format!(
                "variable '{name}' may be used before assignment"
            ))),
            other => Err(RuntimeError::new(format!(
                "{} has no truth value",
                other.kind()
            ))),
        }
    }

    /// Extract an int.
    ///
    /// # Errors
    ///
    /// Fails for non-integers (including floats — no silent truncation).
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(*b as i64),
            Value::Tensor(t) => Ok(t.tensor().scalar_value_i64()?),
            other => Err(RuntimeError::new(format!(
                "expected int, got {}",
                other.kind()
            ))),
        }
    }

    /// Extract a float (ints promote).
    ///
    /// # Errors
    ///
    /// Fails for non-numeric values.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            Value::Bool(b) => Ok(*b as i64 as f64),
            Value::Tensor(t) => Ok(t.tensor().scalar_value_f32()? as f64),
            other => Err(RuntimeError::new(format!(
                "expected float, got {}",
                other.kind()
            ))),
        }
    }

    /// Extract an eager tensor, coercing Python numbers to scalars.
    ///
    /// # Errors
    ///
    /// Fails for staged values and non-numerics.
    pub fn as_eager_tensor(&self) -> Result<Tensor> {
        match self {
            Value::Tensor(t) => Ok(t.tensor().clone()),
            Value::Int(i) => Ok(Tensor::scalar_i64(*i)),
            Value::Float(f) => Ok(Tensor::scalar_f32(*f as f32)),
            Value::Bool(b) => Ok(Tensor::scalar_bool(*b)),
            Value::List(items) => {
                let v: Result<Vec<f32>> = items
                    .borrow()
                    .iter()
                    .map(|x| x.as_float().map(|f| f as f32))
                    .collect();
                let v = v?;
                let n = v.len();
                Ok(Tensor::from_vec(v, &[n])?)
            }
            other => Err(RuntimeError::new(format!(
                "cannot convert {} to an eager tensor",
                other.kind()
            ))),
        }
    }

    /// Structural/value equality (Python `==` on host values).
    pub fn py_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::None, Value::None) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Tuple(a), Value::Tuple(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.py_eq(y))
            }
            (Value::List(a), Value::List(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.py_eq(y))
            }
            _ => false,
        }
    }

    /// Human-readable rendering (the `print` output format).
    pub fn render(&self) -> String {
        match self {
            Value::None => "None".into(),
            Value::Bool(true) => "True".into(),
            Value::Bool(false) => "False".into(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format!("{f}"),
            Value::Str(s) => (**s).clone(),
            Value::List(items) => {
                let inner: Vec<String> = items.borrow().iter().map(Value::render).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Tuple(items) => {
                let inner: Vec<String> = items.iter().map(Value::render).collect();
                format!("({})", inner.join(", "))
            }
            Value::Range { start, stop, step } => format!("range({start}, {stop}, {step})"),
            Value::Tensor(t) => format!("{}", t.tensor()),
            Value::GraphNode { id, .. } => format!("<staged tensor node {id}>"),
            Value::Lantern(e) => format!("<staged lantern {e}>"),
            Value::Function(f) => format!("{f:?}"),
            Value::Builtin(b) => format!("{b:?}"),
            Value::Module(ModuleKind::Tf) => "<module tf>".into(),
            Value::Module(ModuleKind::Ag) => "<module ag>".into(),
            Value::Record(_) => "<record>".into(),
            Value::DType(d) => format!("tf.{d}"),
            Value::Undefined(n) => format!("<undefined {n}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::None.truthy().unwrap());
        assert!(Value::Int(2).truthy().unwrap());
        assert!(!Value::Float(0.0).truthy().unwrap());
        assert!(Value::str("x").truthy().unwrap());
        assert!(!Value::list(vec![]).truthy().unwrap());
        assert!(Value::tensor(Tensor::scalar_bool(true)).truthy().unwrap());
        assert!(Value::GraphNode { epoch: 0, id: 0 }.truthy().is_err());
        assert!(Value::Undefined(Rc::new("x".into())).truthy().is_err());
    }

    #[test]
    fn numeric_extraction() {
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
        assert_eq!(Value::Bool(true).as_int().unwrap(), 1);
        assert!(Value::str("x").as_int().is_err());
        let t = Value::tensor(Tensor::scalar_f32(2.5));
        assert_eq!(t.as_float().unwrap(), 2.5);
    }

    #[test]
    fn eager_coercion_from_list() {
        let v = Value::list(vec![Value::Int(1), Value::Float(2.5)]);
        let t = v.as_eager_tensor().unwrap();
        assert_eq!(t.as_f32().unwrap(), &[1.0, 2.5]);
    }

    #[test]
    fn py_eq_mixed() {
        assert!(Value::Int(2).py_eq(&Value::Float(2.0)));
        assert!(Value::tuple(vec![Value::Int(1)]).py_eq(&Value::tuple(vec![Value::Int(1)])));
        assert!(!Value::Int(1).py_eq(&Value::str("1")));
    }

    #[test]
    fn render_forms() {
        assert_eq!(Value::Bool(true).render(), "True");
        assert_eq!(
            Value::list(vec![Value::Int(1), Value::Int(2)]).render(),
            "[1, 2]"
        );
        assert_eq!(Value::DType(DType::F32).render(), "tf.f32");
    }

    #[test]
    fn staged_classification() {
        assert!(Value::GraphNode { epoch: 0, id: 1 }.is_staged());
        assert!(!Value::tensor(Tensor::scalar_f32(0.0)).is_staged());
    }
}
