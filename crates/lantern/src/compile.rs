//! Compilation of S-expressions into a compact, pre-resolved instruction
//! tree: variable names become frame slots, function names become indices,
//! extern/param names become interned ids. This is the "efficient code"
//! half of the Lantern substitution — evaluation pays no name lookups and
//! no dynamic dispatch.

use crate::sexpr::SExpr;
use crate::{LanternError, Result};
use autograph_tensor::op::Op;
use std::collections::HashMap;

/// The parse table from Lantern's S-expression symbols onto tensor ops.
/// An op with attributes has a symbol only where the IR fixes them
/// (`concat0`, a reduction over every axis). `and`, `or` and `not` are the
/// IR's own boolean forms ([`Logic`]).
static OPS: &[(&str, Op)] = &[
    ("add", Op::Add),
    ("sub", Op::Sub),
    ("mul", Op::Mul),
    ("div", Op::Div),
    ("neg", Op::Neg),
    ("exp", Op::Exp),
    ("log", Op::Log),
    ("tanh", Op::Tanh),
    ("sigmoid", Op::Sigmoid),
    ("relu", Op::Relu),
    ("square", Op::Square),
    ("sqrt", Op::Sqrt),
    (
        "matmul",
        Op::MatMul {
            transpose_a: false,
            transpose_b: false,
        },
    ),
    ("concat0", Op::Concat(0)),
    ("concat1", Op::Concat(1)),
    ("reduce_sum", Op::ReduceSum(None)),
    ("reduce_mean", Op::ReduceMean(None)),
    ("softmax_xent", Op::SoftmaxCrossEntropy),
    ("lt", Op::Less),
    ("le", Op::LessEqual),
    ("gt", Op::Greater),
    ("ge", Op::GreaterEqual),
    ("eq", Op::Equal),
];

/// The tensor op a symbol names.
pub fn op_of(symbol: &str) -> Option<&'static Op> {
    OPS.iter().find(|(s, _)| *s == symbol).map(|(_, op)| op)
}

/// The symbol of a tensor op, when the Lantern IR has one.
pub fn symbol(op: &Op) -> Option<&'static str> {
    OPS.iter().find(|(_, o)| o == op).map(|(s, _)| *s)
}

/// Boolean ops on flags (bools, or scalar bool tensors), outside
/// differentiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Logic {
    /// `a and b`.
    And,
    /// `a or b`.
    Or,
    /// `not a`.
    Not,
}

/// A compiled expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CExpr {
    /// f32 scalar constant.
    Scalar(f32),
    /// Read frame slot.
    Local(usize),
    /// Read interned external input.
    Extern(usize),
    /// Read interned trainable parameter.
    Param(usize),
    /// `let slot = value in body`.
    Let {
        /// Destination slot.
        slot: usize,
        /// Bound value.
        value: Box<CExpr>,
        /// Body evaluated with the binding.
        body: Box<CExpr>,
    },
    /// Conditional.
    If {
        /// Condition (bool).
        cond: Box<CExpr>,
        /// Then branch.
        then: Box<CExpr>,
        /// Else branch.
        els: Box<CExpr>,
    },
    /// Tensor op application.
    Op {
        /// Which op.
        op: Op,
        /// Arguments.
        args: Vec<CExpr>,
    },
    /// Boolean op application.
    Logic {
        /// Which op.
        op: Logic,
        /// Arguments.
        args: Vec<CExpr>,
    },
    /// Call of a staged function — possibly recursive (the feature
    /// TensorFlow graphs lack).
    Call {
        /// Function index.
        func: usize,
        /// Arguments.
        args: Vec<CExpr>,
    },
    /// Record field access.
    Attr {
        /// Record expression.
        value: Box<CExpr>,
        /// Field name.
        field: String,
    },
    /// Tuple construction.
    Tuple(Vec<CExpr>),
    /// Tuple projection.
    TupleGet {
        /// Tuple expression.
        value: Box<CExpr>,
        /// Index.
        index: usize,
    },
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct CFunc {
    /// Name (diagnostics).
    pub name: String,
    /// Number of parameters (occupying slots `0..num_params`).
    pub num_params: usize,
    /// Total frame slots.
    pub(crate) num_slots: usize,
    /// Body expression.
    pub(crate) body: CExpr,
}

/// A compiled program: functions + a main expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Staged functions.
    pub funcs: Vec<CFunc>,
    /// The entry expression (as a zero-param function frame).
    pub main: CFunc,
    /// Interned external input names.
    pub extern_names: Vec<String>,
    /// Interned trainable parameter names.
    pub param_names: Vec<String>,
}

struct Compiler {
    func_names: HashMap<String, usize>,
    extern_names: Vec<String>,
    param_names: Vec<String>,
}

struct Scope {
    vars: Vec<(String, usize)>,
    next_slot: usize,
    max_slots: usize,
}

impl Scope {
    fn new(params: &[String]) -> Scope {
        Scope {
            vars: params
                .iter()
                .enumerate()
                .map(|(i, p)| (p.clone(), i))
                .collect(),
            next_slot: params.len(),
            max_slots: params.len(),
        }
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }

    fn push(&mut self, name: &str) -> usize {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.max_slots = self.max_slots.max(self.next_slot);
        self.vars.push((name.to_string(), slot));
        slot
    }

    fn pop(&mut self) {
        self.vars.pop();
        self.next_slot -= 1;
    }
}

impl Program {
    /// Compile a `(program (def ...)* main)` S-expression.
    ///
    /// # Errors
    ///
    /// Fails on malformed forms, unbound symbols, or unknown ops.
    pub fn compile(sexpr: &SExpr) -> Result<Program> {
        let items = sexpr
            .as_list()
            .filter(|l| l.first().and_then(SExpr::as_sym) == Some("program"))
            .ok_or_else(|| LanternError::new("expected (program ...)"))?;
        if items.len() < 2 {
            return Err(LanternError::new("program needs a main expression"));
        }
        let defs = &items[1..items.len() - 1];
        let main_expr = &items[items.len() - 1];

        let mut compiler = Compiler {
            func_names: HashMap::new(),
            extern_names: Vec::new(),
            param_names: Vec::new(),
        };

        // First pass: register function names so recursion resolves.
        let mut headers = Vec::new();
        for (i, d) in defs.iter().enumerate() {
            let parts = d
                .as_list()
                .filter(|l| l.first().and_then(SExpr::as_sym) == Some("def"))
                .ok_or_else(|| LanternError::new("expected (def name (params) body)"))?;
            if parts.len() != 4 {
                return Err(LanternError::new(
                    "def takes a name, a param list and a body",
                ));
            }
            let name = parts[1]
                .as_sym()
                .ok_or_else(|| LanternError::new("def name must be a symbol"))?;
            let params: Vec<String> = parts[2]
                .as_list()
                .ok_or_else(|| LanternError::new("def params must be a list"))?
                .iter()
                .map(|p| {
                    p.as_sym()
                        .map(str::to_string)
                        .ok_or_else(|| LanternError::new("def param must be a symbol"))
                })
                .collect::<Result<_>>()?;
            compiler.func_names.insert(name.to_string(), i);
            headers.push((name.to_string(), params, &parts[3]));
        }

        let mut funcs = Vec::new();
        for (name, params, body) in headers {
            let mut scope = Scope::new(&params);
            let body = compiler.compile_expr(body, &mut scope)?;
            funcs.push(CFunc {
                name,
                num_params: params.len(),
                num_slots: scope.max_slots,
                body,
            });
        }

        let mut main_scope = Scope::new(&[]);
        let main_body = compiler.compile_expr(main_expr, &mut main_scope)?;
        Ok(Program {
            funcs,
            main: CFunc {
                name: "<main>".into(),
                num_params: 0,
                num_slots: main_scope.max_slots,
                body: main_body,
            },
            extern_names: compiler.extern_names,
            param_names: compiler.param_names,
        })
    }
}

impl Compiler {
    fn intern(names: &mut Vec<String>, name: &str) -> usize {
        match names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                names.push(name.to_string());
                names.len() - 1
            }
        }
    }

    fn compile_args(&mut self, args: &[SExpr], scope: &mut Scope) -> Result<Vec<CExpr>> {
        args.iter().map(|a| self.compile_expr(a, scope)).collect()
    }

    fn compile_expr(&mut self, e: &SExpr, scope: &mut Scope) -> Result<CExpr> {
        match e {
            SExpr::Num(n) => Ok(CExpr::Scalar(*n as f32)),
            SExpr::Sym(name) => scope
                .lookup(name)
                .map(CExpr::Local)
                .ok_or_else(|| LanternError::new(format!("unbound symbol '{name}'"))),
            SExpr::List(items) => {
                let head = items
                    .first()
                    .and_then(SExpr::as_sym)
                    .ok_or_else(|| LanternError::new("expected an operator symbol"))?;
                match head {
                    "scalar" => {
                        let n = match items.get(1) {
                            Some(SExpr::Num(n)) => *n as f32,
                            _ => return Err(LanternError::new("(scalar N) needs a number")),
                        };
                        Ok(CExpr::Scalar(n))
                    }
                    "extern" => {
                        let name = items
                            .get(1)
                            .and_then(SExpr::as_sym)
                            .ok_or_else(|| LanternError::new("(extern name)"))?;
                        Ok(CExpr::Extern(Self::intern(&mut self.extern_names, name)))
                    }
                    "param" => {
                        let name = items
                            .get(1)
                            .and_then(SExpr::as_sym)
                            .ok_or_else(|| LanternError::new("(param name)"))?;
                        Ok(CExpr::Param(Self::intern(&mut self.param_names, name)))
                    }
                    "let" => {
                        if items.len() != 4 {
                            return Err(LanternError::new("(let name value body)"));
                        }
                        let name = items[1]
                            .as_sym()
                            .ok_or_else(|| LanternError::new("let name must be a symbol"))?;
                        let value = self.compile_expr(&items[2], scope)?;
                        let slot = scope.push(name);
                        let body = self.compile_expr(&items[3], scope)?;
                        scope.pop();
                        Ok(CExpr::Let {
                            slot,
                            value: Box::new(value),
                            body: Box::new(body),
                        })
                    }
                    "if" => {
                        if items.len() != 4 {
                            return Err(LanternError::new("(if cond then else)"));
                        }
                        Ok(CExpr::If {
                            cond: Box::new(self.compile_expr(&items[1], scope)?),
                            then: Box::new(self.compile_expr(&items[2], scope)?),
                            els: Box::new(self.compile_expr(&items[3], scope)?),
                        })
                    }
                    "call" => {
                        let fname = items
                            .get(1)
                            .and_then(SExpr::as_sym)
                            .ok_or_else(|| LanternError::new("(call f args...)"))?;
                        let func = *self.func_names.get(fname).ok_or_else(|| {
                            LanternError::new(format!("unknown function '{fname}'"))
                        })?;
                        let args = self.compile_args(&items[2..], scope)?;
                        Ok(CExpr::Call { func, args })
                    }
                    "attr" => {
                        if items.len() != 3 {
                            return Err(LanternError::new("(attr value field)"));
                        }
                        let field = items[2]
                            .as_sym()
                            .ok_or_else(|| LanternError::new("attr field must be a symbol"))?;
                        Ok(CExpr::Attr {
                            value: Box::new(self.compile_expr(&items[1], scope)?),
                            field: field.to_string(),
                        })
                    }
                    "tuple" => Ok(CExpr::Tuple(self.compile_args(&items[1..], scope)?)),
                    "get" => {
                        let index = match items.get(2) {
                            Some(SExpr::Num(n)) => *n as usize,
                            _ => return Err(LanternError::new("(get tuple index)")),
                        };
                        Ok(CExpr::TupleGet {
                            value: Box::new(self.compile_expr(&items[1], scope)?),
                            index,
                        })
                    }
                    "and" | "or" | "not" => {
                        let op = match head {
                            "and" => Logic::And,
                            "or" => Logic::Or,
                            _ => Logic::Not,
                        };
                        let args = self.compile_args(&items[1..], scope)?;
                        Ok(CExpr::Logic { op, args })
                    }
                    op_name => {
                        let op = op_of(op_name).ok_or_else(|| {
                            LanternError::new(format!("unknown lantern op '{op_name}'"))
                        })?;
                        let args = self.compile_args(&items[1..], scope)?;
                        Ok(CExpr::Op {
                            op: op.clone(),
                            args,
                        })
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sexpr::parse;

    #[test]
    fn compile_simple_program() {
        let p = Program::compile(&parse("(program (add (scalar 1) (scalar 2)))").unwrap()).unwrap();
        assert!(p.funcs.is_empty());
        assert!(matches!(p.main.body, CExpr::Op { op: Op::Add, .. }));
    }

    #[test]
    fn compile_recursive_def() {
        let p = Program::compile(
            &parse("(program (def f (n) (if (le n 1) 1 (mul n (call f (sub n 1))))) (call f (extern n)))")
                .unwrap(),
        )
        .unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].num_params, 1);
        assert_eq!(p.extern_names, vec!["n"]);
        // the recursive call resolved to index 0
        fn find_call(e: &CExpr) -> bool {
            match e {
                CExpr::Call { func: 0, .. } => true,
                CExpr::If { cond, then, els } => {
                    find_call(cond) || find_call(then) || find_call(els)
                }
                CExpr::Op { args, .. } | CExpr::Logic { args, .. } => args.iter().any(find_call),
                _ => false,
            }
        }
        assert!(find_call(&p.funcs[0].body));
    }

    #[test]
    fn let_allocates_slots() {
        let p = Program::compile(
            &parse("(program (def f (a) (let x (mul a a) (add x x))) (call f (scalar 2)))")
                .unwrap(),
        )
        .unwrap();
        assert_eq!(p.funcs[0].num_slots, 2); // a + x
    }

    #[test]
    fn let_shadowing_and_scoping() {
        // inner let shadows; after body, the name unbinds
        let src = "(program (let x 1 (add (let x 2 x) x)))";
        let p = Program::compile(&parse(src).unwrap()).unwrap();
        assert_eq!(p.main.num_slots, 2);
        // unbound after let
        assert!(Program::compile(&parse("(program (add (let x 1 x) x))").unwrap()).is_err());
    }

    #[test]
    fn unknown_symbols_and_ops_rejected() {
        assert!(Program::compile(&parse("(program zzz)").unwrap()).is_err());
        assert!(Program::compile(&parse("(program (frob 1 2))").unwrap()).is_err());
        assert!(Program::compile(&parse("(program (call nope 1))").unwrap()).is_err());
        assert!(Program::compile(&parse("(add 1 2)").unwrap()).is_err());
    }

    #[test]
    fn params_and_externs_interned_once() {
        let p = Program::compile(
            &parse("(program (add (param w) (add (param w) (extern x))))").unwrap(),
        )
        .unwrap();
        assert_eq!(p.param_names, vec!["w"]);
        assert_eq!(p.extern_names, vec!["x"]);
    }
}
