//! The Lantern evaluator: executes compiled programs forward-only or with
//! reverse-mode automatic differentiation.
//!
//! The original Lantern implements backpropagation with delimited
//! continuations (`shift`/`reset`) compiled into C++: each op's generated
//! code runs its forward computation, invokes the continuation for the
//! rest of the program, then updates its operands' gradients. Here the
//! forward pass records each differentiable op on the data tape of
//! [`autograph_tensor::grad`] (the one the eager runtime records into),
//! and after the forward value is produced the tape is replayed in
//! reverse: the same computation in the same order as the continuations
//! (see the `Snippet` listing in §8), through the rules the graph uses.

use crate::compile::{CExpr, CFunc, Logic, Program};
use crate::value::LValue;
use crate::{LanternError, Result};
use autograph_tensor::error::panic_message;
use autograph_tensor::grad::Tape;
use autograph_tensor::op::{Op, Operands};
use autograph_tensor::Tensor;
use std::collections::HashMap;

/// Executes a compiled [`Program`].
#[derive(Debug)]
pub struct Engine {
    program: Program,
}

impl Engine {
    /// Wrap a compiled program.
    pub fn new(program: Program) -> Engine {
        Engine { program }
    }

    /// The compiled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Evaluate forward with tensor externs.
    ///
    /// # Errors
    ///
    /// Fails on missing externs/params or kernel errors.
    pub fn run(&self, externs: &[(&str, Tensor)], params: &[(&str, Tensor)]) -> Result<LValue> {
        let ext: Vec<(&str, LValue)> = externs
            .iter()
            .map(|(n, t)| (*n, LValue::tensor(t.clone())))
            .collect();
        self.run_values(&ext, params)
    }

    /// Evaluate forward with arbitrary extern values (trees, tuples).
    ///
    /// # Errors
    ///
    /// Fails on missing externs/params or kernel errors.
    pub fn run_values(
        &self,
        externs: &[(&str, LValue)],
        params: &[(&str, Tensor)],
    ) -> Result<LValue> {
        // panic isolation: interpreter + kernel panics become structured
        // errors instead of unwinding through the embedding application
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_values_inner(externs, params)
        }))
        .unwrap_or_else(|p| {
            Err(LanternError::new(format!(
                "evaluator panicked: {}",
                panic_message(p.as_ref())
            )))
        })
    }

    fn run_values_inner(
        &self,
        externs: &[(&str, LValue)],
        params: &[(&str, Tensor)],
    ) -> Result<LValue> {
        let (ext, par) = self.bind(externs, params)?;
        let mut ctx = Ctx {
            program: &self.program,
            externs: ext,
            params: par,
            tape: None,
        };
        let mut frame = vec![LValue::Unit; self.program.main.num_slots];
        ctx.eval(&self.program.main.body, &mut frame)
    }

    /// Evaluate and differentiate: returns the scalar loss and the
    /// gradient of each parameter, in `params` order.
    ///
    /// # Errors
    ///
    /// Fails when the program output is not a scalar tensor, or on any
    /// kernel error.
    pub fn grad(
        &self,
        externs: &[(&str, LValue)],
        params: &[(&str, Tensor)],
    ) -> Result<(Tensor, Vec<Tensor>)> {
        // the replayed rules call shape-sensitive kernels directly; isolate
        // their panics too
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.grad_inner(externs, params)
        }))
        .unwrap_or_else(|p| {
            Err(LanternError::new(format!(
                "gradient evaluation panicked: {}",
                panic_message(p.as_ref())
            )))
        })
    }

    fn grad_inner(
        &self,
        externs: &[(&str, LValue)],
        params: &[(&str, Tensor)],
    ) -> Result<(Tensor, Vec<Tensor>)> {
        let (ext, mut par) = self.bind(externs, params)?;
        // parameters are tape leaves
        let mut tape = Tape::default();
        for p in &mut par {
            if let LValue::Tensor(_, node) = p {
                *node = Some(tape.watch());
            }
        }
        let mut ctx = Ctx {
            program: &self.program,
            externs: ext,
            params: par,
            tape: Some(tape),
        };
        let mut frame = vec![LValue::Unit; self.program.main.num_slots];
        let out = ctx.eval(&self.program.main.body, &mut frame)?;
        let (loss, loss_node) = match out {
            LValue::Tensor(t, n) => (t, n),
            other => {
                return Err(LanternError::new(format!(
                    "grad needs a scalar tensor output, got {}",
                    other.kind()
                )))
            }
        };
        let mut tape = ctx.tape.take().unwrap_or_default();
        // a loss no parameter reaches is a fresh leaf: every gradient is zero
        let loss_node = loss_node.unwrap_or_else(|| tape.watch());
        let wrt: Vec<(usize, &[usize])> = ctx
            .params
            .iter()
            .filter_map(|p| match p {
                LValue::Tensor(t, Some(node)) => Some((*node, t.shape())),
                _ => None,
            })
            .collect();
        let grads = tape
            .gradients(loss_node, loss.shape(), &wrt)
            .map_err(|(_, message)| LanternError::new(message))?;
        Ok((loss, grads))
    }

    fn bind(
        &self,
        externs: &[(&str, LValue)],
        params: &[(&str, Tensor)],
    ) -> Result<(Vec<LValue>, Vec<LValue>)> {
        let emap: HashMap<&str, &LValue> = externs.iter().map(|(n, v)| (*n, v)).collect();
        let ext = self
            .program
            .extern_names
            .iter()
            .map(|n| {
                emap.get(n.as_str())
                    .map(|v| (*v).clone())
                    .ok_or_else(|| LanternError::new(format!("missing extern '{n}'")))
            })
            .collect::<Result<_>>()?;
        let pmap: HashMap<&str, &Tensor> = params.iter().map(|(n, t)| (*n, t)).collect();
        let par = self
            .program
            .param_names
            .iter()
            .map(|n| {
                let t = pmap
                    .get(n.as_str())
                    .ok_or_else(|| LanternError::new(format!("missing parameter '{n}'")))?;
                Ok(LValue::tensor((*t).clone()))
            })
            .collect::<Result<_>>()?;
        Ok((ext, par))
    }
}

struct Ctx<'a> {
    program: &'a Program,
    externs: Vec<LValue>,
    params: Vec<LValue>,
    tape: Option<Tape>,
}

impl<'a> Ctx<'a> {
    fn eval(&mut self, e: &CExpr, frame: &mut Vec<LValue>) -> Result<LValue> {
        match e {
            CExpr::Scalar(v) => Ok(LValue::scalar(*v)),
            CExpr::Local(slot) => Ok(frame[*slot].clone()),
            CExpr::Extern(i) => Ok(self.externs[*i].clone()),
            CExpr::Param(i) => Ok(self.params[*i].clone()),
            CExpr::Let { slot, value, body } => {
                let v = self.eval(value, frame)?;
                frame[*slot] = v;
                self.eval(body, frame)
            }
            CExpr::If { cond, then, els } => {
                let c = self.eval(cond, frame)?.as_bool()?;
                if c {
                    self.eval(then, frame)
                } else {
                    self.eval(els, frame)
                }
            }
            CExpr::Call { func, args } => {
                let f: &CFunc = &self.program.funcs[*func];
                if args.len() != f.num_params {
                    return Err(LanternError::new(format!(
                        "function '{}' expects {} args, got {}",
                        f.name,
                        f.num_params,
                        args.len()
                    )));
                }
                let mut new_frame = vec![LValue::Unit; f.num_slots];
                for (i, a) in args.iter().enumerate() {
                    new_frame[i] = self.eval(a, frame)?;
                }
                self.eval(&f.body, &mut new_frame)
            }
            CExpr::Attr { value, field } => {
                let v = self.eval(value, frame)?;
                let rec = v.as_record()?;
                rec.fields
                    .get(field)
                    .cloned()
                    .ok_or_else(|| LanternError::new(format!("record has no field '{field}'")))
            }
            CExpr::Tuple(items) => Ok(LValue::Tuple(
                items
                    .iter()
                    .map(|i| self.eval(i, frame))
                    .collect::<Result<_>>()?,
            )),
            CExpr::TupleGet { value, index } => match self.eval(value, frame)? {
                LValue::Tuple(items) => items
                    .get(*index)
                    .cloned()
                    .ok_or_else(|| LanternError::new(format!("tuple index {index} out of range"))),
                other => Err(LanternError::new(format!(
                    "get on non-tuple {}",
                    other.kind()
                ))),
            },
            CExpr::Op { op, args } => self.with_args(args, frame, |ctx, vals| ctx.apply(op, vals)),
            CExpr::Logic { op, args } => self.with_args(args, frame, |_, vals| {
                let flag = |i: usize| {
                    vals.get(i)
                        .ok_or_else(|| LanternError::new("missing operand"))?
                        .as_bool()
                };
                Ok(LValue::Bool(match op {
                    Logic::And => flag(0)? && flag(1)?,
                    Logic::Or => flag(0)? || flag(1)?,
                    Logic::Not => !flag(0)?,
                }))
            }),
        }
    }

    /// Evaluate `args` and hand their values to `f`; common arities
    /// evaluate into stack slots (no allocation on the compiled hot path).
    fn with_args(
        &mut self,
        args: &[CExpr],
        frame: &mut Vec<LValue>,
        f: impl FnOnce(&mut Self, &[LValue]) -> Result<LValue>,
    ) -> Result<LValue> {
        match args {
            [a] => {
                let va = self.eval(a, frame)?;
                f(self, &[va])
            }
            [a, b] => {
                let va = self.eval(a, frame)?;
                let vb = self.eval(b, frame)?;
                f(self, &[va, vb])
            }
            _ => {
                let vals: Vec<LValue> = args
                    .iter()
                    .map(|a| self.eval(a, frame))
                    .collect::<Result<_>>()?;
                f(self, &vals)
            }
        }
    }

    fn apply(&mut self, op: &Op, vals: &[LValue]) -> Result<LValue> {
        let out = op.apply(&mut Args(vals))?;
        let node = self.tape.as_mut().and_then(|tape| {
            let inputs = vals.iter().filter_map(|v| match v {
                LValue::Tensor(t, node) => Some((t, *node)),
                _ => None,
            });
            tape.record(op, inputs, &out)
        });
        Ok(LValue::Tensor(out, node))
    }
}

/// Evaluated arguments as a tensor op's operands.
struct Args<'a>(&'a [LValue]);

impl Operands for Args<'_> {
    type Error = LanternError;
    fn arity(&self) -> usize {
        self.0.len()
    }
    fn operand(&self, i: usize) -> Result<&Tensor> {
        self.0
            .get(i)
            .ok_or_else(|| LanternError::new("missing operand"))?
            .as_tensor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sexpr::parse;
    use crate::value::Record;

    fn engine(src: &str) -> Engine {
        Engine::new(Program::compile(&parse(src).unwrap()).unwrap())
    }

    #[test]
    fn factorial_recursion() {
        let e = engine(
            "(program (def fact (n) (if (le n 1) 1 (mul n (call fact (sub n 1))))) (call fact (extern n)))",
        );
        let out = e.run(&[("n", Tensor::scalar_f32(6.0))], &[]).unwrap();
        assert_eq!(out.as_tensor().unwrap().scalar_value_f32().unwrap(), 720.0);
    }

    #[test]
    fn tree_prod_recursion() {
        // the paper's §8 example: product of tree values with a base case
        let e = engine(
            "(program \
              (def tree_prod (base tree) \
                (if (attr tree is_empty) base \
                  (mul (mul (call tree_prod base (attr tree left)) \
                            (call tree_prod base (attr tree right))) \
                       (attr tree value)))) \
              (call tree_prod (extern base) (extern tree)))",
        );
        let leaf = LValue::Record(Record::new(vec![("is_empty", LValue::Bool(true))]));
        let node = |l: LValue, r: LValue, v: f32| {
            LValue::Record(Record::new(vec![
                ("is_empty", LValue::Bool(false)),
                ("left", l),
                ("right", r),
                ("value", LValue::scalar(v)),
            ]))
        };
        let tree = node(node(leaf.clone(), leaf.clone(), 2.0), leaf.clone(), 3.0);
        let out = e
            .run_values(&[("base", LValue::scalar(1.0)), ("tree", tree)], &[])
            .unwrap();
        assert_eq!(out.as_tensor().unwrap().scalar_value_f32().unwrap(), 6.0);
    }

    #[test]
    fn let_binding_and_tuples() {
        let e = engine("(program (let x (add 1 2) (get (tuple x (mul x x)) 1)))");
        let out = e.run(&[], &[]).unwrap();
        assert_eq!(out.as_tensor().unwrap().scalar_value_f32().unwrap(), 9.0);
    }

    #[test]
    fn grad_of_square() {
        // loss = (w * x)^2, dw = 2wx^2 = 2*3*4 = 24 at w=3, x=2
        let e = engine("(program (square (mul (param w) (extern x))))");
        let (loss, grads) = e
            .grad(
                &[("x", LValue::scalar(2.0))],
                &[("w", Tensor::scalar_f32(3.0))],
            )
            .unwrap();
        assert_eq!(loss.scalar_value_f32().unwrap(), 36.0);
        assert_eq!(grads[0].scalar_value_f32().unwrap(), 24.0);
    }

    #[test]
    fn grad_through_recursion() {
        // f(n) = w * f(n-1), f(0) = 1  =>  f(3) = w^3, df/dw = 3w^2
        let e = engine(
            "(program \
              (def f (n) (if (le n 0) 1 (mul (param w) (call f (sub n 1))))) \
              (call f (extern n)))",
        );
        let (loss, grads) = e
            .grad(
                &[("n", LValue::scalar(3.0))],
                &[("w", Tensor::scalar_f32(2.0))],
            )
            .unwrap();
        assert_eq!(loss.scalar_value_f32().unwrap(), 8.0);
        assert_eq!(grads[0].scalar_value_f32().unwrap(), 12.0);
    }

    #[test]
    fn grad_matmul_mse() {
        // loss = mean((x@w - y)^2)
        let e = engine(
            "(program (reduce_mean (square (sub (matmul (extern x) (param w)) (extern y)))))",
        );
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let y = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap();
        let w = Tensor::from_vec(vec![0.0, 0.0], &[2, 1]).unwrap();
        let (loss, grads) = e
            .grad(
                &[("x", LValue::tensor(x)), ("y", LValue::tensor(y))],
                &[("w", w)],
            )
            .unwrap();
        assert!((loss.scalar_value_f32().unwrap() - 2.5).abs() < 1e-5);
        // d mean((xw-y)^2)/dw = 2/N * x^T(xw - y) = [-1, -2]
        let g = grads[0].as_f32().unwrap();
        assert!(
            (g[0] + 1.0).abs() < 1e-5 && (g[1] + 2.0).abs() < 1e-5,
            "{g:?}"
        );
    }

    #[test]
    fn grad_concat1() {
        // loss = sum(square(concat1(a, w))) — grad flows only into w
        let e = engine("(program (reduce_sum (square (concat1 (extern a) (param w)))))");
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let w = Tensor::from_vec(vec![3.0], &[1, 1]).unwrap();
        let (loss, grads) = e.grad(&[("a", LValue::tensor(a))], &[("w", w)]).unwrap();
        assert_eq!(loss.scalar_value_f32().unwrap(), 14.0);
        assert_eq!(grads[0].as_f32().unwrap(), &[6.0]);
    }

    #[test]
    fn missing_extern_or_param_errors() {
        let e = engine("(program (add (extern a) (param w)))");
        assert!(e.run(&[], &[("w", Tensor::scalar_f32(1.0))]).is_err());
        assert!(e.run(&[("a", Tensor::scalar_f32(1.0))], &[]).is_err());
    }

    #[test]
    fn grad_unused_param_is_zero() {
        let e = engine("(program (square (extern x)))");
        // `w` never interned -> param_names empty -> grads empty; make a
        // program where the param is reachable but untouched by the loss
        let e2 = engine("(program (let u (param w) (square (extern x))))");
        let (_, grads) = e2
            .grad(
                &[("x", LValue::scalar(2.0))],
                &[("w", Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap())],
            )
            .unwrap();
        assert_eq!(grads[0].as_f32().unwrap(), &[0.0, 0.0]);
        let _ = e;
    }

    #[test]
    fn bool_ops() {
        let e = engine("(program (if (and (lt 1 2) (not (gt 1 2))) 10 20))");
        assert_eq!(
            e.run(&[], &[])
                .unwrap()
                .as_tensor()
                .unwrap()
                .scalar_value_f32()
                .unwrap(),
            10.0
        );
    }

    #[test]
    fn deep_recursion_ok() {
        let e = engine(
            "(program (def f (n acc) (if (le n 0) acc (call f (sub n 1) (add acc 1)))) (call f (extern n) 0))",
        );
        // run on a dedicated thread with a large stack: recursion depth is
        // bounded by stack size, not by the IR (unlike TF graphs, which
        // cannot express this at all)
        let handle = std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn(move || {
                let out = e.run(&[("n", Tensor::scalar_f32(3000.0))], &[]).unwrap();
                out.as_tensor().unwrap().scalar_value_f32().unwrap()
            })
            .unwrap();
        assert_eq!(handle.join().unwrap(), 3000.0);
    }
}
