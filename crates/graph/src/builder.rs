//! Ergonomic graph construction with name scopes.

use crate::ir::{Graph, Node, NodeId, Op, OpKind, SubGraph};
use autograph_pylang::Span;
use autograph_tensor::{DType, Tensor};

/// Builds a [`Graph`] incrementally. Node names receive the current scope
/// prefix (the function-wrappers pass pushes a scope per converted
/// function, making staged graphs readable).
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: Graph,
    scopes: Vec<String>,
    counter: u64,
    current_span: Span,
}

impl GraphBuilder {
    /// A fresh, empty builder.
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    /// Set the user-source span stamped on subsequently added nodes
    /// (the staging half of the Appendix B source map).
    pub fn set_span(&mut self, span: Span) {
        self.current_span = span;
    }

    /// Push a name scope (e.g. the converted function's name).
    pub fn push_scope(&mut self, name: &str) {
        self.scopes.push(name.to_string());
    }

    /// Pop the innermost name scope.
    pub fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    /// Add a node and return its id.
    pub fn add(&mut self, op: impl Into<OpKind>, inputs: Vec<NodeId>) -> NodeId {
        let op = op.into();
        self.counter += 1;
        let mut name = String::new();
        for s in &self.scopes {
            name.push_str(s);
            name.push('/');
        }
        name.push_str(op.mnemonic());
        name.push('_');
        name.push_str(&self.counter.to_string());
        self.graph
            .nodes
            .push(Node::staged(op, inputs, name, self.current_span));
        self.graph.nodes.len() - 1
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.graph.nodes.len()
    }

    /// Whether no nodes were added yet.
    pub fn is_empty(&self) -> bool {
        self.graph.nodes.is_empty()
    }

    /// Consume the builder and return the finished graph.
    pub fn finish(self) -> Graph {
        self.graph
    }

    /// Borrow the graph under construction.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    // ---- leaves ------------------------------------------------------------

    /// Named feed point.
    pub fn placeholder(&mut self, name: &str) -> NodeId {
        self.add(
            OpKind::Placeholder {
                name: name.to_string(),
            },
            vec![],
        )
    }

    /// Embedded constant.
    pub fn constant(&mut self, value: Tensor) -> NodeId {
        self.add(OpKind::Const(value), vec![])
    }

    /// Scalar f32 constant.
    pub fn scalar(&mut self, v: f32) -> NodeId {
        self.constant(Tensor::scalar_f32(v))
    }

    /// Stateful variable with an initial value; reads the session store.
    pub fn variable(&mut self, name: &str, init: Tensor) -> NodeId {
        if !self.graph.variables.iter().any(|(n, _)| n == name) {
            self.graph.variables.push((name.to_string(), init));
        }
        self.add(
            OpKind::Variable {
                name: name.to_string(),
            },
            vec![],
        )
    }

    /// Write `value` into variable `name`; returns the written value.
    pub fn assign(&mut self, name: &str, value: NodeId) -> NodeId {
        self.add(
            OpKind::Assign {
                name: name.to_string(),
            },
            vec![value],
        )
    }

    // ---- common binary/unary shorthands -------------------------------------

    /// `a + b`.
    pub fn add_op(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add(Op::Add, vec![a, b])
    }

    /// `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add(Op::Sub, vec![a, b])
    }

    /// `a * b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add(Op::Mul, vec![a, b])
    }

    /// `a / b`.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add(Op::Div, vec![a, b])
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.matmul_t(a, b, false, false)
    }

    /// `op(a) @ op(b)`: each flag transposes the trailing two axes of its
    /// operand, read in place by the kernel.
    pub fn matmul_t(
        &mut self,
        a: NodeId,
        b: NodeId,
        transpose_a: bool,
        transpose_b: bool,
    ) -> NodeId {
        let op = Op::MatMul {
            transpose_a,
            transpose_b,
        };
        self.add(op, vec![a, b])
    }

    /// `tanh(a)`.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        self.add(Op::Tanh, vec![a])
    }

    /// `relu(a)`.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        self.add(Op::Relu, vec![a])
    }

    /// `sigmoid(a)`.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        self.add(Op::Sigmoid, vec![a])
    }

    /// Cast to dtype.
    pub fn cast(&mut self, a: NodeId, dtype: DType) -> NodeId {
        self.add(Op::Cast(dtype), vec![a])
    }

    /// Functional conditional.
    pub fn cond(
        &mut self,
        pred: NodeId,
        captures: Vec<NodeId>,
        then_g: SubGraph,
        else_g: SubGraph,
    ) -> NodeId {
        let mut inputs = vec![pred];
        inputs.extend(captures);
        self.add(OpKind::Cond { then_g, else_g }, inputs)
    }

    /// Functional while loop. Returns the node whose value is the final
    /// state tuple; project with [`GraphBuilder::tuple_get`].
    #[cfg(test)]
    pub(crate) fn while_loop(
        &mut self,
        init: Vec<NodeId>,
        cond_g: SubGraph,
        body_g: SubGraph,
    ) -> NodeId {
        self.add(
            OpKind::While {
                cond_g,
                body_g,
                max_iters: None,
            },
            init,
        )
    }

    /// Project element `i` of a tuple-valued node.
    pub fn tuple_get(&mut self, tuple: NodeId, i: usize) -> NodeId {
        self.add(OpKind::TupleGet(i), vec![tuple])
    }

    /// Group effectful nodes (returns the value of the last input).
    pub fn group(&mut self, deps: Vec<NodeId>) -> NodeId {
        self.add(OpKind::Group, deps)
    }
}

/// Builds a [`SubGraph`] for `cond`/`while` bodies: a nested builder whose
/// parameters are pre-created `Param` nodes.
#[derive(Debug)]
pub struct SubGraphBuilder {
    /// The inner builder; add body nodes through it.
    pub b: GraphBuilder,
    num_params: usize,
}

impl SubGraphBuilder {
    /// Start a subgraph with `num_params` parameters; returns the builder
    /// and the parameter node ids.
    pub fn new(num_params: usize) -> (SubGraphBuilder, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let params: Vec<NodeId> = (0..num_params)
            .map(|i| b.add(OpKind::Param(i), vec![]))
            .collect();
        (SubGraphBuilder { b, num_params }, params)
    }

    /// Finish, declaring the output nodes.
    pub fn finish(self, outputs: Vec<NodeId>) -> SubGraph {
        SubGraph {
            graph: self.b.finish(),
            num_params: self.num_params,
            outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_scoped_and_unique() {
        let mut b = GraphBuilder::new();
        b.push_scope("f");
        let a = b.scalar(1.0);
        let c = b.scalar(2.0);
        b.pop_scope();
        let d = b.add_op(a, c);
        let g = b.finish();
        assert!(g.nodes[a].name.starts_with("f/const_"));
        assert_ne!(g.nodes[a].name, g.nodes[c].name);
        assert!(g.nodes[d].name.starts_with("add_"));
    }

    #[test]
    fn variables_registered_once() {
        let mut b = GraphBuilder::new();
        b.variable("w", Tensor::scalar_f32(0.0));
        b.variable("w", Tensor::scalar_f32(1.0));
        let g = b.finish();
        assert_eq!(g.variables.len(), 1);
        assert_eq!(g.variables[0].1.scalar_value_f32().unwrap(), 0.0);
    }

    #[test]
    fn span_stamped() {
        let mut b = GraphBuilder::new();
        b.set_span(Span::new(7, 3));
        let n = b.scalar(1.0);
        assert_eq!(b.graph().nodes[n].span, Span::new(7, 3));
    }

    #[test]
    fn subgraph_builder_params() {
        let (mut sb, params) = SubGraphBuilder::new(2);
        assert_eq!(params.len(), 2);
        let sum = sb.b.add_op(params[0], params[1]);
        let sub = sb.finish(vec![sum]);
        assert_eq!(sub.num_params, 2);
        assert_eq!(sub.outputs, vec![sum]);
        assert!(matches!(sub.graph.nodes[params[0]].op, OpKind::Param(0)));
    }
}
