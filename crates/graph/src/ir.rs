//! The dataflow-graph data structures.

use autograph_pylang::Span;
pub use autograph_tensor::op::Op;
use autograph_tensor::Tensor;

/// Index of a node within its graph.
pub type NodeId = usize;

/// A value flowing along graph edges during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum GValue {
    /// A dense tensor.
    Tensor(Tensor),
    /// A tensor array / staged list (the "low level tensor list" of
    /// Table 5).
    Array(Vec<Tensor>),
    /// A tuple of values (e.g. the state of a `While` loop).
    Tuple(Vec<GValue>),
}

impl GValue {
    /// View as a tensor.
    ///
    /// # Errors
    ///
    /// Returns a runtime [`crate::GraphError`] if the value is not a
    /// tensor.
    pub fn as_tensor(&self) -> crate::Result<&Tensor> {
        match self {
            GValue::Tensor(t) => Ok(t),
            other => Err(crate::GraphError::runtime(format!(
                "expected a tensor, got {}",
                other.kind_name()
            ))),
        }
    }

    /// View as a tensor array.
    ///
    /// # Errors
    ///
    /// Returns a runtime [`crate::GraphError`] if the value is not an
    /// array.
    pub fn as_array(&self) -> crate::Result<&Vec<Tensor>> {
        match self {
            GValue::Array(v) => Ok(v),
            other => Err(crate::GraphError::runtime(format!(
                "expected a tensor array, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Move the value out, leaving an empty tuple behind (the
    /// allocation-free placeholder of a freed register).
    pub(crate) fn take(&mut self) -> GValue {
        std::mem::replace(self, GValue::Tuple(Vec::new()))
    }

    /// Short name of the value kind for error messages.
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            GValue::Tensor(_) => "tensor",
            GValue::Array(_) => "tensor array",
            GValue::Tuple(_) => "tuple",
        }
    }
}

impl From<Tensor> for GValue {
    fn from(t: Tensor) -> Self {
        GValue::Tensor(t)
    }
}

/// A nested graph with an explicit signature, used by functional control
/// flow (`Cond` branch bodies, `While` condition/body).
#[derive(Debug, Clone, PartialEq)]
pub struct SubGraph {
    /// The nested graph; its `Param(i)` nodes receive the i-th argument.
    pub graph: Graph,
    /// Number of parameters the subgraph expects.
    pub num_params: usize,
    /// The nodes whose values the subgraph returns.
    pub outputs: Vec<NodeId>,
}

/// Every operation the graph IR supports.
///
/// Attribute-style configuration (axes, shapes, dtypes) lives in the
/// variant; tensor operands arrive through node inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    // ---- leaves --------------------------------------------------------
    /// Named feed point.
    Placeholder {
        /// Feed name.
        name: String,
    },
    /// Embedded constant.
    Const(Tensor),
    /// Stateful variable, read from the session's variable store.
    Variable {
        /// Variable name (key into the session store).
        name: String,
    },
    /// Subgraph parameter `i`.
    Param(usize),

    // ---- pure tensor ops -------------------------------------------------
    /// A pure tensor op: its kernel, gradient rule and mnemonic are the
    /// [`Op`]'s.
    Tensor(Op),
    /// Fused top-k: returns `Tuple[values, indices]` along the last axis.
    TopK(usize),

    // ---- tensor arrays / staged lists -----------------------------------
    /// New empty array.
    ArrayNew,
    /// Append; inputs `[array, value]`.
    ArrayPush,
    /// Pop; inputs `[array]`; returns `Tuple[array, value]`.
    ArrayPop,
    /// Write at index; inputs `[array, i, value]` (grows as needed).
    ArrayWrite,
    /// Read at index; inputs `[array, i]`.
    ArrayRead,
    /// Stack all elements into one tensor; inputs `[array]`.
    ArrayStack,
    /// Current length as i64 scalar.
    ArraySize,

    // ---- structure -------------------------------------------------------
    /// Pack inputs into a tuple value.
    TupleOp,
    /// Project element `i` of a tuple input.
    TupleGet(usize),
    /// Log the input tensor at execution time (the staged `print`);
    /// passes the value through.
    Print(String),
    /// Staged assertion: fails execution when the (scalar bool) input is
    /// false; passes the value through.
    AssertOp(String),

    // ---- state ------------------------------------------------------------
    /// Write a variable; inputs `[value]`, attribute names the variable.
    /// Returns the written value.
    Assign {
        /// Variable to write.
        name: String,
    },
    /// Evaluate all inputs for effect; returns the last (a `train_op`
    /// grouping node).
    Group,

    // ---- functional control flow ------------------------------------------
    /// `cond(pred, then, else)`; node inputs `[pred, captures...]`, both
    /// branches take the captures as params.
    Cond {
        /// Then-branch subgraph.
        then_g: SubGraph,
        /// Else-branch subgraph.
        else_g: SubGraph,
    },
    /// Functional while loop; node inputs are the initial state, `cond_g`
    /// returns a scalar bool, `body_g` returns the next state. The node's
    /// value is the final state tuple.
    While {
        /// Condition subgraph.
        cond_g: SubGraph,
        /// Body subgraph.
        body_g: SubGraph,
        /// Iteration safety limit (None = unbounded).
        max_iters: Option<u64>,
    },
}

impl From<Op> for OpKind {
    fn from(op: Op) -> Self {
        OpKind::Tensor(op)
    }
}

impl OpKind {
    /// Short mnemonic used in auto-generated node names and dumps.
    pub fn mnemonic(&self) -> &'static str {
        use OpKind::*;
        match self {
            Placeholder { .. } => "placeholder",
            Const(_) => "const",
            Variable { .. } => "variable",
            Param(_) => "param",
            Tensor(op) => op.name(),
            TopK(_) => "top_k",
            ArrayNew => "array_new",
            ArrayPush => "array_push",
            ArrayPop => "array_pop",
            ArrayWrite => "array_write",
            ArrayRead => "array_read",
            ArrayStack => "array_stack",
            ArraySize => "array_size",
            TupleOp => "tuple",
            TupleGet(_) => "tuple_get",
            Print(_) => "print",
            AssertOp(_) => "assert",
            Assign { .. } => "assign",
            Group => "group",
            Cond { .. } => "cond",
            While { .. } => "while",
        }
    }

    /// The pure tensor op, when this is one.
    pub fn tensor(&self) -> Option<&Op> {
        match self {
            OpKind::Tensor(op) => Some(op),
            _ => None,
        }
    }

    /// Pure ops may be constant-folded and deduplicated; stateful or
    /// effectful ops may not.
    pub(crate) fn is_pure(&self) -> bool {
        !matches!(
            self,
            OpKind::Placeholder { .. }
                | OpKind::Variable { .. }
                | OpKind::Param(_)
                | OpKind::Assign { .. }
                | OpKind::Group
                | OpKind::Print(_)
                | OpKind::AssertOp(_)
                | OpKind::Cond { .. }
                | OpKind::While { .. }
        )
    }
}

/// One pre-rewrite node consumed by an optimizer rewrite: its id in the
/// graph the pass read, plus the name/span that stay meaningful after the
/// id is remapped away.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ProvSource {
    /// Node id in the pre-pass graph.
    pub node: NodeId,
    /// The node's staged name.
    pub name: String,
    /// The node's user-source span.
    pub span: Span,
}

/// One optimizer rewrite in a node's provenance chain.
///
/// The recording contract for passes (see DESIGN.md "Provenance"): a pass
/// that rewrites a node in place *appends* a record to that node's chain;
/// a pass that merges node B into node A appends a record to A naming B
/// as a source; a pass that removes a node outright reports it in the
/// run's [`crate::optimize::OptTrace`] instead (the node no longer exists
/// to carry a chain). Chains are ordered oldest-first and must be
/// deterministic for a given input graph (restaging reproduces them
/// bitwise).
#[derive(Debug, Clone, PartialEq)]
pub struct PassRecord {
    /// The pass that performed the rewrite (e.g. `"const_fold"`, `"cse"`).
    pub pass: &'static str,
    /// What the rewrite did (e.g. `"folded-inputs"`,
    /// `"absorbed-duplicate"`).
    pub action: &'static str,
    /// The pre-rewrite nodes the rewrite consumed.
    pub(crate) sources: Vec<ProvSource>,
}

/// A graph node: an operation applied to the values of its inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operation.
    pub op: OpKind,
    /// Producer nodes.
    pub inputs: Vec<NodeId>,
    /// Unique display name (scoped).
    pub name: String,
    /// The user-source location that staged this node (for Appendix B
    /// error rewriting).
    pub span: Span,
    /// Rewrite lineage: one record per optimizer pass that created,
    /// fused, or rewrote this node, oldest first. Empty for nodes that
    /// staged directly and were never rewritten.
    pub prov: Vec<PassRecord>,
}

impl Node {
    /// A node with an empty provenance chain (the normal staging path).
    pub fn staged(op: OpKind, inputs: Vec<NodeId>, name: String, span: Span) -> Node {
        Node {
            op,
            inputs,
            name,
            span,
            prov: Vec::new(),
        }
    }

    /// Render the rewrite lineage compactly, e.g.
    /// `const_fold(folded-inputs: c_1@1:5, c_2@1:9); cse(absorbed-duplicate: tanh_4@3:4)`.
    /// Empty string for never-rewritten nodes.
    pub fn lineage(&self) -> String {
        let mut out = String::new();
        for (i, rec) in self.prov.iter().enumerate() {
            if i > 0 {
                out.push_str("; ");
            }
            out.push_str(rec.pass);
            out.push('(');
            out.push_str(rec.action);
            if !rec.sources.is_empty() {
                out.push_str(": ");
                for (j, s) in rec.sources.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&s.name);
                    out.push('@');
                    out.push_str(&s.span.to_string());
                }
            }
            out.push(')');
        }
        out
    }
}

/// A dataflow graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    /// All nodes, in creation order (inputs always precede users).
    pub nodes: Vec<Node>,
    /// Variables referenced by the graph with their initial values.
    pub variables: Vec<(String, Tensor)>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total node count including nested subgraphs (cost metric for
    /// optimization tests and the ablation bench).
    pub fn deep_len(&self) -> usize {
        let mut n = 0;
        for node in &self.nodes {
            n += 1;
            match &node.op {
                OpKind::Cond { then_g, else_g } => {
                    n += then_g.graph.deep_len() + else_g.graph.deep_len();
                }
                OpKind::While { cond_g, body_g, .. } => {
                    n += cond_g.graph.deep_len() + body_g.graph.deep_len();
                }
                _ => {}
            }
        }
        n
    }

    /// Render as Graphviz dot (top level only). Each node label carries
    /// its staged name, op + originating source span, and — when the
    /// graph has been optimized — its rewrite lineage.
    pub fn to_dot(&self) -> String {
        fn dot_esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut s = String::from("digraph g {\n  rankdir=LR;\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let mut label = format!("{}\\n{} @ {}", dot_esc(&n.name), n.op.mnemonic(), n.span);
            let lineage = n.lineage();
            if !lineage.is_empty() {
                label.push_str("\\n");
                label.push_str(&dot_esc(&lineage));
            }
            s.push_str(&format!("  n{i} [label=\"{label}\"];\n"));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            for inp in &n.inputs {
                s.push_str(&format!("  n{inp} -> n{i};\n"));
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gvalue_accessors() {
        let t = GValue::Tensor(Tensor::scalar_f32(1.0));
        assert!(t.as_tensor().is_ok());
        assert!(t.as_array().is_err());
        let a = GValue::Array(vec![]);
        assert!(a.as_array().is_ok());
        assert_eq!(a.kind_name(), "tensor array");
    }

    #[test]
    fn purity_classification() {
        assert!(OpKind::from(Op::Add).is_pure());
        assert!(OpKind::Const(Tensor::scalar_f32(0.0)).is_pure());
        assert!(!OpKind::Placeholder { name: "x".into() }.is_pure());
        assert!(!OpKind::Assign { name: "w".into() }.is_pure());
        assert!(!OpKind::Print(String::new()).is_pure());
    }

    #[test]
    fn mnemonics_unique_enough() {
        // the flags are attributes, not a new op: fault specs, report
        // rows and error text keep one name
        let tn = OpKind::from(Op::MatMul {
            transpose_a: true,
            transpose_b: false,
        });
        assert_eq!(tn.mnemonic(), "matmul");
        assert_eq!(
            OpKind::While {
                cond_g: empty_sub(),
                body_g: empty_sub(),
                max_iters: None
            }
            .mnemonic(),
            "while"
        );
    }

    fn empty_sub() -> SubGraph {
        SubGraph {
            graph: Graph::new(),
            num_params: 0,
            outputs: vec![],
        }
    }

    #[test]
    fn deep_len_counts_subgraphs() {
        let mut inner = Graph::new();
        inner.nodes.push(Node {
            op: OpKind::Param(0),
            inputs: vec![],
            name: "p".into(),
            span: Span::synthetic(),
            prov: vec![],
        });
        let sub = SubGraph {
            graph: inner,
            num_params: 1,
            outputs: vec![0],
        };
        let mut g = Graph::new();
        g.nodes.push(Node {
            op: OpKind::Cond {
                then_g: sub.clone(),
                else_g: sub,
            },
            inputs: vec![],
            name: "cond".into(),
            span: Span::synthetic(),
            prov: vec![],
        });
        assert_eq!(g.len(), 1);
        assert_eq!(g.deep_len(), 3);
    }

    #[test]
    fn dot_dump() {
        let mut g = Graph::new();
        g.nodes.push(Node {
            op: OpKind::Const(Tensor::scalar_f32(1.0)),
            inputs: vec![],
            name: "c0".into(),
            span: Span::synthetic(),
            prov: vec![],
        });
        assert!(g.to_dot().contains("c0"));
    }
}
