//! Staging backends and the capture machinery for nested subgraphs.

use crate::{Result, RuntimeError};
use autograph_graph::builder::GraphBuilder;
use autograph_graph::ir::{NodeId, OpKind, SubGraph};
use autograph_lantern::sexpr::SExpr;
use std::collections::HashMap;

/// One graph-builder layer. The root layer builds the final graph;
/// `cond`/`while` bodies stage in nested layers whose references to outer
/// nodes become `Param` captures.
#[derive(Debug)]
pub(crate) struct GraphLayer {
    /// Unique identity of this layer (stamped into `Value::GraphNode`).
    pub epoch: u64,
    /// The builder for this layer's nodes.
    pub builder: GraphBuilder,
    /// Number of pre-declared state params (loop state), before captures.
    pub state_params: usize,
    /// Outer references captured so far, in param order after the state
    /// params. Entries are `(outer_epoch, outer_node)`.
    pub captures: Vec<(u64, NodeId)>,
    capture_map: HashMap<(u64, NodeId), NodeId>,
}

impl GraphLayer {
    fn new(epoch: u64, builder: GraphBuilder, state_params: usize) -> GraphLayer {
        GraphLayer {
            epoch,
            builder,
            state_params,
            captures: Vec::new(),
            capture_map: HashMap::new(),
        }
    }

    /// This layer's `Param` for the outer reference `outer`, added after
    /// the state params and earlier captures on first use.
    fn capture(&mut self, outer: (u64, NodeId)) -> NodeId {
        if let Some(&p) = self.capture_map.get(&outer) {
            return p;
        }
        let idx = self.state_params + self.captures.len();
        let p = self.builder.add(OpKind::Param(idx), vec![]);
        self.captures.push(outer);
        self.capture_map.insert(outer, p);
        p
    }
}

/// The graph staging context: the root builder plus a stack of nested
/// layers.
#[derive(Debug)]
pub(crate) struct GraphStage {
    root: GraphLayer,
    nested: Vec<GraphLayer>,
    next_epoch: u64,
}

impl GraphStage {
    /// Start staging with a fresh root builder.
    pub fn new() -> GraphStage {
        GraphStage {
            root: GraphLayer::new(1, GraphBuilder::new(), 0),
            nested: Vec::new(),
            next_epoch: 2,
        }
    }

    /// The innermost layer.
    pub fn top(&mut self) -> &mut GraphLayer {
        self.nested.last_mut().unwrap_or(&mut self.root)
    }

    /// Push a name scope on the innermost layer's builder (readable node
    /// names per converted function, §7.2 Function Wrappers).
    pub fn push_scope(&mut self, name: &str) {
        self.top().builder.push_scope(name);
    }

    /// Pop the innermost layer's name scope.
    pub fn pop_scope(&mut self) {
        self.top().builder.pop_scope();
    }

    /// The innermost layer's epoch.
    pub(crate) fn top_epoch(&self) -> u64 {
        self.nested.last().unwrap_or(&self.root).epoch
    }

    /// Add a node in the innermost layer.
    pub fn add(&mut self, op: OpKind, inputs: Vec<NodeId>) -> (u64, NodeId) {
        let layer = self.top();
        let id = layer.builder.add(op, inputs);
        (layer.epoch, id)
    }

    /// Push a nested layer with `state_params` pre-declared params.
    /// Returns the param node references (epoch, id).
    pub(crate) fn push_layer(&mut self, state_params: usize) -> Vec<(u64, NodeId)> {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let mut builder = GraphBuilder::new();
        let params: Vec<(u64, NodeId)> = (0..state_params)
            .map(|i| (epoch, builder.add(OpKind::Param(i), vec![])))
            .collect();
        self.nested
            .push(GraphLayer::new(epoch, builder, state_params));
        params
    }

    /// Push a nested layer pre-seeded with the capture list of a sibling
    /// layer (so a `cond`'s two branches agree on param indices).
    pub(crate) fn push_layer_with_captures(
        &mut self,
        state_params: usize,
        seeded: &[(u64, NodeId)],
    ) -> Vec<(u64, NodeId)> {
        let params = self.push_layer(state_params);
        let layer = self.top();
        for outer in seeded {
            layer.capture(*outer);
        }
        params
    }

    /// Node ids of the innermost layer's capture params, in capture order
    /// (used to pass loop-invariant captures through a `While` body).
    pub(crate) fn capture_param_nodes(&mut self) -> Vec<NodeId> {
        let layer = self.top();
        layer
            .captures
            .iter()
            .filter_map(|outer| layer.capture_map.get(outer).copied())
            .collect()
    }

    /// Pop the innermost layer, returning its subgraph (with
    /// `num_params = state_params + captures`) and the outer references it
    /// captured.
    ///
    /// # Errors
    ///
    /// Fails when only the root layer is open.
    pub(crate) fn pop_layer(
        &mut self,
        outputs: Vec<NodeId>,
    ) -> Result<(SubGraph, Vec<(u64, NodeId)>)> {
        let layer = self
            .nested
            .pop()
            .ok_or_else(|| RuntimeError::new("no nested staging layer to close"))?;
        let num_params = layer.state_params + layer.captures.len();
        Ok((
            SubGraph {
                graph: layer.builder.finish(),
                num_params,
                outputs,
            },
            layer.captures,
        ))
    }

    /// Resolve a node reference `(epoch, id)` into the innermost layer,
    /// inserting `Param` captures through every intermediate layer.
    ///
    /// # Errors
    ///
    /// Fails when the epoch does not belong to any live layer (a staged
    /// value escaped its staging context).
    pub(crate) fn resolve(&mut self, epoch: u64, id: NodeId) -> Result<NodeId> {
        if self.top_epoch() == epoch {
            return Ok(id);
        }
        // every nested layer inside the owner captures the reference
        let inside = if self.root.epoch == epoch {
            0
        } else {
            1 + self
                .nested
                .iter()
                .position(|l| l.epoch == epoch)
                .ok_or_else(|| {
                    RuntimeError::new(
                        "a staged tensor escaped its staging context (it belongs to a \
                         graph that is no longer being built)",
                    )
                })?
        };
        let mut cur = (epoch, id);
        for layer in &mut self.nested[inside..] {
            cur = (layer.epoch, layer.capture(cur));
        }
        Ok(cur.1)
    }

    /// Finish staging: consume the root layer's builder.
    ///
    /// # Errors
    ///
    /// Fails if nested layers are still open (an operator bug).
    pub fn finish(self) -> Result<autograph_graph::Graph> {
        if !self.nested.is_empty() {
            return Err(RuntimeError::new("unbalanced staging layers"));
        }
        Ok(self.root.builder.finish())
    }
}

impl Default for GraphStage {
    fn default() -> Self {
        GraphStage::new()
    }
}

/// The Lantern staging context: staged function definitions plus
/// let-binding frames (assignments during staging become `(let ...)`
/// forms so shared subexpressions are computed once).
#[derive(Debug, Default)]
pub(crate) struct LanternStage {
    /// Completed `(def name (params) body)` forms.
    pub defs: Vec<SExpr>,
    /// Function identity (Rc pointer) → staged name; present while staging
    /// too, which is what lets recursive calls emit `(call f ...)` instead
    /// of unrolling (§8 Staging Functions and Recursion).
    pub staged: HashMap<usize, String>,
    binding_frames: Vec<Vec<(String, SExpr)>>,
    counter: u64,
}

impl LanternStage {
    /// Fresh staging context.
    pub fn new() -> LanternStage {
        LanternStage::default()
    }

    /// Generate a unique symbol with a prefix.
    pub fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}_{}", self.counter)
    }

    /// Open a let-binding frame (entering a staged function body or a
    /// staged `if` branch).
    pub(crate) fn push_frame(&mut self) {
        self.binding_frames.push(Vec::new());
    }

    /// Record a let binding in the current frame.
    pub fn bind(&mut self, name: String, value: SExpr) {
        if let Some(frame) = self.binding_frames.last_mut() {
            frame.push((name, value));
        }
    }

    /// Whether a binding frame is open (i.e. we are staging a body).
    pub(crate) fn in_frame(&self) -> bool {
        !self.binding_frames.is_empty()
    }

    /// Close the current frame, wrapping `body` in its bindings
    /// (innermost binding closest to the body).
    pub(crate) fn pop_frame(&mut self, body: SExpr) -> SExpr {
        let frame = self.binding_frames.pop().unwrap_or_default();
        let mut out = body;
        for (name, value) in frame.into_iter().rev() {
            out = SExpr::list(vec![SExpr::sym("let"), SExpr::sym(name), value, out]);
        }
        out
    }

    /// Assemble the final `(program ...)` S-expression.
    pub fn program(&self, main: SExpr) -> SExpr {
        let mut items = vec![SExpr::sym("program")];
        items.extend(self.defs.iter().cloned());
        items.push(main);
        SExpr::list(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_tensor::Tensor;

    #[test]
    fn resolve_same_layer_is_identity() {
        let mut s = GraphStage::new();
        let (e, id) = s.add(OpKind::Const(Tensor::scalar_f32(1.0)), vec![]);
        assert_eq!(s.resolve(e, id).unwrap(), id);
    }

    #[test]
    fn resolve_captures_through_layers() {
        let mut s = GraphStage::new();
        let (e0, c) = s.add(OpKind::Const(Tensor::scalar_f32(1.0)), vec![]);
        let params = s.push_layer(1);
        assert_eq!(params.len(), 1);
        // resolving the outer const creates Param(1) (after the state param)
        let inner = s.resolve(e0, c).unwrap();
        let again = s.resolve(e0, c).unwrap();
        assert_eq!(inner, again, "capture deduplicated");
        let (sub, caps) = s.pop_layer(vec![inner]).unwrap();
        assert_eq!(sub.num_params, 2);
        assert_eq!(caps, vec![(e0, c)]);
    }

    #[test]
    fn resolve_through_two_layers() {
        let mut s = GraphStage::new();
        let (e0, c) = s.add(OpKind::Const(Tensor::scalar_f32(1.0)), vec![]);
        s.push_layer(0);
        s.push_layer(0);
        let innermost = s.resolve(e0, c).unwrap();
        let (sub2, caps2) = s.pop_layer(vec![innermost]).unwrap();
        assert_eq!(sub2.num_params, 1);
        // the middle layer also captured it
        let (sub1, caps1) = s.pop_layer(vec![]).unwrap();
        assert_eq!(sub1.num_params, 1);
        assert_eq!(caps1, vec![(e0, c)]);
        // caps2 refers to the middle layer's param node
        assert_eq!(caps2.len(), 1);
        assert_ne!(caps2[0].0, e0);
    }

    #[test]
    fn escaped_node_rejected() {
        let mut s = GraphStage::new();
        s.push_layer(0);
        let (einner, id) = s.add(OpKind::Const(Tensor::scalar_f32(1.0)), vec![]);
        s.pop_layer(vec![id]).unwrap();
        assert!(s.resolve(einner, id).is_err());
    }

    #[test]
    fn seeded_captures_align() {
        let mut s = GraphStage::new();
        let (e0, a) = s.add(OpKind::Const(Tensor::scalar_f32(1.0)), vec![]);
        let (_, b) = s.add(OpKind::Const(Tensor::scalar_f32(2.0)), vec![]);
        // then-branch captures a
        s.push_layer(0);
        let ia = s.resolve(e0, a).unwrap();
        let (_then, caps) = s.pop_layer(vec![ia]).unwrap();
        // else-branch pre-seeded with then's captures; captures b afterwards
        s.push_layer_with_captures(0, &caps);
        let ia2 = s.resolve(e0, a).unwrap();
        let ib = s.resolve(e0, b).unwrap();
        let (else_g, caps2) = s.pop_layer(vec![ia2, ib]).unwrap();
        assert_eq!(caps2, vec![(e0, a), (e0, b)]);
        assert_eq!(else_g.num_params, 2);
    }

    #[test]
    fn lantern_let_frames() {
        let mut l = LanternStage::new();
        l.push_frame();
        l.bind("t_1".into(), SExpr::sym("x"));
        l.bind("t_2".into(), SExpr::sym("y"));
        let body = l.pop_frame(SExpr::sym("t_2"));
        assert_eq!(body.to_string(), "(let t_1 x (let t_2 y t_2))");
        assert!(!l.in_frame());
    }

    #[test]
    fn lantern_program_assembly() {
        let mut l = LanternStage::new();
        l.defs.push(SExpr::list(vec![
            SExpr::sym("def"),
            SExpr::sym("f"),
            SExpr::list(vec![SExpr::sym("x")]),
            SExpr::sym("x"),
        ]));
        let p = l.program(SExpr::list(vec![
            SExpr::sym("call"),
            SExpr::sym("f"),
            SExpr::Num(1.0),
        ]));
        assert_eq!(p.to_string(), "(program (def f (x) x) (call f 1))");
    }
}
