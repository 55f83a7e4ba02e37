//! Lexical environments.
//!
//! PyLite uses *lenient* lexical scoping: reads search the scope chain
//! outward; assignments always bind in the innermost scope. This differs
//! from CPython (which would raise `UnboundLocalError` when a name is read
//! before a local assignment) and matches what AutoGraph's generated
//! branch functions need: they read the enclosing function's variables and
//! shadow them on assignment. Real AutoGraph achieves the same effect by
//! renaming (`x_1 = x` in Listing 1); the semantics of converted code are
//! identical. The deviation is documented in DESIGN.md.

use crate::value::Value;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A scope in the environment chain.
#[derive(Debug, Default)]
pub(crate) struct EnvData {
    vars: HashMap<String, Value>,
    parent: Option<Env>,
}

/// Shared handle to a scope.
#[derive(Debug, Clone, Default)]
pub struct Env(Rc<RefCell<EnvData>>);

impl Env {
    /// A fresh root scope.
    pub fn new() -> Env {
        Env::default()
    }

    /// A child scope of `self`.
    pub fn child(&self) -> Env {
        Env(Rc::new(RefCell::new(EnvData {
            vars: HashMap::new(),
            parent: Some(self.clone()),
        })))
    }

    /// Read a name, searching outward.
    pub fn get(&self, name: &str) -> Option<Value> {
        let data = self.0.borrow();
        match data.vars.get(name) {
            Some(v) => Some(v.clone()),
            None => data.parent.as_ref().and_then(|p| p.get(name)),
        }
    }

    /// Bind a name in this scope.
    pub fn set(&self, name: &str, value: Value) {
        self.0.borrow_mut().vars.insert(name.to_string(), value);
    }

    /// Remove a name from this scope (for `del`). Returns whether it was
    /// present here.
    pub fn remove(&self, name: &str) -> bool {
        self.0.borrow_mut().vars.remove(name).is_some()
    }

    /// Whether the name is bound anywhere in the chain.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadowing_and_fallthrough() {
        let root = Env::new();
        root.set("x", Value::Int(1));
        let inner = root.child();
        assert_eq!(inner.get("x").unwrap().as_int().unwrap(), 1);
        inner.set("x", Value::Int(2));
        assert_eq!(inner.get("x").unwrap().as_int().unwrap(), 2);
        // outer unchanged
        assert_eq!(root.get("x").unwrap().as_int().unwrap(), 1);
    }

    #[test]
    fn missing_name() {
        let env = Env::new();
        assert!(env.get("nope").is_none());
        assert!(!env.contains("nope"));
    }

    #[test]
    fn remove_only_local() {
        let root = Env::new();
        root.set("x", Value::Int(1));
        let inner = root.child();
        assert!(!inner.remove("x"));
        assert!(inner.contains("x"));
        assert!(root.remove("x"));
        assert!(!inner.contains("x"));
    }
}
