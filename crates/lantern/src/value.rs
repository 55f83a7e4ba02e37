//! Runtime values of the Lantern evaluator.

use crate::{LanternError, Result};
use autograph_tensor::Tensor;
use std::collections::HashMap;
use std::rc::Rc;

/// A record value (e.g. a parse-tree node for TreeLSTM) with named fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Field values by name.
    pub fields: HashMap<String, LValue>,
}

impl Record {
    /// Build a record from field pairs.
    pub fn new(fields: Vec<(&str, LValue)>) -> Rc<Record> {
        Rc::new(Record {
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        })
    }
}

/// A value in the Lantern evaluator. Tensors carry an optional gradient
/// tape node id (None while evaluating forward-only).
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A tensor (possibly tracked for AD).
    Tensor(Tensor, Option<usize>),
    /// A boolean (control decisions).
    Bool(bool),
    /// A record / tree node.
    Record(Rc<Record>),
    /// A tuple of values.
    Tuple(Vec<LValue>),
    /// Absent value (e.g. empty subtree).
    Unit,
}

impl LValue {
    /// Wrap an untracked tensor.
    pub fn tensor(t: Tensor) -> LValue {
        LValue::Tensor(t, None)
    }

    /// Wrap a scalar.
    pub fn scalar(v: f32) -> LValue {
        LValue::Tensor(Tensor::scalar_f32(v), None)
    }

    /// View as tensor.
    ///
    /// # Errors
    ///
    /// Fails when the value is not a tensor.
    pub fn as_tensor(&self) -> Result<&Tensor> {
        match self {
            LValue::Tensor(t, _) => Ok(t),
            other => Err(LanternError::new(format!(
                "expected tensor, got {}",
                other.kind()
            ))),
        }
    }

    /// View as bool.
    ///
    /// # Errors
    ///
    /// Fails when the value is not a boolean (scalar bool tensors are
    /// accepted).
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            LValue::Bool(b) => Ok(*b),
            LValue::Tensor(t, _) => t
                .scalar_value_bool()
                .map_err(|e| LanternError::new(e.to_string())),
            other => Err(LanternError::new(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }

    /// View as record.
    ///
    /// # Errors
    ///
    /// Fails when the value is not a record.
    pub(crate) fn as_record(&self) -> Result<&Rc<Record>> {
        match self {
            LValue::Record(r) => Ok(r),
            other => Err(LanternError::new(format!(
                "expected record, got {}",
                other.kind()
            ))),
        }
    }

    /// Kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            LValue::Tensor(..) => "tensor",
            LValue::Bool(_) => "bool",
            LValue::Record(_) => "record",
            LValue::Tuple(_) => "tuple",
            LValue::Unit => "unit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let v = LValue::scalar(2.0);
        assert_eq!(v.as_tensor().unwrap().scalar_value_f32().unwrap(), 2.0);
        assert!(v.as_bool().is_err());
        assert!(LValue::Bool(true).as_bool().unwrap());
        assert!(LValue::Unit.as_tensor().is_err());
    }

    #[test]
    fn bool_from_tensor() {
        let v = LValue::tensor(Tensor::scalar_bool(true));
        assert!(v.as_bool().unwrap());
    }

    #[test]
    fn record_fields() {
        let r = Record::new(vec![
            ("is_empty", LValue::Bool(false)),
            ("value", LValue::scalar(3.0)),
        ]);
        let v = LValue::Record(r);
        let rec = v.as_record().unwrap();
        assert_eq!(
            rec.fields["value"]
                .as_tensor()
                .unwrap()
                .scalar_value_f32()
                .unwrap(),
            3.0
        );
    }
}
