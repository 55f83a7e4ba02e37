//! Neural-network activations and losses.

use crate::{Data, Result, Tensor, TensorError};

impl Tensor {
    /// Elementwise hyperbolic tangent.
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors.
    pub fn tanh(&self) -> Result<Tensor> {
        self.map_f32("tanh", f32::tanh)
    }

    /// Elementwise logistic sigmoid.
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors.
    pub fn sigmoid(&self) -> Result<Tensor> {
        self.map_f32("sigmoid", |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Elementwise rectified linear unit.
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors.
    pub fn relu(&self) -> Result<Tensor> {
        self.map_f32("relu", |x| x.max(0.0))
    }

    /// Row-wise softmax over the last axis (numerically stabilized).
    ///
    /// # Errors
    ///
    /// Fails for boolean or rank-0 tensors.
    pub fn softmax(&self) -> Result<Tensor> {
        let Some(&cols) = self.shape().last() else {
            return Err(TensorError::RankMismatch {
                op: "softmax",
                got: 0,
                expected: ">= 1",
            });
        };
        let t = self.cast(crate::DType::F32);
        let v = t.as_f32()?;
        let rows = t.num_elements() / cols.max(1);
        let mut out = vec![0.0f32; v.len()];
        for r in 0..rows {
            let row = &v[r * cols..(r + 1) * cols];
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0;
            for (j, &x) in row.iter().enumerate() {
                let e = (x - m).exp();
                out[r * cols + j] = e;
                z += e;
            }
            for j in 0..cols {
                out[r * cols + j] /= z;
            }
        }
        Ok(Tensor::from_data(Data::F32(out), t.shape()))
    }

    /// Row-wise log-softmax over the last axis.
    ///
    /// # Errors
    ///
    /// Fails for boolean or rank-0 tensors.
    pub fn log_softmax(&self) -> Result<Tensor> {
        let Some(&cols) = self.shape().last() else {
            return Err(TensorError::RankMismatch {
                op: "log_softmax",
                got: 0,
                expected: ">= 1",
            });
        };
        let t = self.cast(crate::DType::F32);
        let v = t.as_f32()?;
        let rows = t.num_elements() / cols.max(1);
        let mut out = vec![0.0f32; v.len()];
        for r in 0..rows {
            let row = &v[r * cols..(r + 1) * cols];
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let z: f32 = row.iter().map(|&x| (x - m).exp()).sum();
            let lz = z.ln() + m;
            for (j, &x) in row.iter().enumerate() {
                out[r * cols + j] = x - lz;
            }
        }
        Ok(Tensor::from_data(Data::F32(out), t.shape()))
    }

    /// Mean softmax cross-entropy between `logits` `[batch, classes]` and
    /// integer `labels` `[batch]`.
    ///
    /// # Errors
    ///
    /// Fails on rank/dtype mismatch or out-of-range labels.
    pub fn softmax_cross_entropy(logits: &Tensor, labels: &Tensor) -> Result<Tensor> {
        if logits.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "softmax_cross_entropy",
                got: logits.rank(),
                expected: "2",
            });
        }
        let lsm = logits.log_softmax()?;
        let v = lsm.as_f32()?;
        let classes = logits.shape()[1];
        let labels = labels.cast(crate::DType::I64);
        let lab = labels.as_i64()?;
        if lab.len() != logits.shape()[0] {
            return Err(TensorError::IncompatibleShapes {
                op: "softmax_cross_entropy",
                detail: format!("logits {:?} vs labels {:?}", logits.shape(), labels.shape()),
            });
        }
        let mut total = 0.0f32;
        for (r, &l) in lab.iter().enumerate() {
            if l < 0 || l as usize >= classes {
                return Err(TensorError::IndexOutOfRange {
                    op: "softmax_cross_entropy",
                    index: l,
                    bound: classes,
                });
            }
            total -= v[r * classes + l as usize];
        }
        Ok(Tensor::scalar_f32(total / lab.len() as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activations() {
        let a = Tensor::from_vec(vec![-1.0, 0.0, 1.0], &[3]).unwrap();
        let r = a.relu().unwrap();
        assert_eq!(r.as_f32().unwrap(), &[0.0, 0.0, 1.0]);
        let s = a.sigmoid().unwrap();
        assert!((s.as_f32().unwrap()[1] - 0.5).abs() < 1e-6);
        let t = a.tanh().unwrap();
        assert!((t.as_f32().unwrap()[2] - 1.0f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]).unwrap();
        let s = a.softmax().unwrap();
        let v = s.as_f32().unwrap();
        let r0: f32 = v[..3].iter().sum();
        let r1: f32 = v[3..].iter().sum();
        assert!((r0 - 1.0).abs() < 1e-5 && (r1 - 1.0).abs() < 1e-5);
        assert!((v[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_numerically_stable() {
        let a = Tensor::from_vec(vec![1000.0, 1001.0], &[2]).unwrap();
        let s = a.softmax().unwrap();
        assert!(s.as_f32().unwrap().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let a = Tensor::from_vec(vec![0.5, -0.5, 2.0], &[1, 3]).unwrap();
        let ls = a.log_softmax().unwrap();
        let s = a.softmax().unwrap().log().unwrap();
        for (x, y) in ls.as_f32().unwrap().iter().zip(s.as_f32().unwrap()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_uniform() {
        let logits = Tensor::zeros(crate::DType::F32, &[2, 4]);
        let labels = Tensor::from_vec_i64(vec![0, 3], &[2]).unwrap();
        let l = Tensor::softmax_cross_entropy(&logits, &labels).unwrap();
        assert!((l.scalar_value_f32().unwrap() - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_errors() {
        let logits = Tensor::zeros(crate::DType::F32, &[2, 4]);
        let bad = Tensor::from_vec_i64(vec![0, 9], &[2]).unwrap();
        assert!(Tensor::softmax_cross_entropy(&logits, &bad).is_err());
        let wrong_len = Tensor::from_vec_i64(vec![0], &[1]).unwrap();
        assert!(Tensor::softmax_cross_entropy(&logits, &wrong_len).is_err());
        let v = Tensor::zeros(crate::DType::F32, &[4]);
        assert!(Tensor::softmax_cross_entropy(&v, &bad).is_err());
    }
}
