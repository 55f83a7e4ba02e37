//! Dynamic batching: when a worker dequeues a job for a batchable
//! function and more same-function jobs are already queued, it stacks
//! their arguments along a fresh leading axis and amortizes one graph
//! run across the whole group.
//!
//! ## Legality
//!
//! Batching is **opportunistic and conservative**:
//!
//! * only functions the operator listed in `--batch-fns` (declared
//!   batch-legal: elementwise in the leading axis), and never stateful
//!   ones;
//! * members must agree on arity, dtypes and full argument shapes (the
//!   stacked run then differs from a member run only in the leading
//!   dim);
//! * after the batched run, every output's leading dim must equal the
//!   batch size — otherwise the result cannot be attributed back to
//!   members, the batch outcome is discarded, every member **falls back
//!   to an individual run**, and the function is marked non-batchable
//!   for the rest of the process (the declared legality was wrong;
//!   see `batch_disabled` in `/stats`).
//!
//! Scalar (rank-0) arguments are stacked into rank-1; rank-n into
//! rank-(n+1). Batched runs execute under the *maximum* member deadline
//! (a member with a tighter budget may get its answer late — admission
//! already vetted each member's budget against one service time, and a
//! batch is cheaper than a solo run, so this is rarely binding) and
//! without a cancel token (one client's disconnect must not cancel the
//! other members' work).

use crate::admission::Job;
use autograph_tensor::Tensor;

/// Whether `candidate`'s arguments can join a batch led by `leader`:
/// same arity, and argument-wise same dtype and shape.
pub(crate) fn compatible(leader: &Job, candidate: &Job) -> bool {
    leader.args.len() == candidate.args.len()
        && leader
            .args
            .iter()
            .zip(candidate.args.iter())
            .all(|(a, b)| a.dtype() == b.dtype() && a.shape() == b.shape())
}

/// Stack the members' `i`-th arguments along a new leading axis.
///
/// # Errors
///
/// Propagates tensor stacking errors (shape/dtype mismatch — prevented
/// by [`compatible`], but the kernel re-checks).
pub(crate) fn stack_args(members: &[Job]) -> Result<Vec<Tensor>, String> {
    let arity = members.first().map(|j| j.args.len()).unwrap_or(0);
    let mut out = Vec::with_capacity(arity);
    for i in 0..arity {
        let parts: Vec<Tensor> = members.iter().map(|j| j.args[i].clone()).collect();
        out.push(Tensor::stack(&parts).map_err(|e| e.to_string())?);
    }
    Ok(out)
}

/// Split a batched run's outputs back into per-member outputs.
///
/// Returns `None` when any output's leading dim does not equal the
/// batch size — the declared batch-legality was wrong and the caller
/// must fall back to individual runs.
pub(crate) fn split_outputs(outputs: &[Tensor], batch: usize) -> Option<Vec<Vec<Tensor>>> {
    for t in outputs {
        let shape = t.shape();
        if shape.first().copied() != Some(batch) {
            return None;
        }
    }
    let mut per_member: Vec<Vec<Tensor>> = (0..batch).map(|_| Vec::new()).collect();
    for t in outputs {
        for (m, slot) in per_member.iter_mut().enumerate() {
            // member m's slice [m, m+1), then drop the leading axis
            let slice = t.slice_axis0(Some(m as i64), Some(m as i64 + 1)).ok()?;
            let inner: Vec<usize> = slice.shape()[1..].to_vec();
            slot.push(slice.reshape(&inner).ok()?);
        }
    }
    Some(per_member)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::error::ServeError;
    use crate::registry::{ModelRegistry, RegistryConfig};
    use autograph_graph::run::CancelToken;
    use std::sync::mpsc::sync_channel;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn job_with(args: Vec<Tensor>) -> Job {
        let reg =
            ModelRegistry::load("def bt(x):\n    return x\n", &RegistryConfig::default()).unwrap();
        let (tx, _rx) = sync_channel::<Result<Vec<Tensor>, ServeError>>(1);
        Job {
            entry: Arc::clone(reg.get("bt").unwrap()),
            args,
            enqueued: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(5),
            cancel: CancelToken::new(),
            resp: tx,
            trace: crate::telemetry::RequestTrace::detached("test"),
        }
    }

    #[test]
    fn compatible_requires_same_shape_and_dtype() {
        let a = job_with(vec![Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap()]);
        let b = job_with(vec![Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap()]);
        let c = job_with(vec![Tensor::from_vec(vec![3.0], &[1]).unwrap()]);
        let d = job_with(vec![Tensor::scalar_i64(3)]);
        assert!(compatible(&a, &b));
        assert!(!compatible(&a, &c), "different shape");
        assert!(!compatible(&a, &d), "different dtype");
    }

    #[test]
    fn stack_then_split_roundtrips_scalars() {
        let members = vec![
            job_with(vec![Tensor::scalar_f32(1.0)]),
            job_with(vec![Tensor::scalar_f32(2.0)]),
            job_with(vec![Tensor::scalar_f32(3.0)]),
        ];
        let stacked = stack_args(&members).unwrap();
        assert_eq!(stacked[0].shape(), &[3]);
        let per = split_outputs(&stacked, 3).unwrap();
        assert_eq!(per.len(), 3);
        for (i, outs) in per.iter().enumerate() {
            assert_eq!(outs[0].scalar_value_f32().unwrap(), (i + 1) as f32);
            assert!(outs[0].shape().is_empty(), "leading axis dropped");
        }
    }

    #[test]
    fn stack_then_split_roundtrips_vectors() {
        let members = vec![
            job_with(vec![Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap()]),
            job_with(vec![Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap()]),
        ];
        let stacked = stack_args(&members).unwrap();
        assert_eq!(stacked[0].shape(), &[2, 2]);
        let per = split_outputs(&stacked, 2).unwrap();
        assert_eq!(per[1][0].shape(), &[2]);
        assert_eq!(per[1][0].as_f32().unwrap(), &[3.0, 4.0]);
    }

    #[test]
    fn split_refuses_wrong_leading_dim() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        assert!(split_outputs(&[t], 2).is_none(), "leading dim 3 ≠ batch 2");
        let scalar = Tensor::scalar_f32(1.0);
        assert!(split_outputs(&[scalar], 2).is_none(), "rank-0 output");
    }
}
