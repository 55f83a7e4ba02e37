//! Admission control: the bounded queue between connection threads and
//! executor workers, and the shed policy that keeps the server's latency
//! bounded under overload.
//!
//! ## Shed math
//!
//! Let `q` be the queue depth at arrival, `s` the EWMA service time of
//! the requested function, and `w` the number of workers. A new request
//! can expect to wait about `q·s/w` before a worker picks it up, then
//! run for about `s`. Admission refuses the request — **before** it
//! consumes queue space — when:
//!
//! * the queue is at capacity (`q ≥ max_depth`), or
//! * the request carries a deadline and `now + q·s/w + s` lands past
//!   it (`predicted_late`): the work would be wasted, so refuse now
//!   while the client can still retry elsewhere.
//!
//! Shed responses are `503` with `Retry-After` set from the predicted
//! drain time, so well-behaved clients back off proportionally to the
//! actual overload. Workers additionally drop requests whose deadline
//! expired *while queued* (`expired_in_queue`) — prediction is an
//! estimate; the deadline check at dequeue is exact.

use crate::error::ServeError;
use crate::registry::FnEntry;
use crate::telemetry::RequestTrace;
use autograph_graph::run::CancelToken;
use autograph_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One admitted request waiting for (or being handed to) a worker.
pub(crate) struct Job {
    /// The staged function to run.
    pub entry: Arc<FnEntry>,
    /// Decoded positional arguments.
    pub args: Vec<Tensor>,
    /// When the job entered the queue.
    pub enqueued: Instant,
    /// Absolute deadline (from `X-Deadline-Ms`, else the server default).
    pub deadline: Instant,
    /// Cancelled when the client disconnects.
    pub cancel: CancelToken,
    /// Where the worker sends the outcome; the connection thread blocks
    /// on the other end.
    pub resp: SyncSender<Result<Vec<Tensor>, ServeError>>,
    /// The request's trace context (id + sampled span collection).
    pub trace: Arc<RequestTrace>,
}

impl Job {
    /// Deadline budget left right now (zero when already expired).
    pub fn remaining(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now())
    }
}

/// Running shed/admission counters (monotonic; exported via `/stats`).
#[derive(Default)]
pub(crate) struct AdmissionStats {
    /// Requests admitted into the queue.
    pub admitted: AtomicU64,
    /// Requests refused because the queue was full.
    pub shed_queue_full: AtomicU64,
    /// Requests refused because the predicted wait blew the deadline.
    pub shed_predicted_late: AtomicU64,
    /// Requests dropped at dequeue because the deadline had already
    /// expired while queued.
    pub expired_in_queue: AtomicU64,
    /// Requests refused because the server is draining.
    pub rejected_draining: AtomicU64,
}

struct Inner {
    queue: VecDeque<Job>,
    draining: bool,
}

/// The bounded admission queue.
pub struct AdmissionQueue {
    inner: Mutex<Inner>,
    nonempty: Condvar,
    max_depth: usize,
    workers: usize,
    /// Counters, shared with `/stats`.
    pub stats: AdmissionStats,
}

impl AdmissionQueue {
    /// A queue holding at most `max_depth` jobs, drained by `workers`
    /// executor threads (the worker count parameterizes the wait
    /// prediction, it does not spawn anything).
    pub fn new(max_depth: usize, workers: usize) -> AdmissionQueue {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                draining: false,
            }),
            nonempty: Condvar::new(),
            max_depth: max_depth.max(1),
            workers: workers.max(1),
            stats: AdmissionStats::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admit `job` or shed it. On `Err` the job's response channel is
    /// given the error; the caller only has to write the HTTP response.
    pub fn try_admit(&self, job: Job) -> Result<(), ServeError> {
        if let Err(fault) = autograph_faults::inject("serve", "admission") {
            autograph_obs::count("serve", "fault_admission", 1);
            return Err(ServeError::Shed {
                reason: format!("injected fault: {fault}"),
                retry_after_ms: 10,
            });
        }
        let mut inner = self.lock();
        if inner.draining {
            self.stats.rejected_draining.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Draining);
        }
        let q = inner.queue.len();
        if q >= self.max_depth {
            self.stats.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            autograph_obs::count("serve", "shed_queue_full", 1);
            return Err(ServeError::Shed {
                reason: "queue_full".to_string(),
                retry_after_ms: self.predicted_drain_ms(&job, q),
            });
        }
        let service_ns = job.entry.ewma_service_ns.load(Ordering::Relaxed);
        if service_ns > 0 {
            // wait ≈ q·s/w, then the run itself takes ≈ s
            let predicted_ns =
                (q as u64).saturating_mul(service_ns) / self.workers as u64 + service_ns;
            if Duration::from_nanos(predicted_ns) > job.remaining() {
                self.stats
                    .shed_predicted_late
                    .fetch_add(1, Ordering::Relaxed);
                autograph_obs::count("serve", "shed_predicted_late", 1);
                return Err(ServeError::Shed {
                    reason: "predicted_late".to_string(),
                    retry_after_ms: self.predicted_drain_ms(&job, q),
                });
            }
        }
        self.stats.admitted.fetch_add(1, Ordering::Relaxed);
        autograph_obs::count("serve", "admitted", 1);
        autograph_obs::observe("serve", "queue_depth", (q + 1) as u64);
        inner.queue.push_back(job);
        drop(inner);
        self.nonempty.notify_one();
        Ok(())
    }

    /// `Retry-After` hint: about how long until the current queue drains.
    fn predicted_drain_ms(&self, job: &Job, q: usize) -> u64 {
        let service_ns = job.entry.ewma_service_ns.load(Ordering::Relaxed).max(1);
        let drain_ns = (q as u64).saturating_mul(service_ns) / self.workers as u64;
        (drain_ns / 1_000_000).max(1)
    }

    /// Block until a job is available. Returns `None` when the queue is
    /// draining and empty — the worker's signal to exit. Jobs whose
    /// deadline expired in the queue are answered 504 here and skipped.
    pub fn pop(&self) -> Option<Job> {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.queue.pop_front() {
                if job.remaining() == Duration::ZERO && !job.cancel.is_cancelled() {
                    self.stats.expired_in_queue.fetch_add(1, Ordering::Relaxed);
                    autograph_obs::count("serve", "expired_in_queue", 1);
                    let waited = job.enqueued.elapsed();
                    let _ = job.resp.try_send(Err(ServeError::Shed {
                        reason: format!("expired_in_queue after {}ms", waited.as_millis()),
                        retry_after_ms: 50,
                    }));
                    continue;
                }
                return Some(job);
            }
            if inner.draining {
                return None;
            }
            inner = self
                .nonempty
                .wait_timeout(inner, Duration::from_millis(50))
                .map(|(g, _)| g)
                .unwrap_or_else(|p| p.into_inner().0);
        }
    }

    /// Pull up to `limit` additional queued jobs for the same function
    /// that are compatible with `probe` under the given predicate —
    /// the batcher's harvesting step. Jobs that fail the predicate stay
    /// queued in order.
    pub(crate) fn take_compatible(
        &self,
        probe: &Job,
        limit: usize,
        compatible: impl Fn(&Job) -> bool,
    ) -> Vec<Job> {
        let mut inner = self.lock();
        let mut taken = Vec::new();
        let mut i = 0;
        while i < inner.queue.len() && taken.len() < limit {
            let candidate = &inner.queue[i];
            if Arc::ptr_eq(&candidate.entry, &probe.entry)
                && candidate.remaining() > Duration::ZERO
                && !candidate.cancel.is_cancelled()
                && compatible(candidate)
            {
                if let Some(job) = inner.queue.remove(i) {
                    taken.push(job);
                    continue; // index i now holds the next element
                }
            }
            i += 1;
        }
        taken
    }

    /// Flip to draining: admission refuses new work, workers exit once
    /// the queue empties.
    pub(crate) fn start_drain(&self) {
        self.lock().draining = true;
        self.nonempty.notify_all();
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::registry::{ModelRegistry, RegistryConfig};
    use std::sync::mpsc::sync_channel;

    fn test_entry() -> Arc<FnEntry> {
        let reg =
            ModelRegistry::load("def idq(x):\n    return x\n", &RegistryConfig::default()).unwrap();
        Arc::clone(reg.get("idq").unwrap())
    }

    fn job(entry: &Arc<FnEntry>, deadline: Duration) -> Job {
        let (tx, _rx) = sync_channel(1);
        Job {
            entry: Arc::clone(entry),
            args: vec![Tensor::scalar_f32(1.0)],
            enqueued: Instant::now(),
            deadline: Instant::now() + deadline,
            cancel: CancelToken::new(),
            resp: tx,
            trace: RequestTrace::detached("test"),
        }
    }

    #[test]
    fn admits_until_full_then_sheds() {
        let entry = test_entry();
        let q = AdmissionQueue::new(2, 1);
        assert!(q.try_admit(job(&entry, Duration::from_secs(5))).is_ok());
        assert!(q.try_admit(job(&entry, Duration::from_secs(5))).is_ok());
        match q.try_admit(job(&entry, Duration::from_secs(5))) {
            Err(ServeError::Shed { reason, .. }) => assert_eq!(reason, "queue_full"),
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(q.stats.shed_queue_full.load(Ordering::Relaxed), 1);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn sheds_predicted_late_requests() {
        let entry = test_entry();
        entry.record_service_ns(50_000_000); // 50ms per run
        let q = AdmissionQueue::new(64, 1);
        for _ in 0..4 {
            assert!(q.try_admit(job(&entry, Duration::from_secs(5))).is_ok());
        }
        // 4 queued × 50ms + 50ms run ≫ 10ms budget
        match q.try_admit(job(&entry, Duration::from_millis(10))) {
            Err(ServeError::Shed { reason, .. }) => assert_eq!(reason, "predicted_late"),
            other => panic!("expected shed, got {other:?}"),
        }
        // a patient client still gets in
        assert!(q.try_admit(job(&entry, Duration::from_secs(5))).is_ok());
    }

    #[test]
    fn expired_jobs_are_answered_and_skipped_at_dequeue() {
        let entry = test_entry();
        let q = AdmissionQueue::new(8, 1);
        let (tx, rx) = sync_channel(1);
        let expired = Job {
            entry: Arc::clone(&entry),
            args: vec![],
            enqueued: Instant::now(),
            deadline: Instant::now() - Duration::from_millis(1),
            cancel: CancelToken::new(),
            resp: tx,
            trace: RequestTrace::detached("expired"),
        };
        q.lock().queue.push_back(expired);
        assert!(q.try_admit(job(&entry, Duration::from_secs(5))).is_ok());
        let live = q.pop().expect("live job");
        assert!(live.remaining() > Duration::ZERO);
        match rx.try_recv().unwrap() {
            Err(ServeError::Shed { reason, .. }) => {
                assert!(reason.starts_with("expired_in_queue"), "{reason}")
            }
            other => panic!("expected expired shed, got {other:?}"),
        }
    }

    #[test]
    fn drain_refuses_new_work_and_wakes_idle_workers() {
        let entry = test_entry();
        let q = Arc::new(AdmissionQueue::new(8, 1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.start_drain();
        assert!(waiter.join().unwrap().is_none(), "drain wakes idle pop");
        assert!(matches!(
            q.try_admit(job(&entry, Duration::from_secs(5))),
            Err(ServeError::Draining)
        ));
        assert_eq!(q.stats.rejected_draining.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn take_compatible_harvests_same_entry_jobs_in_order() {
        let entry = test_entry();
        let other_reg = ModelRegistry::load(
            "def other(x):\n    return x + 1.0\n",
            &RegistryConfig::default(),
        )
        .unwrap();
        let other = Arc::clone(other_reg.get("other").unwrap());
        let q = AdmissionQueue::new(16, 1);
        q.try_admit(job(&entry, Duration::from_secs(5))).unwrap();
        q.try_admit(job(&other, Duration::from_secs(5))).unwrap();
        q.try_admit(job(&entry, Duration::from_secs(5))).unwrap();
        let probe = q.pop().unwrap();
        let taken = q.take_compatible(&probe, 8, |_| true);
        assert_eq!(taken.len(), 1, "only the same-entry job is harvested");
        assert!(Arc::ptr_eq(&taken[0].entry, &entry));
        assert_eq!(q.depth(), 1, "the other-entry job stays queued");
    }
}
