//! The [`Recorder`] trait and the fan-out implementation.

/// A sink for observability events. Implementations must be cheap and
/// thread-safe: the executor may emit spans from multiple threads.
pub trait Recorder: Send + Sync {
    /// A closed span: `cat/name` ran for `dur_ns`, starting at
    /// `start_ns` on the trace clock ([`crate::now_ns`]).
    fn span(&self, cat: &'static str, name: &str, start_ns: u64, dur_ns: u64);

    /// Bump the counter `cat/name` by `delta`.
    fn count(&self, cat: &'static str, name: &'static str, delta: u64);

    /// One observation of the distribution `cat/name`.
    fn observe(&self, cat: &'static str, name: &str, value: u64);

    /// An instantaneous level sample: `cat/name` is `value` *right now*
    /// (live bytes, queue depth, utilization‰). Unlike [`count`], a
    /// gauge is absolute, not accumulating. The default sink ignores it.
    ///
    /// [`count`]: Recorder::count
    fn gauge(&self, _cat: &'static str, _name: &str, _value: u64) {}
}

/// Forwards every event to each inner recorder.
pub struct FanoutRecorder {
    inner: Vec<std::sync::Arc<dyn Recorder>>,
}

impl FanoutRecorder {
    /// Compose `recorders` into one.
    pub fn new(recorders: Vec<std::sync::Arc<dyn Recorder>>) -> FanoutRecorder {
        FanoutRecorder { inner: recorders }
    }
}

impl Recorder for FanoutRecorder {
    fn span(&self, cat: &'static str, name: &str, start_ns: u64, dur_ns: u64) {
        for r in &self.inner {
            r.span(cat, name, start_ns, dur_ns);
        }
    }

    fn count(&self, cat: &'static str, name: &'static str, delta: u64) {
        for r in &self.inner {
            r.count(cat, name, delta);
        }
    }

    fn observe(&self, cat: &'static str, name: &str, value: u64) {
        for r in &self.inner {
            r.observe(cat, name, value);
        }
    }

    fn gauge(&self, cat: &'static str, name: &str, value: u64) {
        for r in &self.inner {
            r.gauge(cat, name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::AggregateRecorder;
    use std::sync::Arc;

    #[test]
    fn fanout_reaches_all() {
        let a = Arc::new(AggregateRecorder::new());
        let b = Arc::new(AggregateRecorder::new());
        let fan = FanoutRecorder::new(vec![a.clone(), b.clone()]);
        fan.span("c", "s", 0, 10);
        fan.count("c", "n", 3);
        assert_eq!(a.summary().row("c/s").unwrap().count, 1);
        assert_eq!(b.summary().counter("c/n"), Some(3));
    }
}
