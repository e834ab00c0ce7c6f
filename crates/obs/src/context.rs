//! [`Obs`]: the one observer context the instrumented layers take.
//!
//! Every instrumented layer — the AEP scan, the slot selectors, CSA, the
//! search strategies, the batch scheduler, the rolling simulation —
//! exposes one `*_observed` entry point taking `&mut Obs` plus its plain
//! wrapper(s), which pass [`Obs::dark`]. The context bundles the three
//! telemetry sinks; the durability journal stays out of it, because a
//! journal is a record recovery replays, not telemetry, and the layers
//! that write one take it as an explicit `&mut J` parameter.
//!
//! The sinks are trait objects so the context is one concrete type and
//! `SlotSelector` stays object-safe. Hot loops never dispatch through
//! them: each scan checks [`Recorder::enabled`] once and then runs a body
//! monomorphised over either the lit recorder or [`NoopRecorder`].

use crate::metrics::{Metrics, NoopMetrics};
use crate::recorder::{NoopRecorder, Recorder};
use crate::span::{NoopSpanSink, SpanSink};

/// The recorder, metrics sink and span sink one instrumented call reports
/// to.
///
/// # Examples
///
/// ```
/// use slotsel_obs::{MemoryRecorder, MemorySpanSink, MetricsRegistry, Obs};
///
/// let mut recorder = MemoryRecorder::new();
/// let registry = MetricsRegistry::new();
/// let mut spans = MemorySpanSink::new();
/// let obs = Obs::new(&mut recorder, &registry, &mut spans);
/// assert!(obs.recorder.enabled() && obs.metrics.enabled() && obs.spans.enabled());
///
/// let dark = Obs::dark();
/// assert!(!dark.recorder.enabled() && !dark.metrics.enabled() && !dark.spans.enabled());
/// ```
pub struct Obs<'a> {
    /// Typed trace events and the count/sample/timing channels.
    pub recorder: &'a mut dyn Recorder,
    /// Live counters, gauges and histograms.
    pub metrics: &'a dyn Metrics,
    /// Hierarchical spans.
    pub spans: &'a mut dyn SpanSink,
}

/// A fresh no-op recorder with any lifetime. Boxing a zero-sized type
/// never allocates, so leaking the box is free.
fn dark_recorder<'a>() -> &'a mut dyn Recorder {
    Box::leak(Box::new(NoopRecorder))
}

impl<'a> Obs<'a> {
    /// All three sinks lit as given.
    pub fn new(
        recorder: &'a mut dyn Recorder,
        metrics: &'a dyn Metrics,
        spans: &'a mut dyn SpanSink,
    ) -> Self {
        Obs {
            recorder,
            metrics,
            spans,
        }
    }

    /// The context of an uninstrumented call: every sink a no-op. Builds
    /// without allocating.
    #[must_use]
    pub fn dark() -> Self {
        Obs {
            recorder: dark_recorder(),
            metrics: &NoopMetrics,
            spans: Box::leak(Box::new(NoopSpanSink)),
        }
    }

    /// This context with `recorder` in place of its recorder.
    #[must_use]
    pub fn with_recorder(self, recorder: &'a mut dyn Recorder) -> Self {
        Obs { recorder, ..self }
    }

    /// This context with `metrics` in place of its metrics sink.
    #[must_use]
    pub fn with_metrics(self, metrics: &'a dyn Metrics) -> Self {
        Obs { metrics, ..self }
    }

    /// This context with `spans` in place of its span sink.
    #[must_use]
    pub fn with_spans(self, spans: &'a mut dyn SpanSink) -> Self {
        Obs { spans, ..self }
    }

    /// A reborrow with the recorder dark and the metrics and span sinks
    /// shared — for a nested call whose trace events the caller keeps out
    /// of its own trace (the batch scheduler's per-job searches).
    pub fn untraced(&mut self) -> Obs<'_> {
        Obs {
            recorder: dark_recorder(),
            metrics: self.metrics,
            spans: &mut *self.spans,
        }
    }
}

impl std::fmt::Debug for Obs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("recorder", &self.recorder.enabled())
            .field("metrics", &self.metrics.enabled())
            .field("spans", &self.spans.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryRecorder, MemorySpanSink, MetricsRegistry, TraceEvent};

    #[test]
    fn builders_light_one_sink_each_and_untraced_keeps_the_rest() {
        let mut recorder = MemoryRecorder::new();
        let registry = MetricsRegistry::new();
        let mut spans = MemorySpanSink::new();
        let mut obs = Obs::dark()
            .with_recorder(&mut recorder)
            .with_metrics(&registry)
            .with_spans(&mut spans);
        assert_eq!(
            format!("{obs:?}"),
            "Obs { recorder: true, metrics: true, spans: true }"
        );
        {
            let inner = obs.untraced();
            assert!(!inner.recorder.enabled());
            inner.metrics.counter_add("x_total", &[], 1);
            let id = inner.spans.open("inner");
            inner.spans.close(id);
        }
        obs.recorder.emit(TraceEvent::BatchStarted { jobs: 1 });
        assert_eq!(recorder.events().len(), 1);
        assert_eq!(registry.counter_value("x_total", &[]), 1);
        assert_eq!(spans.records().len(), 1);
    }
}
