//! The daemon's one book of running totals — a leaf beside `wire` and
//! `sink` that every layer may name.

use crate::obs::{Counter, Gauge, Obs};

/// The daemon's one book: registry handles for every running total it
/// keeps, registered once at startup. The threads that do the work bump
/// them, `status` reads them per request and `metrics` renders the same
/// registry per request — no second tally, no publish-time copy.
#[derive(Debug, Clone)]
pub(super) struct ServeCounters {
    /// Reports the collector accepted, over every ingest chunk — the
    /// collector's own `collector/accepted`, re-fetched.
    pub(super) accepted: Counter,
    /// Reports the collector quarantined (`collector/quarantined`).
    pub(super) quarantined: Counter,
    /// Segments folded (`serve/segments`).
    pub(super) segments: Counter,
    /// Samples folded (`serve/samples`).
    pub(super) samples: Counter,
    /// Reports folded (`serve/reports`).
    pub(super) reports: Counter,
    /// Connections shed at the accept gate (`serve/rejected`).
    pub(super) rejected: Counter,
    /// Connections evicted mid-life — idle timeout, oversized line,
    /// stuck writes (`serve/evicted`).
    pub(super) evicted: Counter,
    /// Sealed segments replayed from the data dir
    /// (`serve/recovered_segments`).
    pub(super) recovered_segments: Counter,
    /// Segment files quarantined at recovery
    /// (`serve/quarantined_segments`).
    pub(super) quarantined_segments: Counter,
    /// High-water mark of sealed segments queued between the feeder and
    /// the shard workers (`serve/queue_depth`).
    pub(super) queue_depth: Gauge,
    /// High-water mark of slot updates between the shard workers' sends
    /// and the merger's take (`serve/merge_queue_depth`).
    pub(super) merge_queue_depth: Gauge,
    /// Drift alerts fired by the detectors (`serve/alerts_fired`).
    pub(super) alerts_fired: Counter,
    /// [`crate::dynamics::MonitorEvent::Stabilized`] events observed
    /// (`serve/alerts_stabilized`) — counted, not alerted.
    pub(super) alerts_stabilized: Counter,
    /// [`crate::dynamics::MonitorEvent::Destabilized`] events observed
    /// (`serve/alerts_destabilized`).
    pub(super) alerts_destabilized: Counter,
    /// [`crate::dynamics::MonitorEvent::Swing`] events observed
    /// (`serve/alerts_swings`).
    pub(super) alerts_swings: Counter,
    /// Alert lines delivered by the sinks (`serve/alerts_emitted`).
    pub(super) alerts_emitted: Counter,
    /// Alert lines a sink deduped, skipped or gave up on
    /// (`serve/alerts_dropped`).
    pub(super) alerts_dropped: Counter,
    /// Samples the merger copied compacting slot index chunks
    /// (`serve/index_copied_samples`).
    pub(super) index_copied_samples: Counter,
    /// Heap bytes of the published slot index chunks, set at every
    /// publish (`mem/index_bytes`).
    pub(super) index_bytes: Gauge,
}

impl ServeCounters {
    pub(super) fn register(obs: &Obs) -> Self {
        Self {
            accepted: obs.counter("collector/accepted"),
            quarantined: obs.counter("collector/quarantined"),
            segments: obs.counter("serve/segments"),
            samples: obs.counter("serve/samples"),
            reports: obs.counter("serve/reports"),
            rejected: obs.counter("serve/rejected"),
            evicted: obs.counter("serve/evicted"),
            recovered_segments: obs.counter("serve/recovered_segments"),
            quarantined_segments: obs.counter("serve/quarantined_segments"),
            queue_depth: obs.gauge("serve/queue_depth"),
            merge_queue_depth: obs.gauge("serve/merge_queue_depth"),
            alerts_fired: obs.counter("serve/alerts_fired"),
            alerts_stabilized: obs.counter("serve/alerts_stabilized"),
            alerts_destabilized: obs.counter("serve/alerts_destabilized"),
            alerts_swings: obs.counter("serve/alerts_swings"),
            alerts_emitted: obs.counter("serve/alerts_emitted"),
            alerts_dropped: obs.counter("serve/alerts_dropped"),
            index_copied_samples: obs.counter("serve/index_copied_samples"),
            index_bytes: obs.gauge("mem/index_bytes"),
        }
    }
}
