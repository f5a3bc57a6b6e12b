//! Optional per-run event log.
//!
//! When [`crate::SimOptions::record_events`] is set, the engine emits a
//! time-ordered trace of everything that happened — useful for debugging
//! policies, for visualising executions, and for auditing the engine's
//! phase accounting.

/// One logged event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Absolute simulation time, seconds.
    pub time: f64,
    /// What happened.
    pub kind: EventKind,
}

/// Event kinds emitted by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A chunk attempt began (`work` seconds + checkpoint).
    ChunkStart {
        /// Work content of the attempt, seconds.
        work: f64,
    },
    /// The running chunk and its checkpoint committed.
    ChunkCommitted {
        /// Work retired, seconds.
        work: f64,
    },
    /// A failure struck the given unit.
    Failure {
        /// Failing unit index.
        unit: u32,
    },
    /// All processors are up again after downtime cascades.
    PlatformReady,
    /// A recovery attempt completed successfully.
    RecoveryDone,
    /// The job completed.
    JobDone,
}

/// Growable event log; a no-op when disabled so the hot path pays one
/// branch.
#[derive(Debug, Default)]
pub struct EventLog {
    enabled: bool,
    events: Vec<Event>,
}

impl EventLog {
    /// An enabled or disabled log.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, events: Vec::new() }
    }

    /// Record an event (no-op when disabled).
    #[inline]
    pub fn push(&mut self, time: f64, kind: EventKind) {
        if self.enabled {
            self.events.push(Event { time, kind });
        }
    }

    /// Consume into the recorded events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::new(false);
        log.push(1.0, EventKind::PlatformReady);
        assert!(log.into_events().is_empty());
    }

    #[test]
    fn enabled_log_keeps_order() {
        let mut log = EventLog::new(true);
        log.push(1.0, EventKind::ChunkStart { work: 5.0 });
        log.push(6.0, EventKind::ChunkCommitted { work: 5.0 });
        log.push(6.0, EventKind::JobDone);
        let ev = log.into_events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].kind, EventKind::ChunkStart { work: 5.0 });
        assert_eq!(ev[2].kind, EventKind::JobDone);
    }

    #[test]
    fn default_log_is_disabled() {
        let mut log = EventLog::default();
        assert!(!log.enabled());
        log.push(1.0, EventKind::JobDone);
        assert!(log.into_events().is_empty());
        assert!(EventLog::new(true).enabled());
    }
}
