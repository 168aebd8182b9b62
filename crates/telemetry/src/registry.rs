//! Named metric registration and live handles.
//!
//! A [`Registry`] owns the name → cell map; components hold cheap cloneable
//! handles ([`Counter`], [`Gauge`], [`Histogram`]) and update them without
//! touching the map again. `Registry<AtomicCell>` (= [`SharedRegistry`]) is
//! `Sync` and its handles are `Send + Sync`, so one registry can span the
//! ingest side and every worker thread; `Registry<LocalCell>`
//! (= [`LocalRegistry`]) keeps updates to plain loads/stores but its handles
//! must stay on one thread.

use crate::cell::{AtomicCell, LocalCell, TelemetryCell};
use crate::histogram::HistogramCore;
use crate::snapshot::{Instrumented, Snapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

pub type LocalRegistry = Registry<LocalCell>;
pub type SharedRegistry = Registry<AtomicCell>;

enum Entry<C: TelemetryCell> {
    Counter(Arc<C>),
    Gauge(Arc<C>),
    Histogram(Arc<HistogramCore<C>>),
}

pub struct Registry<C: TelemetryCell> {
    entries: Mutex<BTreeMap<String, Entry<C>>>,
}

impl<C: TelemetryCell> Default for Registry<C> {
    fn default() -> Self {
        Registry { entries: Mutex::new(BTreeMap::new()) }
    }
}

/// Monotonic counter handle.
pub struct Counter<C: TelemetryCell>(Arc<C>);

impl<C: TelemetryCell> Clone for Counter<C> {
    fn clone(&self) -> Self {
        Counter(Arc::clone(&self.0))
    }
}

impl<C: TelemetryCell> Counter<C> {
    #[inline]
    pub fn inc(&self) {
        self.0.add(1);
    }

    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.add(delta);
    }

    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// Instantaneous-level handle; stores the `f64` bit pattern in the cell.
pub struct Gauge<C: TelemetryCell>(Arc<C>);

impl<C: TelemetryCell> Clone for Gauge<C> {
    fn clone(&self) -> Self {
        Gauge(Arc::clone(&self.0))
    }
}

impl<C: TelemetryCell> Gauge<C> {
    pub fn set(&self, value: f64) {
        self.0.set(value.to_bits());
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.get())
    }
}

/// Log2-distribution handle.
pub struct Histogram<C: TelemetryCell>(Arc<HistogramCore<C>>);

impl<C: TelemetryCell> Clone for Histogram<C> {
    fn clone(&self) -> Self {
        Histogram(Arc::clone(&self.0))
    }
}

impl<C: TelemetryCell> Histogram<C> {
    #[inline]
    pub fn observe(&self, value: u64) {
        self.0.observe(value);
    }
}

impl<C: TelemetryCell> Registry<C> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-attaches to) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter<C> {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = entries
            .entry(name.to_string())
            .or_insert_with(|| Entry::Counter(Arc::new(C::default())));
        match entry {
            Entry::Counter(cell) => Counter(Arc::clone(cell)),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Registers (or re-attaches to) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge<C> {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let entry =
            entries.entry(name.to_string()).or_insert_with(|| Entry::Gauge(Arc::new(C::default())));
        match entry {
            Entry::Gauge(cell) => Gauge(Arc::clone(cell)),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Registers (or re-attaches to) the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram<C> {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = entries
            .entry(name.to_string())
            .or_insert_with(|| Entry::Histogram(Arc::new(HistogramCore::default())));
        match entry {
            Entry::Histogram(core) => Histogram(Arc::clone(core)),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut snap = Snapshot::new();
        for (name, entry) in entries.iter() {
            match entry {
                Entry::Counter(cell) => snap.set_counter(name.clone(), cell.get()),
                Entry::Gauge(cell) => snap.set_gauge(name.clone(), f64::from_bits(cell.get())),
                Entry::Histogram(core) => snap.set_histogram(name.clone(), core.snapshot()),
            }
        }
        snap
    }
}

impl<C: TelemetryCell> Instrumented for Registry<C> {
    fn telemetry(&self) -> Snapshot {
        self.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::{LocalRegistry, SharedRegistry};
    use crate::snapshot::Instrumented;
    use std::sync::Arc;

    #[test]
    fn handles_share_cells_by_name() {
        let reg = LocalRegistry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.add(2);
        b.inc();
        assert_eq!(reg.snapshot().counter("hits"), Some(3));
    }

    #[test]
    fn gauge_roundtrips_floats() {
        let reg = LocalRegistry::new();
        let g = reg.gauge("load");
        g.set(0.625);
        assert_eq!(g.get(), 0.625);
        assert_eq!(reg.telemetry().gauge("load"), Some(0.625));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_are_loud() {
        let reg = LocalRegistry::new();
        let _c = reg.counter("x");
        let _g = reg.gauge("x");
    }

    #[test]
    fn shared_registry_spans_threads() {
        let reg = Arc::new(SharedRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter(&format!("worker{w}.packets"));
                    let h = reg.histogram("depth");
                    for i in 0..1000 {
                        c.inc();
                        h.observe(i % 16);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("worker"), 4000);
        assert_eq!(snap.histogram("depth").unwrap().count, 4000);
    }
}
