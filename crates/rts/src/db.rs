//! The DB module: RP's MongoDB stand-in.
//!
//! In RADICAL-Pilot, "the UnitManager schedules each task to an Agent via a
//! queue on a MongoDB instance. Each Agent pulls its tasks from the DB
//! module" (paper Fig. 3, arrows 4–5). RP's overheads are dominated in part
//! by these remote round trips ("at runtime, RP initiates communications
//! between the CI and a remote database"), so the store charges a
//! configurable latency per operation. Unit documents are written in bulk
//! only: one round trip per batch, whichever side writes it. Units reach
//! the Agent through the launcher rather than by a pull from the store, so
//! the store keeps documents but no agent queues.

use crate::api::{UnitId, UnitState};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;

/// Store configuration.
#[derive(Debug, Clone, Default)]
pub struct DbConfig {
    /// Real-time latency charged on every store operation, modeling the
    /// network round trip to a remote MongoDB. Zero by default (tests).
    pub op_latency: Duration,
}

/// A unit document as persisted in the store.
#[derive(Debug, Clone)]
pub struct UnitDoc {
    /// Unit id.
    pub unit: UnitId,
    /// Client tag.
    pub tag: String,
    /// Latest recorded state.
    pub state: UnitState,
    /// State history (state, order index).
    pub history: Vec<UnitState>,
    /// Encoded causal trace ([`entk_observe::TraceCtx`] wire format)
    /// carried from the submitting client, so an operator reading the
    /// document sees where the unit has been.
    pub trace: Option<String>,
}

struct Store {
    docs: HashMap<UnitId, UnitDoc>,
    /// Pilot documents: state history keyed by pilot index.
    pilots: HashMap<u64, Vec<String>>,
    /// Network round trips to the store. Bulk operations count one round
    /// trip regardless of batch size (modeling MongoDB `bulk_write`).
    round_trips: u64,
    /// Documents touched across all operations; with `round_trips` this
    /// splits the old flat op counter into its two cost components.
    documents: u64,
}

/// The document store. Thread-safe; clone-free (wrap in `Arc`).
pub struct DocDb {
    config: DbConfig,
    store: Mutex<Store>,
}

impl DocDb {
    /// Open an empty store.
    pub fn new(config: DbConfig) -> Self {
        DocDb {
            config,
            store: Mutex::new(Store {
                docs: HashMap::new(),
                pilots: HashMap::new(),
                round_trips: 0,
                documents: 0,
            }),
        }
    }

    fn charge(&self) {
        if !self.config.op_latency.is_zero() {
            std::thread::sleep(self.config.op_latency);
        }
    }

    /// Bulk-insert unit documents in **one** round trip, modeling a MongoDB
    /// `bulk_write` of N inserts: one `op_latency` charge, N documents.
    /// Each entry is `(unit, tag, encoded trace)`.
    pub fn insert_units(&self, units: Vec<(UnitId, String, Option<String>)>) {
        if units.is_empty() {
            return;
        }
        self.charge();
        let mut st = self.store.lock();
        st.round_trips += 1;
        st.documents += units.len() as u64;
        for (unit, tag, trace) in units {
            st.docs.insert(
                unit,
                UnitDoc {
                    unit,
                    tag,
                    state: UnitState::New,
                    history: vec![UnitState::New],
                    trace,
                },
            );
        }
    }

    /// Bulk-record state transitions in **one** round trip (MongoDB
    /// `bulk_write` of N updates), applied in order. Unknown units are
    /// ignored (they may belong to a previous, failed RTS incarnation, or
    /// have been forgotten).
    pub fn update_states(&self, updates: &[(UnitId, UnitState)]) {
        if updates.is_empty() {
            return;
        }
        self.charge();
        let mut st = self.store.lock();
        st.round_trips += 1;
        for (unit, state) in updates {
            if let Some(doc) = st.docs.get_mut(unit) {
                doc.state = *state;
                doc.history.push(*state);
                st.documents += 1;
            }
        }
    }

    /// PilotManager: register a pilot document. In RP every pilot is
    /// synchronized through MongoDB like units are; this is a large share of
    /// the bootstrap cost a warm pilot pool amortizes away.
    pub fn insert_pilot(&self, pilot: u64) {
        self.charge();
        let mut st = self.store.lock();
        st.round_trips += 1;
        st.documents += 1;
        st.pilots.insert(pilot, vec!["Queued".to_string()]);
    }

    /// Record a pilot state transition. Unknown pilots are ignored.
    pub fn update_pilot_state(&self, pilot: u64, state: &str) {
        self.charge();
        let mut st = self.store.lock();
        st.round_trips += 1;
        if let Some(hist) = st.pilots.get_mut(&pilot) {
            hist.push(state.to_string());
            st.documents += 1;
        }
    }

    /// One pilot's latest recorded state.
    pub fn pilot_state(&self, pilot: u64) -> Option<String> {
        self.store
            .lock()
            .pilots
            .get(&pilot)
            .and_then(|h| h.last().cloned())
    }

    /// Read one unit's document.
    pub fn get(&self, unit: UnitId) -> Option<UnitDoc> {
        let st = self.store.lock();
        st.docs.get(&unit).cloned()
    }

    /// Number of network round trips performed (for overhead accounting).
    /// Each single-document operation is one round trip; each bulk
    /// operation is one round trip regardless of batch size.
    pub fn op_count(&self) -> u64 {
        self.store.lock().round_trips
    }

    /// Number of documents touched across all operations. With
    /// [`DocDb::op_count`] this splits the cost model: latency scales with
    /// round trips, payload with documents.
    pub fn doc_count(&self) -> u64 {
        self.store.lock().documents
    }

    /// Unit documents currently held.
    pub fn unit_docs(&self) -> usize {
        self.store.lock().docs.len()
    }

    /// Forget units: drop their documents. This only reclaims memory — it
    /// models documents expiring server-side (a MongoDB TTL index), so it
    /// charges no round trip.
    pub fn forget_units(&self, units: &[UnitId]) {
        let mut st = self.store.lock();
        for unit in units {
            st.docs.remove(unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(ids: std::ops::RangeInclusive<u64>) -> Vec<(UnitId, String, Option<String>)> {
        ids.map(|i| (UnitId(i), format!("u{i}"), None)).collect()
    }

    #[test]
    fn forget_units_drops_documents() {
        let db = DocDb::new(DbConfig::default());
        db.insert_units(units(1..=3));
        let round_trips = db.op_count();
        db.forget_units(&[UnitId(1), UnitId(3)]);
        assert_eq!(db.unit_docs(), 1);
        assert!(db.get(UnitId(1)).is_none());
        assert!(db.get(UnitId(3)).is_none());
        assert_eq!(db.get(UnitId(2)).map(|d| d.tag).as_deref(), Some("u2"));
        assert_eq!(db.op_count(), round_trips, "forgetting is free");
    }

    #[test]
    fn state_history_accumulates() {
        let db = DocDb::new(DbConfig::default());
        db.insert_units(units(7..=7));
        db.update_states(&[
            (UnitId(7), UnitState::StagingInput),
            (UnitId(7), UnitState::Executing),
        ]);
        db.update_states(&[(UnitId(7), UnitState::Done)]);
        let doc = db.get(UnitId(7)).unwrap();
        assert_eq!(doc.state, UnitState::Done);
        assert_eq!(
            doc.history,
            vec![
                UnitState::New,
                UnitState::StagingInput,
                UnitState::Executing,
                UnitState::Done
            ]
        );
    }

    #[test]
    fn unknown_unit_update_is_ignored() {
        let db = DocDb::new(DbConfig::default());
        db.update_states(&[(UnitId(99), UnitState::Done)]);
        assert!(db.get(UnitId(99)).is_none());
    }

    #[test]
    fn pilot_docs_track_state_history() {
        let db = DocDb::new(DbConfig::default());
        db.insert_pilot(0);
        db.update_pilot_state(0, "Active");
        db.update_pilot_state(0, "Ready");
        assert_eq!(db.pilot_state(0).as_deref(), Some("Ready"));
        db.update_pilot_state(9, "Active"); // unknown: ignored
        assert!(db.pilot_state(9).is_none());
        assert_eq!(db.op_count(), 4);
    }

    #[test]
    fn bulk_insert_charges_one_round_trip() {
        let db = DocDb::new(DbConfig::default());
        db.insert_units(units(1..=50));
        assert_eq!(db.op_count(), 1, "one bulk_write round trip");
        assert_eq!(db.doc_count(), 50, "fifty documents inserted");
        assert_eq!(db.unit_docs(), 50);
        assert_eq!(db.get(UnitId(50)).unwrap().history, vec![UnitState::New]);
        db.insert_units(Vec::new()); // empty bulk is free
        assert_eq!(db.op_count(), 1);
    }

    #[test]
    fn bulk_update_states_charges_one_round_trip() {
        let db = DocDb::new(DbConfig::default());
        db.insert_units(units(1..=2));
        let before = db.op_count();
        db.update_states(&[
            (UnitId(1), UnitState::Executing),
            (UnitId(2), UnitState::Executing),
            (UnitId(99), UnitState::Done), // unknown: ignored
        ]);
        assert_eq!(db.op_count(), before + 1);
        assert_eq!(db.get(UnitId(1)).unwrap().state, UnitState::Executing);
        assert_eq!(db.get(UnitId(2)).unwrap().state, UnitState::Executing);
        assert!(db.get(UnitId(99)).is_none());
    }

    #[test]
    fn bulk_latency_amortized_over_batch() {
        let db = DocDb::new(DbConfig {
            op_latency: Duration::from_millis(5),
        });
        let t0 = std::time::Instant::now();
        db.insert_units(units(1..=20));
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(5), "one charge applies");
        assert!(
            elapsed < Duration::from_millis(50),
            "20 inserts must not pay 20 round trips, took {elapsed:?}"
        );
    }

    #[test]
    fn op_latency_is_charged() {
        let db = DocDb::new(DbConfig {
            op_latency: Duration::from_millis(5),
        });
        let t0 = std::time::Instant::now();
        db.insert_units(units(1..=1));
        db.update_states(&[(UnitId(1), UnitState::Done)]);
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(db.op_count(), 2);
    }
}
