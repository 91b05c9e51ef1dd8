//! Trigger mechanism for semi-automatic adaptation (§4.1).
//!
//! The paper: "To inform the user about changes of the transmitter object
//! the attributes of the relationship can be used. In connection with
//! trigger mechanism … these informations can be used for building
//! mechanisms for semi-automatical corrections of consistency violations."
//!
//! [`TriggerRegistry`] consumes the store's adaptation log: handlers are
//! registered per inheritance-relationship type and run against each new
//! [`AdaptationEvent`]; a handler returning [`TriggerOutcome::Handled`]
//! acknowledges the relationship's `needs_adaptation` flag (automatic
//! correction), while [`TriggerOutcome::Ignored`] leaves the flag up for a
//! human (the paper's manual-adaptation default).

use std::collections::HashMap;

use crate::error::CoreResult;
use crate::store::{AdaptationEvent, ObjectStore};

/// What a trigger did with an event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TriggerOutcome {
    /// The inheritor was adapted; clear the flag.
    Handled,
    /// Leave the flag raised for manual adaptation.
    Ignored,
}

/// Handler invoked for adaptation events of one relationship type.
pub type TriggerFn =
    Box<dyn FnMut(&mut ObjectStore, &AdaptationEvent) -> CoreResult<TriggerOutcome> + Send>;

/// Summary of one [`TriggerRegistry::process`] run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProcessReport {
    /// Events seen this run.
    pub events: usize,
    /// Events a handler reported as handled (flags cleared).
    pub handled: usize,
    /// Events with no registered handler.
    pub unhandled: usize,
}

/// Registry of per-relationship-type adaptation triggers with a cursor into
/// the store's adaptation log.
#[derive(Default)]
pub struct TriggerRegistry {
    cursor: u64,
    handlers: HashMap<String, TriggerFn>,
}

impl TriggerRegistry {
    /// Empty registry (cursor at the log's start).
    pub fn new() -> Self {
        TriggerRegistry::default()
    }

    /// Start consuming only events after the store's current logical time.
    pub fn from_now(store: &ObjectStore) -> Self {
        TriggerRegistry {
            cursor: store.now(),
            handlers: HashMap::new(),
        }
    }

    /// Register (or replace) the handler for one inheritance-relationship
    /// type.
    pub fn register(
        &mut self,
        rel_type: &str,
        handler: impl FnMut(&mut ObjectStore, &AdaptationEvent) -> CoreResult<TriggerOutcome>
            + Send
            + 'static,
    ) {
        self.handlers
            .insert(rel_type.to_string(), Box::new(handler));
    }

    /// Consume all adaptation events since the last run, dispatching each to
    /// the handler registered for its relationship type.
    pub fn process(&mut self, store: &mut ObjectStore) -> CoreResult<ProcessReport> {
        let events: Vec<AdaptationEvent> = store.adaptation_events_since(self.cursor);
        self.cursor = store.now();
        let mut report = ProcessReport {
            events: events.len(),
            ..Default::default()
        };
        for ev in events {
            // The relationship object may have been unbound meanwhile.
            let Ok(rel) = store.object(ev.rel_object) else {
                report.unhandled += 1;
                continue;
            };
            let rel_type = rel.type_name.clone();
            match self.handlers.get_mut(&rel_type) {
                None => report.unhandled += 1,
                Some(h) => match h(store, &ev)? {
                    TriggerOutcome::Handled => {
                        store.acknowledge_adaptation(ev.rel_object)?;
                        report.handled += 1;
                    }
                    TriggerOutcome::Ignored => {}
                },
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::schema::{AttrDef, Catalog, InherRelTypeDef, ObjectTypeDef};
    use crate::surrogate::Surrogate;
    use crate::value::Value;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn setup() -> (ObjectStore, Surrogate, Surrogate) {
        let mut c = Catalog::new();
        c.register_object_type(ObjectTypeDef {
            name: "If".into(),
            attributes: vec![AttrDef::new("Length", Domain::Int)],
            ..Default::default()
        })
        .unwrap();
        c.register_inher_rel_type(InherRelTypeDef {
            name: "AllOf_If".into(),
            transmitter_type: "If".into(),
            inheritor_type: None,
            inheriting: vec!["Length".into()],
            attributes: vec![],
            constraints: vec![],
        })
        .unwrap();
        c.register_object_type(ObjectTypeDef {
            name: "Impl".into(),
            inheritor_in: vec!["AllOf_If".into()],
            attributes: vec![AttrDef::new("DoubledLength", Domain::Int)],
            ..Default::default()
        })
        .unwrap();
        let mut st = ObjectStore::new(c).unwrap();
        let interface = st
            .create_object("If", vec![("Length", Value::Int(4))])
            .unwrap();
        let imp = st
            .create_object("Impl", vec![("DoubledLength", Value::Int(8))])
            .unwrap();
        st.bind("AllOf_If", interface, imp, vec![]).unwrap();
        (st, interface, imp)
    }

    #[test]
    fn semi_automatic_correction() {
        let (mut st, interface, imp) = setup();
        let mut triggers = TriggerRegistry::new();
        // The "correction": keep the inheritor's derived local attribute in
        // sync with the inherited one (the paper's semi-automatic repair).
        triggers.register("AllOf_If", |store, ev| {
            let new = store.attr(ev.inheritor, &ev.item)?;
            if let Value::Int(n) = new {
                store.set_attr(ev.inheritor, "DoubledLength", Value::Int(2 * n))?;
            }
            Ok(TriggerOutcome::Handled)
        });
        st.set_attr(interface, "Length", Value::Int(10)).unwrap();
        let rel = st.binding_of(imp, "AllOf_If").unwrap();
        assert!(st.needs_adaptation(rel).unwrap());
        let report = triggers.process(&mut st).unwrap();
        assert_eq!(
            report,
            ProcessReport {
                events: 1,
                handled: 1,
                unhandled: 0
            }
        );
        assert_eq!(st.attr(imp, "DoubledLength").unwrap(), Value::Int(20));
        assert!(!st.needs_adaptation(rel).unwrap(), "flag auto-cleared");
        assert_eq!(st.adaptation_flags().count(), 0);
    }

    #[test]
    fn ignored_events_leave_flag_for_manual_adaptation() {
        let (mut st, interface, imp) = setup();
        let mut triggers = TriggerRegistry::new();
        triggers.register("AllOf_If", |_, _| Ok(TriggerOutcome::Ignored));
        st.set_attr(interface, "Length", Value::Int(10)).unwrap();
        triggers.process(&mut st).unwrap();
        let rel = st.binding_of(imp, "AllOf_If").unwrap();
        assert!(st.needs_adaptation(rel).unwrap());
    }

    #[test]
    fn unregistered_types_counted_unhandled() {
        let (mut st, interface, _) = setup();
        let mut triggers = TriggerRegistry::new();
        st.set_attr(interface, "Length", Value::Int(10)).unwrap();
        let report = triggers.process(&mut st).unwrap();
        assert_eq!(report.unhandled, 1);
    }

    #[test]
    fn cursor_prevents_reprocessing() {
        let (mut st, interface, _) = setup();
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = Arc::clone(&calls);
        let mut triggers = TriggerRegistry::new();
        triggers.register("AllOf_If", move |_, _| {
            calls2.fetch_add(1, Ordering::Relaxed);
            Ok(TriggerOutcome::Handled)
        });
        st.set_attr(interface, "Length", Value::Int(10)).unwrap();
        triggers.process(&mut st).unwrap();
        triggers.process(&mut st).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1, "each event fires once");
        st.set_attr(interface, "Length", Value::Int(11)).unwrap();
        triggers.process(&mut st).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn from_now_skips_history() {
        let (mut st, interface, _) = setup();
        st.set_attr(interface, "Length", Value::Int(10)).unwrap();
        let mut triggers = TriggerRegistry::from_now(&st);
        triggers.register("AllOf_If", |_, _| Ok(TriggerOutcome::Handled));
        let report = triggers.process(&mut st).unwrap();
        assert_eq!(report.events, 0, "pre-registration events skipped");
    }

    #[test]
    fn unbound_relationship_events_skipped() {
        let (mut st, interface, imp) = setup();
        let mut triggers = TriggerRegistry::new();
        triggers.register("AllOf_If", |_, _| Ok(TriggerOutcome::Handled));
        st.set_attr(interface, "Length", Value::Int(10)).unwrap();
        let rel = st.binding_of(imp, "AllOf_If").unwrap();
        st.unbind(rel).unwrap();
        let report = triggers.process(&mut st).unwrap();
        assert_eq!(report.unhandled, 1, "dangling event skipped, no panic");
    }
}
