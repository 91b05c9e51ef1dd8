//! Trigger mechanism for semi-automatic adaptation (§4.1).
//!
//! The paper: "To inform the user about changes of the transmitter object
//! the attributes of the relationship can be used. In connection with
//! trigger mechanism … these informations can be used for building
//! mechanisms for semi-automatical corrections of consistency violations."
//!
//! The record is the one the paper names: each relationship's adaptation
//! flag, holding the items raised since its last acknowledgement
//! ([`ObjectStore::adaptation_flags`]). [`TriggerRegistry::process`] walks
//! the flags in surrogate order and presents each item to the handler of
//! the relationship's type as an [`AdaptationEvent`].
//! [`TriggerOutcome::Handled`] acknowledges the item; the flag goes with
//! its last item. [`TriggerOutcome::Ignored`] — or no handler — leaves it
//! up for a human, the paper's default, and every later run presents it
//! again. There is no cursor and no history: a consumer that must skip
//! what happened before it started acknowledges the raised flags first
//! (`examples/design_rules.rs`); one that needs history subscribes to
//! `watch`. A flag persisted without its items loads as [`UNKNOWN_ITEM`].

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::CoreResult;
use crate::store::{FlagItems, ObjectStore};
use crate::surrogate::Surrogate;

/// The item of a flag whose items were not recorded.
pub const UNKNOWN_ITEM: &str = "*";

/// One raised item of one adaptation flag, as a handler sees it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AdaptationEvent {
    /// The inheritance-relationship object whose flag is raised.
    pub rel_object: Surrogate,
    /// The transmitter that changed.
    pub transmitter: Surrogate,
    /// The inheritor that may need adaptation.
    pub inheritor: Surrogate,
    /// The permeable attribute or subclass that changed.
    pub item: String,
}

/// What a trigger did with an event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TriggerOutcome {
    /// The inheritor was adapted; acknowledge the item.
    Handled,
    /// Leave the item raised for manual adaptation.
    Ignored,
}

/// Handler invoked for adaptation events of one relationship type.
pub type TriggerFn =
    Box<dyn FnMut(&mut ObjectStore, &AdaptationEvent) -> CoreResult<TriggerOutcome> + Send>;

/// Summary of one [`TriggerRegistry::process`] run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProcessReport {
    /// Raised items presented this run.
    pub events: usize,
    /// Items a handler reported as handled (acknowledged).
    pub handled: usize,
    /// Items on flags with no registered handler.
    pub unhandled: usize,
}

/// Registry of per-relationship-type adaptation triggers.
#[derive(Default)]
pub struct TriggerRegistry {
    handlers: HashMap<String, TriggerFn>,
}

impl TriggerRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        TriggerRegistry::default()
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

    /// Present every raised item, flag by flag in surrogate order, to its
    /// handler, and acknowledge the items handled. What handlers raise
    /// meanwhile waits for the next run.
    pub fn process(&mut self, store: &mut ObjectStore) -> CoreResult<ProcessReport> {
        let flags: Vec<(Surrogate, FlagItems)> = store
            .adaptation_flags()
            .map(|(rel, items)| (rel, Arc::clone(items)))
            .collect();
        let mut report = ProcessReport::default();
        for (rel, items) in flags {
            // An earlier handler may have dissolved the relationship.
            let Ok(o) = store.object(rel) else {
                continue;
            };
            let (Some(transmitter), Some(inheritor)) = (o.transmitter(), o.inheritor()) else {
                continue;
            };
            report.events += items.len();
            let Some(handler) = self.handlers.get_mut(&o.type_name) else {
                report.unhandled += items.len();
                continue;
            };
            for item in items.iter() {
                let event = AdaptationEvent {
                    rel_object: rel,
                    transmitter,
                    inheritor,
                    item: item.clone(),
                };
                if handler(store, &event)? == TriggerOutcome::Handled {
                    store.acknowledge_item(rel, item);
                    report.handled += 1;
                }
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
    use crate::value::Value;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn setup() -> (ObjectStore, Surrogate, Surrogate) {
        let mut c = Catalog::new();
        c.register_object_type(ObjectTypeDef {
            name: "If".into(),
            attributes: vec![
                AttrDef::new("Length", Domain::Int),
                AttrDef::new("Width", Domain::Int),
            ],
            ..Default::default()
        })
        .unwrap();
        c.register_inher_rel_type(InherRelTypeDef {
            name: "AllOf_If".into(),
            transmitter_type: "If".into(),
            inheritor_type: None,
            inheriting: vec!["Length".into(), "Width".into()],
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
        // Left for a human: every later run presents it again.
        assert_eq!(triggers.process(&mut st).unwrap().events, 1);
        st.acknowledge_adaptation(rel).unwrap();
        assert_eq!(triggers.process(&mut st).unwrap().events, 0);
    }

    #[test]
    fn unregistered_types_counted_unhandled() {
        let (mut st, interface, _) = setup();
        let mut triggers = TriggerRegistry::new();
        st.set_attr(interface, "Length", Value::Int(10)).unwrap();
        let report = triggers.process(&mut st).unwrap();
        assert_eq!(report.unhandled, 1);
    }

    /// The acknowledgement is the cursor: a handled item is not presented
    /// again until a new write raises it.
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
    fn acknowledged_flags_are_not_presented() {
        let (mut st, interface, imp) = setup();
        st.set_attr(interface, "Length", Value::Int(10)).unwrap();
        // What replaces starting "from now": acknowledge what is up.
        let rel = st.binding_of(imp, "AllOf_If").unwrap();
        st.acknowledge_adaptation(rel).unwrap();
        let mut triggers = TriggerRegistry::new();
        triggers.register("AllOf_If", |_, _| Ok(TriggerOutcome::Handled));
        let report = triggers.process(&mut st).unwrap();
        assert_eq!(report.events, 0, "pre-registration changes skipped");
    }

    #[test]
    fn each_raised_item_is_presented_and_acknowledged_on_its_own() {
        let (mut st, interface, imp) = setup();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let mut triggers = TriggerRegistry::new();
        // Handles Length only; Width is left for a human.
        triggers.register("AllOf_If", move |_, ev| {
            seen2.lock().push(ev.clone());
            Ok(match &*ev.item {
                "Length" => TriggerOutcome::Handled,
                _ => TriggerOutcome::Ignored,
            })
        });
        for v in 0..3 {
            st.set_attr(interface, "Width", Value::Int(v)).unwrap();
            st.set_attr(interface, "Length", Value::Int(v)).unwrap();
        }
        let report = triggers.process(&mut st).unwrap();
        assert_eq!((report.events, report.handled), (2, 1));
        let rel = st.binding_of(imp, "AllOf_If").unwrap();
        let items: Vec<String> = seen.lock().iter().map(|e| e.item.clone()).collect();
        assert_eq!(items, ["Length", "Width"], "sorted, one event per item");
        let first = seen.lock()[0].clone();
        assert_eq!(
            (first.rel_object, first.transmitter, first.inheritor),
            (rel, interface, imp)
        );
        let (_, left) = st.adaptation_flags().next().unwrap();
        assert_eq!(**left, ["Width"]);
    }

    #[test]
    fn a_flag_without_recorded_items_is_presented_once_as_unknown() {
        let (mut st, _, imp) = setup();
        let rel = st.binding_of(imp, "AllOf_If").unwrap();
        st.restore_adaptation_flag(rel, vec![UNKNOWN_ITEM.to_string()]);
        let mut triggers = TriggerRegistry::new();
        triggers.register("AllOf_If", |_, ev| {
            assert_eq!(&*ev.item, UNKNOWN_ITEM);
            Ok(TriggerOutcome::Handled)
        });
        assert_eq!(triggers.process(&mut st).unwrap().handled, 1);
        assert!(!st.needs_adaptation(rel).unwrap());
    }

    #[test]
    fn unbound_relationship_events_skipped() {
        let (mut st, interface, imp) = setup();
        let mut triggers = TriggerRegistry::new();
        triggers.register("AllOf_If", |_, _| Ok(TriggerOutcome::Handled));
        st.set_attr(interface, "Length", Value::Int(10)).unwrap();
        let rel = st.binding_of(imp, "AllOf_If").unwrap();
        st.unbind(rel).unwrap();
        // The flag went with its relationship: nothing dangles.
        let report = triggers.process(&mut st).unwrap();
        assert_eq!(report, ProcessReport::default());
    }
}
