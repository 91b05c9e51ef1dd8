//! Runtime representation of objects, relationship objects, and
//! inheritance-relationship objects.
//!
//! Everything is an object with a surrogate (§3); relationship objects add
//! participants; inheritance-relationship objects add the
//! transmitter/inheritor pair. The adaptation flag the paper suggests
//! keeping on the relationship for consistency control (§2) is kept by the
//! store, keyed by the relationship's surrogate
//! ([`crate::store::ObjectStore::needs_adaptation`]).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::surrogate::Surrogate;
use crate::value::Value;

/// What kind of object this is.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum ObjectKind {
    /// An ordinary (possibly complex) object.
    Plain,
    /// A relationship object; `participants` maps role names to the related
    /// objects (set-valued roles hold several).
    Relationship {
        /// Role name → related objects.
        participants: BTreeMap<String, Vec<Surrogate>>,
    },
    /// An inheritance-relationship object (§4.1).
    InheritanceRel {
        /// The object whose data flows out.
        transmitter: Surrogate,
        /// The object that inherits.
        inheritor: Surrogate,
    },
}

/// Ownership link of a subobject: which complex object it belongs to, and
/// under which local subclass. Subobjects are deleted with their owner (§3).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Owner {
    /// The owning complex object.
    pub parent: Surrogate,
    /// The local subclass (or subrel) name within the owner.
    pub subclass: String,
}

/// A stored object.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ObjectData {
    /// System-wide identifier.
    pub surrogate: Surrogate,
    /// Name of the object/relationship/inheritance-relationship type.
    pub type_name: String,
    /// Plain, relationship, or inheritance-relationship.
    pub kind: ObjectKind,
    /// Owning complex object, if this is a subobject.
    pub owner: Option<Owner>,
    /// Local attribute values (only locally declared attributes appear here;
    /// inherited values live in the transmitter).
    pub attrs: BTreeMap<String, Value>,
    /// Local subclass name → member surrogates (objects and subrels alike).
    pub subclasses: BTreeMap<String, Vec<Surrogate>>,
    /// Inheritance bindings: inheritance-relationship *type* name → the
    /// inheritance-relationship *object* realizing the binding. At most one
    /// binding per declared `inheritor-in` relationship (paper §4.1: "it can
    /// be specified to which object of the transmitter type it is to be
    /// related").
    pub bindings: BTreeMap<String, Surrogate>,
}

impl ObjectData {
    /// Fresh plain object.
    pub fn plain(surrogate: Surrogate, type_name: &str) -> Self {
        ObjectData {
            surrogate,
            type_name: type_name.to_string(),
            kind: ObjectKind::Plain,
            owner: None,
            attrs: BTreeMap::new(),
            subclasses: BTreeMap::new(),
            bindings: BTreeMap::new(),
        }
    }

    /// Fresh relationship object.
    pub fn relationship(
        surrogate: Surrogate,
        type_name: &str,
        participants: BTreeMap<String, Vec<Surrogate>>,
    ) -> Self {
        ObjectData {
            surrogate,
            type_name: type_name.to_string(),
            kind: ObjectKind::Relationship { participants },
            owner: None,
            attrs: BTreeMap::new(),
            subclasses: BTreeMap::new(),
            bindings: BTreeMap::new(),
        }
    }

    /// Fresh inheritance-relationship object.
    pub fn inheritance(
        surrogate: Surrogate,
        type_name: &str,
        transmitter: Surrogate,
        inheritor: Surrogate,
    ) -> Self {
        ObjectData {
            surrogate,
            type_name: type_name.to_string(),
            kind: ObjectKind::InheritanceRel {
                transmitter,
                inheritor,
            },
            owner: None,
            attrs: BTreeMap::new(),
            subclasses: BTreeMap::new(),
            bindings: BTreeMap::new(),
        }
    }

    /// Transmitter of an inheritance-relationship object.
    pub fn transmitter(&self) -> Option<Surrogate> {
        match &self.kind {
            ObjectKind::InheritanceRel { transmitter, .. } => Some(*transmitter),
            _ => None,
        }
    }

    /// Inheritor of an inheritance-relationship object.
    pub fn inheritor(&self) -> Option<Surrogate> {
        match &self.kind {
            ObjectKind::InheritanceRel { inheritor, .. } => Some(*inheritor),
            _ => None,
        }
    }

    /// Participants under `role`, for relationship objects.
    pub fn participants(&self, role: &str) -> Option<&[Surrogate]> {
        match &self.kind {
            ObjectKind::Relationship { participants } => participants.get(role).map(Vec::as_slice),
            _ => None,
        }
    }

    /// All surrogates this object refers to as subclass members.
    pub fn all_subclass_members(&self) -> impl Iterator<Item = Surrogate> + '_ {
        self.subclasses.values().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let p = ObjectData::plain(Surrogate(1), "Gate");
        assert_eq!(p.kind, ObjectKind::Plain);
        assert_eq!(p.type_name, "Gate");

        let mut parts = BTreeMap::new();
        parts.insert("Pin1".to_string(), vec![Surrogate(2)]);
        let r = ObjectData::relationship(Surrogate(3), "WireType", parts);
        assert_eq!(r.participants("Pin1"), Some(&[Surrogate(2)][..]));
        assert_eq!(r.participants("Pin9"), None);
        assert_eq!(p.participants("Pin1"), None);

        let i = ObjectData::inheritance(Surrogate(4), "AllOf_If", Surrogate(5), Surrogate(6));
        assert_eq!(i.transmitter(), Some(Surrogate(5)));
        assert_eq!(i.inheritor(), Some(Surrogate(6)));
        assert_eq!(p.transmitter(), None);
    }

    #[test]
    fn subclass_member_iteration() {
        let mut o = ObjectData::plain(Surrogate(1), "Gate");
        o.subclasses
            .insert("Pins".into(), vec![Surrogate(2), Surrogate(3)]);
        o.subclasses.insert("SubGates".into(), vec![Surrogate(4)]);
        let mut all: Vec<Surrogate> = o.all_subclass_members().collect();
        all.sort();
        assert_eq!(all, vec![Surrogate(2), Surrogate(3), Surrogate(4)]);
    }

    #[test]
    fn serde_roundtrip() {
        let mut o = ObjectData::plain(Surrogate(1), "Gate");
        o.attrs.insert("Length".into(), Value::Int(5));
        o.bindings.insert("AllOf_If".into(), Surrogate(9));
        o.owner = Some(Owner {
            parent: Surrogate(8),
            subclass: "SubGates".into(),
        });
        let json = serde_json::to_string(&o).unwrap();
        let back: ObjectData = serde_json::from_str(&json).unwrap();
        assert_eq!(o, back);
    }
}
