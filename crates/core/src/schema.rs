//! Schema definitions and the type catalog (§3–4).
//!
//! The catalog registers **domains**, **object types**, **relationship
//! types**, and **inheritance-relationship types**, validates them against
//! each other, and computes each type's *effective schema*: its local
//! attributes and subclasses plus everything reachable through its
//! `inheritor-in` declarations — transitively, so interface *hierarchies*
//! (§4.2) compose.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::domain::Domain;
use crate::error::{CoreError, CoreResult};
use crate::expr::Expr;

/// A named integrity constraint (boolean [`Expr`] over the object).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Constraint {
    /// Label used in violation reports (defaults to the rendered expression).
    pub name: String,
    /// The boolean expression; `self` paths root at the constrained object.
    pub expr: Expr,
}

impl Constraint {
    /// Constraint named after its own rendering.
    pub fn new(expr: Expr) -> Self {
        Constraint {
            name: expr.to_string(),
            expr,
        }
    }

    /// Constraint with an explicit label.
    pub fn named(name: &str, expr: Expr) -> Self {
        Constraint {
            name: name.to_string(),
            expr,
        }
    }
}

/// An attribute declaration.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AttrDef {
    /// Attribute name.
    pub name: String,
    /// Value domain.
    pub domain: Domain,
}

impl AttrDef {
    /// Convenience constructor.
    pub fn new(name: &str, domain: Domain) -> Self {
        AttrDef {
            name: name.to_string(),
            domain,
        }
    }
}

/// A local object-subclass declaration of a complex type
/// (`types-of-subclasses:`).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SubclassSpec {
    /// Subclass name, e.g. `Pins`, `SubGates`.
    pub name: String,
    /// Object type of the members (possibly an anonymous type generated for
    /// an inline declaration, see [`Catalog::register_inline_member_type`]).
    pub element_type: String,
}

/// A local relationship-subclass declaration (`types-of-subrels:`).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SubrelSpec {
    /// Subrel name, e.g. `Wires`, `Screwings`.
    pub name: String,
    /// Relationship type of the members.
    pub rel_type: String,
    /// `where` clause checked for each member; inside it the member is bound
    /// to the variable [`crate::expr::REL_VAR`], while `self` paths root at
    /// the *owning* complex object.
    pub member_constraints: Vec<Constraint>,
}

/// An object type (§3), possibly complex (with subclasses/subrels) and
/// possibly an inheritor (§4).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize, Default)]
pub struct ObjectTypeDef {
    /// Type name.
    pub name: String,
    /// `inheritor-in:` declarations — the inheritance-relationship types in
    /// which objects of this type may be (or must be, when bound) inheritors.
    pub inheritor_in: Vec<String>,
    /// Local attributes.
    pub attributes: Vec<AttrDef>,
    /// Local object subclasses.
    pub subclasses: Vec<SubclassSpec>,
    /// Local relationship subclasses.
    pub subrels: Vec<SubrelSpec>,
    /// Local integrity constraints.
    pub constraints: Vec<Constraint>,
}

/// Cardinality and typing of one participant role of a relationship type.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ParticipantSpec {
    /// Role name, e.g. `Pin1`, `Bores`.
    pub name: String,
    /// `set-of` roles accept any number of objects; otherwise exactly one.
    pub many: bool,
    /// `object-of-type T` restricts members to `T`; `object` accepts any.
    pub required_type: Option<String>,
}

impl ParticipantSpec {
    /// Single typed participant (`Pin1: object-of-type PinType`).
    pub fn one(name: &str, ty: &str) -> Self {
        ParticipantSpec {
            name: name.into(),
            many: false,
            required_type: Some(ty.into()),
        }
    }

    /// Single untyped participant (`<name>: object`).
    pub fn one_any(name: &str) -> Self {
        ParticipantSpec {
            name: name.into(),
            many: false,
            required_type: None,
        }
    }

    /// Set-valued typed participant (`Bores: set-of object-of-type BoreType`).
    pub fn many(name: &str, ty: &str) -> Self {
        ParticipantSpec {
            name: name.into(),
            many: true,
            required_type: Some(ty.into()),
        }
    }
}

/// A relationship type (§3). Relationship objects are full objects: they may
/// carry attributes, their own subclasses (§5 `ScrewingType` embeds bolts and
/// nuts) and constraints.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize, Default)]
pub struct RelTypeDef {
    /// Type name.
    pub name: String,
    /// `relates:` clause.
    pub participants: Vec<ParticipantSpec>,
    /// Own attributes of the relationship object.
    pub attributes: Vec<AttrDef>,
    /// Own subclasses of the relationship object.
    pub subclasses: Vec<SubclassSpec>,
    /// Own relationship subclasses of the relationship object (symmetric
    /// with [`ObjectTypeDef::subrels`]).
    pub subrels: Vec<SubrelSpec>,
    /// Constraints over participants, attributes and subclasses.
    pub constraints: Vec<Constraint>,
}

/// An inheritance-relationship type (§4.1).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct InherRelTypeDef {
    /// Type name, e.g. `AllOf_GateInterface`.
    pub name: String,
    /// Type of transmitter objects.
    pub transmitter_type: String,
    /// Required inheritor type; `None` renders the paper's `inheritor:
    /// object` (any type that declares `inheritor-in` this relationship).
    pub inheritor_type: Option<String>,
    /// The *permeability*: names of transmitter attributes/subclasses that
    /// flow through. Each must exist in the transmitter type's effective
    /// schema (so hierarchies can re-export inherited items).
    pub inheriting: Vec<String>,
    /// Own attributes of the relationship object (the paper suggests using
    /// them for consistency bookkeeping; the store also maintains the
    /// built-in adaptation flag).
    pub attributes: Vec<AttrDef>,
    /// Constraints over the relationship object.
    pub constraints: Vec<Constraint>,
}

/// Where an effective schema item comes from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ItemSource {
    /// Declared on the type itself.
    Local,
    /// Inherited through an `inheritor-in` declaration.
    Inherited {
        /// The inheritance-relationship type it flows through.
        via_rel: String,
        /// The (transitive) transmitter type that declares it locally.
        from_type: String,
    },
}

/// The computed effective schema of an object type: local + inherited items.
#[derive(Clone, Debug, Default)]
pub struct EffectiveSchema {
    /// Attribute name → (domain, source). Local declarations win over
    /// inherited ones of the same name (shadowing is rejected at validation,
    /// so in a validated catalog there are no collisions).
    pub attrs: Vec<(String, Domain, ItemSource)>,
    /// Subclass name → (element type, source).
    pub subclasses: Vec<(String, String, ItemSource)>,
}

impl EffectiveSchema {
    /// Find an attribute by name.
    pub fn attr(&self, name: &str) -> Option<(&Domain, &ItemSource)> {
        self.attrs
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, d, s)| (d, s))
    }

    /// Find a subclass by name.
    pub fn subclass(&self, name: &str) -> Option<(&str, &ItemSource)> {
        self.subclasses
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, t, s)| (t.as_str(), s))
    }

    /// Is this item (attribute or subclass) inherited rather than local?
    pub fn is_inherited(&self, name: &str) -> bool {
        self.attr(name)
            .map(|(_, s)| s != &ItemSource::Local)
            .unwrap_or(false)
            || self
                .subclass(name)
                .map(|(_, s)| s != &ItemSource::Local)
                .unwrap_or(false)
    }
}

/// The schema catalog.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Catalog {
    domains: HashMap<String, Domain>,
    object_types: HashMap<String, ObjectTypeDef>,
    rel_types: HashMap<String, RelTypeDef>,
    inher_rel_types: HashMap<String, InherRelTypeDef>,
    anon_counter: u64,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a named domain (`domain Point = …`).
    pub fn register_domain(&mut self, name: &str, domain: Domain) -> CoreResult<()> {
        if self.domains.contains_key(name) {
            return Err(CoreError::Duplicate {
                kind: "domain",
                name: name.into(),
            });
        }
        self.domains.insert(name.to_string(), domain);
        Ok(())
    }

    /// Look up a named domain.
    pub fn domain(&self, name: &str) -> CoreResult<&Domain> {
        self.domains.get(name).ok_or_else(|| CoreError::Unknown {
            kind: "domain",
            name: name.into(),
        })
    }

    /// Register an object type.
    pub fn register_object_type(&mut self, def: ObjectTypeDef) -> CoreResult<()> {
        if self.object_types.contains_key(&def.name)
            || self.rel_types.contains_key(&def.name)
            || self.inher_rel_types.contains_key(&def.name)
        {
            return Err(CoreError::Duplicate {
                kind: "type",
                name: def.name,
            });
        }
        self.object_types.insert(def.name.clone(), def);
        Ok(())
    }

    /// Register a relationship type.
    pub fn register_rel_type(&mut self, def: RelTypeDef) -> CoreResult<()> {
        if self.object_types.contains_key(&def.name)
            || self.rel_types.contains_key(&def.name)
            || self.inher_rel_types.contains_key(&def.name)
        {
            return Err(CoreError::Duplicate {
                kind: "type",
                name: def.name,
            });
        }
        self.rel_types.insert(def.name.clone(), def);
        Ok(())
    }

    /// Register an inheritance-relationship type.
    pub fn register_inher_rel_type(&mut self, def: InherRelTypeDef) -> CoreResult<()> {
        if self.object_types.contains_key(&def.name)
            || self.rel_types.contains_key(&def.name)
            || self.inher_rel_types.contains_key(&def.name)
        {
            return Err(CoreError::Duplicate {
                kind: "type",
                name: def.name,
            });
        }
        self.inher_rel_types.insert(def.name.clone(), def);
        Ok(())
    }

    /// Generate and register an anonymous member type for an inline subclass
    /// declaration, e.g. the paper's
    /// `SubGates: inheritor-in: AllOf_GateInterface; attributes: GateLocation`.
    /// Returns the generated type name (`<owner>.<subclass>`).
    pub fn register_inline_member_type(
        &mut self,
        owner: &str,
        subclass: &str,
        inheritor_in: Vec<String>,
        attributes: Vec<AttrDef>,
    ) -> CoreResult<String> {
        let name = format!("{owner}.{subclass}");
        self.register_object_type(ObjectTypeDef {
            name: name.clone(),
            inheritor_in,
            attributes,
            subclasses: vec![],
            subrels: vec![],
            constraints: vec![],
        })?;
        Ok(name)
    }

    /// Object-type lookup.
    pub fn object_type(&self, name: &str) -> CoreResult<&ObjectTypeDef> {
        self.object_types
            .get(name)
            .ok_or_else(|| CoreError::Unknown {
                kind: "object type",
                name: name.into(),
            })
    }

    /// Relationship-type lookup.
    pub fn rel_type(&self, name: &str) -> CoreResult<&RelTypeDef> {
        self.rel_types.get(name).ok_or_else(|| CoreError::Unknown {
            kind: "relationship type",
            name: name.into(),
        })
    }

    /// Inheritance-relationship-type lookup.
    pub fn inher_rel_type(&self, name: &str) -> CoreResult<&InherRelTypeDef> {
        self.inher_rel_types
            .get(name)
            .ok_or_else(|| CoreError::Unknown {
                kind: "inheritance relationship type",
                name: name.into(),
            })
    }

    /// The object types declaring `inheritor-in` `rel_type`: the only types
    /// whose objects `bind` lets inherit through it.
    pub fn inheritor_types<'a>(&'a self, rel_type: &'a str) -> impl Iterator<Item = &'a str> {
        self.object_types
            .values()
            .filter(move |def| def.inheritor_in.iter().any(|r| r == rel_type))
            .map(|def| def.name.as_str())
    }

    /// Names of all registered domains (sorted).
    pub fn domain_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.domains.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Names of all registered object types (sorted, for stable output).
    pub fn object_type_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.object_types.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Names of all registered relationship types (sorted).
    pub fn rel_type_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.rel_types.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Names of all registered inheritance-relationship types (sorted).
    pub fn inher_rel_type_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.inher_rel_types.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Compute the effective schema of an object type: local attributes and
    /// subclasses plus — for every `inheritor-in` declaration — the
    /// permeable part of the transmitter type's *effective* schema
    /// (transitivity gives interface hierarchies).
    pub fn effective_schema(&self, type_name: &str) -> CoreResult<EffectiveSchema> {
        let mut visiting = HashSet::new();
        self.effective_schema_rec(type_name, &mut visiting)
    }

    fn effective_schema_rec(
        &self,
        type_name: &str,
        visiting: &mut HashSet<String>,
    ) -> CoreResult<EffectiveSchema> {
        if !visiting.insert(type_name.to_string()) {
            return Err(CoreError::InvalidSchema {
                type_name: type_name.into(),
                reason: "type-level inheritance cycle".into(),
            });
        }
        let def = self.object_type(type_name)?;
        let mut eff = EffectiveSchema::default();
        for a in &def.attributes {
            eff.attrs
                .push((a.name.clone(), a.domain.clone(), ItemSource::Local));
        }
        for sc in &def.subclasses {
            eff.subclasses
                .push((sc.name.clone(), sc.element_type.clone(), ItemSource::Local));
        }
        for rel_name in &def.inheritor_in {
            let rel = self.inher_rel_type(rel_name)?;
            let trans_eff = self.effective_schema_rec(&rel.transmitter_type, visiting)?;
            for item in &rel.inheriting {
                if let Some((domain, _)) = trans_eff.attr(item) {
                    if eff.attr(item).is_none() {
                        eff.attrs.push((
                            item.clone(),
                            domain.clone(),
                            ItemSource::Inherited {
                                via_rel: rel_name.clone(),
                                from_type: rel.transmitter_type.clone(),
                            },
                        ));
                    }
                } else if let Some((elem_ty, _)) = trans_eff.subclass(item) {
                    if eff.subclass(item).is_none() {
                        eff.subclasses.push((
                            item.clone(),
                            elem_ty.to_string(),
                            ItemSource::Inherited {
                                via_rel: rel_name.clone(),
                                from_type: rel.transmitter_type.clone(),
                            },
                        ));
                    }
                } else {
                    return Err(CoreError::InvalidSchema {
                        type_name: rel_name.clone(),
                        reason: format!(
                            "inheriting clause names `{item}`, which is neither an attribute \
                             nor a subclass of transmitter type `{}`",
                            rel.transmitter_type
                        ),
                    });
                }
            }
        }
        visiting.remove(type_name);
        Ok(eff)
    }

    /// Validate the whole catalog: every referenced type/domain exists, every
    /// `inheriting:` item resolves, inheritor declarations are consistent,
    /// there are no type-level inheritance cycles, and no local item shadows
    /// an inherited one.
    pub fn validate(&self) -> CoreResult<()> {
        for (name, def) in &self.object_types {
            for sc in &def.subclasses {
                self.object_type(&sc.element_type)
                    .map_err(|_| CoreError::InvalidSchema {
                        type_name: name.clone(),
                        reason: format!(
                            "subclass `{}` references unknown element type `{}`",
                            sc.name, sc.element_type
                        ),
                    })?;
            }
            for sr in &def.subrels {
                self.rel_type(&sr.rel_type)
                    .map_err(|_| CoreError::InvalidSchema {
                        type_name: name.clone(),
                        reason: format!(
                            "subrel `{}` references unknown relationship type `{}`",
                            sr.name, sr.rel_type
                        ),
                    })?;
            }
            for rel_name in &def.inheritor_in {
                // Any type may declare itself an inheritor; a relationship's
                // declared `inheritor:` type is the canonical one, not an
                // exclusive restriction (see §5: WeightCarrying_Structure's
                // inline member types join AllOf_GirderIf as inheritors).
                self.inher_rel_type(rel_name)
                    .map_err(|_| CoreError::InvalidSchema {
                        type_name: name.clone(),
                        reason: format!("inheritor-in references unknown `{rel_name}`"),
                    })?;
            }
            // Computes inherited items, catching cycles and bad `inheriting`
            // clauses.
            self.effective_schema(name)?;
            // No local item may shadow an item flowing in through an
            // `inheritor-in` declaration.
            for rel_name in &def.inheritor_in {
                let rel = self.inher_rel_type(rel_name)?;
                for item in &rel.inheriting {
                    let shadows_attr = def.attributes.iter().any(|a| &a.name == item);
                    let shadows_sub = def.subclasses.iter().any(|sc| &sc.name == item);
                    if shadows_attr || shadows_sub {
                        return Err(CoreError::InvalidSchema {
                            type_name: name.clone(),
                            reason: format!(
                                "local item `{item}` shadows an attribute/subclass inherited \
                                 through `{rel_name}`"
                            ),
                        });
                    }
                }
            }
        }
        for (name, def) in &self.rel_types {
            for p in &def.participants {
                if let Some(t) = &p.required_type {
                    self.object_type(t).map_err(|_| CoreError::InvalidSchema {
                        type_name: name.clone(),
                        reason: format!("participant `{}` references unknown type `{t}`", p.name),
                    })?;
                }
            }
            for sc in &def.subclasses {
                self.object_type(&sc.element_type)
                    .map_err(|_| CoreError::InvalidSchema {
                        type_name: name.clone(),
                        reason: format!(
                            "subclass `{}` references unknown element type `{}`",
                            sc.name, sc.element_type
                        ),
                    })?;
            }
            for sr in &def.subrels {
                self.rel_type(&sr.rel_type)
                    .map_err(|_| CoreError::InvalidSchema {
                        type_name: name.clone(),
                        reason: format!(
                            "subrel `{}` references unknown relationship type `{}`",
                            sr.name, sr.rel_type
                        ),
                    })?;
            }
        }
        for (name, def) in &self.inher_rel_types {
            self.object_type(&def.transmitter_type)
                .map_err(|_| CoreError::InvalidSchema {
                    type_name: name.clone(),
                    reason: format!("unknown transmitter type `{}`", def.transmitter_type),
                })?;
            if let Some(t) = &def.inheritor_type {
                let inheritor = self.object_type(t).map_err(|_| CoreError::InvalidSchema {
                    type_name: name.clone(),
                    reason: format!("unknown inheritor type `{t}`"),
                })?;
                if !inheritor.inheritor_in.iter().any(|r| r == name) {
                    return Err(CoreError::InvalidSchema {
                        type_name: name.clone(),
                        reason: format!(
                            "inheritor type `{t}` does not declare `inheritor-in: {name}`"
                        ),
                    });
                }
            }
            // `inheriting` items must resolve against the transmitter's
            // effective schema.
            let trans_eff = self.effective_schema(&def.transmitter_type)?;
            for item in &def.inheriting {
                if trans_eff.attr(item).is_none() && trans_eff.subclass(item).is_none() {
                    return Err(CoreError::InvalidSchema {
                        type_name: name.clone(),
                        reason: format!(
                            "inheriting clause names unknown item `{item}` of `{}`",
                            def.transmitter_type
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Does `rel_type` let attribute/subclass `item` through? (Permeability.)
    pub fn is_permeable(&self, rel_type: &str, item: &str) -> bool {
        self.inher_rel_types
            .get(rel_type)
            .map(|r| r.inheriting.iter().any(|i| i == item))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §4.2 chip-design schema, reduced to what the catalog
    /// needs: GateInterface_I → GateInterface → GateImplementation.
    fn chip_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_object_type(ObjectTypeDef {
            name: "PinType".into(),
            attributes: vec![
                AttrDef::new("InOut", Domain::Enum(vec!["IN".into(), "OUT".into()])),
                AttrDef::new("PinLocation", Domain::Point),
            ],
            ..Default::default()
        })
        .unwrap();
        c.register_object_type(ObjectTypeDef {
            name: "GateInterface_I".into(),
            subclasses: vec![SubclassSpec {
                name: "Pins".into(),
                element_type: "PinType".into(),
            }],
            ..Default::default()
        })
        .unwrap();
        c.register_inher_rel_type(InherRelTypeDef {
            name: "AllOf_GateInterface_I".into(),
            transmitter_type: "GateInterface_I".into(),
            inheritor_type: None,
            inheriting: vec!["Pins".into()],
            attributes: vec![],
            constraints: vec![],
        })
        .unwrap();
        c.register_object_type(ObjectTypeDef {
            name: "GateInterface".into(),
            inheritor_in: vec!["AllOf_GateInterface_I".into()],
            attributes: vec![
                AttrDef::new("Length", Domain::Int),
                AttrDef::new("Width", Domain::Int),
            ],
            ..Default::default()
        })
        .unwrap();
        c.register_inher_rel_type(InherRelTypeDef {
            name: "AllOf_GateInterface".into(),
            transmitter_type: "GateInterface".into(),
            inheritor_type: None,
            // Re-exports Pins, which GateInterface itself inherits.
            inheriting: vec!["Length".into(), "Width".into(), "Pins".into()],
            attributes: vec![],
            constraints: vec![],
        })
        .unwrap();
        c.register_object_type(ObjectTypeDef {
            name: "GateImplementation".into(),
            inheritor_in: vec!["AllOf_GateInterface".into()],
            attributes: vec![AttrDef::new(
                "Function",
                Domain::MatrixOf(Box::new(Domain::Bool)),
            )],
            ..Default::default()
        })
        .unwrap();
        c
    }

    #[test]
    fn effective_schema_is_transitive() {
        let c = chip_catalog();
        let eff = c.effective_schema("GateImplementation").unwrap();
        // Local:
        assert!(matches!(eff.attr("Function"), Some((_, ItemSource::Local))));
        // Inherited one hop:
        let (_, src) = eff.attr("Length").expect("Length inherited");
        assert_eq!(
            src,
            &ItemSource::Inherited {
                via_rel: "AllOf_GateInterface".into(),
                from_type: "GateInterface".into()
            }
        );
        // Inherited two hops (Pins flows GateInterface_I → GateInterface →
        // GateImplementation):
        let (elem, src) = eff.subclass("Pins").expect("Pins inherited transitively");
        assert_eq!(elem, "PinType");
        assert!(matches!(src, ItemSource::Inherited { .. }));
        assert!(eff.is_inherited("Pins"));
        assert!(!eff.is_inherited("Function"));
    }

    #[test]
    fn validate_accepts_paper_schema() {
        chip_catalog().validate().unwrap();
    }

    #[test]
    fn unknown_transmitter_rejected() {
        let mut c = Catalog::new();
        c.register_inher_rel_type(InherRelTypeDef {
            name: "AllOf_Ghost".into(),
            transmitter_type: "Ghost".into(),
            inheritor_type: None,
            inheriting: vec![],
            attributes: vec![],
            constraints: vec![],
        })
        .unwrap();
        assert!(matches!(c.validate(), Err(CoreError::InvalidSchema { .. })));
    }

    #[test]
    fn inheriting_unknown_item_rejected() {
        let mut c = chip_catalog();
        c.register_inher_rel_type(InherRelTypeDef {
            name: "SomeOf_Gate".into(),
            transmitter_type: "GateInterface".into(),
            inheritor_type: None,
            inheriting: vec!["TimeBehavior".into()], // not on GateInterface
            attributes: vec![],
            constraints: vec![],
        })
        .unwrap();
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("TimeBehavior"), "{err}");
    }

    #[test]
    fn inheritor_type_must_declare_inheritor_in() {
        let mut c = chip_catalog();
        c.register_object_type(ObjectTypeDef {
            name: "Rogue".into(),
            ..Default::default()
        })
        .unwrap();
        c.register_inher_rel_type(InherRelTypeDef {
            name: "AllOf_ForRogue".into(),
            transmitter_type: "GateInterface".into(),
            inheritor_type: Some("Rogue".into()),
            inheriting: vec!["Length".into()],
            attributes: vec![],
            constraints: vec![],
        })
        .unwrap();
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("inheritor-in"), "{err}");
    }

    #[test]
    fn type_level_cycle_detected() {
        let mut c = Catalog::new();
        c.register_object_type(ObjectTypeDef {
            name: "A".into(),
            inheritor_in: vec!["RelB".into()],
            attributes: vec![AttrDef::new("X", Domain::Int)],
            ..Default::default()
        })
        .unwrap();
        c.register_object_type(ObjectTypeDef {
            name: "B".into(),
            inheritor_in: vec!["RelA".into()],
            attributes: vec![AttrDef::new("Y", Domain::Int)],
            ..Default::default()
        })
        .unwrap();
        c.register_inher_rel_type(InherRelTypeDef {
            name: "RelB".into(),
            transmitter_type: "B".into(),
            inheritor_type: None,
            inheriting: vec!["Y".into()],
            attributes: vec![],
            constraints: vec![],
        })
        .unwrap();
        c.register_inher_rel_type(InherRelTypeDef {
            name: "RelA".into(),
            transmitter_type: "A".into(),
            inheritor_type: None,
            inheriting: vec!["X".into()],
            attributes: vec![],
            constraints: vec![],
        })
        .unwrap();
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn shadowing_inherited_attr_rejected() {
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
            attributes: vec![AttrDef::new("Length", Domain::Int)], // shadows!
            ..Default::default()
        })
        .unwrap();
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("shadows"), "{err}");
    }

    #[test]
    fn duplicate_names_rejected_across_kinds() {
        let mut c = Catalog::new();
        c.register_object_type(ObjectTypeDef {
            name: "T".into(),
            ..Default::default()
        })
        .unwrap();
        assert!(c
            .register_rel_type(RelTypeDef {
                name: "T".into(),
                ..Default::default()
            })
            .is_err());
        assert!(c
            .register_object_type(ObjectTypeDef {
                name: "T".into(),
                ..Default::default()
            })
            .is_err());
    }

    #[test]
    fn permeability_lookup() {
        let c = chip_catalog();
        assert!(c.is_permeable("AllOf_GateInterface", "Length"));
        assert!(c.is_permeable("AllOf_GateInterface", "Pins"));
        assert!(!c.is_permeable("AllOf_GateInterface", "Function"));
        assert!(!c.is_permeable("NoSuchRel", "Length"));
    }

    #[test]
    fn inline_member_type_registration() {
        let mut c = chip_catalog();
        let name = c
            .register_inline_member_type(
                "GateImplementation",
                "SubGates",
                vec!["AllOf_GateInterface".into()],
                vec![AttrDef::new("GateLocation", Domain::Point)],
            )
            .unwrap();
        assert_eq!(name, "GateImplementation.SubGates");
        let eff = c.effective_schema(&name).unwrap();
        assert!(eff.attr("GateLocation").is_some());
        assert!(eff.attr("Length").is_some(), "inherits interface attrs");
        assert!(eff.subclass("Pins").is_some());
    }

    #[test]
    fn domains_register_and_resolve() {
        let mut c = Catalog::new();
        c.register_domain("IO", Domain::Enum(vec!["IN".into(), "OUT".into()]))
            .unwrap();
        assert!(c.domain("IO").is_ok());
        assert!(c.register_domain("IO", Domain::Int).is_err());
        assert!(c.domain("Nope").is_err());
    }

    #[test]
    fn serde_roundtrip_of_catalog() {
        let c = chip_catalog();
        let json = serde_json::to_string(&c).unwrap();
        let back: Catalog = serde_json::from_str(&json).unwrap();
        back.validate().unwrap();
        assert_eq!(back.object_type_names(), c.object_type_names());
    }
}
