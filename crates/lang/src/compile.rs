//! Lowering from the parsed AST to the `ccdb-core` catalog.
//!
//! Responsibilities beyond mechanical translation:
//!
//! - **Enum-literal disambiguation**: a bare identifier in an expression is
//!   an enum literal iff it appears in a previously declared enum domain
//!   (e.g. `IN`, `NAND`, `wood`); otherwise it is a self-rooted path.
//! - **Variable resolution**: `for` bindings and the subrel member alias
//!   (e.g. `Wire` in `Wires: WireType where Wire.Pin1 in …`) become
//!   variable-rooted paths; the member alias maps to [`REL_VAR`].
//! - **`count … where` attachment**: the paper writes
//!   `count (Pins) = 2 where Pins.InOut = IN`; the trailing filter is
//!   attached to the `count` node, with element-rooted paths rewritten to
//!   [`ELEM_VAR`].
//! - **Inline member types**: inline subclass declarations generate
//!   anonymous object types named `<owner>.<subclass>`.

use std::collections::{HashMap, HashSet};

use ccdb_core::domain::Domain;
use ccdb_core::expr::{BinOp, Expr, PathExpr, PathRoot, ELEM_VAR, REL_VAR};
use ccdb_core::schema::{
    AttrDef, Catalog, Constraint, InherRelTypeDef, ObjectTypeDef, ParticipantSpec, RelTypeDef,
    SubclassSpec, SubrelSpec,
};
use ccdb_core::value::Value;

use crate::ast::*;

/// Compilation error.
#[derive(Clone, PartialEq, Debug)]
pub struct CompileError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

fn cerr<T>(msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError {
        message: msg.into(),
    })
}

/// Compile parsed declarations into `catalog`. Call
/// [`Catalog::validate`] (or build an `ObjectStore`) afterwards.
pub fn compile(decls: &[Decl], catalog: &mut Catalog) -> Result<(), CompileError> {
    let mut cx = Cx {
        enum_literals: catalog_literals(catalog),
        catalog,
    };
    // Pre-scan the whole chunk for enum literals so constraint lowering is
    // insensitive to declaration order.
    for d in decls {
        prescan_literals(d, &mut cx.enum_literals);
    }
    for d in decls {
        cx.decl(d)?;
    }
    Ok(())
}

fn prescan_literals(d: &Decl, out: &mut HashSet<String>) {
    fn walk(d: &DomainExpr, out: &mut HashSet<String>) {
        match d {
            DomainExpr::Enum(lits) => out.extend(lits.iter().cloned()),
            DomainExpr::Record(groups) => groups.iter().for_each(|(_, fd)| walk(fd, out)),
            DomainExpr::SetOf(i) | DomainExpr::ListOf(i) | DomainExpr::MatrixOf(i) => walk(i, out),
            _ => {}
        }
    }
    let attr_groups: &[AttrGroup] = match d {
        Decl::Domain { body, .. } => {
            walk(body, out);
            &[]
        }
        Decl::ObjType(t) => {
            for sc in &t.subclasses {
                if let SubclassDecl::Inline { attributes, .. } = sc {
                    for g in attributes {
                        walk(&g.domain, out);
                    }
                }
            }
            &t.attributes
        }
        Decl::RelType(t) => {
            for sc in &t.subclasses {
                if let SubclassDecl::Inline { attributes, .. } = sc {
                    for g in attributes {
                        walk(&g.domain, out);
                    }
                }
            }
            &t.attributes
        }
        Decl::InherRelType(t) => &t.attributes,
    };
    for g in attr_groups {
        walk(&g.domain, out);
    }
}

struct Cx<'a> {
    catalog: &'a mut Catalog,
    enum_literals: HashSet<String>,
}

/// The enum literals already known to the catalog (so incremental
/// `compile_str` calls and queries resolve literals from earlier chunks).
fn catalog_literals(catalog: &Catalog) -> HashSet<String> {
    fn walk(d: &Domain, out: &mut HashSet<String>) {
        match d {
            Domain::Enum(lits) => out.extend(lits.iter().cloned()),
            Domain::Record(fields) => fields.iter().for_each(|(_, fd)| walk(fd, out)),
            Domain::ListOf(i) | Domain::SetOf(i) | Domain::MatrixOf(i) => walk(i, out),
            _ => {}
        }
    }
    let mut lits = HashSet::new();
    for name in catalog.object_type_names() {
        if let Ok(def) = catalog.object_type(name) {
            for a in &def.attributes {
                walk(&a.domain, &mut lits);
            }
        }
    }
    for name in catalog.rel_type_names() {
        if let Ok(def) = catalog.rel_type(name) {
            for a in &def.attributes {
                walk(&a.domain, &mut lits);
            }
        }
    }
    // Named domains are not enumerable through the public API piecemeal;
    // attribute domains cover the constraint use cases.
    lits
}

impl<'a> Cx<'a> {
    fn decl(&mut self, d: &Decl) -> Result<(), CompileError> {
        match d {
            Decl::Domain { name, body } => {
                let domain = if name == "Point" && is_point_record(body) {
                    Domain::Point
                } else {
                    self.domain(body)?
                };
                self.catalog
                    .register_domain(name, domain)
                    .map_err(|e| CompileError {
                        message: e.to_string(),
                    })
            }
            Decl::ObjType(t) => self.obj_type(t),
            Decl::RelType(t) => self.rel_type(t),
            Decl::InherRelType(t) => self.inher_rel_type(t),
        }
    }

    fn domain(&mut self, d: &DomainExpr) -> Result<Domain, CompileError> {
        Ok(match d {
            DomainExpr::Int => Domain::Int,
            DomainExpr::Bool => Domain::Bool,
            DomainExpr::Text => Domain::Text,
            DomainExpr::Named(n) => {
                if n == "Point" {
                    Domain::Point
                } else {
                    match self.catalog.domain(n) {
                        Ok(found) => found.clone(),
                        Err(_) => return cerr(format!("unknown domain `{n}`")),
                    }
                }
            }
            DomainExpr::Enum(lits) => {
                self.enum_literals.extend(lits.iter().cloned());
                Domain::Enum(lits.clone())
            }
            DomainExpr::Record(groups) => {
                let mut fields = Vec::new();
                for (names, fd) in groups {
                    let lowered = self.domain(fd)?;
                    for n in names {
                        fields.push((n.clone(), lowered.clone()));
                    }
                }
                Domain::Record(fields)
            }
            DomainExpr::SetOf(i) => Domain::SetOf(Box::new(self.domain(i)?)),
            DomainExpr::ListOf(i) => Domain::ListOf(Box::new(self.domain(i)?)),
            DomainExpr::MatrixOf(i) => Domain::MatrixOf(Box::new(self.domain(i)?)),
        })
    }

    fn attrs(&mut self, groups: &[AttrGroup]) -> Result<Vec<AttrDef>, CompileError> {
        let mut out = Vec::new();
        for g in groups {
            let d = self.domain(&g.domain)?;
            for n in &g.names {
                out.push(AttrDef {
                    name: n.clone(),
                    domain: d.clone(),
                });
            }
        }
        Ok(out)
    }

    fn subclasses(
        &mut self,
        owner: &str,
        decls: &[SubclassDecl],
    ) -> Result<Vec<SubclassSpec>, CompileError> {
        let mut out = Vec::new();
        for sc in decls {
            match sc {
                SubclassDecl::Named { name, element_type } => out.push(SubclassSpec {
                    name: name.clone(),
                    element_type: element_type.clone(),
                }),
                SubclassDecl::Inline {
                    name,
                    inheritor_in,
                    attributes,
                } => {
                    let attrs = self.attrs(attributes)?;
                    let member_type = self
                        .catalog
                        .register_inline_member_type(owner, name, inheritor_in.clone(), attrs)
                        .map_err(|e| CompileError {
                            message: e.to_string(),
                        })?;
                    out.push(SubclassSpec {
                        name: name.clone(),
                        element_type: member_type,
                    });
                }
            }
        }
        Ok(out)
    }

    fn obj_type(&mut self, t: &ObjTypeDecl) -> Result<(), CompileError> {
        let attributes = self.attrs(&t.attributes)?;
        let subclasses = self.subclasses(&t.name, &t.subclasses)?;
        let mut subrels = Vec::new();
        for sr in &t.subrels {
            let member_constraints = match &sr.where_expr {
                None => vec![],
                Some(w) => {
                    let aliases = subrel_aliases(&sr.name, &sr.rel_type);
                    let mut member_items = HashSet::new();
                    if let Ok(rt) = self.catalog.rel_type(&sr.rel_type) {
                        member_items.extend(rt.participants.iter().map(|p| p.name.clone()));
                        member_items.extend(rt.attributes.iter().map(|a| a.name.clone()));
                        member_items.extend(rt.subclasses.iter().map(|sc| sc.name.clone()));
                    }
                    let scope = Scope {
                        vars: HashSet::new(),
                        aliases,
                        member_items,
                    };
                    let expr = self.expr(w, &scope)?;
                    vec![Constraint::named(
                        &format!("{} where-clause", sr.name),
                        expr,
                    )]
                }
            };
            subrels.push(SubrelSpec {
                name: sr.name.clone(),
                rel_type: sr.rel_type.clone(),
                member_constraints,
            });
        }
        let constraints = self.constraints(&t.constraints)?;
        self.catalog
            .register_object_type(ObjectTypeDef {
                name: t.name.clone(),
                inheritor_in: t.inheritor_in.clone(),
                attributes,
                subclasses,
                subrels,
                constraints,
            })
            .map_err(|e| CompileError {
                message: e.to_string(),
            })
    }

    fn rel_type(&mut self, t: &RelTypeDecl) -> Result<(), CompileError> {
        let mut participants = Vec::new();
        for p in &t.participants {
            for n in &p.names {
                participants.push(ParticipantSpec {
                    name: n.clone(),
                    many: p.many,
                    required_type: p.of_type.clone(),
                });
            }
        }
        let attributes = self.attrs(&t.attributes)?;
        let subclasses = self.subclasses(&t.name, &t.subclasses)?;
        let constraints = self.constraints(&t.constraints)?;
        self.catalog
            .register_rel_type(RelTypeDef {
                name: t.name.clone(),
                participants,
                attributes,
                subclasses,
                subrels: vec![],
                constraints,
            })
            .map_err(|e| CompileError {
                message: e.to_string(),
            })
    }

    fn inher_rel_type(&mut self, t: &InherRelDecl) -> Result<(), CompileError> {
        let attributes = self.attrs(&t.attributes)?;
        self.catalog
            .register_inher_rel_type(InherRelTypeDef {
                name: t.name.clone(),
                transmitter_type: t.transmitter_type.clone(),
                inheritor_type: t.inheritor_type.clone(),
                inheriting: t.inheriting.clone(),
                attributes,
                constraints: vec![],
            })
            .map_err(|e| CompileError {
                message: e.to_string(),
            })
    }

    fn constraints(&mut self, decls: &[ConstraintDecl]) -> Result<Vec<Constraint>, CompileError> {
        let mut out = Vec::new();
        for c in decls {
            let mut scope = Scope::default();
            for (v, _) in &c.bindings {
                scope.vars.insert(v.clone());
            }
            let mut expr = self.expr(&c.expr, &scope)?;
            if let Some(w) = &c.where_expr {
                expr = self.attach_count_filter(expr, w, &scope)?;
            }
            if !c.bindings.is_empty() {
                // Binding paths are resolved in the *outer* scope (no vars).
                let outer = Scope::default();
                let mut bindings = Vec::new();
                for (v, p) in &c.bindings {
                    bindings.push((v.clone(), self.class_path(p, &outer)));
                }
                expr = Expr::ForAll {
                    bindings,
                    body: Box::new(expr),
                };
            }
            out.push(Constraint::new(expr));
        }
        Ok(out)
    }

    /// Attach a trailing `where` filter to the first `count` node of `expr`
    /// (the paper's `count (Pins) = 2 where Pins.InOut = IN` form).
    fn attach_count_filter(
        &mut self,
        expr: Expr,
        filter: &LExpr,
        scope: &Scope,
    ) -> Result<Expr, CompileError> {
        // Locate the count path to know the element alias.
        fn find_count(e: &Expr) -> Option<&PathExpr> {
            match e {
                Expr::Count { path, .. } => Some(path),
                Expr::Binary { lhs, rhs, .. } => find_count(lhs).or_else(|| find_count(rhs)),
                Expr::Not(i) | Expr::Neg(i) => find_count(i),
                _ => None,
            }
        }
        let Some(count_path) = find_count(&expr) else {
            return cerr("`where` filter without a count(...) to attach it to");
        };
        let elem_alias = count_path.segments.last().cloned().ok_or(CompileError {
            message: "count over empty path".into(),
        })?;
        let mut filter_scope = scope.clone();
        filter_scope
            .aliases
            .insert(elem_alias, ELEM_VAR.to_string());
        let lowered = self.expr(filter, &filter_scope)?;

        fn attach(e: Expr, filter: &Expr, done: &mut bool) -> Expr {
            match e {
                Expr::Count { path, filter: None } if !*done => {
                    *done = true;
                    Expr::Count {
                        path,
                        filter: Some(Box::new(filter.clone())),
                    }
                }
                Expr::Binary { op, lhs, rhs } => {
                    let lhs = attach(*lhs, filter, done);
                    let rhs = attach(*rhs, filter, done);
                    Expr::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    }
                }
                Expr::Not(i) => Expr::Not(Box::new(attach(*i, filter, done))),
                Expr::Neg(i) => Expr::Neg(Box::new(attach(*i, filter, done))),
                other => other,
            }
        }
        let mut done = false;
        Ok(attach(expr, &lowered, &mut done))
    }

    fn class_path(&self, segs: &[String], scope: &Scope) -> PathExpr {
        self.lower_path(segs, scope)
    }

    fn lower_path(&self, segs: &[String], scope: &Scope) -> PathExpr {
        let first = &segs[0];
        if let Some(var) = scope.aliases.get(first) {
            return PathExpr {
                root: PathRoot::Var(var.clone()),
                segments: segs[1..].to_vec(),
            };
        }
        if scope.vars.contains(first) {
            return PathExpr {
                root: PathRoot::Var(first.clone()),
                segments: segs[1..].to_vec(),
            };
        }
        if scope.member_items.contains(first) {
            return PathExpr {
                root: PathRoot::Var(REL_VAR.into()),
                segments: segs.to_vec(),
            };
        }
        PathExpr {
            root: PathRoot::SelfObject,
            segments: segs.to_vec(),
        }
    }

    fn expr(&mut self, e: &LExpr, scope: &Scope) -> Result<Expr, CompileError> {
        Ok(match e {
            LExpr::Int(i) => Expr::Lit(Value::Int(*i)),
            LExpr::Str(s) => Expr::Lit(Value::Str(s.clone())),
            LExpr::Path(segs) => {
                // A bare identifier naming a known enum literal is a literal.
                if segs.len() == 1
                    && !scope.vars.contains(&segs[0])
                    && !scope.aliases.contains_key(&segs[0])
                    && self.enum_literals.contains(&segs[0])
                {
                    Expr::Lit(Value::Enum(segs[0].clone()))
                } else {
                    Expr::Path(self.lower_path(segs, scope))
                }
            }
            LExpr::Count(path) => Expr::Count {
                path: self.lower_path(path, scope),
                filter: None,
            },
            LExpr::HashCount { path, .. } => Expr::Count {
                path: self.lower_path(path, scope),
                filter: None,
            },
            LExpr::Agg { op, path } => {
                let p = self.lower_path(path, scope);
                match op {
                    LAgg::Sum => Expr::Sum(p),
                    LAgg::Min => Expr::Min(p),
                    LAgg::Max => Expr::Max(p),
                }
            }
            LExpr::Neg(i) => Expr::Neg(Box::new(self.expr(i, scope)?)),
            LExpr::Not(i) => Expr::Not(Box::new(self.expr(i, scope)?)),
            LExpr::Binary { op, lhs, rhs } => Expr::Binary {
                op: lower_binop(*op),
                lhs: Box::new(self.expr(lhs, scope)?),
                rhs: Box::new(self.expr(rhs, scope)?),
            },
            LExpr::In { item, path } => Expr::InClass {
                item: Box::new(self.expr(item, scope)?),
                class: self.lower_path(path, scope),
            },
            LExpr::ForAll { bindings, body } => {
                let mut inner = scope.clone();
                let mut lowered = Vec::new();
                for (v, p) in bindings {
                    lowered.push((v.clone(), self.lower_path(p, scope)));
                    inner.vars.insert(v.clone());
                }
                Expr::ForAll {
                    bindings: lowered,
                    body: Box::new(self.expr(body, &inner)?),
                }
            }
        })
    }
}

#[derive(Clone, Default)]
struct Scope {
    /// Quantifier-bound variables.
    vars: HashSet<String>,
    /// Alias → canonical variable (subrel member alias, count element).
    aliases: HashMap<String, String>,
    /// Item names (participants/attributes/subclasses) of the subrel member
    /// type: a path starting with one of these roots at [`REL_VAR`] *keeping*
    /// the segment (`Bores` in the §5 `Screwings` where-clause).
    member_items: HashSet<String>,
}

/// The identifiers a subrel `where` clause may use for the member under
/// test: the subrel name, the relationship type name, and the type name
/// minus a trailing `Type`/`type` (the paper writes `Wire` for `WireType`
/// members of subclass `Wires`). Singular of a plural subrel name works too
/// (`Wires` → `Wire`).
fn subrel_aliases(subrel: &str, rel_type: &str) -> HashMap<String, String> {
    let mut m = HashMap::new();
    m.insert(subrel.to_string(), REL_VAR.to_string());
    m.insert(rel_type.to_string(), REL_VAR.to_string());
    for suffix in ["Type", "type"] {
        if let Some(stripped) = rel_type.strip_suffix(suffix) {
            if !stripped.is_empty() {
                m.insert(stripped.to_string(), REL_VAR.to_string());
            }
        }
    }
    if let Some(singular) = subrel.strip_suffix('s') {
        if !singular.is_empty() {
            m.insert(singular.to_string(), REL_VAR.to_string());
        }
    }
    m
}

fn is_point_record(d: &DomainExpr) -> bool {
    matches!(
        d,
        DomainExpr::Record(groups)
            if groups.iter().map(|(ns, _)| ns.len()).sum::<usize>() == 2
    )
}

fn lower_binop(op: LBinOp) -> BinOp {
    match op {
        LBinOp::Add => BinOp::Add,
        LBinOp::Sub => BinOp::Sub,
        LBinOp::Mul => BinOp::Mul,
        LBinOp::Div => BinOp::Div,
        LBinOp::Eq => BinOp::Eq,
        LBinOp::Ne => BinOp::Ne,
        LBinOp::Lt => BinOp::Lt,
        LBinOp::Le => BinOp::Le,
        LBinOp::Gt => BinOp::Gt,
        LBinOp::Ge => BinOp::Ge,
        LBinOp::And => BinOp::And,
        LBinOp::Or => BinOp::Or,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_src(src: &str) -> Catalog {
        let mut c = Catalog::new();
        compile(&parse(src).unwrap(), &mut c).unwrap();
        c
    }

    #[test]
    fn simple_gate_compiles_with_filtered_count() {
        let c = compile_src(
            r#"
            domain I/O = (IN, OUT);
            obj-type SimpleGate =
                attributes:
                    Length, Width: integer;
                    Function: (AND, OR, NOR, NAND);
                    Pins: set-of ( PinId: integer; InOut: I/O; );
                constraints:
                    count (Pins) = 2 where Pins.InOut = IN;
            end SimpleGate;
            "#,
        );
        let def = c.object_type("SimpleGate").unwrap();
        assert_eq!(def.attributes.len(), 4);
        assert_eq!(def.attributes[0].name, "Length");
        assert!(matches!(def.attributes[3].domain, Domain::SetOf(_)));
        // Constraint: count with attached filter comparing to enum literal.
        let Expr::Binary {
            op: BinOp::Eq, lhs, ..
        } = &def.constraints[0].expr
        else {
            panic!("expected comparison")
        };
        let Expr::Count {
            filter: Some(f), ..
        } = lhs.as_ref()
        else {
            panic!("expected count with filter: {lhs:?}")
        };
        let Expr::Binary {
            lhs: fl, rhs: fr, ..
        } = f.as_ref()
        else {
            panic!()
        };
        assert!(
            matches!(fl.as_ref(), Expr::Path(p) if p.root == PathRoot::Var(ELEM_VAR.into())),
            "{fl:?}"
        );
        assert_eq!(fr.as_ref(), &Expr::Lit(Value::Enum("IN".into())));
    }

    #[test]
    fn point_domain_lowered_to_builtin() {
        let c = compile_src("domain Point = (X, Y: integer);");
        assert_eq!(c.domain("Point").unwrap(), &Domain::Point);
    }

    #[test]
    fn subrel_where_clause_binds_member_alias() {
        let c = compile_src(
            r#"
            obj-type PinType = attributes: Id: integer; end PinType;
            rel-type WireType =
                relates: Pin1, Pin2: object-of-type PinType;
            end WireType;
            obj-type Gate =
                types-of-subclasses:
                    Pins: PinType;
                types-of-subrels:
                    Wires: WireType
                        where Wire.Pin1 in Pins and Wire.Pin2 in Pins;
            end Gate;
            "#,
        );
        let def = c.object_type("Gate").unwrap();
        let sr = &def.subrels[0];
        assert_eq!(sr.rel_type, "WireType");
        let Expr::Binary { lhs, .. } = &sr.member_constraints[0].expr else {
            panic!()
        };
        let Expr::InClass { item, class } = lhs.as_ref() else {
            panic!("{lhs:?}")
        };
        let Expr::Path(p) = item.as_ref() else {
            panic!()
        };
        assert_eq!(
            p.root,
            PathRoot::Var(REL_VAR.into()),
            "`Wire.` → member var"
        );
        assert_eq!(p.segments, vec!["Pin1"]);
        assert_eq!(class.root, PathRoot::SelfObject);
    }

    #[test]
    fn inline_subclass_generates_member_type() {
        let c = compile_src(
            r#"
            obj-type GateInterface =
                attributes: Length, Width: integer;
            end GateInterface;
            inher-rel-type AllOf_GateInterface =
                transmitter: object-of-type GateInterface;
                inheritor: object;
                inheriting: Length, Width;
            end AllOf_GateInterface;
            obj-type GateImplementation =
                inheritor-in: AllOf_GateInterface;
                types-of-subclasses:
                    SubGates:
                        inheritor-in: AllOf_GateInterface;
                        attributes:
                            GateLocation: Point;
            end GateImplementation;
            "#,
        );
        c.validate().unwrap();
        let member = c.object_type("GateImplementation.SubGates").unwrap();
        assert_eq!(member.inheritor_in, vec!["AllOf_GateInterface"]);
        assert_eq!(member.attributes[0].name, "GateLocation");
        assert_eq!(member.attributes[0].domain, Domain::Point);
        let owner = c.object_type("GateImplementation").unwrap();
        assert_eq!(
            owner.subclasses[0].element_type,
            "GateImplementation.SubGates"
        );
    }

    #[test]
    fn accumulated_for_bindings_quantify_constraints() {
        let c = compile_src(
            r#"
            obj-type BoltPart = attributes: Diameter, Length: integer; end BoltPart;
            rel-type ScrewingType =
                relates: Bores: set-of object-of-type BoltPart;
                types-of-subclasses:
                    Bolt: BoltPart;
                    Nut: BoltPart;
                constraints:
                    #s in Bolt = 1;
                    for (s in Bolt, n in Nut):
                        s.Diameter = n.Diameter;
                    for b in Bores:
                        s.Diameter <= b.Diameter;
            end ScrewingType;
            "#,
        );
        let def = c.rel_type("ScrewingType").unwrap();
        // First: plain count.
        assert!(matches!(&def.constraints[0].expr, Expr::Binary { .. }));
        // Second: ForAll over (s, n).
        let Expr::ForAll { bindings, .. } = &def.constraints[1].expr else {
            panic!()
        };
        assert_eq!(bindings.len(), 2);
        // Third: ForAll over (s, n, b).
        let Expr::ForAll { bindings, body } = &def.constraints[2].expr else {
            panic!()
        };
        assert_eq!(bindings.len(), 3);
        let Expr::Binary {
            op: BinOp::Le,
            lhs,
            rhs,
        } = body.as_ref()
        else {
            panic!()
        };
        assert!(matches!(lhs.as_ref(), Expr::Path(p) if p.root == PathRoot::Var("s".into())));
        assert!(matches!(rhs.as_ref(), Expr::Path(p) if p.root == PathRoot::Var("b".into())));
    }

    #[test]
    fn enum_literals_resolve_across_incremental_compiles() {
        let mut c = Catalog::new();
        compile(
            &parse("obj-type Plate = attributes: Material: (wood, metal); end Plate;").unwrap(),
            &mut c,
        )
        .unwrap();
        // Second chunk uses `wood` in a constraint — must resolve as a literal.
        compile(
            &parse(
                "obj-type Check = attributes: M: (wood, metal); constraints: M = wood; end Check;",
            )
            .unwrap(),
            &mut c,
        )
        .unwrap();
        let def = c.object_type("Check").unwrap();
        let Expr::Binary { rhs, .. } = &def.constraints[0].expr else {
            panic!()
        };
        assert_eq!(rhs.as_ref(), &Expr::Lit(Value::Enum("wood".into())));
    }

    #[test]
    fn unknown_domain_is_an_error() {
        let mut c = Catalog::new();
        let decls = parse("obj-type T = attributes: X: NoSuchDomain; end T;").unwrap();
        let err = compile(&decls, &mut c).unwrap_err();
        assert!(err.to_string().contains("NoSuchDomain"));
    }

    #[test]
    fn where_without_count_is_an_error() {
        let mut c = Catalog::new();
        let decls =
            parse("obj-type T = attributes: X: integer; constraints: X = 1 where X = 2; end T;")
                .unwrap();
        let err = compile(&decls, &mut c).unwrap_err();
        assert!(err.to_string().contains("count"), "{err}");
    }
}

/// Lower a stand-alone query expression against an existing catalog (no
/// bound variables; enum literals resolved from the catalog's domains).
pub fn lower_query_expr(
    ast: &LExpr,
    catalog: &Catalog,
) -> Result<ccdb_core::expr::Expr, CompileError> {
    // Lowering an expression reads only the enum literals; the catalog in
    // `Cx` is there for declarations to register into, so it stays empty.
    let mut unused = Catalog::default();
    let mut cx = Cx {
        catalog: &mut unused,
        enum_literals: catalog_literals(catalog),
    };
    cx.expr(ast, &Scope::default())
}

#[cfg(test)]
mod query_tests {
    use crate::compile_expr;
    use crate::compile_str;
    use ccdb_core::expr::{Expr, PathRoot};
    use ccdb_core::schema::Catalog;
    use ccdb_core::value::Value;

    #[test]
    fn query_expr_resolves_enum_literals_from_catalog() {
        let mut c = Catalog::new();
        compile_str(
            "obj-type Pin = attributes: InOut: (IN, OUT); Id: integer; end Pin;",
            &mut c,
        )
        .unwrap();
        let q = compile_expr("InOut = IN and Id > 3", &c).unwrap();
        let Expr::Binary { lhs, .. } = &q else {
            panic!()
        };
        let Expr::Binary { rhs, .. } = lhs.as_ref() else {
            panic!()
        };
        assert_eq!(rhs.as_ref(), &Expr::Lit(Value::Enum("IN".into())));
    }

    #[test]
    fn query_expr_paths_root_at_subject() {
        let c = Catalog::new();
        let q = compile_expr("Length >= 10", &c).unwrap();
        let Expr::Binary { lhs, .. } = &q else {
            panic!()
        };
        let Expr::Path(p) = lhs.as_ref() else {
            panic!()
        };
        assert_eq!(p.root, PathRoot::SelfObject);
    }

    #[test]
    fn query_expr_rejects_garbage() {
        let c = Catalog::new();
        assert!(compile_expr("Length >=", &c).is_err());
    }
}
