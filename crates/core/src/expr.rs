//! Constraint expressions: the IR behind the paper's `constraints:` and
//! `where` clauses, and its evaluator.
//!
//! Covers every constraint form the paper uses:
//!
//! - `count (Pins) = 2 where Pins.InOut = IN` — [`Expr::Count`] with filter,
//! - `Length < 100*Height*Width` — arithmetic over attributes,
//! - `#s in Bolt = 1` — subclass cardinality,
//! - `for (s in Bolt, n in Nut): s.Diameter = n.Diameter` — [`Expr::ForAll`],
//! - `s.Length = n.Length + sum (Bores.Length)` — [`Expr::Sum`] over a path,
//! - `Wire.Pin1 in Pins or Wire.Pin1 in SubGates.Pins` — [`Expr::InClass`]
//!   over (possibly multi-step) class paths.
//!
//! Evaluation is defined against the [`ObjectView`] trait (implemented by
//! `ObjectStore`), so the engine is independently testable and reusable by
//! the version-selection queries.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, CoreResult};
use crate::surrogate::Surrogate;
use crate::value::Value;

/// Name bound to the element under test inside a `count … where` filter.
pub const ELEM_VAR: &str = "$elem";
/// Name bound to the relationship member inside a subrel `where` clause.
pub const REL_VAR: &str = "$rel";

/// Where a path starts.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PathRoot {
    /// The object the constraint is being checked on.
    SelfObject,
    /// A variable bound by `for`, a filter, or a subrel clause.
    Var(String),
}

/// A dotted path like `SubGates.Pins` or `s.Diameter`.
///
/// Each segment is resolved against the current object(s) as — in order —
/// an (effective) attribute, an (effective) subclass, or a relationship
/// participant role. Set-valued segments fan out; the final result is the
/// flattened list of reached values (objects appear as [`Value::Ref`]).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct PathExpr {
    /// Root of the path.
    pub root: PathRoot,
    /// Dotted segments.
    pub segments: Vec<String>,
}

impl PathExpr {
    /// Path rooted at the subject object.
    pub fn self_path(segments: &[&str]) -> Self {
        PathExpr {
            root: PathRoot::SelfObject,
            segments: segments.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Path rooted at a bound variable.
    pub fn var_path(var: &str, segments: &[&str]) -> Self {
        PathExpr {
            root: PathRoot::Var(var.to_string()),
            segments: segments.iter().map(|s| s.to_string()).collect(),
        }
    }
}

impl std::fmt::Display for PathExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.root {
            PathRoot::SelfObject => {}
            PathRoot::Var(v) => {
                write!(f, "{v}")?;
                if !self.segments.is_empty() {
                    write!(f, ".")?;
                }
            }
        }
        write!(f, "{}", self.segments.join("."))
    }
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division; division by zero is an evaluation error)
    Div,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        write!(f, "{s}")
    }
}

/// A constraint expression.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// Path lookup; a scalar context requires the path to reach exactly one
    /// value.
    Path(PathExpr),
    /// `count (path)`, optionally with `where <filter>`; inside the filter
    /// the element is bound to [`ELEM_VAR`].
    Count {
        /// The counted collection path.
        path: PathExpr,
        /// Optional element filter.
        filter: Option<Box<Expr>>,
    },
    /// `sum (path)` over integer values.
    Sum(PathExpr),
    /// `min (path)` over integer values (error when empty).
    Min(PathExpr),
    /// `max (path)` over integer values (error when empty).
    Max(PathExpr),
    /// Unary integer negation.
    Neg(Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `for (v1 in path1, v2 in path2): body` — true when the body holds for
    /// every combination of bindings.
    ForAll {
        /// `(variable, class path)` bindings, iterated as a cross product.
        bindings: Vec<(String, PathExpr)>,
        /// The quantified body.
        body: Box<Expr>,
    },
    /// Existential counterpart of [`Expr::ForAll`].
    Exists {
        /// `(variable, class path)` bindings.
        bindings: Vec<(String, PathExpr)>,
        /// The quantified body.
        body: Box<Expr>,
    },
    /// `item in class-path` — membership of an object in a (possibly
    /// multi-step) subclass collection.
    InClass {
        /// The tested object expression.
        item: Box<Expr>,
        /// The collection path.
        class: PathExpr,
    },
}

impl Expr {
    /// Shorthand: integer literal.
    pub fn int(i: i64) -> Expr {
        Expr::Lit(Value::Int(i))
    }

    /// Shorthand: enum literal.
    pub fn lit_enum(e: &str) -> Expr {
        Expr::Lit(Value::Enum(e.to_string()))
    }

    /// Shorthand: binary op.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Shorthand: equality.
    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Eq, lhs, rhs)
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Path(p) => write!(f, "{p}"),
            Expr::Count { path, filter } => {
                write!(f, "count ({path})")?;
                if let Some(flt) = filter {
                    write!(f, " where {flt}")?;
                }
                Ok(())
            }
            Expr::Sum(p) => write!(f, "sum ({p})"),
            Expr::Min(p) => write!(f, "min ({p})"),
            Expr::Max(p) => write!(f, "max ({p})"),
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Not(e) => write!(f, "not ({e})"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::ForAll { bindings, body } => {
                let bs: Vec<String> = bindings
                    .iter()
                    .map(|(v, p)| format!("{v} in {p}"))
                    .collect();
                write!(f, "for ({}) : {body}", bs.join(", "))
            }
            Expr::Exists { bindings, body } => {
                let bs: Vec<String> = bindings
                    .iter()
                    .map(|(v, p)| format!("{v} in {p}"))
                    .collect();
                write!(f, "exists ({}) : {body}", bs.join(", "))
            }
            Expr::InClass { item, class } => write!(f, "{item} in {class}"),
        }
    }
}

/// Read access to objects, as needed by the evaluator. Implemented by
/// `ObjectStore` with full value-inheritance resolution, so constraints see
/// inherited data transparently.
pub trait ObjectView {
    /// Effective attribute value (local or inherited); error when the
    /// attribute is not part of the object's effective schema.
    fn view_attr(&self, obj: Surrogate, name: &str) -> CoreResult<Value>;
    /// Effective subclass members (local or inherited).
    fn view_subclass(&self, obj: Surrogate, name: &str) -> CoreResult<Vec<Surrogate>>;
    /// Relationship participants under a role name.
    fn view_participants(&self, obj: Surrogate, role: &str) -> CoreResult<Vec<Surrogate>>;
    /// Does `name` resolve as an attribute on this object?
    fn view_has_attr(&self, obj: Surrogate, name: &str) -> bool;
    /// Does `name` resolve as a subclass on this object?
    fn view_has_subclass(&self, obj: Surrogate, name: &str) -> bool;
    /// Does `name` resolve as a participant role on this object?
    fn view_has_participant(&self, obj: Surrogate, name: &str) -> bool;
}

/// Variable environment for one evaluation.
#[derive(Clone, Debug, Default)]
pub struct Env {
    vars: Vec<(String, Surrogate)>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Environment with one binding.
    pub fn with(var: &str, obj: Surrogate) -> Self {
        Env {
            vars: vec![(var.to_string(), obj)],
        }
    }

    /// Add or shadow a binding.
    pub fn bind(&mut self, var: &str, obj: Surrogate) {
        self.vars.push((var.to_string(), obj));
    }

    /// Remove the most recent binding of `var`.
    pub fn unbind(&mut self) {
        self.vars.pop();
    }

    fn lookup(&self, var: &str) -> Option<Surrogate> {
        self.vars
            .iter()
            .rev()
            .find(|(v, _)| v == var)
            .map(|(_, s)| *s)
    }
}

/// One step of path fan-out: either an object or a plain value.
#[derive(Clone, Debug)]
enum Item {
    Obj(Surrogate),
    Val(Value),
}

/// The object a path starts from.
fn path_start(subject: Surrogate, env: &Env, path: &PathExpr) -> CoreResult<Surrogate> {
    match &path.root {
        PathRoot::SelfObject => Ok(subject),
        PathRoot::Var(v) => env
            .lookup(v)
            .ok_or_else(|| CoreError::EvalError(format!("unbound variable `{v}`"))),
    }
}

/// Evaluate a path to its (flattened) list of reached values.
pub fn eval_path<V: ObjectView>(
    view: &V,
    subject: Surrogate,
    env: &Env,
    path: &PathExpr,
) -> CoreResult<Vec<Value>> {
    let start = path_start(subject, env, path)?;
    let mut frontier = vec![Item::Obj(start)];
    for seg in &path.segments {
        let mut next = Vec::new();
        for item in frontier {
            match item {
                Item::Obj(obj) => {
                    if view.view_has_attr(obj, seg) {
                        next.push(Item::Val(view.view_attr(obj, seg)?));
                    } else if view.view_has_subclass(obj, seg) {
                        for m in view.view_subclass(obj, seg)? {
                            next.push(Item::Obj(m));
                        }
                    } else if view.view_has_participant(obj, seg) {
                        for m in view.view_participants(obj, seg)? {
                            next.push(Item::Obj(m));
                        }
                    } else {
                        return Err(CoreError::EvalError(format!(
                            "`{seg}` is neither attribute, subclass nor participant of {obj}"
                        )));
                    }
                }
                Item::Val(Value::Record(fields)) => match fields.iter().find(|(n, _)| n == seg) {
                    Some((_, v)) => next.push(Item::Val(v.clone())),
                    None => {
                        return Err(CoreError::EvalError(format!("record has no field `{seg}`")))
                    }
                },
                Item::Val(Value::Set(items)) | Item::Val(Value::List(items)) => {
                    // Fan out into the collection, then resolve the segment
                    // on each element (records or refs).
                    for v in items {
                        match v {
                            Value::Record(fields) => match fields.iter().find(|(n, _)| n == seg) {
                                Some((_, fv)) => next.push(Item::Val(fv.clone())),
                                None => {
                                    return Err(CoreError::EvalError(format!(
                                        "record has no field `{seg}`"
                                    )))
                                }
                            },
                            Value::Ref(s) => {
                                // Defer: resolve segment on the referenced object.
                                let sub = PathExpr {
                                    root: PathRoot::SelfObject,
                                    segments: vec![seg.clone()],
                                };
                                next.extend(
                                    eval_path(view, s, env, &sub)?.into_iter().map(Item::Val),
                                );
                            }
                            other => {
                                return Err(CoreError::EvalError(format!(
                                    "cannot navigate `{seg}` into {other}"
                                )))
                            }
                        }
                    }
                }
                Item::Val(Value::Ref(s)) => {
                    let sub = PathExpr {
                        root: PathRoot::SelfObject,
                        segments: vec![seg.clone()],
                    };
                    next.extend(eval_path(view, s, env, &sub)?.into_iter().map(Item::Val));
                }
                Item::Val(other) => {
                    return Err(CoreError::EvalError(format!(
                        "cannot navigate `{seg}` into {other}"
                    )));
                }
            }
        }
        frontier = next;
    }
    Ok(frontier
        .into_iter()
        .map(|i| match i {
            Item::Obj(s) => Value::Ref(s),
            Item::Val(v) => v,
        })
        .collect())
}

/// Resolve a path to the list of *objects* it reaches (for `for` bindings
/// and `in` class paths). Values that are not refs are rejected.
pub fn eval_path_objects<V: ObjectView>(
    view: &V,
    subject: Surrogate,
    env: &Env,
    path: &PathExpr,
) -> CoreResult<Vec<Surrogate>> {
    eval_path(view, subject, env, path)?
        .into_iter()
        .map(|v| {
            v.as_ref_surrogate().ok_or_else(|| {
                CoreError::EvalError(format!("path {path} reached a non-object value"))
            })
        })
        .collect()
}

/// Evaluate `expr` on `subject` with bindings `env`.
pub fn eval<V: ObjectView>(
    view: &V,
    subject: Surrogate,
    env: &mut Env,
    expr: &Expr,
) -> CoreResult<Value> {
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Path(p) => {
            // One segment naming an attribute — the common scalar case —
            // is one view call: `eval_path` would try the attribute first
            // too, and reach exactly that one value, but through three
            // vectors.
            if let [seg] = p.segments.as_slice() {
                let start = path_start(subject, env, p)?;
                if view.view_has_attr(start, seg) {
                    return view.view_attr(start, seg);
                }
            }
            let mut vals = eval_path(view, subject, env, p)?;
            match vals.len() {
                1 => Ok(vals.pop().unwrap()),
                0 => Ok(Value::Missing),
                n => Err(CoreError::EvalError(format!(
                    "path {p} is set-valued ({n} results) in a scalar context"
                ))),
            }
        }
        Expr::Count { path, filter } => {
            let items = flatten_collection(eval_path(view, subject, env, path)?);
            match filter {
                None => Ok(Value::Int(items.len() as i64)),
                Some(f) => {
                    let mut n = 0i64;
                    for item in items {
                        match item {
                            Value::Ref(s) => {
                                env.bind(ELEM_VAR, s);
                                let keep = eval(view, subject, env, f)?;
                                env.unbind();
                                if keep.as_bool().ok_or_else(|| {
                                    CoreError::EvalError("filter must be boolean".into())
                                })? {
                                    n += 1;
                                }
                            }
                            // Records (attribute-level sets like SimpleGate's
                            // Pins) are filtered structurally: the filter must
                            // be a field comparison rewritten by the caller to
                            // use ELEM_VAR; without an object to bind we
                            // evaluate against a synthetic record view.
                            Value::Record(fields) => {
                                if record_filter_matches(view, subject, env, f, &fields)? {
                                    n += 1;
                                }
                            }
                            other => {
                                return Err(CoreError::EvalError(format!(
                                    "cannot filter over {other}"
                                )))
                            }
                        }
                    }
                    Ok(Value::Int(n))
                }
            }
        }
        Expr::Sum(p) => fold_ints(view, subject, env, p, 0, |acc, v| acc + v),
        Expr::Min(p) => fold_nonempty(view, subject, env, p, i64::min, "min"),
        Expr::Max(p) => fold_nonempty(view, subject, env, p, i64::max, "max"),
        Expr::Neg(e) => {
            let v = eval(view, subject, env, e)?;
            let i = v
                .as_int()
                .ok_or_else(|| CoreError::EvalError(format!("cannot negate {v}")))?;
            Ok(Value::Int(-i))
        }
        Expr::Not(e) => {
            let v = eval(view, subject, env, e)?;
            let b = v
                .as_bool()
                .ok_or_else(|| CoreError::EvalError(format!("`not` needs a boolean, got {v}")))?;
            Ok(Value::Bool(!b))
        }
        Expr::Binary { op, lhs, rhs } => {
            // Short-circuit logical ops.
            if matches!(op, BinOp::And | BinOp::Or) {
                let l = eval(view, subject, env, lhs)?
                    .as_bool()
                    .ok_or_else(|| CoreError::EvalError("`and`/`or` need booleans".into()))?;
                let skip = match op {
                    BinOp::And => !l,
                    BinOp::Or => l,
                    _ => unreachable!(),
                };
                if skip {
                    return Ok(Value::Bool(l));
                }
                let r = eval(view, subject, env, rhs)?
                    .as_bool()
                    .ok_or_else(|| CoreError::EvalError("`and`/`or` need booleans".into()))?;
                return Ok(Value::Bool(r));
            }
            let l = eval(view, subject, env, lhs)?;
            // `Attr op literal` compares against the literal in place.
            if let Expr::Lit(r) = rhs.as_ref() {
                return apply_binop(*op, &l, r);
            }
            let r = eval(view, subject, env, rhs)?;
            apply_binop(*op, &l, &r)
        }
        Expr::ForAll { bindings, body } => quantify(view, subject, env, bindings, body, true),
        Expr::Exists { bindings, body } => quantify(view, subject, env, bindings, body, false),
        Expr::InClass { item, class } => {
            let v = eval(view, subject, env, item)?;
            let s = v.as_ref_surrogate().ok_or_else(|| {
                CoreError::EvalError(format!("`in` needs an object reference, got {v}"))
            })?;
            let members = eval_path_objects(view, subject, env, class)?;
            Ok(Value::Bool(members.contains(&s)))
        }
    }
}

/// Evaluate a filter against a record value (attribute-level collections):
/// field references `$elem.F` are rewritten into the record's fields.
fn record_filter_matches<V: ObjectView>(
    view: &V,
    subject: Surrogate,
    env: &Env,
    filter: &Expr,
    fields: &[(String, Value)],
) -> CoreResult<bool> {
    // Substitute VarPath(ELEM_VAR, [f]) with the record field value, then eval.
    fn subst(e: &Expr, fields: &[(String, Value)]) -> CoreResult<Expr> {
        Ok(match e {
            Expr::Path(PathExpr {
                root: PathRoot::Var(v),
                segments,
            }) if v == ELEM_VAR => {
                if segments.len() != 1 {
                    return Err(CoreError::EvalError(
                        "record filters support single-field access".into(),
                    ));
                }
                let val = fields
                    .iter()
                    .find(|(n, _)| n == &segments[0])
                    .map(|(_, v)| v.clone())
                    .unwrap_or(Value::Missing);
                Expr::Lit(val)
            }
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(subst(lhs, fields)?),
                rhs: Box::new(subst(rhs, fields)?),
            },
            Expr::Not(inner) => Expr::Not(Box::new(subst(inner, fields)?)),
            other => other.clone(),
        })
    }
    let rewritten = subst(filter, fields)?;
    let mut env2 = env.clone();
    eval(view, subject, &mut env2, &rewritten)?
        .as_bool()
        .ok_or_else(|| CoreError::EvalError("filter must be boolean".into()))
}

/// `count (Pins)` over an attribute-level collection (e.g. `SimpleGate`'s
/// `set-of` record attribute) counts the *elements*: a path ending in a
/// single set/list value fans out into it.
fn flatten_collection(items: Vec<Value>) -> Vec<Value> {
    if items.len() == 1 {
        match items.into_iter().next().unwrap() {
            Value::Set(inner) | Value::List(inner) => inner,
            other => vec![other],
        }
    } else {
        items
    }
}

fn fold_ints<V: ObjectView>(
    view: &V,
    subject: Surrogate,
    env: &Env,
    path: &PathExpr,
    init: i64,
    f: impl Fn(i64, i64) -> i64,
) -> CoreResult<Value> {
    let mut acc = init;
    for v in flatten_collection(eval_path(view, subject, env, path)?) {
        let i = v
            .as_int()
            .ok_or_else(|| CoreError::EvalError(format!("aggregate over non-integer {v}")))?;
        acc = f(acc, i);
    }
    Ok(Value::Int(acc))
}

fn fold_nonempty<V: ObjectView>(
    view: &V,
    subject: Surrogate,
    env: &Env,
    path: &PathExpr,
    f: impl Fn(i64, i64) -> i64,
    what: &str,
) -> CoreResult<Value> {
    let vals = flatten_collection(eval_path(view, subject, env, path)?);
    if vals.is_empty() {
        return Err(CoreError::EvalError(format!(
            "{what} over empty path {path}"
        )));
    }
    let mut acc: Option<i64> = None;
    for v in vals {
        let i = v
            .as_int()
            .ok_or_else(|| CoreError::EvalError(format!("aggregate over non-integer {v}")))?;
        acc = Some(match acc {
            None => i,
            Some(a) => f(a, i),
        });
    }
    Ok(Value::Int(acc.unwrap()))
}

fn apply_binop(op: BinOp, l: &Value, r: &Value) -> CoreResult<Value> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div => {
            let (a, b) = match (l.as_int(), r.as_int()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(CoreError::EvalError(format!(
                        "arithmetic needs integers, got {l} {op} {r}"
                    )))
                }
            };
            let v = match op {
                Add => a.checked_add(b),
                Sub => a.checked_sub(b),
                Mul => a.checked_mul(b),
                Div => {
                    if b == 0 {
                        return Err(CoreError::EvalError("division by zero".into()));
                    }
                    a.checked_div(b)
                }
                _ => unreachable!(),
            };
            v.map(Value::Int)
                .ok_or_else(|| CoreError::EvalError("integer overflow".into()))
        }
        Eq => Ok(Value::Bool(l == r)),
        Ne => Ok(Value::Bool(l != r)),
        Lt | Le | Gt | Ge => {
            let ord = match (l, r) {
                (Value::Int(a), Value::Int(b)) => a.cmp(b),
                (Value::Str(a), Value::Str(b)) => a.cmp(b),
                (Value::Real(a), Value::Real(b)) => a.total_cmp(b),
                _ => return Err(CoreError::EvalError(format!("cannot order {l} {op} {r}"))),
            };
            let b = match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        And | Or => unreachable!("short-circuited by caller"),
    }
}

fn quantify<V: ObjectView>(
    view: &V,
    subject: Surrogate,
    env: &mut Env,
    bindings: &[(String, PathExpr)],
    body: &Expr,
    universal: bool,
) -> CoreResult<Value> {
    fn rec<V: ObjectView>(
        view: &V,
        subject: Surrogate,
        env: &mut Env,
        bindings: &[(String, PathExpr)],
        body: &Expr,
        universal: bool,
    ) -> CoreResult<bool> {
        match bindings.split_first() {
            None => {
                let v = eval(view, subject, env, body)?;
                v.as_bool()
                    .ok_or_else(|| CoreError::EvalError("quantifier body must be boolean".into()))
            }
            Some(((var, path), rest)) => {
                let members = eval_path_objects(view, subject, env, path)?;
                if universal {
                    for m in members {
                        env.bind(var, m);
                        let ok = rec(view, subject, env, rest, body, universal)?;
                        env.unbind();
                        if !ok {
                            return Ok(false);
                        }
                    }
                    Ok(true)
                } else {
                    for m in members {
                        env.bind(var, m);
                        let ok = rec(view, subject, env, rest, body, universal)?;
                        env.unbind();
                        if ok {
                            return Ok(true);
                        }
                    }
                    Ok(false)
                }
            }
        }
    }
    rec(view, subject, env, bindings, body, universal).map(Value::Bool)
}

#[cfg(test)]
pub(crate) mod mock {
    //! A tiny hand-rolled [`ObjectView`] for evaluator unit tests.

    use std::collections::HashMap;

    use super::*;

    #[derive(Default)]
    pub struct MockView {
        pub attrs: HashMap<(Surrogate, String), Value>,
        pub subclasses: HashMap<(Surrogate, String), Vec<Surrogate>>,
        pub participants: HashMap<(Surrogate, String), Vec<Surrogate>>,
    }

    impl MockView {
        pub fn attr(&mut self, o: Surrogate, n: &str, v: Value) {
            self.attrs.insert((o, n.to_string()), v);
        }
        pub fn subclass(&mut self, o: Surrogate, n: &str, m: Vec<Surrogate>) {
            self.subclasses.insert((o, n.to_string()), m);
        }
        pub fn participant(&mut self, o: Surrogate, n: &str, m: Vec<Surrogate>) {
            self.participants.insert((o, n.to_string()), m);
        }
    }

    impl ObjectView for MockView {
        fn view_attr(&self, obj: Surrogate, name: &str) -> CoreResult<Value> {
            self.attrs
                .get(&(obj, name.to_string()))
                .cloned()
                .ok_or_else(|| CoreError::NoSuchAttribute {
                    object: obj,
                    attr: name.into(),
                })
        }
        fn view_subclass(&self, obj: Surrogate, name: &str) -> CoreResult<Vec<Surrogate>> {
            self.subclasses
                .get(&(obj, name.to_string()))
                .cloned()
                .ok_or_else(|| CoreError::NoSuchSubclass {
                    object: obj,
                    subclass: name.into(),
                })
        }
        fn view_participants(&self, obj: Surrogate, role: &str) -> CoreResult<Vec<Surrogate>> {
            self.participants
                .get(&(obj, role.to_string()))
                .cloned()
                .ok_or_else(|| {
                    CoreError::EvalError(format!("no participant role `{role}` on {obj}"))
                })
        }
        fn view_has_attr(&self, obj: Surrogate, name: &str) -> bool {
            self.attrs.contains_key(&(obj, name.to_string()))
        }
        fn view_has_subclass(&self, obj: Surrogate, name: &str) -> bool {
            self.subclasses.contains_key(&(obj, name.to_string()))
        }
        fn view_has_participant(&self, obj: Surrogate, name: &str) -> bool {
            self.participants.contains_key(&(obj, name.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::mock::MockView;
    use super::*;

    const S: Surrogate = Surrogate(1);

    fn ev(view: &MockView, e: &Expr) -> Value {
        eval(view, S, &mut Env::new(), e).unwrap()
    }

    #[test]
    fn literals_and_arithmetic() {
        let v = MockView::default();
        // Length < 100 * Height * Width  (paper §5 GirderInterface)
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Mul, Expr::int(100), Expr::int(2)),
            Expr::int(3),
        );
        assert_eq!(ev(&v, &e), Value::Int(600));
        let div = Expr::bin(BinOp::Div, Expr::int(7), Expr::int(2));
        assert_eq!(ev(&v, &div), Value::Int(3));
        let by_zero = Expr::bin(BinOp::Div, Expr::int(7), Expr::int(0));
        assert!(eval(&v, S, &mut Env::new(), &by_zero).is_err());
    }

    #[test]
    fn attribute_paths() {
        let mut v = MockView::default();
        v.attr(S, "Length", Value::Int(10));
        v.attr(S, "Height", Value::Int(2));
        v.attr(S, "Width", Value::Int(3));
        // Length < 100*Height*Width
        let e = Expr::bin(
            BinOp::Lt,
            Expr::Path(PathExpr::self_path(&["Length"])),
            Expr::bin(
                BinOp::Mul,
                Expr::bin(
                    BinOp::Mul,
                    Expr::int(100),
                    Expr::Path(PathExpr::self_path(&["Height"])),
                ),
                Expr::Path(PathExpr::self_path(&["Width"])),
            ),
        );
        assert_eq!(ev(&v, &e), Value::Bool(true));
    }

    #[test]
    fn record_field_path() {
        let mut v = MockView::default();
        v.attr(
            S,
            "Area",
            Value::record(vec![
                ("Length".into(), Value::Int(8)),
                ("Width".into(), Value::Int(4)),
            ]),
        );
        let e = Expr::Path(PathExpr::self_path(&["Area", "Width"]));
        assert_eq!(ev(&v, &e), Value::Int(4));
        let missing = Expr::Path(PathExpr::self_path(&["Area", "Depth"]));
        assert!(eval(&v, S, &mut Env::new(), &missing).is_err());
    }

    #[test]
    fn count_over_subclass_with_object_filter() {
        let mut v = MockView::default();
        let pins = vec![Surrogate(10), Surrogate(11), Surrogate(12)];
        v.subclass(S, "Pins", pins.clone());
        v.attr(Surrogate(10), "InOut", Value::Enum("IN".into()));
        v.attr(Surrogate(11), "InOut", Value::Enum("IN".into()));
        v.attr(Surrogate(12), "InOut", Value::Enum("OUT".into()));
        // count (Pins) = 2 where Pins.InOut = IN
        let e = Expr::eq(
            Expr::Count {
                path: PathExpr::self_path(&["Pins"]),
                filter: Some(Box::new(Expr::eq(
                    Expr::Path(PathExpr::var_path(ELEM_VAR, &["InOut"])),
                    Expr::lit_enum("IN"),
                ))),
            },
            Expr::int(2),
        );
        assert_eq!(ev(&v, &e), Value::Bool(true));
    }

    #[test]
    fn count_over_record_set_attribute() {
        // SimpleGate represents pins as a set-of record *attribute* (§3).
        let mut v = MockView::default();
        let pin = |id: i64, io: &str| {
            Value::record(vec![
                ("PinId".into(), Value::Int(id)),
                ("InOut".into(), Value::Enum(io.into())),
            ])
        };
        v.attr(
            S,
            "Pins",
            Value::set(vec![pin(1, "IN"), pin(2, "IN"), pin(3, "OUT")]),
        );
        // The path fans out into the set; records are filtered structurally.
        let count_in = Expr::Count {
            path: PathExpr::self_path(&["Pins"]),
            filter: Some(Box::new(Expr::eq(
                Expr::Path(PathExpr::var_path(ELEM_VAR, &["InOut"])),
                Expr::lit_enum("IN"),
            ))),
        };
        // Note: the unfiltered count counts set elements.
        let e = Expr::eq(count_in, Expr::int(2));
        assert_eq!(ev(&v, &e), Value::Bool(true));
    }

    #[test]
    fn sum_over_two_step_path() {
        // s.Length = n.Length + sum (Bores.Length)  (paper §5 ScrewingType)
        let mut v = MockView::default();
        v.subclass(S, "Bores", vec![Surrogate(20), Surrogate(21)]);
        v.attr(Surrogate(20), "Length", Value::Int(5));
        v.attr(Surrogate(21), "Length", Value::Int(7));
        let e = Expr::Sum(PathExpr::self_path(&["Bores", "Length"]));
        assert_eq!(ev(&v, &e), Value::Int(12));
    }

    #[test]
    fn min_max_and_empty_error() {
        let mut v = MockView::default();
        v.subclass(S, "Bores", vec![Surrogate(20), Surrogate(21)]);
        v.subclass(S, "Empty", vec![]);
        v.attr(Surrogate(20), "D", Value::Int(5));
        v.attr(Surrogate(21), "D", Value::Int(7));
        assert_eq!(
            ev(&v, &Expr::Min(PathExpr::self_path(&["Bores", "D"]))),
            Value::Int(5)
        );
        assert_eq!(
            ev(&v, &Expr::Max(PathExpr::self_path(&["Bores", "D"]))),
            Value::Int(7)
        );
        assert!(eval(
            &v,
            S,
            &mut Env::new(),
            &Expr::Min(PathExpr::self_path(&["Empty", "D"]))
        )
        .is_err());
        assert_eq!(
            ev(&v, &Expr::Sum(PathExpr::self_path(&["Empty", "D"]))),
            Value::Int(0)
        );
    }

    #[test]
    fn forall_cross_product() {
        // for (s in Bolt, n in Nut): s.Diameter = n.Diameter
        let mut v = MockView::default();
        v.subclass(S, "Bolt", vec![Surrogate(30)]);
        v.subclass(S, "Nut", vec![Surrogate(40)]);
        v.attr(Surrogate(30), "Diameter", Value::Int(8));
        v.attr(Surrogate(40), "Diameter", Value::Int(8));
        let e = Expr::ForAll {
            bindings: vec![
                ("s".into(), PathExpr::self_path(&["Bolt"])),
                ("n".into(), PathExpr::self_path(&["Nut"])),
            ],
            body: Box::new(Expr::eq(
                Expr::Path(PathExpr::var_path("s", &["Diameter"])),
                Expr::Path(PathExpr::var_path("n", &["Diameter"])),
            )),
        };
        assert_eq!(ev(&v, &e), Value::Bool(true));
        // Break it.
        v.attr(Surrogate(40), "Diameter", Value::Int(9));
        assert_eq!(ev(&v, &e), Value::Bool(false));
    }

    #[test]
    fn forall_over_empty_is_true_exists_false() {
        let mut v = MockView::default();
        v.subclass(S, "Bolt", vec![]);
        let body = Box::new(Expr::Lit(Value::Bool(false)));
        let fa = Expr::ForAll {
            bindings: vec![("s".into(), PathExpr::self_path(&["Bolt"]))],
            body: body.clone(),
        };
        let ex = Expr::Exists {
            bindings: vec![("s".into(), PathExpr::self_path(&["Bolt"]))],
            body,
        };
        assert_eq!(ev(&v, &fa), Value::Bool(true));
        assert_eq!(ev(&v, &ex), Value::Bool(false));
    }

    #[test]
    fn nested_forall_with_outer_binding() {
        // for s in Bolt: for b in Bores: s.Diameter <= b.Diameter
        let mut v = MockView::default();
        v.subclass(S, "Bolt", vec![Surrogate(30)]);
        v.subclass(S, "Bores", vec![Surrogate(20), Surrogate(21)]);
        v.attr(Surrogate(30), "Diameter", Value::Int(8));
        v.attr(Surrogate(20), "Diameter", Value::Int(8));
        v.attr(Surrogate(21), "Diameter", Value::Int(10));
        let e = Expr::ForAll {
            bindings: vec![("s".into(), PathExpr::self_path(&["Bolt"]))],
            body: Box::new(Expr::ForAll {
                bindings: vec![("b".into(), PathExpr::self_path(&["Bores"]))],
                body: Box::new(Expr::bin(
                    BinOp::Le,
                    Expr::Path(PathExpr::var_path("s", &["Diameter"])),
                    Expr::Path(PathExpr::var_path("b", &["Diameter"])),
                )),
            }),
        };
        assert_eq!(ev(&v, &e), Value::Bool(true));
        v.attr(Surrogate(21), "Diameter", Value::Int(6));
        assert_eq!(ev(&v, &e), Value::Bool(false));
    }

    #[test]
    fn membership_across_multi_step_class_path() {
        // Wire.Pin1 in Pins or Wire.Pin1 in SubGates.Pins  (paper §3 Gate)
        let mut v = MockView::default();
        let wire = Surrogate(50);
        let pin_own = Surrogate(60);
        let pin_sub = Surrogate(61);
        v.subclass(S, "Pins", vec![pin_own]);
        v.subclass(S, "SubGates", vec![Surrogate(70)]);
        v.subclass(Surrogate(70), "Pins", vec![pin_sub]);
        v.participant(wire, "Pin1", vec![pin_sub]);
        let mut env = Env::with("Wire", wire);
        let e = Expr::bin(
            BinOp::Or,
            Expr::InClass {
                item: Box::new(Expr::Path(PathExpr::var_path("Wire", &["Pin1"]))),
                class: PathExpr::self_path(&["Pins"]),
            },
            Expr::InClass {
                item: Box::new(Expr::Path(PathExpr::var_path("Wire", &["Pin1"]))),
                class: PathExpr::self_path(&["SubGates", "Pins"]),
            },
        );
        assert_eq!(eval(&v, S, &mut env, &e).unwrap(), Value::Bool(true));
        // A pin belonging to neither class fails.
        v.participant(wire, "Pin1", vec![Surrogate(99)]);
        assert_eq!(eval(&v, S, &mut env, &e).unwrap(), Value::Bool(false));
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        let mut v = MockView::default();
        v.attr(S, "Flag", Value::Bool(true));
        // RHS would error (unknown attr) but must not be evaluated.
        let e = Expr::bin(
            BinOp::Or,
            Expr::Path(PathExpr::self_path(&["Flag"])),
            Expr::Path(PathExpr::self_path(&["DoesNotExist"])),
        );
        assert_eq!(ev(&v, &e), Value::Bool(true));
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let v = MockView::default();
        let e = Expr::Path(PathExpr::var_path("ghost", &["X"]));
        let err = eval(&v, S, &mut Env::new(), &e).unwrap_err();
        assert!(matches!(err, CoreError::EvalError(_)));
    }

    #[test]
    fn display_renders_paper_like_syntax() {
        let e = Expr::eq(
            Expr::Count {
                path: PathExpr::self_path(&["Pins"]),
                filter: Some(Box::new(Expr::eq(
                    Expr::Path(PathExpr::var_path(ELEM_VAR, &["InOut"])),
                    Expr::lit_enum("IN"),
                ))),
            },
            Expr::int(2),
        );
        let s = e.to_string();
        assert!(s.contains("count (Pins)"), "{s}");
        assert!(s.contains("where"), "{s}");
    }

    #[test]
    fn overflow_is_an_error_not_a_panic() {
        let v = MockView::default();
        let e = Expr::bin(BinOp::Mul, Expr::int(i64::MAX), Expr::int(2));
        assert!(matches!(
            eval(&v, S, &mut Env::new(), &e),
            Err(CoreError::EvalError(_))
        ));
    }
}

#[cfg(test)]
mod property {
    use super::mock::MockView;
    use super::*;
    use proptest::prelude::*;

    /// Strategy over arbitrary (often ill-typed) expressions: evaluation
    /// must return Ok or Err but never panic, hang, or overflow the stack.
    fn expr_strategy() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (-100i64..100).prop_map(Expr::int),
            Just(Expr::Lit(Value::Bool(true))),
            Just(Expr::Lit(Value::Bool(false))),
            Just(Expr::lit_enum("IN")),
            Just(Expr::Path(PathExpr::self_path(&["A"]))),
            Just(Expr::Path(PathExpr::self_path(&["Kids"]))),
            Just(Expr::Path(PathExpr::self_path(&["Kids", "A"]))),
            Just(Expr::Path(PathExpr::var_path("v", &["A"]))),
            Just(Expr::Count {
                path: PathExpr::self_path(&["Kids"]),
                filter: None
            }),
            Just(Expr::Sum(PathExpr::self_path(&["Kids", "A"]))),
            Just(Expr::Min(PathExpr::self_path(&["Kids", "A"]))),
        ];
        leaf.prop_recursive(4, 64, 4, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone(), any::<u8>()).prop_map(|(l, r, op)| {
                    let ops = [
                        BinOp::Add,
                        BinOp::Sub,
                        BinOp::Mul,
                        BinOp::Div,
                        BinOp::Eq,
                        BinOp::Lt,
                        BinOp::And,
                        BinOp::Or,
                    ];
                    Expr::bin(ops[op as usize % ops.len()], l, r)
                }),
                inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
                inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
                inner.clone().prop_map(|e| Expr::ForAll {
                    bindings: vec![("v".into(), PathExpr::self_path(&["Kids"]))],
                    body: Box::new(e),
                }),
                inner.clone().prop_map(|e| Expr::Exists {
                    bindings: vec![("v".into(), PathExpr::self_path(&["Kids"]))],
                    body: Box::new(e),
                }),
                inner.prop_map(|e| Expr::InClass {
                    item: Box::new(e),
                    class: PathExpr::self_path(&["Kids"]),
                }),
            ]
        })
    }

    fn view() -> MockView {
        let mut v = MockView::default();
        v.attr(Surrogate(1), "A", Value::Int(3));
        v.subclass(Surrogate(1), "Kids", vec![Surrogate(2), Surrogate(3)]);
        v.attr(Surrogate(2), "A", Value::Int(1));
        v.attr(Surrogate(3), "A", Value::Int(2));
        v.subclass(Surrogate(2), "Kids", vec![]);
        v.subclass(Surrogate(3), "Kids", vec![]);
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn evaluation_is_total(e in expr_strategy()) {
            let v = view();
            let _ = eval(&v, Surrogate(1), &mut Env::new(), &e);
        }

        #[test]
        fn display_never_panics(e in expr_strategy()) {
            let _ = e.to_string();
        }
    }
}
