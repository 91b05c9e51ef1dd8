//! Request params, read in place.
//!
//! A [`Params`] is a borrowed view of one params value in the dialect it
//! arrived in: the bval bytes of a v2 frame, or a v1 JSON tree. Lookups
//! scan the object's keys where they lie; nothing is decoded until a
//! handler asks for a field, and then only that field. A v2 frame's
//! params are validated once, when the frame is parsed
//! ([`Params::validate_bval`], the same checks and messages as
//! [`crate::proto::bval_decode`]), so the accessors below never meet
//! malformed bytes.

use ccdb_core::{Surrogate, Value};
use serde_json::Value as Json;

use crate::handler::{bad, HandlerError};
use crate::proto::{
    bval_validate, BvalReader, BV_ARRAY, BV_FALSE, BV_FLOAT, BV_INT, BV_OBJECT, BV_STR, BV_TRUE,
    BV_UINT,
};

/// A borrowed view of one params value (an object at the top of a
/// request, anything below it).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Params<'a> {
    /// The bval encoding of one validated value; empty bytes stand for
    /// `{}` (a v2 frame without params).
    Bval(&'a [u8]),
    /// A v1 JSON value.
    Json(&'a Json),
}

/// One step of a view: a scalar, or a container to iterate.
enum Node<'a> {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(&'a str),
    Array(Elems<'a>),
    Object(Pairs<'a>),
}

impl Node<'_> {
    /// The type tag `Json::type_name` gives the same value, for messages.
    fn type_name(&self) -> &'static str {
        match self {
            Node::Null => "null",
            Node::Bool(_) => "bool",
            Node::Int(_) | Node::UInt(_) => "integer",
            Node::Float(_) => "float",
            Node::Str(_) => "string",
            Node::Array(_) => "array",
            Node::Object(_) => "object",
        }
    }
}

/// The elements of an array view.
#[derive(Clone, Debug)]
pub(crate) enum Elems<'a> {
    Bval(BvalSeq<'a>),
    Json(std::slice::Iter<'a, Json>),
}

/// The key/value pairs of an object view, in wire order.
#[derive(Clone, Debug)]
pub(crate) enum Pairs<'a> {
    Bval(BvalSeq<'a>),
    Json(std::slice::Iter<'a, (String, Json)>),
}

/// The unread tail of a bval container: `left` items from `pos` on.
#[derive(Clone, Debug)]
pub(crate) struct BvalSeq<'a> {
    bytes: &'a [u8],
    pos: usize,
    left: u32,
}

impl<'a> BvalSeq<'a> {
    const EMPTY: BvalSeq<'static> = BvalSeq {
        bytes: &[],
        pos: 0,
        left: 0,
    };

    /// Reads the next key (objects only) and steps over the value behind
    /// it. The bytes were validated, so a failure here is unreachable; it
    /// ends the sequence rather than panicking.
    fn next(&mut self, keyed: bool) -> Option<(&'a str, Params<'a>)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let mut r = BvalReader::new(&self.bytes[self.pos..]);
        let key = if keyed { r.str().ok()? } else { "" };
        let start = r.pos();
        r.skip(0).ok()?;
        let value = Params::Bval(&self.bytes[self.pos + start..self.pos + r.pos()]);
        self.pos += r.pos();
        Some((key, value))
    }
}

impl<'a> Iterator for Elems<'a> {
    type Item = Params<'a>;

    fn next(&mut self) -> Option<Params<'a>> {
        match self {
            Elems::Bval(seq) => seq.next(false).map(|(_, v)| v),
            Elems::Json(items) => items.next().map(Params::Json),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            Elems::Bval(seq) => seq.left as usize,
            Elems::Json(items) => items.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Elems<'_> {}

impl<'a> Iterator for Pairs<'a> {
    type Item = (&'a str, Params<'a>);

    fn next(&mut self) -> Option<(&'a str, Params<'a>)> {
        match self {
            Pairs::Bval(seq) => seq.next(true),
            Pairs::Json(pairs) => pairs.next().map(|(k, v)| (k.as_str(), Params::Json(v))),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            Pairs::Bval(seq) => seq.left as usize,
            Pairs::Json(pairs) => pairs.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Pairs<'_> {}

impl<'a> Params<'a> {
    /// `{}`.
    pub(crate) const EMPTY: Params<'static> = Params::Bval(&[]);

    /// Validates a v2 frame's params bytes (empty means `{}`) and applies
    /// the object rule; returns the bytes a [`Params::Bval`] view of them
    /// reads (empty for `{}` and `null`). The error is the `protocol`
    /// message to answer.
    pub(crate) fn validate_bval(bytes: &[u8]) -> Result<&[u8], String> {
        if bytes.is_empty() {
            return Ok(bytes);
        }
        bval_validate(bytes)?;
        match Params::Bval(bytes).object()? {
            Params::Bval(bytes) => Ok(bytes),
            Params::Json(_) => unreachable!("a bval view stays bval"),
        }
    }

    /// The one rule both dialects apply to a request's params, and to a
    /// `batch` entry's: an object, or `null` standing for `{}`.
    pub(crate) fn object(self) -> Result<Params<'a>, String> {
        match self.node() {
            Node::Null => Ok(Params::EMPTY),
            Node::Object(_) => Ok(self),
            other => Err(format!(
                "params must be an object, got {}",
                other.type_name()
            )),
        }
    }

    fn node(self) -> Node<'a> {
        let bytes = match self {
            Params::Json(j) => {
                return match j {
                    Json::Null => Node::Null,
                    Json::Bool(b) => Node::Bool(*b),
                    Json::Int(i) => Node::Int(*i),
                    Json::UInt(u) => Node::UInt(*u),
                    Json::Float(f) => Node::Float(*f),
                    Json::String(s) => Node::Str(s),
                    Json::Array(items) => Node::Array(Elems::Json(items.iter())),
                    Json::Object(pairs) => Node::Object(Pairs::Json(pairs.iter())),
                }
            }
            Params::Bval([]) => return Node::Object(Pairs::Bval(BvalSeq::EMPTY)),
            Params::Bval(bytes) => bytes,
        };
        let mut r = BvalReader::new(bytes);
        let node = (|| -> Result<Node<'a>, String> {
            Ok(match r.u8()? {
                BV_FALSE => Node::Bool(false),
                BV_TRUE => Node::Bool(true),
                BV_INT => Node::Int(r.u64()? as i64),
                BV_UINT => Node::UInt(r.u64()?),
                BV_FLOAT => Node::Float(f64::from_bits(r.u64()?)),
                BV_STR => Node::Str(r.str()?),
                tag @ (BV_ARRAY | BV_OBJECT) => {
                    let left = r.u32()?;
                    let seq = BvalSeq {
                        bytes,
                        pos: r.pos(),
                        left,
                    };
                    if tag == BV_ARRAY {
                        Node::Array(Elems::Bval(seq))
                    } else {
                        Node::Object(Pairs::Bval(seq))
                    }
                }
                // BV_NULL, and (unreachable after validation) anything else.
                _ => Node::Null,
            })
        })();
        node.unwrap_or(Node::Null)
    }

    /// The member `key` (the first, if repeated), when this is an object.
    pub(crate) fn get(self, key: &str) -> Option<Params<'a>> {
        self.pairs()?.find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    pub(crate) fn as_u64(self) -> Option<u64> {
        match self.node() {
            Node::Int(i) if i >= 0 => Some(i as u64),
            Node::UInt(u) => Some(u),
            _ => None,
        }
    }

    pub(crate) fn as_str(self) -> Option<&'a str> {
        match self.node() {
            Node::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_bool(self) -> Option<bool> {
        match self.node() {
            Node::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub(crate) fn elems(self) -> Option<Elems<'a>> {
        match self.node() {
            Node::Array(items) => Some(items),
            _ => None,
        }
    }

    fn pairs(self) -> Option<Pairs<'a>> {
        match self.node() {
            Node::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The required member `key`.
    fn param(self, key: &str) -> Result<Params<'a>, HandlerError> {
        self.get(key)
            .ok_or_else(|| bad(format!("missing parameter `{key}`")))
    }

    pub(crate) fn surrogate(self, key: &str) -> Result<Surrogate, HandlerError> {
        self.param(key)?
            .as_u64()
            .map(Surrogate)
            .ok_or_else(|| bad(format!("parameter `{key}` must be an unsigned surrogate")))
    }

    pub(crate) fn str(self, key: &str) -> Result<&'a str, HandlerError> {
        self.param(key)?
            .as_str()
            .ok_or_else(|| bad(format!("parameter `{key}` must be a string")))
    }

    /// The member `key`, decoded from the serde encoding of [`Value`].
    pub(crate) fn value(self, key: &str) -> Result<Value, HandlerError> {
        decode_value(self.param(key)?).map_err(|e| {
            bad(format!(
                "parameter `{key}` is not a valid value encoding: {e}"
            ))
        })
    }

    pub(crate) fn array(self, key: &str) -> Result<Elems<'a>, HandlerError> {
        self.param(key)?
            .elems()
            .ok_or_else(|| bad(format!("`{key}` must be an array")))
    }

    /// The optional `{name: <value encoding>}` member `key` as attr
    /// pairs; absent or `null` is none.
    pub(crate) fn attrs(self, key: &str) -> Result<Vec<(String, Value)>, HandlerError> {
        let Some(raw) = self.get(key) else {
            return Ok(vec![]);
        };
        let pairs = match raw.node() {
            Node::Null => return Ok(vec![]),
            Node::Object(pairs) => pairs,
            _ => {
                return Err(bad(format!(
                    "parameter `{key}` must be an object of attributes"
                )))
            }
        };
        pairs
            .map(|(name, v)| {
                decode_value(v)
                    .map(|val| (name.to_string(), val))
                    .map_err(|e| {
                        bad(format!(
                            "attribute `{name}` has invalid value encoding: {e}"
                        ))
                    })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Value decoding: the serde derive's rules, read off the view
// ---------------------------------------------------------------------------

fn expected(what: &str, found: Params<'_>) -> String {
    format!("expected {what}, found {}", found.node().type_name())
}

/// Decodes a [`Value`] exactly as `serde_json::from_value::<Value>` does
/// from the same tree — accepting what it accepts, refusing what it
/// refuses with the same message — without building the tree.
pub(crate) fn decode_value(v: Params<'_>) -> Result<Value, String> {
    let unknown = |name: &str| format!("unknown variant `{name}` for Value");
    match v.node() {
        // Unit variants travel as bare strings.
        Node::Str("Missing") => Ok(Value::Missing),
        Node::Str(other) => Err(unknown(other)),
        // Data variants as single-key objects.
        Node::Object(mut pairs) if pairs.len() == 1 => {
            let (name, inner) = pairs.next().ok_or_else(|| expected("enum variant", v))?;
            match name {
                "Int" => decode_i64(inner).map(Value::Int),
                "Real" => decode_f64(inner).map(Value::Real),
                "Bool" => inner
                    .as_bool()
                    .map(Value::Bool)
                    .ok_or_else(|| expected("bool", inner)),
                "Str" => decode_string(inner).map(Value::Str),
                "Enum" => decode_string(inner).map(Value::Enum),
                "Point" => {
                    if inner.pairs().is_none() {
                        return Err(expected("object", inner));
                    }
                    let field = |f: &str| {
                        inner
                            .get(f)
                            .ok_or_else(|| format!("missing field `{f}` for Value"))
                    };
                    let x = decode_i64(field("x")?)?;
                    let y = decode_i64(field("y")?)?;
                    Ok(Value::Point { x, y })
                }
                "List" => decode_vec(inner, decode_value).map(Value::List),
                "Set" => decode_vec(inner, decode_value).map(Value::Set),
                "Record" => decode_vec(inner, |item| {
                    let (k, v) = item
                        .elems()
                        .filter(|pair| pair.len() == 2)
                        .and_then(|mut pair| pair.next().zip(pair.next()))
                        .ok_or_else(|| expected("tuple array", item))?;
                    Ok((decode_string(k)?, decode_value(v)?))
                })
                .map(Value::Record),
                "Matrix" => {
                    decode_vec(inner, |row| decode_vec(row, decode_value)).map(Value::Matrix)
                }
                "Ref" => inner
                    .as_u64()
                    .map(|u| Value::Ref(Surrogate(u)))
                    .ok_or_else(|| expected("u64", inner)),
                other => Err(unknown(other)),
            }
        }
        _ => Err(expected("enum variant", v)),
    }
}

fn decode_i64(v: Params<'_>) -> Result<i64, String> {
    match v.node() {
        Node::Int(i) => Ok(i),
        Node::UInt(u) => i64::try_from(u).map_err(|_| expected("i64", v)),
        _ => Err(expected("i64", v)),
    }
}

fn decode_f64(v: Params<'_>) -> Result<f64, String> {
    match v.node() {
        Node::Float(f) => Ok(f),
        Node::Int(i) => Ok(i as f64),
        Node::UInt(u) => Ok(u as f64),
        // Non-finite floats serialize as null.
        Node::Null => Ok(f64::NAN),
        _ => Err(expected("f64", v)),
    }
}

fn decode_string(v: Params<'_>) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| expected("string", v))
}

fn decode_vec<'a, T>(
    v: Params<'a>,
    item: impl Fn(Params<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    v.elems()
        .ok_or_else(|| expected("array", v))?
        .map(item)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{bval_decode, bval_encode};

    fn bval(tree: &Json) -> Vec<u8> {
        let mut out = Vec::new();
        bval_encode(tree, &mut out);
        out
    }

    /// The tree a view reads, rebuilt node by node.
    fn tree(p: Params<'_>) -> Json {
        match p.node() {
            Node::Null => Json::Null,
            Node::Bool(b) => Json::Bool(b),
            Node::Int(i) => Json::Int(i),
            Node::UInt(u) => Json::UInt(u),
            Node::Float(f) => Json::Float(f),
            Node::Str(s) => Json::String(s.into()),
            Node::Array(items) => Json::Array(items.map(tree).collect()),
            Node::Object(pairs) => {
                Json::Object(pairs.map(|(k, v)| (k.to_string(), tree(v))).collect())
            }
        }
    }

    fn parse(text: &str) -> Json {
        serde_json::from_str(text).unwrap()
    }

    /// The view decodes values as the serde derive does, in both
    /// dialects: the same values, and the same refusals word for word.
    #[test]
    fn values_decode_exactly_as_serde_does() {
        let cases = [
            r#""Missing""#,
            r#"{"Int": -3}"#,
            r#"{"Int": 9223372036854775807}"#,
            r#"{"Real": 1.5}"#,
            r#"{"Real": 2}"#,
            r#"{"Real": null}"#,
            r#"{"Bool": true}"#,
            r#"{"Str": "a\"b"}"#,
            r#"{"Enum": "NAND"}"#,
            r#"{"Point": {"y": 2, "x": -1, "x": 5}}"#,
            r#"{"List": [{"Int": 1}, "Missing", {"Set": []}]}"#,
            r#"{"Record": [["w", {"Real": 0.5}], ["n", "Missing"]]}"#,
            r#"{"Matrix": [[{"Int": 1}], []]}"#,
            r#"{"Ref": 12}"#,
            r#"{"Ref": 18446744073709551615}"#,
            // Refusals.
            r#""Absent""#,
            r#"{"Int": 1, "Real": 2.0}"#,
            r#"{"Int": 1.5}"#,
            r#"{"Int": 18446744073709551615}"#,
            r#"{"Real": "x"}"#,
            r#"{"Bool": 1}"#,
            r#"{"Str": 5}"#,
            r#"{"Point": [1, 2]}"#,
            r#"{"Point": {"x": 1}}"#,
            r#"{"Point": {"x": "1", "y": 2}}"#,
            r#"{"List": {}}"#,
            r#"{"List": [{"Int": 1}, {"Nope": 1}]}"#,
            r#"{"Record": [["w"]]}"#,
            r#"{"Record": [[1, "Missing"]]}"#,
            r#"{"Matrix": [1]}"#,
            r#"{"Ref": -1}"#,
            r#"{"Warp": 1}"#,
            r#"{}"#,
            r#"[]"#,
            r#"7"#,
            r#"null"#,
        ];
        for text in cases {
            let t = parse(text);
            let want = serde_json::from_value::<Value>(&t).map_err(|e| e.to_string());
            let bytes = bval(&t);
            assert_eq!(decode_value(Params::Json(&t)), want, "json {text}");
            assert_eq!(decode_value(Params::Bval(&bytes)), want, "bval {text}");
        }
    }

    #[test]
    fn accessors_keep_the_handler_messages() {
        let t =
            parse(r#"{"obj": -1, "name": 3, "value": {"Nope": 1}, "attrs": [], "requests": 5}"#);
        let bytes = bval(&t);
        for p in [Params::Json(&t), Params::Bval(&bytes)] {
            let msg = |r: Result<(), HandlerError>| r.unwrap_err().1;
            assert_eq!(
                msg(p.surrogate("obj").map(drop)),
                "parameter `obj` must be an unsigned surrogate"
            );
            assert_eq!(msg(p.surrogate("x").map(drop)), "missing parameter `x`");
            assert_eq!(
                msg(p.str("name").map(drop)),
                "parameter `name` must be a string"
            );
            assert_eq!(
                msg(p.value("value").map(drop)),
                "parameter `value` is not a valid value encoding: unknown variant `Nope` for Value"
            );
            assert_eq!(
                msg(p.attrs("attrs").map(drop)),
                "parameter `attrs` must be an object of attributes"
            );
            assert_eq!(
                msg(p.array("requests").map(drop)),
                "`requests` must be an array"
            );
            assert!(p.attrs("absent").unwrap().is_empty());
        }
        // `null` and `{}` params read as empty; anything else is refused.
        for ok in ["null", "{}"] {
            let t = parse(ok);
            assert!(Params::Json(&t).object().unwrap().get("obj").is_none());
            assert!(Params::validate_bval(&bval(&t)).unwrap().is_empty() == (ok == "null"));
        }
        for refused in ["[1]", "5", r#""s""#, "true", "1.5"] {
            let t = parse(refused);
            let err = Params::Json(&t).object().unwrap_err();
            assert!(err.starts_with("params must be an object, got "), "{err}");
            assert_eq!(Params::validate_bval(&bval(&t)).unwrap_err(), err);
        }
    }

    /// A small deterministic generator (xorshift64*), so a failure replays.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// Seeded random, truncated and mutated bytes: validation refuses
    /// exactly what the tree decoder refuses, with its message, and a view
    /// over whatever passes never panics and reads the decoder's tree.
    #[test]
    fn the_view_refuses_what_the_decoder_refuses_and_never_panics() {
        let corpus: Vec<Vec<u8>> = [
            r#"{"obj": 3, "name": "X"}"#,
            r#"{"obj": 3, "name": "X", "value": {"Point": {"x": 1, "y": -2}}}"#,
            r#"{"requests": [{"verb": "attr", "params": {"obj": 1, "name": "X"}}, {"verb": "ping"}]}"#,
            r#"{"type": "If", "attrs": {"X": {"List": [{"Real": 0.5}, "Missing"]}}, "f": false}"#,
            r#"[null, true, 18446744073709551615, -1, "é"]"#,
        ]
        .iter()
        .map(|t| bval(&parse(t)))
        .collect();
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for round in 0..20_000 {
            let mut bytes = corpus[rng.below(corpus.len())].clone();
            match round % 4 {
                // Pure noise.
                0 => {
                    let n = rng.below(24);
                    bytes = (0..n).map(|_| rng.next() as u8).collect();
                }
                // Truncation.
                1 => bytes.truncate(rng.below(bytes.len())),
                // Byte flips, tags and counts included.
                2 => {
                    for _ in 0..=rng.below(3) {
                        let i = rng.below(bytes.len());
                        bytes[i] = rng.next() as u8;
                    }
                }
                // A hostile count spliced in anywhere.
                _ => {
                    let i = rng.below(bytes.len());
                    let end = (i + 4).min(bytes.len());
                    let count = (rng.next() as u32).to_be_bytes();
                    bytes.splice(i..end, count);
                }
            }
            let decoded = bval_decode(&bytes);
            assert_eq!(
                bval_validate(&bytes),
                decoded.as_ref().map(drop).map_err(Clone::clone),
                "{bytes:02x?}"
            );
            match (&decoded, Params::validate_bval(&bytes)) {
                (Err(e), Err(view)) => assert_eq!(e, &view),
                (Err(e), Ok(_)) if bytes.is_empty() => assert!(!e.is_empty()),
                (Err(e), Ok(_)) => panic!("view accepted {bytes:02x?} ({e})"),
                (Ok(t @ Json::Object(_)), Ok(view)) => {
                    let p = Params::Bval(view);
                    assert_eq!(&tree(p), t);
                    for (_, v) in p.pairs().unwrap() {
                        let _ = decode_value(v);
                    }
                }
                (Ok(Json::Null), Ok(view)) => assert!(view.is_empty()),
                (Ok(other), refused) => {
                    assert!(refused.is_err(), "non-object {other:?} accepted as params")
                }
            }
        }
    }
}
