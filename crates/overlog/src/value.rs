//! Dynamically-typed tuple values.
//!
//! Overlog is dynamically typed at the tuple level: every column of every
//! relation holds a [`Value`]. Table declarations carry [`TypeTag`]s that are
//! checked on insertion, mirroring JOL's declared Java types.

use crate::ast::{BinOp, UnOp};
use crate::error::{OverlogError, Result};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single column value in an Overlog tuple.
///
/// `Value` implements total `Eq`/`Ord`/`Hash` (floats compare via IEEE total
/// ordering) so tuples can serve as hash-table and B-tree keys throughout the
/// runtime.
#[derive(Debug, Clone)]
pub enum Value {
    /// The distinguished null constant (`null` in Overlog source).
    Null,
    /// Boolean constant (`true` / `false`).
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. Compared with `f64::total_cmp`.
    Float(f64),
    /// Interned immutable string.
    Str(Arc<str>),
    /// A network address (node name). Distinct from `Str` so location
    /// specifiers are unambiguous in traces.
    Addr(Arc<str>),
    /// A list of values (used e.g. for chunk-location sets and RPC args).
    List(Arc<Vec<Value>>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build an address value.
    pub fn addr(s: impl AsRef<str>) -> Self {
        Value::Addr(Arc::from(s.as_ref()))
    }

    /// Build a list value.
    pub fn list(vs: Vec<Value>) -> Self {
        Value::List(Arc::new(vs))
    }

    /// The runtime type of this value.
    pub fn type_tag(&self) -> TypeTag {
        match self {
            Value::Null => TypeTag::Any,
            Value::Bool(_) => TypeTag::Bool,
            Value::Int(_) => TypeTag::Int,
            Value::Float(_) => TypeTag::Float,
            Value::Str(_) => TypeTag::Str,
            Value::Addr(_) => TypeTag::Addr,
            Value::List(_) => TypeTag::List,
        }
    }

    /// Interpret the value as a boolean condition (used by comparison terms).
    pub fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Null => false,
            Value::Int(i) => *i != 0,
            _ => true,
        }
    }

    /// Integer accessor.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float accessor with int coercion.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// String accessor (both `Str` and `Addr`).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) | Value::Addr(s) => Some(s),
            _ => None,
        }
    }

    /// List accessor.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Discriminant used for cross-variant ordering.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Addr(_) => 5,
            Value::List(_) => 6,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Numeric cross-comparison: ints and floats compare by value so
            // rule conditions like `Progress > 0` work on float columns.
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Addr(a), Addr(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

/// 2^63: the least float above every `i64`.
const TWO_63: f64 = 9_223_372_036_854_775_808.0;

/// Exact comparison of an `Int` with a `Float`, consistent with
/// `f64::total_cmp` among floats: an int sits at its exact value (no
/// rounding through `f64`, which stops holding every integer at 2^53),
/// `-0.0` sits just below `0`, and a NaN sits beyond the infinity on the
/// side of its sign bit. So an int equals a float only when the float is
/// integral, in `i64` range, not `-0.0`, and the same number — exactly
/// the floats [`Hash`] hashes as that int.
fn int_float_cmp(a: i64, b: f64) -> Ordering {
    if b.is_nan() {
        return if b.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if b >= TWO_63 {
        return Ordering::Less;
    }
    if b < -TWO_63 {
        return Ordering::Greater;
    }
    // `b` lies in [-2^63, 2^63), so its integer part is an exact `i64`,
    // and subtracting it leaves the fraction exactly.
    let whole = b.trunc();
    a.cmp(&(whole as i64)).then_with(|| {
        let frac = b - whole;
        if frac > 0.0 {
            Ordering::Less
        } else if frac < 0.0 || b.is_sign_negative() && b == 0.0 {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    })
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Value::Int(i) => {
                state.write_u8(2);
                i.hash(state);
            }
            // Hash floats that are exactly integral the same way as ints so
            // `Int(2) == Float(2.0)` implies equal hashes.
            Value::Float(f) => {
                if f.fract() == 0.0 && (-TWO_63..TWO_63).contains(f) {
                    state.write_u8(2);
                    (*f as i64).hash(state);
                } else {
                    state.write_u8(3);
                    f.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
            Value::Addr(s) => {
                state.write_u8(5);
                s.hash(state);
            }
            Value::List(l) => {
                state.write_u8(6);
                l.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Addr(s) => write!(f, "@{s}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

/// Declared column type in a `define(...)` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeTag {
    /// Matches any value (declared `Value` in source).
    Any,
    /// `Bool`
    Bool,
    /// `Int` / `Long`
    Int,
    /// `Float` / `Double`
    Float,
    /// `String`
    Str,
    /// `Addr` — a network location; columns carrying location specifiers.
    Addr,
    /// `List`
    List,
}

impl TypeTag {
    /// Parse a declared type name from Overlog source.
    pub fn parse(name: &str) -> Option<TypeTag> {
        Some(match name {
            "Value" | "Any" | "Object" => TypeTag::Any,
            "Bool" | "Boolean" => TypeTag::Bool,
            "Int" | "Integer" | "Long" => TypeTag::Int,
            "Float" | "Double" => TypeTag::Float,
            "String" | "Str" => TypeTag::Str,
            "Addr" | "Address" | "Location" => TypeTag::Addr,
            "List" | "Set" => TypeTag::List,
            _ => return None,
        })
    }

    /// Whether a value is admissible under this declared type.
    ///
    /// `Null` is admissible everywhere (JOL semantics); ints are admissible
    /// where floats are declared.
    pub fn admits(self, v: &Value) -> bool {
        match (self, v) {
            (TypeTag::Any, _) | (_, Value::Null) => true,
            (TypeTag::Float, Value::Int(_)) => true,
            // Strings are accepted where addresses are declared: clients
            // frequently compute addresses as strings.
            (TypeTag::Addr, Value::Str(_)) => true,
            _ => self == v.type_tag(),
        }
    }
}

impl fmt::Display for TypeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TypeTag::Any => "Value",
            TypeTag::Bool => "Bool",
            TypeTag::Int => "Int",
            TypeTag::Float => "Float",
            TypeTag::Str => "String",
            TypeTag::Addr => "Addr",
            TypeTag::List => "List",
        };
        f.write_str(s)
    }
}

/// A tuple (row) of an Overlog relation. Cheap to clone.
pub type Row = Arc<Vec<Value>>;

/// Build a [`Row`] from an iterator of values.
pub fn row(vals: impl IntoIterator<Item = Value>) -> Row {
    Arc::new(vals.into_iter().collect())
}

/// Convenience macro for building rows from heterogeneous literals.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::value::row(vec![$($crate::value::Value::from($v)),*])
    };
}

/// Apply a unary operator to an evaluated value.
pub fn eval_unop(op: UnOp, v: &Value) -> Result<Value> {
    match op {
        UnOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(OverlogError::Eval(format!("cannot negate {other}"))),
        },
        UnOp::Not => Ok(Value::Bool(!v.truthy())),
    }
}

fn raw_str(v: &Value) -> String {
    match v {
        Value::Str(s) | Value::Addr(s) => s.to_string(),
        other => other.to_string(),
    }
}

/// Apply a strict (non-short-circuit) binary operator to two evaluated
/// values: comparisons, concatenation and arithmetic. `&&`/`||` never
/// reach here: they evaluate their right side lazily
/// ([`crate::kernel::KExpr::And`]/[`crate::kernel::KExpr::Or`]).
pub fn eval_binop(op: BinOp, va: &Value, vb: &Value) -> Result<Value> {
    match op {
        BinOp::Eq => Ok(Value::Bool(va == vb)),
        BinOp::Ne => Ok(Value::Bool(va != vb)),
        BinOp::Lt => Ok(Value::Bool(va < vb)),
        BinOp::Le => Ok(Value::Bool(va <= vb)),
        BinOp::Gt => Ok(Value::Bool(va > vb)),
        BinOp::Ge => Ok(Value::Bool(va >= vb)),
        BinOp::Concat => match (va, vb) {
            (Value::List(x), Value::List(y)) => {
                let mut out = x.to_vec();
                out.extend(y.iter().cloned());
                Ok(Value::list(out))
            }
            _ => Ok(Value::str(format!("{}{}", raw_str(va), raw_str(vb)))),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(op, va, vb),
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops are evaluated lazily"),
    }
}

fn arith(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return match op {
            BinOp::Add => Ok(Value::Int(x.wrapping_add(*y))),
            BinOp::Sub => Ok(Value::Int(x.wrapping_sub(*y))),
            BinOp::Mul => Ok(Value::Int(x.wrapping_mul(*y))),
            BinOp::Div => {
                if *y == 0 {
                    Err(OverlogError::Eval("integer division by zero".into()))
                } else {
                    Ok(Value::Int(x.wrapping_div(*y)))
                }
            }
            BinOp::Mod => {
                if *y == 0 {
                    Err(OverlogError::Eval("integer modulo by zero".into()))
                } else {
                    Ok(Value::Int(x.wrapping_rem(*y)))
                }
            }
            _ => unreachable!("arith called with arithmetic op"),
        };
    }
    let (x, y) = (
        a.as_float()
            .ok_or_else(|| OverlogError::Eval(format!("arithmetic on non-number {a}")))?,
        b.as_float()
            .ok_or_else(|| OverlogError::Eval(format!("arithmetic on non-number {b}")))?,
    );
    Ok(match op {
        BinOp::Add => Value::Float(x + y),
        BinOp::Sub => Value::Float(x - y),
        BinOp::Mul => Value::Float(x * y),
        BinOp::Div => Value::Float(x / y),
        BinOp::Mod => Value::Float(x % y),
        _ => unreachable!("arith called with arithmetic op"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn int_float_equality_is_consistent_with_hash() {
        let a = Value::Int(2);
        let b = Value::Float(2.0);
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn int_float_equality_is_exact_beyond_2_pow_53() {
        let p53 = 1i64 << 53;
        assert_ne!(Value::Int(p53 + 1), Value::Float(p53 as f64));
        assert!(Value::Int(p53 + 1) > Value::Float(p53 as f64));
        assert_eq!(Value::Int(p53), Value::Float(p53 as f64));
        assert!(Value::Int(i64::MAX) < Value::Float(TWO_63));
        assert_eq!(Value::Int(i64::MIN), Value::Float(-TWO_63));
        assert!(Value::Int(0) > Value::Float(-0.0));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        assert!(Value::Int(i64::MIN) > Value::Float(-f64::NAN));
        let set: crate::fx::FxHashSet<Value> = [Value::Int(p53 + 1)].into_iter().collect();
        assert!(!set.contains(&Value::Float(p53 as f64)));
    }

    /// Ints and floats around the edges of exact representation: 2^53 ± 1,
    /// the `i64` bounds and the floats next to ±2^63, signed zeros, halves,
    /// infinities and NaNs of both signs.
    fn numeric_edges() -> Vec<Value> {
        let p53 = 1i64 << 53;
        let ints = [
            0,
            1,
            -1,
            p53 - 1,
            p53,
            p53 + 1,
            -p53 - 1,
            -p53,
            -p53 + 1,
            i64::MAX,
            i64::MAX - 1,
            i64::MIN,
            i64::MIN + 1,
        ];
        let floats = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            p53 as f64,
            (p53 + 2) as f64,
            -(p53 as f64),
            p53 as f64 + 0.5,
            TWO_63,
            -TWO_63,
            f64::from_bits(TWO_63.to_bits() - 1),
            -f64::from_bits(TWO_63.to_bits() - 1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        ints.into_iter()
            .map(Value::Int)
            .chain(floats.into_iter().map(Value::Float))
            .collect()
    }

    #[test]
    fn mixed_numeric_order_is_total_and_agrees_with_hash() {
        let edges = numeric_edges();
        for a in &edges {
            for b in &edges {
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "antisymmetry: {a:?}, {b:?}");
                if a == b {
                    assert_eq!(h(a), h(b), "equal values hash equal: {a:?}, {b:?}");
                }
                for c in &edges {
                    if a <= b && b <= c {
                        assert!(a <= c, "transitivity: {a:?} <= {b:?} <= {c:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan, nan.clone());
    }

    #[test]
    fn cross_variant_ordering_is_total_and_antisymmetric() {
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(1),
            Value::str("a"),
            Value::addr("node1"),
            Value::list(vec![Value::Int(1)]),
        ];
        for a in &vals {
            for b in &vals {
                let ab = a.cmp(b);
                let ba = b.cmp(a);
                assert_eq!(ab, ba.reverse());
            }
        }
    }

    #[test]
    fn type_tags_admit_expected_values() {
        assert!(TypeTag::Int.admits(&Value::Int(3)));
        assert!(TypeTag::Float.admits(&Value::Int(3)));
        assert!(!TypeTag::Int.admits(&Value::Float(3.5)));
        assert!(TypeTag::Str.admits(&Value::Null));
        assert!(TypeTag::Addr.admits(&Value::str("n1")));
        assert!(TypeTag::Any.admits(&Value::list(vec![])));
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("x").to_string(), "\"x\"");
        assert_eq!(Value::addr("n").to_string(), "@n");
        assert_eq!(Value::Null.to_string(), "null");
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Null.truthy());
        assert!(Value::str("").truthy());
        assert!(!Value::Int(0).truthy());
    }

    #[test]
    fn tuple_macro_builds_rows() {
        let r = tuple!(1, "a", 2.5, true);
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], Value::Int(1));
        assert_eq!(r[3], Value::Bool(true));
    }
}
