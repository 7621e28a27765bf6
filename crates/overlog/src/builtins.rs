//! Builtin function registry.
//!
//! JOL let Overlog rules call out to Java methods; this runtime replaces
//! that escape hatch with a registry of named Rust functions. The standard
//! library below covers everything the BOOM programs need (string
//! manipulation for path handling, stable hashing for partitioning, list
//! helpers for chunk sets).

use crate::ast::{BodyElem, Expr, HeadArg, Rule};
use crate::error::{OverlogError, Result};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Signature of a builtin function.
pub type BuiltinFn = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// The names of the standard library: pure functions of their arguments
/// with no hidden state. The planner and the maintenance analysis consult
/// this list — a pure call may be reordered across joins and re-evaluated
/// during maintenance, while a host-registered builtin (paxos's `qid()`
/// draws from a counter) may be stateful and pins its rule to the
/// source-order schedule.
pub const PURE_BUILTINS: &[&str] = &[
    "tostr",
    "toint",
    "tofloat",
    "toaddr",
    "strlen",
    "substr",
    "startswith",
    "dirname",
    "basename",
    "hash",
    "hashmod",
    "abs",
    "min2",
    "max2",
    "size",
    "nth",
    "contains",
    "append",
    "pick",
    "ifelse",
];

/// Is every builtin call of the expression in the pure standard library?
pub fn expr_reorderable(e: &Expr) -> bool {
    match e {
        Expr::Lit(_) | Expr::Var(_) | Expr::Wildcard => true,
        Expr::Binary(_, a, b) => expr_reorderable(a) && expr_reorderable(b),
        Expr::Unary(_, a) => expr_reorderable(a),
        Expr::Call(f, args) => {
            PURE_BUILTINS.contains(&f.as_str()) && args.iter().all(expr_reorderable)
        }
        Expr::ListLit(items) => items.iter().all(expr_reorderable),
    }
}

/// May the planner reorder this rule's body? Only when every body
/// expression calls pure builtins exclusively (a stateful builtin like
/// `qid()` must not change how often or in what order it runs).
pub fn rule_reorderable(rule: &Rule) -> bool {
    rule.body.iter().all(|b| match b {
        BodyElem::Pred(p) => p.args.iter().all(expr_reorderable),
        BodyElem::Cond(e) | BodyElem::Assign(_, e) => expr_reorderable(e),
    })
}

/// The first call to a builtin outside the pure standard library anywhere
/// in the rule (head included — head expressions run once per derived row
/// too), or `None` for a fully pure rule.
pub(crate) fn impure_call(rule: &Rule) -> Option<String> {
    fn find(e: &Expr) -> Option<String> {
        match e {
            Expr::Call(f, args) => {
                if !PURE_BUILTINS.contains(&f.as_str()) {
                    return Some(f.clone());
                }
                args.iter().find_map(find)
            }
            Expr::Binary(_, a, b) => find(a).or_else(|| find(b)),
            Expr::Unary(_, a) => find(a),
            Expr::ListLit(items) => items.iter().find_map(find),
            Expr::Lit(_) | Expr::Var(_) | Expr::Wildcard => None,
        }
    }
    for arg in &rule.head.args {
        if let HeadArg::Expr(e) = arg {
            if let Some(f) = find(e) {
                return Some(f);
            }
        }
    }
    rule.body.iter().find_map(|b| match b {
        BodyElem::Pred(p) => p.args.iter().find_map(find),
        BodyElem::Cond(e) | BodyElem::Assign(_, e) => find(e),
    })
}

/// A name → function map with the standard library pre-registered.
#[derive(Clone)]
pub struct Builtins {
    fns: HashMap<String, BuiltinFn>,
}

impl std::fmt::Debug for Builtins {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.fns.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        f.debug_struct("Builtins").field("fns", &names).finish()
    }
}

fn eval_err(msg: impl Into<String>) -> OverlogError {
    OverlogError::Eval(msg.into())
}

macro_rules! builtin {
    ($map:expr, $name:expr, $arity:expr, $f:expr) => {{
        let name: &str = $name;
        let arity: usize = $arity;
        let f = $f;
        let wrapped: BuiltinFn = Arc::new(move |args: &[Value]| {
            if args.len() != arity {
                return Err(eval_err(format!(
                    "{name} expects {arity} argument(s), got {}",
                    args.len()
                )));
            }
            f(args)
        });
        $map.insert(name.to_string(), wrapped);
    }};
}

/// Deterministic FNV-1a hash of a value (stable across runs and platforms,
/// unlike `DefaultHasher`). Used by the partitioned-NameNode revision.
pub fn stable_hash(v: &Value) -> u64 {
    fn feed(h: &mut u64, bytes: &[u8]) {
        for b in bytes {
            *h ^= u64::from(*b);
            *h = h.wrapping_mul(0x100000001b3);
        }
    }
    fn go(h: &mut u64, v: &Value) {
        match v {
            Value::Null => feed(h, b"\x00"),
            Value::Bool(b) => feed(h, &[1, u8::from(*b)]),
            Value::Int(i) => {
                feed(h, b"\x02");
                feed(h, &i.to_le_bytes());
            }
            Value::Float(f) => {
                feed(h, b"\x03");
                feed(h, &f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                feed(h, b"\x04");
                feed(h, s.as_bytes());
            }
            Value::Addr(s) => {
                feed(h, b"\x05");
                feed(h, s.as_bytes());
            }
            Value::List(l) => {
                feed(h, b"\x06");
                for item in l.iter() {
                    go(h, item);
                }
            }
        }
    }
    let mut h = 0xcbf29ce484222325u64;
    go(&mut h, v);
    h
}

impl Default for Builtins {
    fn default() -> Self {
        Self::standard()
    }
}

impl Builtins {
    /// The standard library.
    pub fn standard() -> Self {
        let mut m: HashMap<String, BuiltinFn> = HashMap::new();

        // --- conversions ---
        builtin!(m, "tostr", 1, |a: &[Value]| {
            Ok(match &a[0] {
                Value::Str(s) => Value::Str(s.clone()),
                Value::Addr(s) => Value::Str(s.clone()),
                other => Value::str(other.to_string()),
            })
        });
        builtin!(m, "toint", 1, |a: &[Value]| {
            match &a[0] {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => Ok(Value::Int(*f as i64)),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| eval_err(format!("toint: cannot parse `{s}`"))),
                Value::Bool(b) => Ok(Value::Int(i64::from(*b))),
                other => Err(eval_err(format!("toint: bad operand {other}"))),
            }
        });
        builtin!(m, "tofloat", 1, |a: &[Value]| {
            a[0].as_float()
                .map(Value::Float)
                .ok_or_else(|| eval_err(format!("tofloat: bad operand {}", a[0])))
        });
        builtin!(m, "toaddr", 1, |a: &[Value]| {
            match &a[0] {
                Value::Addr(s) => Ok(Value::Addr(s.clone())),
                Value::Str(s) => Ok(Value::Addr(s.clone())),
                other => Err(eval_err(format!("toaddr: bad operand {other}"))),
            }
        });

        // --- strings ---
        builtin!(m, "strlen", 1, |a: &[Value]| {
            a[0].as_str()
                .map(|s| Value::Int(s.chars().count() as i64))
                .ok_or_else(|| eval_err("strlen: not a string"))
        });
        builtin!(m, "substr", 3, |a: &[Value]| {
            let s = a[0]
                .as_str()
                .ok_or_else(|| eval_err("substr: not a string"))?;
            let start = a[1].as_int().ok_or_else(|| eval_err("substr: bad start"))? as usize;
            let len = a[2].as_int().ok_or_else(|| eval_err("substr: bad len"))? as usize;
            Ok(Value::str(
                s.chars().skip(start).take(len).collect::<String>(),
            ))
        });
        builtin!(m, "startswith", 2, |a: &[Value]| {
            let (s, p) = (
                a[0].as_str()
                    .ok_or_else(|| eval_err("startswith: not a string"))?,
                a[1].as_str()
                    .ok_or_else(|| eval_err("startswith: not a string"))?,
            );
            Ok(Value::Bool(s.starts_with(p)))
        });
        // Parent directory of a slash-separated path ("" for the root).
        builtin!(m, "dirname", 1, |a: &[Value]| {
            let s = a[0]
                .as_str()
                .ok_or_else(|| eval_err("dirname: not a string"))?;
            Ok(Value::str(match s.rfind('/') {
                Some(0) | None => "/",
                Some(i) => &s[..i],
            }))
        });
        builtin!(m, "basename", 1, |a: &[Value]| {
            let s = a[0]
                .as_str()
                .ok_or_else(|| eval_err("basename: not a string"))?;
            Ok(Value::str(match s.rfind('/') {
                Some(i) => &s[i + 1..],
                None => s,
            }))
        });

        // --- hashing & arithmetic helpers ---
        builtin!(m, "hash", 1, |a: &[Value]| {
            Ok(Value::Int(
                (stable_hash(&a[0]) & 0x7fff_ffff_ffff_ffff) as i64,
            ))
        });
        builtin!(m, "hashmod", 2, |a: &[Value]| {
            let md = a[1]
                .as_int()
                .ok_or_else(|| eval_err("hashmod: bad modulus"))?;
            if md <= 0 {
                return Err(eval_err("hashmod: modulus must be positive"));
            }
            Ok(Value::Int((stable_hash(&a[0]) % md as u64) as i64))
        });
        builtin!(m, "abs", 1, |a: &[Value]| {
            match &a[0] {
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(eval_err(format!("abs: bad operand {other}"))),
            }
        });
        builtin!(m, "min2", 2, |a: &[Value]| {
            Ok(if a[0] <= a[1] {
                a[0].clone()
            } else {
                a[1].clone()
            })
        });
        builtin!(m, "max2", 2, |a: &[Value]| {
            Ok(if a[0] >= a[1] {
                a[0].clone()
            } else {
                a[1].clone()
            })
        });

        // --- lists ---
        builtin!(m, "size", 1, |a: &[Value]| {
            a[0].as_list()
                .map(|l| Value::Int(l.len() as i64))
                .ok_or_else(|| eval_err("size: not a list"))
        });
        builtin!(m, "nth", 2, |a: &[Value]| {
            let l = a[0].as_list().ok_or_else(|| eval_err("nth: not a list"))?;
            let i = a[1].as_int().ok_or_else(|| eval_err("nth: bad index"))?;
            usize::try_from(i)
                .ok()
                .and_then(|i| l.get(i))
                .cloned()
                .ok_or_else(|| eval_err(format!("nth: index {i} out of bounds (len {})", l.len())))
        });
        builtin!(m, "contains", 2, |a: &[Value]| {
            let l = a[0]
                .as_list()
                .ok_or_else(|| eval_err("contains: not a list"))?;
            Ok(Value::Bool(l.contains(&a[1])))
        });
        builtin!(m, "append", 2, |a: &[Value]| {
            let l = a[0]
                .as_list()
                .ok_or_else(|| eval_err("append: not a list"))?;
            let mut out = l.to_vec();
            out.push(a[1].clone());
            Ok(Value::list(out))
        });

        // Deterministic pseudo-random choice of `k` elements from a list,
        // keyed by a seed value (used for chunk placement: different seeds
        // spread replicas across nodes, same seed reproduces the choice).
        builtin!(m, "pick", 3, |a: &[Value]| {
            let l = a[0].as_list().ok_or_else(|| eval_err("pick: not a list"))?;
            let k = a[1].as_int().ok_or_else(|| eval_err("pick: bad k"))? as usize;
            let seed = &a[2];
            let mut scored: Vec<(u64, &Value)> = l
                .iter()
                .map(|item| {
                    (
                        stable_hash(&Value::list(vec![seed.clone(), item.clone()])),
                        item,
                    )
                })
                .collect();
            scored.sort_by(|x, y| x.0.cmp(&y.0).then_with(|| x.1.cmp(y.1)));
            Ok(Value::list(
                scored.into_iter().take(k).map(|(_, v)| v.clone()).collect(),
            ))
        });

        // --- misc ---
        builtin!(m, "ifelse", 3, |a: &[Value]| {
            Ok(if a[0].truthy() {
                a[1].clone()
            } else {
                a[2].clone()
            })
        });

        Builtins { fns: m }
    }

    /// Register (or replace) a builtin.
    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    {
        self.fns.insert(name.to_string(), Arc::new(f));
    }

    /// Invoke a builtin by name.
    pub fn call(&self, name: &str, args: &[Value]) -> Result<Value> {
        match self.fns.get(name) {
            Some(f) => f(args),
            None => Err(eval_err(format!("unknown builtin function `{name}`"))),
        }
    }

    /// Whether a builtin with this name exists.
    pub fn has(&self, name: &str) -> bool {
        self.fns.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let b = Builtins::standard();
        assert_eq!(b.call("tostr", &[Value::Int(5)]).unwrap(), Value::str("5"));
        assert_eq!(
            b.call("toint", &[Value::str(" 42 ")]).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            b.call("tofloat", &[Value::Int(2)]).unwrap(),
            Value::Float(2.0)
        );
        assert!(b.call("toint", &[Value::str("x")]).is_err());
    }

    #[test]
    fn path_helpers() {
        let b = Builtins::standard();
        assert_eq!(
            b.call("dirname", &[Value::str("/a/b/c")]).unwrap(),
            Value::str("/a/b")
        );
        assert_eq!(
            b.call("dirname", &[Value::str("/a")]).unwrap(),
            Value::str("/")
        );
        assert_eq!(
            b.call("basename", &[Value::str("/a/b/c")]).unwrap(),
            Value::str("c")
        );
    }

    #[test]
    fn stable_hash_is_stable_and_spread() {
        let a = stable_hash(&Value::str("/some/path"));
        let b = stable_hash(&Value::str("/some/path"));
        let c = stable_hash(&Value::str("/some/patj"));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hashmod_bounds() {
        let b = Builtins::standard();
        for i in 0..100 {
            let v = b
                .call("hashmod", &[Value::Int(i), Value::Int(4)])
                .unwrap()
                .as_int()
                .unwrap();
            assert!((0..4).contains(&v));
        }
        assert!(b.call("hashmod", &[Value::Int(1), Value::Int(0)]).is_err());
    }

    #[test]
    fn list_builtins() {
        let b = Builtins::standard();
        let l = Value::list(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(
            b.call("size", std::slice::from_ref(&l)).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            b.call("nth", &[l.clone(), Value::Int(1)]).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            b.call("contains", &[l.clone(), Value::Int(2)]).unwrap(),
            Value::Bool(true)
        );
        let l2 = b.call("append", &[l, Value::Int(3)]).unwrap();
        assert_eq!(b.call("size", &[l2]).unwrap(), Value::Int(3));
        assert!(b
            .call("nth", &[Value::list(vec![]), Value::Int(0)])
            .is_err());
    }

    #[test]
    fn arity_checked() {
        let b = Builtins::standard();
        assert!(b.call("strlen", &[]).is_err());
        assert!(b.call("nope", &[]).is_err());
    }

    #[test]
    fn custom_registration_overrides() {
        let mut b = Builtins::standard();
        b.register("strlen", |_| Ok(Value::Int(-1)));
        assert_eq!(
            b.call("strlen", &[Value::str("abc")]).unwrap(),
            Value::Int(-1)
        );
    }
}
