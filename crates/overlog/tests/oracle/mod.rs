//! A naive reference evaluator for Overlog, independent of the engine it
//! checks. It walks the parsed AST and, every tick, recomputes every rule
//! over whole tables: no plan, no kernels, no indexes, no semi-naive
//! deltas, no incremental view maintenance. It shares only the parser,
//! `Value` with its operators, and the builtin registry with the engine.
//!
//! Tick semantics (DESIGN §3):
//! 1. queued inputs apply in arrival order — inserts overwrite on the
//!    primary key, deletes remove exact rows;
//! 2. strata run in order, each to a fixpoint of naive re-evaluation.
//!    Stratification follows negation and aggregation; rules whose
//!    effects cross the tick boundary (deletions, and inserts into a
//!    materialized table driven by an event) run once after the last
//!    stratum, over the tick's final state;
//! 3. deferred deletes apply;
//! 4. event tables clear;
//! 5. every view (a materialized head over materialized bodies) is
//!    rebuilt from scratch;
//! 6. deferred inserts queue for the next tick, ahead of later host input.
//!
//! Location specifiers and timers are out of scope.

// Each test binary uses its own subset of the oracle.
#![allow(dead_code)]

use boom_overlog::ast::{
    AggKind, BinOp, BodyElem, Expr, HeadArg, Predicate, Rule, Statement, TableDecl, TableKind,
};
use boom_overlog::value::{eval_binop, eval_unop};
use boom_overlog::{parse_program, Builtins, Row, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

type Env = HashMap<String, Value>;

/// One relation: rows in arrival order, unique on the primary key.
struct Rel {
    decl: TableDecl,
    rows: Vec<Row>,
}

impl Rel {
    fn key(&self, row: &Row) -> Vec<Value> {
        match &self.decl.keys {
            Some(cols) => cols.iter().map(|&c| row[c].clone()).collect(),
            None => row.to_vec(),
        }
    }

    /// Insert with key overwrite; true when the table changed.
    fn insert(&mut self, row: Row) -> bool {
        let key = self.key(&row);
        match self.rows.iter().position(|r| self.key(r) == key) {
            Some(i) if self.rows[i] == row => false,
            Some(i) => {
                self.rows[i] = row;
                true
            }
            None => {
                self.rows.push(row);
                true
            }
        }
    }
}

/// How a rule's derivations take effect.
#[derive(Clone, Copy, PartialEq)]
enum Effect {
    /// Inserted immediately, within the tick's fixpoint.
    Now,
    /// Inserted at the start of the next tick.
    NextTick,
    /// Deleted at the end of this tick.
    Delete,
}

pub struct Oracle {
    tables: BTreeMap<String, Rel>,
    /// `(stratum, effect, rule)`, in program order.
    rules: Vec<(usize, Effect, Rule)>,
    views: BTreeSet<String>,
    /// Queued inputs: `(insert?, table, row)`.
    pending: Vec<(bool, String, Row)>,
    builtins: Builtins,
}

impl Oracle {
    pub fn new(src: &str) -> Self {
        let prog = parse_program(src).expect("oracle program parses");
        let mut tables = BTreeMap::new();
        let mut rules = Vec::new();
        for stmt in &prog.statements {
            match stmt {
                Statement::Define(d) => {
                    let rel = Rel {
                        decl: d.clone(),
                        rows: Vec::new(),
                    };
                    tables.insert(d.name.clone(), rel);
                }
                Statement::Rule(r) => rules.push(r.clone()),
                Statement::Fact { .. } | Statement::Timer { .. } => {
                    panic!("the oracle takes no facts or timers")
                }
                Statement::Watch { .. } => {}
            }
        }
        let is_event = |t: &str| tables[t].decl.kind == TableKind::Event;
        let preds = |r: &Rule| -> Vec<Predicate> {
            r.body
                .iter()
                .filter_map(|b| match b {
                    BodyElem::Pred(p) => Some(p.clone()),
                    _ => None,
                })
                .collect()
        };
        let mut views = BTreeSet::new();
        let effects: Vec<Effect> = rules
            .iter()
            .map(|r| {
                assert!(r.head.loc.is_none(), "location specifiers are out of scope");
                let body_event = preds(r).iter().any(|p| is_event(&p.table));
                if r.delete {
                    Effect::Delete
                } else if is_event(&r.head.table) {
                    Effect::Now
                } else if body_event {
                    Effect::NextTick
                } else {
                    views.insert(r.head.table.clone());
                    Effect::Now
                }
            })
            .collect();
        // Stratify the immediate rules: a head sits at or above its
        // positive inputs, strictly above negated and aggregated ones.
        let mut stratum: HashMap<String, usize> = HashMap::new();
        for _ in 0..=tables.len() + 1 {
            let mut grew = false;
            for (r, e) in rules.iter().zip(&effects) {
                if *e != Effect::Now {
                    continue;
                }
                let agg = r.head.args.iter().any(|a| matches!(a, HeadArg::Agg(..)));
                let need = preds(r)
                    .iter()
                    .map(|p| {
                        stratum.get(&p.table).copied().unwrap_or(0) + usize::from(p.negated || agg)
                    })
                    .max()
                    .unwrap_or(0);
                let s = stratum.entry(r.head.table.clone()).or_insert(0);
                if need > *s {
                    *s = need;
                    grew = true;
                }
            }
            if !grew {
                let top = stratum.values().copied().max().unwrap_or(0) + 1;
                let rules = rules
                    .into_iter()
                    .zip(effects)
                    .map(|(r, e)| {
                        let s = if e == Effect::Now {
                            stratum[&r.head.table]
                        } else {
                            top
                        };
                        (s, e, r)
                    })
                    .collect();
                return Oracle {
                    tables,
                    rules,
                    views,
                    pending: Vec::new(),
                    builtins: Builtins::standard(),
                };
            }
        }
        panic!("program is not stratifiable");
    }

    pub fn insert(&mut self, table: &str, row: Row) {
        self.pending.push((true, table.into(), row));
    }

    pub fn delete(&mut self, table: &str, row: Row) {
        self.pending.push((false, table.into(), row));
    }

    /// Run ticks until no input is queued.
    pub fn settle(&mut self) {
        for _ in 0..64 {
            self.tick();
            if self.pending.is_empty() {
                return;
            }
        }
        panic!("oracle did not quiesce within 64 ticks");
    }

    pub fn tick(&mut self) {
        for (insert, t, row) in std::mem::take(&mut self.pending) {
            let rel = self.tables.get_mut(&t).expect("declared table");
            if insert {
                rel.insert(row);
            } else {
                rel.rows.retain(|r| *r != row);
            }
        }
        let (mut next, mut deletes) = (Vec::new(), Vec::new());
        self.fixpoint(|_| true, &mut next, &mut deletes);
        for (t, row) in deletes {
            self.tables
                .get_mut(&t)
                .expect("declared")
                .rows
                .retain(|r| *r != row);
        }
        for rel in self.tables.values_mut() {
            if rel.decl.kind == TableKind::Event {
                rel.rows.clear();
            }
        }
        for v in &self.views {
            self.tables.get_mut(v).expect("declared").rows.clear();
        }
        let views = self.views.clone();
        self.fixpoint(
            |r| views.contains(&r.head.table),
            &mut Vec::new(),
            &mut Vec::new(),
        );
        for (t, row) in next {
            self.pending.push((true, t, row));
        }
    }

    /// Evaluate the selected rules stratum by stratum, each stratum to a
    /// fixpoint; deferred derivations collect into `next` and `deletes`.
    fn fixpoint(
        &mut self,
        pick: impl Fn(&Rule) -> bool,
        next: &mut Vec<(String, Row)>,
        deletes: &mut Vec<(String, Row)>,
    ) {
        let top = self.rules.iter().map(|(s, ..)| *s).max().unwrap_or(0);
        for s in 0..=top {
            for round in 0.. {
                assert!(round < 10_000, "stratum {s} did not reach a fixpoint");
                let mut changed = false;
                for i in 0..self.rules.len() {
                    let (rs, effect, rule) = &self.rules[i];
                    if *rs != s || !pick(rule) {
                        continue;
                    }
                    let (effect, head) = (*effect, rule.head.table.clone());
                    for row in self.derive(rule) {
                        match effect {
                            Effect::Now => {
                                changed |= self.tables.get_mut(&head).unwrap().insert(row)
                            }
                            Effect::NextTick => {
                                if !next.contains(&(head.clone(), row.clone())) {
                                    next.push((head.clone(), row));
                                }
                            }
                            Effect::Delete => deletes.push((head.clone(), row)),
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }
    }

    /// Every head row the rule derives from the current tables.
    fn derive(&self, rule: &Rule) -> Vec<Row> {
        let mut envs = Vec::new();
        let order = schedule(&rule.body);
        self.solve(&rule.body, &order, Env::new(), &mut envs);
        if rule.head.args.iter().all(|a| matches!(a, HeadArg::Expr(_))) {
            return envs
                .iter()
                .map(|env| {
                    Arc::new(
                        rule.head
                            .args
                            .iter()
                            .map(|a| match a {
                                HeadArg::Expr(e) => self.eval(e, env),
                                HeadArg::Agg(..) => unreachable!(),
                            })
                            .collect(),
                    )
                })
                .collect();
        }
        // Aggregate: group on the plain head columns, fold the rest.
        let mut groups: BTreeMap<Vec<Value>, Vec<Vec<Value>>> = BTreeMap::new();
        for env in &envs {
            let key: Vec<Value> = rule
                .head
                .args
                .iter()
                .filter_map(|a| match a {
                    HeadArg::Expr(e) => Some(self.eval(e, env)),
                    HeadArg::Agg(..) => None,
                })
                .collect();
            let inputs = groups
                .entry(key)
                .or_insert_with(|| vec![Vec::new(); rule.head.args.len()]);
            for (i, a) in rule.head.args.iter().enumerate() {
                if let HeadArg::Agg(_, var) = a {
                    inputs[i].push(var.as_ref().map_or(Value::Int(1), |v| env[v].clone()));
                }
            }
        }
        groups
            .into_iter()
            .map(|(key, inputs)| {
                let mut keys = key.into_iter();
                Arc::new(
                    rule.head
                        .args
                        .iter()
                        .zip(inputs)
                        .map(|(a, vals)| match a {
                            HeadArg::Expr(_) => keys.next().unwrap(),
                            HeadArg::Agg(kind, _) => fold(*kind, &vals),
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// Nested-loop evaluation of the body elements in `order`.
    fn solve(&self, body: &[BodyElem], order: &[usize], env: Env, out: &mut Vec<Env>) {
        let Some((&i, rest)) = order.split_first() else {
            out.push(env);
            return;
        };
        match &body[i] {
            BodyElem::Pred(p) if !p.negated => {
                for row in &self.tables[&p.table].rows {
                    if let Some(env) = self.unify(p, row, &env) {
                        self.solve(body, rest, env, out);
                    }
                }
            }
            BodyElem::Pred(p) => {
                let rows = &self.tables[&p.table].rows;
                if !rows.iter().any(|row| self.unify(p, row, &env).is_some()) {
                    self.solve(body, rest, env, out);
                }
            }
            BodyElem::Cond(e) => {
                if self.eval(e, &env).truthy() {
                    self.solve(body, rest, env, out);
                }
            }
            BodyElem::Assign(v, e) => {
                // Assigning a bound variable tests equality.
                let mut env = env;
                let val = self.eval(e, &env);
                if env.get(v).is_some_and(|old| *old != val) {
                    return;
                }
                env.insert(v.clone(), val);
                self.solve(body, rest, env, out);
            }
        }
    }

    /// Match one row against a predicate, extending `env`: variables
    /// bind (or compare, once bound), then expression arguments compare.
    fn unify(&self, p: &Predicate, row: &Row, env: &Env) -> Option<Env> {
        if row.len() != p.args.len() {
            return None;
        }
        let mut env = env.clone();
        for (arg, val) in p.args.iter().zip(row.iter()) {
            if let Expr::Var(v) = arg {
                match env.get(v) {
                    Some(bound) if bound != val => return None,
                    Some(_) => {}
                    None => {
                        env.insert(v.clone(), val.clone());
                    }
                }
            }
        }
        for (arg, val) in p.args.iter().zip(row.iter()) {
            if !matches!(arg, Expr::Var(_) | Expr::Wildcard) && self.eval(arg, &env) != *val {
                return None;
            }
        }
        Some(env)
    }

    fn eval(&self, e: &Expr, env: &Env) -> Value {
        match e {
            Expr::Lit(v) => v.clone(),
            Expr::Var(v) => env[v].clone(),
            Expr::Wildcard => unreachable!("wildcards only match"),
            Expr::Binary(BinOp::And, a, b) => {
                Value::Bool(self.eval(a, env).truthy() && self.eval(b, env).truthy())
            }
            Expr::Binary(BinOp::Or, a, b) => {
                Value::Bool(self.eval(a, env).truthy() || self.eval(b, env).truthy())
            }
            Expr::Binary(op, a, b) => {
                eval_binop(*op, &self.eval(a, env), &self.eval(b, env)).expect("binary op")
            }
            Expr::Unary(op, a) => eval_unop(*op, &self.eval(a, env)).expect("unary op"),
            Expr::Call(f, args) => {
                let vals: Vec<Value> = args.iter().map(|a| self.eval(a, env)).collect();
                self.builtins.call(f, &vals).expect("builtin call")
            }
            Expr::ListLit(items) => Value::list(items.iter().map(|i| self.eval(i, env)).collect()),
        }
    }

    /// Every materialized table, rows sorted, one `table[row]` per line.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        for (name, rel) in &self.tables {
            if rel.decl.kind == TableKind::Event {
                continue;
            }
            let mut rows = rel.rows.clone();
            rows.sort();
            for row in rows {
                s.push_str(&format!("{name}{row:?}\n"));
            }
        }
        s
    }
}

/// Body order: repeatedly take the first element, in source order, whose
/// variables are bound (a positive predicate needs only the variables of
/// its non-variable arguments).
fn schedule(body: &[BodyElem]) -> Vec<usize> {
    let vars = |e: &Expr| {
        let mut v = Vec::new();
        e.collect_vars(&mut v);
        v
    };
    let mut bound: BTreeSet<String> = BTreeSet::new();
    let mut order = Vec::new();
    while order.len() < body.len() {
        let i = (0..body.len())
            .filter(|i| !order.contains(i))
            .find(|&i| {
                let needs: Vec<String> = match &body[i] {
                    BodyElem::Pred(p) if !p.negated => {
                        let own: Vec<&str> = p.args.iter().filter_map(Expr::as_var).collect();
                        p.args
                            .iter()
                            .filter(|a| a.as_var().is_none())
                            .flat_map(vars)
                            .filter(|v| !own.contains(&v.as_str()))
                            .collect()
                    }
                    BodyElem::Pred(p) => p.args.iter().flat_map(vars).collect(),
                    BodyElem::Cond(e) | BodyElem::Assign(_, e) => vars(e),
                };
                needs.iter().all(|v| bound.contains(v))
            })
            .expect("rule body is safe");
        match &body[i] {
            BodyElem::Pred(p) if !p.negated => bound.extend(p.args.iter().flat_map(vars)),
            BodyElem::Assign(v, _) => {
                bound.insert(v.clone());
            }
            _ => {}
        }
        order.push(i);
    }
    order
}

/// Fold one aggregate's inputs in derivation order: `min`/`max` skip
/// `null` inputs and fold only-`null` groups to `null`, `sum` stays integral
/// until a float arrives, `set` emits in sorted order, and `avg` of
/// nothing is `null`.
fn fold(kind: AggKind, vals: &[Value]) -> Value {
    let extreme = |better: fn(&Value, &Value) -> bool| {
        vals.iter().fold(Value::Null, |m, v| {
            if !matches!(v, Value::Null) && (m == Value::Null || better(v, &m)) {
                v.clone()
            } else {
                m
            }
        })
    };
    match kind {
        AggKind::Count => Value::Int(vals.len() as i64),
        AggKind::Min => extreme(|v, m| v < m),
        AggKind::Max => extreme(|v, m| v > m),
        AggKind::Set => Value::list(
            vals.iter()
                .cloned()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect(),
        ),
        AggKind::Sum => vals.iter().fold(Value::Int(0), |acc, v| match (&acc, v) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
            _ => Value::Float(acc.as_float().expect("numeric") + v.as_float().expect("numeric")),
        }),
        AggKind::Avg => {
            if vals.is_empty() {
                Value::Null
            } else {
                let sum: f64 = vals.iter().map(|v| v.as_float().expect("numeric")).sum();
                Value::Float(sum / vals.len() as f64)
            }
        }
    }
}
