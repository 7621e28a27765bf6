//! Materialized tables: primary-key storage plus maintained secondary
//! indexes used by the rule evaluator's join lookups.

use crate::ast::{TableDecl, TableKind};
use crate::error::{OverlogError, Result};
use crate::fx::FxHashMap;
use crate::value::{Row, Value};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Outcome of inserting a row into a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The row is new.
    New,
    /// A row with the same primary key but different contents was replaced
    /// (JOL's key-overwrite update semantics). Carries the displaced row.
    Replaced(Row),
    /// An identical row was already present; no change.
    Duplicate,
}

/// Borrowed candidate rows for a scan: either one index bucket or the
/// whole table. Lets the evaluator iterate join candidates without
/// cloning them into a `Vec<Row>` first (the zero-copy hot path).
pub enum Candidates<'a> {
    /// Rows of one secondary-index bucket (or a delta slice).
    Slice(std::slice::Iter<'a, Row>),
    /// Every stored row (full scan).
    All(std::collections::hash_map::Values<'a, Vec<Value>, Row>),
}

impl<'a> Iterator for Candidates<'a> {
    type Item = &'a Row;

    fn next(&mut self) -> Option<&'a Row> {
        match self {
            Candidates::Slice(it) => it.next(),
            Candidates::All(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Candidates::Slice(it) => it.size_hint(),
            Candidates::All(it) => it.size_hint(),
        }
    }
}

/// One stored relation.
///
/// Rows are stored in a primary-key map (`keys(...)` columns from the
/// declaration, or the whole row when no key was declared). Secondary
/// indexes over arbitrary column sets are created lazily by the evaluator
/// and maintained on every mutation.
#[derive(Debug)]
pub struct Table {
    def: TableDecl,
    rows: FxHashMap<Vec<Value>, Row>,
    indexes: FxHashMap<Vec<usize>, FxHashMap<Vec<Value>, Vec<Row>>>,
    /// Typed twins of `indexes` over all-`int` column sets, keyed by raw
    /// `i64`s instead of `Vec<Value>` — the compiled kernels' hash-join
    /// probes hash machine integers, not tagged values. Built only for
    /// column sets a kernel probes (see [`Table::ensure_int_index`]) and
    /// maintained in lockstep with the generic index (same push /
    /// `swap_remove` sequence), so a typed bucket iterates its rows in
    /// exactly the order the generic bucket would — the emission-order
    /// identity the byte-identical-state gate depends on. Rows with a
    /// `null` in a key column are excluded: `null` never equals an `int`
    /// probe, and non-`int` probes fall back to the generic index.
    int_indexes: FxHashMap<Vec<usize>, IntIndex>,
}

/// A typed `i64` twin index. The single-column layout stores its key
/// inline (one machine word to hash, no heap deref on key compare);
/// multi-column probes key by the full tuple.
#[derive(Debug)]
enum IntIndex {
    /// Index over exactly one column, keyed by the raw value.
    One(FxHashMap<i64, Vec<Row>>),
    /// Index over two or more columns, keyed by the probe tuple.
    Many(FxHashMap<Vec<i64>, Vec<Row>>),
}

impl IntIndex {
    fn clear(&mut self) {
        match self {
            IntIndex::One(m) => m.clear(),
            IntIndex::Many(m) => m.clear(),
        }
    }
}

impl Table {
    /// Create an empty table from its declaration.
    pub fn new(def: TableDecl) -> Self {
        Table {
            def,
            rows: FxHashMap::default(),
            indexes: FxHashMap::default(),
            int_indexes: FxHashMap::default(),
        }
    }

    /// The table's declaration.
    pub fn def(&self) -> &TableDecl {
        &self.def
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.def.name
    }

    /// True for event tables.
    pub fn is_event(&self) -> bool {
        self.def.kind == TableKind::Event
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Extract the primary-key columns of a row.
    fn key_of(&self, row: &Row) -> Vec<Value> {
        match &self.def.keys {
            Some(cols) => cols.iter().map(|&c| row[c].clone()).collect(),
            None => row.as_ref().clone(),
        }
    }

    /// Validate arity and declared types.
    pub fn typecheck(&self, row: &Row) -> Result<()> {
        if row.len() != self.def.arity() {
            return Err(OverlogError::ArityMismatch {
                table: self.def.name.clone(),
                expected: self.def.arity(),
                got: row.len(),
                rule: None,
                span: crate::ast::Span::default(),
            });
        }
        for (i, (tag, v)) in self.def.types.iter().zip(row.iter()).enumerate() {
            if !tag.admits(v) {
                return Err(OverlogError::TypeMismatch {
                    table: self.def.name.clone(),
                    col: i,
                    expected: tag.to_string(),
                    got: v.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Coerce a row to declared column types: columns declared `Addr`
    /// convert string values into addresses, so address joins never fail
    /// on representation (string literals in facts, computed strings).
    /// Public so the runtime can record *coerced* rows in its delta sets —
    /// a delta row must compare equal to the stored row.
    pub fn coerce(&self, row: Row) -> Row {
        let needs = self
            .def
            .types
            .iter()
            .zip(row.iter())
            .any(|(t, v)| *t == crate::value::TypeTag::Addr && matches!(v, Value::Str(_)));
        if !needs {
            return row;
        }
        let converted: Vec<Value> = self
            .def
            .types
            .iter()
            .zip(row.iter())
            .map(|(t, v)| match (t, v) {
                (crate::value::TypeTag::Addr, Value::Str(s)) => Value::Addr(s.clone()),
                _ => v.clone(),
            })
            .collect();
        std::sync::Arc::new(converted)
    }

    /// Insert a row with primary-key overwrite semantics.
    pub fn insert(&mut self, row: Row) -> Result<InsertOutcome> {
        self.typecheck(&row)?;
        let row = self.coerce(row);
        let key = self.key_of(&row);
        match self.rows.entry(key) {
            Entry::Occupied(mut e) => {
                if *e.get() == row {
                    Ok(InsertOutcome::Duplicate)
                } else {
                    let old = e.insert(row.clone());
                    self.index_remove(&old);
                    self.index_add(&row);
                    Ok(InsertOutcome::Replaced(old))
                }
            }
            Entry::Vacant(e) => {
                e.insert(row.clone());
                self.index_add(&row);
                Ok(InsertOutcome::New)
            }
        }
    }

    /// Delete an exact row. Returns true when the row was present.
    ///
    /// A row whose key matches but whose contents differ is *not* removed:
    /// deletion rules re-join the current contents, so a mismatch means the
    /// row was already overwritten.
    pub fn delete(&mut self, row: &Row) -> bool {
        let row = &self.coerce(row.clone());
        let key = self.key_of(row);
        if let Some(existing) = self.rows.get(&key) {
            if existing == row {
                self.rows.remove(&key);
                self.index_remove(row);
                return true;
            }
        }
        false
    }

    /// Delete the row stored under `key` (primary-key order), whatever its
    /// non-key contents. Returns the removed row. The incremental view
    /// maintainer uses this to retract a touched key before re-deriving
    /// it — at that point the stored non-key columns are exactly what it
    /// must report retracted, not something it can reconstruct.
    pub fn delete_by_key(&mut self, key: &[Value]) -> Option<Row> {
        let row = self.rows.remove(key)?;
        self.index_remove(&row);
        Some(row)
    }

    /// Remove every row, keeping index definitions.
    pub fn clear(&mut self) {
        self.rows.clear();
        for idx in self.indexes.values_mut() {
            idx.clear();
        }
        for idx in self.int_indexes.values_mut() {
            idx.clear();
        }
    }

    /// True when an identical row is stored.
    pub fn contains(&self, row: &Row) -> bool {
        let row = &self.coerce(row.clone());
        let key = self.key_of(row);
        self.rows.get(&key).is_some_and(|r| r == row)
    }

    /// Fetch the row with the given primary key, if any.
    pub fn get_by_key(&self, key: &[Value]) -> Option<&Row> {
        self.rows.get(key)
    }

    /// Iterate all rows (unordered).
    pub fn scan(&self) -> impl Iterator<Item = &Row> {
        self.rows.values()
    }

    /// All rows, sorted (stable output for tests and traces).
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut v: Vec<Row> = self.rows.values().cloned().collect();
        v.sort();
        v
    }

    /// Build the secondary index over `cols` if it does not exist yet.
    /// The evaluator calls this eagerly for every index the plan's join
    /// analysis says a scan will probe, so [`Table::lookup`] works through
    /// `&self` on the hot path.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        debug_assert!(!cols.is_empty());
        if self.indexes.contains_key(cols) {
            return;
        }
        let mut idx: FxHashMap<Vec<Value>, Vec<Row>> = FxHashMap::default();
        for row in self.rows.values() {
            let k: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
            idx.entry(k).or_default().push(row.clone());
        }
        self.indexes.insert(cols.to_vec(), idx);
    }

    /// Coerce index probe values in place to declared column types (`Addr`
    /// columns match string probes), mirroring `insert`. Returns true when
    /// any value was rewritten: a coerced probe can match bucket rows the
    /// evaluator's per-row pattern recheck would reject (`Str != Addr`
    /// under rank comparison), so such buckets are *not* recheck-exempt.
    pub fn coerce_probe(&self, cols: &[usize], vals: &mut [Value]) -> bool {
        let mut coerced = false;
        for (&c, v) in cols.iter().zip(vals.iter_mut()) {
            if let (Some(crate::value::TypeTag::Addr), Value::Str(s)) = (self.def.types.get(c), &v)
            {
                *v = Value::Addr(s.clone());
                coerced = true;
            }
        }
        coerced
    }

    /// Matches for `vals` in the secondary index over `cols`. Returns
    /// `None` when no such index was built (the caller falls back to a
    /// full scan — semantically identical because every check pattern is
    /// re-verified per row). Probe values must already be coerced (see
    /// [`Table::coerce_probe`]).
    pub fn lookup(&self, cols: &[usize], vals: &[Value]) -> Option<&[Row]> {
        debug_assert_eq!(cols.len(), vals.len());
        debug_assert!(!cols.is_empty());
        let idx = self.indexes.get(cols)?;
        Some(idx.get(vals).map(|b| b.as_slice()).unwrap_or(&[]))
    }

    /// Candidate rows for an index probe: the matching bucket when the
    /// index exists, otherwise every row (the full-scan fallback — sound
    /// because scans re-verify each check pattern per row). The second
    /// return is true when the rows come from an exact-match bucket: the
    /// index key equality already proves `row[c] == vals[i]` for every
    /// indexed column, so the evaluator may skip rechecking those columns
    /// (unless the probe was coerced — see [`Table::coerce_probe`]).
    pub fn candidates(&self, cols: &[usize], vals: &[Value]) -> (Candidates<'_>, bool) {
        match self.lookup(cols, vals) {
            Some(bucket) => (Candidates::Slice(bucket.iter()), true),
            None => (self.all_candidates(), false),
        }
    }

    /// Every stored row, as a [`Candidates`] full scan.
    pub fn all_candidates(&self) -> Candidates<'_> {
        Candidates::All(self.rows.values())
    }

    fn index_add(&mut self, row: &Row) {
        for (cols, idx) in &mut self.indexes {
            let k: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
            idx.entry(k).or_default().push(row.clone());
        }
        for (cols, idx) in &mut self.int_indexes {
            match idx {
                IntIndex::One(m) => {
                    if let Some(k) = row[cols[0]].as_int() {
                        m.entry(k).or_default().push(row.clone());
                    }
                }
                IntIndex::Many(m) => {
                    if let Some(k) = int_key(cols, row) {
                        m.entry(k).or_default().push(row.clone());
                    }
                }
            }
        }
    }

    fn index_remove(&mut self, row: &Row) {
        for (cols, idx) in &mut self.indexes {
            let k: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
            if let Some(bucket) = idx.get_mut(&k) {
                if let Some(pos) = bucket.iter().position(|r| r == row) {
                    bucket.swap_remove(pos);
                }
                if bucket.is_empty() {
                    idx.remove(&k);
                }
            }
        }
        for (cols, idx) in &mut self.int_indexes {
            match idx {
                IntIndex::One(m) => {
                    if let Some(k) = row[cols[0]].as_int() {
                        bucket_remove(m, &k, row);
                    }
                }
                IntIndex::Many(m) => {
                    if let Some(k) = int_key(cols, row) {
                        bucket_remove(m, &k, row);
                    }
                }
            }
        }
    }

    /// Build the typed `i64`-keyed twin of the secondary index over
    /// `cols` if it does not exist yet. The caller (the runtime, when it
    /// installs a plan with compiled kernels) only requests this for
    /// column sets declared all-`int`, where a typed bucket provably
    /// holds the same rows in the same order as the generic one.
    pub fn ensure_int_index(&mut self, cols: &[usize]) {
        debug_assert!(!cols.is_empty());
        if self.int_indexes.contains_key(cols) {
            return;
        }
        let mut idx = if cols.len() == 1 {
            IntIndex::One(FxHashMap::default())
        } else {
            IntIndex::Many(FxHashMap::default())
        };
        if let Some(generic) = self.indexes.get(cols) {
            // A generic index over the same columns already exists (the
            // runtime always ensures it first). Clone its buckets verbatim
            // so within-bucket row order — which fixes emission order and
            // therefore within-tick overwrite winners — is identical to
            // what the interpreted probe path iterates. Buckets whose key
            // holds a non-`int` (a `null`) stay generic-only: an integer
            // probe can never select them.
            for (vkey, bucket) in generic {
                let k: Option<Vec<i64>> = vkey.iter().map(Value::as_int).collect();
                if let Some(k) = k {
                    match &mut idx {
                        IntIndex::One(m) => {
                            m.insert(k[0], bucket.clone());
                        }
                        IntIndex::Many(m) => {
                            m.insert(k, bucket.clone());
                        }
                    }
                }
            }
        } else {
            for row in self.rows.values() {
                if let Some(k) = int_key(cols, row) {
                    match &mut idx {
                        IntIndex::One(m) => m.entry(k[0]).or_default().push(row.clone()),
                        IntIndex::Many(m) => m.entry(k).or_default().push(row.clone()),
                    }
                }
            }
        }
        self.int_indexes.insert(cols.to_vec(), idx);
    }

    /// Matches for the raw-integer probe `key` in the typed index over
    /// `cols`. `None` when no typed index was built (the caller falls
    /// back to [`Table::lookup`]).
    pub fn lookup_int(&self, cols: &[usize], key: &[i64]) -> Option<&[Row]> {
        debug_assert_eq!(cols.len(), key.len());
        let bucket = match self.int_indexes.get(cols)? {
            IntIndex::One(m) => m.get(&key[0]),
            IntIndex::Many(m) => m.get(key),
        };
        Some(bucket.map(|b| b.as_slice()).unwrap_or(&[]))
    }
}

/// The all-`int` index key of `row` over `cols`, or `None` when some key
/// column holds a non-integer (such rows are never in a typed index).
fn int_key(cols: &[usize], row: &Row) -> Option<Vec<i64>> {
    cols.iter().map(|&c| row[c].as_int()).collect()
}

/// Remove one occurrence of `row` from the bucket at `key`, dropping the
/// bucket when it empties — the same `swap_remove` sequence the generic
/// index uses, so both stay order-aligned.
fn bucket_remove<K: std::hash::Hash + Eq + Clone>(
    idx: &mut FxHashMap<K, Vec<Row>>,
    key: &K,
    row: &Row,
) {
    if let Some(bucket) = idx.get_mut(key) {
        if let Some(pos) = bucket.iter().position(|r| r == row) {
            bucket.swap_remove(pos);
        }
        if bucket.is_empty() {
            idx.remove(key);
        }
    }
}

// ---------------------------------------------------------------------------
// Columnar representation
// ---------------------------------------------------------------------------

/// One typed column of a delta slice: a dense `i64` vector when every
/// value is an integer, dictionary-interned `u32` codes when every value
/// is a string, and a tagged-`Value` vector otherwise. The typed layouts
/// are what lets the vectorized delta gates ([`Column::group`]) hash
/// machine words instead of tagged values.
#[derive(Debug, Clone)]
pub enum Column {
    /// Every value is `Value::Int`.
    Int(Vec<i64>),
    /// Every value is `Value::Str`: `codes[i]` indexes into `dict`.
    Str {
        codes: Vec<u32>,
        dict: Vec<Arc<str>>,
    },
    /// Mixed or non-scalar values, stored as-is.
    Val(Vec<Value>),
}

impl Column {
    /// Build a column from one attribute of a row slice.
    pub fn from_rows(rows: &[Row], col: usize) -> Column {
        Column::from_values(rows.iter().map(|r| r[col].clone()).collect())
    }

    /// Build a column, picking the densest layout the values admit.
    pub fn from_values(vals: Vec<Value>) -> Column {
        if !vals.is_empty() && vals.iter().all(|v| matches!(v, Value::Int(_))) {
            return Column::Int(vals.iter().map(|v| v.as_int().unwrap()).collect());
        }
        if !vals.is_empty() && vals.iter().all(|v| matches!(v, Value::Str(_))) {
            let mut dict: Vec<Arc<str>> = Vec::new();
            let mut seen: FxHashMap<Arc<str>, u32> = FxHashMap::default();
            let codes = vals
                .iter()
                .map(|v| match v {
                    Value::Str(s) => *seen.entry(s.clone()).or_insert_with(|| {
                        dict.push(s.clone());
                        (dict.len() - 1) as u32
                    }),
                    _ => unreachable!("all-Str checked above"),
                })
                .collect();
            return Column::Str { codes, dict };
        }
        Column::Val(vals)
    }

    /// Group the column into a value → row-indices map for O(1) gate
    /// selection (shared across every rule variant gating on this column
    /// in a fixpoint round).
    pub fn group(&self) -> ColGroup {
        match self {
            Column::Int(xs) => {
                let mut m: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
                for (i, &x) in xs.iter().enumerate() {
                    m.entry(x).or_default().push(i as u32);
                }
                ColGroup::Int(m)
            }
            Column::Str { codes, dict } => {
                let mut per_code: Vec<Vec<u32>> = vec![Vec::new(); dict.len()];
                for (i, &c) in codes.iter().enumerate() {
                    per_code[c as usize].push(i as u32);
                }
                let m = dict.iter().cloned().zip(per_code.iter().cloned()).collect();
                ColGroup::Str(m)
            }
            Column::Val(vs) => {
                let mut m: FxHashMap<Value, Vec<u32>> = FxHashMap::default();
                for (i, v) in vs.iter().enumerate() {
                    m.entry(v.clone()).or_default().push(i as u32);
                }
                ColGroup::Val(m)
            }
        }
    }
}

/// A column grouped by value: the vectorized form of a `delta_gate` —
/// one pass over the column answers every variant's "which delta rows
/// carry my literal?" with a selection index vector.
#[derive(Debug)]
pub enum ColGroup {
    /// Grouping of a typed integer column.
    Int(FxHashMap<i64, Vec<u32>>),
    /// Grouping of an interned string column.
    Str(FxHashMap<Arc<str>, Vec<u32>>),
    /// Grouping of a mixed column (hash/eq of `Value` handles the
    /// int/float cross-type equivalence exactly).
    Val(FxHashMap<Value, Vec<u32>>),
}

static EMPTY_SEL: [u32; 0] = [];

impl ColGroup {
    /// Row indices whose value equals `v`, in row order. `None` means
    /// this probe type cannot be answered from the typed grouping
    /// without risking a semantic mismatch (a float probe against an
    /// integer column — `Int(2) == Float(2.0)` cross-type equality);
    /// the caller must fall back to a per-row `Value` scan.
    pub fn select(&self, v: &Value) -> Option<&[u32]> {
        match (self, v) {
            (ColGroup::Int(m), Value::Int(i)) => {
                Some(m.get(i).map(|b| b.as_slice()).unwrap_or(&EMPTY_SEL))
            }
            (ColGroup::Int(_), Value::Float(_)) => None,
            // No other variant compares equal to Int: empty selection.
            (ColGroup::Int(_), _) => Some(&EMPTY_SEL),
            (ColGroup::Str(m), Value::Str(s)) => {
                Some(m.get(s).map(|b| b.as_slice()).unwrap_or(&EMPTY_SEL))
            }
            // Nothing cross-compares equal to Str (Addr is a distinct rank).
            (ColGroup::Str(_), _) => Some(&EMPTY_SEL),
            (ColGroup::Val(m), _) => Some(m.get(v).map(|b| b.as_slice()).unwrap_or(&EMPTY_SEL)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::TypeTag;

    fn decl(keys: Option<Vec<usize>>) -> TableDecl {
        TableDecl {
            name: "t".into(),
            keys,
            types: vec![TypeTag::Int, TypeTag::Str],
            kind: TableKind::Materialized,
            span: crate::ast::Span::default(),
        }
    }

    #[test]
    fn insert_new_duplicate_replace() {
        let mut t = Table::new(decl(Some(vec![0])));
        assert_eq!(t.insert(tuple!(1, "a")).unwrap(), InsertOutcome::New);
        assert_eq!(t.insert(tuple!(1, "a")).unwrap(), InsertOutcome::Duplicate);
        match t.insert(tuple!(1, "b")).unwrap() {
            InsertOutcome::Replaced(old) => assert_eq!(old, tuple!(1, "a")),
            other => panic!("{other:?}"),
        }
        assert_eq!(t.len(), 1);
        assert!(t.contains(&tuple!(1, "b")));
        assert!(!t.contains(&tuple!(1, "a")));
    }

    #[test]
    fn whole_row_key_when_no_keys_declared() {
        let mut t = Table::new(decl(None));
        t.insert(tuple!(1, "a")).unwrap();
        t.insert(tuple!(1, "b")).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn typecheck_rejects_bad_rows() {
        let mut t = Table::new(decl(Some(vec![0])));
        assert!(matches!(
            t.insert(tuple!(1)).unwrap_err(),
            OverlogError::ArityMismatch { .. }
        ));
        assert!(matches!(
            t.insert(tuple!("x", "y")).unwrap_err(),
            OverlogError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn delete_requires_exact_match() {
        let mut t = Table::new(decl(Some(vec![0])));
        t.insert(tuple!(1, "a")).unwrap();
        assert!(!t.delete(&tuple!(1, "b")));
        assert!(t.delete(&tuple!(1, "a")));
        assert!(t.is_empty());
        assert!(!t.delete(&tuple!(1, "a")));
    }

    #[test]
    fn delete_by_key_ignores_nonkey_columns_and_updates_indexes() {
        let mut t = Table::new(decl(Some(vec![0])));
        t.insert(tuple!(1, "a")).unwrap();
        t.insert(tuple!(2, "b")).unwrap();
        t.ensure_index(&[1]);
        let gone = t.delete_by_key(&[Value::Int(1)]).expect("row stored");
        assert_eq!(gone, tuple!(1, "a"), "removed row is returned verbatim");
        assert!(t.delete_by_key(&[Value::Int(1)]).is_none());
        assert_eq!(t.len(), 1);
        assert_eq!(hits(&t, &[1], &[Value::str("b")]), 1);
        assert!(
            t.lookup(&[1], &[Value::str("a")]).unwrap().is_empty(),
            "secondary index dropped the removed row"
        );
    }

    fn hits(t: &Table, cols: &[usize], vals: &[Value]) -> usize {
        t.lookup(cols, vals).expect("index built").len()
    }

    #[test]
    fn secondary_index_tracks_mutations() {
        let mut t = Table::new(decl(Some(vec![0])));
        t.insert(tuple!(1, "x")).unwrap();
        t.insert(tuple!(2, "x")).unwrap();
        t.insert(tuple!(3, "y")).unwrap();
        assert!(t.lookup(&[1], &[Value::str("x")]).is_none(), "not built");
        t.ensure_index(&[1]);
        assert_eq!(hits(&t, &[1], &[Value::str("x")]), 2);
        // Mutate after the index exists; it must stay consistent.
        t.insert(tuple!(2, "y")).unwrap(); // replace 2,"x" -> 2,"y"
        t.delete(&tuple!(1, "x"));
        assert_eq!(hits(&t, &[1], &[Value::str("x")]), 0);
        assert_eq!(hits(&t, &[1], &[Value::str("y")]), 2);
        t.insert(tuple!(9, "x")).unwrap();
        assert_eq!(hits(&t, &[1], &[Value::str("x")]), 1);
    }

    #[test]
    fn clear_keeps_indexes_working() {
        let mut t = Table::new(decl(Some(vec![0])));
        t.insert(tuple!(1, "x")).unwrap();
        t.ensure_index(&[1]);
        t.clear();
        assert!(t.is_empty());
        t.insert(tuple!(2, "x")).unwrap();
        assert_eq!(hits(&t, &[1], &[Value::str("x")]), 1);
    }

    #[test]
    fn get_by_key() {
        let mut t = Table::new(decl(Some(vec![0])));
        t.insert(tuple!(1, "a")).unwrap();
        assert_eq!(t.get_by_key(&[Value::Int(1)]), Some(&tuple!(1, "a")));
        assert_eq!(t.get_by_key(&[Value::Int(2)]), None);
    }

    #[test]
    fn sorted_rows_is_deterministic() {
        let mut t = Table::new(decl(None));
        t.insert(tuple!(2, "b")).unwrap();
        t.insert(tuple!(1, "a")).unwrap();
        let rows = t.sorted_rows();
        assert_eq!(rows[0], tuple!(1, "a"));
        assert_eq!(rows[1], tuple!(2, "b"));
    }

    fn decl2int(keys: Option<Vec<usize>>) -> TableDecl {
        TableDecl {
            name: "t".into(),
            keys,
            types: vec![TypeTag::Int, TypeTag::Int],
            kind: TableKind::Materialized,
            span: crate::ast::Span::default(),
        }
    }

    #[test]
    fn int_index_mirrors_generic_bucket_order_through_mutations() {
        let mut t = Table::new(decl2int(None));
        t.ensure_index(&[1]);
        t.ensure_int_index(&[1]);
        for i in 0..6 {
            t.insert(tuple!(i, i % 2)).unwrap();
        }
        // Remove from the middle so swap_remove reorders both buckets.
        t.delete(&tuple!(2, 0));
        t.insert(tuple!(8, 0)).unwrap();
        let generic: Vec<Row> = t.lookup(&[1], &[Value::Int(0)]).unwrap().to_vec();
        let typed: Vec<Row> = t.lookup_int(&[1], &[0]).unwrap().to_vec();
        assert_eq!(generic, typed, "typed bucket must match order exactly");
        assert_eq!(t.lookup_int(&[1], &[7]).unwrap(), &[] as &[Row]);
        assert!(t.lookup_int(&[0], &[1]).is_none(), "not built for [0]");
    }

    #[test]
    fn int_index_skips_null_keys() {
        let mut t = Table::new(decl2int(None));
        t.ensure_int_index(&[1]);
        t.insert(tuple!(1, 5)).unwrap();
        t.insert(Arc::new(vec![Value::Int(2), Value::Null]))
            .unwrap();
        assert_eq!(t.lookup_int(&[1], &[5]).unwrap().len(), 1);
        // The null-keyed row lives only in the row store.
        assert_eq!(t.len(), 2);
        t.clear();
        assert_eq!(t.lookup_int(&[1], &[5]).unwrap().len(), 0);
    }

    #[test]
    fn column_group_select_matches_value_equality() {
        let rows: Vec<Row> = vec![tuple!(1, "a"), tuple!(2, "b"), tuple!(1, "a")];
        let c0 = Column::from_rows(&rows, 0);
        let c1 = Column::from_rows(&rows, 1);
        assert!(matches!(c0, Column::Int(_)));
        assert!(matches!(c1, Column::Str { .. }));
        let g0 = c0.group();
        assert_eq!(g0.select(&Value::Int(1)).unwrap(), &[0, 2]);
        assert_eq!(g0.select(&Value::Int(9)).unwrap(), &[] as &[u32]);
        assert_eq!(g0.select(&Value::str("x")).unwrap(), &[] as &[u32]);
        assert!(
            g0.select(&Value::Float(1.0)).is_none(),
            "float probe on int column must force the fallback scan"
        );
        let g1 = c1.group();
        assert_eq!(g1.select(&Value::str("a")).unwrap(), &[0, 2]);
        assert_eq!(g1.select(&Value::addr("a")).unwrap(), &[] as &[u32]);
        // Mixed columns fall back to the tagged layout and answer every
        // probe via Value hash/eq.
        let mixed = Column::from_values(vec![Value::Int(2), Value::str("a")]);
        assert!(matches!(mixed, Column::Val(_)));
        let gv = mixed.group();
        assert_eq!(gv.select(&Value::Float(2.0)).unwrap(), &[0]);
    }
}
