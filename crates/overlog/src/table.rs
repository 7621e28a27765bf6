//! Materialized tables: primary-key storage plus maintained secondary
//! indexes used by the rule evaluator's join lookups.

use crate::ast::{TableDecl, TableKind};
use crate::error::{OverlogError, Result};
use crate::fx::FxHashMap;
use crate::value::{Row, TypeTag, Value};
use std::collections::hash_map::{self, Entry};
use std::hash::Hash;
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

/// Borrowed candidate rows for a scan: a delta slice, one index bucket
/// or the whole table. Lets the evaluator iterate join candidates without
/// cloning them into a `Vec<Row>` first (the zero-copy hot path).
pub enum Candidates<'a> {
    /// Rows of a delta slice.
    Slice(std::slice::Iter<'a, Row>),
    /// Rows of one secondary-index bucket, in bucket order.
    Bucket(Bucket<'a>),
    /// Every stored row (full scan), in primary-map order.
    All(SlotRows<'a, hash_map::Values<'a, Vec<Value>, u32>>),
}

impl<'a> Iterator for Candidates<'a> {
    type Item = &'a Row;

    #[inline]
    fn next(&mut self) -> Option<&'a Row> {
        match self {
            Candidates::Slice(it) => it.next(),
            Candidates::Bucket(it) => it.next(),
            Candidates::All(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Candidates::Slice(it) => it.size_hint(),
            Candidates::Bucket(it) => it.size_hint(),
            Candidates::All(it) => it.size_hint(),
        }
    }
}

/// The rows a sequence of slots names, resolved through a table's slab.
#[derive(Clone)]
pub struct SlotRows<'a, I> {
    slots: I,
    slab: &'a [Option<Row>],
}

/// The rows of one index bucket, in bucket order.
pub type Bucket<'a> = SlotRows<'a, std::slice::Iter<'a, u32>>;

impl<'a, I: Iterator<Item = &'a u32>> Iterator for SlotRows<'a, I> {
    type Item = &'a Row;

    #[inline]
    fn next(&mut self) -> Option<&'a Row> {
        let &slot = self.slots.next()?;
        Some(occupied(self.slab, slot))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl<'a, I: ExactSizeIterator<Item = &'a u32>> ExactSizeIterator for SlotRows<'a, I> {}

/// The row in an occupied slab slot.
#[inline]
fn occupied(slab: &[Option<Row>], slot: u32) -> &Row {
    slab[slot as usize]
        .as_ref()
        .expect("a mapped slot holds a row")
}

/// One stored relation.
///
/// Each row is stored once, in a slot of a slab. The primary-key map
/// (`keys(...)` columns from the declaration, or the whole row when no
/// key was declared) maps each key to its row's slot. Secondary indexes
/// over arbitrary column sets are created by the evaluator and maintained
/// on every mutation; their buckets hold slots (see `Index`).
#[derive(Debug)]
pub struct Table {
    def: TableDecl,
    rows: FxHashMap<Vec<Value>, u32>,
    /// Row storage addressed by slot; `None` marks a free slot.
    slab: Vec<Option<Row>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    indexes: FxHashMap<Vec<usize>, Index>,
    /// Bucket entries written, removed or moved by index maintenance.
    entries_touched: u64,
}

/// A secondary index over one column set: buckets of slots plus one
/// back-pointer per slot, so removing a row is a `swap_remove` and one
/// back-pointer fix instead of a scan of its bucket.
///
/// A column set declared all-`int` keys its rows by raw `i64`s: the
/// compiled kernels' join probes hash machine integers, not tagged
/// values. A row holding a `null` in such a key, and every row of any
/// other column set, is keyed by its `Value` tuple.
#[derive(Debug)]
struct Index {
    /// Buckets of all-`int` keys; `None` unless the columns are declared
    /// all-`int`.
    ints: Option<IntBuckets>,
    /// Buckets of every other key.
    vals: Buckets<Vec<Value>>,
    /// `pos[slot]` is the position of `slot` in its bucket (stale for
    /// free slots).
    pos: Vec<u32>,
}

type Buckets<K> = FxHashMap<K, Vec<u32>>;

/// Widest column set whose `Value` probe is converted to an `i64` key
/// on the stack.
const INLINE_KEY: usize = 8;

#[derive(Debug)]
enum IntBuckets {
    /// Exactly one column: the key is stored inline (one machine word to
    /// hash, no heap deref on key compare).
    One(Buckets<i64>),
    /// Two or more columns, keyed by the tuple.
    Many(Buckets<Vec<i64>>),
}

impl Index {
    fn new(int_keyed: bool, ncols: usize, slots: usize) -> Index {
        let ints = match (int_keyed, ncols) {
            (false, _) => None,
            (true, 1) => Some(IntBuckets::One(Buckets::default())),
            (true, _) => Some(IntBuckets::Many(Buckets::default())),
        };
        Index {
            ints,
            vals: Buckets::default(),
            pos: vec![0; slots],
        }
    }

    /// Append `slot` (holding `row`) to the bucket of its key.
    fn link(&mut self, cols: &[usize], row: &Row, slot: u32) {
        if self.pos.len() <= slot as usize {
            self.pos.resize(slot as usize + 1, 0);
        }
        match &mut self.ints {
            Some(IntBuckets::One(m)) => {
                if let Some(k) = row[cols[0]].as_int() {
                    return push(m, &mut self.pos, k, slot);
                }
            }
            Some(IntBuckets::Many(m)) => {
                if let Some(k) = int_key(cols, row) {
                    return push(m, &mut self.pos, k, slot);
                }
            }
            None => {}
        }
        push(&mut self.vals, &mut self.pos, val_key(cols, row), slot);
    }

    /// Remove `slot` (holding `row`) from its bucket. Returns the bucket
    /// entries removed or moved.
    fn unlink(&mut self, cols: &[usize], row: &Row, slot: u32) -> u64 {
        match &mut self.ints {
            Some(IntBuckets::One(m)) => {
                if let Some(k) = row[cols[0]].as_int() {
                    return swap_out(m, &mut self.pos, &k, slot);
                }
            }
            Some(IntBuckets::Many(m)) => {
                if let Some(k) = int_key(cols, row) {
                    return swap_out(m, &mut self.pos, &k, slot);
                }
            }
            None => {}
        }
        swap_out(&mut self.vals, &mut self.pos, &val_key(cols, row), slot)
    }

    /// The bucket whose key equals the `Value` probe `vals`. An all-`int`
    /// probe can only equal an all-`int` key, and any other probe only a
    /// key that holds a non-`int`, so each probe reads exactly one map.
    #[inline]
    fn bucket(&self, vals: &[Value]) -> &[u32] {
        let hit = match &self.ints {
            Some(IntBuckets::One(m)) => int_probe(&vals[0]).map(|k| m.get(&k)),
            Some(IntBuckets::Many(m)) if vals.len() <= INLINE_KEY => {
                let mut key = [0i64; INLINE_KEY];
                key.iter_mut()
                    .zip(vals)
                    .try_for_each(|(k, v)| int_probe(v).map(|i| *k = i))
                    .map(|()| m.get(&key[..vals.len()]))
            }
            Some(IntBuckets::Many(m)) => vals
                .iter()
                .map(int_probe)
                .collect::<Option<Vec<i64>>>()
                .map(|k| m.get(&k)),
            None => None,
        };
        let hit = hit.unwrap_or_else(|| self.vals.get(vals));
        hit.map_or(&[], Vec::as_slice)
    }

    /// The bucket of the all-`int` key `key`; `None` when the columns are
    /// not declared all-`int`.
    #[inline]
    fn int_bucket(&self, key: &[i64]) -> Option<&[u32]> {
        let hit = match self.ints.as_ref()? {
            IntBuckets::One(m) => m.get(&key[0]),
            IntBuckets::Many(m) => m.get(key),
        };
        Some(hit.map_or(&[], Vec::as_slice))
    }

    fn clear(&mut self) {
        match &mut self.ints {
            Some(IntBuckets::One(m)) => m.clear(),
            Some(IntBuckets::Many(m)) => m.clear(),
            None => {}
        }
        self.vals.clear();
        self.pos.clear();
    }
}

/// Append `slot` to the bucket at `key`, recording its position.
fn push<K: Hash + Eq>(buckets: &mut Buckets<K>, pos: &mut [u32], key: K, slot: u32) {
    let bucket = buckets.entry(key).or_default();
    pos[slot as usize] = bucket.len() as u32;
    bucket.push(slot);
}

/// `swap_remove` `slot` from the bucket at `key` and repoint the entry
/// that moved into its place; drop the bucket when it empties. Returns
/// the entries removed or moved.
fn swap_out<K: Hash + Eq>(buckets: &mut Buckets<K>, pos: &mut [u32], key: &K, slot: u32) -> u64 {
    let bucket = buckets.get_mut(key).expect("an indexed row has a bucket");
    let at = pos[slot as usize] as usize;
    debug_assert_eq!(bucket[at], slot, "back-pointer names the slot");
    bucket.swap_remove(at);
    let mut touched = 1;
    if let Some(&moved) = bucket.get(at) {
        pos[moved as usize] = at as u32;
        touched += 1;
    }
    if bucket.is_empty() {
        buckets.remove(key);
    }
    touched
}

/// The `Value` index key of `row` over `cols`.
fn val_key(cols: &[usize], row: &Row) -> Vec<Value> {
    cols.iter().map(|&c| row[c].clone()).collect()
}

/// The all-`int` index key of `row` over `cols`, or `None` when some key
/// column holds a non-integer.
fn int_key(cols: &[usize], row: &Row) -> Option<Vec<i64>> {
    cols.iter().map(|&c| row[c].as_int()).collect()
}

/// The `i64` a probe value equals, if any: an `int`, or a float that
/// `Value` equality and hashing both identify with one (`2.0` but not
/// `-0.0`).
#[inline]
fn int_probe(v: &Value) -> Option<i64> {
    match *v {
        Value::Int(i) => Some(i),
        Value::Float(f) if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 => {
            let i = f as i64;
            (Value::Int(i) == *v).then_some(i)
        }
        _ => None,
    }
}

impl Table {
    /// Create an empty table from its declaration.
    pub fn new(def: TableDecl) -> Self {
        Table {
            def,
            rows: FxHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            indexes: FxHashMap::default(),
            entries_touched: 0,
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

    /// Bucket entries written, removed or moved by secondary-index
    /// maintenance over the table's lifetime: the work counter behind
    /// `EvalStats::index_entries_touched`. A mutation touches at most
    /// three entries per index, whatever the size of its buckets.
    pub fn index_entries_touched(&self) -> u64 {
        self.entries_touched
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
            .any(|(t, v)| *t == TypeTag::Addr && matches!(v, Value::Str(_)));
        if !needs {
            return row;
        }
        let converted: Vec<Value> = self
            .def
            .types
            .iter()
            .zip(row.iter())
            .map(|(t, v)| match (t, v) {
                (TypeTag::Addr, Value::Str(s)) => Value::Addr(s.clone()),
                _ => v.clone(),
            })
            .collect();
        Arc::new(converted)
    }

    /// Insert a row with primary-key overwrite semantics.
    pub fn insert(&mut self, row: Row) -> Result<InsertOutcome> {
        self.typecheck(&row)?;
        let row = self.coerce(row);
        let key = self.key_of(&row);
        match self.rows.entry(key) {
            Entry::Occupied(e) => {
                let slot = *e.get();
                let stored = self.slab[slot as usize]
                    .as_mut()
                    .expect("a mapped slot holds a row");
                if *stored == row {
                    return Ok(InsertOutcome::Duplicate);
                }
                let old = std::mem::replace(stored, row);
                self.unlink(&old, slot);
                self.link(slot);
                Ok(InsertOutcome::Replaced(old))
            }
            Entry::Vacant(e) => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.slab[slot as usize] = Some(row);
                        slot
                    }
                    None => {
                        self.slab.push(Some(row));
                        u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 rows")
                    }
                };
                e.insert(slot);
                self.link(slot);
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
        match self.rows.get(&key) {
            Some(&slot) if occupied(&self.slab, slot) == row => {
                self.rows.remove(&key);
                self.release(slot);
                true
            }
            _ => false,
        }
    }

    /// Delete the row stored under `key` (primary-key order), whatever its
    /// non-key contents. Returns the removed row. The incremental view
    /// maintainer uses this to retract a touched key before re-deriving
    /// it — at that point the stored non-key columns are exactly what it
    /// must report retracted, not something it can reconstruct.
    pub fn delete_by_key(&mut self, key: &[Value]) -> Option<Row> {
        let slot = self.rows.remove(key)?;
        Some(self.release(slot))
    }

    /// Remove every row, keeping index definitions.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.slab.clear();
        self.free.clear();
        for idx in self.indexes.values_mut() {
            idx.clear();
        }
    }

    /// True when an identical row is stored.
    pub fn contains(&self, row: &Row) -> bool {
        let row = &self.coerce(row.clone());
        self.get_by_key(&self.key_of(row)) == Some(row)
    }

    /// Fetch the row with the given primary key, if any.
    pub fn get_by_key(&self, key: &[Value]) -> Option<&Row> {
        self.rows.get(key).map(|&slot| occupied(&self.slab, slot))
    }

    /// Iterate all rows, in primary-map order.
    pub fn scan(&self) -> SlotRows<'_, hash_map::Values<'_, Vec<Value>, u32>> {
        SlotRows {
            slots: self.rows.values(),
            slab: &self.slab,
        }
    }

    /// All rows, sorted (stable output for tests and traces).
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut v: Vec<Row> = self.scan().cloned().collect();
        v.sort();
        v
    }

    /// Build the secondary index over `cols` if it does not exist yet.
    /// The evaluator calls this eagerly for every index the plan's join
    /// analysis says a scan will probe, so [`Table::lookup`] works through
    /// `&self` on the hot path. The key form follows the declared column
    /// types: all-`int` column sets also answer [`Table::lookup_int`].
    pub fn ensure_index(&mut self, cols: &[usize]) {
        debug_assert!(!cols.is_empty());
        if self.indexes.contains_key(cols) {
            return;
        }
        let int_keyed = cols
            .iter()
            .all(|&c| self.def.types.get(c) == Some(&TypeTag::Int));
        let mut idx = Index::new(int_keyed, cols.len(), self.slab.len());
        for &slot in self.rows.values() {
            idx.link(cols, occupied(&self.slab, slot), slot);
        }
        self.entries_touched += self.rows.len() as u64;
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
            if let (Some(TypeTag::Addr), Value::Str(s)) = (self.def.types.get(c), &v) {
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
    #[inline]
    pub fn lookup(&self, cols: &[usize], vals: &[Value]) -> Option<Bucket<'_>> {
        debug_assert_eq!(cols.len(), vals.len());
        debug_assert!(!cols.is_empty());
        let idx = self.indexes.get(cols)?;
        Some(self.bucket_rows(idx.bucket(vals)))
    }

    /// Matches for the raw-integer probe `key` in the index over `cols`:
    /// the same bucket [`Table::lookup`] returns for the equal `Value`
    /// probe. `None` when no index was built or its columns are not
    /// declared all-`int` (the caller falls back to [`Table::lookup`]).
    #[inline]
    pub fn lookup_int(&self, cols: &[usize], key: &[i64]) -> Option<Bucket<'_>> {
        debug_assert_eq!(cols.len(), key.len());
        let idx = self.indexes.get(cols)?;
        Some(self.bucket_rows(idx.int_bucket(key)?))
    }

    /// Candidate rows for an index probe: the matching bucket when the
    /// index exists, otherwise every row (the full-scan fallback — sound
    /// because scans re-verify each check pattern per row). The second
    /// return is true when the rows come from an exact-match bucket: the
    /// index key equality already proves `row[c] == vals[i]` for every
    /// indexed column, so the evaluator may skip rechecking those columns
    /// (unless the probe was coerced — see [`Table::coerce_probe`]).
    #[inline]
    pub fn lookup_or_scan(&self, cols: &[usize], vals: &[Value]) -> (Candidates<'_>, bool) {
        match self.lookup(cols, vals) {
            Some(bucket) => (Candidates::Bucket(bucket), true),
            None => (self.all_candidates(), false),
        }
    }

    /// Every stored row, as a [`Candidates`] full scan.
    #[inline]
    pub fn all_candidates(&self) -> Candidates<'_> {
        Candidates::All(self.scan())
    }

    #[inline]
    fn bucket_rows<'a>(&'a self, slots: &'a [u32]) -> Bucket<'a> {
        SlotRows {
            slots: slots.iter(),
            slab: &self.slab,
        }
    }

    /// Add the row in `slot` to every index.
    fn link(&mut self, slot: u32) {
        let row = occupied(&self.slab, slot);
        for (cols, idx) in &mut self.indexes {
            idx.link(cols, row, slot);
        }
        self.entries_touched += self.indexes.len() as u64;
    }

    /// Remove `row`, stored in `slot`, from every index.
    fn unlink(&mut self, row: &Row, slot: u32) {
        for (cols, idx) in &mut self.indexes {
            self.entries_touched += idx.unlink(cols, row, slot);
        }
    }

    /// Free `slot` (already unmapped from the primary map) and unlink its
    /// row from every index. Returns the row.
    fn release(&mut self, slot: u32) -> Row {
        let row = self.slab[slot as usize]
            .take()
            .expect("a mapped slot holds a row");
        self.free.push(slot);
        self.unlink(&row, slot);
        row
    }
}

/// One column of a delta slice grouped by value: the vectorized form of a
/// `delta_gate`. One pass over the slice answers every variant's "which
/// delta rows carry my literal?" with a selection index vector.
#[derive(Debug)]
pub struct ColGroup(FxHashMap<Value, Vec<u32>>);

impl ColGroup {
    /// Group attribute `col` of a row slice.
    pub fn from_rows(rows: &[Row], col: usize) -> ColGroup {
        let mut m: FxHashMap<Value, Vec<u32>> = FxHashMap::default();
        for (i, row) in rows.iter().enumerate() {
            m.entry(row[col].clone()).or_default().push(i as u32);
        }
        ColGroup(m)
    }

    /// Row indices whose value equals `v`, in row order. `Value`'s hash
    /// agrees with its equality across int and float (`Int(2) ==
    /// Float(2.0)`) for integers up to 2^53 in magnitude, so there this
    /// selects exactly what a per-row scan would.
    pub fn select(&self, v: &Value) -> &[u32] {
        self.0.get(v).map_or(&[], Vec::as_slice)
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
        assert_eq!(
            hits(&t, &[1], &[Value::str("a")]),
            0,
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

    /// The order oracle: rows in a primary map, `Vec<Row>` buckets,
    /// removal by `position` + `swap_remove`. Slot-addressed removal must
    /// leave every bucket, and the full scan, in exactly this order.
    struct Oracle {
        keys: Option<Vec<usize>>,
        rows: FxHashMap<Vec<Value>, Row>,
        indexes: Vec<(Vec<usize>, RowBuckets)>,
    }

    type RowBuckets = FxHashMap<Vec<Value>, Vec<Row>>;

    impl Oracle {
        fn key_of(&self, row: &Row) -> Vec<Value> {
            match &self.keys {
                Some(cols) => val_key(cols, row),
                None => row.as_ref().clone(),
            }
        }

        fn add(&mut self, row: &Row) {
            for (cols, idx) in &mut self.indexes {
                idx.entry(val_key(cols, row)).or_default().push(row.clone());
            }
        }

        fn remove(&mut self, row: &Row) {
            for (cols, idx) in &mut self.indexes {
                let k = val_key(cols, row);
                let bucket = idx.get_mut(&k).expect("indexed row has a bucket");
                let at = bucket.iter().position(|r| r == row).expect("row in bucket");
                bucket.swap_remove(at);
                if bucket.is_empty() {
                    idx.remove(&k);
                }
            }
        }

        fn apply(&mut self, step: &Step) {
            match step {
                Step::Insert(row) => match self.rows.entry(self.key_of(row)) {
                    Entry::Occupied(mut e) => {
                        if e.get() != row {
                            let old = e.insert(row.clone());
                            self.remove(&old);
                            self.add(row);
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(row.clone());
                        self.add(row);
                    }
                },
                Step::Delete(row) => {
                    let key = self.key_of(row);
                    if self.rows.get(&key) == Some(row) {
                        self.rows.remove(&key);
                        self.remove(row);
                    }
                }
                Step::DeleteByKey(key) => {
                    if let Some(row) = self.rows.remove(key) {
                        self.remove(&row);
                    }
                }
                Step::DeleteStored(_) => {}
                Step::Clear => {
                    self.rows.clear();
                    for (_, idx) in &mut self.indexes {
                        idx.clear();
                    }
                }
                Step::Index(cols) => {
                    if self.indexes.iter().all(|(c, _)| c != cols) {
                        let mut idx = RowBuckets::default();
                        for row in self.rows.values() {
                            idx.entry(val_key(cols, row)).or_default().push(row.clone());
                        }
                        self.indexes.push((cols.clone(), idx));
                    }
                }
            }
        }
    }

    #[derive(Debug)]
    enum Step {
        Insert(Row),
        Delete(Row),
        /// Delete the `n`-th stored row (mod the row count), so deletes
        /// hit as often as they miss.
        DeleteStored(usize),
        DeleteByKey(Vec<Value>),
        Clear,
        Index(Vec<usize>),
    }

    /// Columns: `int` (the key when keyed), `int` or `null`, `string`,
    /// and `float` holding integral floats, the equal `int`s and `null`.
    fn oracle_decl(keys: Option<Vec<usize>>) -> TableDecl {
        TableDecl {
            name: "t".into(),
            keys,
            types: vec![TypeTag::Int, TypeTag::Int, TypeTag::Str, TypeTag::Float],
            kind: TableKind::Materialized,
            span: crate::ast::Span::default(),
        }
    }

    /// Column sets the oracle runs build indexes over: one-column and
    /// multi-column all-`int` sets, and sets that are not all-`int`.
    const ORACLE_INDEXES: [&[usize]; 6] = [&[1], &[0, 1], &[2], &[3], &[1, 3], &[0]];

    fn row4(a: i64, b: Option<i64>, c: &str, d: Value) -> Row {
        Arc::new(vec![
            Value::Int(a),
            b.map_or(Value::Null, Value::Int),
            Value::str(c),
            d,
        ])
    }

    /// `key` with every `int` turned into the equal float, and with every
    /// integral float turned into the equal `int`.
    fn probe_variants(key: &[Value]) -> Vec<Vec<Value>> {
        let as_float = key
            .iter()
            .map(|v| match v {
                Value::Int(i) => Value::Float(*i as f64),
                v => v.clone(),
            })
            .collect();
        let as_int = key
            .iter()
            .map(|v| int_probe(v).map_or_else(|| v.clone(), Value::Int))
            .collect();
        let neg_zero = key
            .iter()
            .map(|v| match v {
                Value::Int(0) => Value::Float(-0.0),
                v => v.clone(),
            })
            .collect();
        let nulls = key.iter().map(|_| Value::Null).collect();
        let miss = key.iter().map(|_| Value::Int(99)).collect();
        vec![key.to_vec(), as_float, as_int, neg_zero, nulls, miss]
    }

    /// Every bucket of `t` probed by `Value` (as stored, as floats, as
    /// ints, `-0.0`, nulls, a miss) and by `i64` matches the oracle's
    /// bucket row for row; the full scan matches its primary map.
    fn check_against_oracle(t: &Table, o: &Oracle) {
        assert_eq!(t.len(), o.rows.len());
        let scanned: Vec<&Row> = t.scan().collect();
        let want: Vec<&Row> = o.rows.values().collect();
        assert_eq!(scanned, want, "full scan order");
        for cols in ORACLE_INDEXES {
            let Some((_, idx)) = o.indexes.iter().find(|(c, _)| c == cols) else {
                assert!(t
                    .lookup(cols, &val_key(cols, &row4(0, None, "a", Value::Null)))
                    .is_none());
                assert!(t.lookup_int(cols, &vec![0; cols.len()]).is_none());
                continue;
            };
            let int_keyed = cols.iter().all(|&c| c < 2);
            for key in idx.keys() {
                for probe in probe_variants(key) {
                    let want: Vec<&Row> = idx.get(&probe).map_or(vec![], |b| b.iter().collect());
                    let got: Vec<&Row> = t.lookup(cols, &probe).expect("index built").collect();
                    assert_eq!(got, want, "cols {cols:?} probe {probe:?}");
                    let ints: Option<Vec<i64>> = probe.iter().map(Value::as_int).collect();
                    if let Some(ints) = ints {
                        match t.lookup_int(cols, &ints) {
                            Some(b) => {
                                assert!(int_keyed);
                                assert_eq!(
                                    b.collect::<Vec<_>>(),
                                    want,
                                    "cols {cols:?} int probe {ints:?}"
                                );
                            }
                            None => assert!(!int_keyed, "all-int columns answer i64 probes"),
                        }
                    }
                }
            }
        }
    }

    fn run_oracle(keys: Option<Vec<usize>>, steps: &[Step]) {
        let mut t = Table::new(oracle_decl(keys.clone()));
        let mut o = Oracle {
            keys,
            rows: FxHashMap::default(),
            indexes: Vec::new(),
        };
        check_against_oracle(&t, &o);
        for step in steps {
            let stored = match step {
                Step::DeleteStored(n) if !o.rows.is_empty() => o
                    .rows
                    .values()
                    .nth(n % o.rows.len())
                    .cloned()
                    .map(Step::Delete),
                _ => None,
            };
            let step = stored.as_ref().unwrap_or(step);
            match step {
                Step::Insert(row) => {
                    t.insert(row.clone()).unwrap();
                }
                Step::Delete(row) => {
                    t.delete(row);
                }
                Step::DeleteByKey(key) => {
                    t.delete_by_key(key);
                }
                Step::DeleteStored(_) => {}
                Step::Clear => t.clear(),
                Step::Index(cols) => t.ensure_index(cols),
            }
            o.apply(step);
            check_against_oracle(&t, &o);
        }
    }

    /// A removal from the middle of a bucket reorders it by
    /// `swap_remove`, and `i64`, `Value` and float probes all see that
    /// order.
    #[test]
    fn mid_bucket_removal_keeps_swap_remove_order() {
        let mut steps = vec![Step::Index(vec![1])];
        for i in 0..6 {
            steps.push(Step::Insert(row4(i, Some(i % 2), "a", Value::Null)));
        }
        steps.push(Step::Delete(row4(2, Some(0), "a", Value::Null)));
        steps.push(Step::Insert(row4(8, Some(0), "a", Value::Null)));
        run_oracle(None, &steps);
    }

    /// A `null` in an all-`int` key is kept under its `Value` key: `i64`
    /// probes never see it, a `null` probe does, and `clear` empties
    /// both key forms.
    #[test]
    fn null_keys_in_int_columns_stay_value_keyed() {
        let steps = [
            Step::Index(vec![1]),
            Step::Insert(row4(1, Some(5), "a", Value::Null)),
            Step::Insert(row4(2, None, "a", Value::Null)),
            Step::Index(vec![0, 1]),
            Step::Clear,
            Step::Insert(row4(3, None, "b", Value::Int(1))),
        ];
        run_oracle(Some(vec![0]), &steps);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(200))]

        /// Random inserts, overwrites, deletes (hits and misses),
        /// `delete_by_key`, `clear` and late `ensure_index` keep every
        /// bucket in the oracle's order after every step.
        #[test]
        fn slot_indexes_match_the_swap_remove_oracle(
            keyed in proptest::bool::ANY,
            raw in proptest::collection::vec((0u8..32, 0i64..8, 0u8..5, 0u8..2, 0u8..7), 1..80)
        ) {
            let steps: Vec<Step> = raw
                .iter()
                .map(|&(op, a, b, c, d)| {
                    let b = (b > 0).then(|| i64::from(b) - 1);
                    let c = ["a", "b"][c as usize];
                    let d = match d {
                        0 => Value::Null,
                        1..=3 => Value::Int(i64::from(d) - 1),
                        _ => Value::Float(f64::from(d) - 4.0),
                    };
                    let row = row4(a, b, c, d);
                    match op {
                        0..=15 => Step::Insert(row),
                        16..=17 => Step::Delete(row),
                        18..=21 => Step::DeleteStored(a as usize),
                        22..=25 => Step::DeleteByKey(if keyed { vec![Value::Int(a)] } else { row.as_ref().clone() }),
                        26..=30 => Step::Index(ORACLE_INDEXES[a as usize % ORACLE_INDEXES.len()].to_vec()),
                        _ => Step::Clear,
                    }
                })
                .collect();
            run_oracle(keyed.then(|| vec![0]), &steps);
        }
    }

    #[test]
    fn column_group_select_matches_value_equality() {
        let rows: Vec<Row> = vec![tuple!(1, "a"), tuple!(2, "b"), tuple!(1, "a")];
        let g0 = ColGroup::from_rows(&rows, 0);
        assert_eq!(g0.select(&Value::Int(1)), &[0, 2]);
        assert_eq!(g0.select(&Value::Int(9)), &[] as &[u32]);
        assert_eq!(g0.select(&Value::str("x")), &[] as &[u32]);
        // Cross-type numeric equality: a float probe on an int column.
        assert_eq!(g0.select(&Value::Float(1.0)), &[0, 2]);
        assert_eq!(g0.select(&Value::Float(1.5)), &[] as &[u32]);
        let g1 = ColGroup::from_rows(&rows, 1);
        assert_eq!(g1.select(&Value::str("a")), &[0, 2]);
        assert_eq!(g1.select(&Value::addr("a")), &[] as &[u32]);
    }
}
