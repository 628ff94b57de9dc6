//! The catalog: named tables, secondary indexes, and the shared buffer
//! pool.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::btree::{BTreeIndex, FIRST_INDEX_ID};
use crate::bufferpool::BufferPool;
use crate::disk_table::DiskTable;
use crate::heap::HeapTable;
use crate::page::{tuple_fits_page, Page};
use crate::value::{Schema, Tuple};
use crate::wal::{WalError, WalRecord};

/// Physical storage of one table.
#[derive(Debug, Clone)]
pub enum TableData {
    /// Memory-engine table.
    Memory(HeapTable),
    /// Disk-engine table behind the buffer pool.
    Disk(DiskTable),
}

/// A named stored table.
#[derive(Debug, Clone)]
pub struct StoredTable {
    /// Table name.
    pub name: String,
    /// Physical storage.
    pub data: TableData,
}

impl StoredTable {
    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        match &self.data {
            TableData::Memory(t) => t.schema(),
            TableData::Disk(t) => t.schema(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match &self.data {
            TableData::Memory(t) => t.len(),
            TableData::Disk(t) => t.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Average stored tuple width in bytes.
    pub fn avg_tuple_bytes(&self) -> u64 {
        match &self.data {
            TableData::Memory(t) => t.avg_tuple_bytes(),
            TableData::Disk(t) => t.avg_tuple_bytes(),
        }
    }

    /// Whether the table can physically hold `tuple`: a paged table
    /// takes only tuples that fit an empty page
    /// (`page::tuple_fits_page`); the memory engine has no
    /// width limit. The write path asks this before a statement is
    /// logged and again before a record is applied.
    pub fn can_store(&self, tuple: &Tuple) -> bool {
        match &self.data {
            TableData::Memory(_) => true,
            TableData::Disk(_) => tuple_fits_page(tuple),
        }
    }
}

/// Why a `CREATE INDEX` was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// An index with this name already exists.
    DuplicateIndex(String),
    /// The named table is not in the catalog.
    NoSuchTable(String),
    /// The named column is not in the table's schema.
    NoSuchColumn {
        /// Target table.
        table: String,
        /// Missing column.
        column: String,
    },
    /// Secondary indexes are paged structures over the disk engine;
    /// the memory engine (the paper's CPU-stress profile) has none.
    NotDiskTable(String),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::DuplicateIndex(n) => write!(f, "index {n:?} already exists"),
            IndexError::NoSuchTable(t) => write!(f, "no table named {t:?}"),
            IndexError::NoSuchColumn { table, column } => {
                write!(f, "no column {column:?} in table {table:?}")
            }
            IndexError::NotDiskTable(t) => {
                write!(
                    f,
                    "table {t:?} is not a disk table; only disk tables can be indexed"
                )
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// One registered secondary index.
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// Index name.
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Indexed column.
    pub column: String,
    /// The B-tree itself.
    pub index: Arc<BTreeIndex>,
}

/// Named tables + the shared buffer pool.
#[derive(Debug)]
pub struct Catalog {
    /// Interior-mutable since the write path landed: a WAL replay
    /// applies mutations through `&self` (the executor holds the
    /// catalog shared). A table is mutated in place when the catalog
    /// holds its only `Arc`, and copied first when a reader still
    /// holds the old snapshot — copy-on-write at table granularity,
    /// paid only when someone is looking.
    tables: Mutex<BTreeMap<String, Arc<StoredTable>>>,
    pool: Arc<BufferPool>,
    next_table_id: u32,
    /// Secondary indexes, by index name. Interior-mutable because
    /// `CREATE INDEX` arrives through the `&self` statement path (the
    /// executor holds the catalog shared).
    indexes: Mutex<BTreeMap<String, Arc<IndexEntry>>>,
    next_index_id: Mutex<u32>,
}

impl Catalog {
    /// Empty catalog with a pool of `pool_pages` pages.
    pub fn new(pool_pages: usize) -> Self {
        Self::from_tables(BTreeMap::new(), Arc::new(BufferPool::new(pool_pages)))
    }

    /// A catalog over `tables` — a [`Self::tables`] snapshot, whose
    /// disk tables read through `pool` — with no indexes. With
    /// [`Self::tables`] this is the checkpoint mechanism: the snapshot
    /// shares every table with the catalog it was taken from, and
    /// whichever side is mutated first copies what it changes (a paged
    /// table its page *pointers* and the pages it rewrites, a heap its
    /// columns), so the snapshot keeps reading the state it was taken
    /// at and a catalog restored from it starts there.
    pub fn from_tables(tables: BTreeMap<String, Arc<StoredTable>>, pool: Arc<BufferPool>) -> Self {
        let next_table_id = tables
            .values()
            .filter_map(|t| match &t.data {
                TableData::Disk(d) => Some(d.table_id() + 1),
                TableData::Memory(_) => None,
            })
            .max()
            .unwrap_or(1);
        Self {
            tables: Mutex::new(tables),
            pool,
            next_table_id,
            indexes: Mutex::new(BTreeMap::new()),
            next_index_id: Mutex::new(FIRST_INDEX_ID),
        }
    }

    /// The table map as it stands: one pointer clone per table (see
    /// [`Self::from_tables`]).
    pub fn tables(&self) -> BTreeMap<String, Arc<StoredTable>> {
        self.tables.lock().clone()
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Register a memory-engine table. Panics on duplicate names.
    pub fn add_memory_table(&mut self, name: &str, table: HeapTable) {
        self.insert(name, TableData::Memory(table));
    }

    /// Register a disk-engine table built from `tuples` (a slice or a
    /// stream — see [`DiskTable::load`]).
    pub fn add_disk_table<I>(&mut self, name: &str, schema: Schema, tuples: I)
    where
        I: IntoIterator,
        I::Item: std::borrow::Borrow<Tuple>,
    {
        let pages = DiskTable::pack(&schema, tuples);
        self.add_disk_pages(name, schema, pages);
    }

    /// Register a disk-engine table over already packed `pages`, under
    /// the next table id.
    pub(crate) fn add_disk_pages(&mut self, name: &str, schema: Schema, pages: Vec<Page>) {
        let id = self.next_table_id;
        self.next_table_id += 1;
        let table = DiskTable::from_pages(id, schema, pages, Arc::clone(&self.pool));
        self.insert(name, TableData::Disk(table));
    }

    fn insert(&mut self, name: &str, data: TableData) {
        let prev = self.tables.lock().insert(
            name.to_string(),
            Arc::new(StoredTable {
                name: name.to_string(),
                data,
            }),
        );
        assert!(prev.is_none(), "duplicate table {name:?}");
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> Option<Arc<StoredTable>> {
        self.tables.lock().get(name).cloned()
    }

    /// Look up a table, panicking with context if absent.
    pub fn expect(&self, name: &str) -> Arc<StoredTable> {
        self.get(name)
            .unwrap_or_else(|| panic!("no table named {name:?}; have {:?}", self.names()))
    }

    /// All table names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.tables.lock().keys().cloned().collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.lock().len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.lock().is_empty()
    }

    /// Apply one redo record to table state — the single entry point
    /// both live execution (after its commit fsync) and crash recovery
    /// use, which is what makes recovered state bit-identical to a
    /// clean replay. Commit markers are no-ops here (durability is the
    /// log's business); mutations validate against the *current* table
    /// state and fail with a typed [`WalError`] — never a panic, and
    /// before anything has changed — so a corrupt or misdirected record
    /// fails only its own transaction.
    ///
    /// Host cost follows what changes, not the table: the memory
    /// engine edits its column vectors, the disk engine repacks from the
    /// touched page until the old page boundaries re-align
    /// ([`crate::disk_table`]) and patches each index's entries,
    /// re-emitting nodes from the first changed leaf ([`crate::btree`])
    /// — landing on exactly the page and node images a bulk reload of
    /// the mutated rows would produce. The *simulated* side is
    /// deliberately coarser: every applied mutation still evicts the
    /// table's and each of its indexes' cached pages wholesale
    /// ([`BufferPool::evict_table`]), so the I/O the next reader is
    /// charged is the same whichever pages were rewritten. Narrowing
    /// that to the changed pages would change priced I/O and needs its
    /// own argument.
    pub fn apply_wal_record(&self, rec: &WalRecord) -> Result<(), WalError> {
        match rec {
            WalRecord::Commit { .. } => Ok(()),
            WalRecord::Insert { table, tuple } => {
                self.apply_mutation(table, Mutation::Insert(tuple))
            }
            WalRecord::Update { table, row, tuple } => {
                self.apply_mutation(table, Mutation::Update(*row, tuple))
            }
            WalRecord::Delete { table, row } => self.apply_mutation(table, Mutation::Delete(*row)),
        }
    }

    fn apply_mutation(&self, table: &str, m: Mutation<'_>) -> Result<(), WalError> {
        let mut tables = self.tables.lock();
        let Some(slot) = tables.get_mut(table) else {
            return Err(WalError::NoSuchTable {
                table: table.to_string(),
            });
        };
        if let Mutation::Insert(t) | Mutation::Update(_, t) = m {
            if !slot.schema().check(t) {
                return Err(WalError::SchemaMismatch {
                    table: table.to_string(),
                });
            }
            if !slot.can_store(t) {
                return Err(WalError::TupleTooWide {
                    table: table.to_string(),
                });
            }
        }
        if let Mutation::Update(row, _) | Mutation::Delete(row) = m {
            if row >= slot.len() {
                return Err(WalError::RowOutOfRange {
                    table: table.to_string(),
                    row,
                    len: slot.len(),
                });
            }
        }
        // In place unless a reader still holds the old snapshot.
        match &mut Arc::make_mut(slot).data {
            TableData::Memory(heap) => match m {
                Mutation::Insert(t) => heap.insert(t.clone()),
                Mutation::Update(row, t) => heap.set_row(row, t.clone()),
                Mutation::Delete(row) => {
                    heap.remove_row(row);
                }
            },
            TableData::Disk(disk) => {
                // Page and node numbers are reused, so stale cached
                // pages must go.
                self.pool.evict_table(disk.table_id());
                let mut indexes = self.indexes.lock();
                let mut each_index = |patch: &dyn Fn(&mut BTreeIndex, usize)| {
                    for entry in indexes.values_mut().filter(|e| e.table == table) {
                        let Some(col) = disk.schema().index_of(&entry.column) else {
                            continue;
                        };
                        self.pool.evict_table(entry.index.index_id());
                        patch(Arc::make_mut(&mut Arc::make_mut(entry).index), col);
                    }
                };
                match m {
                    Mutation::Insert(t) => {
                        let row = disk.len();
                        each_index(&|index, col| index.insert(t[col].clone(), row));
                        disk.append(t);
                    }
                    Mutation::Update(row, t) => {
                        let old = disk.tuple_at(row);
                        each_index(&|index, col| index.update_key(row, &old[col], &t[col]));
                        disk.set_row(row, t);
                    }
                    Mutation::Delete(row) => {
                        let old = disk.tuple_at(row);
                        each_index(&|index, col| index.remove(&old[col], row));
                        disk.remove_row(row);
                    }
                }
            }
        }
        Ok(())
    }

    /// Build and register a B-tree secondary index named `name` over
    /// `table.column`. Bulk-loads from the column straight off the
    /// table's pages (no I/O charged — see [`crate::btree`]); probes
    /// later charge the v4 index classes through the shared pool.
    pub fn create_index(
        &self,
        name: &str,
        table: &str,
        column: &str,
    ) -> Result<Arc<IndexEntry>, IndexError> {
        let stored = self
            .get(table)
            .ok_or_else(|| IndexError::NoSuchTable(table.to_string()))?;
        let TableData::Disk(disk) = &stored.data else {
            return Err(IndexError::NotDiskTable(table.to_string()));
        };
        let col = stored
            .schema()
            .index_of(column)
            .ok_or_else(|| IndexError::NoSuchColumn {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        let key_type = stored.schema().columns()[col].ty;
        let mut indexes = self.indexes.lock();
        if indexes.contains_key(name) {
            return Err(IndexError::DuplicateIndex(name.to_string()));
        }
        let id = {
            let mut next = self.next_index_id.lock();
            let id = *next;
            *next += 1;
            id
        };
        let entries = disk.column_with_row_ids(col);
        let index = Arc::new(BTreeIndex::build(
            id,
            key_type,
            entries,
            Arc::clone(&self.pool),
        ));
        let entry = Arc::new(IndexEntry {
            name: name.to_string(),
            table: table.to_string(),
            column: column.to_string(),
            index,
        });
        indexes.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Look up an index by name.
    pub fn index(&self, name: &str) -> Option<Arc<IndexEntry>> {
        self.indexes.lock().get(name).cloned()
    }

    /// The index on `table.column`, if one exists (first by name when
    /// several cover the same column).
    pub fn index_on(&self, table: &str, column: &str) -> Option<Arc<IndexEntry>> {
        self.indexes
            .lock()
            .values()
            .find(|e| e.table == table && e.column == column)
            .cloned()
    }

    /// Every registered index entry, sorted by name. Crash recovery
    /// uses this to re-create the crashed catalog's indexes over the
    /// recovered tables (indexes are derivable state, not WAL-logged).
    pub fn index_entries(&self) -> Vec<Arc<IndexEntry>> {
        self.indexes.lock().values().cloned().collect()
    }
}

/// A single-row mutation, borrowed out of a [`WalRecord`].
#[derive(Clone, Copy)]
enum Mutation<'a> {
    Insert(&'a Tuple),
    Update(usize, &'a Tuple),
    Delete(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ColumnType, Value};

    fn schema() -> Schema {
        Schema::new(&[("k", ColumnType::Int)])
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new(16);
        c.add_memory_table(
            "m",
            HeapTable::from_tuples(schema(), vec![vec![Value::Int(1)]]),
        );
        c.add_disk_table("d", schema(), &[vec![Value::Int(2)], vec![Value::Int(3)]]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.names(), vec!["d".to_string(), "m".to_string()]);
        assert_eq!(c.expect("m").len(), 1);
        assert_eq!(c.expect("d").len(), 2);
        assert!(c.get("x").is_none());
        assert!(matches!(c.expect("d").data, TableData::Disk(_)));
    }

    #[test]
    #[should_panic(expected = "duplicate table")]
    fn duplicate_rejected() {
        let mut c = Catalog::new(16);
        c.add_memory_table("t", HeapTable::new(schema()));
        c.add_memory_table("t", HeapTable::new(schema()));
    }

    #[test]
    #[should_panic(expected = "no table named")]
    fn expect_missing_panics() {
        Catalog::new(16).expect("ghost");
    }

    #[test]
    fn apply_wal_record_mutates_both_engines() {
        let mut c = Catalog::new(16);
        c.add_memory_table(
            "m",
            HeapTable::from_tuples(schema(), vec![vec![Value::Int(1)], vec![Value::Int(2)]]),
        );
        c.add_disk_table("d", schema(), &[vec![Value::Int(1)], vec![Value::Int(2)]]);
        for t in ["m", "d"] {
            c.apply_wal_record(&WalRecord::Insert {
                table: t.to_string(),
                tuple: vec![Value::Int(3)],
            })
            .expect("insert");
            c.apply_wal_record(&WalRecord::Update {
                table: t.to_string(),
                row: 0,
                tuple: vec![Value::Int(10)],
            })
            .expect("update");
            c.apply_wal_record(&WalRecord::Delete {
                table: t.to_string(),
                row: 1,
            })
            .expect("delete");
            assert_eq!(c.expect(t).len(), 2, "{t}");
        }
        // Memory engine state is directly inspectable…
        let m = c.expect("m");
        let TableData::Memory(h) = &m.data else {
            panic!("m is memory");
        };
        assert_eq!(
            h.rows().collect::<Vec<_>>(),
            [vec![Value::Int(10)], vec![Value::Int(3)]]
        );
        // …and the rebuilt disk table reads back the same rows.
        let d = c.expect("d");
        let TableData::Disk(t) = &d.data else {
            panic!("d is disk");
        };
        assert_eq!(
            t.all_tuples(),
            vec![vec![Value::Int(10)], vec![Value::Int(3)]]
        );
        // Commit markers are no-ops.
        c.apply_wal_record(&WalRecord::Commit { txn: 1 })
            .expect("commit");
    }

    #[test]
    fn a_readers_snapshot_survives_mutations_applied_after_it() {
        let mut c = Catalog::new(16);
        let rows = [vec![Value::Int(1)], vec![Value::Int(2)]];
        c.add_memory_table("m", HeapTable::from_tuples(schema(), rows.to_vec()));
        c.add_disk_table("d", schema(), &rows);
        let ix = c.create_index("ix", "d", "k").expect("create");
        for t in ["m", "d"] {
            let snapshot = c.expect(t);
            c.apply_wal_record(&WalRecord::Delete {
                table: t.to_string(),
                row: 0,
            })
            .expect("delete");
            // Shared at apply time: copied, then mutated.
            assert_eq!(snapshot.len(), 2, "{t}");
            assert_eq!(c.expect(t).len(), 1, "{t}");
            drop(snapshot);
            // Unshared: mutated where it stands.
            c.apply_wal_record(&WalRecord::Insert {
                table: t.to_string(),
                tuple: vec![Value::Int(3)],
            })
            .expect("insert");
            assert_eq!(c.expect(t).len(), 2, "{t}");
        }
        assert_eq!(ix.index.len(), 2, "the held index entry did not move");
        assert_eq!(c.index("ix").expect("registered").index.len(), 2);
        let live = c.index("ix").expect("registered");
        let probe = live.index.probe_point(&Value::Int(3)).expect("probe");
        assert_eq!(probe.row_ids, vec![1]);
    }

    #[test]
    fn apply_wal_record_rejects_bad_records_with_typed_errors() {
        let mut c = Catalog::new(16);
        c.add_memory_table(
            "m",
            HeapTable::from_tuples(schema(), vec![vec![Value::Int(1)]]),
        );
        assert_eq!(
            c.apply_wal_record(&WalRecord::Insert {
                table: "ghost".into(),
                tuple: vec![Value::Int(1)],
            })
            .unwrap_err(),
            crate::wal::WalError::NoSuchTable {
                table: "ghost".into()
            }
        );
        assert_eq!(
            c.apply_wal_record(&WalRecord::Insert {
                table: "m".into(),
                tuple: vec![Value::str("wrong type")],
            })
            .unwrap_err(),
            crate::wal::WalError::SchemaMismatch { table: "m".into() }
        );
        assert_eq!(
            c.apply_wal_record(&WalRecord::Delete {
                table: "m".into(),
                row: 5,
            })
            .unwrap_err(),
            crate::wal::WalError::RowOutOfRange {
                table: "m".into(),
                row: 5,
                len: 1
            }
        );
        // Failed records leave the table untouched.
        assert_eq!(c.expect("m").len(), 1);
    }

    #[test]
    fn disk_mutation_rebuilds_indexes_and_evicts_stale_pages() {
        let mut c = Catalog::new(64);
        let rows: Vec<_> = (0..2000).map(|i| vec![Value::Int(i)]).collect();
        c.add_disk_table("d", schema(), &rows);
        let e = c.create_index("ix", "d", "k").expect("create");
        assert_eq!(e.index.len(), 2000);
        // Warm the pool with pre-mutation pages.
        let d = c.expect("d");
        let TableData::Disk(t) = &d.data else {
            panic!("disk")
        };
        for p in 0..t.num_pages() {
            t.read_page(p);
        }
        c.pool().take_io();
        c.apply_wal_record(&WalRecord::Insert {
            table: "d".into(),
            tuple: vec![Value::Int(9999)],
        })
        .expect("insert");
        // The index was rebuilt over the mutated table, same id.
        let ix = c.index("ix").expect("still registered");
        assert_eq!(ix.index.len(), 2001);
        assert_eq!(ix.index.index_id(), e.index.index_id());
        // Reads now go to the rebuilt table and see the new row (a
        // stale cached page would have hidden it).
        let d = c.expect("d");
        let TableData::Disk(t) = &d.data else {
            panic!("disk")
        };
        let last = t.read_page(t.num_pages() - 1);
        assert_eq!(last.tuples().last(), Some(&vec![Value::Int(9999)]));
    }

    #[test]
    fn create_index_and_lookup() {
        let mut c = Catalog::new(16);
        c.add_disk_table("d", schema(), &[vec![Value::Int(2)], vec![Value::Int(3)]]);
        let e = c.create_index("ix_d_k", "d", "k").expect("create");
        assert_eq!(e.index.len(), 2);
        assert!(c.index("ix_d_k").is_some());
        assert!(c.index_on("d", "k").is_some());
        assert!(c.index_on("d", "missing").is_none());
        let names: Vec<String> = c.index_entries().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["ix_d_k".to_string()]);
        // Typed rejections, not panics.
        assert_eq!(
            c.create_index("ix_d_k", "d", "k").unwrap_err(),
            IndexError::DuplicateIndex("ix_d_k".to_string())
        );
        assert_eq!(
            c.create_index("x", "ghost", "k").unwrap_err(),
            IndexError::NoSuchTable("ghost".to_string())
        );
        assert_eq!(
            c.create_index("x", "d", "ghost").unwrap_err(),
            IndexError::NoSuchColumn {
                table: "d".to_string(),
                column: "ghost".to_string()
            }
        );
        c.add_memory_table(
            "m",
            HeapTable::from_tuples(schema(), vec![vec![Value::Int(1)]]),
        );
        assert_eq!(
            c.create_index("x", "m", "k").unwrap_err(),
            IndexError::NotDiskTable("m".to_string())
        );
    }
}
