//! # eco-storage — the storage engine under ecoDB
//!
//! Two storage profiles mirror the paper's two systems under test:
//!
//! * a **memory engine** ([`heap::HeapTable`]) standing in for MySQL's
//!   `MEMORY` storage engine (paper §3.3/§4 use it "to stress the CPU");
//! * a **disk engine** ([`disk_table::DiskTable`] + [`bufferpool::BufferPool`])
//!   standing in for the commercial DBMS: tuples live in 8 KB slotted
//!   pages behind an LRU buffer pool, and every miss charges simulated
//!   disk I/O — which is how the warm/cold experiment of paper §3.5
//!   arises naturally.
//!
//! The engine stores real tuples and returns real bytes; only the
//! *pricing* of I/O is simulated (see `eco-simhw`).
//!
//! # Columns, and their compressed form (ledger schema v3)
//!
//! Both engines serve columnar scans from typed column vectors: the
//! memory engine *stores* its tables that way
//! ([`heap::HeapTable::columns`] is the table; rows are materialized on
//! demand), the disk engine keeps a lazily-built mirror of its pages,
//! one chunk per extent, holding the columns scans asked for
//! ([`disk_table::DiskTable::columnar_with`]). Since
//! schema v3 each also has a lazily-built *encoded* form
//! ([`heap::HeapTable::encoded`], [`ColumnarExtents::extent_encoded`]):
//! dictionary encoding for strings/chars, run-length and
//! frame-of-reference bit-packing for ints/dates, one bitmap bit per
//! bool, auto-selected per column from build-time stats (see
//! [`encode`]). The encoded form never replaces the raw data — under
//! the default raw pricing mode it is never even built, and every
//! pre-v3 ledger figure stays bit-identical. Under the opt-in
//! compressed pricing mode (`PricingMode::Compressed` in `eco-simhw`),
//! scans price [`encode::EncodedChunk::avg_tuple_bytes`] — the encoded
//! byte count per row — as memory traffic, and kernels that read
//! through a dictionary charge the v3 `DictLookup` op class, so
//! compression ratio becomes measurable joules.
//!
//! # B-tree secondary indexes (ledger schema v4)
//!
//! Disk tables can carry paged B-tree secondary indexes
//! ([`btree::BTreeIndex`], registered via [`Catalog::create_index`]):
//! fixed-fanout interior/leaf pages stored through the same
//! [`page::Page`]/[`bufferpool::BufferPool`] machinery as table pages,
//! bulk-loaded (I/O-free) from the sorted column. Probes route every
//! page miss — index nodes *and* the base-row fetches they drive —
//! through the v4 **index random I/O** classes, priced exactly like
//! random I/O but ledgered separately, so index-free runs stay
//! bit-identical while index plans make the paper's fig5
//! random-vs-sequential energy split measurable from real query plans.
//! See the [`btree`] module docs for the pricing model, and the
//! repository's `docs/ARCHITECTURE.md` for how v4 fits the versioned
//! pricing-schema history.
//!
//! # Write-ahead logging (ledger schema v5)
//!
//! Mutations go through a redo-only [`wal::WriteAheadLog`]:
//! length-prefixed, checksummed records with commit markers, torn-tail
//! detection, and deterministic crash injection. Every redo record
//! charges the v5 `LogRecord` op class, and each fsync charges the
//! pending tail rounded up to whole 8 KB blocks as **log sequential
//! I/O** (`log_ios`/`log_bytes`, ledgered apart from table I/O) — the
//! rounding is what makes group commit an energy optimization rather
//! than just a latency one. [`Catalog::apply_wal_record`] is the
//! single mutation entry point shared by live execution and recovery
//! replay, so crash recovery provably lands on the committed-prefix
//! state. Applying a record costs host time in proportion to the pages
//! it changes — the table repacks from the touched page
//! ([`disk_table`]), each index patches its entries and re-emits the
//! changed leaves ([`btree`]) — and always lands on the page images a
//! bulk load of the mutated rows would produce. Read-only workloads log nothing and stay bit-identical to
//! every pre-v5 ledger.

pub mod btree;
pub mod bufferpool;
pub mod catalog;
pub mod column;
pub mod disk_table;
pub mod encode;
pub mod heap;
pub mod loader;
pub mod page;
pub mod rowset;
pub mod value;
pub mod wal;

pub use btree::{BTreeIndex, IndexProbe, KeyBound};
pub use bufferpool::{Access, BufferPool, PageFrame, PageId, DEFAULT_STREAM};
pub use catalog::{Catalog, IndexEntry, IndexError, StoredTable, TableData};
pub use column::{ColumnChunk, ColumnData, DataChunk, StrColumn};
pub use disk_table::{ColumnarExtents, IoError};
pub use encode::{BitPacked, EncodedChunk, EncodedColumn};
pub use heap::HeapTable;
pub use loader::{load_generated, load_tpch, EngineKind};
pub use rowset::{RoutedRows, RowSet};
pub use value::{tuple_width, Column, ColumnType, Schema, Tuple, Value};
pub use wal::{LogTail, Recovery, WalError, WalRecord, WriteAheadLog};
