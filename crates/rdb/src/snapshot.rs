//! Binary (de)serialization of tables and partitions — the storage half of
//! durable snapshots.
//!
//! A table is written as its **chunk layout** — chunk size, row count and
//! each sealed chunk's row count, so a restored table reproduces the seal
//! boundaries of the live one exactly (see [`Table::chunk_boundaries`]) —
//! then chunk by chunk, in global order, each sealed chunk as it is
//! resident (format v4, [`Format::V4`]):
//!
//! - **columns**: a chunk of a table with a projection keeps no rows
//!   ([`SealedChunk::is_projected`](crate::SealedChunk::is_projected)), so
//!   it is written as that projection, as it is resident: per column an
//!   encoding tag — packed for an `Int` or dictionary-code column, its
//!   frame's `i64` base, offset width and offsets; raw for a bool column's
//!   bytes — little-endian, an `Int` column's null flags only when it
//!   holds a NULL, then the projection order as a width and positions at
//!   that width (width 0 for the identity). A load reads each column
//!   straight into its vector: no value, no row, no re-encoding. It checks
//!   the widths, that no base plus offset passes `i64`, that the order is
//!   a permutation, that the time column runs in order, and that every
//!   code resolves in the dictionary, then derives the zone maps, the row
//!   → projection map and the indexes from the columns. Chunks an older
//!   v4 writer kept as columns — every column raw, the order four-byte
//!   positions, under their own layout tag — are read the same way, each
//!   column packed once on the way in.
//! - **rows**: a chunk of a table without a projection (the row-store
//!   configuration) is written as its rows. Files written before every
//!   product table was fully projected also hold entity chunks in this
//!   layout, followed by the chunk's projection order; a load rebuilds
//!   such a chunk through [`Table::load_chunk`]: the projection filled in
//!   the persisted order, which must time-order the chunk — deterministic
//!   and exact, without re-running the sort — after which the chunk keeps
//!   its columns and drops its rows. Its indexes are sorted from its keys.
//!
//! The open tail keeps no projection and no order: it is written, and
//! loaded, as rows. Indexes are rebuilt, not persisted: the reader passes
//! the table's [`Layout`], and every chunk is built with it.
//!
//! Format v3 ([`Format::V3`]) wrote every row of the table, then the
//! projection orders of every chunk and of the tail, behind a retired
//! block-size field. It is still read — through the same header reader and
//! [`Table::load_chunk`] — and never written.
//!
//! Encoding is the length-prefixed little-endian scheme of
//! [`aiql_model::codec`]; framing integrity (CRC, torn-write handling) is
//! the caller's concern — `aiql-storage` checksums whole snapshot files
//! and the WAL checksums records.

use crate::error::RdbError;
use crate::partition::{PartKey, PartitionSpec, PartitionedTable, Prune};
use crate::schema::{Row, Schema};
use crate::table::{Layout, Table};
use aiql_model::codec;
use aiql_model::columns::MAX_RESERVE;
use std::io::{self, Read, Write};

/// Hard cap on decoded row/partition counts, guarding against corrupt
/// length fields.
const MAX_COUNT: u64 = 1 << 40;

/// The table format a snapshot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Every row, then every projection order (read only).
    V3,
    /// Chunk by chunk, each sealed chunk kept as rows or as columns.
    V4,
}

/// A v4 sealed chunk's layout tag: kept as rows.
const ROWS: u8 = 0;
/// A v4 sealed chunk's layout tag: kept as columns, its order `u32`
/// positions (written before sealed chunks were packed; read only).
const COLUMNS: u8 = 1;
/// A v4 sealed chunk's layout tag: kept as columns, its order at the
/// chunk's position width.
const PACKED_COLUMNS: u8 = 2;

fn rdb_io(e: RdbError) -> io::Error {
    invalid(e.to_string())
}

pub(crate) fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn checked_count(n: u64, what: &str) -> io::Result<usize> {
    if n > MAX_COUNT {
        return Err(invalid(format!("{what} count {n} exceeds cap")));
    }
    Ok(n as usize)
}

fn read_rows<R: Read>(r: &mut R, n: usize, arity: usize) -> io::Result<Vec<Row>> {
    let mut rows: Vec<Row> = Vec::with_capacity(n.min(MAX_RESERVE));
    for _ in 0..n {
        let mut row: Row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(codec::read_value(r)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

fn read_positions<R: Read>(r: &mut R, n: usize) -> io::Result<Vec<u32>> {
    let mut p = Vec::with_capacity(n.min(MAX_RESERVE));
    for _ in 0..n {
        p.push(codec::read_u32(r)?);
    }
    Ok(p)
}

/// Writes one table in format v4: chunk layout, then each sealed chunk as
/// columns (a table with a projection) or as rows, then the open tail's
/// rows.
pub fn write_table<W: Write>(w: &mut W, t: &Table) -> io::Result<()> {
    codec::write_u64(w, t.chunk_rows() as u64)?;
    codec::write_u64(w, t.len() as u64)?;
    let sealed = t.sealed_chunks();
    codec::write_u64(w, sealed.len() as u64)?;
    for chunk in sealed {
        codec::write_u64(w, chunk.len() as u64)?;
    }
    codec::write_u8(w, t.columnar().is_some() as u8)?;
    for chunk in sealed {
        match chunk.columnar() {
            Some(c) => {
                codec::write_u8(w, PACKED_COLUMNS)?;
                c.write_chunk(w)?;
            }
            None => {
                codec::write_u8(w, ROWS)?;
                for row in (0..chunk.len() as u32).map(|p| chunk.row(p)) {
                    for col in 0..row.len() {
                        codec::write_value(w, &row.get(col))?;
                    }
                }
            }
        }
    }
    for row in t.tail_rows() {
        for col in 0..row.len() {
            codec::write_value(w, &row.get(col))?;
        }
    }
    Ok(())
}

/// Reads one table written in `format` into a table laid out as `layout`,
/// sealing chunks at exactly the persisted boundaries, each with the
/// layout's indexes and (when it has one) projection: read as columns,
/// filled in its persisted order, or — for a table written without one —
/// in bulk.
pub fn read_table<R: Read>(
    r: &mut R,
    format: Format,
    schema: Schema,
    layout: &Layout,
) -> io::Result<Table> {
    let arity = schema.arity();
    let chunk_rows = checked_count(codec::read_u64(r)?, "chunk-row")?;
    if chunk_rows == 0 {
        return Err(invalid("zero chunk size"));
    }
    let nrows = checked_count(codec::read_u64(r)?, "row")?;
    let nsealed = checked_count(codec::read_u64(r)?, "sealed-chunk")?;
    // Chunk lengths: the sealed ones, then the open tail. A live table's
    // chunks never exceed `chunk_rows` (the tail auto-seals there) and its
    // tail is always shorter, so anything else is corruption.
    let mut lens = Vec::with_capacity(nsealed.min(MAX_RESERVE) + 1);
    let mut covered = 0usize;
    for _ in 0..nsealed {
        let len = checked_count(codec::read_u64(r)?, "chunk-len")?;
        if len == 0 || len > chunk_rows || nrows - covered < len {
            return Err(invalid(format!("invalid sealed-chunk length {len}")));
        }
        covered += len;
        lens.push(len);
    }
    if nrows - covered >= chunk_rows {
        return Err(invalid(format!(
            "open tail of {} rows exceeds chunk size",
            nrows - covered
        )));
    }
    lens.push(nrows - covered);

    // Written without a projection but reopened with one, each chunk's is
    // bulk-built (the batch path); written with one but reopened without,
    // the persisted orders are skipped.
    let mut table = Table::with_chunk_rows(schema, layout, chunk_rows).map_err(rdb_io)?;
    let projected = table.columnar().is_some();
    match format {
        Format::V3 => {
            // Every row precedes the projection orders it is rebuilt with.
            let mut rows = read_rows(r, nrows, arity)?.into_iter();
            let mut perm = None;
            if codec::read_u8(r)? != 0 {
                codec::read_u64(r)?; // the retired block-size field
                perm = Some(read_positions(r, nrows)?).filter(|_| projected);
            }
            let mut base = 0u32;
            for (i, &len) in lens.iter().enumerate() {
                let chunk: Vec<Row> = rows.by_ref().take(len).collect();
                // The persisted order lifts chunk-local positions to global
                // ones.
                let local = match &perm {
                    Some(p) => Some(
                        p[base as usize..base as usize + len]
                            .iter()
                            .map(|&g| {
                                g.checked_sub(base).ok_or_else(|| {
                                    invalid(format!(
                                        "columnar permutation entry {g} before chunk base {base}"
                                    ))
                                })
                            })
                            .collect::<io::Result<Vec<u32>>>()?,
                    ),
                    None => None,
                };
                table
                    .load_chunk(chunk, local.as_deref(), i < nsealed)
                    .map_err(rdb_io)?;
                base += len as u32;
            }
        }
        Format::V4 => {
            let written_projected = codec::read_u8(r)? != 0;
            for (i, &len) in lens.iter().enumerate() {
                let sealed = i < nsealed;
                match if sealed { codec::read_u8(r)? } else { ROWS } {
                    ROWS => {
                        let rows = read_rows(r, len, arity)?;
                        let mut perm = None;
                        if sealed && written_projected {
                            perm = Some(read_positions(r, len)?).filter(|_| projected);
                        }
                        table
                            .load_chunk(rows, perm.as_deref(), sealed)
                            .map_err(rdb_io)?;
                    }
                    tag @ (COLUMNS | PACKED_COLUMNS) => {
                        let layout = table
                            .columnar()
                            .ok_or_else(|| invalid("a chunk kept as columns needs a projection"))?;
                        let chunk = layout.read_chunk(r, len, tag == COLUMNS)?;
                        table.load_columns(chunk).map_err(rdb_io)?;
                    }
                    tag => return Err(invalid(format!("unknown chunk layout {tag}"))),
                }
            }
        }
    }
    Ok(table)
}

/// Writes a partitioned table: every `(day, agent group)` partition with
/// its key, in key order.
pub fn write_partitioned<W: Write>(w: &mut W, pt: &PartitionedTable) -> io::Result<()> {
    let parts = pt.partitions_for(&Prune::all());
    codec::write_u64(w, parts.len() as u64)?;
    for (key, table) in parts {
        codec::write_i64(w, key.0)?;
        codec::write_u32(w, key.1)?;
        write_table(w, table)?;
    }
    Ok(())
}

/// Reads a partitioned table written by [`write_partitioned`] (in
/// `format`) into a table created with `layout`: every partition read is
/// laid out as [`PartitionedTable::layout`], as a partition materialized
/// later by rollover is.
pub fn read_partitioned<R: Read>(
    r: &mut R,
    format: Format,
    schema: Schema,
    spec: PartitionSpec,
    layout: &Layout,
) -> io::Result<PartitionedTable> {
    let mut pt = PartitionedTable::new(schema.clone(), spec, layout).map_err(rdb_io)?;
    let nparts = checked_count(codec::read_u64(r)?, "partition")?;
    for _ in 0..nparts {
        let key: PartKey = (codec::read_i64(r)?, codec::read_u32(r)?);
        let table = read_table(r, format, schema.clone(), pt.layout())?;
        pt.restore_partition(key, table).map_err(rdb_io)?;
    }
    Ok(pt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnarSpec;
    use crate::expr::{CmpOp, Expr};
    use crate::partition::NANOS_PER_DAY;
    use crate::schema::ColumnType;
    use crate::table::AccessPath;
    use aiql_model::{SharedDict, Value};
    use std::io::Cursor;

    fn schema() -> Schema {
        Schema::new(&[
            ("id", ColumnType::Int),
            ("agentid", ColumnType::Int),
            ("start_time", ColumnType::Int),
            ("name", ColumnType::Str),
        ])
    }

    /// `name` indexed, and with `dict`, sorted on `start_time`.
    fn layout(dict: Option<&SharedDict>) -> Layout {
        let spec = ColumnarSpec::time_sorted("start_time");
        let layout = Layout::indexed(&["name"]);
        match dict {
            Some(dict) => layout.with_columnar(spec, dict.clone()),
            None => layout,
        }
    }

    /// A copy of `dict`'s strings, as a reopened store's dictionary holds
    /// them.
    fn reopened(dict: &SharedDict) -> SharedDict {
        let copy = SharedDict::new();
        for s in dict.strings() {
            copy.intern(&s);
        }
        copy
    }

    fn sample_table(columnar: bool, dict: &SharedDict) -> Table {
        let mut t = Table::new(schema(), &layout(columnar.then_some(dict))).unwrap();
        // Out-of-order appends: the projection order is not the rows'.
        for (i, t_ns) in [50i64, 10, 40, 20, 30, 5, 60, 25, 70, 15]
            .iter()
            .enumerate()
        {
            t.insert(vec![
                Value::Int(i as i64),
                Value::Int((i % 3) as i64),
                Value::Int(*t_ns),
                Value::str(format!("f{}", i % 4)),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn table_round_trip_reproduces_rows_indexes_and_blocks() {
        let dict = SharedDict::new();
        let orig = sample_table(true, &dict);
        let mut buf = Vec::new();
        write_table(&mut buf, &orig).unwrap();

        let dict2 = reopened(&dict);
        let got = read_table(
            &mut Cursor::new(&buf),
            Format::V4,
            schema(),
            &layout(Some(&dict2)),
        )
        .unwrap();

        assert!(got.iter_rows().eq(orig.iter_rows()));
        // The open tail's order is derived, not kept: written again, the
        // reopened table is the same bytes.
        let mut again = Vec::new();
        write_table(&mut again, &got).unwrap();
        assert!(again == buf, "layout metadata reproduced exactly");

        // Scans behave identically. A string range is neither a kernel
        // nor, on a dictionary-coded column, an index range: it scans (the
        // row-only round trip below drives the index with it).
        assert_eq!(string_range(&orig), string_range(&got));
        assert_eq!(string_range(&orig).0, AccessPath::Seq);
        let window = [
            Expr::cmp_lit(2, CmpOp::Ge, 15i64),
            Expr::cmp_lit(2, CmpOp::Le, 45i64),
        ];
        let (s1v, s2v) = (&mut 0, &mut 0);
        let (p1, r1) = orig.select(&window, s1v);
        let (p2, r2) = got.select(&window, s2v);
        assert_eq!(p1, AccessPath::Columnar);
        assert_eq!((p1, r1, *s1v), (p2, r2, *s2v), "same rows touched");
    }

    #[test]
    fn row_only_table_round_trips_without_projection() {
        let dict = SharedDict::new();
        let orig = sample_table(false, &dict);
        let mut buf = Vec::new();
        write_table(&mut buf, &orig).unwrap();
        let got = read_table(&mut Cursor::new(&buf), Format::V4, schema(), &layout(None)).unwrap();
        assert!(got.iter_rows().eq(orig.iter_rows()));
        assert!(got.columnar().is_none());
        assert_eq!(string_range(&orig), string_range(&got));
        assert_eq!(string_range(&orig).0, AccessPath::IndexRange);
    }

    /// `name >= 'f2'`: its path, rows (two f2 and two f3) and rows touched.
    fn string_range(t: &Table) -> (AccessPath, Vec<u32>, u64) {
        let mut scanned = 0;
        let (path, rows) = t.select(&[Expr::cmp_lit(3, CmpOp::Ge, "f2")], &mut scanned);
        assert_eq!(rows.len(), 4);
        (path, rows, scanned)
    }

    #[test]
    fn chunked_table_round_trips_seal_boundaries_exactly() {
        let dict = SharedDict::new();
        let mut orig = Table::with_chunk_rows(schema(), &layout(Some(&dict)), 4).unwrap();
        for (i, t_ns) in [50i64, 10, 40, 20, 30, 5, 60, 25, 70, 15]
            .iter()
            .enumerate()
        {
            orig.insert(vec![
                Value::Int(i as i64),
                Value::Int((i % 3) as i64),
                Value::Int(*t_ns),
                Value::str(format!("f{}", i % 4)),
            ])
            .unwrap();
        }
        // An early seal, as a batch load ends, leaves a 2-row chunk and an
        // empty tail.
        orig.seal_tail();
        assert_eq!(orig.chunk_boundaries(), vec![4, 4, 2]);

        let mut buf = Vec::new();
        write_table(&mut buf, &orig).unwrap();
        let dict2 = reopened(&dict);
        let got = read_table(
            &mut Cursor::new(&buf),
            Format::V4,
            schema(),
            &layout(Some(&dict2)),
        )
        .unwrap();

        assert_eq!(got.chunk_rows(), orig.chunk_rows());
        assert_eq!(got.chunk_boundaries(), orig.chunk_boundaries());
        assert!(got.iter_rows().eq(orig.iter_rows()));
        for (gc, oc) in got.sealed_chunks().iter().zip(orig.sealed_chunks()) {
            assert!((0..gc.len() as u32).all(|p| gc.row(p) == oc.row(p)));
            let (g, o) = (gc.columnar().unwrap(), oc.columnar().unwrap());
            assert_eq!(g.perm(), o.perm(), "chunk-local layout metadata exact");
        }

        // Scans agree path-for-path and chunk-for-chunk.
        let window = [
            Expr::cmp_lit(2, CmpOp::Ge, 15i64),
            Expr::cmp_lit(2, CmpOp::Le, 45i64),
        ];
        let (mut s1, mut s2) = (0, 0);
        let (p1, r1) = orig.select(&window, &mut s1);
        let (p2, r2) = got.select(&window, &mut s2);
        assert_eq!(p1, AccessPath::Columnar);
        assert_eq!((p1, r1, s1), (p2, r2, s2), "same rows touched");
        let probe = [Expr::cmp_lit(3, CmpOp::Eq, "f1")];
        let (mut s1, mut s2) = (0, 0);
        assert_eq!(orig.select(&probe, &mut s1), got.select(&probe, &mut s2));
        assert_eq!(s1, s2);
    }

    #[test]
    fn partitioned_round_trip_keeps_keys_and_rollover_config() {
        let dict = SharedDict::new();
        let spec = PartitionSpec::new("start_time", "agentid", 2);
        let layout = |dict: &SharedDict| {
            Layout::indexed(&["name"]).with_columnar(ColumnarSpec::all(), dict.clone())
        };
        let mut pt = PartitionedTable::new(schema(), spec.clone(), &layout(&dict)).unwrap();
        for day in 0..2i64 {
            for agent in 0..4i64 {
                for n in 0..3i64 {
                    pt.insert(vec![
                        Value::Int(day * 100 + agent * 10 + n),
                        Value::Int(agent),
                        Value::Int(day * NANOS_PER_DAY + n * 1_000),
                        Value::str(format!("f{n}")),
                    ])
                    .unwrap();
                }
            }
        }
        let mut buf = Vec::new();
        write_partitioned(&mut buf, &pt).unwrap();

        let dict2 = reopened(&dict);
        let mut got = read_partitioned(
            &mut Cursor::new(&buf),
            Format::V4,
            schema(),
            spec,
            &layout(&dict2),
        )
        .unwrap();
        assert_eq!(got.len(), pt.len());
        assert_eq!(got.partition_count(), pt.partition_count());
        assert_eq!(got.days(), pt.days());

        let (mut s1, mut s2) = (0, 0);
        let conj = [Expr::cmp_lit(3, CmpOp::Eq, "f1")];
        let profile = &mut crate::table::ScanProfile::default();
        assert_eq!(
            got.select(&conj, &Prune::all(), &mut s1, profile),
            pt.select(&conj, &Prune::all(), &mut s2, profile)
        );
        assert_eq!(s1, s2, "identical access paths partition by partition");

        // Rollover after restore inherits index + projection config.
        got.insert(vec![
            Value::Int(999),
            Value::Int(9),
            Value::Int(5 * NANOS_PER_DAY),
            Value::str("late"),
        ])
        .unwrap();
        let fresh = got
            .partitions_for(&Prune {
                day_lo: Some(5),
                day_hi: Some(5),
                agents: None,
            })
            .pop()
            .unwrap()
            .1;
        assert!(fresh.columnar().is_some());
        assert_eq!(fresh.indexed_columns(), vec![3]);
    }

    #[test]
    fn truncated_snapshot_is_an_error() {
        let dict = SharedDict::new();
        let t = sample_table(true, &dict);
        let mut buf = Vec::new();
        write_table(&mut buf, &t).unwrap();
        let r = read_table(
            &mut Cursor::new(&buf[..buf.len() / 2]),
            Format::V4,
            schema(),
            &Layout::default(),
        );
        assert!(r.is_err());
    }

    /// A header whose counts pass the cap but that holds none of the
    /// entries they promise fails on the first missing one, without first
    /// reserving room for all of them.
    #[test]
    fn huge_counts_in_a_short_header_are_an_error() {
        let mut buf = Vec::new();
        for v in [4096, MAX_COUNT, MAX_COUNT] {
            codec::write_u64(&mut buf, v).unwrap();
        }
        assert_eq!(buf.len(), 24);
        let r = read_table(
            &mut Cursor::new(&buf),
            Format::V4,
            schema(),
            &Layout::default(),
        );
        assert!(r.is_err());
    }

    /// Chunks of every kind a reopen must reproduce — rows out of time
    /// order, an early-sealed short chunk, NULLs in `Int`, dictionary-coded and
    /// bool columns, indexes on an `Int` and a dictionary-coded column,
    /// an open tail — laid out as `layout`.
    fn mixed_table(layout: &Layout) -> Table {
        let schema = Schema::new(&[
            ("id", ColumnType::Int),
            ("agentid", ColumnType::Int),
            ("start_time", ColumnType::Int),
            ("name", ColumnType::Str),
            ("ok", ColumnType::Bool),
        ]);
        let mut t = Table::with_chunk_rows(schema, layout, 8).unwrap();
        for i in 0..30i64 {
            let null = |every: i64, v: Value| if i % every == 3 { Value::Null } else { v };
            t.insert(vec![
                Value::Int(i),
                null(5, Value::Int(i % 4)),
                Value::Int((i * 7) % 13),
                null(4, Value::str(format!("n{}", i % 3))),
                null(6, Value::Bool(i % 2 == 0)),
            ])
            .unwrap();
            if i == 11 {
                t.seal_tail();
            }
        }
        t
    }

    #[test]
    fn reopened_chunks_keep_the_layout_they_sealed_in() {
        let spec = ColumnarSpec::time_sorted("start_time");
        for as_columns in [true, false] {
            let layout = |dict: &SharedDict| {
                let rows = Layout::indexed(&["agentid", "name"]);
                match as_columns {
                    true => rows.with_columnar(spec.clone(), dict.clone()),
                    false => rows,
                }
            };
            let dict = SharedDict::new();
            let orig = mixed_table(&layout(&dict));
            assert_eq!(orig.chunk_boundaries(), vec![8, 4, 8, 8, 2]);
            let mut buf = Vec::new();
            write_table(&mut buf, &orig).unwrap();
            let got = read_table(
                &mut Cursor::new(&buf),
                Format::V4,
                orig.schema().clone(),
                &layout(&reopened(&dict)),
            )
            .unwrap();
            assert_eq!(got.chunk_boundaries(), orig.chunk_boundaries());
            for (g, o) in got.sealed_chunks().iter().zip(orig.sealed_chunks()) {
                assert_eq!(g.is_projected(), as_columns);
                // Same projection order, columns, zone maps, row →
                // projection map, index orders and spans, bytes.
                assert_eq!(g.layout_debug(), o.layout_debug());
            }
            assert!(got.iter_rows().eq(orig.iter_rows()));
            let mut again = Vec::new();
            write_table(&mut again, &got).unwrap();
            assert!(again == buf, "the same bytes written again");
        }
    }

    /// One sealed 4-row chunk kept as columns: its bytes, and a reader.
    fn one_columns_chunk() -> (Vec<u8>, impl Fn(&[u8]) -> io::Result<Table>) {
        let layout = layout(Some(&SharedDict::new()));
        let mut t = Table::with_chunk_rows(schema(), &layout, 4).unwrap();
        for (i, t_ns) in [30i64, 10, 40, 20].into_iter().enumerate() {
            t.insert(vec![
                Value::Int(i as i64),
                Value::Int(i as i64 % 3),
                Value::Int(t_ns),
                Value::str(format!("f{}", i % 2)),
            ])
            .unwrap();
        }
        assert_eq!(t.chunk_boundaries(), vec![4]);
        let mut buf = Vec::new();
        write_table(&mut buf, &t).unwrap();
        let read =
            move |bytes: &[u8]| read_table(&mut Cursor::new(bytes), Format::V4, schema(), &layout);
        (buf, read)
    }

    /// Every malformed chunk kept as columns is refused as invalid data —
    /// an unknown layout or encoding tag, an offset width outside 0 / 1 /
    /// 2 / 4 / 8, a frame whose base plus an offset passes `i64`, offsets
    /// shorter than the chunk, an order that is no permutation, a time
    /// column out of order, a code the dictionary does not hold (by its
    /// offset or by its base), a count promising 2^40 values — and none
    /// aborts.
    #[test]
    fn malformed_columns_are_invalid_data() {
        let (buf, read) = one_columns_chunk();
        read(&buf).unwrap();
        // Chunk size, rows, sealed chunks, the chunk's length; the
        // projection flag, the layout tag; per column packed (id, agentid,
        // start_time: tag, an i64 base, a width byte, four 1-byte offsets,
        // a null marker; name: tag, base, width, four 1-byte offsets); the
        // order's width and its four positions.
        let (layout, id) = (33, 34);
        let (start, name) = (id + 2 * 15, id + 3 * 15);
        let (codes, perm) = (name + 10, name + 14);
        assert_eq!(buf.len(), perm + 5);
        assert_eq!((buf[32], buf[layout]), (1, PACKED_COLUMNS));
        assert_eq!((buf[id], buf[id + 9], buf[perm]), (1, 1, 1));
        let patched = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut b = buf.clone();
            f(&mut b);
            b
        };
        let mut huge = Vec::new();
        for v in [MAX_COUNT, MAX_COUNT, 1, MAX_COUNT] {
            codec::write_u64(&mut huge, v).unwrap();
        }
        huge.extend_from_slice(&buf[32..]);
        let cases: [(&str, Vec<u8>); 11] = [
            ("layout tag", patched(&|b| b[layout] = 7)),
            ("encoding tag", patched(&|b| b[id] = 9)),
            ("offset width", patched(&|b| b[id + 9] = 3)),
            (
                "base past i64",
                patched(&|b| b[start + 1..start + 9].copy_from_slice(&i64::MAX.to_le_bytes())),
            ),
            ("short offsets", patched(&|b| b.truncate(codes + 2))),
            (
                "no permutation",
                patched(&|b| b.copy_within(perm + 1..perm + 2, perm + 2)),
            ),
            (
                "time order",
                patched(&|b| b.copy_within(start + 13..start + 14, start + 10)),
            ),
            ("code", patched(&|b| b[codes] = 99)),
            ("code base", patched(&|b| b[name + 1] = 2)),
            ("order width", patched(&|b| b[perm] = 5)),
            ("2^40 values", huge),
        ];
        for (case, bytes) in cases {
            let err = read(&bytes).expect_err(case);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
        }
    }

    #[test]
    fn duplicate_partition_key_is_rejected() {
        let spec = PartitionSpec::new("start_time", "agentid", 2);
        let mut pt = PartitionedTable::new(schema(), spec, &Layout::default()).unwrap();
        let t1 = sample_table(false, &SharedDict::new());
        let t2 = sample_table(false, &SharedDict::new());
        pt.restore_partition((0, 0), t1).unwrap();
        assert!(pt.restore_partition((0, 0), t2).is_err());
        assert_eq!(pt.len(), 10);
    }
}
