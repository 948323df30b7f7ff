//! Binary (de)serialization of tables and partitions — the storage half of
//! durable snapshots.
//!
//! A snapshot persists the **row store** (the source of truth), the
//! **chunk layout** (chunk size plus each sealed chunk's row count, so a
//! restored table reproduces the seal boundaries of the live one exactly —
//! see [`Table::chunk_boundaries`]), and the columnar *block metadata*:
//! the per-chunk projection orders
//! ([`Columnar::perm`](crate::Columnar::perm)) and block size. Columns,
//! zone maps, and dictionary codes are rebuilt from the rows on load via
//! [`Table::restore_columnar`] — cheap, deterministic, and exact, because
//! appending the rows in the persisted order reproduces the original block
//! boundaries (including the overlap a live-grown projection accumulates)
//! without re-running the sort. Secondary indexes are likewise rebuilt, not
//! persisted: the index set travels as configuration and every row insert
//! maintains it.
//!
//! Encoding is the length-prefixed little-endian scheme of
//! [`aiql_model::codec`]; framing integrity (CRC, torn-write handling) is
//! the caller's concern — `aiql-storage` checksums whole snapshot files
//! and the WAL checksums records.

use crate::columnar::ColumnarSpec;
use crate::error::RdbError;
use crate::partition::{PartKey, PartitionSpec, PartitionedTable, Prune};
use crate::schema::{Row, Schema};
use crate::table::Table;
use aiql_model::{codec, SharedDict};
use std::io::{self, Read, Write};

/// Hard cap on decoded row/partition counts, guarding against corrupt
/// length fields.
const MAX_COUNT: u64 = 1 << 40;

fn rdb_io(e: RdbError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn checked_count(n: u64, what: &str) -> io::Result<usize> {
    if n > MAX_COUNT {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{what} count {n} exceeds cap"),
        ));
    }
    Ok(n as usize)
}

/// Writes one table: chunk layout, row data, and columnar block metadata.
pub fn write_table<W: Write>(w: &mut W, t: &Table) -> io::Result<()> {
    codec::write_u64(w, t.chunk_rows() as u64)?;
    codec::write_u64(w, t.len() as u64)?;
    let sealed = t.sealed_chunks();
    codec::write_u64(w, sealed.len() as u64)?;
    for chunk in sealed {
        codec::write_u64(w, chunk.len() as u64)?;
    }
    for row in t.iter_rows() {
        for v in row {
            codec::write_value(w, v)?;
        }
    }
    match t.columnar() {
        Some(c) => {
            codec::write_u8(w, 1)?;
            codec::write_u64(w, c.block_rows() as u64)?;
            // Per-chunk projection orders, concatenated in chunk order with
            // chunk-local positions lifted to global ones — the layout
            // `Table::restore_columnar` consumes.
            let mut base = 0u32;
            for chunk in sealed {
                let cc = chunk.columnar().expect("projection is table-wide");
                for &p in cc.perm() {
                    codec::write_u32(w, p + base)?;
                }
                base += chunk.len() as u32;
            }
            for &p in c.perm() {
                codec::write_u32(w, p + base)?;
            }
        }
        None => codec::write_u8(w, 0)?,
    }
    Ok(())
}

/// Reads one table written by [`write_table`], sealing chunks at exactly
/// the persisted boundaries and rebuilding the given secondary indexes and
/// (when `columnar` is configured) the projection from the persisted block
/// metadata.
pub fn read_table<R: Read>(
    r: &mut R,
    schema: Schema,
    indexes: &[String],
    columnar: Option<(&ColumnarSpec, &SharedDict)>,
) -> io::Result<Table> {
    let arity = schema.arity();
    let chunk_rows = checked_count(codec::read_u64(r)?, "chunk-row")?;
    if chunk_rows == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero chunk size",
        ));
    }
    let nrows = checked_count(codec::read_u64(r)?, "row")?;
    let nsealed = checked_count(codec::read_u64(r)?, "sealed-chunk")?;
    // Global row positions at which the tail must seal. A live table's
    // chunks never exceed `chunk_rows` (the tail auto-seals there) and its
    // tail is always shorter, so anything else is corruption.
    let mut boundaries = Vec::with_capacity(nsealed);
    let mut covered = 0usize;
    for _ in 0..nsealed {
        let len = checked_count(codec::read_u64(r)?, "chunk-len")?;
        if len == 0 || len > chunk_rows || nrows - covered < len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid sealed-chunk length {len}"),
            ));
        }
        covered += len;
        boundaries.push(covered);
    }
    if nrows - covered >= chunk_rows {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("open tail of {} rows exceeds chunk size", nrows - covered),
        ));
    }
    let mut table = Table::with_chunk_rows(schema, chunk_rows);
    for name in indexes {
        table.create_index(name).map_err(rdb_io)?;
    }
    let mut next_boundary = 0usize;
    for i in 0..nrows {
        let mut row: Row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(codec::read_value(r)?);
        }
        table.insert(row).map_err(rdb_io)?;
        if next_boundary < boundaries.len() && i + 1 == boundaries[next_boundary] {
            // A no-op when the chunk auto-sealed at exactly `chunk_rows`.
            table.seal_tail();
            next_boundary += 1;
        }
    }
    let has_columnar = codec::read_u8(r)? != 0;
    if has_columnar {
        let block_rows = checked_count(codec::read_u64(r)?, "block-row")?;
        let mut perm = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            perm.push(codec::read_u32(r)?);
        }
        if let Some((spec, dict)) = columnar {
            let spec = spec.clone().with_block_rows(block_rows);
            table
                .restore_columnar(&spec, dict.clone(), &perm)
                .map_err(rdb_io)?;
        }
    } else if let Some((spec, dict)) = columnar {
        // Written without a projection but reopened with one configured:
        // bulk-build it (the batch path).
        table.enable_columnar(spec, dict.clone()).map_err(rdb_io)?;
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

/// Reads a partitioned table written by [`write_partitioned`]. The index
/// set and columnar configuration are applied to the table *before* the
/// partitions are attached, so partitions materialized later by rollover
/// inherit them exactly as on the original table.
pub fn read_partitioned<R: Read>(
    r: &mut R,
    schema: Schema,
    spec: PartitionSpec,
    indexes: &[String],
    columnar: Option<(&ColumnarSpec, &SharedDict)>,
) -> io::Result<PartitionedTable> {
    let mut pt = PartitionedTable::new(schema.clone(), spec).map_err(rdb_io)?;
    for name in indexes {
        pt.create_index(name).map_err(rdb_io)?;
    }
    // Default the projection's sort column to the partition time column,
    // exactly as `PartitionedTable::enable_columnar` does, so the per-
    // partition tables read below use the same effective spec.
    let part_spec = columnar.map(|(s, dict)| {
        let mut s = s.clone();
        if s.time_col.is_none() {
            s.time_col = Some(pt.spec().time_col.clone());
        }
        (s, dict)
    });
    if let Some((spec, dict)) = &part_spec {
        pt.enable_columnar(spec.clone(), (*dict).clone())
            .map_err(rdb_io)?;
    }
    let nparts = checked_count(codec::read_u64(r)?, "partition")?;
    for _ in 0..nparts {
        let key: PartKey = (codec::read_i64(r)?, codec::read_u32(r)?);
        let table = read_table(
            r,
            schema.clone(),
            indexes,
            part_spec.as_ref().map(|(s, d)| (s, *d)),
        )?;
        pt.restore_partition(key, table).map_err(rdb_io)?;
    }
    Ok(pt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::partition::NANOS_PER_DAY;
    use crate::schema::ColumnType;
    use crate::table::AccessPath;
    use aiql_model::Value;
    use std::io::Cursor;

    fn schema() -> Schema {
        Schema::new(&[
            ("id", ColumnType::Int),
            ("agentid", ColumnType::Int),
            ("start_time", ColumnType::Int),
            ("name", ColumnType::Str),
        ])
    }

    fn sample_table(columnar: bool, dict: &SharedDict) -> Table {
        let mut t = Table::new(schema());
        t.create_index("name").unwrap();
        if columnar {
            t.enable_columnar(
                &ColumnarSpec::time_sorted("start_time").with_block_rows(4),
                dict.clone(),
            )
            .unwrap();
        }
        // Out-of-order appends so the projection accumulates block overlap.
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

        let dict2 = SharedDict::new();
        for s in dict.strings() {
            dict2.intern(&s);
        }
        let got = read_table(
            &mut Cursor::new(&buf),
            schema(),
            &["name".to_string()],
            Some((
                &ColumnarSpec::time_sorted("start_time").with_block_rows(4),
                &dict2,
            )),
        )
        .unwrap();

        assert!(got.iter_rows().eq(orig.iter_rows()));
        let (oc, gc) = (orig.columnar().unwrap(), got.columnar().unwrap());
        assert_eq!(gc.perm(), oc.perm(), "block metadata reproduced exactly");
        assert_eq!(gc.sealed_blocks(), oc.sealed_blocks());
        assert_eq!(gc.block_rows(), oc.block_rows());

        // Index probes and columnar scans behave identically. (Ten rows
        // are cheaper to scan than to probe for an equality, so the index
        // is driven by a string range, which no kernel answers.)
        let mut s1 = 0;
        let mut s2 = 0;
        let probe = [Expr::cmp_lit(3, CmpOp::Ge, "f2")];
        let (p1, r1) = orig.select(&probe, &mut s1);
        let (p2, r2) = got.select(&probe, &mut s2);
        assert_eq!((p1, &r1, s1), (p2, &r2, s2));
        assert_eq!(p1, AccessPath::IndexRange);
        assert_eq!(r1.len(), 4, "two f2 and two f3");
        let window = [
            Expr::cmp_lit(2, CmpOp::Ge, 15i64),
            Expr::cmp_lit(2, CmpOp::Le, 45i64),
        ];
        let (s1v, s2v) = (&mut 0, &mut 0);
        let (p1, r1) = orig.select(&window, s1v);
        let (p2, r2) = got.select(&window, s2v);
        assert_eq!(p1, AccessPath::Columnar);
        assert_eq!((p1, r1, *s1v), (p2, r2, *s2v), "same blocks touched");
    }

    #[test]
    fn row_only_table_round_trips_without_projection() {
        let dict = SharedDict::new();
        let orig = sample_table(false, &dict);
        let mut buf = Vec::new();
        write_table(&mut buf, &orig).unwrap();
        let got = read_table(
            &mut Cursor::new(&buf),
            schema(),
            &["name".to_string()],
            None,
        )
        .unwrap();
        assert!(got.iter_rows().eq(orig.iter_rows()));
        assert!(got.columnar().is_none());
    }

    #[test]
    fn chunked_table_round_trips_seal_boundaries_exactly() {
        let dict = SharedDict::new();
        let mut orig = Table::with_chunk_rows(schema(), 4);
        orig.create_index("name").unwrap();
        orig.enable_columnar(
            &ColumnarSpec::time_sorted("start_time").with_block_rows(4),
            dict.clone(),
        )
        .unwrap();
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
        // A publish-style early seal leaves a 2-row chunk and an empty tail.
        assert!(orig.freeze_tail(1));
        assert_eq!(orig.chunk_boundaries(), vec![4, 4, 2]);

        let mut buf = Vec::new();
        write_table(&mut buf, &orig).unwrap();
        let dict2 = SharedDict::new();
        for s in dict.strings() {
            dict2.intern(&s);
        }
        let got = read_table(
            &mut Cursor::new(&buf),
            schema(),
            &["name".to_string()],
            Some((
                &ColumnarSpec::time_sorted("start_time").with_block_rows(4),
                &dict2,
            )),
        )
        .unwrap();

        assert_eq!(got.chunk_rows(), orig.chunk_rows());
        assert_eq!(got.chunk_boundaries(), orig.chunk_boundaries());
        assert!(got.iter_rows().eq(orig.iter_rows()));
        for (gc, oc) in got.sealed_chunks().iter().zip(orig.sealed_chunks()) {
            assert!(gc.rows().iter().eq(oc.rows()));
            let (g, o) = (gc.columnar().unwrap(), oc.columnar().unwrap());
            assert_eq!(g.perm(), o.perm(), "chunk-local block metadata exact");
            assert_eq!(g.sealed_blocks(), o.sealed_blocks());
        }

        // Scans agree path-for-path and block-for-block.
        let window = [
            Expr::cmp_lit(2, CmpOp::Ge, 15i64),
            Expr::cmp_lit(2, CmpOp::Le, 45i64),
        ];
        let (mut s1, mut s2) = (0, 0);
        let (p1, r1) = orig.select(&window, &mut s1);
        let (p2, r2) = got.select(&window, &mut s2);
        assert_eq!(p1, AccessPath::Columnar);
        assert_eq!((p1, r1, s1), (p2, r2, s2), "same blocks touched");
        let probe = [Expr::cmp_lit(3, CmpOp::Eq, "f1")];
        let (mut s1, mut s2) = (0, 0);
        assert_eq!(orig.select(&probe, &mut s1), got.select(&probe, &mut s2));
        assert_eq!(s1, s2);
    }

    #[test]
    fn partitioned_round_trip_keeps_keys_and_rollover_config() {
        let dict = SharedDict::new();
        let spec = PartitionSpec::new("start_time", "agentid", 2);
        let mut pt = PartitionedTable::new(schema(), spec.clone()).unwrap();
        pt.create_index("name").unwrap();
        pt.enable_columnar(ColumnarSpec::all().with_block_rows(4), dict.clone())
            .unwrap();
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

        let dict2 = SharedDict::new();
        for s in dict.strings() {
            dict2.intern(&s);
        }
        let mut got = read_partitioned(
            &mut Cursor::new(&buf),
            schema(),
            spec,
            &["name".to_string()],
            Some((&ColumnarSpec::all().with_block_rows(4), &dict2)),
        )
        .unwrap();
        assert_eq!(got.len(), pt.len());
        assert_eq!(got.partition_count(), pt.partition_count());
        assert_eq!(got.days(), pt.days());

        let (mut s1, mut s2) = (0, 0);
        let conj = [Expr::cmp_lit(3, CmpOp::Eq, "f1")];
        assert_eq!(
            got.select(&conj, &Prune::all(), &mut s1),
            pt.select(&conj, &Prune::all(), &mut s2)
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
        let r = read_table(&mut Cursor::new(&buf[..buf.len() / 2]), schema(), &[], None);
        assert!(r.is_err());
    }

    #[test]
    fn duplicate_partition_key_is_rejected() {
        let spec = PartitionSpec::new("start_time", "agentid", 2);
        let mut pt = PartitionedTable::new(schema(), spec).unwrap();
        let t1 = sample_table(false, &SharedDict::new());
        let t2 = sample_table(false, &SharedDict::new());
        pt.restore_partition((0, 0), t1).unwrap();
        assert!(pt.restore_partition((0, 0), t2).is_err());
        assert_eq!(pt.len(), 10);
    }
}
