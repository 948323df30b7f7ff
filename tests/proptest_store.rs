//! Property tests for the storage substrates: index scans must equal
//! sequential scans, partition pruning must lose nothing, and the SQL
//! pipeline must agree with hand-rolled filtering.

use aiql::baselines::query;
use aiql::rdb::{
    CmpOp, ColumnType, ColumnarSpec, Database, Expr, Layout, Prune, ScanProfile, Schema,
    SharedDict, Value,
};
use proptest::prelude::*;

fn rows() -> impl Strategy<Value = Vec<(i64, i64, String)>> {
    prop::collection::vec((0i64..50, 0i64..4, "[a-d]{1,3}"), 1..80)
}

/// A case's `val` spread: its kind and whether some values are NULL.
type Spread = (u8, bool);

/// Per case a spread of `val` that makes its sealed chunks take every
/// frame-of-reference offset width: one value (a constant column, width
/// 0), values under 300, 70 000 or 5·10⁹ (a chunk's span falls either
/// side of the 1-, 2- or 4-byte limit), or all of `i64` with both
/// extremes drawn often enough to share a chunk, so that max − min
/// overflows `i64` (width 8) — NULLs among them in half the cases.
fn spread() -> impl Strategy<Value = Spread> {
    (0u8..5, any::<bool>())
}

/// The value `x` and `pick` (both uniform) stand for under `spread`.
fn spread_val((kind, nulls): Spread, x: i64, pick: u8) -> Option<i64> {
    let v = match kind {
        0 => 7,
        1 => x.rem_euclid(300),
        2 => x.rem_euclid(70_000),
        3 => x.rem_euclid(5_000_000_000),
        _ => match pick {
            0 | 1 => i64::MIN,
            2 | 3 => i64::MAX,
            _ => x,
        },
    };
    (!nulls || pick != 4).then_some(v)
}

/// [`rows`] with `val` drawn under a [`spread`].
fn spread_rows() -> impl Strategy<Value = Vec<(Option<i64>, i64, String)>> {
    let rows = prop::collection::vec((any::<i64>(), 0u8..8, 0i64..4, "[a-d]{1,3}"), 1..80);
    (spread(), rows).prop_map(|(spread, rows)| {
        let val = |(x, pick, agent, name)| (spread_val(spread, x, pick), agent, name);
        rows.into_iter().map(val).collect()
    })
}

/// Bytes a frame-of-reference offset takes over values from `lo` to `hi`:
/// the narrowest of 0, 1, 2, 4 or 8 that holds `hi - lo`, taken in `u64`.
fn offset_width(lo: i64, hi: i64) -> usize {
    match (hi as u64).wrapping_sub(lo as u64) {
        0 => 0,
        1..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFFFF_FFFF => 4,
        _ => 8,
    }
}

fn build_dbs(rows: &[(i64, i64, String)]) -> (Database, Database) {
    let schema = || {
        Schema::new(&[
            ("val", ColumnType::Int),
            ("agentid", ColumnType::Int),
            ("name", ColumnType::Str),
            ("start_time", ColumnType::Int),
        ])
    };
    let mut plain = Database::new();
    plain
        .create_table("t", schema(), &Layout::default())
        .unwrap();
    let mut indexed = Database::new();
    let layout = Layout::indexed(&["val", "name"]);
    indexed.create_table("t", schema(), &layout).unwrap();
    for (i, (val, agent, name)) in rows.iter().enumerate() {
        let row = vec![
            Value::Int(*val),
            Value::Int(*agent),
            Value::str(name.clone()),
            Value::Int(i as i64 * 10_000_000_000_000), // Spread over days.
        ];
        plain.insert("t", row.clone()).unwrap();
        indexed.insert("t", row).unwrap();
    }
    (plain, indexed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_scan_equals_seq_scan(data in rows(), needle in 0i64..50, name in "[a-d]{1,3}") {
        let (plain, indexed) = build_dbs(&data);
        for sql in [
            format!("SELECT t.val, t.name FROM t WHERE t.val = {needle} ORDER BY t.name"),
            format!("SELECT t.val, t.name FROM t WHERE t.val >= {needle} ORDER BY t.name, t.val"),
            format!("SELECT t.val FROM t WHERE t.name = '{name}' ORDER BY t.val"),
            format!("SELECT t.val FROM t WHERE t.name LIKE '%{name}%' AND t.val < {needle} ORDER BY t.val"),
        ] {
            let a = query(&plain, &sql).unwrap();
            let b = query(&indexed, &sql).unwrap();
            prop_assert_eq!(a.rows, b.rows, "sql: {}", sql);
        }
    }

    #[test]
    fn partition_pruning_is_lossless(data in rows(), agent in 0i64..4) {
        use aiql::rdb::{PartitionSpec, PartitionedTable};
        let schema = Schema::new(&[
            ("val", ColumnType::Int),
            ("agentid", ColumnType::Int),
            ("start_time", ColumnType::Int),
        ]);
        let spec = PartitionSpec::new("start_time", "agentid", 2);
        let mut pt = PartitionedTable::new(schema, spec, &Layout::default()).unwrap();
        for (i, (val, ag, _)) in data.iter().enumerate() {
            pt.insert(vec![
                Value::Int(*val),
                Value::Int(*ag),
                Value::Int(i as i64 * 30_000_000_000_000),
            ]).unwrap();
        }
        let conjuncts = vec![Expr::cmp_lit(1, CmpOp::Eq, agent)];
        // Full scan + filter.
        let select = |prune: &Prune, scanned: &mut u64| -> Vec<Vec<Value>> {
            pt.select(&conjuncts, prune, scanned, &mut ScanProfile::default())
                .iter()
                .map(|r| r.to_row())
                .collect()
        };
        let mut s1 = 0;
        let mut all = select(&Prune::all(), &mut s1);
        // Pruned scan.
        let mut s2 = 0;
        let prune = Prune { day_lo: None, day_hi: None, agents: Some(vec![agent]) };
        let mut pruned = select(&prune, &mut s2);
        all.sort();
        pruned.sort();
        prop_assert_eq!(all, pruned);
        prop_assert!(s2 <= s1, "pruning must not scan more");
    }

    #[test]
    fn sql_aggregation_matches_manual(data in rows()) {
        let (plain, _) = build_dbs(&data);
        let rs = query(
            &plain,
            "SELECT t.agentid, COUNT(*) AS n FROM t GROUP BY t.agentid ORDER BY t.agentid",
        )
        .unwrap();
        let mut manual = std::collections::BTreeMap::new();
        for (_, agent, _) in &data {
            *manual.entry(*agent).or_insert(0i64) += 1;
        }
        let got: Vec<(i64, i64)> = rs
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        let want: Vec<(i64, i64)> = manual.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// Chunked ≡ monolithic ≡ projected: a table sealing every `chunk` rows
    /// (with extra random explicit seals thrown in) must be observationally
    /// identical to one whose tail never seals, and so must copies of it
    /// carrying a columnar projection of every column (`Str` included),
    /// whose sealed chunks keep no rows. Same global row order, same positional
    /// access, and the same positions in the same order from every
    /// selection, whichever access path each layout picks for it (index
    /// probe, index range, dictionary `LIKE` kernel, IN-list kernel, full
    /// scan), over sealed chunks and the open tail alike — including
    /// conjuncts no kernel answers (`<>`, `OR`, `NOT`, Int/Float
    /// comparisons), which projected chunks re-check on decoded rows.
    /// A fourth layout never auto-seals and projects time-sorted: its open
    /// tail always holds out-of-order rows when the selections run, one of
    /// them with a name no sealed chunk holds, and sealing sorts each of
    /// its chunks whole. `val` is drawn under a [`spread`], so its packed
    /// columns take every offset width, each chunk the narrowest that
    /// holds its values, and selections on it probe both ends of `i64`.
    /// Layout is an encoding, never a semantic.
    #[test]
    fn chunked_table_matches_monolithic_layout(
        data in spread_rows(),
        chunk in 1usize..10,
        seal_every in 0usize..7,
        needle in 0i64..50,
        name in "[a-d]{1,3}",
        pick in 0usize..80,
    ) {
        use aiql::rdb::Table;
        let schema = || {
            Schema::new(&[
                ("val", ColumnType::Int),
                ("agentid", ColumnType::Int),
                ("name", ColumnType::Str),
                ("start_time", ColumnType::Int),
            ])
        };
        let rows = Layout::indexed(&["val", "name"]);
        let columns = |spec| rows.clone().with_columnar(spec, SharedDict::new());
        let table = |layout: &Layout, chunk| Table::with_chunk_rows(schema(), layout, chunk).unwrap();
        let mut chunked = table(&rows, chunk);
        // A chunk size no insert count here reaches: one open tail, exactly
        // the pre-chunking monolithic layout.
        let mut mono = table(&rows, usize::MAX);
        let mut projected = table(&columns(ColumnarSpec::time_sorted("start_time")), chunk);
        let mut unsorted = table(&columns(ColumnarSpec::all()), chunk);
        let mut tailed = table(&columns(ColumnarSpec::time_sorted("start_time")), usize::MAX);
        for (i, (val, agent, nm)) in data.iter().enumerate() {
            let row = vec![
                val.map_or(Value::Null, Value::Int),
                Value::Int(*agent),
                // Some attributes are NULL, and case varies.
                match val.unwrap_or(0).rem_euclid(5) {
                    0 => Value::Null,
                    1 => Value::str(nm.to_uppercase()),
                    _ => Value::str(nm.clone()),
                },
                // Out of time order, so a time-sorted projection reorders.
                Value::Int((i as i64 * 37 % 101) * 10_000_000_000_000),
            ];
            for t in [&mut chunked, &mut projected, &mut unsorted, &mut tailed] {
                t.insert(row.clone()).unwrap();
                if seal_every > 0 && (i + 1) % seal_every == 0 {
                    // Mid-stream seals: irregular boundaries.
                    t.seal_tail();
                }
            }
            mono.insert(row).unwrap();
        }
        // A name only open tails hold, at a time between the others'.
        let late = vec![
            Value::Int(needle),
            Value::Int(1),
            Value::str("tail only"),
            Value::Int(50 * 10_000_000_000_000),
        ];
        for t in [&mut chunked, &mut mono, &mut projected, &mut unsorted, &mut tailed] {
            t.insert(late.clone()).unwrap();
        }
        prop_assert_eq!(chunked.len(), mono.len());
        prop_assert!(mono.sealed_chunks().is_empty(), "oracle stays monolithic");
        prop_assert!(tailed.tail_rows().any(|r| r.get(2) == Value::str("tail only")));
        // Projections replace the rows of sealed chunks; without one they
        // stay.
        for (t, projected_chunks) in [
            (&chunked, false),
            (&projected, true),
            (&unsorted, true),
            (&tailed, true),
        ] {
            for c in t.sealed_chunks() {
                prop_assert_eq!(c.is_projected(), projected_chunks);
                prop_assert_eq!(c.resident_bytes().rows == 0, projected_chunks);
            }
        }
        // Each projected chunk packs `val` at the width its values need.
        for t in [&projected, &unsorted, &tailed] {
            for c in t.sealed_chunks() {
                let p = c.columnar().expect("projected");
                let vals: Vec<i64> = (0..p.len()).filter_map(|at| p.int(at, 0)).collect();
                let (lo, hi) = (vals.iter().min(), vals.iter().max());
                let want = lo.zip(hi).map_or(0, |(&lo, &hi)| offset_width(lo, hi));
                prop_assert_eq!(p.offset_width(0), Some(want), "{:?}", vals);
            }
        }
        // A time-sorted chunk is sorted whole when it seals.
        for t in [&projected, &tailed] {
            for c in t.sealed_chunks() {
                let p = c.columnar().expect("projected");
                let times: Vec<Option<i64>> = (0..p.len()).map(|at| p.int(at, 3)).collect();
                prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "chunk unsorted: {:?}", times);
            }
        }

        // Structural invariants of the chunked layout.
        let bounds = chunked.chunk_boundaries();
        prop_assert_eq!(bounds.iter().sum::<usize>(), chunked.len());
        prop_assert!(bounds.iter().all(|&n| n > 0), "no empty chunks: {:?}", bounds);

        // Global row order and positional access agree.
        for t in [&chunked, &projected, &unsorted, &tailed] {
            prop_assert!(t.iter_rows().eq(mono.iter_rows()));
            for i in 0..t.len() {
                prop_assert_eq!(t.row(i as u32), mono.row(i as u32), "row {}", i);
            }
        }

        // Selection differential across access paths.
        let hit = data[pick % data.len()].0.unwrap_or(needle);
        let not_like = |pattern: String| Expr::NotLike(Box::new(Expr::Col(2)), pattern.into());
        let ids = |n: i64| Expr::in_list(0, (needle..needle + n).map(Value::Int).collect());
        for conjuncts in [
            vec![],
            vec![Expr::cmp_lit(0, CmpOp::Eq, needle)],
            vec![Expr::cmp_lit(0, CmpOp::Ge, needle)],
            vec![Expr::like(2, format!("%{name}%")), Expr::cmp_lit(0, CmpOp::Lt, needle)],
            vec![Expr::like(2, format!("{name}%"))],
            vec![Expr::like(2, format!("%{}", name.to_uppercase()))],
            vec![not_like(format!("%{name}%"))],
            vec![not_like(format!("{name}%")), Expr::cmp_lit(0, CmpOp::Ne, needle)],
            vec![Expr::IsNull(Box::new(Expr::Col(2)))],
            vec![ids(1)],
            vec![ids(100), Expr::like(2, "%a%")],
            vec![ids(5_000)],
            vec![Expr::NotIn(Box::new(Expr::Col(0)), vec![Value::Int(needle)].into())],
            // A value the rows hold, and both ends of `i64`.
            vec![Expr::cmp_lit(0, CmpOp::Eq, hit)],
            vec![Expr::cmp_lit(0, CmpOp::Lt, hit)],
            vec![Expr::cmp_lit(0, CmpOp::Gt, hit), Expr::cmp_lit(0, CmpOp::Le, hit / 2 + i64::MAX / 2)],
            vec![Expr::in_list(0, [hit, i64::MIN, i64::MAX].map(Value::Int).into())],
            vec![Expr::cmp_lit(0, CmpOp::Le, i64::MIN)],
            vec![Expr::cmp_lit(0, CmpOp::Ge, i64::MAX)],
            vec![Expr::cmp_lit(0, CmpOp::Ge, i64::MIN), Expr::cmp_lit(0, CmpOp::Lt, i64::MAX)],
            // What no kernel answers: residuals on every path.
            vec![Expr::cmp_lit(2, CmpOp::Ne, name.clone())],
            vec![Expr::Or(vec![
                Expr::cmp_lit(0, CmpOp::Eq, needle),
                Expr::like(2, format!("{name}%")),
            ])],
            vec![
                Expr::Not(Box::new(Expr::cmp_lit(1, CmpOp::Eq, 1i64))),
                Expr::cmp_lit(0, CmpOp::Le, needle),
            ],
            vec![Expr::cmp_lit(0, CmpOp::Ge, needle as f64 + 0.5)],
            vec![Expr::cmp_lit(0, CmpOp::Eq, needle as f64)],
            vec![
                Expr::in_list(0, vec![Value::Float(needle as f64), Value::Int(needle + 1)]),
                Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::Col(2))))),
            ],
            vec![Expr::cmp_lit(1, CmpOp::Lt, 2.5), Expr::cmp_lit(0, CmpOp::Eq, needle)],
            // The name only the tails hold: by equality, list and pattern,
            // and with a time window around it.
            vec![Expr::cmp_lit(2, CmpOp::Eq, "tail only")],
            vec![Expr::in_list(2, vec![Value::str("tail only"), Value::str(name.clone())])],
            vec![Expr::like(2, "%ONLY")],
            vec![
                Expr::cmp_lit(3, CmpOp::Ge, 40 * 10_000_000_000_000i64),
                Expr::cmp_lit(3, CmpOp::Le, 60 * 10_000_000_000_000i64),
            ],
        ] {
            let want = mono.select(&conjuncts, &mut 0).1;
            let oracle: Vec<u32> = (0..mono.len() as u32)
                .filter(|&p| conjuncts.iter().all(|c| c.matches(&mono.row(p).to_row())))
                .collect();
            prop_assert_eq!(&want, &oracle, "monolithic scan wrong on {:?}", conjuncts);
            for (layout, t) in [
                ("chunked", &chunked),
                ("projected", &projected),
                ("unsorted", &unsorted),
                ("tailed", &tailed),
            ] {
                let (_, got) = t.select(&conjuncts, &mut 0);
                prop_assert_eq!(&got, &want, "{} diverged on {:?}", layout, conjuncts);
                prop_assert!(
                    t.rows_at(&got).eq(mono.rows_at(&want)),
                    "{} rows diverged on {:?}", layout, conjuncts
                );
            }
        }

        // Clone = refcount-bump of sealed history; post-clone inserts are
        // invisible to the snapshot and never unshare a sealed chunk.
        let snapshot = chunked.clone();
        let sealed = snapshot.sealed_chunks().len();
        let frozen_len = snapshot.len();
        chunked
            .insert(vec![
                Value::Int(0),
                Value::Int(0),
                Value::str("post"),
                Value::Int(0),
            ])
            .unwrap();
        prop_assert_eq!(snapshot.len(), frozen_len);
        prop_assert_eq!(chunked.chunks_shared_with(&snapshot), sealed);
    }

    /// Publication on one table: random runs of appends, clones (what a
    /// publish pins) and selections, over tails of many blocks, a random
    /// chunk size, out-of-order times, NULLs and a name only tails hold.
    /// Every pinned clone equals the row prefix at its length, in order,
    /// under every access path — projected and row-store alike — however
    /// many appends and seals the head makes after it; and each detach,
    /// the head's first append after a clone, copies at most the one
    /// partial tail block `tail_bytes` charges for, leaving every full
    /// block shared. `val` is drawn under a [`spread`], so the sealed
    /// chunks the clones pin take every offset width.
    #[test]
    fn pinned_clones_are_prefixes_and_detaches_copy_one_block(
        spread in spread(),
        ops in prop::collection::vec((0u8..8, any::<i64>(), 0u8..8, "[a-d]{1,3}"), 1..700),
        chunk in 1usize..600,
        needle in 0i64..50,
        pick in 0usize..700,
    ) {
        use aiql::rdb::{AccessPath, Row, Table, TAIL_BLOCK_ROWS};
        let schema = Schema::new(&[
            ("val", ColumnType::Int),
            ("agentid", ColumnType::Int),
            ("name", ColumnType::Str),
            ("start_time", ColumnType::Int),
        ]);
        let rows = Layout::indexed(&["val", "name"]);
        let columns = rows
            .clone()
            .with_columnar(ColumnarSpec::time_sorted("start_time"), SharedDict::new());
        let mut projected = Table::with_chunk_rows(schema.clone(), &columns, chunk).unwrap();
        let mut rows_only = Table::with_chunk_rows(schema, &rows, chunk).unwrap();
        let mut appended: Vec<Row> = Vec::new();
        let mut pinned: Vec<(Table, Table)> = Vec::new();
        let mut detached = true;
        for (i, (op, x, pick, nm)) in ops.iter().enumerate() {
            let val = spread_val(spread, *x, *pick);
            if *op == 0 {
                // A publish: pin both heads as they stand, the last row
                // appended with a name no other row holds.
                let late = vec![
                    val.map_or(Value::Null, Value::Int),
                    Value::Null,
                    Value::str("tail only"),
                    Value::Int((i as i64 * 37 % 101) * 1_000),
                ];
                for t in [&mut projected, &mut rows_only] {
                    t.insert(late.clone()).unwrap();
                }
                appended.push(late);
                pinned.push((projected.clone(), rows_only.clone()));
                detached = false;
                continue;
            }
            let row = vec![
                val.map_or(Value::Null, Value::Int),
                Value::Int(i as i64 % 4),
                match val.unwrap_or(0).rem_euclid(5) {
                    0 => Value::Null,
                    1 => Value::str(nm.to_uppercase()),
                    _ => Value::str(nm.clone()),
                },
                // Out of time order.
                Value::Int((i as i64 * 37 % 101) * 1_000),
            ];
            for t in [&mut projected, &mut rows_only] {
                t.insert(row.clone()).unwrap();
            }
            appended.push(row);
            if !detached {
                // The first append since the last clone: unless it sealed
                // the tail, the clone and the head still share every full
                // block — the clone copied only the partial one, which is
                // what `tail_bytes` charges.
                detached = true;
                let (clone, _) = pinned.last().unwrap();
                if projected.sealed_chunks().len() == clone.sealed_chunks().len() {
                    let full = clone.tail_len() / TAIL_BLOCK_ROWS;
                    prop_assert_eq!(projected.tail_blocks_shared_with(clone), full);
                    let partial = (clone.tail_len() % TAIL_BLOCK_ROWS) as u64;
                    // Four columns: three integers, one string code.
                    let row_bytes = 8 + 8 + 4 + 8;
                    prop_assert!(clone.tail_bytes() >= partial * row_bytes);
                    prop_assert!(clone.tail_bytes() <= partial * (row_bytes + 2));
                }
                prop_assert_eq!(projected.chunks_shared_with(clone), clone.sealed_chunks().len());
            }
        }

        let hit = appended[pick % appended.len()][0].as_int().unwrap_or(needle);
        let cases = [
            vec![],
            vec![Expr::cmp_lit(0, CmpOp::Eq, needle)],
            vec![Expr::cmp_lit(0, CmpOp::Eq, hit)],
            vec![Expr::cmp_lit(0, CmpOp::Gt, hit)],
            vec![Expr::in_list(0, [hit, i64::MIN, i64::MAX].map(Value::Int).into())],
            vec![Expr::cmp_lit(0, CmpOp::Le, i64::MIN)],
            vec![Expr::cmp_lit(0, CmpOp::Ge, needle)],
            vec![Expr::in_list(0, (needle..needle + 4).map(Value::Int).collect())],
            vec![Expr::cmp_lit(2, CmpOp::Eq, "tail only")],
            vec![Expr::like(2, "%A%"), Expr::cmp_lit(0, CmpOp::Lt, needle)],
            vec![Expr::IsNull(Box::new(Expr::Col(2)))],
            vec![Expr::cmp_lit(2, CmpOp::Ne, "a")],
            vec![
                Expr::cmp_lit(3, CmpOp::Ge, 20_000i64),
                Expr::cmp_lit(3, CmpOp::Le, 60_000i64),
            ],
            vec![Expr::cmp_lit(1, CmpOp::Eq, 2.0)],
        ];
        let mut paths = Vec::new();
        for (projected, rows_only) in &pinned {
            let len = projected.len();
            prop_assert_eq!(rows_only.len(), len);
            let prefix = &appended[..len];
            for t in [projected, rows_only] {
                prop_assert!(t.iter_rows().map(|r| r.to_row()).eq(prefix.iter().cloned()));
                for (i, want) in prefix.iter().enumerate() {
                    prop_assert_eq!(&t.row(i as u32).to_row(), want);
                }
                for conjuncts in &cases {
                    let want: Vec<u32> = (0..len as u32)
                        .filter(|&p| conjuncts.iter().all(|c| c.matches(&prefix[p as usize])))
                        .collect();
                    let (path, got) = t.select(conjuncts, &mut 0);
                    prop_assert_eq!(&got, &want, "{:?} over {} rows", conjuncts, len);
                    paths.push(path);
                }
            }
        }
        if pinned.iter().any(|(t, _)| t.sealed_chunks().len() > 1) {
            for path in [AccessPath::IndexEq, AccessPath::Columnar, AccessPath::Seq] {
                prop_assert!(paths.contains(&path), "{:?} never ran", path);
            }
        }
    }

    #[test]
    fn like_match_agrees_with_contains(hay in "[a-z]{0,12}", needle in "[a-z]{1,4}") {
        let v = Value::str(hay.clone());
        prop_assert_eq!(v.like(&format!("%{needle}%")), hay.contains(&needle));
        prop_assert_eq!(v.like(&format!("{needle}%")), hay.starts_with(&needle));
        prop_assert_eq!(v.like(&format!("%{needle}")), hay.ends_with(&needle));
    }

    #[test]
    fn timestamp_parse_display_roundtrip(secs in 0i64..4_102_444_800) {
        use aiql_model::Timestamp;
        let t = Timestamp::from_secs(secs);
        let shown = t.to_string();
        prop_assert_eq!(Timestamp::parse(&shown), Some(t), "{}", shown);
    }
}
