//! Property tests for the storage substrates: index scans must equal
//! sequential scans, partition pruning must lose nothing, and the SQL
//! pipeline must agree with hand-rolled filtering.

use aiql::rdb::{
    CmpOp, ColumnType, ColumnarSpec, Database, Expr, Prune, Schema, SharedDict, Value,
};
use proptest::prelude::*;

fn rows() -> impl Strategy<Value = Vec<(i64, i64, String)>> {
    prop::collection::vec((0i64..50, 0i64..4, "[a-d]{1,3}"), 1..80)
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
    plain.create_table("t", schema()).unwrap();
    let mut indexed = Database::new();
    indexed.create_table("t", schema()).unwrap();
    indexed.create_index("t", "val").unwrap();
    indexed.create_index("t", "name").unwrap();
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
            let a = plain.query(&sql).unwrap();
            let b = indexed.query(&sql).unwrap();
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
        let mut pt = PartitionedTable::new(schema, PartitionSpec::new("start_time", "agentid", 2)).unwrap();
        for (i, (val, ag, _)) in data.iter().enumerate() {
            pt.insert(vec![
                Value::Int(*val),
                Value::Int(*ag),
                Value::Int(i as i64 * 30_000_000_000_000),
            ]).unwrap();
        }
        let conjuncts = vec![Expr::cmp_lit(1, CmpOp::Eq, agent)];
        // Full scan + filter.
        let mut s1 = 0;
        let mut all = pt.select(&conjuncts, &Prune::all(), &mut s1);
        // Pruned scan.
        let mut s2 = 0;
        let prune = Prune { day_lo: None, day_hi: None, agents: Some(vec![agent]) };
        let mut pruned = pt.select(&conjuncts, &prune, &mut s2);
        all.sort();
        pruned.sort();
        prop_assert_eq!(all, pruned);
        prop_assert!(s2 <= s1, "pruning must not scan more");
    }

    #[test]
    fn sql_aggregation_matches_manual(data in rows()) {
        let (plain, _) = build_dbs(&data);
        let rs = plain
            .query("SELECT t.agentid, COUNT(*) AS n FROM t GROUP BY t.agentid ORDER BY t.agentid")
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
    /// identical to one whose tail never seals, and so must a copy of it
    /// carrying a columnar projection — same global row order, same
    /// positional access, and the same positions in the same order from
    /// every selection, whichever access path each layout picks for it
    /// (index probe, index range, dictionary `LIKE` kernel, IN-list kernel,
    /// full scan), over sealed chunks and the open tail alike. Layout is
    /// an encoding, never a semantic.
    #[test]
    fn chunked_table_matches_monolithic_layout(
        data in rows(),
        chunk in 1usize..10,
        seal_every in 0usize..7,
        needle in 0i64..50,
        name in "[a-d]{1,3}",
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
        let mut chunked = Table::with_chunk_rows(schema(), chunk);
        // A chunk size no insert count here reaches: one open tail, exactly
        // the pre-chunking monolithic layout.
        let mut mono = Table::with_chunk_rows(schema(), usize::MAX);
        let mut projected = Table::with_chunk_rows(schema(), chunk);
        for t in [&mut chunked, &mut mono, &mut projected] {
            t.create_index("val").unwrap();
            t.create_index("name").unwrap();
        }
        projected
            .enable_columnar(
                &ColumnarSpec::time_sorted("start_time").with_block_rows(4),
                SharedDict::new(),
            )
            .unwrap();
        for (i, (val, agent, nm)) in data.iter().enumerate() {
            let row = vec![
                Value::Int(*val),
                Value::Int(*agent),
                // Some attributes are NULL, and case varies.
                match val % 5 {
                    0 => Value::Null,
                    1 => Value::str(nm.to_uppercase()),
                    _ => Value::str(nm.clone()),
                },
                Value::Int(i as i64 * 10_000_000_000_000),
            ];
            chunked.insert(row.clone()).unwrap();
            projected.insert(row.clone()).unwrap();
            mono.insert(row).unwrap();
            if seal_every > 0 && (i + 1) % seal_every == 0 {
                // Mid-stream seals: irregular boundaries.
                chunked.seal_tail();
                projected.seal_tail();
            }
        }
        prop_assert_eq!(chunked.len(), mono.len());
        prop_assert!(mono.sealed_chunks().is_empty(), "oracle stays monolithic");

        // Structural invariants of the chunked layout.
        let bounds = chunked.chunk_boundaries();
        prop_assert_eq!(bounds.iter().sum::<usize>(), chunked.len());
        prop_assert!(bounds.iter().all(|&n| n > 0), "no empty chunks: {:?}", bounds);

        // Global row order and positional access agree.
        prop_assert!(chunked.iter_rows().eq(mono.iter_rows()));
        for i in 0..chunked.len() {
            prop_assert_eq!(chunked.row(i as u32), mono.row(i as u32), "row {}", i);
        }

        // Selection differential across access paths.
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
        ] {
            let want = mono.select(&conjuncts, &mut 0).1;
            let oracle: Vec<u32> = (0..mono.len() as u32)
                .filter(|&p| conjuncts.iter().all(|c| c.matches(mono.row(p))))
                .collect();
            prop_assert_eq!(&want, &oracle, "monolithic scan wrong on {:?}", conjuncts);
            for (layout, t) in [("chunked", &chunked), ("projected", &projected)] {
                let (_, got) = t.select(&conjuncts, &mut 0);
                prop_assert_eq!(&got, &want, "{} diverged on {:?}", layout, conjuncts);
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
