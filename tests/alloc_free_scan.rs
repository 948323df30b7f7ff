//! Allocation guard for prepared scan predicates: a `LIKE` or `IN` scan
//! allocates per table and per chunk, never per row; and reading a
//! projected string allocates nothing.
//!
//! This is the regression test a timing assertion would be, without the
//! timing: the matcher this guards against made six heap allocations per
//! row (lower-casing text and pattern, collecting both into vectors), and
//! nothing about the sandbox's pace can hide or fake that. The binary
//! installs a counting global allocator, so it holds only these tests;
//! counts are per thread, so they may run in parallel.

use aiql::model::{AgentId, Entity};
use aiql::rdb::{
    AccessPath, ColumnarSpec, Expr, Layout, ScanProfile, SharedDict, Table, Value,
    DEFAULT_CHUNK_ROWS,
};
use aiql::storage::{entity_row, schema};

mod counting_alloc;

use counting_alloc::allocations;

const ROWS: usize = 20_000;

/// A `processes` table of [`ROWS`] rows in the store's entity layout,
/// indexed like the store's (`id`, `exe_name`). A handful of distinct,
/// mixed-case executable names, one of them outside ASCII, and a NULL
/// `user` on every third row.
fn processes(chunk_rows: usize, columnar: bool) -> Table {
    processes_of(ROWS, chunk_rows, columnar)
}

/// [`processes`] of `n` rows.
fn processes_of(n: usize, chunk_rows: usize, columnar: bool) -> Table {
    let names = [
        "C:\\Windows\\System32\\cmd.exe",
        "C:\\Windows\\System32\\svchost.exe",
        "/usr/bin/bash",
        "C:\\Program Files\\SQL\\OSQL.EXE",
        "C:\\Users\\zoë\\naïve.exe",
    ];
    let mut layout = Layout::indexed(&["id", "exe_name"]);
    if columnar {
        layout = layout.with_columnar(ColumnarSpec::all(), SharedDict::new());
    }
    let mut t = Table::with_chunk_rows(schema::processes_schema(), &layout, chunk_rows).unwrap();
    for i in 0..n as u64 {
        let mut p = Entity::process((i + 1).into(), AgentId(0), names[i as usize % 5], 100);
        if i % 3 != 0 {
            p = p.with_attr("user", format!("user{}", i % 11));
        }
        t.insert(entity_row(&p)).unwrap();
    }
    t
}

#[test]
fn like_scans_do_not_allocate_per_row() {
    let budget = (ROWS / 50) as u64;
    let layouts = [
        ("columnar", processes(DEFAULT_CHUNK_ROWS, true)),
        ("row store", processes(DEFAULT_CHUNK_ROWS, false)),
        ("unsealed columnar tail", processes(usize::MAX, true)),
        ("unsealed row-store tail", processes(usize::MAX, false)),
    ];
    assert_eq!(layouts[0].1.sealed_chunks().len(), 4);
    assert!(layouts[2].1.sealed_chunks().is_empty());
    let not_like = |col, p: &str| Expr::NotLike(Box::new(Expr::Col(col)), p.into());
    let cases = [
        vec![Expr::like(schema::proc::EXE_NAME, "%\\cmd.exe")],
        vec![Expr::like(schema::proc::EXE_NAME, "c:%sql%.exe")],
        vec![Expr::like(schema::proc::EXE_NAME, "%ZOË%")],
        vec![not_like(schema::proc::EXE_NAME, "c:\\%")],
        vec![Expr::like(schema::proc::USER, "USER1%")],
        vec![
            not_like(schema::proc::USER, "%7"),
            Expr::like(schema::proc::EXE_NAME, "%.exe"),
        ],
    ];
    for (layout, table) in &layouts {
        for conjuncts in &cases {
            let (n, (path, rows)) = allocations(|| {
                table.select_profiled(conjuncts, &mut 0, &mut ScanProfile::default())
            });
            assert!(rows.len() > ROWS / 10, "{layout}: {conjuncts:?}");
            let expected = match table.columnar() {
                Some(_) => AccessPath::Columnar,
                None => AccessPath::Seq,
            };
            assert_eq!(path, expected, "{layout}: {conjuncts:?}");
            assert!(
                n < budget,
                "{layout}: {n} allocations for {ROWS} rows on {conjuncts:?}"
            );
        }
    }
}

#[test]
fn in_list_scans_allocate_per_chunk_and_per_list() {
    const CHUNKS: usize = 40;
    let layouts = [
        ("columnar", processes(ROWS / CHUNKS, true)),
        ("row store", processes(ROWS / CHUNKS, false)),
    ];
    assert_eq!(layouts[0].1.sealed_chunks().len(), CHUNKS);
    // Every fourth id: 5 000 values spread over every chunk.
    let ids: Vec<Value> = (0..5_000).map(|i| Value::Int(i * 4 + 1)).collect();
    // (conjuncts, matching rows): the list as the probe/kernel itself, and
    // as a residual next to a cheaper probe and on a column without index
    // (`pid` is 100 on every row).
    let cases = [
        (vec![Expr::in_list(schema::proc::ID, ids.clone())], 5_000),
        (
            vec![
                Expr::in_list(schema::proc::ID, ids.clone()),
                Expr::in_list(schema::proc::ID, vec![Value::Int(401), Value::Int(402)]),
            ],
            1,
        ),
        (
            vec![Expr::in_list(
                schema::proc::PID,
                (0..5_000).map(Value::Int).collect(),
            )],
            ROWS,
        ),
    ];
    // Per chunk: candidate and result vectors (each may grow a few times),
    // a selection bitmap. Per table: kernels, the result. Nothing per row,
    // nothing per listed value.
    let budget = (12 * CHUNKS + 64) as u64;
    for (layout, table) in &layouts {
        for (conjuncts, want) in &cases {
            let mut profile = ScanProfile::default();
            let (n, (_, rows)) =
                allocations(|| table.select_profiled(conjuncts, &mut 0, &mut profile));
            assert_eq!(rows.len(), *want, "{layout}: case of {want}");
            assert!(
                n < budget,
                "{layout}: {n} allocations over {CHUNKS} chunks (case of {want}, {profile:?})"
            );
            // Clipped to each chunk's key range, a sorted list costs about
            // one lookup per value, not one per value per chunk.
            assert!(
                profile.in_probe_lookups <= 5_000 + 2 * CHUNKS as u64,
                "{layout}: {profile:?}"
            );
        }
    }
}

/// A string read from a sealed entity chunk is the dictionary's `Arc<str>`:
/// reading every string column of every row through `RowView::get` costs
/// the same at 10x the rows — nothing per read.
#[test]
fn projected_string_reads_do_not_allocate() {
    let strings = [
        schema::proc::EXE_NAME,
        schema::proc::USER,
        schema::proc::CMD,
        schema::proc::SIGNATURE,
    ];
    let read_all = |n: usize| {
        let mut t = processes_of(n, DEFAULT_CHUNK_ROWS, true);
        t.seal_tail();
        assert!(t.sealed_chunks().iter().all(|c| c.is_projected()));
        let (allocs, bytes) = allocations(|| {
            let mut bytes = 0;
            for row in t.iter_rows() {
                for &col in &strings {
                    if let Value::Str(s) = row.get(col) {
                        bytes += s.len();
                    }
                }
            }
            bytes
        });
        assert!(bytes >= n * 13, "every exe name read: {bytes}");
        allocs
    };
    let (small, large) = (read_all(ROWS / 10), read_all(ROWS));
    assert!(
        large <= small + 8,
        "{small} allocations for {} rows, {large} for {ROWS}",
        ROWS / 10
    );
}
