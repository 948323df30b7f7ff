//! Allocation guard for prepared scan predicates: a `LIKE` or `IN` scan
//! allocates per table and per chunk, never per row.
//!
//! This is the regression test a timing assertion would be, without the
//! timing: the matcher this guards against made six heap allocations per
//! row (lower-casing text and pattern, collecting both into vectors), and
//! nothing about the sandbox's pace can hide or fake that. The binary
//! installs a counting global allocator, so it holds only these tests;
//! counts are per thread, so they may run in parallel.

use aiql::model::{AgentId, Entity};
use aiql::rdb::{
    AccessPath, ColumnarSpec, Expr, ScanProfile, SharedDict, Table, Value, DEFAULT_CHUNK_ROWS,
};
use aiql::storage::{entity_row, schema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const ROWS: usize = 20_000;

/// A `processes` table of [`ROWS`] rows in the store's entity layout,
/// indexed like the store's (`id`, `exe_name`). A handful of distinct,
/// mixed-case executable names, one of them outside ASCII, and a NULL
/// `user` on every third row.
fn processes(chunk_rows: usize, columnar: bool) -> Table {
    let names = [
        "C:\\Windows\\System32\\cmd.exe",
        "C:\\Windows\\System32\\svchost.exe",
        "/usr/bin/bash",
        "C:\\Program Files\\SQL\\OSQL.EXE",
        "C:\\Users\\zoë\\naïve.exe",
    ];
    let mut t = Table::with_chunk_rows(schema::processes_schema(), chunk_rows);
    t.create_index("id").unwrap();
    t.create_index("exe_name").unwrap();
    if columnar {
        t.enable_columnar(&ColumnarSpec::all(), SharedDict::new())
            .unwrap();
    }
    for i in 0..ROWS as u64 {
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
