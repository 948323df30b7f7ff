//! One declaration per metric: the [`metrics!`](crate::metrics) macro and
//! the check that holds `docs/METRICS.md` to it.
//!
//! A layer declares each of its metrics once — field, kind, registry name,
//! unit and meaning. The macro turns that into the layer's handle struct
//! (the meaning is the field's rustdoc), its `OnceLock` accessor, and a
//! unit test that reads the catalogue and fails on any drift between the
//! two: a missing, duplicated or different row, or a row under the layer's
//! `aiql_<layer>_` prefix that nothing declares.

use crate::{Counter, Gauge, Histogram, Registry};

/// A metric kind a [`metrics!`](crate::metrics) entry can name: how its
/// handle is resolved and how the catalogue's Type column spells it.
pub trait Instrument {
    /// The Type column's spelling.
    const KIND: &'static str;
    /// The handle named `name` in `registry`.
    fn resolve(registry: &'static Registry, name: &'static str) -> Self;
}

impl Instrument for Counter {
    const KIND: &'static str = "counter";
    fn resolve(registry: &'static Registry, name: &'static str) -> Counter {
        registry.counter(name)
    }
}

impl Instrument for Gauge {
    const KIND: &'static str = "gauge";
    fn resolve(registry: &'static Registry, name: &'static str) -> Gauge {
        registry.gauge(name)
    }
}

impl Instrument for Histogram {
    const KIND: &'static str = "histogram";
    fn resolve(registry: &'static Registry, name: &'static str) -> Histogram {
        registry.histogram(name)
    }
}

/// A family of counters with one member per key, declared under a name
/// ending in a `<key>` placeholder (`aiql_server_tenant_executes_total_<tenant>`):
/// a member's counter is named by the text before the placeholder followed
/// by the key.
#[derive(Debug, Clone, Copy)]
pub struct CounterFamily {
    registry: &'static Registry,
    stem: &'static str,
}

impl Instrument for CounterFamily {
    const KIND: &'static str = "counter";
    fn resolve(registry: &'static Registry, name: &'static str) -> CounterFamily {
        let (stem, _) = name
            .split_once('<')
            .unwrap_or_else(|| panic!("counter family `{name}` has no `<key>` placeholder"));
        CounterFamily { registry, stem }
    }
}

impl CounterFamily {
    /// The member counter for `key` — a by-name registry lookup, so callers
    /// on a hot path resolve it once per key.
    pub fn member(&self, key: &str) -> Counter {
        self.registry.counter(&format!("{}{key}", self.stem))
    }
}

/// One declared metric as the catalogue must show it.
#[derive(Debug, Clone, Copy)]
pub struct Declared {
    pub name: &'static str,
    pub kind: &'static str,
    pub unit: &'static str,
    pub meaning: &'static str,
}

/// Checks the metrics catalogue `doc` (the text of `docs/METRICS.md`)
/// against one layer's declarations: every declared name has exactly one
/// table row, whose Type, Unit and Meaning cells equal the declaration, and
/// every row whose name starts with `prefix` is declared. Returns one line
/// per mismatch; empty means the two agree.
pub fn check_catalogue(doc: &str, prefix: &str, declared: &[Declared]) -> Vec<String> {
    // A metric row: `| `name` | type | unit | meaning | regression means |`.
    let rows: Vec<Vec<&str>> = doc
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("| `"))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(str::trim)
                .collect::<Vec<_>>()
        })
        .collect();
    let name_of = |row: &Vec<&str>| row[0].trim_matches('`').to_string();
    let mut problems = Vec::new();
    for d in declared {
        let found: Vec<&Vec<&str>> = rows.iter().filter(|r| name_of(r) == d.name).collect();
        let [row] = found.as_slice() else {
            problems.push(format!("`{}`: {} rows, expected 1", d.name, found.len()));
            continue;
        };
        for (column, cell, want) in [
            ("Type", 1, d.kind),
            ("Unit", 2, d.unit),
            ("Meaning", 3, d.meaning),
        ] {
            let got = row.get(cell).copied().unwrap_or("");
            if got != want {
                problems.push(format!(
                    "`{}` {column}: the catalogue says {got:?}, the declaration {want:?}",
                    d.name
                ));
            }
        }
    }
    for row in &rows {
        let name = name_of(row);
        if name.starts_with(prefix) && !declared.iter().any(|d| d.name == name) {
            problems.push(format!("`{name}`: catalogued but not declared"));
        }
    }
    problems
}

/// Declares a layer's metrics once each and expands to the layer's handle
/// struct, its accessor and a catalogue check.
///
/// ```text
/// aiql_telemetry::metrics! {
///     /// The WAL's handles into the process-wide registry.
///     pub(crate) struct WalMetrics via metrics(), prefix "aiql_wal_";
///
///     appends: Counter("aiql_wal_appends_total", "records", "Records handed to `write(2)`"),
///     fsync_micros: Histogram("aiql_wal_fsync_micros", "µs", "Latency of one `sync_data`"),
/// }
/// ```
///
/// Each entry is `field: Kind(name, unit, meaning)`, `Kind` one of the
/// [`Instrument`]s (`Counter`, `Gauge`, `Histogram`, `CounterFamily`). It
/// expands to:
///
/// - the struct, one public field per entry, the meaning as its rustdoc;
/// - the accessor: a `OnceLock` resolved against [`global`](crate::global)
///   on first use, so recording is a field load and an atomic, with no
///   by-name lookup;
/// - a `#[cfg(test)]` test reading `docs/METRICS.md` (two directories above
///   the invoking crate's manifest) and failing on any mismatch
///   [`check_catalogue`] reports under `prefix`.
#[macro_export]
macro_rules! metrics {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Handles:ident via $accessor:ident(), prefix $prefix:literal;
        $( $field:ident : $kind:ident ( $name:literal, $unit:literal, $meaning:literal ) ),+ $(,)?
    ) => {
        $(#[$meta])*
        $vis struct $Handles {
            $( #[doc = $meaning] pub $field: $crate::$kind, )+
        }

        $vis fn $accessor() -> &'static $Handles {
            static HANDLES: ::std::sync::OnceLock<$Handles> = ::std::sync::OnceLock::new();
            HANDLES.get_or_init(|| {
                let registry = $crate::global();
                $Handles {
                    $( $field: <$crate::$kind as $crate::Instrument>::resolve(registry, $name), )+
                }
            })
        }

        #[cfg(test)]
        #[test]
        fn declared_metrics_match_the_catalogue() {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/METRICS.md");
            let doc = ::std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("read {path}: {e}"));
            let declared = [
                $( $crate::Declared {
                    name: $name,
                    kind: <$crate::$kind as $crate::Instrument>::KIND,
                    unit: $unit,
                    meaning: $meaning,
                }, )+
            ];
            let problems = $crate::check_catalogue(&doc, $prefix, &declared);
            assert!(
                problems.is_empty(),
                "docs/METRICS.md disagrees with the `metrics!` declarations:\n{}",
                problems.join("\n")
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "\
| Metric | Type | Unit | Meaning | Regression means |
| --- | --- | --- | --- | --- |
| `aiql_x_ops_total` | counter | ops | Operations run | — |
| `aiql_x_wait_micros` | histogram | µs | Time waited | Slower |
| `aiql_y_other_total` | counter | ops | Another layer's | — |
";

    fn decl(
        name: &'static str,
        kind: &'static str,
        unit: &'static str,
        meaning: &'static str,
    ) -> Declared {
        Declared {
            name,
            kind,
            unit,
            meaning,
        }
    }

    #[test]
    fn matching_declarations_pass() {
        let d = [
            decl("aiql_x_ops_total", "counter", "ops", "Operations run"),
            decl("aiql_x_wait_micros", "histogram", "µs", "Time waited"),
        ];
        assert_eq!(check_catalogue(DOC, "aiql_x_", &d), Vec::<String>::new());
    }

    #[test]
    fn every_kind_of_drift_is_reported() {
        let d = [
            decl("aiql_x_ops_total", "gauge", "ops", "Operations run"),
            decl("aiql_x_gone_total", "counter", "ops", "Not catalogued"),
        ];
        let problems = check_catalogue(DOC, "aiql_x_", &d);
        assert_eq!(problems.len(), 3, "{problems:#?}");
        assert!(problems[0].contains("aiql_x_ops_total` Type"));
        assert!(problems[1].contains("aiql_x_gone_total`: 0 rows"));
        assert!(problems[2].contains("aiql_x_wait_micros`: catalogued but not declared"));
        let doubled = format!("{DOC}| `aiql_x_ops_total` | counter | ops | Operations run | — |\n");
        let d = [decl("aiql_x_ops_total", "counter", "ops", "Operations run")];
        let problems = check_catalogue(&doubled, "aiql_x_ops", &d);
        assert_eq!(
            problems,
            vec!["`aiql_x_ops_total`: 2 rows, expected 1".to_string()]
        );
    }

    #[test]
    fn a_family_resolves_members_by_key() {
        let registry = Box::leak(Box::new(Registry::new()));
        let family = CounterFamily::resolve(registry, "aiql_x_runs_total_<key>");
        family.member("a").add(2);
        family.member("a").inc();
        assert_eq!(registry.snapshot().counter("aiql_x_runs_total_a"), Some(3));
    }
}
