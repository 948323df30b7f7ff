//! The flattened match-row layout and field resolution.
//!
//! Executing one event pattern produces *match rows*: the event row joined
//! with its subject and object entity rows, flattened into a single
//! `Vec<Value>`:
//!
//! ```text
//! [ event (11 cols) | subject process (7 cols) | object entity (7 cols) ]
//! ```
//!
//! All three entity tables are 7 columns wide, so the offsets are fixed and
//! field references resolve to plain positions.

use aiql_core::{AiqlError, FieldRef, FieldTarget};
use aiql_model::EntityKind;
use aiql_rdb::{Row, RowView};
use aiql_storage::schema;

/// Offset of the event columns.
pub const EV_OFF: usize = 0;
/// Offset of the subject (process) columns.
pub const SUBJ_OFF: usize = schema::ev::WIDTH;
/// Offset of the object entity columns.
pub const OBJ_OFF: usize = SUBJ_OFF + schema::proc::WIDTH;
/// Total width of a match row.
pub const MATCH_WIDTH: usize = OBJ_OFF + 7;

/// Position of the event start time in a match row.
pub const START_COL: usize = EV_OFF + schema::ev::START;

/// Resolves a field reference to a match-row position, given the pattern's
/// object entity kind.
pub fn resolve_field(f: &FieldRef, object_kind: EntityKind) -> Result<usize, AiqlError> {
    let (off, schema_ref): (usize, &aiql_rdb::Schema) = match f.target {
        FieldTarget::Event => (EV_OFF, event_schema()),
        FieldTarget::Subject => (SUBJ_OFF, processes_schema()),
        FieldTarget::Object => (
            OBJ_OFF,
            match object_kind {
                EntityKind::Process => processes_schema(),
                EntityKind::File => files_schema(),
                EntityKind::NetConn => netconns_schema(),
            },
        ),
    };
    let col = schema::column_for_attr(&f.attr);
    schema_ref
        .position(col)
        .map(|p| off + p)
        .ok_or_else(|| AiqlError::new(format!("unresolvable attribute `{}`", f.attr)))
}

/// Builds a flattened match row, writing each stored or projected row's
/// values straight into it.
pub fn flatten(event: RowView, subject: RowView, object: RowView) -> Row {
    let mut row = Vec::with_capacity(MATCH_WIDTH);
    event.extend_into(&mut row);
    subject.extend_into(&mut row);
    object.extend_into(&mut row);
    row
}

// Cached schemas (built once per process).
macro_rules! cached_schema {
    ($name:ident, $builder:path) => {
        fn $name() -> &'static aiql_rdb::Schema {
            use std::sync::OnceLock;
            static CELL: OnceLock<aiql_rdb::Schema> = OnceLock::new();
            CELL.get_or_init($builder)
        }
    };
}

cached_schema!(event_schema, schema::events_schema);
cached_schema!(processes_schema, schema::processes_schema);
cached_schema!(files_schema, schema::files_schema);
cached_schema!(netconns_schema, schema::netconns_schema);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_offsets() {
        assert_eq!(SUBJ_OFF, 11);
        assert_eq!(OBJ_OFF, 18);
        assert_eq!(MATCH_WIDTH, 25);
        assert_eq!(START_COL, schema::ev::START);
    }

    #[test]
    fn field_resolution() {
        let f = FieldRef {
            pattern: 0,
            target: FieldTarget::Subject,
            attr: "exe_name".into(),
        };
        assert_eq!(
            resolve_field(&f, EntityKind::File).unwrap(),
            SUBJ_OFF + schema::proc::EXE_NAME
        );

        let f = FieldRef {
            pattern: 0,
            target: FieldTarget::Object,
            attr: "name".into(),
        };
        assert_eq!(
            resolve_field(&f, EntityKind::File).unwrap(),
            OBJ_OFF + schema::file::NAME
        );

        let f = FieldRef {
            pattern: 0,
            target: FieldTarget::Object,
            attr: "dst_ip".into(),
        };
        assert_eq!(
            resolve_field(&f, EntityKind::NetConn).unwrap(),
            OBJ_OFF + schema::net::DST_IP
        );

        let f = FieldRef {
            pattern: 0,
            target: FieldTarget::Event,
            attr: "amount".into(),
        };
        assert_eq!(
            resolve_field(&f, EntityKind::File).unwrap(),
            schema::ev::AMOUNT
        );

        // `group` maps to the `grp` column.
        let f = FieldRef {
            pattern: 0,
            target: FieldTarget::Object,
            attr: "group".into(),
        };
        assert_eq!(
            resolve_field(&f, EntityKind::File).unwrap(),
            OBJ_OFF + schema::file::GRP
        );

        let f = FieldRef {
            pattern: 0,
            target: FieldTarget::Object,
            attr: "name".into(),
        };
        assert!(resolve_field(&f, EntityKind::NetConn).is_err());
    }
}
