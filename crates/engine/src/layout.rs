//! The match layout and field resolution.
//!
//! Executing one event pattern produces its *matches*, column by column:
//! match `m` is three row references into the store — the event, its
//! subject process and its object entity — plus the event's start time,
//! read once as an integer. No value is built when a match is made; a
//! field is read through its reference when a relationship, a scheduler
//! bound or a returned value needs it. The events table is all `Int`, and
//! a string read from an entity table is the dictionary's `Arc<str>`, so a
//! read copies no string.

use aiql_core::{AiqlError, FieldRef, FieldTarget};
use aiql_model::EntityKind;
use aiql_rdb::{ColumnType, RowView, Schema, Value};
use aiql_storage::schema;
use std::sync::OnceLock;

/// A field reference resolved against its pattern: the row it lives in,
/// its column there, and whether that column is typed `Int` (read without
/// building a value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    pub target: FieldTarget,
    pub col: usize,
    pub int: bool,
}

impl Field {
    /// Resolves `f`, given the pattern's object entity kind.
    pub fn resolve(f: &FieldRef, object_kind: EntityKind) -> Result<Field, AiqlError> {
        static SCHEMAS: OnceLock<[Schema; 4]> = OnceLock::new();
        let [events, procs, files, nets] = SCHEMAS.get_or_init(|| {
            [
                schema::events_schema(),
                schema::processes_schema(),
                schema::files_schema(),
                schema::netconns_schema(),
            ]
        });
        let table = match (f.target, object_kind) {
            (FieldTarget::Event, _) => events,
            (FieldTarget::Subject, _) | (FieldTarget::Object, EntityKind::Process) => procs,
            (FieldTarget::Object, EntityKind::File) => files,
            (FieldTarget::Object, EntityKind::NetConn) => nets,
        };
        let col = table
            .position(schema::column_for_attr(&f.attr))
            .ok_or_else(|| AiqlError::new(format!("unresolvable attribute `{}`", f.attr)))?;
        Ok(Field {
            target: f.target,
            col,
            int: table.column_type(col) == ColumnType::Int,
        })
    }
}

/// One pattern's matches: `events[m]`, `subjects[m]` and `objects[m]` are
/// match `m`'s rows, `start[m]` its event's start time.
#[derive(Debug, Default, PartialEq)]
pub struct PatternMatches<'a> {
    pub events: Vec<RowView<'a>>,
    pub subjects: Vec<RowView<'a>>,
    pub objects: Vec<RowView<'a>>,
    pub start: Vec<i64>,
}

impl<'a> PatternMatches<'a> {
    /// Room for `n` matches.
    pub fn with_capacity(n: usize) -> Self {
        PatternMatches {
            events: Vec::with_capacity(n),
            subjects: Vec::with_capacity(n),
            objects: Vec::with_capacity(n),
            start: Vec::with_capacity(n),
        }
    }

    /// Appends one match.
    pub fn push(&mut self, event: RowView<'a>, subject: RowView<'a>, object: RowView<'a>) {
        self.start.push(event.int(schema::ev::START).unwrap_or(0));
        self.events.push(event);
        self.subjects.push(subject);
        self.objects.push(object);
    }

    /// Number of matches.
    pub fn len(&self) -> usize {
        self.start.len()
    }

    fn row(&self, m: u32, target: FieldTarget) -> RowView<'a> {
        let rows = match target {
            FieldTarget::Event => &self.events,
            FieldTarget::Subject => &self.subjects,
            FieldTarget::Object => &self.objects,
        };
        rows[m as usize]
    }

    /// Match `m`'s value of `f`.
    pub fn get(&self, m: u32, f: Field) -> Value {
        self.row(m, f.target).get(f.col)
    }

    /// Match `m`'s value of the `Int` field `f` (`None` for NULL).
    pub fn int(&self, m: u32, f: Field) -> Option<i64> {
        self.row(m, f.target).int(f.col)
    }

    /// Reorders the matches by start time; ties keep their order.
    pub fn sort_by_start(&mut self) {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by_key(|&m| self.start[m as usize]);
        let pick = |rows: &[RowView<'a>]| order.iter().map(|&m| rows[m as usize]).collect();
        *self = PatternMatches {
            events: pick(&self.events),
            subjects: pick(&self.subjects),
            objects: pick(&self.objects),
            start: order.iter().map(|&m| self.start[m as usize]).collect(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_resolution() {
        let resolve = |target, attr: &str, kind| {
            let f = FieldRef {
                pattern: 0,
                target,
                attr: attr.into(),
            };
            Field::resolve(&f, kind).map(|f| (f.target, f.col, f.int))
        };
        assert_eq!(
            resolve(FieldTarget::Subject, "exe_name", EntityKind::File).unwrap(),
            (FieldTarget::Subject, schema::proc::EXE_NAME, false)
        );
        assert_eq!(
            resolve(FieldTarget::Object, "name", EntityKind::File).unwrap(),
            (FieldTarget::Object, schema::file::NAME, false)
        );
        assert_eq!(
            resolve(FieldTarget::Object, "dst_ip", EntityKind::NetConn).unwrap(),
            (FieldTarget::Object, schema::net::DST_IP, false)
        );
        assert_eq!(
            resolve(FieldTarget::Event, "amount", EntityKind::File).unwrap(),
            (FieldTarget::Event, schema::ev::AMOUNT, true)
        );
        assert_eq!(
            resolve(FieldTarget::Subject, "pid", EntityKind::File).unwrap(),
            (FieldTarget::Subject, schema::proc::PID, true)
        );
        // `group` maps to the `grp` column.
        assert_eq!(
            resolve(FieldTarget::Object, "group", EntityKind::File).unwrap(),
            (FieldTarget::Object, schema::file::GRP, false)
        );
        assert!(resolve(FieldTarget::Object, "name", EntityKind::NetConn).is_err());
    }
}
