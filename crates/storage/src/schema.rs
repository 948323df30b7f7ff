//! Relational schema of the event store, with column-position constants and
//! the AIQL-attribute → column mapping.
//!
//! Four tables hold the monitoring data (paper Sec. 3.2): one `events` table
//! (all integer columns — operation types and entity kinds are stored as
//! codes) and one table per entity kind carrying the paper's Table 1
//! attributes. The frequently-queried attributes get secondary indexes:
//! process executable name, file name, connection destination IP, plus the
//! join keys the engine's constrained execution probes.

use crate::StoreConfig;
use aiql_model::{EntityKind, OpType, SharedDict};
use aiql_rdb::{ColumnType, ColumnarSpec, Layout, PartitionSpec, Schema};

/// Table name constants.
pub const EVENTS: &str = "events";
pub const PROCESSES: &str = "processes";
pub const FILES: &str = "files";
pub const NETCONNS: &str = "netconns";

/// Column positions in the `events` table.
pub mod ev {
    pub const ID: usize = 0;
    pub const AGENT: usize = 1;
    pub const OPTYPE: usize = 2;
    pub const SUBJECT: usize = 3;
    pub const OBJECT: usize = 4;
    pub const OBJKIND: usize = 5;
    pub const START: usize = 6;
    pub const END: usize = 7;
    pub const SEQ: usize = 8;
    pub const AMOUNT: usize = 9;
    pub const FAILURE: usize = 10;
    /// Number of columns.
    pub const WIDTH: usize = 11;
}

/// Column positions in the `processes` table.
pub mod proc {
    pub const ID: usize = 0;
    pub const AGENT: usize = 1;
    pub const PID: usize = 2;
    pub const EXE_NAME: usize = 3;
    pub const USER: usize = 4;
    pub const CMD: usize = 5;
    pub const SIGNATURE: usize = 6;
    pub const WIDTH: usize = 7;
}

/// Column positions in the `files` table.
pub mod file {
    pub const ID: usize = 0;
    pub const AGENT: usize = 1;
    pub const NAME: usize = 2;
    pub const OWNER: usize = 3;
    pub const GRP: usize = 4;
    pub const VOL_ID: usize = 5;
    pub const DATA_ID: usize = 6;
    pub const WIDTH: usize = 7;
}

/// Column positions in the `netconns` table.
pub mod net {
    pub const ID: usize = 0;
    pub const AGENT: usize = 1;
    pub const SRC_IP: usize = 2;
    pub const SRC_PORT: usize = 3;
    pub const DST_IP: usize = 4;
    pub const DST_PORT: usize = 5;
    pub const PROTOCOL: usize = 6;
    pub const WIDTH: usize = 7;
}

/// The `events` table schema.
pub fn events_schema() -> Schema {
    Schema::new(&[
        ("id", ColumnType::Int),
        ("agentid", ColumnType::Int),
        ("optype", ColumnType::Int),
        ("subject_id", ColumnType::Int),
        ("object_id", ColumnType::Int),
        ("object_kind", ColumnType::Int),
        ("start_time", ColumnType::Int),
        ("end_time", ColumnType::Int),
        ("seq", ColumnType::Int),
        ("amount", ColumnType::Int),
        ("failure", ColumnType::Int),
    ])
}

/// The `processes` table schema.
pub fn processes_schema() -> Schema {
    Schema::new(&[
        ("id", ColumnType::Int),
        ("agentid", ColumnType::Int),
        ("pid", ColumnType::Int),
        ("exe_name", ColumnType::Str),
        ("user", ColumnType::Str),
        ("cmd", ColumnType::Str),
        ("signature", ColumnType::Str),
    ])
}

/// The `files` table schema.
pub fn files_schema() -> Schema {
    Schema::new(&[
        ("id", ColumnType::Int),
        ("agentid", ColumnType::Int),
        ("name", ColumnType::Str),
        ("owner", ColumnType::Str),
        ("grp", ColumnType::Str),
        ("vol_id", ColumnType::Int),
        ("data_id", ColumnType::Int),
    ])
}

/// The `netconns` table schema.
pub fn netconns_schema() -> Schema {
    Schema::new(&[
        ("id", ColumnType::Int),
        ("agentid", ColumnType::Int),
        ("src_ip", ColumnType::Str),
        ("src_port", ColumnType::Int),
        ("dst_ip", ColumnType::Str),
        ("dst_port", ColumnType::Int),
        ("protocol", ColumnType::Str),
    ])
}

/// The entity table for a kind.
pub fn entity_table(kind: EntityKind) -> &'static str {
    match kind {
        EntityKind::File => FILES,
        EntityKind::Process => PROCESSES,
        EntityKind::NetConn => NETCONNS,
    }
}

/// Maps an AIQL attribute name to its storage column name (identity except
/// `group` → `grp`, which would collide with the SQL keyword).
pub fn column_for_attr(attr: &str) -> &str {
    match attr {
        "group" => "grp",
        other => other,
    }
}

/// Integer code of an operation type: the log's
/// ([`aiql_model::codec::op_code`], its position in `ALL_OPS`).
pub fn opcode(op: OpType) -> i64 {
    aiql_model::codec::op_code(op) as i64
}

/// Integer code of an entity kind: the log's
/// ([`aiql_model::codec::kind_code`]).
pub fn kind_code(kind: EntityKind) -> i64 {
    aiql_model::codec::kind_code(kind) as i64
}

/// The columns that receive secondary indexes, per table.
pub fn index_plan() -> Vec<(&'static str, &'static str)> {
    vec![
        (PROCESSES, "id"),
        (PROCESSES, "exe_name"),
        (FILES, "id"),
        (FILES, "name"),
        (NETCONNS, "id"),
        (NETCONNS, "dst_ip"),
        (EVENTS, "subject_id"),
        (EVENTS, "object_id"),
    ]
}

/// The store's tables in their fixed order, which is also a snapshot's.
pub const TABLES: [&str; 4] = [EVENTS, PROCESSES, FILES, NETCONNS];

/// One of the store's tables, declared once: what a fresh store creates
/// and what a snapshot load reads back into.
#[derive(Debug)]
pub struct TableDecl {
    pub name: &'static str,
    pub schema: Schema,
    /// `events` is partitioned by `(day, agent group)`; the entity tables
    /// are plain.
    pub partitioning: Option<PartitionSpec>,
    /// The table's [`index_plan`] indexes and, in a columnar store, its
    /// projection.
    pub layout: Layout,
}

/// The store's tables, in [`TABLES`] order, as `config` lays them out, a
/// projection's strings interned into `dict`.
///
/// With [`StoreConfig::columnar`] every table projects every column, so
/// each sealed chunk keeps its columns and no rows. Events (all `Int`) are
/// kept sorted on `start_time` so window scans binary-search instead of
/// filtering; entity tables keep arrival order, their strings (exe names,
/// paths, IPs) interned into the shared dictionary.
pub fn tables(config: StoreConfig, dict: &SharedDict) -> [TableDecl; 4] {
    TABLES.map(|name| {
        let indexes = (index_plan().into_iter())
            .filter(|(t, _)| *t == name)
            .map(|(_, c)| c.to_string())
            .collect();
        let g = config.agent_group_size;
        let (schema, partitioning, projection) = match name {
            EVENTS => (
                events_schema(),
                Some(PartitionSpec::new("start_time", "agentid", g)),
                ColumnarSpec::time_sorted("start_time"),
            ),
            PROCESSES => (processes_schema(), None, ColumnarSpec::all()),
            FILES => (files_schema(), None, ColumnarSpec::all()),
            _ => (netconns_schema(), None, ColumnarSpec::all()),
        };
        TableDecl {
            name,
            schema,
            partitioning,
            layout: Layout {
                indexes,
                columnar: config.columnar.then(|| (projection, dict.clone())),
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::codec;
    use aiql_model::event::ALL_OPS;

    #[test]
    fn op_codes_round_trip() {
        for op in ALL_OPS {
            assert_eq!(codec::op_from_code(opcode(op) as u8), Some(op));
        }
    }

    #[test]
    fn kind_codes_round_trip() {
        for k in [EntityKind::File, EntityKind::Process, EntityKind::NetConn] {
            assert_eq!(codec::kind_from_code(kind_code(k) as u8), Some(k));
        }
    }

    #[test]
    fn schema_positions_match_constants() {
        let e = events_schema();
        assert_eq!(e.position("start_time"), Some(ev::START));
        assert_eq!(e.position("failure"), Some(ev::FAILURE));
        assert_eq!(e.arity(), ev::WIDTH);
        let p = processes_schema();
        assert_eq!(p.position("exe_name"), Some(proc::EXE_NAME));
        assert_eq!(p.arity(), proc::WIDTH);
        let f = files_schema();
        assert_eq!(f.position("grp"), Some(file::GRP));
        assert_eq!(f.arity(), file::WIDTH);
        let n = netconns_schema();
        assert_eq!(n.position("dst_ip"), Some(net::DST_IP));
        assert_eq!(n.arity(), net::WIDTH);
    }

    #[test]
    fn attr_mapping() {
        assert_eq!(column_for_attr("group"), "grp");
        assert_eq!(column_for_attr("exe_name"), "exe_name");
    }

    #[test]
    fn entity_table_names() {
        assert_eq!(entity_table(EntityKind::File), FILES);
        assert_eq!(entity_table(EntityKind::Process), PROCESSES);
        assert_eq!(entity_table(EntityKind::NetConn), NETCONNS);
    }
}
