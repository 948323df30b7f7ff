//! System entities: files, processes, and network connections (paper Table 1).

use crate::ids::{AgentId, EntityId};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The three entity kinds of the AIQL data model.
///
/// Existing provenance work (and the paper, Sec. 3.1) observes that on modern
/// operating systems the security-relevant system resources are files,
/// processes, and network connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EntityKind {
    File,
    Process,
    NetConn,
}

impl EntityKind {
    /// The AIQL keyword for this kind (`file`, `proc`, `ip`).
    pub fn keyword(self) -> &'static str {
        match self {
            EntityKind::File => "file",
            EntityKind::Process => "proc",
            EntityKind::NetConn => "ip",
        }
    }

    /// Parses an AIQL entity-type keyword.
    pub fn parse_keyword(s: &str) -> Option<EntityKind> {
        Some(match s.to_ascii_lowercase().as_str() {
            "file" => EntityKind::File,
            "proc" | "process" => EntityKind::Process,
            "ip" | "conn" | "connection" => EntityKind::NetConn,
            _ => return None,
        })
    }
}

impl fmt::Display for EntityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Attribute name → value map; ordered for deterministic iteration.
pub type AttrMap = BTreeMap<String, Value>;

/// A system entity with its security-related attributes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entity {
    /// Globally unique identifier.
    pub id: EntityId,
    /// Host the entity was observed on.
    pub agent: AgentId,
    /// File, process, or network connection.
    pub kind: EntityKind,
    /// Attribute map (see [`crate::schema`] for per-kind attribute names).
    pub attrs: AttrMap,
}

impl Entity {
    /// Creates an entity with an empty attribute map.
    pub fn new(id: EntityId, agent: AgentId, kind: EntityKind) -> Entity {
        Entity {
            id,
            agent,
            kind,
            attrs: AttrMap::new(),
        }
    }

    /// Convenience constructor for a file entity with a path name.
    pub fn file(id: EntityId, agent: AgentId, name: impl Into<String>) -> Entity {
        let mut e = Entity::new(id, agent, EntityKind::File);
        e.attrs.insert("name".into(), Value::from(name.into()));
        e
    }

    /// Convenience constructor for a process entity with an executable name
    /// and PID.
    pub fn process(id: EntityId, agent: AgentId, exe: impl Into<String>, pid: i64) -> Entity {
        let mut e = Entity::new(id, agent, EntityKind::Process);
        e.attrs.insert("exe_name".into(), Value::from(exe.into()));
        e.attrs.insert("pid".into(), Value::Int(pid));
        e
    }

    /// Convenience constructor for a network-connection entity.
    pub fn netconn(
        id: EntityId,
        agent: AgentId,
        src_ip: impl Into<String>,
        src_port: i64,
        dst_ip: impl Into<String>,
        dst_port: i64,
    ) -> Entity {
        let mut e = Entity::new(id, agent, EntityKind::NetConn);
        e.attrs.insert("src_ip".into(), Value::from(src_ip.into()));
        e.attrs.insert("src_port".into(), Value::Int(src_port));
        e.attrs.insert("dst_ip".into(), Value::from(dst_ip.into()));
        e.attrs.insert("dst_port".into(), Value::Int(dst_port));
        e.attrs.insert("protocol".into(), Value::str("tcp"));
        e
    }

    /// Sets an attribute, builder style.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<Value>) -> Entity {
        self.attrs.insert(name.into(), value.into());
        self
    }

    /// Looks up an attribute; `id` and `agentid` resolve to the built-in
    /// identifier fields, everything else to the attribute map.
    pub fn attr(&self, name: &str) -> Value {
        match name {
            "id" => Value::Int(self.id.0 as i64),
            "agentid" => Value::Int(self.agent.0 as i64),
            _ => self.attrs.get(name).cloned().unwrap_or(Value::Null),
        }
    }

    /// The default attribute used by AIQL's context-aware inference: `name`
    /// for files, `exe_name` for processes, `dst_ip` for connections.
    pub fn default_attr(&self) -> Value {
        self.attr(crate::schema::default_attr(self.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for k in [EntityKind::File, EntityKind::Process, EntityKind::NetConn] {
            assert_eq!(EntityKind::parse_keyword(k.keyword()), Some(k));
        }
        assert_eq!(
            EntityKind::parse_keyword("process"),
            Some(EntityKind::Process)
        );
        assert_eq!(EntityKind::parse_keyword("socket"), None);
    }

    #[test]
    fn constructors_populate_attrs() {
        let f = Entity::file(1.into(), AgentId(9), "/etc/passwd");
        assert_eq!(f.attr("name"), Value::str("/etc/passwd"));
        assert_eq!(f.attr("agentid"), Value::Int(9));
        assert_eq!(f.attr("id"), Value::Int(1));
        assert_eq!(f.attr("nonexistent"), Value::Null);

        let p = Entity::process(2.into(), AgentId(9), "bash", 42);
        assert_eq!(p.attr("exe_name"), Value::str("bash"));
        assert_eq!(p.attr("pid"), Value::Int(42));

        let c = Entity::netconn(3.into(), AgentId(9), "10.0.0.1", 5000, "10.0.0.2", 80);
        assert_eq!(c.attr("dst_ip"), Value::str("10.0.0.2"));
        assert_eq!(c.attr("dst_port"), Value::Int(80));
    }

    #[test]
    fn default_attr_per_kind() {
        let f = Entity::file(1.into(), AgentId(1), "x");
        let p = Entity::process(2.into(), AgentId(1), "y", 1);
        let c = Entity::netconn(3.into(), AgentId(1), "a", 1, "b", 2);
        assert_eq!(f.default_attr(), Value::str("x"));
        assert_eq!(p.default_attr(), Value::str("y"));
        assert_eq!(c.default_attr(), Value::str("b"));
    }

    #[test]
    fn with_attr_builder() {
        let p = Entity::process(1.into(), AgentId(1), "svc", 7)
            .with_attr("user", "SYSTEM")
            .with_attr("signed", true);
        assert_eq!(p.attr("user"), Value::str("SYSTEM"));
        assert_eq!(p.attr("signed"), Value::Bool(true));
    }
}
