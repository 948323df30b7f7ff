//! Data model for system monitoring data, following the AIQL paper (Sec. 3.1).
//!
//! System monitoring data records interactions among system resources as
//! *events*. Each event is a ⟨subject, operation, object⟩ triple: the subject
//! is a process, the object is a file, a process, or a network connection, and
//! the operation is a system-call-level interaction such as a file write or a
//! process start. Every entity and event carries the security-relevant
//! attributes of the paper's Tables 1 and 2, and every event is stamped with
//! the host (*agent*) it was observed on and its start/end time — the spatial
//! and temporal properties the storage layer and query engine exploit.
//!
//! # Examples
//!
//! ```
//! use aiql_model::{AgentId, Entity, EntityKind, Event, OpType, Timestamp};
//!
//! let agent = AgentId(1);
//! let proc_ = Entity::process(1.into(), agent, "/usr/bin/bash", 1234);
//! let file = Entity::file(2.into(), agent, "/home/alice/.bash_history");
//! let evt = Event::new(
//!     1.into(),
//!     agent,
//!     proc_.id,
//!     OpType::Read,
//!     file.id,
//!     EntityKind::File,
//!     Timestamp::from_ymd_hms(2017, 1, 1, 10, 0, 0).unwrap(),
//! );
//! assert_eq!(evt.category(), aiql_model::EventCategory::File);
//! ```

pub mod codec;
pub mod dataset;
pub mod dict;
pub mod entity;
pub mod event;
pub mod ids;
pub mod schema;
pub mod time;
pub mod value;

pub use dataset::Dataset;
pub use dict::{Dict, SharedDict, Sym, NULL_SYM};
pub use entity::{AttrMap, Entity, EntityKind};
pub use event::{Event, EventCategory, OpType};
pub use ids::{AgentId, EntityId, EventId};
pub use time::{Duration, TimeUnit, Timestamp};
pub use value::{LikePattern, Value};
