//! The PostgreSQL-style baseline: one big semantics-agnostic SQL join.

use crate::{query_ctx, BaselineError, ExecCtx, ExecStats, Rows};
use aiql_core::QueryContext;
use aiql_model::Dataset;
use aiql_rdb::{Database, RdbError};
use aiql_storage::{entity_row, event_row, schema};
use aiql_translate::sql::to_sql;
use std::time::Instant;

/// Loads a dataset the way the end-to-end study stores it for PostgreSQL:
/// the event store's tables unpartitioned, with its secondary indexes (the
/// paper gives the baselines identical schema and index designs), entities
/// then events in dataset order, every tail sealed.
pub fn load(data: &Dataset) -> Result<Database, RdbError> {
    let mut db = Database::new();
    crate::create_store_tables(&mut db, false)?;
    for e in &data.entities {
        db.insert(schema::entity_table(e.kind), entity_row(e))?;
    }
    for ev in &data.events {
        db.insert(schema::EVENTS, event_row(ev).to_vec())?;
    }
    db.seal_tails();
    Ok(db)
}

/// Executes the query context as a single big SQL join against `db` — the
/// baseline's own database ([`load`]) or AIQL's partition-optimized store's
/// (`EventStore::db`). `deadline` bounds execution, modelling the paper's
/// one-hour budget.
pub fn run(
    db: &Database,
    ctx: &QueryContext,
    deadline: Option<Instant>,
) -> Result<(Rows, ExecStats), BaselineError> {
    let sql = to_sql(ctx)?;
    let mut ectx = ExecCtx::with_deadline(deadline);
    let rs = query_ctx(db, &sql, &mut ectx)?;
    let mut rows = rs.rows;
    // AIQL's `return count` wraps the row set; mirror it for differential
    // comparison.
    if ctx.ret.count {
        rows = vec![vec![aiql_rdb::Value::Int(rows.len() as i64)]];
    }
    Ok((rows, ectx.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::compile;
    use aiql_datagen::EnterpriseSim;
    use aiql_model::{AgentId, Entity, EntityKind, Event, OpType, Timestamp};

    #[test]
    fn finds_the_planted_chain() {
        let data = EnterpriseSim::builder()
            .hosts(10)
            .days(2)
            .seed(5)
            .events_per_host_per_day(300)
            .build()
            .generate();
        let db = load(&data).unwrap();
        let ctx = compile(
            r#"
            (at "01/02/2017")
            agentid = 9
            proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
            proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
            with evt1 before evt2
            return distinct p1, p2, p3, f1
            "#,
        )
        .unwrap();
        let (rows, stats) = run(&db, &ctx, None).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0][3],
            aiql_rdb::Value::str("C:\\MSSQL\\data\\BACKUP1.DMP")
        );
        assert!(stats.rows_scanned > 0);
    }

    #[test]
    fn anomaly_is_untranslatable() {
        let data = EnterpriseSim::builder()
            .hosts(2)
            .days(1)
            .events_per_host_per_day(10)
            .build()
            .generate();
        let db = load(&data).unwrap();
        let ctx = compile(
            "window = 1 min step = 10 sec proc p read ip i \
             return p, count(distinct i) as freq group by p having freq > freq[1]",
        )
        .unwrap();
        assert!(matches!(
            run(&db, &ctx, None),
            Err(BaselineError::Untranslatable(_))
        ));
    }

    #[test]
    fn sql_joins_work_over_the_store() {
        // Four agents, each with a process, a file and a connection to
        // 10.0.0.99; the process writes or reads the file four times and
        // talks to the connection once.
        let mut d = Dataset::new();
        for agent in 0..4u32 {
            let a = AgentId(agent);
            let base = (agent as u64 + 1) * 100;
            let p = d.add_entity(Entity::process(
                (base + 1).into(),
                a,
                format!("proc{agent}"),
                10,
            ));
            let f = d.add_entity(Entity::file((base + 2).into(), a, format!("/tmp/f{agent}")));
            let c = d.add_entity(Entity::netconn(
                (base + 3).into(),
                a,
                "10.0.0.1",
                1000,
                "10.0.0.99",
                443,
            ));
            for i in 0..5u64 {
                let t = Timestamp::from_ymd(2017, 1, 1 + (i as u32 % 2)).unwrap();
                d.add_event(Event::new(
                    (base + 10 + i).into(),
                    a,
                    p,
                    if i % 2 == 0 {
                        OpType::Write
                    } else {
                        OpType::Read
                    },
                    if i == 4 { c } else { f },
                    if i == 4 {
                        EntityKind::NetConn
                    } else {
                        EntityKind::File
                    },
                    Timestamp(t.0 + i as i64 * 1_000),
                ));
            }
        }
        let rs = crate::query(
            &load(&d).unwrap(),
            "SELECT DISTINCT p.exe_name FROM events e JOIN processes p \
             ON e.subject_id = p.id JOIN netconns n ON e.object_id = n.id \
             WHERE n.dst_ip = '10.0.0.99' ORDER BY p.exe_name",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 4, "every agent's proc talked to .99");
    }
}
