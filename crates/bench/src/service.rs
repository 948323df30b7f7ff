//! The Query-7 statement family: the paper's closed-loop analyst iterating
//! on one query — the c5 exfiltration chain with different agent /
//! time-window / process-name constants — against a live store.
//!
//! The repository benchmark (`benchmark/`) drives its serving workloads
//! with this family, in process and over the wire; `tests/server_service.rs`
//! runs it from many concurrent clients against the in-process answer.

use aiql_engine::Params;

/// The parameterized Query-7 family: the complete c5 exfiltration chain
/// with the agent, the investigation time window, and the suspected
/// process/IP constants left as placeholders.
pub const QUERY7_TEMPLATE: &str = r#"
    (from $t0 to $t1)
    agentid = $agent
    proc p1[$launcher] start proc p2[$client] as evt1
    proc p3[$server] write file f1 as evt2
    proc p4[$exfil] read file f1 as evt3
    proc p4 read || write ip i1[dstip = $ip] as evt4
    with evt1 before evt2, evt2 before evt3, evt3 before evt4
    return distinct p1, p2, p3, f1, p4, i1
"#;

/// One analyst iteration: the constants bound into the template.
#[derive(Debug, Clone)]
pub struct FamilyBinding {
    pub agent: i64,
    pub t0: String,
    pub t1: String,
    pub launcher: String,
    pub client: String,
    pub server: String,
    pub exfil: String,
    pub ip: String,
}

impl FamilyBinding {
    /// The textual-substitution form an analyst's tooling would submit
    /// instead of binding parameters.
    pub fn to_source(&self) -> String {
        QUERY7_TEMPLATE
            .replace("$t0", &format!("{:?}", self.t0))
            .replace("$t1", &format!("{:?}", self.t1))
            .replace("$agent", &self.agent.to_string())
            .replace("$launcher", &format!("{:?}", self.launcher))
            .replace("$client", &format!("{:?}", self.client))
            .replace("$server", &format!("{:?}", self.server))
            .replace("$exfil", &format!("{:?}", self.exfil))
            .replace("$ip", &format!("{:?}", self.ip))
    }

    /// The same constants as bind parameters.
    pub fn to_params(&self) -> Params {
        Params::new()
            .set("t0", self.t0.as_str())
            .set("t1", self.t1.as_str())
            .set("agent", self.agent)
            .set("launcher", self.launcher.as_str())
            .set("client", self.client.as_str())
            .set("server", self.server.as_str())
            .set("exfil", self.exfil.as_str())
            .set("ip", self.ip.as_str())
    }
}

/// The closed-loop iteration schedule: every host × hour-windows of the
/// attack day, sweeping suspected process names (the real c5 constants,
/// so the attack host's iterations find the chain).
pub fn family(data: &aiql_model::Dataset) -> Vec<FamilyBinding> {
    let mut out = Vec::new();
    let day = "01/02/2017";
    let windows = [
        (format!("{day} 00:00:00"), format!("{day} 12:00:00")),
        (format!("{day} 08:00:00"), format!("{day} 20:00:00")),
        (format!("{day} 00:00:00"), format!("{day} 23:59:59")),
    ];
    for agent in data.agents() {
        for (t0, t1) in &windows {
            out.push(FamilyBinding {
                agent: agent.0 as i64,
                t0: t0.clone(),
                t1: t1.clone(),
                launcher: "cmd.exe".into(),
                client: "osql.exe".into(),
                server: "sqlservr.exe".into(),
                exfil: "sbblv.exe".into(),
                ip: aiql_datagen::ATTACKER_IP.into(),
            });
        }
    }
    out
}

/// The attack-day binding for the scenario host (agent 9 in the default
/// simulation).
pub fn family_probe_binding() -> FamilyBinding {
    FamilyBinding {
        agent: 9,
        t0: "01/02/2017 00:00:00".into(),
        t1: "01/02/2017 23:59:59".into(),
        launcher: "cmd.exe".into(),
        client: "osql.exe".into(),
        server: "sqlservr.exe".into(),
        exfil: "sbblv.exe".into(),
        ip: aiql_datagen::ATTACKER_IP.into(),
    }
}
