//! The fault layer's handles into the process-wide telemetry registry.

aiql_telemetry::metrics! {
    pub(crate) struct FaultMetrics via metrics(), prefix "aiql_fault_";

    injected: Counter("aiql_fault_injected_total", "faults",
        "Faults an armed plan actually fired"),
    crashes: Counter("aiql_fault_crashes_total", "crashes",
        "`FaultKind::Crash` faults fired (process enters fail-everything mode)"),
}
