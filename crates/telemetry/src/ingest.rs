//! Counter family for the serving front door: connections, request
//! lines, parse failures, submissions/tasks admitted, rejections, and
//! notification lines pushed back — the `arls_ingest_*` metrics the
//! `arls serve` daemon registers next to the platform's `arls_*` family.

use crate::metrics::{Counter, MetricsRegistry};

/// Handles into the `arls_ingest_*` counters.
///
/// All counters live in the daemon's shared [`MetricsRegistry`], so a
/// `/metrics` scrape sees ingest and simulation state in one payload.
#[derive(Debug, Clone)]
pub struct IngestMetrics {
    /// Client connections accepted.
    pub connections: Counter,
    /// Request lines read (including ones that later fail to parse).
    pub lines: Counter,
    /// Request lines that failed to parse or validate.
    pub parse_errors: Counter,
    /// Submissions admitted (acked).
    pub submissions: Counter,
    /// Tasks admitted across all acked submissions.
    pub tasks: Counter,
    /// Submissions rejected (bad request, unknown site, shed load).
    pub rejections: Counter,
    /// Notification lines streamed back to clients.
    pub notifications: Counter,
}

impl IngestMetrics {
    /// Registers (or re-resolves) the family in `reg`.
    pub fn register(reg: &MetricsRegistry) -> IngestMetrics {
        IngestMetrics {
            connections: reg.counter(
                "arls_ingest_connections_total",
                "Client connections accepted by the serving front door.",
                &[],
            ),
            lines: reg.counter(
                "arls_ingest_lines_total",
                "Request lines read from clients.",
                &[],
            ),
            parse_errors: reg.counter(
                "arls_ingest_parse_errors_total",
                "Request lines that failed to parse or validate.",
                &[],
            ),
            submissions: reg.counter(
                "arls_ingest_submissions_total",
                "Submissions admitted into the live scheduler.",
                &[],
            ),
            tasks: reg.counter(
                "arls_ingest_tasks_total",
                "Tasks admitted across all acked submissions.",
                &[],
            ),
            rejections: reg.counter(
                "arls_ingest_rejections_total",
                "Submissions rejected by the serving front door.",
                &[],
            ),
            notifications: reg.counter(
                "arls_ingest_notifications_total",
                "Notification lines streamed back to clients.",
                &[],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_and_renders_the_family() {
        let reg = MetricsRegistry::new();
        let m = IngestMetrics::register(&reg);
        m.connections.inc();
        m.lines.add(3);
        m.submissions.add(2);
        m.tasks.add(7);
        m.rejections.inc();
        let out = reg.render();
        assert!(out.contains("arls_ingest_connections_total 1\n"), "{out}");
        assert!(out.contains("arls_ingest_lines_total 3\n"), "{out}");
        assert!(out.contains("arls_ingest_tasks_total 7\n"), "{out}");
        assert!(out.contains("arls_ingest_rejections_total 1\n"), "{out}");
        // Re-registration resolves to the same cells.
        let again = IngestMetrics::register(&reg);
        again.submissions.inc();
        assert_eq!(m.submissions.total(), 3);
    }
}
