//! Counter family for the serving front door: connections, request
//! lines, parse failures, submissions/tasks admitted, rejections, and
//! notification lines pushed back — the `arls_ingest_*` metrics the
//! `arls serve` daemon registers next to the platform's `arls_*` family.
//! The serve loop itself is counted too: passes by what made them
//! active (an idle pass found nothing to do) and the time its waits asked
//! for, `WouldBlock` returns per socket call (near zero: the loop calls
//! only what its wait reported ready), and sim-time advances with and
//! without session events.

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
    /// Serve-loop passes, each under the first thing that made it active
    /// (`accept`, then `read`, then session `events`), or `idle`: a pass
    /// after a wait that a timeout ended with nothing to do.
    pub passes_accept: Counter,
    /// See [`IngestMetrics::passes_accept`].
    pub passes_read: Counter,
    /// See [`IngestMetrics::passes_accept`].
    pub passes_events: Counter,
    /// See [`IngestMetrics::passes_accept`].
    pub passes_idle: Counter,
    /// Timeouts the loop's waits asked for, in microseconds (what each
    /// `poll` was given, not how long it blocked).
    pub park_requested_us: Counter,
    /// Non-blocking `accept` calls that returned `WouldBlock`: about one
    /// per connection, as the loop accepts until the listener is drained.
    pub would_block_accept: Counter,
    /// Non-blocking client reads that returned `WouldBlock`: only after a
    /// read that filled the buffer.
    pub would_block_read: Counter,
    /// Non-blocking client writes that returned `WouldBlock`.
    pub would_block_write: Counter,
    /// Sim-time advances that produced session events.
    pub advances_with_events: Counter,
    /// Sim-time advances that produced none.
    pub advances_without_events: Counter,
}

impl IngestMetrics {
    /// Registers (or re-resolves) the family in `reg`.
    pub fn register(reg: &MetricsRegistry) -> IngestMetrics {
        let pass = |cause| {
            reg.counter(
                "arls_ingest_loop_passes_total",
                "Serve-loop passes, by the first thing that made the pass active; idle passes found nothing to do.",
                &[("cause", cause)],
            )
        };
        let would_block = |call| {
            reg.counter(
                "arls_ingest_would_block_total",
                "Non-blocking socket calls that returned WouldBlock.",
                &[("call", call)],
            )
        };
        let advances = |events| {
            reg.counter(
                "arls_ingest_advances_total",
                "Sim-time advances of the serve loop, by whether they produced session events.",
                &[("events", events)],
            )
        };
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
            passes_accept: pass("accept"),
            passes_read: pass("read"),
            passes_events: pass("events"),
            passes_idle: pass("idle"),
            park_requested_us: reg.counter(
                "arls_ingest_park_requested_microseconds_total",
                "Wait timeouts the serve loop requested, in microseconds.",
                &[],
            ),
            would_block_accept: would_block("accept"),
            would_block_read: would_block("read"),
            would_block_write: would_block("write"),
            advances_with_events: advances("some"),
            advances_without_events: advances("none"),
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
        m.passes_idle.add(2);
        m.would_block_write.inc();
        m.advances_without_events.inc();
        let out = reg.render();
        assert!(out.contains("arls_ingest_connections_total 1\n"), "{out}");
        assert!(out.contains("arls_ingest_lines_total 3\n"), "{out}");
        assert!(out.contains("arls_ingest_tasks_total 7\n"), "{out}");
        assert!(out.contains("arls_ingest_rejections_total 1\n"), "{out}");
        assert!(
            out.contains("arls_ingest_loop_passes_total{cause=\"idle\"} 2\n"),
            "{out}"
        );
        assert!(
            out.contains("arls_ingest_would_block_total{call=\"write\"} 1\n"),
            "{out}"
        );
        assert!(
            out.contains("arls_ingest_advances_total{events=\"none\"} 1\n"),
            "{out}"
        );
        // Re-registration resolves to the same cells.
        let again = IngestMetrics::register(&reg);
        again.submissions.inc();
        assert_eq!(m.submissions.total(), 3);
    }
}
