//! Line-delimited JSON submission protocol shared by the `arls serve`
//! daemon and its clients (the `load_driver` bin, integration tests).
//!
//! One JSON object per line, in both directions:
//!
//! * client → server: a [`Submission`] — a client-chosen correlation id
//!   plus a batch of [`SubmitTask`]s (size, *relative* deadline,
//!   priority, target site). The server assigns the authoritative task
//!   ids and stamps arrival times in sim time.
//! * server → client: a stream of [`Notification`]s — one `ack` or
//!   `reject` per submission, then `placed` / `done` / `failed` lines as
//!   the simulation resolves each admitted task.
//!
//! Parsing uses the dependency-free [`telemetry::json`] parser;
//! rendering is plain string building (every numeric field is validated
//! finite, so `Display` formatting always yields legal JSON). Both
//! directions round-trip bit-exactly through each other, pinned by the
//! tests below.

use telemetry::json::{self, Json};

use crate::priority::Priority;
use crate::task::SiteId;

/// One task in a submission: everything the server needs to mint a
/// [`crate::Task`] except the id and the absolute times, which the
/// server derives at admission.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitTask {
    /// Computational size in million instructions.
    pub size_mi: f64,
    /// Relative deadline: sim seconds after admission.
    pub deadline: f64,
    /// Priority class.
    pub priority: Priority,
    /// Target resource site.
    pub site: SiteId,
}

impl SubmitTask {
    /// Structural validation (finite positive size/deadline). Site range
    /// is the server's to check — the client doesn't know the platform.
    pub fn validate(&self) -> Result<(), String> {
        if !self.size_mi.is_finite() || self.size_mi <= 0.0 {
            return Err(format!("size_mi {} not positive and finite", self.size_mi));
        }
        if !self.deadline.is_finite() || self.deadline <= 0.0 {
            return Err(format!(
                "deadline {} not positive and finite",
                self.deadline
            ));
        }
        Ok(())
    }
}

/// A batch of tasks submitted as one unit (the serving counterpart of a
/// task group arriving at a site).
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// Client-chosen correlation id, echoed on the `ack`/`reject` line.
    pub id: u64,
    /// The tasks; admitted (or rejected) as a whole.
    pub tasks: Vec<SubmitTask>,
}

fn priority_name(p: Priority) -> &'static str {
    match p {
        Priority::Low => "low",
        Priority::Medium => "medium",
        Priority::High => "high",
    }
}

fn parse_priority(s: &str) -> Result<Priority, String> {
    match s {
        "low" => Ok(Priority::Low),
        "medium" => Ok(Priority::Medium),
        "high" => Ok(Priority::High),
        other => Err(format!("unknown priority '{other}'")),
    }
}

fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric '{key}'"))
}

/// `raw` as a `u64`, or an error naming `key` when it is negative,
/// fractional or at least 2^64 (`u64::MAX as f64` rounds up to 2^64, so
/// the bound is exclusive).
fn to_u64(raw: f64, key: &str) -> Result<u64, String> {
    if raw < 0.0 || raw.fract() != 0.0 || raw >= u64::MAX as f64 {
        return Err(format!("'{key}' = {raw} is not an unsigned 64-bit integer"));
    }
    Ok(raw as u64)
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    to_u64(req_f64(v, key)?, key)
}

fn req_u32(v: &Json, key: &str) -> Result<u32, String> {
    let raw = req_u64(v, key)?;
    u32::try_from(raw).map_err(|_| format!("'{key}' = {raw} exceeds the 32-bit range"))
}

impl Submission {
    /// Parses one request line. Errors are human-readable strings the
    /// server echoes back on the `reject` line.
    pub fn parse_line(line: &str) -> Result<Submission, String> {
        let v = json::parse(line).map_err(|e| format!("bad JSON: {e:?}"))?;
        let sub = v.get("submit").ok_or("missing 'submit' object")?;
        let id = req_u64(sub, "id")?;
        let raw_tasks = sub
            .get("tasks")
            .and_then(Json::as_array)
            .ok_or("missing 'tasks' array")?;
        if raw_tasks.is_empty() {
            return Err("empty 'tasks' array".to_string());
        }
        let mut tasks = Vec::with_capacity(raw_tasks.len());
        for (i, t) in raw_tasks.iter().enumerate() {
            let task = SubmitTask {
                size_mi: req_f64(t, "size_mi").map_err(|e| format!("task {i}: {e}"))?,
                deadline: req_f64(t, "deadline").map_err(|e| format!("task {i}: {e}"))?,
                priority: t
                    .get("priority")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("task {i}: missing 'priority'"))
                    .and_then(|s| parse_priority(s).map_err(|e| format!("task {i}: {e}")))?,
                site: SiteId(req_u32(t, "site").map_err(|e| format!("task {i}: {e}"))?),
            };
            task.validate().map_err(|e| format!("task {i}: {e}"))?;
            tasks.push(task);
        }
        Ok(Submission { id, tasks })
    }

    /// Renders the request line (no trailing newline).
    pub fn render_line(&self) -> String {
        let mut out = String::with_capacity(64 + 64 * self.tasks.len());
        out.push_str("{\"submit\":{\"id\":");
        out.push_str(&self.id.to_string());
        out.push_str(",\"tasks\":[");
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"size_mi\":");
            out.push_str(&t.size_mi.to_string());
            out.push_str(",\"deadline\":");
            out.push_str(&t.deadline.to_string());
            out.push_str(",\"priority\":\"");
            out.push_str(priority_name(t.priority));
            out.push_str("\",\"site\":");
            out.push_str(&t.site.0.to_string());
            out.push('}');
        }
        out.push_str("]}}");
        out
    }
}

/// One server → client line.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field names mirror the wire keys documented per variant
pub enum Notification {
    /// The submission was admitted; `tasks` are the server-assigned ids,
    /// `t` the sim-time admission instant.
    Ack { id: u64, tasks: Vec<u64>, t: f64 },
    /// The submission was refused as a whole.
    Reject { id: u64, reason: String },
    /// A task received its placement decision.
    Placed {
        task: u64,
        site: u32,
        node: u32,
        t: f64,
    },
    /// A task finished (deadline met or missed).
    Done { task: u64, met: bool, t: f64 },
    /// A task permanently failed.
    Failed { task: u64, t: f64 },
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl Notification {
    /// Renders the notification line (no trailing newline).
    pub fn render_line(&self) -> String {
        let mut out = String::with_capacity(64);
        match self {
            Notification::Ack { id, tasks, t } => {
                out.push_str("{\"ack\":{\"id\":");
                out.push_str(&id.to_string());
                out.push_str(",\"tasks\":[");
                for (i, task) in tasks.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&task.to_string());
                }
                out.push_str("],\"t\":");
                out.push_str(&t.to_string());
                out.push_str("}}");
            }
            Notification::Reject { id, reason } => {
                out.push_str("{\"reject\":{\"id\":");
                out.push_str(&id.to_string());
                out.push_str(",\"reason\":\"");
                escape_json(reason, &mut out);
                out.push_str("\"}}");
            }
            Notification::Placed {
                task,
                site,
                node,
                t,
            } => {
                out.push_str("{\"placed\":{\"task\":");
                out.push_str(&task.to_string());
                out.push_str(",\"site\":");
                out.push_str(&site.to_string());
                out.push_str(",\"node\":");
                out.push_str(&node.to_string());
                out.push_str(",\"t\":");
                out.push_str(&t.to_string());
                out.push_str("}}");
            }
            Notification::Done { task, met, t } => {
                out.push_str("{\"done\":{\"task\":");
                out.push_str(&task.to_string());
                out.push_str(",\"met\":");
                out.push_str(if *met { "true" } else { "false" });
                out.push_str(",\"t\":");
                out.push_str(&t.to_string());
                out.push_str("}}");
            }
            Notification::Failed { task, t } => {
                out.push_str("{\"failed\":{\"task\":");
                out.push_str(&task.to_string());
                out.push_str(",\"t\":");
                out.push_str(&t.to_string());
                out.push_str("}}");
            }
        }
        out
    }

    /// Parses one notification line (the client half).
    pub fn parse_line(line: &str) -> Result<Notification, String> {
        let v = json::parse(line).map_err(|e| format!("bad JSON: {e:?}"))?;
        if let Some(a) = v.get("ack") {
            let tasks = a
                .get("tasks")
                .and_then(Json::as_array)
                .ok_or("ack missing 'tasks'")?
                .iter()
                .map(|t| {
                    let raw = t.as_f64().ok_or("non-numeric task id in ack")?;
                    to_u64(raw, "tasks")
                })
                .collect::<Result<Vec<u64>, String>>()?;
            return Ok(Notification::Ack {
                id: req_u64(a, "id")?,
                tasks,
                t: req_f64(a, "t")?,
            });
        }
        if let Some(r) = v.get("reject") {
            return Ok(Notification::Reject {
                id: req_u64(r, "id")?,
                reason: r
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            });
        }
        if let Some(p) = v.get("placed") {
            return Ok(Notification::Placed {
                task: req_u64(p, "task")?,
                site: req_u32(p, "site")?,
                node: req_u32(p, "node")?,
                t: req_f64(p, "t")?,
            });
        }
        if let Some(d) = v.get("done") {
            return Ok(Notification::Done {
                task: req_u64(d, "task")?,
                met: d
                    .get("met")
                    .and_then(Json::as_bool)
                    .ok_or("done missing 'met'")?,
                t: req_f64(d, "t")?,
            });
        }
        if let Some(f) = v.get("failed") {
            return Ok(Notification::Failed {
                task: req_u64(f, "task")?,
                t: req_f64(f, "t")?,
            });
        }
        Err("unknown notification kind".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_submission() -> Submission {
        Submission {
            id: 42,
            tasks: vec![
                SubmitTask {
                    size_mi: 1200.0,
                    deadline: 60.5,
                    priority: Priority::High,
                    site: SiteId(0),
                },
                SubmitTask {
                    size_mi: 3.25,
                    deadline: 9.0,
                    priority: Priority::Low,
                    site: SiteId(7),
                },
            ],
        }
    }

    #[test]
    fn submission_round_trips() {
        let sub = sample_submission();
        let line = sub.render_line();
        let back = Submission::parse_line(&line).expect("parses");
        assert_eq!(back, sub);
    }

    #[test]
    fn notifications_round_trip() {
        let all = vec![
            Notification::Ack {
                id: 42,
                tasks: vec![0, 1, 2],
                t: 12.5,
            },
            Notification::Reject {
                id: 43,
                reason: "site 9 out of range: \"bad\"\n".to_string(),
            },
            Notification::Placed {
                task: 1,
                site: 0,
                node: 3,
                t: 13.0,
            },
            Notification::Done {
                task: 1,
                met: true,
                t: 19.25,
            },
            Notification::Failed { task: 2, t: 20.0 },
        ];
        for n in all {
            let line = n.render_line();
            let back = Notification::parse_line(&line)
                .unwrap_or_else(|e| panic!("{line} failed to parse: {e}"));
            assert_eq!(back, n, "round-trip of {line}");
        }
    }

    #[test]
    fn malformed_submissions_are_typed_errors() {
        for bad in [
            "not json",
            "{}",
            r#"{"submit":{"id":1,"tasks":[]}}"#,
            r#"{"submit":{"id":-1,"tasks":[{"size_mi":1,"deadline":1,"priority":"low","site":0}]}}"#,
            r#"{"submit":{"id":1,"tasks":[{"size_mi":0,"deadline":1,"priority":"low","site":0}]}}"#,
            r#"{"submit":{"id":1,"tasks":[{"size_mi":1,"deadline":-2,"priority":"low","site":0}]}}"#,
            r#"{"submit":{"id":1,"tasks":[{"size_mi":1,"deadline":1,"priority":"urgent","site":0}]}}"#,
            r#"{"submit":{"id":1,"tasks":[{"size_mi":1,"deadline":1,"priority":"low"}]}}"#,
        ] {
            assert!(Submission::parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn submission_integers_out_of_range_are_rejected_not_wrapped() {
        let task = |site: &str| {
            format!(
                r#"{{"submit":{{"id":1,"tasks":[{{"size_mi":1,"deadline":1,"priority":"low","site":{site}}}]}}}}"#
            )
        };
        assert_eq!(
            Submission::parse_line(&task("4294967295")).unwrap().tasks[0].site,
            SiteId(u32::MAX)
        );
        let err = Submission::parse_line(&task("4294967297")).unwrap_err();
        assert!(err.contains("'site'"), "{err}");
        // 2^64 is one past u64::MAX: rejected, not saturated.
        let err = Submission::parse_line(
            r#"{"submit":{"id":18446744073709551616,"tasks":[{"size_mi":1,"deadline":1,"priority":"low","site":0}]}}"#,
        )
        .unwrap_err();
        assert!(err.contains("'id'"), "{err}");
    }

    #[test]
    fn notification_integers_out_of_range_are_rejected_not_wrapped() {
        for (line, field) in [
            (
                r#"{"placed":{"task":1,"site":4294967296,"node":0,"t":1}}"#,
                "'site'",
            ),
            (
                r#"{"placed":{"task":1,"site":0,"node":4294967296,"t":1}}"#,
                "'node'",
            ),
            (
                r#"{"placed":{"task":18446744073709551616,"site":0,"node":0,"t":1}}"#,
                "'task'",
            ),
            (
                r#"{"ack":{"id":1,"tasks":[18446744073709551616],"t":1}}"#,
                "'tasks'",
            ),
        ] {
            let err = Notification::parse_line(line).unwrap_err();
            assert!(err.contains(field), "{line}: {err}");
        }
    }
}
