//! Compact binary trace format for workloads.
//!
//! Generated workloads can be frozen to a byte buffer and replayed later, so
//! that different schedulers (or different builds) are driven by *exactly*
//! the same task stream. The format is a fixed little-endian record layout
//! with a magic header and version byte; round-trips are lossless.

use crate::task::Task;
use snapshot::{Codec, SnapReader, SnapWriter, SnapshotError};
use std::io;
use std::path::Path;

/// Magic bytes identifying a workload trace.
const MAGIC: [u8; 4] = *b"ARLW";
/// Current format version.
const VERSION: u8 = 1;
/// Bytes per task record: id(8) size(8) arrival(8) deadline(8) prio(1) site(4).
const RECORD_LEN: usize = 8 + 8 + 8 + 8 + 1 + 4;

/// Errors produced while decoding a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Buffer does not start with the expected magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Buffer ended mid-record or the declared count does not fit.
    Truncated,
    /// A task record is invalid: a non-finite, negative or zero size, a
    /// bad time, a deadline not after the arrival, or an unknown priority
    /// byte.
    BadRecord(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a workload trace (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated => write!(f, "trace is truncated"),
            TraceError::BadRecord(why) => write!(f, "invalid task record: {why}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Serializes tasks into a self-describing byte buffer: magic, version
/// byte, then the tasks as a counted sequence of [`Task::snap`] records.
pub fn write_trace(tasks: &[Task]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.encode(|w| {
        for mut b in MAGIC {
            w.u8(&mut b)?;
        }
        w.u8(&mut { VERSION })?;
        w.seq(&mut tasks.to_vec(), Task::snap)
    });
    w.into_bytes()
}

/// Writes a trace to a file (see [`write_trace`] for the format).
pub fn save_trace(path: impl AsRef<Path>, tasks: &[Task]) -> io::Result<()> {
    std::fs::write(path, write_trace(tasks))
}

/// Reads a trace file written by [`save_trace`].
pub fn load_trace(path: impl AsRef<Path>) -> io::Result<Vec<Task>> {
    let bytes = std::fs::read(path)?;
    read_trace(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Decodes a trace produced by [`write_trace`].
pub fn read_trace(buf: &[u8]) -> Result<Vec<Task>, TraceError> {
    let (magic, version) = match buf {
        [m0, m1, m2, m3, v, ..] if buf.len() >= 4 + 1 + 8 => ([*m0, *m1, *m2, *m3], *v),
        _ => return Err(TraceError::Truncated),
    };
    if magic != MAGIC {
        return Err(TraceError::BadMagic);
    }
    if version != VERSION {
        return Err(TraceError::BadVersion(version));
    }
    // The declared count is untrusted: a header that claims more records
    // than the buffer holds is refused before any allocation.
    let count = u64::from_le_bytes(buf[5..13].try_into().expect("8 bytes"));
    let body = buf.len() - 13;
    if usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(RECORD_LEN))
        .is_none_or(|len| len > body)
    {
        return Err(TraceError::Truncated);
    }
    let mut tasks = Vec::new();
    let mut r = SnapReader::new(&buf[5..]);
    r.seq(&mut tasks, |t: &mut Task, c| {
        t.snap(c)?;
        c.check(t.size_mi > 0.0, || format!("task {} has no work", t.id))
    })
    .map_err(|e| match e {
        SnapshotError::Truncated { .. } => TraceError::Truncated,
        e => TraceError::BadRecord(e.to_string()),
    })?;
    Ok(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Workload, WorkloadSpec};
    use simcore::rng::RngStream;

    fn sample_tasks(n: usize) -> Vec<Task> {
        Workload::generate(WorkloadSpec::paper(n, 4, 500.0), &RngStream::root(77)).tasks
    }

    #[test]
    fn round_trip_is_lossless() {
        let tasks = sample_tasks(250);
        let bytes = write_trace(&tasks);
        let back = read_trace(&bytes).expect("decode");
        assert_eq!(back, tasks);
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = write_trace(&[]);
        assert_eq!(read_trace(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn bad_magic_detected() {
        let tasks = sample_tasks(2);
        let mut raw = write_trace(&tasks).to_vec();
        raw[0] = b'X';
        assert_eq!(read_trace(&raw), Err(TraceError::BadMagic));
    }

    #[test]
    fn bad_version_detected() {
        let mut raw = write_trace(&sample_tasks(1)).to_vec();
        raw[4] = 99;
        assert_eq!(read_trace(&raw), Err(TraceError::BadVersion(99)));
    }

    #[test]
    fn truncation_detected() {
        let raw = write_trace(&sample_tasks(3));
        let cut = &raw[..raw.len() - 5];
        assert_eq!(read_trace(cut), Err(TraceError::Truncated));
        assert_eq!(read_trace(&raw[..6]), Err(TraceError::Truncated));
        // A declared count whose byte length overflows usize.
        let mut huge = raw.to_vec();
        huge[5..13].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(read_trace(&huge), Err(TraceError::Truncated));
    }

    #[test]
    fn bad_priority_detected() {
        let mut raw = write_trace(&sample_tasks(1)).to_vec();
        // Priority byte of the single record sits 4 bytes from the end.
        let idx = raw.len() - 5;
        raw[idx] = 7;
        assert!(
            matches!(read_trace(&raw), Err(TraceError::BadRecord(m)) if m.contains("priority tag 7"))
        );
    }

    #[test]
    fn corrupt_float_detected() {
        let mut raw = write_trace(&sample_tasks(1)).to_vec();
        // size_mi occupies bytes 21..29 (after magic 4, version 1, count 8, id 8).
        for b in raw.iter_mut().skip(21).take(8) {
            *b = 0xFF; // NaN pattern
        }
        assert!(matches!(read_trace(&raw), Err(TraceError::BadRecord(m)) if m.contains("NaN")));
        // A size of zero is a valid float but no task.
        raw[21..29].copy_from_slice(&0.0f64.to_le_bytes());
        assert!(matches!(read_trace(&raw), Err(TraceError::BadRecord(m)) if m.contains("no work")));
    }

    #[test]
    fn a_deadline_at_the_arrival_is_a_bad_record() {
        let mut tasks = sample_tasks(1);
        tasks[0].deadline = tasks[0].arrival;
        let err = read_trace(&write_trace(&tasks)).unwrap_err();
        assert!(
            matches!(&err, TraceError::BadRecord(m) if m.contains("due no later than it arrives")),
            "{err:?}"
        );
    }

    #[test]
    fn file_round_trip() {
        let tasks = sample_tasks(40);
        let path = std::env::temp_dir().join("arl_trace_roundtrip_test.bin");
        save_trace(&path, &tasks).expect("write file");
        let back = load_trace(&path).expect("read file");
        std::fs::remove_file(&path).ok();
        assert_eq!(back, tasks);
    }

    #[test]
    fn load_rejects_garbage_file() {
        let path = std::env::temp_dir().join("arl_trace_garbage_test.bin");
        std::fs::write(&path, b"not a trace").expect("write file");
        let err = load_trace(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn error_display_is_informative() {
        let s = format!("{}", TraceError::BadVersion(3));
        assert!(s.contains('3'));
    }
}
