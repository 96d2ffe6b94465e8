//! Compact binary trace format for workloads.
//!
//! Generated workloads can be frozen to a byte buffer and replayed later, so
//! that different schedulers (or different builds) are driven by *exactly*
//! the same task stream. The format is a fixed little-endian record layout
//! with a magic header and version byte; round-trips are lossless.

use crate::priority::Priority;
use crate::task::{SiteId, Task, TaskId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use simcore::time::SimTime;
use std::io;
use std::path::Path;

/// Magic bytes identifying a workload trace.
const MAGIC: &[u8; 4] = b"ARLW";
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
    /// A priority byte was out of range.
    BadPriority(u8),
    /// A floating-point field was non-finite or otherwise invalid.
    BadField(&'static str),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a workload trace (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated => write!(f, "trace is truncated"),
            TraceError::BadPriority(b) => write!(f, "invalid priority byte {b}"),
            TraceError::BadField(name) => write!(f, "invalid field: {name}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Serializes tasks into a self-describing byte buffer.
pub fn write_trace(tasks: &[Task]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + 1 + 8 + tasks.len() * RECORD_LEN);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(tasks.len() as u64);
    for t in tasks {
        buf.put_u64_le(t.id.0);
        buf.put_f64_le(t.size_mi);
        buf.put_f64_le(t.arrival.as_f64());
        buf.put_f64_le(t.deadline.as_f64());
        buf.put_u8(t.priority.index() as u8);
        buf.put_u32_le(t.site.0);
    }
    buf.freeze()
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
pub fn read_trace(mut buf: &[u8]) -> Result<Vec<Task>, TraceError> {
    if buf.remaining() < 4 + 1 + 8 {
        return Err(TraceError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(TraceError::BadVersion(version));
    }
    // The declared count is untrusted: size it checked, so a header that
    // claims more records than the buffer holds is refused before any
    // allocation.
    let count = usize::try_from(buf.get_u64_le()).map_err(|_| TraceError::Truncated)?;
    if count
        .checked_mul(RECORD_LEN)
        .is_none_or(|len| len > buf.remaining())
    {
        return Err(TraceError::Truncated);
    }
    let mut tasks = Vec::with_capacity(count);
    for _ in 0..count {
        let id = TaskId(buf.get_u64_le());
        let size_mi = buf.get_f64_le();
        let arrival = buf.get_f64_le();
        let deadline = buf.get_f64_le();
        let prio_byte = buf.get_u8();
        let site = SiteId(buf.get_u32_le());
        if !(size_mi.is_finite() && size_mi > 0.0) {
            return Err(TraceError::BadField("size_mi"));
        }
        if !(arrival.is_finite() && arrival >= 0.0) {
            return Err(TraceError::BadField("arrival"));
        }
        if !(deadline.is_finite() && deadline >= arrival) {
            return Err(TraceError::BadField("deadline"));
        }
        let priority = match prio_byte {
            0 => Priority::Low,
            1 => Priority::Medium,
            2 => Priority::High,
            b => return Err(TraceError::BadPriority(b)),
        };
        tasks.push(Task {
            id,
            size_mi,
            arrival: SimTime::new(arrival),
            deadline: SimTime::new(deadline),
            priority,
            site,
        });
    }
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
        assert_eq!(read_trace(&raw), Err(TraceError::BadPriority(7)));
    }

    #[test]
    fn corrupt_float_detected() {
        let mut raw = write_trace(&sample_tasks(1)).to_vec();
        // size_mi occupies bytes 21..29 (after magic 4, version 1, count 8, id 8).
        for b in raw.iter_mut().skip(21).take(8) {
            *b = 0xFF; // NaN pattern
        }
        assert_eq!(read_trace(&raw), Err(TraceError::BadField("size_mi")));
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
