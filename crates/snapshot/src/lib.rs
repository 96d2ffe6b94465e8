//! Versioned, checksummed snapshot container and byte codec.
//!
//! A snapshot file is a self-describing binary blob:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "ARLSNAP\0"
//! 8       1     format version (currently 1)
//! 9       8     payload length, little-endian u64
//! 17      4     CRC-32 (IEEE) of the payload, little-endian u32
//! 21      n     payload bytes
//! ```
//!
//! The payload itself is an application-defined byte stream. Each
//! snapshotted type lists its fields once, against the two-way [`Codec`]
//! trait: [`SnapWriter`] runs the list to encode, [`SnapReader`] runs the
//! same list to decode. All multi-byte values are little-endian; floats are
//! serialized as raw IEEE-754 bit patterns so a round trip is bit-exact.
//! Every decode path is bounds-checked and returns a typed
//! [`SnapshotError`] — corrupt, truncated, or mismatched input must never
//! panic.
//!
//! Files are written torn-write-safe by [`write_atomic`]: the bytes land in
//! a temporary sibling file which is fsync'd and then atomically renamed
//! over the destination, followed by a directory fsync. A reader therefore
//! observes either the previous snapshot or the complete new one, never a
//! partial write.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"ARLSNAP\0";

/// Current snapshot format version.
pub const FORMAT_VERSION: u8 = 1;

/// Size of the fixed header preceding the payload.
pub const HEADER_LEN: usize = 8 + 1 + 8 + 4;

/// Typed failure modes of snapshot encoding, decoding, and file I/O.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The input ended before the expected number of bytes.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The format version byte is not one this build understands.
    BadVersion {
        /// Version byte found in the header.
        found: u8,
    },
    /// The payload checksum does not match the header.
    BadChecksum {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC computed over the payload.
        actual: u32,
    },
    /// The payload decoded to structurally invalid data.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needed {needed} bytes, only {available} available"
            ),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::BadVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads version {FORMAT_VERSION})"
            ),
            SnapshotError::BadChecksum { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:#010x}, payload hashes to {actual:#010x}"
            ),
            SnapshotError::Corrupt(why) => write!(f, "snapshot payload corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Shorthand for a corrupt-payload error.
pub fn corrupt(why: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(why.into())
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected).
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Two-way field codec.
// ---------------------------------------------------------------------------

/// One field list, run in either direction.
///
/// A snapshotted type lists its fields once, in a `snap<C: Codec>(&mut
/// self, c: &mut C)` function that calls one primitive per field. Run by a
/// [`SnapWriter`] the list appends each field's bytes; run by a
/// [`SnapReader`] it overwrites each field with the decoded value. Each
/// primitive therefore takes the field by `&mut`. Validation sits in the
/// same list: [`Codec::check`] can fail only while decoding, so the
/// encoder never fails.
pub trait Codec: Sized {
    /// Whether this codec decodes. Field lists branch on it only where
    /// decoding must rebuild state that is derived rather than stored.
    const DECODE: bool;

    /// One byte.
    fn u8(&mut self, v: &mut u8) -> Result<(), SnapshotError>;

    /// A little-endian u32.
    fn u32(&mut self, v: &mut u32) -> Result<(), SnapshotError>;

    /// A little-endian u64.
    fn u64(&mut self, v: &mut u64) -> Result<(), SnapshotError>;

    /// A sequence length: writes `n`; decoding returns the stored length,
    /// which must not exceed the bytes left (every element occupies at
    /// least one), so a corrupt prefix cannot drive a huge allocation.
    fn len(&mut self, n: usize) -> Result<usize, SnapshotError>;

    /// A length-prefixed byte string.
    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapshotError>;

    /// A length-prefixed blob holding `obj`'s own byte stream: `save`
    /// writes it, `load` reads it and must consume all of it.
    fn nested<T: ?Sized>(
        &mut self,
        obj: &mut T,
        save: impl FnOnce(&mut T, &mut SnapWriter),
        load: impl FnOnce(&mut T, &mut SnapReader<'_>) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError>;

    /// Fails with [`SnapshotError::Corrupt`] carrying `why()` when decoding
    /// and `ok` is false; never fails when encoding.
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> Result<(), SnapshotError> {
        if Self::DECODE && !ok {
            Err(corrupt(why()))
        } else {
            Ok(())
        }
    }

    /// A `usize`, stored as a u64 so the format is word-size independent.
    fn usize(&mut self, v: &mut usize) -> Result<(), SnapshotError> {
        let mut x = *v as u64;
        self.u64(&mut x)?;
        *v = usize::try_from(x)
            .map_err(|_| corrupt(format!("length {x} exceeds platform usize")))?;
        Ok(())
    }

    /// A bool as one byte; decoding rejects anything but 0 and 1.
    fn bool(&mut self, v: &mut bool) -> Result<(), SnapshotError> {
        let mut b = u8::from(*v);
        self.u8(&mut b)?;
        self.check(b <= 1, || format!("invalid bool byte {b:#04x}"))?;
        *v = b == 1;
        Ok(())
    }

    /// An `f64` as its raw bit pattern: bit-exact, NaN payloads and
    /// infinities included.
    fn f64(&mut self, v: &mut f64) -> Result<(), SnapshotError> {
        let mut bits = v.to_bits();
        self.u64(&mut bits)?;
        *v = f64::from_bits(bits);
        Ok(())
    }

    /// An `f64` that must be finite.
    fn finite(&mut self, v: &mut f64) -> Result<(), SnapshotError> {
        self.f64(v)?;
        self.check(v.is_finite(), || format!("expected finite float, got {v}"))
    }

    /// An `f64` that must be finite and `>= 0`: simulation times,
    /// durations, sizes and accumulated totals.
    fn nonneg(&mut self, v: &mut f64) -> Result<(), SnapshotError> {
        self.f64(v)?;
        self.check(v.is_finite() && *v >= 0.0, || {
            format!("expected non-negative finite value, got {v}")
        })
    }

    /// An `f64` that must lie in `[0, 1]`: probabilities and rates.
    fn unit(&mut self, v: &mut f64, what: &str) -> Result<(), SnapshotError> {
        self.finite(v)?;
        let x = *v;
        self.check((0.0..=1.0).contains(&x), || {
            format!("{what} {x} outside [0, 1]")
        })
    }

    /// A length prefix that must equal `n`, a count the decoder already
    /// knows from its own state.
    fn len_eq(&mut self, n: usize, what: &str) -> Result<(), SnapshotError> {
        let got = self.len(n)?;
        self.check(got == n, || {
            format!("snapshot has {got} {what}, expected {n}")
        })
    }

    /// An enum discriminant: the index in `blanks` — one value per variant,
    /// payloads at their defaults — of the entry equal to `*v` or, failing
    /// that, of the same variant. Decoding replaces `*v` with that blank,
    /// rejecting unknown tags; the caller then lists the payload.
    fn variant<T: PartialEq + Clone>(
        &mut self,
        v: &mut T,
        blanks: &[T],
        what: &str,
    ) -> Result<(), SnapshotError> {
        let same = |b: &T| std::mem::discriminant(b) == std::mem::discriminant(v);
        let at = blanks.iter().position(|b| b == v);
        let at = at.or_else(|| blanks.iter().position(same));
        let mut tag = at.expect("`blanks` lists every variant") as u8;
        self.u8(&mut tag)?;
        if Self::DECODE {
            *v = blanks
                .get(tag as usize)
                .ok_or_else(|| corrupt(format!("unknown {what} tag {tag}")))?
                .clone();
        }
        Ok(())
    }

    /// An `Option`: a presence bool, then the value's own field list.
    ///
    /// Element lists take `(element, codec)`, the argument order of a
    /// type's own `snap` method, so `T::snap` can be passed directly.
    fn opt<T: Default>(
        &mut self,
        v: &mut Option<T>,
        each: impl FnOnce(&mut T, &mut Self) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let mut some = v.is_some();
        self.bool(&mut some)?;
        if Self::DECODE {
            *v = some.then(T::default);
        }
        match v {
            Some(x) => each(x, self),
            None => Ok(()),
        }
    }

    /// A length-prefixed sequence. Decoding replaces `v` with that many
    /// elements, each a default that `each` fills in before the next is
    /// made, so a corrupt length fails at the first missing element having
    /// built no more elements than the input held.
    fn seq<T: Default>(
        &mut self,
        v: &mut Vec<T>,
        mut each: impl FnMut(&mut T, &mut Self) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let n = self.len(v.len())?;
        if !Self::DECODE {
            return v.iter_mut().try_for_each(|x| each(x, self));
        }
        v.clear();
        for _ in 0..n {
            let mut x = T::default();
            each(&mut x, self)?;
            v.push(x);
        }
        Ok(())
    }

    /// [`Codec::seq`] over a ring buffer, front to back.
    fn deque<T: Default>(
        &mut self,
        v: &mut VecDeque<T>,
        each: impl FnMut(&mut T, &mut Self) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let mut items = Vec::from(std::mem::take(v));
        let done = self.seq(&mut items, each);
        *v = items.into();
        done
    }

    /// A map keyed by `u64`, stored as a sequence of `(key, value)` in key
    /// order so equal maps encode to equal bytes. Decoding rejects
    /// duplicate keys.
    fn map<V: Default + Clone>(
        &mut self,
        m: &mut HashMap<u64, V>,
        mut each: impl FnMut(&mut V, &mut Self) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let mut entries: Vec<(u64, V)> = m.iter().map(|(&k, v)| (k, v.clone())).collect();
        entries.sort_unstable_by_key(|e| e.0);
        self.seq(&mut entries, |(k, v), c| {
            c.u64(k)?;
            each(v, c)
        })?;
        if Self::DECODE {
            m.clear();
            for (k, v) in entries {
                self.check(m.insert(k, v).is_none(), || format!("duplicate key {k}"))?;
            }
        }
        Ok(())
    }
}

/// Append-only little-endian byte-stream encoder: the [`Codec`] that
/// writes.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Runs a field list through the encoder, which cannot fail.
    pub fn encode(&mut self, fields: impl FnOnce(&mut Self) -> Result<(), SnapshotError>) {
        fields(self).expect("encoding never fails");
    }
}

impl Codec for SnapWriter {
    const DECODE: bool = false;

    fn u8(&mut self, v: &mut u8) -> Result<(), SnapshotError> {
        self.buf.push(*v);
        Ok(())
    }

    fn u32(&mut self, v: &mut u32) -> Result<(), SnapshotError> {
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn u64(&mut self, v: &mut u64) -> Result<(), SnapshotError> {
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn len(&mut self, n: usize) -> Result<usize, SnapshotError> {
        self.u64(&mut (n as u64))?;
        Ok(n)
    }

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapshotError> {
        self.len(v.len())?;
        self.buf.extend_from_slice(v);
        Ok(())
    }

    fn nested<T: ?Sized>(
        &mut self,
        obj: &mut T,
        save: impl FnOnce(&mut T, &mut SnapWriter),
        _load: impl FnOnce(&mut T, &mut SnapReader<'_>) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let mut inner = SnapWriter::new();
        save(obj, &mut inner);
        self.bytes(&mut inner.buf)
    }
}

/// Bounds-checked little-endian byte-stream decoder: the [`Codec`] that
/// reads.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes `target`'s field list into a copy, and commits the copy
    /// only once the whole list decoded: a failed restore leaves `target`
    /// untouched.
    pub fn restore<T: Clone>(
        &mut self,
        target: &mut T,
        fields: impl FnOnce(&mut T, &mut Self) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let mut copy = target.clone();
        fields(&mut copy, self)?;
        *target = copy;
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }
}

impl Codec for SnapReader<'_> {
    const DECODE: bool = true;

    fn u8(&mut self, v: &mut u8) -> Result<(), SnapshotError> {
        *v = self.take(1)?[0];
        Ok(())
    }

    fn u32(&mut self, v: &mut u32) -> Result<(), SnapshotError> {
        *v = u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes"));
        Ok(())
    }

    fn u64(&mut self, v: &mut u64) -> Result<(), SnapshotError> {
        *v = u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"));
        Ok(())
    }

    fn len(&mut self, _n: usize) -> Result<usize, SnapshotError> {
        let mut n = 0;
        self.usize(&mut n)?;
        if n > self.remaining() {
            return Err(corrupt(format!(
                "sequence length {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapshotError> {
        let n = self.len(0)?;
        *v = self.take(n)?.to_vec();
        Ok(())
    }

    fn nested<T: ?Sized>(
        &mut self,
        obj: &mut T,
        _save: impl FnOnce(&mut T, &mut SnapWriter),
        load: impl FnOnce(&mut T, &mut SnapReader<'_>) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let n = self.len(0)?;
        let mut inner = SnapReader::new(self.take(n)?);
        load(obj, &mut inner)?;
        let left = inner.remaining();
        self.check(left == 0, || {
            format!("nested state has {left} unconsumed bytes")
        })
    }
}

// ---------------------------------------------------------------------------
// Container framing.
// ---------------------------------------------------------------------------

/// Wraps a payload in the versioned, checksummed snapshot container.
pub fn encode_container(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(FORMAT_VERSION);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates container framing and returns the payload slice.
///
/// Checks, in order: magic, version, declared length vs. actual bytes, and
/// the payload CRC. Each failure maps to its own [`SnapshotError`] variant.
pub fn decode_container(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < HEADER_LEN {
        // An empty or obviously short file: distinguish "not even a magic"
        // from "header cut off" by checking what prefix we do have.
        if !MAGIC.starts_with(&bytes[..bytes.len().min(8)]) {
            return Err(SnapshotError::BadMagic);
        }
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = bytes[8];
    if version != FORMAT_VERSION {
        return Err(SnapshotError::BadVersion { found: version });
    }
    let declared = u64::from_le_bytes(bytes[9..17].try_into().expect("8-byte slice"));
    let declared = usize::try_from(declared).map_err(|_| {
        corrupt(format!(
            "declared payload length {declared} overflows usize"
        ))
    })?;
    let expected_crc = u32::from_le_bytes(bytes[17..21].try_into().expect("4-byte slice"));
    let body = &bytes[HEADER_LEN..];
    if body.len() < declared {
        return Err(SnapshotError::Truncated {
            needed: declared,
            available: body.len(),
        });
    }
    if body.len() > declared {
        return Err(corrupt(format!(
            "trailing garbage: payload declared {declared} bytes, file carries {}",
            body.len()
        )));
    }
    let actual = crc32(body);
    if actual != expected_crc {
        return Err(SnapshotError::BadChecksum {
            expected: expected_crc,
            actual,
        });
    }
    Ok(body)
}

// ---------------------------------------------------------------------------
// Torn-write-safe file I/O.
// ---------------------------------------------------------------------------

/// Writes `payload` (container-framed) to `path` atomically.
///
/// The bytes are written to a temporary sibling, fsync'd, renamed over the
/// destination, and the containing directory is fsync'd, so a crash at any
/// point leaves either the old snapshot or the complete new one on disk.
pub fn write_atomic(path: &Path, payload: &[u8]) -> Result<(), SnapshotError> {
    let framed = encode_container(payload);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| corrupt("snapshot path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp_path = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let mut f = std::fs::File::create(&tmp_path)?;
    f.write_all(&framed)?;
    f.sync_all()?;
    drop(f);
    if let Err(e) = std::fs::rename(&tmp_path, path) {
        let _ = std::fs::remove_file(&tmp_path);
        return Err(SnapshotError::Io(e));
    }
    if let Some(d) = dir {
        // Persist the rename itself. Directory fsync is best-effort on
        // platforms where opening a directory for sync is not supported.
        if let Ok(dh) = std::fs::File::open(d) {
            let _ = dh.sync_all();
        }
    }
    Ok(())
}

/// Reads a snapshot file, validates the container, and returns the payload.
pub fn read_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    let bytes = std::fs::read(path)?;
    let payload = decode_container(&bytes)?;
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A field list over every primitive, for the round-trip tests.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Fields {
        a: u8,
        b: u32,
        c: u64,
        d: usize,
        e: [f64; 3],
        f: (bool, bool),
        g: Vec<u8>,
        h: Vec<u8>,
        i: Option<u64>,
        j: Option<f64>,
        k: Vec<u32>,
        l: VecDeque<u64>,
        m: HashMap<u64, u32>,
    }

    impl Fields {
        fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
            c.u8(&mut self.a)?;
            c.u32(&mut self.b)?;
            c.u64(&mut self.c)?;
            c.usize(&mut self.d)?;
            self.e.iter_mut().try_for_each(|v| c.f64(v))?;
            c.bool(&mut self.f.0)?;
            c.bool(&mut self.f.1)?;
            c.bytes(&mut self.g)?;
            c.bytes(&mut self.h)?;
            c.opt(&mut self.i, |v, c| c.u64(v))?;
            c.opt(&mut self.j, |v, c| c.f64(v))?;
            c.seq(&mut self.k, |v, c| c.u32(v))?;
            c.deque(&mut self.l, |v, c| c.u64(v))?;
            c.map(&mut self.m, |v, c| c.u32(v))
        }
    }

    fn sample() -> Fields {
        Fields {
            a: 0xAB,
            b: 0xDEAD_BEEF,
            c: u64::MAX,
            d: 12345,
            e: [-0.0, f64::INFINITY, 1.0 / 3.0],
            f: (true, false),
            g: "héllo".into(),
            h: vec![1, 2, 3],
            i: Some(7),
            j: Some(f64::NEG_INFINITY),
            k: vec![4, 5],
            l: VecDeque::from([6, 7, 8]),
            m: HashMap::from([(9, 1), (3, 2)]),
        }
    }

    #[test]
    fn one_field_list_round_trips_bit_exact() {
        let mut orig = sample();
        let mut w = SnapWriter::new();
        w.encode(|w| orig.snap(w));
        let bytes = w.into_bytes();
        let mut back = Fields::default();
        let mut r = SnapReader::new(&bytes);
        back.snap(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(back.e[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back, orig);
        // Maps encode in key order, so equal maps give equal bytes.
        let mut again = SnapWriter::new();
        again.encode(|w| back.snap(w));
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn reader_rejects_truncation() {
        let mut w = SnapWriter::new();
        w.encode(|w| w.u64(&mut 42));
        let bytes = w.into_bytes();
        match SnapReader::new(&bytes[..5]).u64(&mut 0) {
            Err(SnapshotError::Truncated { needed, available }) => {
                assert_eq!(needed, 8);
                assert_eq!(available, 5);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn reader_rejects_bogus_lengths() {
        let mut w = SnapWriter::new();
        w.encode(|w| w.u64(&mut { u64::MAX }));
        let bytes = w.into_bytes();
        assert!(matches!(
            SnapReader::new(&bytes).len(0),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut v: Vec<u8> = Vec::new();
        assert!(SnapReader::new(&bytes).seq(&mut v, |x, c| c.u8(x)).is_err());
    }

    #[test]
    fn corrupt_sequence_length_builds_only_what_the_input_holds() {
        thread_local!(static MADE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) });
        /// An element that counts how many of it were made.
        struct Counted(u64);
        impl Default for Counted {
            fn default() -> Self {
                MADE.with(|m| m.set(m.get() + 1));
                Counted(0)
            }
        }
        // The prefix claims one element per byte left, which `len` allows,
        // but the 80 bytes hold ten 8-byte elements.
        let mut bytes = 80u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 80]);
        let mut v = Vec::new();
        let got = SnapReader::new(&bytes).seq(&mut v, |x: &mut Counted, c| c.u64(&mut x.0));
        assert!(
            matches!(got, Err(SnapshotError::Truncated { .. })),
            "{got:?}"
        );
        assert_eq!(
            MADE.with(|m| m.get()),
            11,
            "ten read, the eleventh found missing"
        );
    }

    #[test]
    fn reader_rejects_bad_bool_and_unknown_tags() {
        assert!(matches!(
            SnapReader::new(&[7]).bool(&mut false),
            Err(SnapshotError::Corrupt(_))
        ));
        let tagged = SnapReader::new(&[2]).variant(&mut false, &[false, true], "flag");
        assert!(matches!(tagged, Err(SnapshotError::Corrupt(m)) if m.contains("flag tag 2")));
    }

    #[test]
    fn checks_and_validators_fail_only_when_decoding() {
        let mut w = SnapWriter::new();
        w.encode(|w| {
            w.check(false, || unreachable!())?;
            w.finite(&mut f64::from_bits(f64::NAN.to_bits()))?;
            w.nonneg(&mut -1.5)?;
            w.len_eq(3, "things")?;
            w.bytes(&mut vec![0; 3])
        });
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.finite(&mut 0.0), Err(SnapshotError::Corrupt(_))));
        assert!(matches!(r.nonneg(&mut 0.0), Err(SnapshotError::Corrupt(_))));
        assert!(
            matches!(r.len_eq(2, "things"), Err(SnapshotError::Corrupt(m)) if m.contains("3 things"))
        );
        let mut dup = Vec::new();
        for kv in [1u64, 10, 1, 11] {
            dup.extend_from_slice(&kv.to_le_bytes());
        }
        let mut with_len = 2u64.to_le_bytes().to_vec();
        with_len.extend_from_slice(&dup);
        let mut m: HashMap<u64, u64> = HashMap::new();
        assert!(SnapReader::new(&with_len)
            .map(&mut m, |v, c| c.u64(v))
            .is_err());
    }

    #[test]
    fn nested_blobs_are_length_prefixed_and_fully_consumed() {
        let mut inner = sample();
        let mut w = SnapWriter::new();
        w.encode(|w| {
            w.nested(&mut inner, |f, w| w.encode(|w| f.snap(w)), |f, r| f.snap(r))?;
            w.u8(&mut 9)
        });
        let bytes = w.into_bytes();
        let mut back = Fields::default();
        let mut r = SnapReader::new(&bytes);
        r.nested(&mut back, |_, _| {}, |f, r| f.snap(r)).unwrap();
        assert_eq!(back, inner);
        // A loader that stops short is rejected, not silently accepted.
        let mut r = SnapReader::new(&bytes);
        assert!(r.nested(&mut (), |_, _| {}, |_, r| r.u8(&mut 0)).is_err());
    }

    #[test]
    fn failed_restore_leaves_target_untouched() {
        let mut target = sample();
        let bytes = [1u8, 2, 3];
        let err = SnapReader::new(&bytes).restore(&mut target, |f, r| f.snap(r));
        assert!(err.is_err());
        assert_eq!(target, sample());
    }

    #[test]
    fn container_round_trip() {
        let payload = b"some payload bytes".to_vec();
        let framed = encode_container(&payload);
        assert_eq!(decode_container(&framed).unwrap(), &payload[..]);
    }

    #[test]
    fn empty_file_is_rejected_without_panic() {
        // An empty prefix trivially matches the magic, so an empty file
        // reports as a truncation (zero bytes available), not BadMagic.
        assert!(matches!(
            decode_container(&[]),
            Err(SnapshotError::Truncated { available: 0, .. })
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut framed = encode_container(b"x");
        framed[0] = b'Z';
        assert!(matches!(
            decode_container(&framed),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_byte_is_rejected() {
        let mut framed = encode_container(b"x");
        framed[8] = 99;
        match decode_container(&framed) {
            Err(SnapshotError::BadVersion { found }) => assert_eq!(found, 99),
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncated_container_is_rejected() {
        let framed = encode_container(b"0123456789");
        // Cut the payload short.
        assert!(matches!(
            decode_container(&framed[..framed.len() - 3]),
            Err(SnapshotError::Truncated { .. })
        ));
        // Cut inside the header, after the magic.
        assert!(matches!(
            decode_container(&framed[..10]),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut framed = encode_container(b"checksum-protected payload");
        let last = framed.len() - 1;
        framed[last] ^= 0x01;
        assert!(matches!(
            decode_container(&framed),
            Err(SnapshotError::BadChecksum { .. })
        ));
    }

    #[test]
    fn flipped_crc_byte_fails_checksum() {
        let mut framed = encode_container(b"payload");
        framed[17] ^= 0xFF;
        assert!(matches!(
            decode_container(&framed),
            Err(SnapshotError::BadChecksum { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut framed = encode_container(b"payload");
        framed.push(0);
        assert!(matches!(
            decode_container(&framed),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn write_atomic_then_read_round_trips() {
        let dir = std::env::temp_dir().join(format!("snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        let payload = vec![42u8; 1000];
        write_atomic(&path, &payload).unwrap();
        assert_eq!(read_file(&path).unwrap(), payload);
        // Overwrite is atomic too: the temp file must be gone afterwards.
        write_atomic(&path, b"second").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"second");
        assert!(!dir.join("state.snap.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_missing_file_is_io_error() {
        let err = read_file(Path::new("/definitely/not/here.snap")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
        // And the error formats without panicking.
        let _ = format!("{err}");
    }
}
