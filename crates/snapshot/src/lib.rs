//! Versioned binary snapshot format for resumable engines.
//!
//! Long SA solves and long simulations need to survive daemon restarts
//! and migrate between cluster nodes. This crate defines the one wire
//! format both engines checkpoint into: a little-endian binary layout
//! with a magic tag, a format version gate, a kind string identifying
//! the producing engine, and a trailing FNV-1a integrity digest over
//! everything that precedes it.
//!
//! ```text
//! +-------+---------+------------------------------+--------+
//! | magic | version | kind (len-prefixed) + fields | digest |
//! | NSNP  | u16 LE  | engine-defined payload       | u64 LE |
//! +-------+---------+------------------------------+--------+
//! ```
//!
//! Reading validates in a fixed order — magic, version, digest, kind —
//! so a truncated, bit-flipped, or future-versioned snapshot always
//! yields a structured [`SnapshotError`] and never a panic or a
//! silently-wrong resume. Engines layer their own semantic checks
//! (config fingerprints, array lengths) on top via
//! [`SnapshotError::Mismatch`].
//!
//! The format is append-only within a version: readers consume exactly
//! the fields they wrote ([`Reader::finish`] rejects trailing payload
//! bytes), and any layout change bumps [`VERSION`].

#![warn(missing_docs)]

use noc_model::fingerprint::Fnv1a;
use std::fmt;

/// Magic tag opening every snapshot: `NSNP`.
pub const MAGIC: [u8; 4] = *b"NSNP";

/// Current snapshot format version. Any layout change bumps this; a
/// reader only accepts snapshots of exactly this version. Version 3
/// dropped the evaluator byte from `sa-chain`/`sa-job` parameters and the
/// active-input counts from `sim-batch`.
pub const VERSION: u16 = 3;

/// Structured failure when decoding a snapshot. Every malformed input
/// maps to one of these variants — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the declared content did.
    Truncated,
    /// The leading magic bytes are not `NSNP`.
    BadMagic,
    /// The snapshot was written by an unsupported format version.
    UnsupportedVersion {
        /// Version found in the snapshot header.
        found: u16,
        /// The single version this reader supports.
        supported: u16,
    },
    /// The trailing integrity digest does not match the content.
    DigestMismatch,
    /// A decoded field is semantically incompatible with the target
    /// engine (wrong kind, config fingerprint, dimensions, …).
    Mismatch {
        /// Which field failed validation.
        field: &'static str,
    },
    /// A decoded field holds a value the format forbids (e.g. a bool
    /// byte that is neither 0 nor 1, or an oversized length prefix).
    Corrupt {
        /// Which field was malformed.
        field: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            SnapshotError::DigestMismatch => write!(f, "snapshot integrity digest mismatch"),
            SnapshotError::Mismatch { field } => {
                write!(f, "snapshot does not match this engine: {field}")
            }
            SnapshotError::Corrupt { field } => write!(f, "corrupt snapshot field: {field}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Computes the trailing integrity digest over the framed bytes
/// (magic + version + payload).
fn content_digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::with_tag("noc-snapshot");
    h.write_bytes(bytes);
    h.finish()
}

/// Serialises one snapshot: fixed header, engine payload, trailing
/// digest. All multi-byte values are little-endian.
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a snapshot of the given engine `kind` (e.g. `"sa-job"`,
    /// `"sim-batch"`). The kind is the first payload field and is
    /// checked by [`Reader::new`].
    pub fn new(kind: &str) -> Self {
        let mut w = Writer {
            buf: Vec::with_capacity(256),
        };
        w.buf.extend_from_slice(&MAGIC);
        w.buf.extend_from_slice(&VERSION.to_le_bytes());
        w.write_str(kind);
        w
    }

    /// Appends one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u16.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn write_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a length prefix (u32 LE). Panics if `len` exceeds u32 —
    /// no in-repo snapshot approaches 4 Gi elements.
    pub fn write_len(&mut self, len: usize) {
        self.write_u32(u32::try_from(len).expect("snapshot sequence too long"));
    }

    /// Appends raw bytes with a length prefix.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_len(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a UTF-8 string with a length prefix.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Appends a u64 slice with a length prefix.
    pub fn write_u64s(&mut self, vs: &[u64]) {
        self.write_len(vs.len());
        for &v in vs {
            self.write_u64(v);
        }
    }

    /// Appends a u32 slice with a length prefix.
    pub fn write_u32s(&mut self, vs: &[u32]) {
        self.write_len(vs.len());
        for &v in vs {
            self.write_u32(v);
        }
    }

    /// Appends a bool slice with a length prefix.
    pub fn write_bools(&mut self, vs: &[bool]) {
        self.write_len(vs.len());
        for &v in vs {
            self.write_bool(v);
        }
    }

    /// Seals the snapshot: appends the integrity digest and returns the
    /// complete byte stream.
    pub fn finish(mut self) -> Vec<u8> {
        let digest = content_digest(&self.buf);
        self.buf.extend_from_slice(&digest.to_le_bytes());
        self.buf
    }
}

/// Decodes one snapshot, validating magic, version, digest, and kind up
/// front, then field by field. All reads bounds-check; none panic.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Opens a snapshot, validating in order: magic, version, trailing
    /// digest, then the kind string against `expected_kind`.
    pub fn new(bytes: &'a [u8], expected_kind: &str) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() + 2 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        if bytes.len() < MAGIC.len() + 2 + 8 {
            return Err(SnapshotError::Truncated);
        }
        let (content, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if content_digest(content) != stored {
            return Err(SnapshotError::DigestMismatch);
        }
        let mut r = Reader {
            bytes: content,
            pos: MAGIC.len() + 2,
        };
        let kind = r.read_str()?;
        if kind != expected_kind {
            return Err(SnapshotError::Mismatch { field: "kind" });
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn read_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an f64 from its IEEE-754 bit pattern.
    pub fn read_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a bool byte, rejecting anything but 0 or 1.
    pub fn read_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt { field: "bool byte" }),
        }
    }

    /// Reads a length prefix for a sequence of `elem_bytes`-sized
    /// elements, rejecting lengths the remaining bytes cannot hold
    /// (bounds the allocation a corrupt prefix could demand).
    pub fn read_len(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let len = self.read_u32()? as usize;
        let need = len
            .checked_mul(elem_bytes.max(1))
            .ok_or(SnapshotError::Corrupt {
                field: "length prefix",
            })?;
        match self.pos.checked_add(need) {
            Some(end) if end <= self.bytes.len() => {}
            _ => return Err(SnapshotError::Truncated),
        }
        Ok(len)
    }

    /// Reads a length-prefixed byte string.
    fn read_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.read_len(1)?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    fn read_str(&mut self) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.read_bytes()?).map_err(|_| SnapshotError::Corrupt {
            field: "utf-8 string",
        })
    }

    /// Reads a length-prefixed u64 slice.
    pub fn read_u64s(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let len = self.read_len(8)?;
        (0..len).map(|_| self.read_u64()).collect()
    }

    /// Reads a length-prefixed u32 slice.
    pub fn read_u32s(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let len = self.read_len(4)?;
        (0..len).map(|_| self.read_u32()).collect()
    }

    /// Reads a length-prefixed bool slice.
    pub fn read_bools(&mut self) -> Result<Vec<bool>, SnapshotError> {
        let len = self.read_len(1)?;
        (0..len).map(|_| self.read_bool()).collect()
    }

    /// Asserts every payload byte was consumed. A snapshot with extra
    /// payload was written by a different layout and must not resume.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt {
                field: "trailing payload bytes",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = Writer::new("test-kind");
        w.write_u64(0xDEAD_BEEF_u64);
        w.write_f64(1.5);
        w.write_bool(true);
        w.write_u64s(&[1, 2, 3]);
        w.write_str("hello");
        w.finish()
    }

    #[test]
    fn roundtrip() {
        let bytes = sample();
        let mut r = Reader::new(&bytes, "test-kind").unwrap();
        assert_eq!(r.read_u64().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_f64().unwrap(), 1.5);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.read_str().unwrap(), "hello");
        r.finish().unwrap();
    }

    #[test]
    fn wrong_kind_is_mismatch() {
        let bytes = sample();
        assert_eq!(
            Reader::new(&bytes, "other").unwrap_err(),
            SnapshotError::Mismatch { field: "kind" }
        );
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample();
        bytes[0] ^= 0xFF;
        assert_eq!(
            Reader::new(&bytes, "test-kind").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn version_gate() {
        let mut bytes = sample();
        bytes[4] = 99;
        bytes[5] = 0;
        // Re-sign so the digest passes were it checked first; the version
        // gate must still fire (it is checked before the digest).
        let n = bytes.len() - 8;
        let d = content_digest(&bytes[..n]);
        bytes[n..].copy_from_slice(&d.to_le_bytes());
        assert_eq!(
            Reader::new(&bytes, "test-kind").unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 99,
                supported: VERSION
            }
        );
    }

    #[test]
    fn bit_flip_breaks_digest() {
        let mut bytes = sample();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert_eq!(
            Reader::new(&bytes, "test-kind").unwrap_err(),
            SnapshotError::DigestMismatch
        );
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample();
        // Any truncation must fail at header validation: the digest covers
        // the whole stream, so a shorter stream cannot re-validate.
        for cut in 0..bytes.len() {
            assert!(
                Reader::new(&bytes[..cut], "test-kind").is_err(),
                "cut at {cut} was accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::new("k");
        w.write_u64(7);
        w.write_u64(8);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes, "k").unwrap();
        assert_eq!(r.read_u64().unwrap(), 7);
        assert_eq!(
            r.finish().unwrap_err(),
            SnapshotError::Corrupt {
                field: "trailing payload bytes"
            }
        );
    }

    #[test]
    fn oversized_length_prefix_is_bounded() {
        let mut w = Writer::new("k");
        w.write_u32(u32::MAX); // a length prefix the stream cannot hold
        let bytes = w.finish();
        let mut r = Reader::new(&bytes, "k").unwrap();
        assert!(r.read_u64s().is_err());
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut w = Writer::new("k");
        w.write_u8(2);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes, "k").unwrap();
        assert_eq!(
            r.read_bool().unwrap_err(),
            SnapshotError::Corrupt { field: "bool byte" }
        );
    }
}
