//! # p3gm-store
//!
//! Versioned binary snapshot codec for the P3GM workspace.
//!
//! P3GM's whole value proposition (paper §IV) is that the expensive
//! differentially private training is paid **once** and the trained
//! generative model is then sampled from arbitrarily often as
//! post-processing, at zero additional privacy cost. That only works in
//! practice if the trained model can outlive the process that trained it:
//! this crate provides the byte format every persisted layer of the
//! workspace (`Matrix`, `Mlp`, `Gmm`, the preprocess
//! transforms, and the top-level `PhasedGenerativeModel` snapshot) encodes
//! itself with via `to_bytes` / `from_bytes` surfaces.
//!
//! The workspace builds offline with no serde, so the codec is hand-rolled
//! on `std` alone. Design goals, in order: **never panic on untrusted
//! bytes** (every failure is a typed [`StoreError`]), **detect corruption**
//! (a CRC-32 over the entire buffer), **stay versioned** (a format version
//! and a per-type tag in every buffer), and **round-trip bit-exactly**
//! (`f64` values travel as their IEEE-754 bit patterns).
//!
//! ## Buffer layout
//!
//! Every `to_bytes` buffer is self-contained and framed identically:
//!
//! | Offset          | Size | Field                                         |
//! |-----------------|------|-----------------------------------------------|
//! | 0               | 4    | Magic `b"P3GM"`                               |
//! | 4               | 4    | Format version (`u32` LE, [`FORMAT_VERSION`]) |
//! | 8               | 4    | Type tag (`u32` LE, see [`tags`])             |
//! | 12              | 8    | Payload length `L` (`u64` LE)                 |
//! | 20              | `L`  | Payload (length-prefixed fields, see below)   |
//! | 20 + `L`        | 4    | CRC-32 (IEEE) of bytes `0 .. 20 + L` (LE)     |
//!
//! Payload fields are written in a fixed per-type order using the
//! primitives of [`Encoder`]: integers and `f64` bit patterns as
//! little-endian fixed-width values, booleans as one byte, and every
//! variable-length field (`f64` slices, nested buffers) prefixed with its
//! `u64` length. Nested types (e.g. the `Matrix` inside a `Gmm`) are
//! embedded as their own complete framed buffer via [`Encoder::nested`],
//! so each layer validates independently. This layering is a deliberate
//! trade-off: the bulk `f64` data is copied and CRC'd once per nesting
//! level (3–4 passes for a full model snapshot), bounded by the table-
//! driven [`crc32`], in exchange for every layer's buffer being usable,
//! versioned and checkable on its own.
//!
//! ## Decoding discipline
//!
//! [`Decoder::new`] validates the frame before any field is read: length,
//! magic, version, tag, payload length, then checksum. Field reads are
//! bounds-checked and a type's `from_bytes` finishes with
//! [`Decoder::finish`], which rejects trailing payload bytes. Truncated,
//! bit-flipped, wrong-tag and future-version buffers therefore all fail
//! with a typed error — never a panic and never a silently wrong value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Magic bytes opening every snapshot buffer.
pub const MAGIC: [u8; 4] = *b"P3GM";

/// Current snapshot format version. Bump on any layout change; readers
/// reject buffers with a different version.
pub const FORMAT_VERSION: u32 = 1;

/// Byte length of the fixed frame header (magic + version + tag +
/// payload length).
pub const HEADER_LEN: usize = 20;

/// Byte length of the trailing CRC-32 field.
pub const CHECKSUM_LEN: usize = 4;

/// Type tags identifying what a buffer encodes.
///
/// Tags are part of the wire format: never reuse or renumber an existing
/// tag; append new ones.
pub mod tags {
    /// `p3gm_linalg::Matrix`.
    pub const MATRIX: u32 = 1;
    /// `p3gm_nn::mlp::Mlp`.
    pub const MLP: u32 = 2;
    /// Reserved: the retired `Conv2d` layer's buffers. Never reuse it.
    pub const CONV2D: u32 = 3;
    /// `p3gm_mixture::Gmm`.
    pub const GMM: u32 = 4;
    /// `p3gm_preprocess::pca::Pca`.
    pub const PCA: u32 = 5;
    /// `p3gm_preprocess::pca::DpPca`.
    pub const DP_PCA: u32 = 6;
    /// `p3gm_preprocess::scaler::MinMaxScaler`.
    pub const MIN_MAX_SCALER: u32 = 7;
    /// `p3gm_preprocess::scaler::StandardScaler`.
    pub const STANDARD_SCALER: u32 = 8;
    /// `p3gm_preprocess::encoding::OneHotEncoder`.
    pub const ONE_HOT_ENCODER: u32 = 9;
    /// `p3gm_privacy::rdp::PrivacySpec`.
    pub const PRIVACY_SPEC: u32 = 10;
    /// `p3gm_core::pgm::PhasedGenerativeModel`.
    pub const PGM_MODEL: u32 = 11;
    /// `p3gm_core::synthesis::LabelledSynthesizer`.
    pub const LABELLED_SYNTHESIZER: u32 = 12;
    /// `p3gm_core::snapshot::SynthesisSnapshot`.
    pub const SYNTHESIS_SNAPSHOT: u32 = 13;
    /// `p3gm_server::ledger::BudgetLedger`.
    pub const BUDGET_LEDGER: u32 = 14;
}

/// Errors produced while decoding a snapshot buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The buffer ended before a read could complete.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The buffer does not start with the `P3GM` magic.
    BadMagic,
    /// The buffer was written by an unsupported format version.
    UnsupportedVersion {
        /// Version found in the buffer.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The buffer encodes a different type than the caller expected.
    WrongTag {
        /// Tag the caller expected.
        expected: u32,
        /// Tag found in the buffer.
        found: u32,
    },
    /// The trailing CRC-32 does not match the buffer contents.
    ChecksumMismatch {
        /// Checksum recomputed from the buffer contents.
        computed: u32,
        /// Checksum stored in the buffer.
        stored: u32,
    },
    /// The payload decoded cleanly but left unread bytes behind.
    TrailingBytes {
        /// Number of unread payload bytes.
        count: usize,
    },
    /// The payload violates a semantic invariant of the encoded type.
    Invalid {
        /// Description of the violated invariant.
        msg: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated buffer: needed {needed} bytes, had {available}"
                )
            }
            StoreError::BadMagic => write!(f, "not a P3GM snapshot (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (supported: {supported})"
                )
            }
            StoreError::WrongTag { expected, found } => {
                write!(f, "wrong type tag: expected {expected}, found {found}")
            }
            StoreError::ChecksumMismatch { computed, stored } => write!(
                f,
                "checksum mismatch: computed {computed:#010x}, stored {stored:#010x}"
            ),
            StoreError::TrailingBytes { count } => {
                write!(f, "{count} trailing payload bytes after decoding")
            }
            StoreError::Invalid { msg } => write!(f, "invalid payload: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Byte-indexed lookup table for the reflected CRC-32 polynomial,
/// computed at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`,
/// table-driven (one lookup per byte — snapshots carry bulk `f64` weight
/// data, so the checksum pass is on the save/load hot path).
///
/// Exposed so tests and tools can re-frame buffers (e.g. to craft a
/// version-mismatch fixture with a valid checksum).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The frame header of a snapshot buffer, decoded without touching the
/// payload: what type the buffer claims to hold and how long it claims
/// to be.
///
/// This is the cheap half of the codec: [`peek_frame`] needs only the
/// first [`HEADER_LEN`] bytes of a buffer (or file), so a caller can
/// learn a snapshot's tag and total framed length — and decide whether
/// to pay for the full, checksummed decode — from a bounded read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Format version stored in the frame (always [`FORMAT_VERSION`] —
    /// other versions are rejected by [`peek_frame`] itself).
    pub version: u32,
    /// Type tag (see [`tags`]).
    pub tag: u32,
    /// Payload length `L` the frame claims.
    pub payload_len: u64,
}

impl FrameInfo {
    /// Total byte length of the framed buffer this header describes
    /// (header + payload + checksum), or `None` if it overflows `usize`.
    pub fn framed_len(&self) -> Option<usize> {
        usize::try_from(self.payload_len)
            .ok()
            .and_then(|p| p.checked_add(HEADER_LEN + CHECKSUM_LEN))
    }
}

/// Little-endian `u32` from the first four bytes of `bytes`. Slice
/// patterns make this total: short input is a typed [`StoreError`],
/// never a panic — the decode paths run on untrusted bytes.
fn le_u32(bytes: &[u8]) -> Result<u32> {
    match bytes {
        [a, b, c, d, ..] => Ok(u32::from_le_bytes([*a, *b, *c, *d])),
        _ => Err(StoreError::Truncated {
            needed: 4,
            available: bytes.len(),
        }),
    }
}

/// Little-endian `u64` from the first eight bytes of `bytes`; total for
/// the same reason as [`le_u32`].
fn le_u64(bytes: &[u8]) -> Result<u64> {
    match bytes {
        [a, b, c, d, e, f, g, h, ..] => Ok(u64::from_le_bytes([*a, *b, *c, *d, *e, *f, *g, *h])),
        _ => Err(StoreError::Truncated {
            needed: 8,
            available: bytes.len(),
        }),
    }
}

/// Decodes the frame header from the leading bytes of a buffer: magic,
/// version, tag, payload length. `bytes` may be any prefix of the full
/// buffer as long as it covers the [`HEADER_LEN`]-byte header.
///
/// No checksum is verified — the CRC lives at the *end* of the buffer,
/// which a header peek deliberately never reads. Corruption in the
/// peeked region is caught only by the magic/version checks and by the
/// semantic validation of whatever fields the caller goes on to read;
/// the full-decode path ([`Decoder::new`]) remains the integrity
/// authority.
pub fn peek_frame(bytes: &[u8]) -> Result<FrameInfo> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    if bytes[..4] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = le_u32(&bytes[4..])?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let tag = le_u32(&bytes[8..])?;
    let payload_len = le_u64(&bytes[12..])?;
    Ok(FrameInfo {
        version,
        tag,
        payload_len,
    })
}

/// Builds one framed snapshot buffer (see the crate docs for the layout).
///
/// Create with the type's tag, write the payload fields in their fixed
/// order, and call [`Encoder::finish`] to patch the payload length and
/// append the checksum.
#[derive(Debug)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Starts a buffer for the given type tag.
    pub fn new(tag: u32) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&tag.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // payload length, patched in finish()
        Encoder { buf }
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Writes a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Writes a boolean as one byte (`0` / `1`).
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round trip,
    /// NaN payloads and signed zeros included).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Writes a length-prefixed slice of `f64` bit patterns.
    pub fn f64_slice(&mut self, values: &[f64]) -> &mut Self {
        self.usize(values.len());
        for &v in values {
            self.f64(v);
        }
        self
    }

    /// Writes a length-prefixed nested buffer (a complete framed buffer
    /// produced by another type's `to_bytes`).
    pub fn nested(&mut self, bytes: &[u8]) -> &mut Self {
        self.usize(bytes.len());
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Writes a length-prefixed UTF-8 string (byte length, then the bytes).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Patches the payload length and appends the CRC-32, returning the
    /// finished buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let payload_len = (self.buf.len() - HEADER_LEN) as u64;
        self.buf[12..20].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Reads one framed snapshot buffer, validating the frame up front and
/// bounds-checking every field read.
#[derive(Debug)]
pub struct Decoder<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Validates the frame (magic, version, tag, payload length, checksum)
    /// and positions the decoder at the start of the payload.
    pub fn new(bytes: &'a [u8], expected_tag: u32) -> Result<Self> {
        if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
            return Err(StoreError::Truncated {
                needed: HEADER_LEN + CHECKSUM_LEN,
                available: bytes.len(),
            });
        }
        if bytes[..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = le_u32(&bytes[4..])?;
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let tag = le_u32(&bytes[8..])?;
        if tag != expected_tag {
            return Err(StoreError::WrongTag {
                expected: expected_tag,
                found: tag,
            });
        }
        let payload_len = le_u64(&bytes[12..])?;
        let payload_len: usize = payload_len.try_into().map_err(|_| StoreError::Truncated {
            needed: usize::MAX,
            available: bytes.len(),
        })?;
        let framed_len = HEADER_LEN
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(CHECKSUM_LEN))
            .ok_or(StoreError::Truncated {
                needed: usize::MAX,
                available: bytes.len(),
            })?;
        if bytes.len() < framed_len {
            return Err(StoreError::Truncated {
                needed: framed_len,
                available: bytes.len(),
            });
        }
        if bytes.len() > framed_len {
            return Err(StoreError::TrailingBytes {
                count: bytes.len() - framed_len,
            });
        }
        let body = &bytes[..HEADER_LEN + payload_len];
        let stored = le_u32(&bytes[HEADER_LEN + payload_len..])?;
        let computed = crc32(body);
        if computed != stored {
            return Err(StoreError::ChecksumMismatch { computed, stored });
        }
        Ok(Decoder {
            payload: &bytes[HEADER_LEN..HEADER_LEN + payload_len],
            pos: 0,
        })
    }

    /// Positions a decoder over the **prefix** of a framed buffer for
    /// header peeking: validates magic, version and tag (via
    /// [`peek_frame`]) and exposes however much of the payload `bytes`
    /// actually carries, capped at the frame's declared payload length.
    ///
    /// Unlike [`Decoder::new`], this neither requires the complete
    /// buffer nor verifies the checksum — it is the read path for
    /// *metadata peeks* (leading geometry/config fields) where decoding
    /// the multi-megabyte weight payload just to list a model would
    /// defeat the point. Every field read remains bounds-checked
    /// against the available prefix (a read past it is a typed
    /// [`StoreError::Truncated`]), and [`Decoder::finish`] must **not**
    /// be called on a prefix decoder (the unread weight payload is the
    /// whole point). Integrity-critical decodes must keep using
    /// [`Decoder::new`].
    pub fn over_prefix(bytes: &'a [u8], expected_tag: u32) -> Result<Self> {
        let info = peek_frame(bytes)?;
        if info.tag != expected_tag {
            return Err(StoreError::WrongTag {
                expected: expected_tag,
                found: info.tag,
            });
        }
        let available = bytes.len() - HEADER_LEN;
        let payload_len = usize::try_from(info.payload_len)
            .unwrap_or(usize::MAX)
            .min(available);
        Ok(Decoder {
            payload: &bytes[HEADER_LEN..HEADER_LEN + payload_len],
            pos: 0,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let available = self.payload.len() - self.pos;
        if available < n {
            return Err(StoreError::Truncated {
                needed: n,
                available,
            });
        }
        let slice = &self.payload[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` (little-endian).
    pub fn u32(&mut self) -> Result<u32> {
        le_u32(self.take(4)?)
    }

    /// Reads a `u64` (little-endian).
    pub fn u64(&mut self) -> Result<u64> {
        le_u64(self.take(8)?)
    }

    /// Reads a `u64` and converts it to `usize`.
    pub fn usize(&mut self) -> Result<usize> {
        self.u64()?.try_into().map_err(|_| StoreError::Invalid {
            msg: "length does not fit in usize".to_string(),
        })
    }

    /// Reads a boolean, rejecting any byte other than `0` / `1`.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::Invalid {
                msg: format!("invalid boolean byte {other}"),
            }),
        }
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>> {
        let len = self.usize()?;
        let available = self.payload.len() - self.pos;
        // Bound the allocation by the bytes actually present so a crafted
        // length cannot trigger an out-of-memory allocation.
        if len > available / 8 {
            return Err(StoreError::Truncated {
                needed: len.saturating_mul(8),
                available,
            });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed nested buffer.
    pub fn nested(&mut self) -> Result<&'a [u8]> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string written by [`Encoder::str`].
    /// Invalid UTF-8 is a typed [`StoreError::Invalid`]; the length is
    /// bounds-checked against the remaining payload before any allocation.
    pub fn string(&mut self) -> Result<String> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| StoreError::Invalid {
                msg: format!("invalid UTF-8 in string field: {e}"),
            })
    }

    /// Number of unread payload bytes.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    /// Finishes decoding, rejecting unread payload bytes.
    pub fn finish(self) -> Result<()> {
        if self.pos != self.payload.len() {
            return Err(StoreError::TrailingBytes {
                count: self.payload.len() - self.pos,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_buffer() -> Vec<u8> {
        let mut enc = Encoder::new(tags::MATRIX);
        enc.u64(3).bool(true).f64(1.5).f64_slice(&[0.25, -0.5]);
        enc.finish()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for CRC-32 (IEEE).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_primitives() {
        let bytes = sample_buffer();
        let mut dec = Decoder::new(&bytes, tags::MATRIX).unwrap();
        assert_eq!(dec.u64().unwrap(), 3);
        assert!(dec.bool().unwrap());
        assert_eq!(dec.f64().unwrap(), 1.5);
        assert_eq!(dec.f64_vec().unwrap(), vec![0.25, -0.5]);
        dec.finish().unwrap();
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e-300,
        ] {
            let mut enc = Encoder::new(7);
            enc.f64(v);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes, 7).unwrap();
            assert_eq!(dec.f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn nested_buffers_embed_and_extract() {
        let inner = sample_buffer();
        let mut enc = Encoder::new(tags::GMM);
        enc.nested(&inner).u8(9);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes, tags::GMM).unwrap();
        assert_eq!(dec.nested().unwrap(), inner.as_slice());
        assert_eq!(dec.u8().unwrap(), 9);
        dec.finish().unwrap();
    }

    #[test]
    fn peek_frame_reads_the_header_from_a_bounded_prefix() {
        let bytes = sample_buffer();
        let info = peek_frame(&bytes[..HEADER_LEN]).unwrap();
        assert_eq!(info.tag, tags::MATRIX);
        assert_eq!(info.version, FORMAT_VERSION);
        assert_eq!(info.framed_len(), Some(bytes.len()));
        // The full buffer peeks identically.
        assert_eq!(peek_frame(&bytes).unwrap(), info);
        // Too short a prefix is a typed truncation, never a panic.
        for cut in 0..HEADER_LEN {
            assert!(matches!(
                peek_frame(&bytes[..cut]),
                Err(StoreError::Truncated { .. })
            ));
        }
        // Magic and version are still enforced on the peek path.
        let mut bad = bytes.clone();
        bad[1] = b'!';
        assert_eq!(peek_frame(&bad), Err(StoreError::BadMagic));
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
        assert!(matches!(
            peek_frame(&bad),
            Err(StoreError::UnsupportedVersion { found, .. }) if found == FORMAT_VERSION + 7
        ));
    }

    #[test]
    fn prefix_decoder_reads_leading_fields_without_the_tail() {
        let bytes = sample_buffer();
        // Drop the checksum and most of the payload: the leading u64 and
        // bool are still readable, exactly as a full decode would see them.
        let mut dec = Decoder::over_prefix(&bytes[..HEADER_LEN + 9], tags::MATRIX).unwrap();
        assert_eq!(dec.u64().unwrap(), 3);
        assert!(dec.bool().unwrap());
        // Reading past the available prefix is a typed truncation.
        assert!(matches!(dec.f64(), Err(StoreError::Truncated { .. })));
        // The tag is enforced.
        assert!(matches!(
            Decoder::over_prefix(&bytes, tags::GMM),
            Err(StoreError::WrongTag { .. })
        ));
        // A prefix longer than the declared payload is capped at the
        // frame's own length: trailing junk past the checksum is ignored.
        let mut extended = bytes.clone();
        extended.extend_from_slice(b"junk");
        let mut dec = Decoder::over_prefix(&extended, tags::MATRIX).unwrap();
        assert_eq!(dec.u64().unwrap(), 3);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_buffer();
        bytes[0] = b'X';
        assert_eq!(
            Decoder::new(&bytes, tags::MATRIX).unwrap_err(),
            StoreError::BadMagic
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample_buffer();
        // Patch the version and re-frame with a valid checksum so the error
        // is specifically the version, not the checksum.
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let body_len = bytes.len() - CHECKSUM_LEN;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Decoder::new(&bytes, tags::MATRIX).unwrap_err(),
            StoreError::UnsupportedVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn wrong_tag_is_rejected() {
        let bytes = sample_buffer();
        assert_eq!(
            Decoder::new(&bytes, tags::GMM).unwrap_err(),
            StoreError::WrongTag {
                expected: tags::GMM,
                found: tags::MATRIX
            }
        );
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample_buffer();
        for cut in 0..bytes.len() {
            assert!(
                Decoder::new(&bytes[..cut], tags::MATRIX).is_err(),
                "prefix of length {cut} accepted"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = sample_buffer();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            assert!(
                Decoder::new(&corrupted, tags::MATRIX).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_buffer();
        bytes.push(0);
        assert_eq!(
            Decoder::new(&bytes, tags::MATRIX).unwrap_err(),
            StoreError::TrailingBytes { count: 1 }
        );
    }

    #[test]
    fn unread_payload_is_rejected_by_finish() {
        let bytes = sample_buffer();
        let mut dec = Decoder::new(&bytes, tags::MATRIX).unwrap();
        let _ = dec.u64().unwrap();
        assert!(matches!(
            dec.finish().unwrap_err(),
            StoreError::TrailingBytes { .. }
        ));
    }

    #[test]
    fn oversized_vec_length_is_rejected_without_allocating() {
        let mut enc = Encoder::new(1);
        enc.u64(u64::MAX); // claims a vec of u64::MAX f64s
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes, 1).unwrap();
        assert!(dec.f64_vec().is_err());
    }

    #[test]
    fn string_round_trip_and_invalid_utf8() {
        let mut enc = Encoder::new(tags::BUDGET_LEDGER);
        enc.str("adult-v3").str("").str("ε δ 日本語");
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes, tags::BUDGET_LEDGER).unwrap();
        assert_eq!(dec.string().unwrap(), "adult-v3");
        assert_eq!(dec.string().unwrap(), "");
        assert_eq!(dec.string().unwrap(), "ε δ 日本語");
        dec.finish().unwrap();

        // A length-prefixed byte run that is not UTF-8 is a typed error.
        let mut enc = Encoder::new(tags::BUDGET_LEDGER);
        enc.usize(2).u8(0xFF).u8(0xFE);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes, tags::BUDGET_LEDGER).unwrap();
        assert!(matches!(
            dec.string().unwrap_err(),
            StoreError::Invalid { .. }
        ));

        // A crafted length larger than the payload is Truncated, checked
        // before any allocation.
        let mut enc = Encoder::new(tags::BUDGET_LEDGER);
        enc.u64(u64::MAX);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes, tags::BUDGET_LEDGER).unwrap();
        assert!(matches!(
            dec.string().unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let mut enc = Encoder::new(1);
        enc.u8(2);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes, 1).unwrap();
        assert!(matches!(
            dec.bool().unwrap_err(),
            StoreError::Invalid { .. }
        ));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(StoreError::BadMagic.to_string().contains("magic"));
        assert!(StoreError::Truncated {
            needed: 8,
            available: 3
        }
        .to_string()
        .contains("truncated"));
        assert!(StoreError::UnsupportedVersion {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains("version 9"));
        assert!(StoreError::ChecksumMismatch {
            computed: 1,
            stored: 2
        }
        .to_string()
        .contains("checksum"));
        assert!(StoreError::WrongTag {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("tag"));
        assert!(StoreError::TrailingBytes { count: 3 }
            .to_string()
            .contains("3"));
        assert!(StoreError::Invalid { msg: "neg".into() }
            .to_string()
            .contains("neg"));
    }
}
