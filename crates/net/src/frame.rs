//! The length-prefixed, CRC-checked frame that carries every message.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic    0x434C5545 ("CLUE")
//!      4     1  version  1
//!      5     1  type     FrameType discriminant
//!      6     8  seq      sender-assigned sequence / correlation id
//!     14     4  len      payload length in bytes
//!     18   len  payload  type-specific encoding (see `wire`)
//!  18+len     4  crc      CRC-32 over bytes [0, 18+len)
//! ```
//!
//! The CRC covers the header *and* payload, so a corrupted length field
//! cannot silently resynchronize the stream on garbage: either the
//! oversized read fails or the checksum does. Decoding errors surface as
//! [`std::io::ErrorKind::InvalidData`], which receivers treat as fatal
//! for the connection (the stream has lost framing).

use std::io::{self, Read, Write};

use clue_core::crc::{self, crc32};

/// Frame magic: `"CLUE"` as a big-endian u32.
pub const MAGIC: u32 = 0x434C_5545;
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Fixed header size (magic + version + type + seq + len).
pub const HEADER_LEN: usize = 18;
/// Refuse payloads beyond this (a corrupt length would otherwise ask us
/// to allocate gigabytes before the CRC gets a chance to object).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Every message kind the protocol carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server greeting; payload = client's last acked seq.
    Hello = 1,
    /// Server → client; payload = server's high-water accepted seq.
    HelloAck = 2,
    /// Client → server batch of route updates; seq identifies the batch.
    Update = 3,
    /// Server → client; echoes the update seq, payload = accepted/dropped.
    UpdateAck = 4,
    /// Client → server batch of lookup addresses; seq correlates.
    Lookup = 5,
    /// Server → client lookup answers, in request order.
    LookupResult = 6,
    /// Client → server stats request (empty payload).
    StatsQuery = 7,
    /// Server → client; payload = stats JSON (UTF-8).
    StatsReply = 8,
    /// Liveness probe; seq is a nonce.
    Heartbeat = 9,
    /// Echoes the heartbeat nonce.
    HeartbeatAck = 10,
    /// Orderly close (either direction); no further frames follow.
    Shutdown = 11,
    /// Fatal protocol error; payload = UTF-8 message.
    Error = 12,
    /// Follower → primary replication greeting; payload = the
    /// follower's applied journal position (`u64::MAX` = no state,
    /// ship a snapshot first). Answered with [`FrameType::HelloAck`]
    /// whose payload is the journal position the stream resumes after.
    ReplicaHello = 13,
    /// Primary → follower snapshot transfer; seq = chunk index,
    /// payload = `is_last` byte + raw snapshot bytes (see
    /// [`crate::wire::encode_chunk`]).
    SnapshotChunk = 14,
    /// Primary → follower journal record; seq = the record's jseq,
    /// payload = the encoded `clue-store` WAL record. Acked with
    /// [`FrameType::UpdateAck`] echoing the jseq.
    WalShip = 15,
    /// Client → proxy shard-map request (empty payload).
    ShardMapQuery = 16,
    /// Proxy → client; payload = the encoded versioned shard map.
    ShardMapReply = 17,
    /// Proxy → standby: take over as primary (empty payload).
    Promote = 18,
    /// Standby → proxy; payload = u64 sequence high-water the promoted
    /// node resumes client acks from.
    PromoteAck = 19,
}

impl FrameType {
    /// Decodes a wire discriminant.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<FrameType> {
        use FrameType::*;
        Some(match v {
            1 => Hello,
            2 => HelloAck,
            3 => Update,
            4 => UpdateAck,
            5 => Lookup,
            6 => LookupResult,
            7 => StatsQuery,
            8 => StatsReply,
            9 => Heartbeat,
            10 => HeartbeatAck,
            11 => Shutdown,
            12 => Error,
            13 => ReplicaHello,
            14 => SnapshotChunk,
            15 => WalShip,
            16 => ShardMapQuery,
            17 => ShardMapReply,
            18 => Promote,
            19 => PromoteAck,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind.
    pub kind: FrameType,
    /// Sequence / correlation id (meaning depends on `kind`).
    pub seq: u64,
    /// Type-specific payload bytes (see [`crate::wire`]).
    pub payload: Vec<u8>,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Frame {
    /// A frame with an empty payload.
    #[must_use]
    pub fn empty(kind: FrameType, seq: u64) -> Frame {
        Frame {
            kind,
            seq,
            payload: Vec::new(),
        }
    }

    /// An `Error` frame carrying `msg`; by the frame handler contract
    /// it is the last frame on its connection.
    #[must_use]
    pub fn error(seq: u64, msg: impl std::fmt::Display) -> Frame {
        Frame {
            kind: FrameType::Error,
            seq,
            payload: msg.to_string().into_bytes(),
        }
    }

    /// Serializes header + payload + CRC into one buffer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.payload.len() <= MAX_PAYLOAD as usize,
            "payload of {} bytes exceeds MAX_PAYLOAD",
            self.payload.len()
        );
        let mut buf = Vec::with_capacity(HEADER_LEN + self.payload.len() + 4);
        buf.extend_from_slice(&MAGIC.to_be_bytes());
        buf.push(VERSION);
        buf.push(self.kind as u8);
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(&self.payload);
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_be_bytes());
        buf
    }

    /// Writes the encoded frame to `w` (single `write_all`).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Reads and validates one frame from `r`.
    ///
    /// Returns `ErrorKind::UnexpectedEof` on a clean close at a frame
    /// boundary and `ErrorKind::InvalidData` on bad magic/version/type,
    /// an oversized length, or a CRC mismatch.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Frame> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;

        let magic = u32::from_be_bytes(header[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(bad(format!("bad magic {magic:#010x}")));
        }
        let version = header[4];
        if version != VERSION {
            return Err(bad(format!("unsupported protocol version {version}")));
        }
        let kind = FrameType::from_u8(header[5])
            .ok_or_else(|| bad(format!("unknown frame type {}", header[5])))?;
        let seq = u64::from_be_bytes(header[6..14].try_into().unwrap());
        let len = u32::from_be_bytes(header[14..18].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(bad(format!("payload length {len} exceeds {MAX_PAYLOAD}")));
        }

        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        let mut crc_bytes = [0u8; 4];
        r.read_exact(&mut crc_bytes)?;
        let got = u32::from_be_bytes(crc_bytes);

        let expect = {
            let state = crc::update(0xFFFF_FFFF, &header);
            crc::update(state, &payload) ^ 0xFFFF_FFFF
        };
        if got != expect {
            return Err(bad(format!(
                "crc mismatch: got {got:#010x}, want {expect:#010x}"
            )));
        }
        Ok(Frame { kind, seq, payload })
    }
}

impl Frame {
    /// Attempts to decode one frame from the front of `buf` without
    /// blocking: the incremental counterpart of [`Frame::read_from`]
    /// for nonblocking sockets, where a frame arrives in arbitrary
    /// slices.
    ///
    /// Returns `Ok(Some((frame, consumed)))` when a complete valid
    /// frame sits at the front, `Ok(None)` when more bytes are needed,
    /// and `Err(InvalidData)` as soon as the prefix *cannot* become a
    /// valid frame — bad magic bytes, version, type, or an oversized
    /// length fail before the rest of the frame (or even the rest of
    /// the header) arrives, so garbage is rejected without being
    /// buffered to a frame boundary that will never come.
    ///
    /// # Errors
    ///
    /// `ErrorKind::InvalidData` exactly where [`Frame::read_from`]
    /// would fail: bad magic/version/type, oversized length, or CRC
    /// mismatch.
    pub fn try_decode(buf: &[u8]) -> io::Result<Option<(Frame, usize)>> {
        // Validate the fixed fields as their bytes arrive.
        let magic_bytes = MAGIC.to_be_bytes();
        for (i, &b) in buf.iter().take(4).enumerate() {
            if b != magic_bytes[i] {
                let got = u32::from_be_bytes([
                    *buf.first().unwrap_or(&0),
                    *buf.get(1).unwrap_or(&0),
                    *buf.get(2).unwrap_or(&0),
                    *buf.get(3).unwrap_or(&0),
                ]);
                return Err(bad(format!("bad magic {got:#010x}")));
            }
        }
        if let Some(&version) = buf.get(4) {
            if version != VERSION {
                return Err(bad(format!("unsupported protocol version {version}")));
            }
        }
        let kind = match buf.get(5) {
            None => return Ok(None),
            Some(&t) => {
                FrameType::from_u8(t).ok_or_else(|| bad(format!("unknown frame type {t}")))?
            }
        };
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let seq = u64::from_be_bytes(buf[6..14].try_into().unwrap());
        let len = u32::from_be_bytes(buf[14..18].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(bad(format!("payload length {len} exceeds {MAX_PAYLOAD}")));
        }
        let total = HEADER_LEN + len as usize + 4;
        if buf.len() < total {
            return Ok(None);
        }
        let got = u32::from_be_bytes(buf[total - 4..total].try_into().unwrap());
        let expect = crc32(&buf[..total - 4]);
        if got != expect {
            return Err(bad(format!(
                "crc mismatch: got {got:#010x}, want {expect:#010x}"
            )));
        }
        Ok(Some((
            Frame {
                kind,
                seq,
                payload: buf[HEADER_LEN..total - 4].to_vec(),
            },
            total,
        )))
    }
}

/// What one [`FrameDecoder::fill_from`] asks the socket for beyond the
/// frame being decoded: a dozen 64-address lookups or replies (≤ 342 B
/// each), and so also the most a blocking reader holds undecoded while
/// its connection is paused.
const READ_CHUNK: usize = 4096;

/// Per-connection incremental frame decoder: feed byte slices as the
/// socket produces them, pull complete frames out.
///
/// Equivalent to [`Frame::read_from`] over the concatenation of
/// everything fed (the equivalence is property-tested against the
/// corruption corpus), but never blocks and never needs the stream
/// positioned at a frame boundary. A decode error is sticky — once the
/// stream has lost framing every subsequent poll reports the same
/// error, matching the connection-fatal semantics of the blocking
/// path.
///
/// It also backs every blocking read: [`FrameDecoder::read_frame`]
/// pulls whatever the socket has ready in one `read` call per chunk,
/// so a frame that arrived whole costs one `recv`, not the three
/// (header, payload, CRC) of [`Frame::read_from`].
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// `[pos, end)` is fed and not yet decoded; `[end, len)` is read
    /// space kept for [`FrameDecoder::fill_from`] (its contents are
    /// meaningless).
    buf: Vec<u8>,
    /// Consumed prefix, compacted lazily so per-frame drains stay O(1)
    /// amortized.
    pos: usize,
    end: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw socket bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.truncate(self.end);
        self.buf.extend_from_slice(bytes);
        self.end = self.buf.len();
    }

    /// Makes exactly one `read` call on `r`, appending what it returns:
    /// the rest of the frame at the front if its header is in, and at
    /// least one chunk. `Ok(0)` is end of stream.
    ///
    /// # Errors
    ///
    /// Whatever the `read` call returns.
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        if self.pos > 0 {
            // Only a partial frame is left: move it to the front so the
            // read space is reused instead of grown.
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        let want = READ_CHUNK.max(self.missing());
        if self.buf.len() < self.end + want {
            self.buf.resize(self.end + want, 0);
        }
        let n = r.read(&mut self.buf[self.end..self.end + want])?;
        self.end += n;
        Ok(n)
    }

    /// Bytes still missing from the frame at the front once its header
    /// has arrived (0 before that, and for a length
    /// [`FrameDecoder::poll_frame`] will refuse).
    fn missing(&self) -> usize {
        let pending = &self.buf[self.pos..self.end];
        if pending.len() < HEADER_LEN {
            return 0;
        }
        let len = u32::from_be_bytes(pending[14..18].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return 0;
        }
        (HEADER_LEN + len as usize + 4).saturating_sub(pending.len())
    }

    /// Reads the next frame from a blocking `r`: a frame already
    /// buffered costs no `read` call, one that arrives whole costs one.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the stream ends (at a frame boundary or
    /// not), `InvalidData` when it has lost framing, and any other
    /// error of the `read` call (`Interrupted` is retried).
    pub fn read_frame<R: Read>(&mut self, r: &mut R) -> io::Result<Frame> {
        loop {
            if let Some(frame) = self.poll_frame()? {
                return Ok(frame);
            }
            match self.fill_from(r) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Bytes fed but not yet decoded into frames.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.end - self.pos
    }

    /// Pulls the next complete frame, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// `ErrorKind::InvalidData` once the stream cannot decode (sticky:
    /// repeats on every later call).
    pub fn poll_frame(&mut self) -> io::Result<Option<Frame>> {
        if self.poisoned {
            return Err(bad("frame stream previously lost framing".to_string()));
        }
        match Frame::try_decode(&self.buf[self.pos..self.end]) {
            Ok(Some((frame, used))) => {
                self.pos += used;
                if self.pos == self.end {
                    (self.pos, self.end) = (0, 0);
                } else if self.pos > 4096 && self.pos * 2 >= self.end {
                    self.buf.copy_within(self.pos..self.end, 0);
                    self.end -= self.pos;
                    self.pos = 0;
                }
                Ok(Some(frame))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_a_byte_stream() {
        let frames = [
            Frame::empty(FrameType::Heartbeat, 7),
            Frame {
                kind: FrameType::Update,
                seq: u64::MAX,
                payload: (0..=255u8).collect(),
            },
            Frame {
                kind: FrameType::Error,
                seq: 0,
                payload: b"boom".to_vec(),
            },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            f.write_to(&mut stream).unwrap();
        }
        let mut r = &stream[..];
        for f in &frames {
            assert_eq!(&Frame::read_from(&mut r).unwrap(), f);
        }
        assert_eq!(
            Frame::read_from(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let frame = Frame {
            kind: FrameType::Lookup,
            seq: 42,
            payload: vec![1, 2, 3, 4, 5, 6, 7, 8],
        };
        let bytes = frame.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let err = Frame::read_from(&mut &bad[..]).expect_err("corruption must not decode");
            // Either framing rejects it outright or the CRC catches it;
            // a corrupted length can also truncate into EOF.
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "byte {i}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let frame = Frame::empty(FrameType::StatsQuery, 1);
        let mut bytes = frame.encode();
        // Forge the length field to 1 GiB; CRC would also fail, but the
        // length guard must fire first (no 1 GiB allocation attempt).
        bytes[14..18].copy_from_slice(&(1u32 << 30).to_be_bytes());
        let err = Frame::read_from(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn every_type_round_trips_its_discriminant() {
        for v in 1..=19u8 {
            let t = FrameType::from_u8(v).unwrap();
            assert_eq!(t as u8, v);
        }
        assert_eq!(FrameType::from_u8(0), None);
        assert_eq!(FrameType::from_u8(20), None);
    }
}
