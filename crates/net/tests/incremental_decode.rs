//! Satellite coverage for the incremental frame decoder: byte-at-a-time
//! feeds, adversarial split points (mid-header, mid-payload, mid-CRC),
//! and equivalence with the blocking [`Frame::read_from`] over the
//! shared corruption corpus families (mirroring
//! `crates/store/tests/corruption.rs`).

use std::io::ErrorKind;

use clue_core::codec::encode_updates;
use clue_fib::{NextHop, Prefix, Update};
use clue_net::frame::{FrameDecoder, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};
use clue_net::{Frame, FrameType};

fn sample_frames() -> Vec<Frame> {
    let ops = vec![
        Update::Announce {
            prefix: Prefix::new(0x0A00_0000, 8),
            next_hop: NextHop(7),
        },
        Update::Withdraw {
            prefix: Prefix::new(0xC0A8_0000, 16),
        },
    ];
    vec![
        Frame::empty(FrameType::Hello, 0),
        Frame {
            kind: FrameType::Update,
            seq: 42,
            payload: encode_updates(&ops),
        },
        Frame {
            kind: FrameType::Lookup,
            seq: u64::MAX,
            payload: (0..=255u8).collect(),
        },
        Frame::empty(FrameType::Heartbeat, 7),
    ]
}

fn stream_of(frames: &[Frame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for f in frames {
        bytes.extend_from_slice(&f.encode());
    }
    bytes
}

/// Decodes the whole input through the incremental decoder, feeding it
/// in `chunk`-byte slices.
fn decode_chunked(bytes: &[u8], chunk: usize) -> std::io::Result<Vec<Frame>> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    for slice in bytes.chunks(chunk.max(1)) {
        dec.extend(slice);
        while let Some(f) = dec.poll_frame()? {
            out.push(f);
        }
    }
    Ok(out)
}

#[test]
fn byte_at_a_time_equals_blocking_decode() {
    let frames = sample_frames();
    let bytes = stream_of(&frames);
    let got = decode_chunked(&bytes, 1).expect("valid stream decodes");
    assert_eq!(got, frames);
}

#[test]
fn no_frame_surfaces_before_its_last_byte() {
    // Feed one frame byte-at-a-time and assert the decoder stays
    // silent (Ok(None)) until the final CRC byte lands.
    for frame in sample_frames() {
        let bytes = frame.encode();
        let mut dec = FrameDecoder::new();
        for (i, &b) in bytes.iter().enumerate() {
            dec.extend(&[b]);
            let polled = dec.poll_frame().expect("valid prefix never errors");
            if i + 1 < bytes.len() {
                assert!(polled.is_none(), "frame surfaced early at byte {i}");
            } else {
                assert_eq!(polled, Some(frame.clone()));
            }
        }
    }
}

#[test]
fn every_split_point_is_equivalent() {
    // Adversarial split points over a multi-frame stream: every
    // two-slice split — which sweeps mid-header, mid-payload, and
    // mid-CRC cuts for every frame in the stream — must decode to the
    // same sequence as the blocking reader.
    let frames = sample_frames();
    let bytes = stream_of(&frames);
    let mut blocking = Vec::new();
    {
        let mut r = &bytes[..];
        while let Ok(f) = Frame::read_from(&mut r) {
            blocking.push(f);
        }
    }
    assert_eq!(blocking, frames);

    for cut in 0..=bytes.len() {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for slice in [&bytes[..cut], &bytes[cut..]] {
            dec.extend(slice);
            while let Some(f) = dec.poll_frame().expect("valid stream") {
                got.push(f);
            }
        }
        assert_eq!(got, blocking, "split at {cut}");
    }
}

#[test]
fn named_boundary_splits_decode() {
    // The three boundaries the ISSUE calls out, exercised explicitly
    // on a frame with a payload: mid-header, mid-payload, mid-CRC.
    let frame = &sample_frames()[1];
    let bytes = frame.encode();
    let payload_len = frame.payload.len();
    let cuts = [
        ("mid-header", HEADER_LEN / 2),
        ("mid-payload", HEADER_LEN + payload_len / 2),
        ("mid-crc", HEADER_LEN + payload_len + 2),
    ];
    for (label, cut) in cuts {
        assert!(cut < bytes.len(), "case {label}");
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes[..cut]);
        assert_eq!(dec.poll_frame().unwrap(), None, "case {label}: early frame");
        dec.extend(&bytes[cut..]);
        assert_eq!(
            dec.poll_frame().unwrap(),
            Some(frame.clone()),
            "case {label}"
        );
    }
}

#[test]
fn chunk_sizes_sweep_multi_frame_pipelining() {
    let frames = sample_frames();
    let bytes = stream_of(&frames);
    for chunk in [2, 3, 7, 16, HEADER_LEN, 64, 1024] {
        let got = decode_chunked(&bytes, chunk).expect("valid stream");
        assert_eq!(got, frames, "chunk {chunk}");
    }
}

/// The corruption corpus families from `crates/store/tests/corruption.rs`,
/// applied to a frame encoding.
fn corpus(base: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for cut in 0..base.len() {
        out.push((format!("truncate@{cut}"), base[..cut].to_vec()));
    }
    for bit in 0..base.len() * 8 {
        let mut b = base.to_vec();
        b[bit / 8] ^= 1 << (bit % 8);
        out.push((format!("bitflip@{bit}"), b));
    }
    for at in (0..base.len().saturating_sub(4)).step_by(4) {
        let mut b = base.to_vec();
        b[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        out.push((format!("hugelen@{at}"), b));
        let mut b = base.to_vec();
        b[at..at + 4].copy_from_slice(&0x7FFF_FFFFu32.to_be_bytes());
        out.push((format!("biglen@{at}"), b));
    }
    let mut padded = base.to_vec();
    padded.extend_from_slice(&[0xAA; 16]);
    out.push(("trailing-garbage".into(), padded));
    out
}

#[test]
fn corpus_equivalence_with_blocking_decoder() {
    // For every corpus case, the incremental decoder must agree with
    // the blocking reader on the first frame: same frame on success;
    // on failure, blocking InvalidData maps to incremental Err and
    // blocking UnexpectedEof (a truncated buffer) maps to "still
    // waiting for bytes" (Ok(None)).
    let good = Frame {
        kind: FrameType::Update,
        seq: 9,
        payload: encode_updates(&[Update::Withdraw {
            prefix: Prefix::new(0x0A00_0000, 8),
        }]),
    }
    .encode();

    for (label, bytes) in corpus(&good) {
        let blocking = Frame::read_from(&mut &bytes[..]);
        let incremental = Frame::try_decode(&bytes);
        match blocking {
            Ok(frame) => {
                let (got, used) = incremental
                    .unwrap_or_else(|e| panic!("case {label}: incremental errored: {e}"))
                    .unwrap_or_else(|| panic!("case {label}: incremental starved"));
                assert_eq!(got, frame, "case {label}");
                assert_eq!(used, good.len(), "case {label}");
            }
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                // Truncation: the incremental decoder either waits for
                // more bytes or has already proven the prefix invalid
                // (it validates magic/version/type/len before the
                // blocking reader finishes its reads) — both are
                // consistent with a stream that died mid-frame.
                if let Err(ie) = incremental {
                    assert_eq!(ie.kind(), ErrorKind::InvalidData, "case {label}");
                } else {
                    assert_eq!(incremental.unwrap(), None, "case {label}");
                }
            }
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::InvalidData, "case {label}: {e}");
                let ie = incremental.expect_err(&format!(
                    "case {label}: blocking rejected but incremental accepted"
                ));
                assert_eq!(ie.kind(), ErrorKind::InvalidData, "case {label}");
            }
        }
    }
}

/// A well-formed 18-byte header claiming a `len`-byte payload (no
/// payload or CRC attached).
fn forged_header(len: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(&MAGIC.to_be_bytes());
    h.push(VERSION);
    h.push(FrameType::Lookup as u8);
    h.extend_from_slice(&77u64.to_be_bytes());
    h.extend_from_slice(&len.to_be_bytes());
    h
}

#[test]
fn exactly_max_payload_is_accepted() {
    // The boundary itself must work: a frame whose payload is exactly
    // MAX_PAYLOAD round-trips through the incremental decoder.
    let frame = Frame {
        kind: FrameType::StatsReply,
        seq: 3,
        payload: vec![0x5A; MAX_PAYLOAD as usize],
    };
    let bytes = frame.encode();
    let mut dec = FrameDecoder::new();
    dec.extend(&bytes);
    let got = dec
        .poll_frame()
        .expect("max-size frame decodes")
        .expect("frame complete");
    assert_eq!(got.kind, frame.kind);
    assert_eq!(got.payload.len(), MAX_PAYLOAD as usize);
    assert_eq!(got, frame);
    assert_eq!(dec.poll_frame().unwrap(), None, "no residue");
}

#[test]
fn max_plus_one_is_rejected_from_the_header_alone() {
    // A forged length of MAX_PAYLOAD + 1 must be rejected the moment
    // the 18-byte header is complete — before any payload arrives, so
    // the decoder never allocates the claimed 16 MiB + 1.
    let mut dec = FrameDecoder::new();
    dec.extend(&forged_header(MAX_PAYLOAD + 1));
    let err = dec
        .poll_frame()
        .expect_err("oversize length must fail with only the header buffered");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(
        dec.buffered() <= HEADER_LEN,
        "decoder buffered {} bytes for a frame it rejected",
        dec.buffered()
    );
    // Same rejection from the blocking one-shot path.
    let err = Frame::try_decode(&forged_header(MAX_PAYLOAD + 1))
        .expect_err("try_decode must reject an oversize header");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    // u32::MAX — the classic corrupt-length pattern — likewise.
    assert!(Frame::try_decode(&forged_header(u32::MAX)).is_err());
}

#[test]
fn truncated_length_header_fuzz_corpus() {
    // Every proper prefix of a header carrying each interesting length
    // value: the decoder must either wait for more bytes (Ok(None)) or
    // reject cleanly (InvalidData) — never panic, never surface a
    // frame. The full oversize header must reject; the full max-size
    // header must keep waiting for its payload.
    let lengths = [
        0,
        1,
        MAX_PAYLOAD - 1,
        MAX_PAYLOAD,
        MAX_PAYLOAD + 1,
        0x7FFF_FFFF,
        u32::MAX,
    ];
    for len in lengths {
        let header = forged_header(len);
        for cut in 0..header.len() {
            let mut dec = FrameDecoder::new();
            dec.extend(&header[..cut]);
            match dec.poll_frame() {
                Ok(None) => {}
                Ok(Some(f)) => panic!("len {len} cut {cut}: phantom frame {f:?}"),
                Err(e) => assert_eq!(
                    e.kind(),
                    ErrorKind::InvalidData,
                    "len {len} cut {cut}: wrong error kind"
                ),
            }
        }
        let mut dec = FrameDecoder::new();
        dec.extend(&header);
        let polled = dec.poll_frame();
        if len > MAX_PAYLOAD {
            assert!(polled.is_err(), "len {len}: oversize header accepted");
        } else {
            assert_eq!(
                polled.expect("in-range length header is a valid prefix"),
                None,
                "len {len}: frame surfaced without payload"
            );
        }
    }
}

/// A reader that hands out at most `step` bytes per `read` call.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn blocking_reads_through_the_decoder_equal_the_blocking_reader() {
    // A frame larger than one read chunk, between small ones, read back
    // through `read_frame` however the socket slices the stream.
    let mut frames = sample_frames();
    frames.insert(
        2,
        Frame {
            kind: FrameType::SnapshotChunk,
            seq: 5,
            payload: (0..20_000u32).map(|i| i as u8).collect(),
        },
    );
    let bytes = stream_of(&frames);
    for step in [1, 7, 300, 4096, usize::MAX] {
        let mut r = Trickle {
            bytes: &bytes,
            step,
        };
        let mut dec = FrameDecoder::new();
        for f in &frames {
            assert_eq!(&dec.read_frame(&mut r).expect("valid stream"), f, "{step}");
        }
        let end = dec.read_frame(&mut r).expect_err("stream is over");
        assert_eq!(end.kind(), ErrorKind::UnexpectedEof, "step {step}");
    }

    // Cut mid-frame: end of stream, as from the blocking reader.
    let cut = &bytes[..bytes.len() - 1];
    let mut r = Trickle {
        bytes: cut,
        step: usize::MAX,
    };
    let mut dec = FrameDecoder::new();
    for _ in 1..frames.len() {
        dec.read_frame(&mut r).expect("whole frames before the cut");
    }
    let err = dec.read_frame(&mut r).expect_err("last frame is cut");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
}

#[test]
fn decode_errors_are_sticky() {
    let mut dec = FrameDecoder::new();
    dec.extend(b"garbage that is not a frame");
    assert!(dec.poll_frame().is_err());
    // Even after "good" bytes arrive, the stream stays dead — framing
    // is unrecoverable, matching the blocking path's connection-fatal
    // handling.
    dec.extend(&Frame::empty(FrameType::Hello, 1).encode());
    assert!(dec.poll_frame().is_err());
}
