//! Wire codec: length-prefixed frames and the data-frame body layout.
//! Pure bytes ↔ frames; the sockets and threads live in `mesh`.

use crate::tag::{CollId, Message, Rank, WireTag};
use crate::DType;
use std::io::{Read, Write};

pub(super) const FRAME_DATA: u8 = 0;
pub(super) const FRAME_SHUTDOWN: u8 = 1;
pub(super) const FRAME_GOODBYE: u8 = 2;
/// The accepting end's acknowledgement that it routes to a spliced-in
/// connection; read by the dialer during the handshake, never delivered
/// upward.
pub(super) const FRAME_ACK: u8 = 3;

/// Upper bound on one frame body; a frame claiming more is corrupt.
pub(super) const MAX_FRAME: usize = 1 << 30;
/// Socket writes are split into chunks of this size (see module docs).
pub(super) const WRITE_CHUNK: usize = 256 * 1024;

/// A decoded frame body.
#[derive(Debug)]
pub(crate) enum WireFrame {
    Data(Message),
    Shutdown,
    Goodbye,
    Ack,
}

fn dtype_code(d: DType) -> u8 {
    match d {
        DType::F32 => 1,
        DType::F64 => 2,
        DType::I32 => 3,
        DType::I64 => 4,
    }
}

fn dtype_from_code(c: u8) -> Option<DType> {
    match c {
        1 => Some(DType::F32),
        2 => Some(DType::F64),
        3 => Some(DType::I32),
        4 => Some(DType::I64),
        _ => None,
    }
}

/// Encode a data message into `out` (header + raw LE elements). `out` is
/// cleared first; callers on the hot path reuse one scratch buffer across
/// messages so steady-state encoding allocates nothing.
pub(crate) fn encode_data_into(msg: &Message, out: &mut Vec<u8>) {
    out.clear();
    let payload_bytes = msg.payload.as_ref().map_or(0, |p| p.byte_len());
    out.reserve(32 + payload_bytes);
    out.push(FRAME_DATA);
    out.extend_from_slice(&(msg.src as u32).to_le_bytes());
    out.extend_from_slice(&msg.tag.coll.0.to_le_bytes());
    out.extend_from_slice(&msg.tag.round.to_le_bytes());
    out.extend_from_slice(&msg.tag.sem.to_le_bytes());
    match &msg.payload {
        None => out.push(0),
        Some(buf) => {
            out.push(dtype_code(buf.dtype()));
            out.extend_from_slice(&(buf.len() as u64).to_le_bytes());
            // Range-aware: a sub-range view encodes only its slice, and a
            // wire-borne payload being forwarded is a straight byte copy.
            buf.extend_wire_bytes(out);
        }
    }
}

/// Allocating convenience wrapper over [`encode_data_into`] (tests and
/// one-shot callers).
#[cfg(test)]
pub(crate) fn encode_data(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode_data_into(msg, &mut out);
    out
}

/// Decode a frame body produced by [`encode_data`] (or the one-byte
/// control frames).
pub(crate) fn decode_frame(body: &[u8]) -> Result<WireFrame, String> {
    let mut cur = Cursor { body, pos: 0 };
    match cur.u8()? {
        FRAME_SHUTDOWN => Ok(WireFrame::Shutdown),
        FRAME_GOODBYE => Ok(WireFrame::Goodbye),
        FRAME_ACK => Ok(WireFrame::Ack),
        FRAME_DATA => {
            let src = cur.u32()? as Rank;
            let coll = CollId(cur.u32()?);
            let round = cur.u64()?;
            let sem = cur.u32()?;
            let payload = match cur.u8()? {
                0 => None,
                code => {
                    let dtype =
                        dtype_from_code(code).ok_or_else(|| format!("bad dtype code {code}"))?;
                    let nelems = cur.u64()? as usize;
                    let nbytes = nelems
                        .checked_mul(dtype.size_of())
                        .filter(|&n| n <= MAX_FRAME)
                        .ok_or("payload length overflow")?;
                    let raw = cur.bytes(nbytes)?;
                    // One allocation: the reused frame body's payload
                    // range is copied out as raw bytes and *not* decoded —
                    // a reduction consumer decodes it while folding it
                    // into its accumulator (`Payload::reduce_assign`), so
                    // the hot path never materializes an intermediate buffer.
                    Some(
                        crate::Payload::from_wire(dtype, raw.to_vec())
                            .ok_or("ragged payload bytes")?,
                    )
                }
            };
            if cur.pos != body.len() {
                return Err(format!("{} trailing bytes in frame", body.len() - cur.pos));
            }
            Ok(WireFrame::Data(Message {
                src,
                tag: WireTag::new(coll, round, sem),
                payload,
            }))
        }
        k => Err(format!("unknown frame kind {k}")),
    }
}

struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.body.len())
            .ok_or("truncated frame")?;
        let s = &self.body[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    fn le<const N: usize>(&mut self) -> Result<[u8; N], String> {
        self.bytes(N)?
            .try_into()
            .map_err(|_| "truncated frame".into())
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.le()?))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.le()?))
    }
}

/// Write one length-prefixed frame, chunking the body. Enforces the same
/// [`MAX_FRAME`] bound the reader does, so an oversized message fails
/// loudly at the sender instead of silently severing the receiver.
pub(crate) fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> std::io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
                body.len()
            ),
        ));
    }
    let len = body.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    for chunk in body.chunks(WRITE_CHUNK) {
        w.write_all(chunk)?;
    }
    Ok(())
}

/// Read one length-prefixed frame body into `body` (cleared and refilled
/// in place, so a reused scratch buffer makes steady-state reads
/// allocation-free once it has grown to the largest frame seen). The
/// buffer grows one [`WRITE_CHUNK`] at a time as the body arrives, never
/// to the length the header merely claims: a peer that announces 1 GiB
/// and hangs up costs one chunk, not a gigabyte of zeroes.
/// `Ok(false)` on clean EOF at a frame boundary, `Ok(true)` when `body`
/// holds a frame.
pub(crate) fn read_frame_into<R: Read>(r: &mut R, body: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof inside frame length",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame length exceeds limit",
        ));
    }
    body.clear();
    while body.len() < len {
        let start = body.len();
        body.resize(len.min(start + WRITE_CHUNK), 0);
        r.read_exact(&mut body[start..])?;
    }
    Ok(true)
}

/// Allocating convenience wrapper over [`read_frame_into`] (rendezvous
/// JSON and tests). `Ok(None)` on clean EOF at a frame boundary.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut body = Vec::new();
    Ok(read_frame_into(r, &mut body)?.then_some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::{Payload, TypedBuf};
    use proptest::prelude::*;

    fn data_msg(src: Rank, payload: Option<TypedBuf>) -> Message {
        Message {
            src,
            tag: WireTag::new(CollId(7), 3, 11),
            payload: payload.map(Payload::new),
        }
    }

    fn round_trip(msg: &Message) -> Message {
        let body = encode_data(msg);
        match decode_frame(&body).unwrap() {
            WireFrame::Data(m) => m,
            other => panic!("expected data frame, got {other:?}"),
        }
    }

    #[test]
    fn codec_round_trips_every_dtype() {
        for payload in [
            Some(TypedBuf::from(vec![1.5f32, -2.25, 0.0])),
            Some(TypedBuf::from(vec![std::f64::consts::E; 9])),
            Some(TypedBuf::from(vec![i32::MIN, i32::MAX])),
            Some(TypedBuf::from(vec![-1i64, 1 << 60])),
        ] {
            let msg = data_msg(5, payload.clone());
            let back = round_trip(&msg);
            assert_eq!(back.src, 5);
            assert_eq!(back.tag, msg.tag);
            assert_eq!(back.payload.map(Payload::into_buf), payload);
        }
    }

    #[test]
    fn codec_round_trips_control_and_empty_payloads() {
        let ctl = round_trip(&data_msg(0, None));
        assert!(ctl.payload.is_none());
        let empty = round_trip(&data_msg(1, Some(TypedBuf::zeros(DType::F64, 0))));
        assert_eq!(empty.payload.unwrap().len(), 0);
    }

    #[test]
    fn codec_round_trips_multi_mib_payload() {
        let n = (4 << 20) / 4; // 4 MiB of f32
        let big: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let msg = data_msg(2, Some(TypedBuf::from(big.clone())));
        let back = round_trip(&msg);
        assert_eq!(back.payload.unwrap().into_buf().as_f32().unwrap(), &big[..]);
    }

    #[test]
    fn control_frames_decode() {
        assert!(matches!(
            decode_frame(&[FRAME_SHUTDOWN]).unwrap(),
            WireFrame::Shutdown
        ));
        assert!(matches!(
            decode_frame(&[FRAME_GOODBYE]).unwrap(),
            WireFrame::Goodbye
        ));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_frame(&[]).is_err());
        assert!(decode_frame(&[99]).is_err());
        let mut body = encode_data(&data_msg(0, Some(TypedBuf::from(vec![1.0f32; 8]))));
        body.truncate(body.len() - 3); // ragged payload
        assert!(decode_frame(&body).is_err());
        body.push(0); // trailing byte after truncation boundary shift
        assert!(decode_frame(&body).is_err());
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let bodies: Vec<Vec<u8>> = vec![
            encode_data(&data_msg(1, Some(TypedBuf::from(vec![9i64; 4])))),
            vec![FRAME_SHUTDOWN],
            // Bigger than one write chunk, to exercise chunked writes.
            encode_data(&data_msg(
                3,
                Some(TypedBuf::from(vec![0.5f32; WRITE_CHUNK / 2])),
            )),
            vec![FRAME_GOODBYE],
        ];
        let mut wire = Vec::new();
        for b in &bodies {
            write_frame(&mut wire, b).unwrap();
        }
        let mut r = &wire[..];
        for b in &bodies {
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), *b);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn frame_memory_follows_the_bytes_that_arrive() {
        // A header claiming the largest legal frame, then EOF: an error,
        // and the buffer never grew past one chunk's worth.
        let mut wire = (MAX_FRAME as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[7; 100]);
        let mut body = Vec::new();
        let err = read_frame_into(&mut &wire[..], &mut body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(body.capacity() <= 2 * WRITE_CHUNK, "{}", body.capacity());

        // A reused buffer keeps its allocation across frames.
        let big = vec![1u8; 3 * WRITE_CHUNK + 5];
        let mut wire = Vec::new();
        for b in [&big[..], &[2u8; 10][..], &big[..]] {
            write_frame(&mut wire, b).unwrap();
        }
        let mut r = &wire[..];
        assert!(read_frame_into(&mut r, &mut body).unwrap());
        assert_eq!(body, big);
        let ptr = body.as_ptr();
        assert!(read_frame_into(&mut r, &mut body).unwrap());
        assert_eq!(body, [2u8; 10]);
        assert!(read_frame_into(&mut r, &mut body).unwrap());
        assert_eq!((body.as_ptr(), body.len()), (ptr, big.len()));
    }

    /// A random data message: any header, no payload or up to 40
    /// elements of any dtype built from raw bits (NaNs and denormals
    /// included).
    fn message() -> impl Strategy<Value = Message> {
        let payload = (0usize..5, collection::vec(any::<u8>(), 0..320)).prop_map(|(code, raw)| {
            let dtype = [DType::F32, DType::F64, DType::I32, DType::I64].get(code)?;
            let whole = raw.len() / dtype.size_of() * dtype.size_of();
            TypedBuf::from_le_bytes(*dtype, &raw[..whole])
        });
        let header = (0usize..1 << 16, any::<u32>(), any::<u64>(), any::<u32>());
        (header, payload).prop_map(|((src, coll, round, sem), payload)| Message {
            src,
            tag: WireTag::new(CollId(coll), round, sem),
            payload: payload.map(Payload::new),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn encode_decode_round_trips_random_messages(msg in message()) {
            let body = encode_data(&msg);
            let back = match decode_frame(&body) {
                Ok(WireFrame::Data(m)) => m,
                other => panic!("expected a data frame, got {other:?}"),
            };
            prop_assert_eq!((back.src, back.tag), (msg.src, msg.tag));
            // Byte-level: NaN payloads must ship faithfully too.
            prop_assert_eq!(encode_data(&back), body);
        }

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..64)) {
            let _ = decode_frame(&bytes);
        }

        #[test]
        fn decode_never_panics_on_mutated_frames(
            msg in message(),
            flips in collection::vec((any::<usize>(), 1u8..=255), 0..4),
            keep in any::<usize>(),
        ) {
            let mut body = encode_data(&msg);
            for (at, mask) in flips {
                let i = at % body.len();
                body[i] ^= mask;
            }
            let _ = decode_frame(&body);
            body.truncate(keep % (body.len() + 1));
            let _ = decode_frame(&body);
        }
    }
}
