//! Length-prefixed text frames.
//!
//! The prototype's applications "connect to the Harmony server and supply
//! the bundles" (§5) — the payload is RSL text, so the wire format is a
//! 4-byte big-endian length followed by that many bytes of UTF-8.
//!
//! One rule — [`payload_len`] for the header and the limit, [`utf8`] for
//! the payload — is shared by the one-shot functions ([`encode`],
//! [`decode`], [`read_frame`], [`write_frame`]) and by the per-connection
//! [`FrameReader`] / [`FrameWriter`] pair, which serve a small request
//! with one `read`, one `write` and no allocation.

use std::io::{self, Read, Write};

use bytes::{Buf, BufMut, BytesMut};

/// Upper bound on a frame payload; anything larger is a protocol error
/// (bundles are kilobytes at most).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Bytes in the length prefix.
const HEADER_BYTES: usize = 4;

/// What a connection's buffers start at and shrink back to: room for any
/// read-path request or reply, and for most bundles.
const INITIAL_BUFFER_BYTES: usize = 4096;

/// The limit rule: a payload of `len` bytes may travel iff it fits
/// [`MAX_FRAME_BYTES`].
fn check_len(len: usize) -> io::Result<usize> {
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit"),
        ));
    }
    Ok(len)
}

/// The payload length a header announces, refused when over the limit.
fn payload_len(header: [u8; HEADER_BYTES]) -> io::Result<usize> {
    check_len(u32::from_be_bytes(header) as usize)
}

/// The payload rule: frames carry UTF-8 text.
///
/// # Errors
///
/// `InvalidData` when `payload` is not UTF-8.
pub fn utf8(payload: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Encodes one frame into a byte buffer.
///
/// # Errors
///
/// Returns `InvalidData` when `payload` exceeds [`MAX_FRAME_BYTES`]: an
/// oversize payload (e.g. a huge bundle script) must surface as an error
/// to the caller, never abort the process.
pub fn encode(payload: &str) -> io::Result<BytesMut> {
    let len = check_len(payload.len())?;
    let mut buf = BytesMut::with_capacity(HEADER_BYTES + len);
    buf.put_u32(len as u32);
    buf.put_slice(payload.as_bytes());
    Ok(buf)
}

/// Attempts to decode one frame from the front of `buf`, consuming it.
/// Returns `Ok(None)` when more bytes are needed.
///
/// # Errors
///
/// Returns `InvalidData` for oversize frames or invalid UTF-8.
pub fn decode(buf: &mut BytesMut) -> io::Result<Option<String>> {
    let Some(header) = buf.first_chunk::<HEADER_BYTES>() else { return Ok(None) };
    let len = payload_len(*header)?;
    if buf.len() < HEADER_BYTES + len {
        return Ok(None);
    }
    buf.advance(HEADER_BYTES);
    let payload = buf.split_to(len);
    utf8(&payload).map(|text| Some(text.to_owned()))
}

/// Writes one frame to a blocking writer.
///
/// # Errors
///
/// `InvalidData` for payloads over [`MAX_FRAME_BYTES`] (nothing is
/// written); otherwise I/O errors from the writer.
pub fn write_frame<W: Write>(mut w: W, payload: &str) -> io::Result<()> {
    let buf = encode(payload)?;
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame from a blocking reader, taking exactly the frame's
/// bytes from it. Returns `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// `UnexpectedEof` for truncation mid-frame; `InvalidData` for oversize or
/// non-UTF-8 payloads; other I/O errors from the reader.
pub fn read_frame<R: Read>(mut r: R) -> io::Result<Option<String>> {
    let mut header = [0u8; HEADER_BYTES];
    let mut filled = 0;
    while filled < HEADER_BYTES {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof inside frame header"))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = payload_len(header)?;
    // The header buys at most one small buffer; past that the payload
    // grows with the bytes that actually arrive.
    let mut payload = Vec::with_capacity(len.min(INITIAL_BUFFER_BYTES));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof inside frame payload"));
    }
    String::from_utf8(payload).map(Some).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// A connection's receive side: one reusable buffer that a single `read`
/// fills with a whole small request, and that hands frames out as slices
/// of itself.
///
/// The buffer grows only when it is full of bytes *received* (never on the
/// strength of a header), never past one maximal frame, and returns to
/// its initial size once an outsized frame has been handed out. Frames
/// that arrive together are handed out in order, one per call, without
/// another `read`.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// `buf[start..end]` holds the bytes received and not yet handed out.
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader { buf: vec![0; INITIAL_BUFFER_BYTES], start: 0, end: 0 }
    }
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes the buffer currently spans.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The next frame. `Ok(None)` on a clean EOF at a frame boundary.
    ///
    /// # Errors
    ///
    /// Those of [`FrameReader::read_payload`], and `InvalidData` for a
    /// payload that is not UTF-8 (the frame is consumed all the same).
    pub fn read_frame<R: Read>(&mut self, r: R) -> io::Result<Option<&str>> {
        self.read_payload(r)?.map(utf8).transpose()
    }

    /// The next frame's payload, not yet checked to be text: what the
    /// server reads, so that it can tell a well-framed payload that is not
    /// UTF-8 ([`utf8`] is the check) from a broken stream. `Ok(None)` on a
    /// clean EOF at a frame boundary.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` for truncation mid-frame; `InvalidData` for an
    /// oversize header, after which the stream has no frame boundary left
    /// to resume from; other I/O errors from the reader.
    pub fn read_payload<R: Read>(&mut self, mut r: R) -> io::Result<Option<&[u8]>> {
        self.reclaim();
        let len = loop {
            let received = &self.buf[self.start..self.end];
            if let Some((header, rest)) = received.split_first_chunk::<HEADER_BYTES>() {
                let len = payload_len(*header)?;
                if rest.len() >= len {
                    break len;
                }
            }
            let pending = received.len();
            self.make_room();
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if pending == 0 => return Ok(None),
                Ok(0) => {
                    let at = if pending < HEADER_BYTES { "header" } else { "payload" };
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("eof inside frame {at}"),
                    ));
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        let payload = self.start + HEADER_BYTES;
        self.start = payload + len;
        Ok(Some(&self.buf[payload..self.start]))
    }

    /// Between frames: rewinds an emptied buffer, and gives back what an
    /// outsized frame made it grow by once no more than an initial
    /// buffer's worth of bytes is pending.
    fn reclaim(&mut self) {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        if self.buf.len() > INITIAL_BUFFER_BYTES && self.end - self.start <= INITIAL_BUFFER_BYTES {
            self.slide();
            self.buf.truncate(INITIAL_BUFFER_BYTES);
            self.buf.shrink_to_fit();
        }
    }

    /// Moves the pending bytes to the front of the buffer.
    fn slide(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        (self.start, self.end) = (0, self.end - self.start);
    }

    /// Makes `buf[end..]` non-empty: by sliding, or — when the buffer is
    /// full of received bytes — by doubling it, up to one maximal frame
    /// (which, once received, is handed out rather than waited on).
    fn make_room(&mut self) {
        if self.end < self.buf.len() {
            return;
        }
        if self.start > 0 {
            self.slide();
        } else {
            let grown = (self.buf.len() * 2).min(HEADER_BYTES + MAX_FRAME_BYTES);
            self.buf.resize(grown, 0);
        }
    }
}

/// A connection's send side: one reusable buffer in which a frame's text is
/// rendered after the place of its header, sent with a single `write_all`.
#[derive(Debug, Default)]
pub struct FrameWriter {
    /// Empty between frames; kept for its capacity.
    frame: String,
}

impl FrameWriter {
    /// A writer with no buffer yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sends as one frame the text `render` appends to the string it is
    /// given.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a text over [`MAX_FRAME_BYTES`] (nothing is
    /// written); otherwise I/O errors from the writer.
    pub fn write_with<W: Write>(
        &mut self,
        mut w: W,
        render: impl FnOnce(&mut String),
    ) -> io::Result<()> {
        let mut frame = std::mem::take(&mut self.frame);
        // NULs hold the header's place: the string stays valid UTF-8 for
        // as long as it is one.
        frame.push_str("\0\0\0\0");
        render(&mut frame);
        let mut bytes = frame.into_bytes();
        let sent = check_len(bytes.len() - HEADER_BYTES).and_then(|len| {
            bytes[..HEADER_BYTES].copy_from_slice(&(len as u32).to_be_bytes());
            w.write_all(&bytes)?;
            w.flush()
        });
        bytes.clear();
        bytes.shrink_to(INITIAL_BUFFER_BYTES);
        self.frame = String::from_utf8(bytes).expect("an empty buffer is valid UTF-8");
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let mut buf = encode("hello harmony").unwrap();
        assert_eq!(decode(&mut buf).unwrap(), Some("hello harmony".into()));
        assert!(buf.is_empty());
    }

    #[test]
    fn decode_handles_partial_input() {
        let full = encode("abcdef").unwrap();
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&full[..3]);
        assert_eq!(decode(&mut buf).unwrap(), None);
        buf.extend_from_slice(&full[3..7]);
        assert_eq!(decode(&mut buf).unwrap(), None);
        buf.extend_from_slice(&full[7..]);
        assert_eq!(decode(&mut buf).unwrap(), Some("abcdef".into()));
    }

    #[test]
    fn decode_multiple_frames_in_sequence() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&encode("one").unwrap());
        buf.extend_from_slice(&encode("two").unwrap());
        assert_eq!(decode(&mut buf).unwrap(), Some("one".into()));
        assert_eq!(decode(&mut buf).unwrap(), Some("two".into()));
        assert_eq!(decode(&mut buf).unwrap(), None);
    }

    #[test]
    fn oversize_frame_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(MAX_FRAME_BYTES as u32 + 1);
        buf.put_slice(b"x");
        assert!(decode(&mut buf).is_err());
    }

    #[test]
    fn stream_read_write_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "startup DBclient").unwrap();
        write_frame(&mut wire, "end DBclient.1").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some("startup DBclient".into()));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some("end DBclient.1".into()));
        assert_eq!(read_frame(&mut cursor).unwrap(), None); // clean EOF
    }

    #[test]
    fn truncated_stream_is_unexpected_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "hello").unwrap();
        wire.truncate(6); // cut inside payload
        let mut cursor = std::io::Cursor::new(wire);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&2u32.to_be_bytes());
        wire.extend_from_slice(&[0xff, 0xfe]);
        let mut cursor = std::io::Cursor::new(wire);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_payload_is_fine() {
        let mut buf = encode("").unwrap();
        assert_eq!(decode(&mut buf).unwrap(), Some(String::new()));
    }

    #[test]
    fn oversize_payload_is_invalid_data_not_a_panic() {
        let big = "x".repeat(MAX_FRAME_BYTES + 1);
        let err = encode(&big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(wire.is_empty(), "nothing written for a rejected frame");
        // A payload exactly at the limit is fine.
        let exact = "y".repeat(MAX_FRAME_BYTES);
        assert!(encode(&exact).is_ok());
    }

    #[test]
    fn oversize_frame_rejected_by_read_frame() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        wire.extend_from_slice(b"body would follow");
        let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_mid_header_is_unexpected_eof() {
        // Two of the four header bytes, then EOF.
        let wire = vec![0u8, 0u8];
        let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncation_mid_payload_is_unexpected_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "twelve bytes").unwrap();
        wire.truncate(4 + 5); // full header, partial payload
        let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn buffered_decode_waits_on_partial_header_and_payload() {
        // One header byte: not an error, just incomplete.
        let mut buf = BytesMut::from(&[0u8][..]);
        assert_eq!(decode(&mut buf).unwrap(), None);
        assert_eq!(buf.len(), 1, "nothing consumed");
        // Full header, half payload: still incomplete.
        let full = encode("abcdef").unwrap();
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&full[..7]);
        assert_eq!(decode(&mut buf).unwrap(), None);
    }

    #[test]
    fn zero_length_frame_round_trips_the_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "").unwrap();
        write_frame(&mut wire, "after").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(String::new()));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some("after".into()));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }
    /// A `Read` that serves scripted chunks, one per call, counts the
    /// calls, and then reports a stalled peer.
    struct Scripted {
        chunks: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Scripted {
        fn new(chunks: impl IntoIterator<Item = Vec<u8>>) -> Self {
            Scripted { chunks: chunks.into_iter().collect(), reads: 0 }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(chunk) = self.chunks.front_mut() else {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "peer stalled"));
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.chunks.pop_front();
            }
            Ok(n)
        }
    }

    fn framed(payload: &str) -> Vec<u8> {
        encode(payload).unwrap().to_vec()
    }

    #[test]
    fn a_header_alone_reserves_nothing() {
        // A peer declares a megabyte, delivers ten bytes and stalls.
        let mut wire = (MAX_FRAME_BYTES as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(b"ten bytes.");
        let mut peer = Scripted::new([wire]);
        let mut reader = FrameReader::new();
        let err = reader.read_frame(&mut peer).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(reader.capacity(), INITIAL_BUFFER_BYTES, "the buffer follows bytes received");
    }

    #[test]
    fn an_oversize_header_is_refused_before_any_growth() {
        let mut wire = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes().to_vec();
        wire.extend_from_slice(&[b'x'; 64]);
        let mut peer = Scripted::new([wire]);
        let mut reader = FrameReader::new();
        let err = reader.read_frame(&mut peer).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            decode(&mut BytesMut::from(&[0, 16, 0, 1][..])).unwrap_err().to_string()
        );
        assert_eq!((reader.capacity(), peer.reads), (INITIAL_BUFFER_BYTES, 1));
        // A frame of exactly the limit is taken, in a buffer that grew to
        // hold it and not a byte more.
        let exact = "y".repeat(MAX_FRAME_BYTES);
        let mut peer = Scripted::new([framed(&exact)]);
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_frame(&mut peer).unwrap().map(str::len), Some(MAX_FRAME_BYTES));
        assert_eq!(reader.capacity(), HEADER_BYTES + MAX_FRAME_BYTES);
    }

    #[test]
    fn a_frame_split_at_any_byte_decodes_to_the_same_text() {
        let text = "poll caf\u{e9}.7 {braced}";
        let wire = framed(text);
        for cut in 1..wire.len() {
            let mut peer = Scripted::new([wire[..cut].to_vec(), wire[cut..].to_vec()]);
            let mut reader = FrameReader::new();
            assert_eq!(reader.read_frame(&mut peer).unwrap(), Some(text), "cut at {cut}");
        }
        // Byte by byte, too.
        let mut peer = Scripted::new(wire.iter().map(|&b| vec![b]));
        assert_eq!(FrameReader::new().read_frame(&mut peer).unwrap(), Some(text));
    }

    #[test]
    fn a_small_frame_costs_one_read_and_frames_read_together_cost_no_more() {
        let mut wire = framed("one");
        wire.extend(framed(""));
        wire.extend(framed("three"));
        let mut peer = Scripted::new([wire, framed("four")]);
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_frame(&mut peer).unwrap(), Some("one"));
        assert_eq!(reader.read_frame(&mut peer).unwrap(), Some(""));
        assert_eq!(reader.read_frame(&mut peer).unwrap(), Some("three"));
        assert_eq!(peer.reads, 1, "three frames, one read");
        assert_eq!(reader.read_frame(&mut peer).unwrap(), Some("four"));
        assert_eq!(peer.reads, 2);
    }

    #[test]
    fn reader_reports_eof_like_read_frame() {
        let wire = framed("twelve bytes");
        for cut in 0..wire.len() {
            let streamed =
                FrameReader::new().read_frame(&wire[..cut]).map(|f| f.map(str::to_owned));
            let one_shot = read_frame(&wire[..cut]);
            match (streamed, one_shot) {
                (Ok(None), Ok(None)) => assert_eq!(cut, 0),
                (Err(a), Err(b)) => {
                    assert_eq!(a.kind(), io::ErrorKind::UnexpectedEof);
                    assert_eq!(a.to_string(), b.to_string(), "cut at {cut}");
                }
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_payload_that_is_not_text_is_consumed_and_the_stream_goes_on() {
        let mut wire = 2u32.to_be_bytes().to_vec();
        wire.extend_from_slice(&[0xff, 0xfe]);
        wire.extend(framed("after"));
        let mut peer = Scripted::new([wire]);
        let mut reader = FrameReader::new();
        let err = reader.read_frame(&mut peer).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(reader.read_frame(&mut peer).unwrap(), Some("after"));
    }

    #[test]
    fn the_buffer_shrinks_back_after_an_outsized_frame() {
        let big = "b".repeat(40_000);
        let mut wire = framed(&big);
        wire.extend(framed("small"));
        let mut peer = Scripted::new([wire, framed("next")]);
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_frame(&mut peer).unwrap(), Some(&*big));
        assert!(reader.capacity() >= 40_000);
        // The frame that rode in with it is still there after the shrink.
        assert_eq!(reader.read_frame(&mut peer).unwrap(), Some("small"));
        assert_eq!(reader.capacity(), INITIAL_BUFFER_BYTES);
        assert_eq!(reader.read_frame(&mut peer).unwrap(), Some("next"));
    }

    #[test]
    fn read_frame_takes_exactly_its_frame_in_two_reads() {
        let mut wire = framed("heartbeat bag.1");
        wire.extend(framed("and the next one"));
        let mut peer = Scripted::new([wire]);
        assert_eq!(read_frame(&mut peer).unwrap().as_deref(), Some("heartbeat bag.1"));
        assert_eq!(peer.reads, 2, "header, payload");
        assert_eq!(read_frame(&mut peer).unwrap().as_deref(), Some("and the next one"));
        assert_eq!(peer.reads, 4);
    }

    /// A `Write` that keeps each call's bytes apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_sends_each_frame_in_one_write_from_one_buffer() {
        let mut writer = FrameWriter::new();
        let mut wire = Writes::default();
        for text in ["update bag.1 {bag.1.config run}", "", "ok"] {
            writer.write_with(&mut wire, |out| out.push_str(text)).unwrap();
        }
        let expected: Vec<Vec<u8>> =
            ["update bag.1 {bag.1.config run}", "", "ok"].map(framed).to_vec();
        assert_eq!(wire.0, expected);
        // Over the limit: an error, nothing written, and the writer goes on.
        let err = writer
            .write_with(&mut wire, |out| out.push_str(&"x".repeat(MAX_FRAME_BYTES + 1)))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            encode(&"x".repeat(MAX_FRAME_BYTES + 1)).unwrap_err().to_string()
        );
        writer.write_with(&mut wire, |out| out.push_str("ok")).unwrap();
        assert_eq!(wire.0.len(), 4);
        assert_eq!(wire.0[3], framed("ok"));
        assert!(writer.frame.capacity() <= INITIAL_BUFFER_BYTES, "shrunk back");
    }
}
