//! Newline-delimited framing over any byte stream.
//!
//! [`FrameReader`] is deliberately stateful: the daemon's per-connection
//! readers poll with a socket read timeout so they can notice shutdown,
//! and a frame that arrives split across a timeout boundary must not
//! lose its first half. Partial bytes stay buffered in the reader across
//! `WouldBlock`/`TimedOut` errors; only complete lines are surfaced.

use std::io::{self, Read, Write};

/// Upper bound on one frame (one JSON line), newline excluded. Requests
/// are tiny and responses are bounded by the `SimStats` object, so
/// anything larger is a protocol violation, not a big message.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Incremental line reader with a persistent partial-frame buffer.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    pending: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            pending: Vec::new(),
        }
    }

    /// Reads the next frame. `Ok(None)` means clean EOF. Timeout errors
    /// (`WouldBlock`/`TimedOut`) propagate with any partial frame kept
    /// buffered, so the caller can simply retry.
    pub fn read_frame(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(i) = self.pending.iter().position(|&b| b == b'\n') {
                if i > MAX_FRAME_BYTES {
                    // The newline arrived in the read that crossed the
                    // cap: the line is still over it.
                    self.pending.drain(..=i);
                    return Err(Self::oversized());
                }
                let mut line: Vec<u8> = self.pending.drain(..=i).collect();
                line.pop();
                return Self::finish_line(line).map(Some);
            }
            if self.pending.len() > MAX_FRAME_BYTES {
                self.pending.clear();
                return Err(Self::oversized());
            }
            let mut chunk = [0u8; 4096];
            let n = self.inner.read(&mut chunk)?;
            if n == 0 {
                if self.pending.is_empty() {
                    return Ok(None);
                }
                // EOF with trailing bytes: surface them as a final
                // (unterminated) frame rather than dropping them.
                let line = std::mem::take(&mut self.pending);
                return Self::finish_line(line).map(Some);
            }
            self.pending.extend_from_slice(&chunk[..n]);
        }
    }

    fn oversized() -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
        )
    }

    fn finish_line(mut line: Vec<u8>) -> io::Result<String> {
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        String::from_utf8(line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("non-UTF-8 frame: {e}"))
        })
    }
}

/// Writes one frame (the line must not itself contain a newline) and
/// flushes, so the peer sees it immediately.
pub fn write_frame(w: &mut impl Write, line: &str) -> io::Result<()> {
    if line.as_bytes().contains(&b'\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame contains an embedded newline",
        ));
    }
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that yields its scripted chunks one `read` at a time,
    /// mimicking TCP segmentation.
    struct Chunked {
        chunks: Vec<Vec<u8>>,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.chunks.is_empty() {
                return Ok(0);
            }
            let chunk = self.chunks.remove(0);
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn frames_split_across_reads_reassemble() {
        let mut r = FrameReader::new(Chunked {
            chunks: vec![b"{\"a\":".to_vec(), b"1}\n{\"b\":2}\n".to_vec()],
        });
        assert_eq!(r.read_frame().unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(r.read_frame().unwrap().as_deref(), Some("{\"b\":2}"));
        assert_eq!(r.read_frame().unwrap(), None);
    }

    #[test]
    fn crlf_and_unterminated_tail_are_tolerated() {
        let mut r = FrameReader::new(Cursor::new(b"one\r\ntwo".to_vec()));
        assert_eq!(r.read_frame().unwrap().as_deref(), Some("one"));
        assert_eq!(r.read_frame().unwrap().as_deref(), Some("two"));
        assert_eq!(r.read_frame().unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let big = vec![b'x'; MAX_FRAME_BYTES + 2];
        let mut r = FrameReader::new(Cursor::new(big));
        let err = r.read_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A newline-terminated line one byte over the cap, whose newline
        // arrives in the read that crosses the cap, is rejected too; a
        // line exactly at the cap and the frame after it still read.
        let mut text = vec![b'y'; MAX_FRAME_BYTES + 1];
        text.push(b'\n');
        text.extend_from_slice(&[b'z'; MAX_FRAME_BYTES]);
        text.extend_from_slice(b"\nok\n");
        let mut r = FrameReader::new(Cursor::new(text));
        let err = r.read_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            r.read_frame().unwrap().map(|f| f.len()),
            Some(MAX_FRAME_BYTES)
        );
        assert_eq!(r.read_frame().unwrap().as_deref(), Some("ok"));
    }

    #[test]
    fn write_frame_rejects_embedded_newline() {
        let mut out = Vec::new();
        assert!(write_frame(&mut out, "a\nb").is_err());
        write_frame(&mut out, "ok").unwrap();
        assert_eq!(out, b"ok\n");
    }
}
