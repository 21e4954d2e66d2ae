//! The load generator's raw connection: a nonblocking socket that
//! pipelines requests (each one `write`) and assembles replies line by
//! line, with no client library in the path.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use specweb_core::DocId;
use specweb_serve::ServerMsg;

/// One assembled reply.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The `DOC` line.
    pub doc: Option<(DocId, u64)>,
    /// The `PUSH` lines, in wire order.
    pub pushed: Vec<(DocId, u64)>,
    /// `STAT` lines (a `STATS` reply).
    pub stats: usize,
    /// `ERR`/`BUSY` text, or what made a line unparseable.
    pub error: Option<String>,
}

impl Reply {
    /// Bytes the reply announces: the document plus every push.
    pub fn announced_bytes(&self) -> u64 {
        self.doc.map_or(0, |(_, size)| size) + self.pushed.iter().map(|&(_, s)| s).sum::<u64>()
    }
}

/// A pipelining connection; `T` tags each outstanding request.
#[derive(Debug)]
pub struct Wire<T> {
    stream: TcpStream,
    inbuf: Vec<u8>,
    pending: VecDeque<T>,
    reply: Reply,
}

impl<T> Wire<T> {
    pub fn connect(addr: SocketAddr) -> io::Result<Wire<T>> {
        let stream = TcpStream::connect(addr)?;
        // One small write per request must leave at once, whatever is
        // still unacknowledged.
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Wire {
            stream,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            reply: Reply::default(),
        })
    }

    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Sends one request line in one `write` (a full socket buffer is
    /// waited out) and queues its tag.
    pub fn send(&mut self, line: &[u8], tag: T) -> io::Result<()> {
        let mut rest = line;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    std::thread::yield_now()
                }
                Err(e) => return Err(e),
            }
        }
        self.pending.push_back(tag);
        Ok(())
    }

    /// Takes what has arrived and hands every completed reply, with its
    /// request's tag, to `done`. Returns whether any byte arrived.
    pub fn poll(&mut self, mut done: impl FnMut(T, Reply)) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        let mut progressed = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) if self.pending.is_empty() => return Ok(progressed),
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    progressed = true;
                    self.inbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut consumed = 0;
        while let Some(nl) = self.inbuf[consumed..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.inbuf[consumed..consumed + nl]);
            consumed += nl + 1;
            // `ERR` and `BUSY` end a reply without an `END`.
            let complete = match ServerMsg::parse(&line) {
                Ok(ServerMsg::Doc { doc, size }) => {
                    self.reply.doc = Some((doc, size));
                    false
                }
                Ok(ServerMsg::Push { doc, size }) => {
                    self.reply.pushed.push((doc, size));
                    false
                }
                Ok(ServerMsg::Stat(_)) => {
                    self.reply.stats += 1;
                    false
                }
                Ok(ServerMsg::End) => true,
                Ok(ServerMsg::Busy { detail }) => {
                    self.reply.error = Some(format!("BUSY {detail}"));
                    true
                }
                Ok(ServerMsg::Err { reason }) => {
                    self.reply.error = Some(format!("ERR {reason}"));
                    true
                }
                Err(e) => {
                    self.reply.error = Some(e.to_string());
                    true
                }
            };
            if complete {
                let reply = std::mem::take(&mut self.reply);
                match self.pending.pop_front() {
                    Some(tag) => done(tag, reply),
                    None => return Err(io::Error::other("reply without a request")),
                }
            }
        }
        self.inbuf.drain(..consumed);
        Ok(progressed)
    }

    /// Polls until nothing is outstanding.
    pub fn drain(&mut self, timeout: Duration, mut done: impl FnMut(T, Reply)) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        while !self.pending.is_empty() {
            if !self.poll(&mut done)? {
                if Instant::now() > deadline {
                    return Err(ErrorKind::TimedOut.into());
                }
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    /// One request, one reply: sends `line` and waits for its reply.
    pub fn roundtrip(&mut self, line: &[u8], tag: T, timeout: Duration) -> io::Result<Reply> {
        self.send(line, tag)?;
        let mut got = None;
        self.drain(timeout, |_, reply| got = Some(reply))?;
        got.ok_or_else(|| io::Error::other("no reply"))
    }
}
