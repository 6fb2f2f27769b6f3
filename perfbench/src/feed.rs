//! A change-feed subscriber that never blocks: the documented frame protocol
//! of `relacc_net::wire` over a nonblocking socket, so that the reader
//! thread can pick up pushed batches between its scheduled reads and stamp
//! each one when it lands.
//!
//! `relacc_net::NetSubscription` waits on a socket read timeout, which Linux
//! rounds up to whole scheduler ticks (about 8 ms on the 2-vCPU VM the
//! benchmark was sized on); a reader that owes a read every 0.7 ms cannot
//! wait that long, and a writer blocked in `apply` cannot wait at all.

use relacc_engine::EpochId;
use relacc_net::wire::{write_frame, FrameReader, Message, Poll, PROTOCOL_VERSION};
use relacc_serve::ChangeBatch;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[derive(Debug)]
pub struct FeedClient {
    stream: TcpStream,
    reader: FrameReader,
    start: EpochId,
}

impl FeedClient {
    /// Connect, handshake and subscribe; the socket is nonblocking from
    /// then on.
    pub fn subscribe(addr: SocketAddr) -> Result<FeedClient, String> {
        let io = |e: std::io::Error| format!("feed: {e}");
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(io)?;
        let mut reader = FrameReader::new();
        write_frame(
            &mut stream,
            &Message::Hello {
                version: PROTOCOL_VERSION,
            },
        )
        .map_err(io)?;
        match next_message(&mut reader, &mut stream)? {
            Message::HelloOk { version, .. } if version == PROTOCOL_VERSION => {}
            other => return Err(format!("feed: handshake answered {:?}", other.msg_type())),
        }
        write_frame(&mut stream, &Message::Subscribe).map_err(io)?;
        let start = match next_message(&mut reader, &mut stream)? {
            Message::SubOk { epoch, .. } => epoch,
            other => return Err(format!("feed: subscribe answered {:?}", other.msg_type())),
        };
        stream.set_nonblocking(true).map_err(io)?;
        Ok(FeedClient {
            stream,
            reader,
            start,
        })
    }

    /// The epoch the server-side cursor started at.
    pub fn start(&self) -> EpochId {
        self.start
    }

    /// The next complete pushed frame's payload, if one has arrived.
    pub fn poll(&mut self) -> Result<Option<Vec<u8>>, String> {
        match self.reader.poll(&mut self.stream) {
            Ok(Poll::Frame(payload)) => Ok(Some(payload)),
            Ok(Poll::Pending) => Ok(None),
            Ok(Poll::Closed) => Err("feed: the server closed the connection".into()),
            Err(e) => Err(format!("feed: {e}")),
        }
    }
}

fn next_message(reader: &mut FrameReader, stream: &mut TcpStream) -> Result<Message, String> {
    match reader.poll(stream) {
        Ok(Poll::Frame(payload)) => Message::decode(&payload).map_err(|e| format!("feed: {e}")),
        Ok(Poll::Pending) => Err("feed: the server did not answer".into()),
        Ok(Poll::Closed) => Err("feed: the server closed the connection".into()),
        Err(e) => Err(format!("feed: {e}")),
    }
}

pub fn decode_batch(payload: &[u8]) -> Result<ChangeBatch, String> {
    match Message::decode(payload) {
        Ok(Message::Feed { batch }) => Ok(batch),
        Ok(other) => Err(format!("feed: unexpected {:?} frame", other.msg_type())),
        Err(e) => Err(format!("feed: {e}")),
    }
}
