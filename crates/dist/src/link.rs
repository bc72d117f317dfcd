//! Socket-backed wire endpoints: [`WireSender`]/[`WireReceiver`] over a
//! TCP stream, with one reader thread per connection.
//!
//! One TCP connection carries **both** directed wires of an adjacent
//! shard pair (TCP is full duplex). The sending shard writes from its
//! own thread: `stage` encodes a message into a byte buffer and
//! `commit` writes the buffer with one `write_all`, so a lookahead
//! window's worth of messages costs one syscall, mirroring the SPSC
//! ring's batched publication. The reader thread reassembles frames and
//! hands [`Wire`] messages to the consuming shard through an unbounded
//! queue. Because every reader always drains its socket into that
//! queue, a blocking write waits at most for the peer's reader, never
//! for the peer's shard — two shards writing to each other cannot
//! deadlock.
//!
//! TCP preserves per-connection byte order, the framing preserves
//! message boundaries, and the inbound queue is FIFO — so the per-wire
//! FIFO contract of [`ww_pdes::transport`] holds end to end, which is
//! all the engine needs for bit-identical runs (every merge decision is
//! content-derived, never timing-derived).
//!
//! Peer death is detected, never waited out: an EOF or I/O error on the
//! reader, or a failed write at `commit`, latches a shared *dead* flag
//! with a human-readable detail, and every subsequent `stage`, `commit`
//! or `try_recv` returns [`LinkError::Closed`]. Silence (a peer that is
//! alive but wedged) is the shard's own stall timeout's job.

use crate::codec::{encode_msg, FrameBuffer, Msg};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use ww_pdes::{LinkError, StageError, Wire, WireReceiver, WireSender};

/// Shared liveness state of one direction of a connection.
#[derive(Debug, Default)]
struct LinkState {
    dead: AtomicBool,
    detail: Mutex<String>,
}

impl LinkState {
    fn mark_dead(&self, detail: String) {
        let mut d = self.detail.lock().unwrap_or_else(|e| e.into_inner());
        if !self.dead.swap(true, Ordering::Release) {
            *d = detail;
        }
    }

    fn error(&self) -> LinkError {
        let d = self.detail.lock().unwrap_or_else(|e| e.into_inner());
        LinkError::Closed {
            detail: if d.is_empty() {
                "peer connection closed".to_string()
            } else {
                d.clone()
            },
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }
}

/// The sending half of one directed socket wire. `stage` encodes into
/// a byte buffer and never blocks; `commit` writes the buffer to the
/// socket from the calling thread.
#[derive(Debug)]
pub struct SocketSender {
    stream: TcpStream,
    buf: Vec<u8>,
    state: LinkState,
    peer: String,
}

impl WireSender for SocketSender {
    fn stage(&mut self, msg: Wire) -> Result<(), StageError> {
        if self.state.is_dead() {
            return Err(StageError::Link(self.state.error()));
        }
        encode_msg(&Msg::Wire(msg), &mut self.buf);
        Ok(())
    }

    fn commit(&mut self) -> Result<(), LinkError> {
        if self.state.is_dead() {
            return Err(self.state.error());
        }
        if self.buf.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.buf);
        self.buf.clear();
        if let Err(e) = written {
            let peer = &self.peer;
            self.state
                .mark_dead(format!("write to shard {peer} failed: {e}"));
            return Err(self.state.error());
        }
        Ok(())
    }
}

impl Drop for SocketSender {
    /// Half-closes the connection so the peer's reader sees EOF instead
    /// of blocking forever once the run is over on our side.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

/// The receiving half of one directed socket wire, fed by the
/// connection's reader thread.
#[derive(Debug)]
pub struct SocketReceiver {
    rx: Receiver<Wire>,
    state: Arc<LinkState>,
}

impl WireReceiver for SocketReceiver {
    fn try_recv(&mut self) -> Result<Option<Wire>, LinkError> {
        match self.rx.try_recv() {
            Ok(msg) => Ok(Some(msg)),
            Err(TryRecvError::Empty) => {
                // Buffered messages drain before death surfaces, so
                // nothing the peer managed to send is lost.
                if self.state.is_dead() {
                    Err(self.state.error())
                } else {
                    Ok(None)
                }
            }
            Err(TryRecvError::Disconnected) => Err(self.state.error()),
        }
    }
}

/// Splits one established shard-to-shard connection into its two wire
/// endpoints: our outbound sender and our inbound receiver (the peer
/// holds the mirror pair on its end). Spawns the connection's reader
/// thread, which exits on its own when the run ends (clean shutdown
/// sends a TCP FIN) or the peer dies.
///
/// # Errors
///
/// An I/O error from configuring or cloning the stream.
pub fn split_wires(
    stream: TcpStream,
    peer: &str,
) -> std::io::Result<(SocketSender, SocketReceiver)> {
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;

    let in_state = Arc::new(LinkState::default());
    let (in_tx, in_rx) = channel::<Wire>();

    let rstate = Arc::clone(&in_state);
    let rpeer = peer.to_string();
    std::thread::Builder::new()
        .name(format!("ww-dist-reader-{peer}"))
        .spawn(move || reader_loop(read_half, in_tx, &rstate, &rpeer))?;

    Ok((
        SocketSender {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            state: LinkState::default(),
            peer: peer.to_string(),
        },
        SocketReceiver {
            rx: in_rx,
            state: in_state,
        },
    ))
}

fn reader_loop(mut stream: TcpStream, tx: Sender<Wire>, state: &LinkState, peer: &str) {
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                state.mark_dead(format!("shard {peer} closed the connection"));
                return;
            }
            Ok(n) => {
                frames.feed(&chunk[..n]);
                loop {
                    match frames.next_msg() {
                        Ok(Some(Msg::Wire(w))) => {
                            if tx.send(w).is_err() {
                                // Our consumer is gone; stop reading.
                                return;
                            }
                        }
                        Ok(Some(other)) => {
                            state.mark_dead(format!(
                                "shard {peer} sent a control message on a data wire: {other:?}"
                            ));
                            return;
                        }
                        Ok(None) => break,
                        Err(e) => {
                            state.mark_dead(format!("frame from shard {peer} corrupt: {e}"));
                            return;
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                state.mark_dead(format!("read from shard {peer} failed: {e}"));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use ww_sim::SimTime;

    fn promise(at: f64) -> Wire {
        Wire::Promise {
            until: SimTime::from_secs(at),
        }
    }

    /// A loopback pair of connected streams.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn wires_preserve_fifo_across_the_socket() {
        let (a, b) = pair();
        let (mut tx, _rx_a) = split_wires(a, "1").unwrap();
        let (_tx_b, mut rx) = split_wires(b, "0").unwrap();
        for i in 0..100 {
            tx.stage(promise(i as f64)).unwrap();
        }
        tx.commit().unwrap();
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while got.len() < 100 {
            match rx.try_recv().unwrap() {
                Some(w) => got.push(w),
                None => {
                    assert!(std::time::Instant::now() < deadline, "timed out");
                    std::thread::yield_now();
                }
            }
        }
        for (i, w) in got.iter().enumerate() {
            assert_eq!(*w, promise(i as f64));
        }
    }

    #[test]
    fn peer_death_is_a_typed_error_not_a_hang() {
        let (a, b) = pair();
        let (mut tx, mut rx) = split_wires(a, "1").unwrap();
        drop(b); // Peer dies without a word.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            match rx.try_recv() {
                Err(LinkError::Closed { detail }) => {
                    assert!(detail.contains("shard 1"), "detail: {detail}");
                    break;
                }
                Ok(None) => {
                    assert!(std::time::Instant::now() < deadline, "no typed error");
                    std::thread::yield_now();
                }
                other => panic!("expected Closed, got {other:?}"),
            }
        }
        // A write learns of the death on its first attempt or the one
        // after, while the kernel buffers drain; those messages are
        // addressed to a peer that no longer observes anything.
        let mut saw_error = false;
        for i in 0..10_000 {
            tx.stage(promise(i as f64)).unwrap();
            match tx.commit() {
                Err(LinkError::Closed { .. }) => {
                    saw_error = true;
                    break;
                }
                Err(other) => panic!("expected Closed, got {other:?}"),
                Ok(()) => std::thread::sleep(std::time::Duration::from_micros(100)),
            }
        }
        assert!(saw_error, "writer never noticed the dead peer");
    }
}
