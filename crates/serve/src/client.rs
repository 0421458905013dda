//! The replay client: feed recorded frames to a resident server.
//!
//! [`FeedClient`] speaks the serving protocol from the other side —
//! `fixy feed` uses it to replay `.fscb` scenes (optionally shuffled
//! within the reorder window by [`delivery_order`]) against `fixy
//! serve`, and the integration tests drive it against an in-process
//! server.

use crate::error::ServeError;
use crate::protocol::{
    read_response, write_preamble, write_request, Request, Response, SessionStats, Worklist,
};
use loa_data::Frame;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{TcpStream, ToSocketAddrs};

/// A buffered protocol client over one TCP connection.
#[derive(Debug)]
pub struct FeedClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl FeedClient {
    /// Connect and send the preamble.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        write_preamble(&mut writer)?;
        Ok(FeedClient { reader, writer })
    }

    fn await_response(&mut self) -> Result<Response, ServeError> {
        match read_response(&mut self.reader)? {
            Some(resp) => Ok(resp),
            None => Err(ServeError::ServerClosed),
        }
    }

    /// Open a session and await the ack.
    pub fn open(&mut self, session: u32, scene_id: &str, frame_dt: f64) -> Result<(), ServeError> {
        write_request(
            &mut self.writer,
            &Request::Open { session, scene_id: scene_id.to_string(), frame_dt },
        )?;
        self.writer.flush()?;
        match self.await_response()? {
            Response::Opened { session: s } if s == session => Ok(()),
            Response::Error { message, .. } => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!("expected OPENED, got {other:?}"))),
        }
    }

    /// Send one frame, fire-and-forget (buffered; flushed by the next
    /// request/response call or an explicit [`flush`](Self::flush)).
    pub fn frame(&mut self, session: u32, frame: &Frame) -> Result<(), ServeError> {
        let record = loa_ingest::encode_frame_record(frame);
        write_request(&mut self.writer, &Request::Frame { session, record })?;
        Ok(())
    }

    /// Flush buffered frames to the socket.
    pub fn flush(&mut self) -> Result<(), ServeError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Snapshot a live session's delivery stats mid-session. Flushes
    /// buffered frames first, and — because the server answers requests
    /// in receive order — the reply doubles as a barrier: every frame
    /// sent before this call is reflected in the returned stats.
    pub fn stats(&mut self, session: u32) -> Result<SessionStats, ServeError> {
        write_request(&mut self.writer, &Request::Stats { session })?;
        self.writer.flush()?;
        match self.await_response()? {
            Response::Stats { session: s, stats } if s == session => Ok(stats),
            Response::Error { message, .. } => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!("expected STATS_REPLY, got {other:?}"))),
        }
    }

    /// Close a session and await its final worklist.
    pub fn close_session(&mut self, session: u32) -> Result<Worklist, ServeError> {
        write_request(&mut self.writer, &Request::Close { session })?;
        self.writer.flush()?;
        match self.await_response()? {
            Response::Worklist { session: s, worklist } if s == session => Ok(worklist),
            Response::Error { message, .. } => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!("expected WORKLIST, got {other:?}"))),
        }
    }

    /// Ask the server to stop and await `BYE`. Consumes the client; the
    /// connection closes on drop.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        write_request(&mut self.writer, &Request::Shutdown)?;
        self.writer.flush()?;
        match self.await_response()? {
            Response::Bye => Ok(()),
            Response::Error { message, .. } => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!("expected BYE, got {other:?}"))),
        }
    }
}

/// Delivery order for `n` frames where no frame lands more than `late`
/// positions from its index: sort by `index + jitter`, jitter seeded
/// SplitMix64 in `0..=late`. If frame `j` is outstanding when `i` is
/// delivered then `j + late >= key_j >= key_i >= i`, so any reorder
/// window above `late` absorbs the shuffle.
pub fn delivery_order(n: usize, late: u32, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut splitmix64 = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut keyed: Vec<(u64, usize)> = (0..n)
        .map(|i| (i as u64 + splitmix64() % (u64::from(late) + 1), i))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}
