//! The typed error surface of the serving subsystem.

use loa_ingest::IngestError;

/// Errors from session management, the wire protocol, and the TCP
/// server/client pair.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or file I/O failed.
    Io(std::io::Error),
    /// The ingest layer rejected a frame or a record failed to decode.
    Ingest(IngestError),
    /// Scoring-engine construction or ranking failed (e.g. a learned
    /// feature with no library entry).
    Fixy(fixy_core::FixyError),
    /// The peer sent bytes that are not the protocol: bad preamble,
    /// unknown tag, implausible length, malformed payload.
    Protocol(String),
    /// A frame or close referenced a session id that was never opened
    /// (or was already closed).
    UnknownSession(u32),
    /// An open reused a session id that is still live.
    SessionExists(u32),
    /// The session table is full.
    SessionLimit { max: usize },
    /// A frame index at or past the per-session frame budget — the
    /// bound that keeps one runaway stream from holding memory forever.
    FrameLimit { frame: u32, max: usize },
    /// A frame failed [`loa_data::Frame::validate`]; `reason` is its
    /// message, the words batch `rank`'s whole-scene check uses.
    InvalidFrame { frame: u32, reason: String },
    /// A stream was opened with a scene header batch `rank` rejects (a
    /// NaN or non-positive `frame_dt`); `reason` is rank's message.
    InvalidScene { reason: String },
    /// The server answered a request with an error message.
    Remote(String),
    /// The server hung up before answering.
    ServerClosed,
}

impl ServeError {
    /// Whether a per-frame failure leaves the session usable — the
    /// serving loop absorbs these into session stats instead of killing
    /// the connection. Everything else is a hard failure.
    pub fn is_frame_recoverable(&self) -> bool {
        matches!(
            self,
            ServeError::Ingest(IngestError::ReorderWindowExceeded { .. })
                | ServeError::FrameLimit { .. }
                | ServeError::InvalidFrame { .. }
        )
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Ingest(e) => write!(f, "ingest error: {e}"),
            ServeError::Fixy(e) => write!(f, "engine error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::SessionExists(id) => write!(f, "session {id} is already open"),
            ServeError::SessionLimit { max } => {
                write!(f, "session limit reached ({max} open)")
            }
            ServeError::FrameLimit { frame, max } => {
                write!(f, "frame {frame} is past the per-session frame budget ({max})")
            }
            ServeError::InvalidFrame { reason, .. } | ServeError::InvalidScene { reason } => {
                write!(f, "{reason}")
            }
            ServeError::Remote(msg) => write!(f, "server error: {msg}"),
            ServeError::ServerClosed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<IngestError> for ServeError {
    fn from(e: IngestError) -> Self {
        ServeError::Ingest(e)
    }
}

impl From<fixy_core::FixyError> for ServeError {
    fn from(e: fixy_core::FixyError) -> Self {
        ServeError::Fixy(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_recoverability() {
        assert!(ServeError::UnknownSession(7).to_string().contains("7"));
        assert!(ServeError::SessionLimit { max: 4 }.to_string().contains("4"));
        let e = ServeError::FrameLimit { frame: 10, max: 10 };
        assert!(e.to_string().contains("frame 10"));
        assert!(e.is_frame_recoverable());
        let e: ServeError =
            IngestError::ReorderWindowExceeded { frame: 9, watermark: 0, window: 4 }.into();
        assert!(e.is_frame_recoverable());
        let e = ServeError::InvalidFrame {
            frame: 3,
            reason: "invalid detection box in frame 3".into(),
        };
        assert_eq!(e.to_string(), "invalid detection box in frame 3");
        assert!(e.is_frame_recoverable());
        // Anything structural is hard.
        let e = ServeError::InvalidScene { reason: "bad frame_dt NaN".into() };
        assert_eq!(e.to_string(), "bad frame_dt NaN");
        assert!(!e.is_frame_recoverable());
        let e: ServeError = IngestError::NotStreaming.into();
        assert!(!e.is_frame_recoverable());
        assert!(!ServeError::Protocol("x".into()).is_frame_recoverable());
        assert!(!ServeError::ServerClosed.is_frame_recoverable());
    }
}
