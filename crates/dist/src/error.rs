//! Typed failures of a distributed run.

use crate::codec::CodecError;
use std::fmt;
use std::time::Duration;
use ww_model::ModelError;

/// Why a distributed packet run failed. Every failure mode a socket can
/// produce — peer death, protocol corruption, silence — surfaces as one
/// of these within the configured timeouts; a distributed run never
/// hangs on a dead peer.
#[derive(Debug)]
pub enum DistError {
    /// An OS-level socket or process operation failed.
    Io(std::io::Error),
    /// A frame on the wire did not decode.
    Codec(CodecError),
    /// A peer sent a well-formed message the protocol does not allow in
    /// the current state.
    Protocol {
        /// What arrived, and what was expected instead.
        detail: String,
    },
    /// A worker's control connection closed while the run still needed
    /// it — the worker process died or dropped out.
    WorkerDied {
        /// Shard id (or accept index, before assignment) of the worker.
        worker: usize,
        /// What the coordinator observed.
        detail: String,
    },
    /// A worker reported a fatal error of its own (a dead or stalled
    /// data wire, or a failed barrier application).
    WorkerFailed {
        /// Shard id of the worker.
        worker: usize,
        /// The worker's error message.
        detail: String,
    },
    /// A worker sent nothing within the reply timeout.
    Timeout {
        /// Shard id of the worker the coordinator was waiting on.
        worker: usize,
        /// How long the coordinator waited.
        waited: Duration,
    },
    /// An environment variable that configures the launch holds a value
    /// it does not accept. Rejected, never ignored.
    InvalidEnv {
        /// The variable's name.
        var: &'static str,
        /// The value it held.
        value: String,
        /// What the variable accepts.
        expected: &'static str,
    },
    /// No worker binary could be found for process-mode spawning.
    SpawnUnavailable {
        /// Where the coordinator looked.
        detail: String,
    },
    /// A barrier operation was rejected by the model (unknown document,
    /// non-leaf removal, …) — replicated verbatim from the in-process
    /// engines.
    Model(ModelError),
    /// The requested feature is not available on the distributed
    /// runtime (e.g. adaptive shard rebalancing, which would move node
    /// state between single-shard worker processes). Rejected up front
    /// and typed — never silently ignored — so a distributed run can
    /// never diverge from its in-process twin by dropping a knob.
    Unsupported {
        /// The feature, and what to use instead.
        detail: String,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "socket i/o failed: {e}"),
            DistError::Codec(e) => write!(f, "wire frame did not decode: {e}"),
            DistError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            DistError::WorkerDied { worker, detail } => {
                write!(f, "worker {worker} died: {detail}")
            }
            DistError::WorkerFailed { worker, detail } => {
                write!(f, "worker {worker} failed: {detail}")
            }
            DistError::Timeout { worker, waited } => {
                write!(f, "worker {worker} sent nothing for {waited:?}")
            }
            DistError::InvalidEnv {
                var,
                value,
                expected,
            } => write!(f, "invalid {var}={value:?}: expected {expected}"),
            DistError::SpawnUnavailable { detail } => {
                write!(f, "no worker binary to spawn: {detail}")
            }
            DistError::Model(e) => write!(f, "barrier operation rejected: {e}"),
            DistError::Unsupported { detail } => {
                write!(f, "unsupported on the distributed runtime: {detail}")
            }
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            DistError::Codec(e) => Some(e),
            DistError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<CodecError> for DistError {
    fn from(e: CodecError) -> Self {
        DistError::Codec(e)
    }
}

impl From<ModelError> for DistError {
    fn from(e: ModelError) -> Self {
        DistError::Model(e)
    }
}
