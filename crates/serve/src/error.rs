//! Error type of the serving layer.

use std::error::Error;
use std::fmt;

use dapsp_core::CoreError;

/// Errors raised by the route service.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The underlying distributed computation failed (see [`CoreError`]) —
    /// the snapshot in service is left untouched.
    Core(CoreError),
    /// The background control-plane thread is gone (shut down or
    /// panicked); the last published snapshot keeps serving, but no new
    /// topology changes can be applied.
    ControlPlaneDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "recompute failed: {e}"),
            ServeError::ControlPlaneDown => {
                write!(f, "control-plane thread is no longer running")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}
