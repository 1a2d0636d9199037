//! The workspace-wide error type.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by NEOFog components.
///
/// A run fails in one of two ways: the caller's configuration is out
/// of range or inconsistent, or the simulator broke one of its own
/// invariants. Shortages the paper models (energy depletion, a full
/// buffer, a lost packet) are outcomes of a run, reported in its
/// metrics and events, not errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NeoFogError {
    /// A configuration value was out of range or inconsistent.
    InvalidConfig {
        /// Human-readable description of what was wrong.
        reason: String,
    },
    /// An internal invariant was violated (a bug in the simulator, not
    /// in the caller's configuration).
    Internal {
        /// Description of the broken invariant.
        reason: String,
    },
}

impl fmt::Display for NeoFogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeoFogError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            NeoFogError::Internal { reason } => {
                write!(f, "internal invariant violated: {reason}")
            }
        }
    }
}

impl StdError for NeoFogError {}

impl NeoFogError {
    /// Convenience constructor for [`NeoFogError::InvalidConfig`].
    #[must_use]
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        NeoFogError::InvalidConfig {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`NeoFogError::Internal`].
    #[must_use]
    pub fn internal(reason: impl Into<String>) -> Self {
        NeoFogError::Internal {
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_lowercase_and_informative() {
        let e = NeoFogError::invalid_config("capacity must be positive");
        assert_eq!(
            e.to_string(),
            "invalid configuration: capacity must be positive"
        );
        let e = NeoFogError::internal("simulation batch lost a result");
        assert_eq!(
            e.to_string(),
            "internal invariant violated: simulation batch lost a result"
        );
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_bounds<T: StdError + Send + Sync + 'static>() {}
        assert_bounds::<NeoFogError>();
    }
}
