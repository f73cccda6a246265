//! Error types for design construction.

use std::error::Error;
use std::fmt;

/// Errors produced while building or validating a design.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DesignError {
    /// The technology description is inconsistent.
    InvalidTechnology(String),
    /// A net references a pin that does not exist or belongs to another net.
    InvalidNet(String),
    /// A pin or obstacle shape lies outside the die or on a missing layer.
    InvalidGeometry(String),
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::InvalidTechnology(msg) => write!(f, "invalid technology: {msg}"),
            DesignError::InvalidNet(msg) => write!(f, "invalid net: {msg}"),
            DesignError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
        }
    }
}

impl Error for DesignError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = DesignError::InvalidNet("net n1 has no pins".into());
        assert_eq!(e.to_string(), "invalid net: net n1 has no pins");
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<DesignError>();
    }
}
