use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from DLC configuration and archive access.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A query's time range is inverted.
    InvertedRange {
        /// Range start (seconds).
        from_s: u64,
        /// Range end (seconds).
        until_s: u64,
    },
    /// A quality policy was configured with an inverted bound.
    InvertedBounds {
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvertedRange { from_s, until_s } => {
                write!(f, "inverted time range [{from_s}, {until_s})")
            }
            Error::InvertedBounds { min, max } => {
                write!(f, "inverted quality bounds [{min}, {max}]")
            }
        }
    }
}

impl std::error::Error for Error {}
