//! Error type shared by all szx-core entry points.

use core::fmt;

/// Errors returned by compression, decompression, and stream parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SzxError {
    /// The configuration is not usable (e.g. zero or oversized block size,
    /// negative error bound).
    InvalidConfig(String),
    /// The compressed stream is malformed: bad magic, unsupported version,
    /// or a section that ends prematurely.
    CorruptStream(String),
    /// The stream was produced for a different element type than the one
    /// requested (e.g. decompressing an f64 stream as f32).
    TypeMismatch {
        expected: &'static str,
        found: &'static str,
    },
    /// The input is empty. SZx streams always carry at least one block.
    EmptyInput,
    /// Writing a container to its sink failed.
    Io(String),
}

impl fmt::Display for SzxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SzxError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SzxError::CorruptStream(msg) => write!(f, "corrupt compressed stream: {msg}"),
            SzxError::TypeMismatch { expected, found } => {
                write!(
                    f,
                    "element type mismatch: stream holds {found}, requested {expected}"
                )
            }
            SzxError::EmptyInput => write!(f, "input dataset is empty"),
            SzxError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for SzxError {}

impl From<std::io::Error> for SzxError {
    fn from(e: std::io::Error) -> Self {
        SzxError::Io(e.to_string())
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = core::result::Result<T, SzxError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SzxError::InvalidConfig("block size must be nonzero".into());
        assert!(e.to_string().contains("block size"));
        let e = SzxError::TypeMismatch {
            expected: "f32",
            found: "f64",
        };
        assert!(e.to_string().contains("f64"));
        let e = SzxError::CorruptStream("truncated header".into());
        assert!(e.to_string().contains("truncated"));
        assert_eq!(SzxError::EmptyInput.to_string(), "input dataset is empty");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SzxError::EmptyInput);
    }
}
