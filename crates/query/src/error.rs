//! Typed execution errors.
//!
//! Operators do not return `Result` — the pull-based iterator interface
//! stays infallible — instead a failing operator records the first
//! error in its [`crate::context::ExecCtx`] and ends its stream. Callers
//! of the driver ([`crate::exec`]) take the slot after the pipeline
//! drains and surface it as an `Err`, so a disk
//! fault or a zero divisor in the data fails one query with a typed
//! error instead of panicking the process.

use eco_storage::IoError;

/// An error that ended query execution early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// A page read failed permanently (see [`IoError`]): the retry
    /// budget was exhausted on an injected permanent fault or on
    /// genuine page corruption.
    Io(IoError),
    /// An integer division met a zero divisor in the data (a literal
    /// zero divisor is rejected at bind time). The row's value is a
    /// placeholder and the query's scans stop.
    DivisionByZero,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Io(e) => write!(f, "query aborted: {e}"),
            ExecError::DivisionByZero => write!(f, "query aborted: division by zero"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Io(e) => Some(e),
            ExecError::DivisionByZero => None,
        }
    }
}

impl From<IoError> for ExecError {
    fn from(e: IoError) -> Self {
        ExecError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ExecError::from(IoError::Permanent { table: 3, page: 9 });
        assert!(e.to_string().contains("table 3 page 9"));
        assert!(std::error::Error::source(&e).is_some());
        assert_eq!(e, ExecError::Io(IoError::Permanent { table: 3, page: 9 }));
    }
}
