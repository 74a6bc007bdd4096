//! The one workspace-wide error type.
//!
//! Every layer of the stack has a narrow, typed error — compilation
//! ([`CompileError`]), structure building ([`DsError`]), memory shaping
//! ([`MemError`]), request wiring ([`RequestError`]), functional execution
//! ([`ExecError`]), and TCAM sizing ([`CapacityExceeded`]). [`Error`] is
//! their sum at the public API boundary, so callers of
//! [`Runtime`](crate::Runtime) and [`PulseBuilder`](crate::PulseBuilder)
//! handle one type with `?` instead of a mix of panics and
//! `Box<dyn Error>`.

use pulse_core::ClusterError;
use pulse_dispatch::CompileError;
use pulse_ds::DsError;
use pulse_mem::{CapacityExceeded, MemError};
use pulse_workloads::{ExecError, RequestError};
use std::fmt;

/// Anything that can go wrong across the pulse stack.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The dispatch engine rejected an iterator spec.
    Compile(CompileError),
    /// Building a data structure in disaggregated memory failed.
    Build(DsError),
    /// Memory shaping (extents, allocation) failed.
    Memory(MemError),
    /// A request's stage wiring is malformed.
    Request(RequestError),
    /// Functional execution faulted.
    Exec(ExecError),
    /// A node's translation ranges exceed the configured TCAM capacity.
    Capacity(CapacityExceeded),
    /// A runtime/builder invariant was violated (message explains which).
    Config(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "compile error: {e}"),
            Error::Build(e) => write!(f, "build error: {e}"),
            Error::Memory(e) => write!(f, "memory error: {e}"),
            Error::Request(e) => write!(f, "malformed request: {e}"),
            Error::Exec(e) => write!(f, "execution error: {e}"),
            Error::Capacity(e) => write!(f, "TCAM capacity exceeded: {e}"),
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Compile(e) => Some(e),
            Error::Build(e) => Some(e),
            Error::Memory(e) => Some(e),
            Error::Request(e) => Some(e),
            Error::Exec(e) => Some(e),
            Error::Capacity(e) => Some(e),
            Error::Config(_) => None,
        }
    }
}

impl From<CompileError> for Error {
    fn from(e: CompileError) -> Self {
        Error::Compile(e)
    }
}

impl From<DsError> for Error {
    fn from(e: DsError) -> Self {
        Error::Build(e)
    }
}

impl From<MemError> for Error {
    fn from(e: MemError) -> Self {
        Error::Memory(e)
    }
}

impl From<RequestError> for Error {
    fn from(e: RequestError) -> Self {
        Error::Request(e)
    }
}

impl From<ExecError> for Error {
    fn from(e: ExecError) -> Self {
        Error::Exec(e)
    }
}

impl From<CapacityExceeded> for Error {
    fn from(e: CapacityExceeded) -> Self {
        Error::Capacity(e)
    }
}

impl From<ClusterError> for Error {
    fn from(e: ClusterError) -> Self {
        match e {
            ClusterError::Config(msg) => Error::Config(msg),
            ClusterError::Capacity(e) => Error::Capacity(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_cover_every_variant() {
        let errs: Vec<Error> = vec![
            Error::Build(DsError::Empty),
            Error::Request(RequestError::MissingPrevState),
            Error::Exec(ExecError::Request(RequestError::DanglingObjectAddress)),
            Error::Config("window must be positive".into()),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
            match &e {
                Error::Config(_) => assert!(std::error::Error::source(&e).is_none()),
                _ => assert!(std::error::Error::source(&e).is_some()),
            }
        }
    }

    #[test]
    fn conversions_land_in_the_right_variant() {
        let e: Error = DsError::Empty.into();
        assert!(matches!(e, Error::Build(_)));
        let e: Error = RequestError::MissingPrevState.into();
        assert!(matches!(e, Error::Request(_)));
    }
}
