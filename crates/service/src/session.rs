//! Per-stream sessions: resident engine state across protocol requests.
//!
//! Each named stream the daemon opens holds a [`StreamExec`] opened by
//! [`streamlin_runtime::open_session`] on a cached artifact
//! ([`crate::cache`]); it persists between `read` requests and degrades
//! on its own (see [`streamlin_runtime::session`]). The daemon and the
//! one-shot `streamlinc` share that session path, so a stream's values
//! are bit-identical to the CLI's.

use std::time::Duration;

pub use streamlin_runtime::session::{CloseReport, ReadOut, StreamExec};
use streamlin_runtime::{open_session, ExecMode, Instruments, RunError, RunSpec};
use streamlin_support::{InjectFaults, Recorder};

use crate::cache::CachedArtifact;

/// [`open_session`] under positional arguments, on the default tier.
/// This adapter exists for the benchmark tracer (`streambench/tracer`),
/// which builds against this signature; the daemon calls
/// [`open_session`] with the stream's [`RunSpec`].
///
/// # Errors
///
/// As [`open_session`].
pub fn build_exec(
    art: &CachedArtifact,
    mode: ExecMode,
    instrument: bool,
    fault: Option<InjectFaults>,
    watchdog: Option<Duration>,
) -> Result<Box<dyn StreamExec>, RunError> {
    let spec = RunSpec {
        mode,
        watchdog,
        ..RunSpec::new(0)
    };
    let rec = instrument.then(Recorder::new);
    open_session(art, &spec, Instruments { rec, fault })
}
