//! How the coordinator obtains its workers.

use crate::error::DistError;
use std::ffi::OsStr;
use std::path::PathBuf;

/// How [`DistPacketSim::launch`](crate::DistPacketSim::launch) brings
/// its workers up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistMode {
    /// Spawn `webwave-dist worker` OS processes when the binary can be
    /// found (see [`find_worker_bin`]), fall back to
    /// [`DistMode::Threads`] otherwise. The environment variable
    /// `WW_DIST_MODE` (`auto` | `proc` | `thread`) overrides the choice;
    /// any other value fails the launch (see [`parse_mode_env`]).
    #[default]
    Auto,
    /// Spawn one `webwave-dist worker` OS process per worker.
    Processes,
    /// Spawn one in-process thread per worker, each running the *same*
    /// worker code over real loopback sockets — the full codec and
    /// socket path without needing the worker binary on disk. Runs are
    /// bit-identical to process mode by construction.
    Threads,
    /// Spawn nothing; wait for externally launched workers to connect
    /// (the `webwave-dist serve` path, where CI or an operator starts
    /// worker processes by hand).
    External,
}

impl DistMode {
    /// Resolves [`DistMode::Auto`] against the environment and the
    /// filesystem; other modes pass through unchanged and read no
    /// environment.
    ///
    /// # Errors
    ///
    /// [`DistError::InvalidEnv`] when `WW_DIST_MODE` or
    /// `WW_DIST_WORKER_BIN` holds a value [`parse_mode_env`] or
    /// [`parse_worker_bin_env`] rejects.
    pub fn resolve(self) -> Result<DistMode, DistError> {
        if self != DistMode::Auto {
            return Ok(self);
        }
        let var = std::env::var_os(MODE_VAR);
        if let Some(mode) = parse_mode_env(var.as_deref())? {
            return Ok(mode);
        }
        Ok(if find_worker_bin()?.is_some() {
            DistMode::Processes
        } else {
            DistMode::Threads
        })
    }
}

const MODE_VAR: &str = "WW_DIST_MODE";
const WORKER_BIN_VAR: &str = "WW_DIST_WORKER_BIN";

/// Parses a `WW_DIST_MODE` value (`None`: unset). `proc`, `process` or
/// `processes` select [`DistMode::Processes`], `thread` or `threads`
/// select [`DistMode::Threads`], and `auto` (like an unset variable)
/// leaves the choice to the worker-binary search: `Ok(None)`.
///
/// # Errors
///
/// [`DistError::InvalidEnv`] for any other value.
pub fn parse_mode_env(value: Option<&OsStr>) -> Result<Option<DistMode>, DistError> {
    let Some(value) = value else {
        return Ok(None);
    };
    match value.to_str() {
        Some("auto") => Ok(None),
        Some("proc" | "process" | "processes") => Ok(Some(DistMode::Processes)),
        Some("thread" | "threads") => Ok(Some(DistMode::Threads)),
        _ => Err(DistError::InvalidEnv {
            var: MODE_VAR,
            value: value.to_string_lossy().into_owned(),
            expected: "auto, proc or thread",
        }),
    }
}

/// Parses a `WW_DIST_WORKER_BIN` value (`None`: unset): the path of the
/// worker binary, which must name an existing file.
///
/// # Errors
///
/// [`DistError::InvalidEnv`] when the path is not a file.
pub fn parse_worker_bin_env(value: Option<&OsStr>) -> Result<Option<PathBuf>, DistError> {
    let Some(value) = value else {
        return Ok(None);
    };
    let path = PathBuf::from(value);
    if path.is_file() {
        Ok(Some(path))
    } else {
        Err(DistError::InvalidEnv {
            var: WORKER_BIN_VAR,
            value: value.to_string_lossy().into_owned(),
            expected: "the path of an existing webwave-dist binary",
        })
    }
}

/// Locates the `webwave-dist` worker binary for process-mode spawning:
/// the `WW_DIST_WORKER_BIN` environment variable, then a sibling of the
/// current executable, then the parent directory (covers test binaries
/// living in `target/<profile>/deps/`). `Ok(None)` when nothing is found.
///
/// # Errors
///
/// [`DistError::InvalidEnv`] when `WW_DIST_WORKER_BIN` is set but does
/// not name a file — the search never falls back past a bad override.
pub fn find_worker_bin() -> Result<Option<PathBuf>, DistError> {
    let var = std::env::var_os(WORKER_BIN_VAR);
    if let Some(path) = parse_worker_bin_env(var.as_deref())? {
        return Ok(Some(path));
    }
    let Ok(exe) = std::env::current_exe() else {
        return Ok(None);
    };
    let name = format!("webwave-dist{}", std::env::consts::EXE_SUFFIX);
    let found = exe
        .ancestors()
        .skip(1)
        .take(2)
        .map(|dir| dir.join(&name))
        .find(|candidate| candidate.is_file());
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode(value: &str) -> Result<Option<DistMode>, DistError> {
        parse_mode_env(Some(OsStr::new(value)))
    }

    #[test]
    fn mode_values_parse() {
        assert_eq!(parse_mode_env(None).unwrap(), None);
        assert_eq!(mode("auto").unwrap(), None);
        for v in ["proc", "process", "processes"] {
            assert_eq!(mode(v).unwrap(), Some(DistMode::Processes));
        }
        for v in ["thread", "threads"] {
            assert_eq!(mode(v).unwrap(), Some(DistMode::Threads));
        }
    }

    #[test]
    fn unknown_mode_is_a_typed_error() {
        for v in ["", "Thread", "procs", "external"] {
            match mode(v) {
                Err(DistError::InvalidEnv { var, value, .. }) => {
                    assert_eq!(var, "WW_DIST_MODE");
                    assert_eq!(value, v);
                }
                other => panic!("{v:?} should be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_bin_must_name_a_file() {
        assert!(parse_worker_bin_env(None).unwrap().is_none());
        let exe = std::env::current_exe().unwrap();
        assert_eq!(
            parse_worker_bin_env(Some(exe.as_os_str())).unwrap(),
            Some(exe.clone())
        );
        let dir = exe.parent().unwrap();
        let missing = dir.join("no-such-webwave-dist-binary");
        for bad in [dir.as_os_str(), missing.as_os_str()] {
            match parse_worker_bin_env(Some(bad)) {
                Err(e @ DistError::InvalidEnv { var, .. }) => {
                    assert_eq!(var, "WW_DIST_WORKER_BIN");
                    assert!(e.to_string().contains("WW_DIST_WORKER_BIN"), "{e}");
                }
                other => panic!("{bad:?} should be rejected, got {other:?}"),
            }
        }
    }
}
