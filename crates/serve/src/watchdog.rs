//! Wall-clock supervision of one rebuild attempt.

use pibe::PipelineError;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How a supervised computation ended.
#[derive(Debug)]
pub enum WatchdogVerdict<T> {
    /// The computation finished within the deadline.
    Completed(T),
    /// The deadline elapsed first. The worker thread is *detached*, not
    /// killed — it finishes (or hangs) in the background and its result is
    /// dropped on the floor; the supervisor moves on. `waited` is the
    /// actual wall-clock time spent.
    TimedOut {
        /// Wall-clock time waited before giving up.
        waited: Duration,
    },
    /// The computation panicked: the panic as
    /// [`PipelineError::StagePanicked`] (see [`PipelineError::from_panic`]).
    Panicked(PipelineError),
}

/// Runs `f` on a fresh worker thread and waits at most `timeout` for its
/// result.
///
/// Panics inside `f` are contained by `catch_unwind` and surfaced as
/// [`WatchdogVerdict::Panicked`]. On timeout the worker is detached: Rust
/// offers no safe thread cancellation, so a truly wedged rebuild leaks one
/// thread — which is precisely why the serve loop pairs the watchdog with
/// a freeze threshold instead of retrying forever.
pub fn supervise<T, F>(timeout: Duration, f: F) -> WatchdogVerdict<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let started = Instant::now();
    std::thread::Builder::new()
        .name("pibe-serve-rebuild".into())
        .spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            // A dropped receiver (timeout) makes this send fail; that is
            // fine — the result is stale by definition.
            let _ = tx.send(result);
        })
        .expect("spawn rebuild worker");

    match rx.recv_timeout(timeout) {
        Ok(Ok(value)) => WatchdogVerdict::Completed(value),
        Ok(Err(payload)) => WatchdogVerdict::Panicked(PipelineError::from_panic(payload)),
        Err(mpsc::RecvTimeoutError::Timeout) => WatchdogVerdict::TimedOut {
            waited: started.elapsed(),
        },
        // The worker died without sending — only possible if the send
        // itself raced the catch_unwind; treat it like a panic.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            WatchdogVerdict::Panicked(PipelineError::StagePanicked {
                message: "rebuild worker disappeared".into(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_beats_the_deadline() {
        match supervise(Duration::from_secs(5), || 41 + 1) {
            WatchdogVerdict::Completed(42) => {}
            other => panic!("wanted Completed(42), got {other:?}"),
        }
    }

    #[test]
    fn a_wedged_worker_times_out() {
        let verdict = supervise(Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_secs(30));
            0u8
        });
        match verdict {
            WatchdogVerdict::TimedOut { waited } => {
                assert!(waited >= Duration::from_millis(20));
            }
            other => panic!("wanted TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn panics_are_contained_with_their_message() {
        let verdict = supervise(Duration::from_secs(5), || {
            panic!("rebuild exploded");
            #[allow(unreachable_code)]
            0u8
        });
        match verdict {
            WatchdogVerdict::Panicked(PipelineError::StagePanicked { message }) => {
                assert!(message.contains("rebuild exploded"), "{message}");
            }
            other => panic!("wanted Panicked, got {other:?}"),
        }
    }
}
