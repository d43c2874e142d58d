//! Cooperative cancellation for long compilations.
//!
//! A [`CancelToken`] is a cheap cloneable handle a *driver* (a server's request
//! handler, a CLI watchdog) uses to stop a compilation that is already running: it
//! can be cancelled explicitly ([`CancelToken::cancel`]) or carry a wall-clock
//! deadline fixed at creation ([`CancelToken::with_deadline`]). Cancellation is
//! **cooperative** — nothing is interrupted preemptively. The
//! [`Compiler`](crate::Compiler) checks the token at every pass boundary, and
//! long-running passes ([`PartitionPass`](crate::PartitionPass) between escalation
//! rounds) poll it at their own internal checkpoints via
//! [`PassContext::cancel`](crate::PassContext::cancel), so a cancelled compilation
//! stops at the next checkpoint with
//! [`CompileError::Cancelled`](crate::CompileError::Cancelled) instead of running to
//! completion.
//!
//! The default handle ([`CancelToken::none`]) never cancels and costs nothing to
//! check, mirroring the disabled [`TraceRegistry`](qudit_trace::TraceRegistry)
//! pattern: plumbed-through code never branches on an `Option`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a compilation was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The driver cancelled explicitly (client disconnect, shutdown, supersession).
    Cancelled,
    /// The token's deadline passed.
    DeadlineExceeded,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Cancelled => f.write_str("cancelled"),
            CancelReason::DeadlineExceeded => f.write_str("deadline exceeded"),
        }
    }
}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Absolute deadline, fixed at token creation (`None` = no deadline).
    deadline: Option<Instant>,
}

/// A cheap cloneable cancellation handle — or the never-cancelling default.
///
/// All clones share the same state: cancelling any clone cancels them all, which is
/// how a server hands one token to both its timeout watchdog and the worker running
/// the compile. See the [module docs](self) for the cooperative-checkpoint contract.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<TokenInner>>,
}

impl CancelToken {
    /// The never-cancelling handle (identical to [`Default`]): every check passes,
    /// at the cost of one pointer test.
    pub fn none() -> Self {
        CancelToken::default()
    }

    /// A token with no deadline; cancels only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Some(Arc::new(TokenInner { cancelled: AtomicBool::new(false), deadline: None })),
        }
    }

    /// A token that additionally cancels once `budget` has elapsed from *now*.
    ///
    /// The deadline is absolute: a server creates the token at request admission, so
    /// the budget covers queue wait as well as compute.
    pub fn with_deadline(budget: Duration) -> Self {
        // detlint: allow(wall-clock) — the request-timing gate: deadlines are
        // wall-clock by definition and never feed a compiled artifact
        let deadline = Instant::now().checked_add(budget);
        CancelToken {
            inner: Some(Arc::new(TokenInner { cancelled: AtomicBool::new(false), deadline })),
        }
    }

    /// Requests cancellation. Idempotent; takes effect at the next checkpoint.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// Whether any check from now on will fail.
    pub fn is_cancelled(&self) -> bool {
        self.check().is_err()
    }

    /// The checkpoint primitive: `Ok` to keep going, `Err` with the reason to stop.
    ///
    /// Explicit cancellation wins over an expired deadline when both hold.
    pub fn check(&self) -> Result<(), CancelReason> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.cancelled.load(Ordering::Relaxed) {
            return Err(CancelReason::Cancelled);
        }
        if let Some(deadline) = inner.deadline {
            // detlint: allow(wall-clock) — the request-timing gate: comparing
            // against the admission-time deadline is the token's whole purpose
            if Instant::now() >= deadline {
                return Err(CancelReason::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_token_never_cancels() {
        let token = CancelToken::none();
        assert!(token.check().is_ok());
        token.cancel(); // no-op on the disabled handle
        assert!(!token.is_cancelled());
    }

    #[test]
    fn explicit_cancellation_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(token.check().is_ok());
        clone.cancel();
        assert_eq!(token.check(), Err(CancelReason::Cancelled));
        assert!(token.is_cancelled());
        token.cancel(); // idempotent
        assert_eq!(token.check(), Err(CancelReason::Cancelled));
    }

    #[test]
    fn deadlines_expire_and_report_their_reason() {
        let expired = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(expired.check(), Err(CancelReason::DeadlineExceeded));
        let generous = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(generous.check().is_ok());
        // Explicit cancellation outranks the (still unexpired) deadline.
        generous.cancel();
        assert_eq!(generous.check(), Err(CancelReason::Cancelled));
    }
}
