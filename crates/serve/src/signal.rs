//! Minimal SIGTERM/SIGINT handling without a libc crate: the raw
//! `signal(2)` entry point from the C runtime, a handler that does
//! nothing but flip an `AtomicBool` (the only async-signal-safe thing
//! worth doing), and a poll-side accessor for the accept loop.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the handler for SIGTERM and SIGINT. Idempotent.
pub fn install() {
    // SAFETY: `signal` is the C runtime's own registration entry
    // point; the handler only performs an atomic store, which is
    // async-signal-safe.
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Whether a shutdown signal has arrived.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}
