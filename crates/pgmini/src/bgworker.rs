//! Background workers: the extension API for user-supplied daemon code.
//!
//! The paper's maintenance daemon (distributed deadlock detection, 2PC
//! recovery, cleanup) runs through this: a worker executes a closure on a
//! fixed interval in its own thread until stopped.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Handle to a running background worker; stops (and joins) on drop.
pub struct BackgroundWorker {
    name: String,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    ticks: Arc<std::sync::atomic::AtomicU64>,
}

impl BackgroundWorker {
    /// Spawn a worker that runs `body` every `interval` until stopped.
    /// The body also runs once immediately at startup. A worker whose thread
    /// the system cannot start never runs (its tick count stays 0), as
    /// PostgreSQL carries on when it cannot register a background worker.
    pub fn spawn(
        name: &str,
        interval: Duration,
        body: impl FnMut() + Send + 'static,
    ) -> BackgroundWorker {
        let stop = Arc::new(AtomicBool::new(false));
        let ticks = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let stop2 = stop.clone();
        let ticks2 = ticks.clone();
        let mut body = body;
        let handle = std::thread::Builder::new()
            .name(format!("bgworker-{name}"))
            .spawn(move || {
                loop {
                    body();
                    ticks2.fetch_add(1, Ordering::Relaxed);
                    // sleep in small slices so stop is responsive
                    let mut waited = Duration::ZERO;
                    while waited < interval {
                        if stop2.load(Ordering::Relaxed) {
                            return;
                        }
                        let slice = Duration::from_millis(5).min(interval - waited);
                        std::thread::sleep(slice);
                        waited += slice;
                    }
                    if stop2.load(Ordering::Relaxed) {
                        return;
                    }
                }
            })
            .ok();
        BackgroundWorker { name: name.to_string(), stop, handle, ticks }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of completed iterations.
    pub fn tick_count(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Request stop and wait for the thread to exit.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for BackgroundWorker {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_and_stops() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = counter.clone();
        let mut w = BackgroundWorker::spawn("test", Duration::from_millis(5), move || {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        std::thread::sleep(Duration::from_millis(40));
        w.stop();
        let after_stop = counter.load(Ordering::Relaxed);
        assert!(after_stop >= 2, "worker should have ticked: {after_stop}");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(counter.load(Ordering::Relaxed), after_stop, "no ticks after stop");
        assert_eq!(w.tick_count(), after_stop);
    }

    #[test]
    fn drop_stops_worker() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = counter.clone();
        {
            let _w = BackgroundWorker::spawn("drop-test", Duration::from_millis(5), move || {
                c2.fetch_add(1, Ordering::Relaxed);
            });
            std::thread::sleep(Duration::from_millis(15));
        }
        let at_drop = counter.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(counter.load(Ordering::Relaxed), at_drop);
    }
}
