//! Resident memory of this process during the measured window.
//!
//! `VmHWM` over the whole process would report the harness's own data
//! generation (about 400 MB of boxed rows at SF 0.1), not the engine. So the
//! harness returns freed heap to the system after each set-up and then
//! samples `VmRSS` while statements run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Give freed heap pages back to the system, so memory the generator used
/// neither counts as the engine's nor hides the engine's own growth by
/// absorbing it.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` is glibc's, takes no pointers, may be called from
    // any thread at any time and only releases memory the allocator holds
    // free.
    unsafe {
        malloc_trim(0);
    }
}

/// `VmRSS` of this process in MB, if the system reports it.
pub fn current_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Samples `VmRSS` every 5 ms on its own thread (about 20 µs of work per
/// sample) and keeps the maximum.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Option<f64>>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut peak = current_rss_mb()?;
            // The flag publishes no data; the join below orders everything.
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(current_rss_mb()?);
            }
            Some(peak)
        });
        RssSampler { stop, handle }
    }

    /// Stop sampling and return the peak in MB; `None` if `/proc` is not
    /// readable here.
    pub fn finish(self) -> Option<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("rss sampler thread panicked")
    }
}
