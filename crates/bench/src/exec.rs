//! The scoped-thread worker pool ([`run_indexed`]).

/// Runs `job(0..n)` on a pool of `workers` scoped threads and returns
/// the results in index order — the one worker pool behind the runner's
/// cell matrix, sharded single runs and the SimPoint driver.
///
/// Work is claimed from an atomic index, so any worker count yields the
/// same index→result mapping; with `workers == 1` the indices execute
/// strictly in order.
pub fn run_indexed<T: Send>(n: usize, workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = job(i);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker filled every slot")
        })
        .collect()
}
