//! Order-preserving parallel map for the figure harnesses.
//!
//! Each simulation is single-threaded and `Rc`-based, so a harness builds
//! every `Sim` inside the mapped closure, on the worker thread that runs
//! it; only the (`Send`) results cross threads. Workers claim items from a
//! shared counter and results land in input order, so the output never
//! depends on scheduling. Items are claimed from the back: the harnesses
//! list their points smallest message first, so the slowest points start
//! first and no worker is left finishing a large one alone.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// `items.iter().map(f).collect()`, with items spread over one worker
/// thread per available core.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let run = || {
        let mut done = Vec::new();
        loop {
            // A ticket counter publishes no data (results come back
            // through `join`), so `Relaxed` suffices.
            let claimed = next.fetch_add(1, Ordering::Relaxed);
            let Some(i) = items.len().checked_sub(claimed + 1) else {
                return done;
            };
            done.push((i, f(&items[i])));
        }
    };
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(run)).collect();
        for h in handles {
            let done = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            for (i, r) in done {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, |&x| {
            // Uneven work, so workers finish out of order.
            std::hint::black_box((0..(x % 7) * 10_000).sum::<u64>());
            x
        });
        assert_eq!(out, items);
    }
}
