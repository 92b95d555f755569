//! Deterministic fan-out of independent analysis work across scoped
//! threads.
//!
//! The two hot loops of the pipeline — per-site identification and
//! per-export/per-library shared-interface analysis — are embarrassingly
//! parallel: every unit is a pure function of shared read-only state
//! (`&Cfg`, `&Elf`, options). The helpers here run such units across
//! `std::thread::scope` workers with an atomic work-stealing cursor and
//! return results **in input order**, so callers observe byte-identical
//! output regardless of the worker count or scheduling.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs `f` over every item, fanning out across up to `parallelism`
/// scoped worker threads, and returns the results in input order.
///
/// With `parallelism <= 1` (or one item) the work runs inline on the
/// calling thread — the sequential reference path.
pub(crate) fn run_indexed<T, R, F>(parallelism: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed_ctx(parallelism, items, || (), |(), i, item| f(i, item))
}

/// Like [`run_indexed`], but every worker owns a scratch context built by
/// `init` and threaded through its units — how per-worker allocation
/// reuse (e.g. [`bside_symex::SearchScratch`]) crosses the thread
/// boundary without locks.
pub(crate) fn run_indexed_ctx<T, R, C, I, F>(
    parallelism: usize,
    items: &[T],
    init: I,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &T) -> R + Sync,
{
    let workers = parallelism.max(1).min(items.len());
    if workers <= 1 {
        let mut ctx = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut ctx, i, item))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut ctx = init();
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&mut ctx, i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analysis worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "work unit {i} claimed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index processed exactly once"))
        .collect()
}

/// Like [`run_indexed_ctx`] for fallible units, with cooperative
/// cancellation: once any unit fails, workers stop claiming new units
/// (in-flight ones finish), restoring the sequential path's early exit on
/// budget exhaustion. Returns all results in input order, or the
/// lowest-index error among the units that ran.
///
/// Note the reported error may differ across runs when several units
/// *would* fail — a lower-index unit can be skipped after a higher-index
/// one trips the flag first. Callers here only surface which pipeline
/// step failed, not which unit, so the observable error is stable.
pub(crate) fn run_indexed_ctx_fallible<T, O, E, C, I, F>(
    parallelism: usize,
    items: &[T],
    init: I,
    f: F,
) -> Result<Vec<O>, E>
where
    T: Sync,
    O: Send,
    E: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &T) -> Result<O, E> + Sync,
{
    let workers = parallelism.max(1).min(items.len());
    if workers <= 1 {
        let mut ctx = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut ctx, i, item))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let buckets: Vec<Vec<(usize, Result<O, E>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut ctx = init();
                    let mut out = Vec::new();
                    while !failed.load(Ordering::Relaxed) {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let result = f(&mut ctx, i, &items[i]);
                        if result.is_err() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        out.push((i, result));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analysis worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<O>> = (0..items.len()).map(|_| None).collect();
    let mut first_error: Option<(usize, E)> = None;
    for (i, result) in buckets.into_iter().flatten() {
        match result {
            Ok(r) => slots[i] = Some(r),
            Err(e) => {
                if first_error.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_error = Some((i, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("no error, so every index completed"))
        .collect())
}

/// The process's available hardware parallelism (≥ 1).
///
/// Memoized on first call, because `available_parallelism` reads cgroup
/// files (tens of µs) and [`crate::AnalyzerOptions::default`] asks on
/// every construction. A later change to the process's CPU quota or
/// affinity is therefore not seen.
pub fn default_parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<usize> = (0..97).collect();
        for parallelism in [1, 2, 4, 16] {
            let out = run_indexed(parallelism, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = run_indexed(8, &[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn context_is_per_worker_and_reused() {
        // Each worker counts its own units. With far more items than
        // workers, some context must serve several units (reuse), there
        // can be at most `workers` fresh contexts, and every item must be
        // processed exactly once.
        let items: Vec<usize> = (0..64).collect();
        let workers = 4;
        let out = run_indexed_ctx(
            workers,
            &items,
            || 0usize,
            |seen, _, &x| {
                *seen += 1;
                (x, *seen)
            },
        );
        assert_eq!(out.len(), items.len());
        let fresh_contexts = out.iter().filter(|&&(_, seen)| seen == 1).count();
        assert!(
            (1..=workers).contains(&fresh_contexts),
            "one fresh context per worker at most, got {fresh_contexts}"
        );
        let max_units_one_ctx = out.iter().map(|&(_, seen)| seen).max().unwrap();
        assert!(
            max_units_one_ctx > 1,
            "64 items over {workers} workers must reuse a context"
        );
        for (i, &(x, _)) in out.iter().enumerate() {
            assert_eq!(x, i);
        }
    }

    #[test]
    fn fallible_fan_out_short_circuits_and_reports_lowest_index() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..200).collect();
        // Sequential: true early exit — nothing past the failing unit runs.
        let ran = AtomicUsize::new(0);
        let result: Result<Vec<usize>, String> = run_indexed_ctx_fallible(
            1,
            &items,
            || (),
            |(), _, &x| {
                ran.fetch_add(1, Ordering::Relaxed);
                if x >= 5 {
                    Err(format!("unit {x}"))
                } else {
                    Ok(x)
                }
            },
        );
        assert_eq!(result.unwrap_err(), "unit 5");
        assert_eq!(ran.load(Ordering::Relaxed), 6);

        // Parallel: the flag stops workers from draining the whole input.
        let ran = AtomicUsize::new(0);
        let result: Result<Vec<usize>, String> = run_indexed_ctx_fallible(
            4,
            &items,
            || (),
            |(), _, &x| {
                ran.fetch_add(1, Ordering::Relaxed);
                if x >= 5 {
                    Err(format!("unit {x}"))
                } else {
                    Ok(x)
                }
            },
        );
        assert!(result.is_err());
        assert!(
            ran.load(Ordering::Relaxed) < items.len(),
            "cancellation must prevent a full drain"
        );

        // No failures: all results, in order.
        let ok: Result<Vec<usize>, String> =
            run_indexed_ctx_fallible(4, &items, || (), |(), _, &x| Ok(x * 2));
        assert_eq!(ok.unwrap(), items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }
}
