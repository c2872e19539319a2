//! One stack of open spans per thread, and the folded map it feeds.
//!
//! Every [`crate::Span`] guard opened while telemetry is on pushes its name
//! onto its thread's stack, and its drop pops it. The pop adds the span's
//! self time (its wall time minus the wall time of the spans it enclosed)
//! to the thread's entry for the current stack path, in nanoseconds. So
//! the folded map holds exact self time per path, not samples.
//!
//! Each thread's stack sits behind its own `Arc<Mutex<_>>`. Only the
//! owning thread takes that lock on a span edge, so it is uncontended;
//! [`Stacks::merge`] (at registry snapshot) and [`Stacks::innermost`] (the
//! resource accountant) take it only to read.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::profile::Profile;

/// Self nanoseconds per stack path, rootmost frame first.
type Folded = HashMap<Vec<&'static str>, u64>;

#[derive(Default)]
struct ThreadStack {
    /// Names of the open frames, rootmost first.
    path: Vec<&'static str>,
    /// Wall nanoseconds of each open frame's closed children.
    child_ns: Vec<u64>,
    folded: Folded,
}

type Shared = Arc<Mutex<ThreadStack>>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static STACK: Shared = crate::global().stacks.register();
}

/// Open a frame named `name` on this thread's stack.
pub(crate) fn push(name: &'static str) {
    // `try_with` fails only during thread-local teardown, where a span has
    // nothing left to attribute to.
    let _ = STACK.try_with(|s| {
        let mut s = lock(s);
        s.path.push(name);
        s.child_ns.push(0);
    });
}

/// Close this thread's innermost frame, which ran for `elapsed_ns`.
pub(crate) fn pop(elapsed_ns: u64) {
    let _ = STACK.try_with(|s| {
        let mut s = lock(s);
        let ThreadStack {
            path,
            child_ns,
            folded,
        } = &mut *s;
        let Some(children) = child_ns.pop() else {
            return;
        };
        let self_ns = elapsed_ns.saturating_sub(children);
        match folded.get_mut(path.as_slice()) {
            Some(w) => *w += self_ns,
            None => {
                folded.insert(path.clone(), self_ns);
            }
        }
        path.pop();
        if let Some(parent) = child_ns.last_mut() {
            *parent += elapsed_ns;
        }
    });
}

/// The registry's side: every thread's stack, and the folded weights of
/// the threads merged so far.
#[derive(Default)]
pub(crate) struct Stacks {
    threads: Mutex<Vec<Shared>>,
    merged: Mutex<Folded>,
}

impl Stacks {
    fn register(&self) -> Shared {
        let stack = Shared::default();
        lock(&self.threads).push(Arc::clone(&stack));
        stack
    }

    /// Move every thread's folded weights into the merged map and return
    /// the whole of it. Stacks of threads that have exited are dropped
    /// once merged.
    pub(crate) fn merge(&self) -> Profile {
        let mut merged = lock(&self.merged);
        lock(&self.threads).retain(|stack| {
            for (path, w) in lock(stack).folded.drain() {
                *merged.entry(path).or_insert(0) += w;
            }
            Arc::strong_count(stack) > 1
        });
        Profile {
            stacks: merged
                .iter()
                .map(|(path, &w)| (path.iter().map(|s| s.to_string()).collect(), w))
                .collect(),
        }
    }

    /// The innermost open frame of each thread that has one.
    pub(crate) fn innermost(&self) -> Vec<&'static str> {
        lock(&self.threads)
            .iter()
            .filter_map(|stack| lock(stack).path.last().copied())
            .collect()
    }

    /// Forget every weight recorded so far. Open frames stay open.
    pub(crate) fn reset(&self) {
        let mut merged = lock(&self.merged);
        merged.clear();
        for stack in lock(&self.threads).iter() {
            lock(stack).folded.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{global, set_enabled, span, trace_zone, Profile};

    /// Sum of the weights of the stacks rooted at `root`.
    fn rooted_at(p: &Profile, root: &str) -> u64 {
        p.stacks
            .iter()
            .filter(|(stack, _)| stack[0] == root)
            .map(|(_, w)| w)
            .sum()
    }

    fn nap() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    /// Self times telescope: a root's stacks weigh exactly its wall time.
    #[test]
    fn folded_weights_sum_to_the_root_span() {
        let _g = crate::tests::lock_global();
        set_enabled(true);
        {
            let _root = span("test.stack.root");
            nap();
            for _ in 0..3 {
                let _a = span("test.stack.a");
                nap();
                let _z = trace_zone("test.stack.z", 0);
                nap();
            }
        }
        set_enabled(false);
        let report = global().snapshot();
        let root = report.span("test.stack.root").unwrap().total_ns;
        let p = global().profile();
        let sum = rooted_at(&p, "test.stack.root");
        assert!(sum.abs_diff(root) * 100 <= root, "{sum} vs {root}");
        let key = |s: &[&str]| s.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        assert!(p.stacks[&key(&["test.stack.root", "test.stack.a", "test.stack.z"])] > 0);
        // The zone is a frame, but only the span has a registry timer.
        assert!(report.span("test.stack.z").is_none());
        let zone = [("zone", "test.stack.root")];
        let total = report.gauge_labeled("profile.zone_total_seconds", &zone);
        assert_eq!(total, Some(root as f64 * 1e-9));
        assert_eq!(Profile::from_folded(&p.folded()).unwrap(), p);
    }

    #[test]
    fn a_span_nested_in_its_own_name_counts_once_in_total() {
        let _g = crate::tests::lock_global();
        set_enabled(true);
        {
            let _outer = span("test.stack.rec");
            nap();
            let _inner = span("test.stack.rec");
            nap();
        }
        set_enabled(false);
        let outer = global().snapshot().span("test.stack.rec").unwrap().max_ns;
        let (_, total) = global().profile().self_total()["test.stack.rec"];
        assert_eq!(total, outer);
    }

    #[test]
    fn a_disabled_guard_leaves_no_frame() {
        let _g = crate::tests::lock_global();
        set_enabled(false);
        {
            let _s = span("test.stack.off");
        }
        assert!(global().profile().stacks.is_empty());
    }

    /// Four threads nest spans at once; one snapshot holds every thread's
    /// paths, each weighing exactly what that thread recorded.
    #[test]
    fn one_snapshot_merges_four_threads_exactly() {
        const ROOTS: [&str; 4] = ["test.mt.0", "test.mt.1", "test.mt.2", "test.mt.3"];
        let rounds = if cfg!(miri) { 2 } else { 50 };
        let _g = crate::tests::lock_global();
        set_enabled(true);
        std::thread::scope(|s| {
            for root in ROOTS {
                s.spawn(move || {
                    for k in 0..rounds {
                        let _r = span(root);
                        let _a = span("test.mt.a");
                        let _z = trace_zone("test.mt.z", k);
                    }
                });
            }
        });
        set_enabled(false);
        let report = global().snapshot();
        let p = global().profile();
        let mut expected: Vec<Vec<String>> = Vec::new();
        for root in ROOTS {
            let path = [root, "test.mt.a", "test.mt.z"].map(str::to_string);
            for depth in 1..=3 {
                expected.push(path[..depth].to_vec());
            }
            assert_eq!(rooted_at(&p, root), report.span(root).unwrap().total_ns);
        }
        expected.sort();
        assert_eq!(p.stacks.keys().cloned().collect::<Vec<_>>(), expected);
    }
}
