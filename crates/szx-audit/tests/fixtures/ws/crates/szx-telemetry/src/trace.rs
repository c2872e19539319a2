//! Seeded violation: a relaxed store to the publish field `len`, which
//! publishes the slot contents without release ordering — the
//! `atomics-protocol` rule must flag the unpublished store.

impl TraceBuf {
    fn push(&self, _ev: u64) {
        let seen = self.len.load(Ordering::Acquire);
        self.len.store(seen + 1, Ordering::Relaxed);
        self.len.store(seen + 2, Ordering::Release);
    }
}
