//! Fixture: per-domain wiring — the component's `next_event` is consulted
//! from the domain scheduler's park path, not from `System::advance`.

impl DomainSched {
    /// Parks one tile with the component's own horizon as its cached
    /// wake time.
    pub fn park_tile(&mut self, p: &Prefetcher, now: u64) {
        let wake = p.next_event(now);
        self.cache_wake(wake);
    }
}
