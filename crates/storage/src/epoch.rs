//! Mutation epochs: the version counter behind the update subsystem.
//!
//! The paper's OSs are computed over a *live* database; the continual
//! top-k line of work assumes the data keeps changing under the query
//! stream. Derived state that outlives a write (rank scores, serve-cache
//! entries, logged batches) is therefore versioned by an [`Epoch`]: a
//! monotonically increasing counter bumped on every mutation. The
//! database carries one, global epoch: caches key on it and the
//! write-ahead log stamps its records with it.
//!
//! Epochs are plain data, deliberately not process-unique: two databases
//! both start at epoch 0.

/// A monotonically increasing mutation counter. `Epoch(0)` is the
/// freshly-created state; every mutation bumps it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The successor epoch.
    #[must_use]
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }

    /// The raw counter value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_order_and_advance() {
        let e = Epoch::default();
        assert_eq!(e, Epoch(0));
        assert!(e.next() > e);
        assert_eq!(e.next().get(), 1);
        assert_eq!(format!("{}", Epoch(7)), "e7");
    }
}
