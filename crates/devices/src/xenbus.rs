//! The xenbus device state machine.

use std::fmt;

/// Negotiation states of a split device, as defined by
/// `xen/include/public/io/xenbus.h`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum XenbusState {
    /// Initial state of a freshly written device entry.
    Initialising,
    /// Back-end waits for the front-end to initialise.
    InitWait,
    /// Front-end has published its ring references.
    Initialised,
    /// Data path is live.
    Connected,
    /// Tear-down in progress.
    Closing,
    /// Device is closed.
    Closed,
}

impl XenbusState {
    /// The store encoding as a static string — what [`fmt::Display`]
    /// prints, without allocating.
    pub fn as_str(self) -> &'static str {
        match self {
            XenbusState::Initialising => "1",
            XenbusState::InitWait => "2",
            XenbusState::Initialised => "3",
            XenbusState::Connected => "4",
            XenbusState::Closing => "5",
            XenbusState::Closed => "6",
        }
    }

    /// Whether `next` is a legal successor in the handshake.
    pub fn can_transition_to(self, next: XenbusState) -> bool {
        use XenbusState::*;
        matches!(
            (self, next),
            (Initialising, InitWait)
                | (Initialising, Closed)
                | (InitWait, Initialised)
                | (InitWait, Closing)
                | (Initialised, Connected)
                | (Initialised, Closing)
                | (Connected, Closing)
                | (Closing, Closed)
        )
    }
}

impl fmt::Display for XenbusState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_is_legal() {
        use XenbusState::*;
        let path = [Initialising, InitWait, Initialised, Connected, Closing, Closed];
        for w in path.windows(2) {
            assert!(w[0].can_transition_to(w[1]), "{:?} -> {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn illegal_jumps_rejected() {
        use XenbusState::*;
        assert!(!Initialising.can_transition_to(Connected));
        assert!(!Closed.can_transition_to(Connected));
        assert!(!Connected.can_transition_to(Initialising));
    }
}
