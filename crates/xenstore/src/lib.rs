//! A functional XenStore implementation with the paper's cost behaviour.
//!
//! The XenStore is Xen's proc-like central registry (paper §4.1): a
//! hierarchical key-value store living in Dom0, accessed by the toolstack
//! and by guests over a message-passing protocol, with *watches* that fire
//! callbacks when subtrees change and *transactions* for atomic multi-key
//! updates.
//!
//! Everything the paper blames for Xen's poor scalability (§4.2) is
//! implemented for real here:
//!
//! - every request/ack pair costs software interrupts and privilege-domain
//!   crossings;
//! - transactions take a copy-on-write snapshot whose cost grows with the
//!   store, and conflict-check on commit, retrying on `EAGAIN`;
//! - every write is checked against every registered watch;
//! - every access is appended to the access log, and the 20 log files are
//!   rotated every 13,215 lines — producing the periodic latency spikes
//!   visible in Figures 4, 5 and 9;
//! - request processing pays a poll cost per open connection.
//!
//! Costs are charged to a [`simcore::Meter`] under
//! [`simcore::Category::Xenstore`].
//!
//! Every operation — on [`Xenstored`], [`Store`], [`txn::Txn`] and
//! [`WatchTable`] — has a single entry point that names its node by an
//! [`XsKey`]: a parsed [`XsPath`] or an interned [`XsSym`] composed by
//! symbol hops. Both keys charge the same; lookups never intern a path,
//! mutations and transactional ops do.

pub mod hash;
pub mod log;
pub mod path;
pub mod store;
pub mod sym;
pub mod tally;
pub mod txn;
pub mod watch;
pub mod xenstored;

pub use hash::Mix128;
pub use log::AccessLog;
pub use path::XsPath;
pub use store::{Perms, Store, StoreCensus, XsError};
pub use sym::{u32_str, Interner, XsKey, XsSym};
pub use tally::DomainTally;
pub use txn::TxnId;
pub use watch::{FireStats, WatchEvent, WatchTable};
pub use xenstored::{ConnId, Flavor, Xenstored};

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, XsError>;
