//! A running tally of `/local/domain`, kept by the store as it mutates.
//!
//! xl's unique-name check lists `/local/domain` and reads `<entry>/name`
//! for every entry whose name parses as `u32`, stopping at the first
//! value equal to the candidate. Its charges depend only on aggregates of
//! that directory, which [`DomainTally`] maintains in O(1) per mutation
//! (DESIGN.md §6g). [`crate::Xenstored::replay_name_scan`] charges the
//! scan from it without walking the directory.

use std::collections::HashMap;
use std::sync::Arc;

use crate::hash::Mix128;

/// What xl's name scan would observe of `/local/domain`.
///
/// [`crate::Store`] updates it wherever a node is created, written or
/// removed, so it is exact for every store shape. The name multiset is
/// a frozen base shared by refcount plus a local overlay of changes,
/// like the interner's: [`crate::Store::freeze_shared`] folds the
/// overlay in at fork points, so a stamped host shares every name and
/// its first creates allocate only a small overlay.
#[derive(Clone, Debug, Default)]
pub struct DomainTally {
    /// Children of `/local/domain`: the directory's per-entry charge.
    pub children: u64,
    /// Children whose name parses as `u32` (`007` and `+5` included):
    /// the entries whose `name` the scan reads.
    pub numeric: u64,
    /// Summed byte length of `<entry>/name` over the numeric children.
    pub name_path_bytes: u64,
    /// Summed value length of the `name` nodes that exist under the
    /// numeric children.
    pub name_value_bytes: u64,
    /// Those `name` values as counts keyed by [`name_digest`], as of
    /// the last [`DomainTally::freeze`].
    frozen: Arc<HashMap<u64, u32>>,
    /// Count changes since then; never zero.
    recent: HashMap<u64, i64>,
}

/// The 64-bit digest the name multiset is keyed by.
fn name_digest(value: &[u8]) -> u64 {
    let mut mix = Mix128::new();
    mix.write_field(value);
    mix.finish() as u64
}

fn bump(field: &mut u64, by: u64, added: bool) {
    if added {
        *field += by;
    } else {
        *field -= by;
    }
}

impl DomainTally {
    /// False only if no `name` node the scan reads holds `value`. True
    /// means "maybe": a digest match, almost always the value itself.
    pub fn may_hold_name(&self, value: &[u8]) -> bool {
        self.count(name_digest(value)) > 0
    }

    /// `name` nodes whose value has this digest.
    fn count(&self, digest: u64) -> i64 {
        let frozen = self.frozen.get(&digest).map_or(0, |&n| i64::from(n));
        frozen + self.recent.get(&digest).copied().unwrap_or(0)
    }

    /// Counts a child of `/local/domain` in (`added`) or out.
    /// `name_path_len` is the byte length of `<entry>/name` when the
    /// child's name parses as `u32`, `None` otherwise.
    pub(crate) fn entry(&mut self, name_path_len: Option<u64>, added: bool) {
        bump(&mut self.children, 1, added);
        if let Some(len) = name_path_len {
            bump(&mut self.numeric, 1, added);
            bump(&mut self.name_path_bytes, len, added);
        }
    }

    /// Counts the `name` node value of a numeric child in or out.
    pub(crate) fn name(&mut self, value: &[u8], added: bool) {
        bump(&mut self.name_value_bytes, value.len() as u64, added);
        let digest = name_digest(value);
        let delta = self.recent.entry(digest).or_insert(0);
        *delta += if added { 1 } else { -1 };
        if *delta == 0 {
            self.recent.remove(&digest);
        }
    }

    /// Folds the overlay into the frozen base, which forks taken from
    /// here on share by refcount. A no-op when the overlay is empty.
    pub(crate) fn freeze(&mut self) {
        if self.recent.is_empty() {
            return;
        }
        let frozen = Arc::make_mut(&mut self.frozen);
        for (digest, delta) in std::mem::take(&mut self.recent) {
            let n = frozen.get(&digest).map_or(0, |&n| i64::from(n)) + delta;
            if n == 0 {
                frozen.remove(&digest);
            } else {
                frozen.insert(digest, u32::try_from(n).expect("name counts stay non-negative"));
            }
        }
    }
}

/// Equal when every count agrees, however it is split between the
/// frozen base and the overlay.
impl PartialEq for DomainTally {
    fn eq(&self, other: &DomainTally) -> bool {
        let counters = |t: &DomainTally| {
            (t.children, t.numeric, t.name_path_bytes, t.name_value_bytes)
        };
        let mut digests = [self, other]
            .into_iter()
            .flat_map(|t| t.frozen.keys().chain(t.recent.keys()));
        counters(self) == counters(other) && digests.all(|&d| self.count(d) == other.count(d))
    }
}

impl Eq for DomainTally {}
