//! The hierarchical store, flattened over interned path symbols.
//!
//! This is the pure data structure: nodes with values, owners and
//! per-node modification generations (used by transaction conflict
//! detection). All protocol and cost concerns live in
//! [`crate::xenstored`].
//!
//! Nodes live in one flat slot arena addressed through a symbol→slot
//! map; the tree shape is the interner's parent links plus each node's
//! doubly linked sibling chain, so linking and unlinking a child are
//! both O(1) whatever the sibling count. A lookup by symbol is two
//! array indexes; a lookup by path string first resolves it, one
//! interner probe per component (`crate::sym`). Interior operations
//! (transaction replay, ancestor checks) work on copyable `u32` symbols
//! with no string traffic at all. Symbols are append-only — removing a
//! node never retires its symbol, so transactions and watches can hold
//! symbols across removals and recreations — but the *slot* behind a
//! removed node goes onto a free list and is recycled by the next
//! insert, whatever its symbol. That keeps arena capacity O(peak live
//! nodes) under create/destroy churn instead of O(total creates)
//! (churned guests get fresh domids, hence fresh symbols, forever);
//! [`Store::census`] exposes the occupancy for the churn suite's leak
//! gates.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::chunks::CowChunks;
use crate::hash::Mix128;
use crate::path::XsPath;
use crate::sym::{Interner, SymLink, XsKey, XsSym};
use crate::tally::DomainTally;

/// Errors mirroring the errno values xenstored returns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum XsError {
    /// `ENOENT`: path does not exist.
    NotFound,
    /// `EEXIST`: node already exists (mkdir of existing path).
    AlreadyExists,
    /// `EINVAL`: malformed path or argument.
    Invalid,
    /// `EACCES`: permission denied.
    PermissionDenied,
    /// `EAGAIN`: transaction conflict, caller must retry.
    Again,
    /// Unknown transaction id.
    NoSuchTxn,
    /// `ENOSPC`: the domain exceeded its node quota (xenstored's
    /// `quota-max-entity`; protects the store from guest DoS).
    QuotaExceeded,
}

impl fmt::Display for XsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            XsError::NotFound => "ENOENT",
            XsError::AlreadyExists => "EEXIST",
            XsError::Invalid => "EINVAL",
            XsError::PermissionDenied => "EACCES",
            XsError::Again => "EAGAIN",
            XsError::NoSuchTxn => "no such transaction",
            XsError::QuotaExceeded => "ENOSPC (node quota)",
        };
        f.write_str(s)
    }
}

impl std::error::Error for XsError {}

/// Node permissions: an owning domain plus world access bits.
///
/// This is a simplification of Xen's ACL lists that preserves what the
/// control plane relies on: Dom0 can do anything, a guest can touch its
/// own subtree, and backends can share selected nodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Perms {
    /// Owning domain (full access).
    pub owner: u32,
    /// Whether any domain may read.
    pub others_read: bool,
    /// Whether any domain may write.
    pub others_write: bool,
}

impl Perms {
    /// Dom0-owned, world-readable (the default for toolstack entries).
    pub fn dom0() -> Perms {
        Perms {
            owner: 0,
            others_read: true,
            others_write: false,
        }
    }

    /// Owned by `dom`, private.
    pub fn private(dom: u32) -> Perms {
        Perms {
            owner: dom,
            others_read: false,
            others_write: false,
        }
    }

    /// True if `dom` may read under these permissions.
    pub fn may_read(&self, dom: u32) -> bool {
        dom == 0 || dom == self.owner || self.others_read
    }

    /// True if `dom` may write under these permissions.
    pub fn may_write(&self, dom: u32) -> bool {
        dom == 0 || dom == self.owner || self.others_write
    }
}

#[derive(Clone, Debug)]
struct Node {
    /// Shared immutable payload: a read hands out a refcount bump, never
    /// a byte copy. A write replaces the `Arc` (or, when it is the sole
    /// owner and the length matches, overwrites in place) — snapshots
    /// held by readers and transaction overlays are never mutated.
    value: Arc<[u8]>,
    perms: Perms,
    generation: u64,
    /// Head of this node's child list — an intrusive doubly linked
    /// chain threaded through the child slots via `next_sibling` and
    /// `prev_sibling`, in insertion order. Linking a child is an O(1)
    /// tail append and unlinking one an O(1) splice; neither allocates.
    /// Listings sort at read time (directories are read far less often
    /// than children are created on the density hot path).
    first_child: SymLink,
    /// Tail of the child chain, for O(1) append.
    last_child: SymLink,
    /// Next sibling in the parent's child chain.
    next_sibling: SymLink,
    /// Previous sibling in the parent's child chain, for O(1) unlink.
    prev_sibling: SymLink,
}

// The links are compact `u32`s so the back link costs no space: a node
// (and an arena slot, via `Arc`'s niche) stays at 48 bytes.
const _: () = assert!(std::mem::size_of::<Node>() <= 48);
const _: () = assert!(std::mem::size_of::<Option<Node>>() <= 48);

impl Node {
    fn new(empty: &Arc<[u8]>, perms: Perms, generation: u64) -> Node {
        Node {
            value: empty.clone(),
            perms,
            generation,
            first_child: SymLink::NONE,
            last_child: SymLink::NONE,
            next_sibling: SymLink::NONE,
            prev_sibling: SymLink::NONE,
        }
    }
}

/// Stores `value` into `slot` without allocating when avoidable: empty
/// values share the store-wide empty buffer, and a same-length value
/// overwrites in place when `slot` is unaliased (refcount 1). Aliased
/// slots — a reader or overlay still holds the old `Arc` — always get a
/// fresh allocation, preserving snapshot immutability.
fn set_value(empty: &Arc<[u8]>, slot: &mut Arc<[u8]>, value: &[u8]) {
    if value.is_empty() {
        *slot = empty.clone();
        return;
    }
    if let Some(buf) = Arc::get_mut(slot) {
        if buf.len() == value.len() {
            buf.copy_from_slice(value);
            return;
        }
    }
    *slot = Arc::from(value);
}

/// Payloads the toolstack writes over and over (xenbus states, boolean
/// flags, lifecycle markers). The store keeps one shared `Arc` per entry
/// so writing any of these is a refcount bump, never an allocation.
const CONST_VALS: &[&[u8]] = &[
    b"0",
    b"1",
    b"2",
    b"3",
    b"4",
    b"5",
    b"6",
    b"mem",
    b"max",
    b"online",
    b"linux",
    b"kernel",
    b"done",
    b"suspend",
    b"0000-0000",
];

/// Sentinel in `Store::slot_of`: the symbol has no live node.
const NO_SLOT: u32 = u32::MAX;

/// Arena-occupancy snapshot — the churn suite's per-world leak
/// instrument. Two worlds holding the same population must report
/// identical censuses; under churn, `capacity` must plateau at the peak
/// live population and `interned_syms` once the canonical shape set has
/// been seen. The invariant `live + free == capacity` always holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreCensus {
    /// Live nodes, root included (equals [`Store::node_count`]).
    pub live: usize,
    /// Arena slots allocated, live or recycled — the plateau quantity.
    pub capacity: usize,
    /// Recycled slots awaiting reuse.
    pub free: usize,
    /// Interned path symbols (append-only by design; growth past the
    /// canonical shape set is the PR 8 interner-bloat class of leak).
    pub interned_syms: usize,
}

/// A value source for [`Store::write_val_sym`]: raw bytes (copied into
/// the node's buffer) or an already-shared payload (refcount bump only —
/// the transaction-commit path).
pub(crate) enum ValSrc<'a> {
    Bytes(&'a [u8]),
    Shared(&'a Arc<[u8]>),
}

impl ValSrc<'_> {
    fn assign(&self, empty: &Arc<[u8]>, slot: &mut Arc<[u8]>) {
        match self {
            ValSrc::Bytes(b) => set_value(empty, slot, b),
            ValSrc::Shared(rc) => *slot = Arc::clone(rc),
        }
    }
}

/// The store tree.
#[derive(Clone, Debug)]
pub struct Store {
    /// Path symbols. Interior mutability so read-only operations
    /// (`&self`) can still intern paths they encounter; borrows are
    /// short-scoped and never escape a method.
    interner: RefCell<Interner>,
    /// The shared empty value; every empty node clones this `Arc` instead
    /// of allocating.
    empty: Arc<[u8]>,
    /// Pre-built payloads for [`CONST_VALS`], index-aligned.
    consts: Vec<Arc<[u8]>>,
    /// Lazily grown shared payloads for short decimal strings (domids,
    /// device ids, ports, ring refs), indexed by numeric value: each
    /// distinct value allocates once per store lifetime, after which
    /// every write of it is a refcount bump. Interior mutability so
    /// read-side value wrapping (`&self`) can populate it.
    digit_cache: RefCell<Vec<Option<Arc<[u8]>>>>,
    /// Reusable ancestor-chain buffer for the node-creating write path.
    chain_scratch: Vec<XsSym>,
    /// Reusable doomed-subtree buffer for [`Store::rm`].
    doomed_scratch: Vec<XsSym>,
    /// Node slot arena, addressed through `slot_of`; `None` = a recycled
    /// hole awaiting reuse (listed in `free_slots`) or a slot not yet
    /// handed out.
    nodes: CowChunks<Option<Node>>,
    /// Cached Merkle digests of each slot's subtree (DESIGN.md §6h),
    /// kept beside the arena rather than inside [`Node`]; `0` = dirty
    /// ([`Store::node_hash`] never produces 0). A fork inherits the
    /// template's warm entries (the cache is a pure function of digested
    /// state) and copies only the chunks it invalidates or recomputes.
    /// Interior mutability so the `&self` digest walk can fill it;
    /// borrows are short-scoped and never escape a method.
    hash_cache: RefCell<CowChunks<u128>>,
    /// Symbol → slot map (`NO_SLOT` = no node at that path). Grows
    /// append-only with the interner; the slots it points into are
    /// recycled, which is what keeps `nodes` at O(peak live) under
    /// churn.
    slot_of: CowChunks<u32>,
    /// Arena slots handed out so far, live or recycled.
    slots: usize,
    /// Recycled slots, reused LIFO by [`Store::insert_node`].
    free_slots: Vec<u32>,
    node_count: usize,
    generation: u64,
    /// Nodes owned per domain (Dom0 exempt from quota), kept while a
    /// quota is set.
    owned: BTreeMap<u32, usize>,
    /// Per-domain node quota (None = unlimited).
    quota: Option<usize>,
    /// `/local/domain`, interned at construction: the directory
    /// `tally` describes.
    local_domain: XsSym,
    /// What xl's name scan of `local_domain` would observe, updated
    /// wherever a node is created, written or removed.
    tally: DomainTally,
}

/// A node's part in the `/local/domain` tally, decided by its path.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TallyRole {
    Untallied,
    /// A child of `/local/domain`.
    Entry,
    /// `/local/domain/<entry>/name` with `<entry>` parsing as `u32`.
    Name,
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl Store {
    /// Creates a store containing only the root node.
    pub fn new() -> Store {
        let empty: Arc<[u8]> = Arc::from(&b""[..]);
        let mut nodes = CowChunks::default();
        *nodes.get_mut(0) = Some(Node::new(&empty, Perms::dom0(), 0));
        let mut slot_of = CowChunks::new(NO_SLOT);
        *slot_of.get_mut(XsSym::ROOT.index()) = 0;
        let mut interner = Interner::new();
        let local = interner.child(XsSym::ROOT, "local");
        let local_domain = interner.child(local, "domain");
        Store {
            interner: RefCell::new(interner),
            nodes,
            hash_cache: RefCell::default(),
            slot_of,
            slots: 1,
            free_slots: Vec::new(),
            empty,
            consts: CONST_VALS.iter().map(|&v| Arc::from(v)).collect(),
            digit_cache: RefCell::new(Vec::new()),
            chain_scratch: Vec::new(),
            doomed_scratch: Vec::new(),
            node_count: 1,
            generation: 0,
            owned: BTreeMap::new(),
            quota: None,
            local_domain,
            tally: DomainTally::default(),
        }
    }

    /// Sets the per-domain node quota (xenstored's `quota-max-entity`,
    /// default 1000 in real deployments). Dom0 is exempt. Owners are
    /// counted only while a quota is set, so setting one counts the
    /// live nodes: a host without a quota keeps no entry per guest.
    pub fn set_quota(&mut self, quota: Option<usize>) {
        self.quota = quota;
        self.owned.clear();
        if quota.is_some() {
            for slot in 0..self.slots {
                if let Some(node) = self.nodes.get(slot) {
                    let owner = node.perms.owner;
                    self.count_owned(owner, true);
                }
            }
        }
    }

    /// Nodes currently owned by a domain, while a quota is set.
    pub fn owned_by(&self, dom: u32) -> usize {
        self.owned.get(&dom).copied().unwrap_or(0)
    }

    /// Counts one node more (`gained`) or fewer for `owner`'s quota.
    /// Dom0 is uncounted, and an owner's entry goes when it reaches 0.
    fn count_owned(&mut self, owner: u32, gained: bool) {
        if owner == 0 || self.quota.is_none() {
            return;
        }
        if gained {
            *self.owned.entry(owner).or_insert(0) += 1;
        } else if let Some(count) = self.owned.get_mut(&owner) {
            *count -= 1;
            if *count == 0 {
                self.owned.remove(&owner);
            }
        }
    }

    /// Number of nodes including the root.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Global modification generation (bumped on every mutation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Arena and interner occupancy (see [`StoreCensus`]). Pure read;
    /// the churn suite compares censuses between matching checkpoints
    /// to catch monotone resource drift.
    pub fn census(&self) -> StoreCensus {
        debug_assert_eq!(self.node_count + self.free_slots.len(), self.slots);
        StoreCensus {
            live: self.node_count,
            capacity: self.slots,
            free: self.free_slots.len(),
            interned_syms: self.interner.borrow().len(),
        }
    }

    /// `/local/domain`'s symbol (interned by [`Store::new`]).
    pub(crate) fn local_domain(&self) -> XsSym {
        self.local_domain
    }

    /// What xl's name scan of `/local/domain` would observe (see
    /// [`DomainTally`]), kept up to date by every mutation.
    pub fn domain_tally(&self) -> &DomainTally {
        &self.tally
    }

    /// [`Store::domain_tally`] recounted from scratch by listing
    /// `/local/domain` and reading each numeric entry's `name` — the
    /// differential oracle for the incremental tally.
    pub fn domain_tally_recount(&self) -> DomainTally {
        let mut tally = DomainTally::default();
        let mut entries = Vec::new();
        let _ = self.for_each_child_sym(0, self.local_domain, |c| entries.push(c));
        for entry in entries {
            let name_path_len = self.scanned_name_path_len(entry);
            tally.entry(name_path_len, true);
            let name = self.resolve_child(entry, "name").and_then(|s| self.node(s));
            if let (Some(_), Some(node)) = (name_path_len, name) {
                tally.name(&node.value, true);
            }
        }
        tally
    }

    /// `sym`'s part in the tally: a pure function of its path.
    fn tally_role(&self, sym: XsSym) -> TallyRole {
        let interner = self.interner.borrow();
        match interner.depth(sym) {
            3 if interner.parent(sym) == self.local_domain => TallyRole::Entry,
            4 if interner.name(sym) == "name" => {
                let entry = interner.parent(sym);
                let numeric = interner.name(entry).parse::<u32>().is_ok();
                if numeric && interner.parent(entry) == self.local_domain {
                    TallyRole::Name
                } else {
                    TallyRole::Untallied
                }
            }
            _ => TallyRole::Untallied,
        }
    }

    /// Byte length of `<entry>/name` when `entry`'s name parses as
    /// `u32`: the path of the read xl's name scan makes for it.
    fn scanned_name_path_len(&self, entry: XsSym) -> Option<u64> {
        self.sym_name_u32(entry)
            .map(|_| self.wire_len(entry) as u64 + "/name".len() as u64)
    }

    // --- symbol plumbing --------------------------------------------------

    /// A key's symbol, interning its path (and ancestors) if new.
    pub fn sym(&self, key: impl XsKey) -> XsSym {
        key.intern(&mut self.interner.borrow_mut())
    }

    /// A key's symbol, if its path was ever interned (never interns).
    pub(crate) fn find(&self, key: impl XsKey) -> Option<XsSym> {
        key.find(&self.interner.borrow())
    }

    /// Byte length of a key's full path (for wire-payload charging).
    pub(crate) fn wire_len(&self, key: impl XsKey) -> usize {
        key.wire_len(&self.interner.borrow())
    }

    /// Materialises a symbol back into a path (refcount bump, no copy).
    pub fn path_of(&self, sym: XsSym) -> XsPath {
        XsPath::from_interned(self.interner.borrow().path_arc(sym).clone())
    }

    /// The parent symbol; the root's parent is the root.
    pub(crate) fn parent_sym(&self, sym: XsSym) -> XsSym {
        self.interner.borrow().parent(sym)
    }

    /// True if `a` equals `b` or lies below it (symbol hops only).
    pub(crate) fn sym_is_self_or_descendant(&self, a: XsSym, b: XsSym) -> bool {
        self.interner.borrow().is_self_or_descendant_of(a, b)
    }

    /// Resolves a child of `sym` by name, if ever interned (one index
    /// probe, no allocation).
    pub(crate) fn resolve_child(&self, sym: XsSym, name: &str) -> Option<XsSym> {
        self.interner.borrow().resolve_child(sym, name)
    }

    /// Interns the child `<sym>/<name>` by symbol composition (one hash
    /// probe, no allocation when already known).
    pub(crate) fn child_sym(&self, sym: XsSym, name: &str) -> XsSym {
        self.interner.borrow_mut().child(sym, name)
    }

    /// [`Store::child_sym`] with a numeric component.
    pub(crate) fn child_u32_sym(&self, sym: XsSym, n: u32) -> XsSym {
        self.interner.borrow_mut().child_u32(sym, n)
    }

    /// The symbol's final path component parsed as `u32`, if it is one.
    pub(crate) fn sym_name_u32(&self, sym: XsSym) -> Option<u32> {
        self.interner.borrow().name(sym).parse().ok()
    }

    /// Sorts symbols by their full path string — the same order the
    /// path-keyed code produced by sorting `Vec<XsPath>` (determinism:
    /// the transaction-interference victim draw depends on it).
    pub(crate) fn sort_syms_by_path(&self, syms: &mut [XsSym]) {
        let interner = self.interner.borrow();
        syms.sort_unstable_by(|&a, &b| interner.path_str(a).cmp(interner.path_str(b)));
    }

    /// Sorts sibling symbols by their final path component — the order
    /// directory listings present (allocation-free; in-place sort).
    pub(crate) fn sort_syms_by_name(&self, syms: &mut [XsSym]) {
        let interner = self.interner.borrow();
        syms.sort_unstable_by(|&a, &b| interner.name(a).cmp(interner.name(b)));
    }

    /// Resolves a symbol to its live arena slot, if any.
    #[inline]
    fn slot(&self, sym: XsSym) -> Option<usize> {
        match *self.slot_of.get(sym.index()) {
            NO_SLOT => None,
            s => Some(s as usize),
        }
    }

    fn node(&self, sym: XsSym) -> Option<&Node> {
        self.nodes.get(self.slot(sym)?).as_ref()
    }

    /// The sibling after `c` in its parent's child chain.
    fn next_sibling(&self, c: XsSym) -> Option<XsSym> {
        self.node(c)
            .expect("linked child exists")
            .next_sibling
            .get()
    }

    fn node_mut(&mut self, sym: XsSym) -> Option<&mut Node> {
        let slot = self.slot(sym)?;
        self.nodes.get_mut(slot).as_mut()
    }

    /// Installs a node for `sym`, reusing a recycled slot when one is
    /// free (LIFO) and growing the arena only past the live+free peak.
    fn insert_node(&mut self, sym: XsSym, node: Node) {
        let idx = sym.index();
        debug_assert_eq!(*self.slot_of.get(idx), NO_SLOT, "insert over a live node");
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slots += 1;
            (self.slots - 1) as u32
        });
        let held = self.nodes.get_mut(slot as usize);
        debug_assert!(held.is_none(), "free slot was live");
        *held = Some(node);
        // A recycled slot may still carry the previous occupant's cached
        // digest; the new node starts dirty. (Fresh slots read as dirty
        // already — the cache grows lazily.)
        {
            let mut cache = self.hash_cache.borrow_mut();
            if *cache.get(slot as usize) != 0 {
                *cache.get_mut(slot as usize) = 0;
            }
        }
        *self.slot_of.get_mut(idx) = slot;
    }

    /// Appends `child` to `parent`'s child chain. O(1), allocation-free:
    /// the sibling links live in the node slots themselves. Only called
    /// for freshly inserted nodes, so the child cannot already be linked.
    fn link_child(&mut self, parent: XsSym, child: XsSym) {
        let tail = {
            let p = self.node_mut(parent).expect("parent exists");
            let tail = std::mem::replace(&mut p.last_child, child.into());
            if tail == SymLink::NONE {
                p.first_child = child.into();
            }
            tail
        };
        self.node_mut(child).expect("child exists").prev_sibling = tail;
        if let Some(t) = tail.get() {
            self.node_mut(t).expect("tail sibling exists").next_sibling = child.into();
        }
    }

    /// Splices the live, linked `child` out of `parent`'s child chain
    /// through its own sibling links: O(1), whatever the sibling count.
    /// The child's links are left as they are; its slot is released next.
    fn unlink_child(&mut self, parent: XsSym, child: XsSym) {
        let (prev, next) = {
            let c = self.node(child).expect("unlinked child exists");
            (c.prev_sibling, c.next_sibling)
        };
        match prev.get() {
            Some(p) => self.node_mut(p).expect("sibling exists").next_sibling = next,
            None => {
                let p = self.node_mut(parent).expect("parent exists");
                debug_assert_eq!(p.first_child.get(), Some(child), "child is not linked");
                p.first_child = next;
            }
        }
        match next.get() {
            Some(n) => self.node_mut(n).expect("sibling exists").prev_sibling = prev,
            None => {
                let p = self.node_mut(parent).expect("parent exists");
                debug_assert_eq!(p.last_child.get(), Some(child), "child is not linked");
                p.last_child = prev;
            }
        }
    }

    /// The live node behind a key, looked up without interning.
    fn find_node(&self, key: impl XsKey) -> Option<&Node> {
        self.node(self.find(key)?)
    }

    // --- operations: each takes a path or a symbol (`impl XsKey`) --------

    /// True if the node exists.
    pub fn exists(&self, key: impl XsKey) -> bool {
        self.find_node(key).is_some()
    }

    /// Modification generation of a node, `None` if absent.
    pub fn node_generation(&self, key: impl XsKey) -> Option<u64> {
        self.find_node(key).map(|n| n.generation)
    }

    /// A node's permissions, `None` if absent.
    pub(crate) fn perms(&self, key: impl XsKey) -> Option<Perms> {
        self.find_node(key).map(|n| n.perms)
    }

    /// The node behind `key` if `dom` may read it.
    fn readable(&self, dom: u32, key: impl XsKey) -> Result<&Node, XsError> {
        let node = self.find_node(key).ok_or(XsError::NotFound)?;
        if !node.perms.may_read(dom) {
            return Err(XsError::PermissionDenied);
        }
        Ok(node)
    }

    /// Reads a node's value as bytes.
    pub fn read(&self, dom: u32, key: impl XsKey) -> Result<&[u8], XsError> {
        Ok(&self.readable(dom, key)?.value)
    }

    /// Reads a node's value as a shared payload — a refcount bump, not a
    /// byte copy. The snapshot stays stable even if the node is written
    /// or removed afterwards.
    pub fn read_rc(&self, dom: u32, key: impl XsKey) -> Result<Arc<[u8]>, XsError> {
        Ok(Arc::clone(&self.readable(dom, key)?.value))
    }

    /// Wraps `value` as a shareable payload (the store-wide empty buffer
    /// when empty — no allocation).
    pub(crate) fn rc_value(&self, value: &[u8]) -> Arc<[u8]> {
        if value.is_empty() {
            self.empty.clone()
        } else if let Some(rc) = self.shared_const(value) {
            rc
        } else {
            Arc::from(value)
        }
    }

    /// A pre-built shared payload for a known-constant value or a short
    /// decimal string, if any. The constant scan is a handful of short
    /// byte compares and the digit probe a table index — far cheaper
    /// than the allocation they avoid, and a cheap miss otherwise.
    fn shared_const(&self, value: &[u8]) -> Option<Arc<[u8]>> {
        if value.len() > 9 {
            return None;
        }
        if let Some(i) = CONST_VALS.iter().position(|&c| c == value) {
            return Some(Arc::clone(&self.consts[i]));
        }
        // Canonical (no leading zero) decimal strings up to 4 digits:
        // the cache is keyed by numeric value, so "07" must not hit the
        // "7" entry.
        if value.is_empty()
            || value.len() > 4
            || value[0] == b'0'
            || !value.iter().all(|b| b.is_ascii_digit())
        {
            return None;
        }
        let n = value.iter().fold(0usize, |acc, &b| acc * 10 + (b - b'0') as usize);
        let mut cache = self.digit_cache.borrow_mut();
        if cache.len() <= n {
            cache.resize(n + 1, None);
        }
        Some(Arc::clone(cache[n].get_or_insert_with(|| Arc::from(value))))
    }

    /// The store-wide shared empty payload.
    pub(crate) fn empty_rc(&self) -> Arc<[u8]> {
        self.empty.clone()
    }

    /// Reads a node's value as UTF-8 (lossy values are an error).
    pub fn read_str(&self, dom: u32, key: impl XsKey) -> Result<&str, XsError> {
        std::str::from_utf8(self.read(dom, key)?).map_err(|_| XsError::Invalid)
    }

    /// Writes `value` to the node, creating it and any missing parents
    /// (xenstored semantics). New nodes are owned by `dom`; the root is
    /// not writable.
    pub fn write(&mut self, dom: u32, key: impl XsKey, value: &[u8]) -> Result<(), XsError> {
        let sym = self.admit(dom, key)?;
        self.write_val_sym(dom, sym, ValSrc::Bytes(value))
    }

    /// The key's symbol for a write or mkdir by `dom`, interning its path
    /// only if the mutation gets past the quota and permission checks
    /// that guard node creation: a path beyond the interned prefix has
    /// no node, so its nearest existing ancestor decides. A refused
    /// request interns nothing, with the error (and, on `EACCES`, the
    /// generation bump) that the creating write would have produced.
    pub(crate) fn admit(&mut self, dom: u32, key: impl XsKey) -> Result<XsSym, XsError> {
        let (mut sym, mut missing) = key.find_prefix(&self.interner.borrow());
        if missing == 0 {
            return Ok(sym);
        }
        while self.node(sym).is_none() {
            sym = self.parent_sym(sym);
            missing += 1;
        }
        if self.quota_room(dom).is_some_and(|room| missing > room) {
            return Err(XsError::QuotaExceeded);
        }
        let nearest = self.node(sym).expect("nearest existing node");
        if !nearest.perms.may_write(dom) {
            self.generation += 1;
            return Err(XsError::PermissionDenied);
        }
        Ok(self.sym(key))
    }

    /// The node quota `dom` is held to, if any (Dom0 is exempt).
    pub(crate) fn quota_of(&self, dom: u32) -> Option<usize> {
        self.quota.filter(|_| dom != 0)
    }

    /// How many more nodes `dom` may own, if it has a quota.
    fn quota_room(&self, dom: u32) -> Option<usize> {
        Some(self.quota_of(dom)?.saturating_sub(self.owned_by(dom)))
    }

    /// Writes an already-shared payload (transaction commit, ambient
    /// interference): the node adopts the `Arc` — no byte copy.
    pub(crate) fn write_rc_sym(
        &mut self,
        dom: u32,
        sym: XsSym,
        value: &Arc<[u8]>,
    ) -> Result<(), XsError> {
        self.write_val_sym(dom, sym, ValSrc::Shared(value))
    }

    fn write_val_sym(&mut self, dom: u32, sym: XsSym, value: ValSrc<'_>) -> Result<(), XsError> {
        if sym == XsSym::ROOT {
            return Err(XsError::Invalid);
        }
        // Known-constant payloads become refcount bumps of the shared
        // pool entry instead of fresh buffers.
        let const_rc = match &value {
            ValSrc::Bytes(b) if !b.is_empty() => self.shared_const(b),
            _ => None,
        };
        let value = match &const_rc {
            Some(rc) => ValSrc::Shared(rc),
            None => value,
        };
        // Fast path: the node exists, so all its ancestors do too and no
        // quota or parent checks apply — only the node's own write bit.
        // (The generation still bumps before a permission failure, as on
        // the slow path below.)
        if self.node(sym).is_some() {
            self.generation += 1;
            self.assign(dom, sym, &value, self.generation)?;
            self.invalidate_hash_up(sym);
            return Ok(());
        }
        // Slow path: build the root-exclusive ancestor chain (top-down)
        // in the reusable scratch buffer so steady-state node creation
        // does not allocate.
        let mut chain = std::mem::take(&mut self.chain_scratch);
        chain.clear();
        chain.extend(self.interner.borrow().ancestors(sym));
        chain.pop(); // the root always exists
        chain.reverse();
        let res = self.write_chain_sym(dom, &chain, value);
        self.chain_scratch = chain;
        res
    }

    /// Creates every missing node on `chain` (top-down, root excluded)
    /// and assigns `value` to the last one. Factored out of
    /// [`Store::write_val_sym`] so its early returns cannot leak the
    /// scratch chain buffer.
    fn write_chain_sym(
        &mut self,
        dom: u32,
        chain: &[XsSym],
        value: ValSrc<'_>,
    ) -> Result<(), XsError> {
        // Quota pre-check: every node this write would create must fit.
        if let Some(room) = self.quota_room(dom) {
            let missing = chain.iter().filter(|&&s| self.node(s).is_none()).count();
            if missing > room {
                return Err(XsError::QuotaExceeded);
            }
        }
        self.generation += 1;
        let generation = self.generation;
        let mut created = 0usize;
        let mut parent = XsSym::ROOT;
        for (i, &s) in chain.iter().enumerate() {
            let is_last = i + 1 == chain.len();
            let role = self.tally_role(s);
            if self.node(s).is_none() {
                let parent_perms = self.node(parent).expect("parent exists").perms;
                if !parent_perms.may_write(dom) {
                    self.node_count += created;
                    return Err(XsError::PermissionDenied);
                }
                let perms = Perms {
                    owner: dom,
                    others_read: parent_perms.others_read,
                    others_write: false,
                };
                let empty = self.empty.clone();
                self.insert_node(s, Node::new(&empty, perms, generation));
                self.link_child(parent, s);
                // Restore the dirty-chain invariant (a fresh `None` cache
                // must not sit below a cached ancestor). The first hop
                // pays O(depth); siblings created next find the parent
                // already dirty and exit immediately.
                self.invalidate_hash_up(parent);
                created += 1;
                match role {
                    TallyRole::Entry => self.tally.entry(self.scanned_name_path_len(s), true),
                    TallyRole::Name => self.tally.name(b"", true),
                    TallyRole::Untallied => {}
                }
            }
            if is_last {
                if let Err(e) = self.assign(dom, s, &value, generation) {
                    // A permission failure on the final node can only
                    // happen when it already existed; implicitly created
                    // parents stay, as in xenstored.
                    self.node_count += created;
                    return Err(e);
                }
                self.invalidate_hash_up(s);
            }
            parent = s;
        }
        self.node_count += created;
        if dom != 0 && created > 0 && self.quota.is_some() {
            *self.owned.entry(dom).or_insert(0) += created;
        }
        Ok(())
    }

    /// Assigns `value` to the live node `sym` if `dom` may write it,
    /// moving the node's value in the tally's name multiset when it is a
    /// tallied `name` node.
    fn assign(
        &mut self,
        dom: u32,
        sym: XsSym,
        value: &ValSrc<'_>,
        generation: u64,
    ) -> Result<(), XsError> {
        let named = self.tally_role(sym) == TallyRole::Name;
        let empty = self.empty.clone();
        let node = self.node_mut(sym).expect("assigned node is live");
        if !node.perms.may_write(dom) {
            return Err(XsError::PermissionDenied);
        }
        let old = named.then(|| Arc::clone(&node.value));
        value.assign(&empty, &mut node.value);
        node.generation = generation;
        if let Some(old) = old {
            let new = Arc::clone(&node.value);
            self.tally.name(&old, false);
            self.tally.name(&new, true);
        }
        Ok(())
    }

    /// Creates an empty directory node.
    pub fn mkdir(&mut self, dom: u32, key: impl XsKey) -> Result<(), XsError> {
        if self.exists(key) {
            return Err(XsError::AlreadyExists);
        }
        self.write(dom, key, b"")
    }

    /// Removes a node and its subtree; the root cannot be removed.
    pub fn rm(&mut self, dom: u32, key: impl XsKey) -> Result<(), XsError> {
        let sym = self.find(key).ok_or(XsError::NotFound)?;
        if sym == XsSym::ROOT {
            return Err(XsError::Invalid);
        }
        let target = self.node(sym).ok_or(XsError::NotFound)?;
        if !target.perms.may_write(dom) {
            return Err(XsError::PermissionDenied);
        }
        let mut doomed = std::mem::take(&mut self.doomed_scratch);
        self.for_each_in_subtree(sym, |s| doomed.push(s));
        let removed = doomed.len();
        let parent = self.parent_sym(sym);
        self.unlink_child(parent, sym);
        // Release the slots in DFS doom order (deterministic, so the
        // LIFO reuse order — and with it every later world byte — is a
        // pure function of the operation sequence), crediting each
        // node's owner as it goes.
        for &s in &doomed {
            let idx = s.index();
            let slot = *self.slot_of.get(idx);
            debug_assert_ne!(slot, NO_SLOT, "doomed node has a slot");
            let node = self.nodes.get_mut(slot as usize).take().expect("doomed node is live");
            match self.tally_role(s) {
                TallyRole::Entry => self.tally.entry(self.scanned_name_path_len(s), false),
                TallyRole::Name => self.tally.name(&node.value, false),
                TallyRole::Untallied => {}
            }
            self.count_owned(node.perms.owner, false);
            *self.slot_of.get_mut(idx) = NO_SLOT;
            self.free_slots.push(slot);
        }
        // Kept empty between calls, so a cloned store copies nothing.
        doomed.clear();
        self.doomed_scratch = doomed;
        self.generation += 1;
        let generation = self.generation;
        // The parent's generation changes: its child list was modified.
        self.node_mut(parent).expect("parent exists").generation = generation;
        self.node_count -= removed;
        self.invalidate_hash_up(parent);
        Ok(())
    }

    /// Visits the live node `sym` and every node below it in DFS doom
    /// order: the order in which a stack walk that pushes each node's
    /// children first to last pops them, i.e. pre-order visiting
    /// children last to first. The `prev_sibling` links let the walk
    /// back up without a stack.
    pub(crate) fn for_each_in_subtree(&self, sym: XsSym, mut f: impl FnMut(XsSym)) {
        let mut cur = sym;
        'walk: loop {
            f(cur);
            let mut node = self.node(cur).expect("subtree nodes exist");
            if let Some(c) = node.last_child.get() {
                cur = c;
                continue;
            }
            // A leaf: climb to the nearest node at or below `sym` with a
            // previous sibling, which is the next one the stack pops.
            while cur != sym {
                if let Some(p) = node.prev_sibling.get() {
                    cur = p;
                    continue 'walk;
                }
                cur = self.parent_sym(cur);
                node = self.node(cur).expect("subtree nodes exist");
            }
            return;
        }
    }

    /// Lists the child names of a node, sorted.
    pub fn directory(&self, dom: u32, key: impl XsKey) -> Result<Vec<String>, XsError> {
        let node = self.readable(dom, key)?;
        // The child chain is in insertion order; sort the listing.
        let interner = self.interner.borrow();
        let mut out = Vec::new();
        let mut cur = node.first_child.get();
        while let Some(c) = cur {
            out.push(interner.name(c).to_string());
            cur = self.next_sibling(c);
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Visits each child of a node as an interned symbol, in chain
    /// (insertion) order, returning the child count. The allocation-free
    /// counterpart of [`Store::directory`]; callers needing name order
    /// sort the collected symbols via [`Store::sort_syms_by_name`].
    pub(crate) fn for_each_child_sym(
        &self,
        dom: u32,
        sym: XsSym,
        mut f: impl FnMut(XsSym),
    ) -> Result<usize, XsError> {
        let node = self.readable(dom, sym)?;
        let mut count = 0;
        let mut cur = node.first_child.get();
        while let Some(c) = cur {
            f(c);
            count += 1;
            cur = self.next_sibling(c);
        }
        Ok(count)
    }

    /// Sets a node's permissions. Only Dom0 or the owner may do this,
    /// and only Dom0 may change the owner (as cxenstored refuses an
    /// unprivileged owner change): a guest that could give nodes away
    /// would escape its quota. The new owner takes the node's quota
    /// entry over from the old one, as cxenstored's `do_set_perms` moves
    /// its entry count. A missing path is `NotFound` and is not
    /// interned.
    pub fn set_perms(&mut self, dom: u32, key: impl XsKey, perms: Perms) -> Result<(), XsError> {
        let sym = self.find(key);
        // As before the flattening: the global generation bumps even when
        // the lookup or permission check below fails.
        self.generation += 1;
        let generation = self.generation;
        let Some(node) = sym.and_then(|sym| self.node_mut(sym)) else {
            return Err(XsError::NotFound);
        };
        let old = node.perms.owner;
        if dom != 0 && (dom != old || perms.owner != old) {
            return Err(XsError::PermissionDenied);
        }
        node.perms = perms;
        node.generation = generation;
        if perms.owner != old {
            self.count_owned(old, false);
            self.count_owned(perms.owner, true);
        }
        // Deliberately no hash invalidation: permissions (like
        // generations) are excluded from world digests — see DESIGN.md
        // §6h — so the Merkle cache stays warm across perms churn.
        Ok(())
    }

    // --- incremental Merkle digests (DESIGN.md §6h) -----------------------

    /// Marks `sym` and its ancestors dirty. Early exit on the first
    /// already-dirty node: the maintained invariant is "a dirty node has
    /// only dirty ancestors", so the climb above it is redundant. After
    /// k mutations a digest costs O(k · depth) amortized — the climbs
    /// are the only per-mutation cost, and they shorten as dirt
    /// accumulates.
    fn invalidate_hash_up(&self, sym: XsSym) {
        let mut cache = self.hash_cache.borrow_mut();
        let mut cur = sym;
        loop {
            if let Some(slot) = self.slot(cur) {
                if self.nodes.get(slot).is_some() {
                    if *cache.get(slot) == 0 {
                        return;
                    }
                    *cache.get_mut(slot) = 0;
                }
            }
            if cur == XsSym::ROOT {
                return;
            }
            cur = self.parent_sym(cur);
        }
    }

    /// The Merkle digest of the whole tree, recomputing only dirty
    /// subtrees (clean ones are one `Cell` read). Pure `&self`: the
    /// caches are interior-mutable and semantically invisible — they
    /// never affect simulated time or world evolution.
    pub fn subtree_digest(&self) -> u128 {
        self.node_hash(XsSym::ROOT, true)
    }

    /// From-scratch recompute that neither reads nor writes the caches —
    /// the differential oracle for [`Store::subtree_digest`].
    pub fn subtree_digest_uncached(&self) -> u128 {
        self.node_hash(XsSym::ROOT, false)
    }

    /// Drops every cached subtree hash (tests: verifies a cold walk
    /// agrees with whatever the incremental path maintained).
    pub fn clear_hash_caches(&self) {
        self.hash_cache.borrow_mut().clear();
    }

    /// Freezes the interner's and the name tally's overlays into their
    /// shared bases (see [`Interner::freeze`]): clones taken from here
    /// on share the whole symbol table and name multiset by refcount
    /// instead of deep-copying them. Called at fork points — host-template
    /// capture before cluster stamping. Purely a representation change;
    /// symbols, lookups and tally counts are unaffected.
    pub fn freeze_shared(&mut self) {
        self.interner.get_mut().freeze();
        self.tally.freeze();
    }

    /// Digest of one node's subtree: its name, raw value bytes (never a
    /// lossy UTF-8 rendering), child count, and the wrapping sum of the
    /// child digests. The commutative combine makes the digest
    /// insertion-order independent, matching the sorted-listing string
    /// digest without sorting or allocating; each child's own digest
    /// already seals its name, so permuted sibling *contents* still
    /// change the sum. Generations and permissions are excluded.
    fn node_hash(&self, sym: XsSym, use_cache: bool) -> u128 {
        let slot = self.slot(sym).expect("digest walk visits live nodes");
        let node = self.nodes.get(slot).as_ref().expect("digest walk visits live nodes");
        if use_cache {
            let h = *self.hash_cache.borrow().get(slot);
            if h != 0 {
                return h;
            }
        }
        let mut mix = Mix128::new();
        {
            let interner = self.interner.borrow();
            mix.write_field(interner.name(sym).as_bytes());
        }
        mix.write_field(&node.value);
        let mut child_sum: u128 = 0;
        let mut children: u64 = 0;
        let mut cur = node.first_child.get();
        while let Some(c) = cur {
            child_sum = child_sum.wrapping_add(self.node_hash(c, use_cache));
            children += 1;
            cur = self.next_sibling(c);
        }
        mix.write_u64(children);
        mix.write_u128(child_sum);
        // 0 is the dirty sentinel; the 2^-128 hash that lands on it is
        // nudged to 1 (uniformly, so uncached recomputes agree).
        let h = mix.finish().max(1);
        if use_cache {
            *self.hash_cache.borrow_mut().get_mut(slot) = h;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> XsPath {
        XsPath::parse(s).unwrap()
    }

    #[test]
    fn write_creates_parents() {
        let mut s = Store::new();
        s.write(0, &p("/a/b/c"), b"v").unwrap();
        assert_eq!(s.read(0, &p("/a/b/c")).unwrap(), b"v");
        assert!(s.exists(&p("/a")));
        assert!(s.exists(&p("/a/b")));
        assert_eq!(s.node_count(), 4); // root + a + b + c
    }

    #[test]
    fn read_missing_is_enoent() {
        let s = Store::new();
        assert_eq!(s.read(0, &p("/nope")).unwrap_err(), XsError::NotFound);
    }

    #[test]
    fn rm_removes_subtree_and_counts() {
        let mut s = Store::new();
        s.write(0, &p("/a/b/c"), b"1").unwrap();
        s.write(0, &p("/a/b/d"), b"2").unwrap();
        assert_eq!(s.node_count(), 5);
        s.rm(0, &p("/a/b")).unwrap();
        assert_eq!(s.node_count(), 2);
        assert!(!s.exists(&p("/a/b/c")));
        assert!(s.exists(&p("/a")));
    }

    #[test]
    fn rm_root_is_invalid() {
        let mut s = Store::new();
        assert_eq!(s.rm(0, &XsPath::root()).unwrap_err(), XsError::Invalid);
    }

    #[test]
    fn mkdir_twice_is_eexist() {
        let mut s = Store::new();
        s.mkdir(0, &p("/a")).unwrap();
        assert_eq!(s.mkdir(0, &p("/a")).unwrap_err(), XsError::AlreadyExists);
    }

    #[test]
    fn directory_lists_children_sorted() {
        let mut s = Store::new();
        for name in ["zeta", "alpha", "mid"] {
            s.write(0, &p(&format!("/dir/{name}")), b"").unwrap();
        }
        assert_eq!(s.directory(0, &p("/dir")).unwrap(), vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn generations_bump_on_mutation() {
        let mut s = Store::new();
        s.write(0, &p("/a"), b"1").unwrap();
        let g1 = s.node_generation(&p("/a")).unwrap();
        s.write(0, &p("/a"), b"2").unwrap();
        let g2 = s.node_generation(&p("/a")).unwrap();
        assert!(g2 > g1);
    }

    #[test]
    fn rm_bumps_parent_generation() {
        let mut s = Store::new();
        s.write(0, &p("/a/b"), b"").unwrap();
        let g_parent = s.node_generation(&p("/a")).unwrap();
        s.rm(0, &p("/a/b")).unwrap();
        assert!(s.node_generation(&p("/a")).unwrap() > g_parent);
    }

    #[test]
    fn recreated_node_reuses_its_symbol() {
        let mut s = Store::new();
        s.write(0, &p("/a/b"), b"first").unwrap();
        let sym = s.find(&p("/a/b")).unwrap();
        s.rm(0, &p("/a/b")).unwrap();
        assert!(!s.exists(sym), "node gone, symbol retained");
        s.write(0, &p("/a/b"), b"second").unwrap();
        assert_eq!(s.find(&p("/a/b")).unwrap(), sym, "append-only table");
        assert_eq!(s.read(0, sym).unwrap(), b"second");
    }

    #[test]
    fn read_rc_snapshot_survives_overwrite_and_rm() {
        let mut s = Store::new();
        s.write(0, &p("/a"), b"one").unwrap();
        let snap = s.read_rc(0, &p("/a")).unwrap();
        // Same length: the in-place fast path must NOT fire while `snap`
        // aliases the buffer.
        s.write(0, &p("/a"), b"two").unwrap();
        assert_eq!(&*snap, b"one");
        assert_eq!(s.read(0, &p("/a")).unwrap(), b"two");
        s.rm(0, &p("/a")).unwrap();
        assert_eq!(&*snap, b"one");
    }

    #[test]
    fn unaliased_same_length_write_reuses_buffer() {
        let mut s = Store::new();
        s.write(0, &p("/a"), b"one").unwrap();
        let ptr1 = s.read(0, &p("/a")).unwrap().as_ptr();
        s.write(0, &p("/a"), b"two").unwrap();
        let ptr2 = s.read(0, &p("/a")).unwrap().as_ptr();
        assert_eq!(ptr1, ptr2, "sole-owner same-length write is in place");
    }

    #[test]
    fn guest_cannot_write_dom0_private_node() {
        let mut s = Store::new();
        s.write(0, &p("/secure"), b"x").unwrap();
        s.set_perms(
            0,
            &p("/secure"),
            Perms {
                owner: 0,
                others_read: false,
                others_write: false,
            },
        )
        .unwrap();
        assert_eq!(s.read(7, &p("/secure")).unwrap_err(), XsError::PermissionDenied);
        assert_eq!(
            s.write(7, &p("/secure"), b"y").unwrap_err(),
            XsError::PermissionDenied
        );
        // Dom0 always can.
        assert_eq!(s.read(0, &p("/secure")).unwrap(), b"x");
    }

    #[test]
    fn guest_owns_its_subtree() {
        let mut s = Store::new();
        s.write(0, &p("/local/domain/7"), b"").unwrap();
        s.set_perms(0, &p("/local/domain/7"), Perms::private(7)).unwrap();
        s.write(7, &p("/local/domain/7/data"), b"mine").unwrap();
        assert_eq!(s.read(7, &p("/local/domain/7/data")).unwrap(), b"mine");
        // Another guest cannot read it.
        assert_eq!(
            s.read(8, &p("/local/domain/7/data")).unwrap_err(),
            XsError::PermissionDenied
        );
    }

    #[test]
    fn set_perms_requires_ownership() {
        let mut s = Store::new();
        s.write(0, &p("/n"), b"").unwrap();
        assert_eq!(
            s.set_perms(5, &p("/n"), Perms::private(5)).unwrap_err(),
            XsError::PermissionDenied
        );
    }

    #[test]
    fn read_str_rejects_non_utf8() {
        let mut s = Store::new();
        s.write(0, &p("/bin"), &[0xff, 0xfe]).unwrap();
        assert_eq!(s.read_str(0, &p("/bin")).unwrap_err(), XsError::Invalid);
    }

    #[test]
    fn quota_limits_guest_nodes_but_not_dom0() {
        let mut s = Store::new();
        s.set_quota(Some(4));
        // Guest 7 owns its subtree; /g, given to it, is one of its nodes.
        s.write(0, &p("/g"), b"").unwrap();
        s.set_perms(0, &p("/g"), Perms { owner: 7, others_read: true, others_write: true }).unwrap();
        s.write(7, &p("/g/a"), b"").unwrap();
        s.write(7, &p("/g/b"), b"").unwrap();
        s.write(7, &p("/g/c"), b"").unwrap();
        assert_eq!(s.owned_by(7), 4);
        assert_eq!(s.write(7, &p("/g/d"), b"").unwrap_err(), XsError::QuotaExceeded);
        // Rewriting an existing node is fine (no new nodes).
        s.write(7, &p("/g/a"), b"update").unwrap();
        // Dom0 is exempt.
        for i in 0..10 {
            s.write(0, &p(&format!("/dom0-{i}")), b"").unwrap();
        }
    }

    #[test]
    fn quota_credits_back_on_rm() {
        let mut s = Store::new();
        s.set_quota(Some(3));
        s.write(0, &p("/g"), b"").unwrap();
        s.set_perms(0, &p("/g"), Perms { owner: 5, others_read: true, others_write: true }).unwrap();
        s.write(5, &p("/g/a"), b"").unwrap();
        s.write(5, &p("/g/b"), b"").unwrap();
        assert_eq!(s.write(5, &p("/g/c"), b"").unwrap_err(), XsError::QuotaExceeded);
        s.rm(5, &p("/g/a")).unwrap();
        assert_eq!(s.owned_by(5), 2);
        s.write(5, &p("/g/c"), b"").unwrap();
    }

    /// A node Dom0 gives away stops counting against its old owner:
    /// removing it credits the new owner, and the old one keeps its
    /// room. A guest may not give its nodes away.
    #[test]
    fn set_perms_moves_the_quota_entry() {
        let mut s = Store::new();
        s.set_quota(Some(3));
        s.set_perms(0, XsSym::ROOT, Perms { others_write: true, ..Perms::dom0() }).unwrap();
        for n in ["/a", "/b", "/c"] {
            s.write(5, &p(n), b"").unwrap();
        }
        assert_eq!(s.set_perms(5, &p("/a"), Perms::private(7)), Err(XsError::PermissionDenied));
        assert_eq!((s.owned_by(5), s.owned_by(7)), (3, 0));
        s.set_perms(0, &p("/a"), Perms::private(7)).unwrap();
        assert_eq!((s.owned_by(5), s.owned_by(7)), (2, 1));
        s.rm(7, &p("/a")).unwrap();
        assert_eq!((s.owned_by(5), s.owned_by(7)), (2, 0));
        s.write(5, &p("/d"), b"").unwrap();
        // Dom0 is uncounted on either side of a change.
        s.set_perms(0, &p("/d"), Perms::dom0()).unwrap();
        assert_eq!(s.owned_by(5), 2);
        s.set_perms(0, &p("/d"), Perms::private(5)).unwrap();
        assert_eq!(s.owned_by(5), 3);
    }

    #[test]
    fn set_perms_on_a_missing_path_interns_nothing() {
        let mut s = Store::new();
        let syms = s.census().interned_syms;
        let generation = s.generation();
        assert_eq!(s.set_perms(0, &p("/ghost/x"), Perms::dom0()), Err(XsError::NotFound));
        assert_eq!(s.census().interned_syms, syms);
        assert_eq!(s.generation(), generation + 1);
    }

    /// Every mutation path keeps the cached Merkle digest in sync with
    /// a from-scratch recompute.
    #[test]
    fn incremental_digest_matches_uncached_recompute() {
        let mut s = Store::new();
        let check = |s: &Store, what: &str| {
            assert_eq!(s.subtree_digest(), s.subtree_digest_uncached(), "{what}");
        };
        check(&s, "empty store");
        s.write(0, &p("/a/b/c"), b"v1").unwrap();
        check(&s, "chain create");
        s.write(0, &p("/a/b/c"), b"v2").unwrap();
        check(&s, "value overwrite");
        s.write(0, &p("/a/b/d"), &[0xff, 0x00, 0xfe]).unwrap();
        check(&s, "binary sibling");
        s.rm(0, &p("/a/b/c")).unwrap();
        check(&s, "rm leaf");
        s.write(0, &p("/a/b/c"), b"v3").unwrap();
        check(&s, "recreate");
        s.rm(0, &p("/a")).unwrap();
        check(&s, "rm subtree");
        // A warm cache cleared cold must land on the same digest.
        let warm = s.subtree_digest();
        s.clear_hash_caches();
        assert_eq!(s.subtree_digest(), warm, "cold rebuild diverged");
    }

    #[test]
    fn digest_tracks_content_not_metadata() {
        let mut a = Store::new();
        a.write(0, &p("/x"), b"1").unwrap();
        let d1 = a.subtree_digest();
        // Permissions and generation churn are invisible.
        a.set_perms(0, &p("/x"), Perms::private(3)).unwrap();
        assert_eq!(a.subtree_digest(), d1, "perms changed the digest");
        // Same bytes written again: generation bumps, digest stays.
        a.write(0, &p("/x"), b"1").unwrap();
        assert_eq!(a.subtree_digest(), d1, "no-op rewrite changed the digest");
        // Content changes are visible.
        a.write(0, &p("/x"), b"2").unwrap();
        assert_ne!(a.subtree_digest(), d1, "value change went unnoticed");
        // Distinct non-UTF-8 values are distinct (raw bytes, not lossy).
        let mut b1 = Store::new();
        b1.write(0, &p("/x"), &[0xff, 0xfe]).unwrap();
        let mut b2 = Store::new();
        b2.write(0, &p("/x"), &[0xfe, 0xff]).unwrap();
        assert_ne!(
            b1.subtree_digest(),
            b2.subtree_digest(),
            "non-UTF-8 values collided"
        );
    }

    #[test]
    fn digest_ignores_insertion_order_but_not_structure() {
        let mut a = Store::new();
        a.write(0, &p("/d/x"), b"1").unwrap();
        a.write(0, &p("/d/y"), b"2").unwrap();
        let mut b = Store::new();
        b.write(0, &p("/d/y"), b"2").unwrap();
        b.write(0, &p("/d/x"), b"1").unwrap();
        assert_eq!(a.subtree_digest(), b.subtree_digest(), "order leaked");
        // Swapped values under swapped names do differ.
        let mut c = Store::new();
        c.write(0, &p("/d/x"), b"2").unwrap();
        c.write(0, &p("/d/y"), b"1").unwrap();
        assert_ne!(a.subtree_digest(), c.subtree_digest(), "contents swapped silently");
    }

    #[test]
    fn clone_inherits_warm_caches_and_diverges_safely() {
        let mut a = Store::new();
        a.write(0, &p("/g/one"), b"v").unwrap();
        let da = a.subtree_digest(); // warm the cache
        let mut b = a.clone();
        assert_eq!(b.subtree_digest(), da, "clone lost the digest");
        b.write(0, &p("/g/two"), b"w").unwrap();
        assert_ne!(b.subtree_digest(), da, "clone mutation unseen");
        assert_eq!(a.subtree_digest(), da, "original disturbed by clone write");
        assert_eq!(b.subtree_digest(), b.subtree_digest_uncached());
        b.rm(0, &p("/g/two")).unwrap();
        assert_eq!(b.subtree_digest(), da, "undo did not restore the digest");
    }

    #[test]
    fn churned_arena_capacity_plateaus() {
        let mut s = Store::new();
        // Build the peak population once: /g plus eight children.
        for i in 0..8 {
            s.write(0, &p(&format!("/g/{i}")), b"v").unwrap();
        }
        let peak = s.census();
        assert_eq!(peak.live + peak.free, peak.capacity);
        // Churn far past the peak, through *fresh* symbols each round
        // (distinct paths, as churned domids produce) — the arena must
        // not grow once the population fits in recycled slots.
        for round in 0..100 {
            for i in 0..8 {
                s.rm(0, &p(&format!("/g/{i}"))).unwrap();
            }
            for i in 0..8 {
                s.write(0, &p(&format!("/g/{i}")), b"v").unwrap();
            }
            let c = s.census();
            assert_eq!(c.capacity, peak.capacity, "round {round}: arena grew");
            assert_eq!(c.live, peak.live, "round {round}: population drifted");
            assert_eq!(c.live + c.free, c.capacity);
            assert_eq!(s.subtree_digest(), s.subtree_digest_uncached());
        }
    }

    #[test]
    fn rm_recycles_slots_for_brand_new_paths() {
        let mut s = Store::new();
        s.write(0, &p("/a/b"), b"x").unwrap();
        let cap = s.census().capacity;
        s.rm(0, &p("/a")).unwrap();
        assert_eq!(s.census().free, 2);
        // Never-seen paths (fresh symbols) must fill the freed slots
        // instead of growing the arena — this is exactly the churn
        // pattern (new domid, new subtree) the old symbol-indexed
        // arena leaked on.
        s.write(0, &p("/c/d"), b"y").unwrap();
        let c = s.census();
        assert_eq!(c.capacity, cap, "fresh symbols should reuse freed slots");
        assert_eq!(c.free, 0);
        assert_eq!(s.read(0, &p("/c/d")).unwrap(), b"y");
    }

    #[test]
    fn quota_counts_implicit_parents() {
        let mut s = Store::new();
        s.set_quota(Some(3));
        s.write(0, &p("/g"), b"").unwrap();
        s.set_perms(0, &p("/g"), Perms { owner: 9, others_read: true, others_write: true }).unwrap();
        // /g/x/y/z would create three nodes: over the 2 left of 3.
        assert_eq!(
            s.write(9, &p("/g/x/y/z"), b"").unwrap_err(),
            XsError::QuotaExceeded
        );
        // Two levels fit.
        s.write(9, &p("/g/x/y"), b"").unwrap();
        assert_eq!(s.owned_by(9), 3);
    }

    /// Directory path → child names in insertion order: the naive model
    /// of the store's sibling chains.
    type ChainModel = BTreeMap<String, Vec<String>>;

    fn join(dir: &str, name: &str) -> String {
        if dir == "/" {
            format!("/{name}")
        } else {
            format!("{dir}/{name}")
        }
    }

    /// `write` on the model: creates every missing node on the path.
    fn model_write(m: &mut ChainModel, path: &str) {
        let mut cur = "/".to_string();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let child = join(&cur, comp);
            if !m.contains_key(&child) {
                m.get_mut(&cur)
                    .expect("model parent")
                    .push(comp.to_string());
                m.insert(child.clone(), Vec::new());
            }
            cur = child;
        }
    }

    /// `rm` on the model: drops the subtree, if the path exists.
    fn model_rm(m: &mut ChainModel, path: &str) {
        if m.remove(path).is_none() {
            return;
        }
        let (dir, name) = path.rsplit_once('/').expect("absolute path");
        let dir = if dir.is_empty() { "/" } else { dir };
        m.get_mut(dir).expect("model parent").retain(|c| c != name);
        let below = format!("{path}/");
        m.retain(|k, _| !k.starts_with(&below));
    }

    /// The order the original stack walk dooms a subtree in: pop a node,
    /// push its children first to last.
    fn model_doom_order(m: &ChainModel, path: &str) -> Vec<String> {
        let mut order = Vec::new();
        let mut stack = vec![path.to_string()];
        while let Some(d) = stack.pop() {
            stack.extend(m[&d].iter().map(|c| join(&d, c)));
            order.push(d);
        }
        order
    }

    /// Every directory's chain, walked forward and back, against the
    /// model.
    fn check_chains(s: &Store, m: &ChainModel, what: &str) {
        assert_eq!(s.node_count(), m.len(), "{what}: node count");
        let name = |c: XsSym| s.interner.borrow().name(c).to_string();
        for (dir, children) in m {
            let node = s
                .find_node(&p(dir))
                .unwrap_or_else(|| panic!("{what}: {dir} missing"));
            let mut forward = Vec::new();
            let mut cur = node.first_child.get();
            while let Some(c) = cur {
                assert!(forward.len() < m.len(), "{what}: {dir}'s chain cycles");
                forward.push(name(c));
                cur = s.next_sibling(c);
            }
            assert_eq!(&forward, children, "{what}: forward chain of {dir}");
            let mut backward = Vec::new();
            let mut cur = node.last_child.get();
            while let Some(c) = cur {
                assert!(
                    backward.len() < m.len(),
                    "{what}: {dir}'s back chain cycles"
                );
                backward.push(name(c));
                cur = s.node(c).expect("linked child exists").prev_sibling.get();
            }
            backward.reverse();
            assert_eq!(&backward, children, "{what}: backward chain of {dir}");
            assert_eq!(
                node.last_child.get().map(name).as_ref(),
                children.last(),
                "{what}: last child of {dir}"
            );
        }
    }

    /// What the op stream has exercised.
    #[derive(Default)]
    struct Seen {
        rm_first: usize,
        rm_middle: usize,
        rm_last: usize,
        rm_only: usize,
        recreated: usize,
        txn_rm_commits: usize,
        conflicts: usize,
        removed: std::collections::BTreeSet<String>,
    }

    const CHAIN_DIRS: [&str; 3] = ["/local/domain", "/vm", "/backend/vif/0"];
    const CHAIN_KEYS: [&str; 4] = ["", "name", "memory/target", "device/vif/0/state"];

    /// A random `(entry, path)`: a child of one of the directories and a
    /// path at or below it.
    fn random_entry(rng: &mut simcore::SimRng) -> (String, String) {
        let entry = join(
            CHAIN_DIRS[rng.index(CHAIN_DIRS.len())],
            &rng.index(6).to_string(),
        );
        let path = match CHAIN_KEYS[rng.index(CHAIN_KEYS.len())] {
            "" => entry.clone(),
            key => format!("{entry}/{key}"),
        };
        (entry, path)
    }

    /// One random op on the store and the model alike.
    fn chain_step(
        s: &mut Store,
        m: &mut ChainModel,
        rng: &mut simcore::SimRng,
        seen: &mut Seen,
        what: &str,
    ) {
        match rng.index(10) {
            // A write, creating children when the path is new.
            0..=3 => {
                let (entry, path) = random_entry(rng);
                if !m.contains_key(&entry) && seen.removed.contains(&entry) {
                    seen.recreated += 1;
                }
                s.write(0, &p(&path), b"v").unwrap();
                model_write(m, &path);
            }
            // `rm` of a directory's first, middle or last child.
            4..=6 => {
                let dir = CHAIN_DIRS[rng.index(CHAIN_DIRS.len())];
                let Some(children) = m.get(dir).filter(|c| !c.is_empty()) else {
                    return;
                };
                let n = children.len();
                let pos = [0, n / 2, n - 1][rng.index(3)];
                match pos {
                    _ if n == 1 => seen.rm_only += 1,
                    0 => seen.rm_first += 1,
                    _ if pos == n - 1 => seen.rm_last += 1,
                    _ => seen.rm_middle += 1,
                }
                let path = join(dir, &children[pos]);
                let doomed: Vec<u32> = model_doom_order(m, &path)
                    .iter()
                    .map(|q| s.slot(s.find(&p(q)).unwrap()).unwrap() as u32)
                    .collect();
                s.rm(0, &p(&path)).unwrap();
                model_rm(m, &path);
                let freed = &s.free_slots[s.free_slots.len() - doomed.len()..];
                assert_eq!(
                    freed,
                    &doomed[..],
                    "{what}: slots released out of doom order"
                );
                seen.removed.insert(path);
            }
            // `rm` of any path: a deep one, a whole tree, or a missing one.
            7 => {
                let path = if rng.chance(0.2) {
                    "/backend".to_string()
                } else {
                    random_entry(rng).1
                };
                let existed = m.contains_key(&path);
                assert_eq!(s.rm(0, &p(&path)).is_ok(), existed, "{what}: rm {path}");
                model_rm(m, &path);
            }
            // A transaction of writes and removals, sometimes conflicting.
            _ => {
                let mut t = crate::txn::Txn::start(crate::txn::TxnId(1), 0, s);
                let mut log: Vec<(bool, String)> = Vec::new();
                for _ in 0..1 + rng.index(4) {
                    let (entry, path) = random_entry(rng);
                    if rng.chance(0.5) {
                        t.write(s, &p(&path), b"t").unwrap();
                        log.push((false, path));
                    } else if t.rm(s, &p(&entry)).is_ok() {
                        log.push((true, entry));
                    }
                }
                if !log.is_empty() && rng.chance(0.2) {
                    // A direct write to a node the transaction touched.
                    let path = log[rng.index(log.len())].1.clone();
                    s.write(0, &p(&path), b"direct").unwrap();
                    model_write(m, &path);
                }
                match t.commit(s, &mut Vec::new()) {
                    Ok(()) => {
                        for (rm, path) in &log {
                            if *rm {
                                model_rm(m, path);
                            } else {
                                model_write(m, path);
                            }
                        }
                        if log.iter().any(|(rm, _)| *rm) {
                            seen.txn_rm_commits += 1;
                        }
                    }
                    Err(XsError::Again) => seen.conflicts += 1,
                    Err(e) => panic!("{what}: commit failed: {e}"),
                }
            }
        }
        check_chains(s, m, what);
    }

    /// The doubly linked sibling chains stay equal to an insertion-order
    /// model, forward and back, under a seeded stream of writes, `rm`s at
    /// every chain position, re-creations and transaction commits, on
    /// both sides of a fork taken mid-stream. `rm` releases slots in the
    /// stack walk's doom order.
    #[test]
    fn sibling_chains_match_insertion_order_model() {
        let mut seen = Seen::default();
        for seed in 0..4 {
            let mut rng = simcore::SimRng::new(seed);
            let mut s = Store::new();
            let mut m = ChainModel::from([("/".to_string(), Vec::new())]);
            for i in 0..150 {
                chain_step(
                    &mut s,
                    &mut m,
                    &mut rng,
                    &mut seen,
                    &format!("seed {seed} op {i}"),
                );
            }
            let (mut fs, mut fm, mut frng) = (s.clone(), m.clone(), rng.fork());
            for i in 150..300 {
                chain_step(
                    &mut s,
                    &mut m,
                    &mut rng,
                    &mut seen,
                    &format!("seed {seed} op {i}"),
                );
                let what = format!("seed {seed} fork op {i}");
                chain_step(&mut fs, &mut fm, &mut frng, &mut seen, &what);
            }
        }
        for (n, what) in [
            (seen.rm_first, "rm of a first child"),
            (seen.rm_middle, "rm of a middle child"),
            (seen.rm_last, "rm of a last child"),
            (seen.rm_only, "rm of an only child"),
            (seen.recreated, "re-creation after rm"),
            (seen.txn_rm_commits, "committed transaction with rm"),
            (seen.conflicts, "transaction conflict"),
        ] {
            assert!(n > 0, "the stream never made a {what}");
        }
    }

    /// Host CPU time per `rm` of a guest-shaped directory does not grow with
    /// its sibling count: the median over interleaved batches with 4000
    /// siblings is at most twice that with 200. With a sibling walk in
    /// `unlink_child` instead of the back links it reads about 12x in a
    /// debug build.
    #[test]
    fn rm_cost_does_not_grow_with_siblings() {
        const KEYS: [&str; 6] = [
            "name",
            "domid",
            "memory/target",
            "device/vif/0/state",
            "device/vif/0/backend-id",
            "control/shutdown",
        ];
        const VICTIMS: u32 = 40;
        const BATCHES: usize = 15;
        fn add_guest(s: &mut Store, d: u32) {
            for key in KEYS {
                s.write(0, &p(&format!("/local/domain/{d}/{key}")), b"1")
                    .unwrap();
            }
        }
        struct Host {
            store: Store,
            victims: Vec<(u32, XsSym)>,
            per_rm: Vec<f64>,
        }
        let mut hosts: Vec<Host> = [200u32, 4000]
            .into_iter()
            .map(|n| {
                let mut store = Store::new();
                for d in 0..n {
                    add_guest(&mut store, d);
                }
                let victims = (0..VICTIMS)
                    .map(|i| {
                        let d = i * n / VICTIMS;
                        (d, store.find(&p(&format!("/local/domain/{d}"))).unwrap())
                    })
                    .collect();
                Host {
                    store,
                    victims,
                    per_rm: Vec::new(),
                }
            })
            .collect();
        for _ in 0..BATCHES {
            for h in &mut hosts {
                let start = simcore::thread_cpu_ns();
                for &(_, sym) in &h.victims {
                    h.store.rm(0, sym).unwrap();
                }
                h.per_rm
                    .push((simcore::thread_cpu_ns() - start) as f64 / 1e9 / f64::from(VICTIMS));
                // Re-created guests rejoin at the chain's tail.
                for &(d, _) in &h.victims {
                    add_guest(&mut h.store, d);
                }
            }
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let small = median(&mut hosts[0].per_rm);
        let large = median(&mut hosts[1].per_rm);
        assert!(
            large <= 2.0 * small,
            "rm with 4000 siblings took {:.2}x as long as with 200 ({:.2} vs {:.2} µs)",
            large / small,
            large * 1e6,
            small * 1e6
        );
    }
}
