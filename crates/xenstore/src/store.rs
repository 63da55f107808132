//! The hierarchical store, flattened over interned path symbols.
//!
//! This is the pure data structure: nodes with values, owners and
//! per-node modification generations (used by transaction conflict
//! detection). All protocol and cost concerns live in
//! [`crate::xenstored`].
//!
//! Nodes live in one flat slot arena addressed through a symbol→slot
//! map; the tree shape is the interner's parent links plus each node's
//! sibling chain. A lookup is one O(1) symbol resolution on the full
//! path string followed by two array indexes — no per-component map
//! walk, no hashing beyond the single resolve — and interior operations
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

use crate::hash::Mix128;
use crate::path::XsPath;
use crate::sym::{Interner, XsKey, XsSym};
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
    /// Head of this node's child list — an intrusive chain threaded
    /// through the child slots via `next_sibling`, in insertion order.
    /// Linking a child is an O(1) tail append that allocates nothing;
    /// listings sort at read time (directories are read far less often
    /// than children are created on the density hot path).
    first_child: Option<XsSym>,
    /// Tail of the child chain, for O(1) append.
    last_child: Option<XsSym>,
    /// Next sibling in the parent's child chain.
    next_sibling: Option<XsSym>,
}

impl Node {
    fn new(empty: &Arc<[u8]>, perms: Perms, generation: u64) -> Node {
        Node {
            value: empty.clone(),
            perms,
            generation,
            first_child: None,
            last_child: None,
            next_sibling: None,
        }
    }
}

/// Slots per copy-on-write chunk in [`NodeArena`] and [`HashCache`].
/// 64 keeps a chunk copy at a few KB — small enough that a forked world
/// touching a handful of guests localises only a handful of chunks.
const CHUNK_BITS: usize = 6;
const CHUNK: usize = 1 << CHUNK_BITS;

/// The node slot arena, stored as fixed-size chunks shared
/// copy-on-write across world forks: cloning a store bumps one refcount
/// per chunk instead of deep-copying every node, and a mutation
/// localises only the 64-slot chunk it lands in (`Arc::make_mut`).
/// This is what makes cluster-scale fork stamping O(written state) in
/// memory rather than O(template size) per host.
#[derive(Clone, Debug)]
struct NodeArena {
    chunks: Vec<Arc<Vec<Option<Node>>>>,
    /// Slots handed out so far (`<= chunks.len() * CHUNK`); the tail of
    /// the last chunk is unallocated padding, always `None`.
    len: usize,
}

impl NodeArena {
    fn new() -> NodeArena {
        NodeArena { chunks: Vec::new(), len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, slot: usize) -> Option<&Node> {
        self.chunks.get(slot >> CHUNK_BITS)?[slot & (CHUNK - 1)].as_ref()
    }

    /// Mutable access, localising the chunk first if it is shared with
    /// a forked sibling.
    #[inline]
    fn get_mut(&mut self, slot: usize) -> Option<&mut Node> {
        let chunk = self.chunks.get_mut(slot >> CHUNK_BITS)?;
        Arc::make_mut(chunk)[slot & (CHUNK - 1)].as_mut()
    }

    fn set(&mut self, slot: usize, node: Option<Node>) {
        let chunk = &mut self.chunks[slot >> CHUNK_BITS];
        Arc::make_mut(chunk)[slot & (CHUNK - 1)] = node;
    }

    /// Appends a node in the next fresh slot, growing by one chunk when
    /// the last is full. Returns the slot index.
    fn push(&mut self, node: Node) -> usize {
        let slot = self.len;
        if slot >> CHUNK_BITS == self.chunks.len() {
            let mut fresh = Vec::with_capacity(CHUNK);
            fresh.resize_with(CHUNK, || None);
            self.chunks.push(Arc::new(fresh));
        }
        self.len += 1;
        self.set(slot, Some(node));
        slot
    }
}

/// Cached Merkle digests of each slot's subtree (DESIGN.md §6h), kept
/// beside the arena rather than inside [`Node`] so arena chunks hold
/// only plain data and stay shareable across forks. `0` = dirty
/// ([`Store::node_hash`] never produces 0 — it maps a computed 0 to 1).
/// Chunked copy-on-write like the arena: forked worlds inherit the
/// template's warm caches by refcount (the cache is a pure function of
/// digested state, never of lineage), and an invalidation or recompute
/// localises only the chunk it writes — so a fork whose content
/// diverges always owns the cache entries that describe the divergence.
#[derive(Clone, Debug)]
struct HashCache {
    chunks: Vec<Arc<[u128; CHUNK]>>,
}

/// The symbol → slot map, CoW-chunked like the arena (a flat `Vec<u32>`
/// re-copies four bytes per interned symbol on every fork). Reads
/// beyond the populated range are `NO_SLOT`, so it never needs an
/// explicit resize on the read side.
#[derive(Clone, Debug)]
struct SlotMap {
    chunks: Vec<Arc<[u32; CHUNK]>>,
}

impl SlotMap {
    fn new() -> SlotMap {
        SlotMap { chunks: Vec::new() }
    }

    #[inline]
    fn get(&self, idx: usize) -> u32 {
        self.chunks.get(idx >> CHUNK_BITS).map_or(NO_SLOT, |c| c[idx & (CHUNK - 1)])
    }

    fn set(&mut self, idx: usize, slot: u32) {
        while self.chunks.len() <= idx >> CHUNK_BITS {
            self.chunks.push(Arc::new([NO_SLOT; CHUNK]));
        }
        Arc::make_mut(&mut self.chunks[idx >> CHUNK_BITS])[idx & (CHUNK - 1)] = slot;
    }
}

impl HashCache {
    fn new() -> HashCache {
        HashCache { chunks: Vec::new() }
    }

    /// The cached digest for a slot; `0` (dirty) when out of range.
    #[inline]
    fn get(&self, slot: usize) -> u128 {
        self.chunks.get(slot >> CHUNK_BITS).map_or(0, |c| c[slot & (CHUNK - 1)])
    }

    fn set(&mut self, slot: usize, digest: u128) {
        while self.chunks.len() <= slot >> CHUNK_BITS {
            self.chunks.push(Arc::new([0; CHUNK]));
        }
        Arc::make_mut(&mut self.chunks[slot >> CHUNK_BITS])[slot & (CHUNK - 1)] = digest;
    }

    fn clear(&mut self) {
        for chunk in &mut self.chunks {
            *chunk = Arc::new([0; CHUNK]);
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
    /// Node slot arena, addressed through `slot_of`; `None` = a recycled
    /// hole awaiting reuse (listed in `free_slots`). Chunked CoW — see
    /// [`NodeArena`].
    nodes: NodeArena,
    /// Lazy per-slot subtree digests, CoW-shared like the arena.
    /// Interior mutability so the `&self` digest walk can fill it;
    /// borrows are short-scoped and never escape a method.
    hash_cache: RefCell<HashCache>,
    /// Symbol → slot map (`NO_SLOT` = no node at that path). Grows
    /// append-only with the interner; the slots it points into are
    /// recycled, which is what keeps `nodes` at O(peak live) under
    /// churn. CoW-chunked — see [`SlotMap`].
    slot_of: SlotMap,
    /// Recycled slots, reused LIFO by [`Store::insert_node`].
    free_slots: Vec<u32>,
    node_count: usize,
    generation: u64,
    /// Nodes owned per domain (Dom0 exempt from quota).
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
        let mut nodes = NodeArena::new();
        nodes.push(Node::new(&empty, Perms::dom0(), 0));
        let mut interner = Interner::new();
        let local = interner.child(XsSym::ROOT, "local");
        let local_domain = interner.child(local, "domain");
        Store {
            interner: RefCell::new(interner),
            nodes,
            hash_cache: RefCell::new(HashCache::new()),
            slot_of: { let mut m = SlotMap::new(); m.set(0, 0); m },
            free_slots: Vec::new(),
            empty,
            consts: CONST_VALS.iter().map(|&v| Arc::from(v)).collect(),
            digit_cache: RefCell::new(Vec::new()),
            chain_scratch: Vec::new(),
            node_count: 1,
            generation: 0,
            owned: BTreeMap::new(),
            quota: None,
            local_domain,
            tally: DomainTally::default(),
        }
    }

    /// Sets the per-domain node quota (xenstored's `quota-max-entity`,
    /// default 1000 in real deployments). Dom0 is exempt.
    pub fn set_quota(&mut self, quota: Option<usize>) {
        self.quota = quota;
    }

    /// Nodes currently owned by a domain.
    pub fn owned_by(&self, dom: u32) -> usize {
        self.owned.get(&dom).copied().unwrap_or(0)
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
        debug_assert_eq!(self.node_count + self.free_slots.len(), self.nodes.len());
        StoreCensus {
            live: self.node_count,
            capacity: self.nodes.len(),
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

    /// Resolves a child of `sym` by name, if ever interned. Zero
    /// allocations (interner scratch buffer).
    pub(crate) fn resolve_child(&self, sym: XsSym, name: &str) -> Option<XsSym> {
        self.interner.borrow_mut().resolve_child(sym, name)
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
        match self.slot_of.get(sym.index()) {
            NO_SLOT => None,
            s => Some(s as usize),
        }
    }

    fn node(&self, sym: XsSym) -> Option<&Node> {
        self.nodes.get(self.slot(sym)?)
    }

    fn node_mut(&mut self, sym: XsSym) -> Option<&mut Node> {
        let slot = self.slot(sym)?;
        self.nodes.get_mut(slot)
    }

    /// Installs a node for `sym`, reusing a recycled slot when one is
    /// free (LIFO) and growing the arena only past the live+free peak.
    fn insert_node(&mut self, sym: XsSym, node: Node) {
        let idx = sym.index();
        debug_assert_eq!(self.slot_of.get(idx), NO_SLOT, "insert over a live node");
        let slot = match self.free_slots.pop() {
            Some(s) => {
                debug_assert!(self.nodes.get(s as usize).is_none(), "free slot was live");
                self.nodes.set(s as usize, Some(node));
                s
            }
            None => self.nodes.push(node) as u32,
        };
        // A recycled slot may still carry the previous occupant's cached
        // digest; the new node starts dirty. (Fresh slots read as dirty
        // already — the cache grows lazily.)
        {
            let mut cache = self.hash_cache.borrow_mut();
            if cache.get(slot as usize) != 0 {
                cache.set(slot as usize, 0);
            }
        }
        self.slot_of.set(idx, slot);
    }

    /// Appends `child` to `parent`'s child chain. O(1), allocation-free:
    /// the sibling links live in the node slots themselves. Only called
    /// for freshly inserted nodes, so the child cannot already be linked.
    fn link_child(&mut self, parent: XsSym, child: XsSym) {
        let tail = {
            let p = self.node_mut(parent).expect("parent exists");
            let tail = p.last_child.replace(child);
            if tail.is_none() {
                p.first_child = Some(child);
            }
            tail
        };
        if let Some(t) = tail {
            self.node_mut(t).expect("tail sibling exists").next_sibling = Some(child);
        }
    }

    /// Removes `child` from `parent`'s child chain, if linked. The child
    /// slot must still be live (its `next_sibling` is read). O(siblings)
    /// symbol hops, no string work.
    fn unlink_child(&mut self, parent: XsSym, child: XsSym) {
        let next = self.node(child).and_then(|n| n.next_sibling);
        let mut prev: Option<XsSym> = None;
        let mut cur = self
            .node(parent)
            .expect("parent of a live node exists")
            .first_child;
        while let Some(c) = cur {
            if c == child {
                break;
            }
            prev = Some(c);
            cur = self.node(c).expect("sibling exists").next_sibling;
        }
        if cur != Some(child) {
            return; // not linked
        }
        match prev {
            None => self.node_mut(parent).expect("parent exists").first_child = next,
            Some(p) => self.node_mut(p).expect("sibling exists").next_sibling = next,
        }
        let p = self.node_mut(parent).expect("parent exists");
        if p.last_child == Some(child) {
            p.last_child = prev;
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
        let sym = self.sym(key);
        self.write_val_sym(dom, sym, ValSrc::Bytes(value))
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
        if dom != 0 {
            if let Some(q) = self.quota {
                let have = self.owned.get(&dom).copied().unwrap_or(0);
                let missing = chain.iter().filter(|&&s| self.node(s).is_none()).count();
                if have + missing > q {
                    return Err(XsError::QuotaExceeded);
                }
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
        if dom != 0 && created > 0 {
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
        // Collect the subtree, tallying per-owner credits.
        let mut credits: BTreeMap<u32, usize> = BTreeMap::new();
        let mut doomed = Vec::new();
        let mut stack = vec![sym];
        while let Some(s) = stack.pop() {
            let node = self.node(s).expect("subtree nodes exist");
            *credits.entry(node.perms.owner).or_insert(0) += 1;
            let mut cur = node.first_child;
            while let Some(c) = cur {
                stack.push(c);
                cur = self.node(c).expect("linked child exists").next_sibling;
            }
            doomed.push(s);
        }
        let removed = doomed.len();
        let parent = self.parent_sym(sym);
        self.unlink_child(parent, sym);
        // Release the slots in DFS doom order (deterministic, so the
        // LIFO reuse order — and with it every later world byte — is a
        // pure function of the operation sequence).
        for s in doomed {
            let idx = s.index();
            let slot = self.slot_of.get(idx);
            debug_assert_ne!(slot, NO_SLOT, "doomed node has a slot");
            match self.tally_role(s) {
                TallyRole::Entry => self.tally.entry(self.scanned_name_path_len(s), false),
                TallyRole::Name => {
                    let node = self.nodes.get(slot as usize).expect("doomed node is live");
                    self.tally.name(&node.value, false);
                }
                TallyRole::Untallied => {}
            }
            self.nodes.set(slot as usize, None);
            self.slot_of.set(idx, NO_SLOT);
            self.free_slots.push(slot);
        }
        for (owner, n) in credits {
            if owner != 0 {
                if let Some(c) = self.owned.get_mut(&owner) {
                    *c = c.saturating_sub(n);
                }
            }
        }
        self.generation += 1;
        let generation = self.generation;
        // The parent's generation changes: its child list was modified.
        self.node_mut(parent).expect("parent exists").generation = generation;
        self.node_count -= removed;
        self.invalidate_hash_up(parent);
        Ok(())
    }

    /// Lists the child names of a node, sorted.
    pub fn directory(&self, dom: u32, key: impl XsKey) -> Result<Vec<String>, XsError> {
        let node = self.readable(dom, key)?;
        // The child chain is in insertion order; sort the listing.
        let interner = self.interner.borrow();
        let mut out = Vec::new();
        let mut cur = node.first_child;
        while let Some(c) = cur {
            out.push(interner.name(c).to_string());
            cur = self.node(c).expect("linked child exists").next_sibling;
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
        let mut cur = node.first_child;
        while let Some(c) = cur {
            f(c);
            count += 1;
            cur = self.node(c).expect("linked child exists").next_sibling;
        }
        Ok(count)
    }

    /// Reads a node's permissions.
    pub fn get_perms(&self, key: impl XsKey) -> Result<Perms, XsError> {
        self.find_node(key)
            .map(|n| n.perms)
            .ok_or(XsError::NotFound)
    }

    /// Sets a node's permissions. Only Dom0 or the owner may do this.
    pub fn set_perms(&mut self, dom: u32, key: impl XsKey, perms: Perms) -> Result<(), XsError> {
        let sym = self.sym(key);
        // As before the flattening: the global generation bumps even when
        // the lookup or permission check below fails.
        self.generation += 1;
        let generation = self.generation;
        let node = match self.node_mut(sym) {
            Some(n) => n,
            None => return Err(XsError::NotFound),
        };
        if dom != 0 && dom != node.perms.owner {
            return Err(XsError::PermissionDenied);
        }
        node.perms = perms;
        node.generation = generation;
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
                    if cache.get(slot) == 0 {
                        return;
                    }
                    cache.set(slot, 0);
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
        let node = self.nodes.get(slot).expect("digest walk visits live nodes");
        if use_cache {
            let h = self.hash_cache.borrow().get(slot);
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
        let mut cur = node.first_child;
        while let Some(c) = cur {
            child_sum = child_sum.wrapping_add(self.node_hash(c, use_cache));
            children += 1;
            cur = self.node(c).expect("linked child exists").next_sibling;
        }
        mix.write_u64(children);
        mix.write_u128(child_sum);
        // 0 is the dirty sentinel; the 2^-128 hash that lands on it is
        // nudged to 1 (uniformly, so uncached recomputes agree).
        let h = mix.finish().max(1);
        if use_cache {
            self.hash_cache.borrow_mut().set(slot, h);
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
        s.set_quota(Some(3));
        // Guest 7 owns its subtree.
        s.write(0, &p("/g"), b"").unwrap();
        s.set_perms(0, &p("/g"), Perms { owner: 7, others_read: true, others_write: true }).unwrap();
        s.write(7, &p("/g/a"), b"").unwrap();
        s.write(7, &p("/g/b"), b"").unwrap();
        s.write(7, &p("/g/c"), b"").unwrap();
        assert_eq!(s.owned_by(7), 3);
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
        s.set_quota(Some(2));
        s.write(0, &p("/g"), b"").unwrap();
        s.set_perms(0, &p("/g"), Perms { owner: 5, others_read: true, others_write: true }).unwrap();
        s.write(5, &p("/g/a"), b"").unwrap();
        s.write(5, &p("/g/b"), b"").unwrap();
        assert_eq!(s.write(5, &p("/g/c"), b"").unwrap_err(), XsError::QuotaExceeded);
        s.rm(5, &p("/g/a")).unwrap();
        assert_eq!(s.owned_by(5), 1);
        s.write(5, &p("/g/c"), b"").unwrap();
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
        s.set_quota(Some(2));
        s.write(0, &p("/g"), b"").unwrap();
        s.set_perms(0, &p("/g"), Perms { owner: 9, others_read: true, others_write: true }).unwrap();
        // /g/x/y/z would create three nodes: over the quota of 2.
        assert_eq!(
            s.write(9, &p("/g/x/y/z"), b"").unwrap_err(),
            XsError::QuotaExceeded
        );
        // Two levels fit.
        s.write(9, &p("/g/x/y"), b"").unwrap();
        assert_eq!(s.owned_by(9), 2);
    }
}
