//! Path interning: stable `u32` symbols for XenStore paths.
//!
//! Every subsystem that keys maps by path (the store's node table, a
//! transaction's overlay, the watch registry) pays for string hashing,
//! string comparison and `String` clones on its hot path. The interner
//! assigns each distinct path a small copyable symbol once, after which
//! all keying is integer-sized.
//!
//! The table is **append-only**: a symbol, once handed out, is valid for
//! the lifetime of the interner and always maps back to the same path.
//! Removing a store node does *not* retire its symbol — transactions and
//! watch registrations may still hold it, and a recreated node reuses
//! it. This is what makes symbols safe to store across operations
//! without any lifetime bookkeeping.
//!
//! Interning a path also interns every ancestor, so parent/ancestor
//! walks are pointer-free symbol hops (`parent` links), not string
//! slicing.
//!
//! **Index.** A symbol is found by its `(parent symbol, final
//! component)` pair, never by its full path, as oxenstored's
//! `symbol.ml` interns components. Composing a child
//! ([`Interner::child`], the request path's hot hop) hashes one short
//! component, and walking a path string hashes each component once; no
//! lookup builds a string. The index key is a 64-bit fingerprint of the
//! pair from a keyed SipHash `RandomState`: components are chosen by
//! guests, and an unkeyed hash would let a guest pick names that pile
//! into one chain. Pairs with equal fingerprints share one index slot:
//! the slot names the newest such symbol, and each entry's `next` link
//! the next older one, so a probe walks that chain comparing parent and
//! name.
//!
//! The table is split into a frozen shared **base** plus a small local
//! **overlay** of post-freeze additions. [`Interner::freeze`] (called at
//! world fork points — template capture, cluster stamping) folds the
//! overlay into the base behind an `Arc`, after which cloning the
//! interner is a refcount bump (plus its scratch buffer) instead of a
//! deep copy of every path ever seen; the frozen overlay keeps no
//! capacity, so there is no empty table to copy. Symbols are indices
//! into the concatenation `base.entries ++ overlay.entries`, so
//! freezing never renumbers anything and forked siblings assign
//! identical symbols for identical operation sequences. An overlay
//! symbol is prepended to its chain, which may continue into the base,
//! so folding the overlay's slots over the base's keeps every chain
//! whole. The base owns the hasher key, so forks agree on fingerprints.

use std::hash::BuildHasher;
use std::sync::Arc;

use simcore::IdMap;

use crate::path::XsPath;

/// An interned path symbol. `XsSym::ROOT` is always `/`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct XsSym(u32);

impl XsSym {
    /// The root path `/`.
    pub const ROOT: XsSym = XsSym(0);

    /// The symbol's table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A compact `Option<XsSym>`: four bytes where the `Option` takes
/// eight, with `u32::MAX` as "none" (the interner would need 2^32
/// paths to hand that index out). The store's sibling links use it to
/// keep a node at 48 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct SymLink(u32);

impl SymLink {
    /// No symbol.
    pub(crate) const NONE: SymLink = SymLink(u32::MAX);

    /// The linked symbol, if any.
    #[inline]
    pub(crate) fn get(self) -> Option<XsSym> {
        (self != SymLink::NONE).then_some(XsSym(self.0))
    }
}

impl From<XsSym> for SymLink {
    fn from(sym: XsSym) -> SymLink {
        SymLink(sym.0)
    }
}

/// The key of a store node: a parsed path or an interned symbol. Every
/// store, transaction, watch and daemon operation takes one `impl
/// XsKey`, so each operation has a single entry point whichever key the
/// caller holds. Lookups (`read`, `rm`, `directory`, `unwatch`, ...)
/// [`find`](XsKey::find) the key and never grow the table; mutations
/// and every transactional op [`intern`](XsKey::intern) it.
pub trait XsKey: Copy {
    /// The key's symbol if its path was ever interned; never interns.
    fn find(self, interner: &Interner) -> Option<XsSym> {
        let (sym, below) = self.find_prefix(interner);
        (below == 0).then_some(sym)
    }
    /// The deepest interned symbol on the key's path and the number of
    /// the path's components below it (0 when the path is interned).
    fn find_prefix(self, interner: &Interner) -> (XsSym, usize);
    /// The key's symbol, interning the path and its ancestors if new.
    fn intern(self, interner: &mut Interner) -> XsSym;
    /// Byte length of the key's path: the request's path payload.
    fn wire_len(self, interner: &Interner) -> usize;
}

impl XsKey for XsSym {
    fn find_prefix(self, _: &Interner) -> (XsSym, usize) {
        (self, 0)
    }

    fn intern(self, _: &mut Interner) -> XsSym {
        self
    }

    fn wire_len(self, interner: &Interner) -> usize {
        interner.path_str(self).len()
    }
}

impl XsKey for &XsPath {
    fn find_prefix(self, interner: &Interner) -> (XsSym, usize) {
        interner.resolve_prefix(self.as_str())
    }

    fn intern(self, interner: &mut Interner) -> XsSym {
        interner.intern(self.as_str())
    }

    fn wire_len(self, _: &Interner) -> usize {
        self.len()
    }
}

#[derive(Clone, Debug)]
struct SymEntry {
    parent: XsSym,
    depth: u32,
    /// Byte offset of the final path component, so [`Interner::name`]
    /// is a slice, not a backwards scan (it sits on directory-listing
    /// sort comparators and on every index probe).
    name_off: u32,
    /// The next older symbol whose `(parent, name)` fingerprint equals
    /// this one's (see the module docs).
    next: SymLink,
    /// Full path; shared with any `XsPath` materialised from this
    /// symbol (a refcount bump, not a copy).
    path: Arc<str>,
}

/// The frozen, `Arc`-shared prefix of the symbol table. Immutable once
/// built; forked worlds share it by refcount.
#[derive(Clone, Debug)]
struct InternerBase {
    /// Keys the `(parent, name)` fingerprints of this table and every
    /// fork of it.
    hasher: std::hash::RandomState,
    /// Fingerprint → newest symbol with that fingerprint.
    heads: IdMap<u64, XsSym>,
    entries: Vec<SymEntry>,
    /// Fingerprint mask, so tests can force collision chains.
    #[cfg(test)]
    mask: u64,
}

/// The append-only symbol table: a frozen shared base plus a local
/// overlay of post-freeze additions (see the module docs).
#[derive(Clone, Debug)]
pub struct Interner {
    /// Frozen prefix, shared across world forks. Symbols `0..base.entries
    /// .len()` resolve here.
    base: Arc<InternerBase>,
    /// Post-freeze additions only: the chain heads they set, and their
    /// entries (symbol `i` lives at local index `i - base.entries.len()`).
    heads: IdMap<u64, XsSym>,
    entries: Vec<SymEntry>,
    /// Reusable buffer for composing a new child's path, so that path
    /// is the symbol's only allocation.
    scratch: String,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// Creates a table containing only the root.
    pub fn new() -> Interner {
        Interner {
            base: Arc::new(InternerBase {
                hasher: std::hash::RandomState::new(),
                heads: IdMap::default(),
                entries: vec![SymEntry {
                    parent: XsSym::ROOT,
                    depth: 0,
                    name_off: 1, // the root's name is the empty slice
                    next: SymLink::NONE,
                    path: "/".into(),
                }],
                #[cfg(test)]
                mask: u64::MAX,
            }),
            heads: IdMap::default(),
            entries: Vec::new(),
            scratch: String::with_capacity(128),
        }
    }

    /// Number of interned paths (≥ 1: the root).
    pub fn len(&self) -> usize {
        self.base.entries.len() + self.entries.len()
    }

    /// Folds the local overlay into the shared base, so clones taken
    /// from here on share the whole table by refcount instead of
    /// deep-copying it. Symbols are unaffected (the concatenation order
    /// is preserved), and an overlay head replaces the base head its
    /// chain continues into. Called at world fork points; a no-op when
    /// the overlay is already empty.
    ///
    /// The overlay is left with no capacity, not merely empty: a
    /// drained `HashMap` keeps its buckets and every clone copies them
    /// (8 192 empty buckets per fork of a 100-guest xl host), and the
    /// fork's first inserts then land on those cold pages.
    pub fn freeze(&mut self) {
        if self.entries.is_empty() {
            return;
        }
        // Reuse the base allocation when this interner is its sole
        // owner (the common capture-once case); clone it otherwise.
        if Arc::get_mut(&mut self.base).is_none() {
            self.base = Arc::new((*self.base).clone());
        }
        let base = Arc::get_mut(&mut self.base).expect("just made unique");
        base.entries.extend(std::mem::take(&mut self.entries));
        base.heads.extend(std::mem::take(&mut self.heads));
    }

    /// The entry behind a symbol, wherever it lives.
    #[inline]
    fn entry(&self, index: usize) -> &SymEntry {
        let split = self.base.entries.len();
        if index < split {
            &self.base.entries[index]
        } else {
            &self.entries[index - split]
        }
    }

    /// The index key of the child `name` of `parent`.
    fn fingerprint(&self, parent: XsSym, name: &str) -> u64 {
        let fp = self.base.hasher.hash_one((parent, name));
        #[cfg(test)]
        let fp = fp & self.base.mask;
        fp
    }

    /// The newest symbol with fingerprint `fp`: the overlay's head (it
    /// is small or empty, and in an unfrozen table it holds
    /// everything), else the frozen base's.
    fn head(&self, fp: u64) -> Option<XsSym> {
        let head = self.heads.get(&fp).or_else(|| self.base.heads.get(&fp));
        head.copied()
    }

    /// Walks `fp`'s chain for the child `name` of `parent`.
    fn find(&self, parent: XsSym, name: &str, fp: u64) -> Option<XsSym> {
        let mut cur = self.head(fp);
        while let Some(sym) = cur {
            let e = self.entry(sym.index());
            if e.parent == parent && &e.path[e.name_off as usize..] == name {
                return Some(sym);
            }
            cur = e.next.get();
        }
        None
    }

    /// Appends the new child of `parent` whose `name` ends `path`, at
    /// the head of `fp`'s chain.
    fn push(&mut self, parent: XsSym, name: &str, fp: u64, path: Arc<str>) -> XsSym {
        let sym = XsSym(self.len() as u32);
        self.entries.push(SymEntry {
            parent,
            depth: self.depth(parent) + 1,
            name_off: (path.len() - name.len()) as u32,
            next: self.head(fp).map_or(SymLink::NONE, SymLink::from),
            path,
        });
        self.heads.insert(fp, sym);
        sym
    }

    /// Never empty — the root is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Looks a path up without interning it: one probe per component.
    pub fn resolve(&self, path: &str) -> Option<XsSym> {
        let (sym, below) = self.resolve_prefix(path);
        (below == 0).then_some(sym)
    }

    /// The deepest interned symbol on `path` and the number of `path`'s
    /// components below it (0 when `path` itself is interned).
    pub(crate) fn resolve_prefix(&self, path: &str) -> (XsSym, usize) {
        let mut names = path.split('/').filter(|c| !c.is_empty());
        let mut sym = XsSym::ROOT;
        while let Some(name) = names.next() {
            match self.resolve_child(sym, name) {
                Some(child) => sym = child,
                None => return (sym, 1 + names.count()),
            }
        }
        (sym, 0)
    }

    /// Interns `path` and every missing ancestor, top-down, returning
    /// its symbol.
    ///
    /// The caller must pass a well-formed absolute path (an
    /// [`crate::path::XsPath`] invariant); this is not a validator.
    pub fn intern(&mut self, path: &str) -> XsSym {
        let (mut sym, _) = self.resolve_prefix(path);
        let mut end = self.path_str(sym).trim_end_matches('/').len();
        for name in path[end..].split('/').filter(|c| !c.is_empty()) {
            end += 1 + name.len();
            let fp = self.fingerprint(sym, name);
            sym = self.push(sym, name, fp, path[..end].into());
        }
        sym
    }

    /// Interns the child `<parent>/<name>` by symbol composition: one
    /// fingerprint and zero allocations when the child is already known
    /// (the steady state of the request path). A new child's path is
    /// built in an internal scratch buffer, never `format!`ed by
    /// callers.
    ///
    /// `name` must be a single well-formed component (non-empty, no
    /// `/`); this is not a validator.
    pub fn child(&mut self, parent: XsSym, name: &str) -> XsSym {
        let fp = self.fingerprint(parent, name);
        if let Some(sym) = self.find(parent, name, fp) {
            return sym;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        if parent != XsSym::ROOT {
            scratch.push_str(self.path_str(parent));
        }
        scratch.push('/');
        scratch.push_str(name);
        let sym = self.push(parent, name, fp, scratch.as_str().into());
        self.scratch = scratch;
        sym
    }

    /// [`Interner::child`] with a numeric component (`<parent>/<n>`),
    /// formatted on the stack — no intermediate `String`.
    pub fn child_u32(&mut self, parent: XsSym, n: u32) -> XsSym {
        let mut buf = [0u8; 10];
        self.child(parent, u32_str(&mut buf, n))
    }

    /// Looks the child `<parent>/<name>` up without interning it.
    pub fn resolve_child(&self, parent: XsSym, name: &str) -> Option<XsSym> {
        self.find(parent, name, self.fingerprint(parent, name))
    }

    /// The full path of a symbol.
    pub fn path_str(&self, sym: XsSym) -> &str {
        &self.entry(sym.index()).path
    }

    /// The full path as a shareable `Arc` (for materialising `XsPath`s
    /// without copying).
    pub fn path_arc(&self, sym: XsSym) -> &Arc<str> {
        &self.entry(sym.index()).path
    }

    /// The final component of a symbol's path (empty for the root).
    /// O(1): the offset is recorded at intern time.
    pub fn name(&self, sym: XsSym) -> &str {
        let e = self.entry(sym.index());
        &e.path[e.name_off as usize..]
    }

    /// The parent symbol; the root's parent is the root.
    pub fn parent(&self, sym: XsSym) -> XsSym {
        self.entry(sym.index()).parent
    }

    /// Path depth; the root is 0.
    pub fn depth(&self, sym: XsSym) -> u32 {
        self.entry(sym.index()).depth
    }

    /// Iterates over `sym` and every ancestor up to and including the
    /// root, as symbols.
    pub fn ancestors(&self, sym: XsSym) -> SymAncestors<'_> {
        SymAncestors {
            interner: self,
            cur: Some(sym),
        }
    }

    /// True if `a` equals `b` or lies below it. O(depth) symbol hops, no
    /// string comparison.
    pub fn is_self_or_descendant_of(&self, a: XsSym, b: XsSym) -> bool {
        let (da, db) = (self.depth(a), self.depth(b));
        if da < db {
            return false;
        }
        let mut cur = a;
        for _ in db..da {
            cur = self.parent(cur);
        }
        cur == b
    }
}

/// Formats `n` into `buf` and returns it as `&str`, without allocating.
/// Ten bytes always suffice for a `u32`.
pub fn u32_str(buf: &mut [u8; 10], n: u32) -> &str {
    let mut i = buf.len();
    let mut v = n;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // The buffer holds only ASCII digits from `i` on.
    std::str::from_utf8(&buf[i..]).expect("ascii digits")
}

/// Iterator over a symbol and its ancestors; see [`Interner::ancestors`].
pub struct SymAncestors<'a> {
    interner: &'a Interner,
    cur: Option<XsSym>,
}

impl Iterator for SymAncestors<'_> {
    type Item = XsSym;

    fn next(&mut self) -> Option<XsSym> {
        let c = self.cur?;
        self.cur = (c != XsSym::ROOT).then(|| self.interner.parent(c));
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;
    use std::collections::BTreeMap;

    #[test]
    fn intern_is_idempotent_and_append_only() {
        let mut i = Interner::new();
        let a = i.intern("/a/b/c");
        let n = i.len();
        assert_eq!(i.intern("/a/b/c"), a);
        assert_eq!(i.len(), n, "re-interning must not grow the table");
        assert_eq!(i.path_str(a), "/a/b/c");
    }

    #[test]
    fn intern_creates_ancestors() {
        let mut i = Interner::new();
        let c = i.intern("/a/b/c");
        let b = i.resolve("/a/b").expect("ancestor interned");
        let a = i.resolve("/a").expect("ancestor interned");
        assert_eq!(i.parent(c), b);
        assert_eq!(i.parent(b), a);
        assert_eq!(i.parent(a), XsSym::ROOT);
        assert_eq!(i.parent(XsSym::ROOT), XsSym::ROOT);
        assert_eq!(i.depth(c), 3);
        assert_eq!(i.depth(XsSym::ROOT), 0);
    }

    #[test]
    fn resolve_does_not_intern() {
        let i = Interner::new();
        assert_eq!(i.resolve("/nope"), None);
        assert_eq!(i.resolve("/"), Some(XsSym::ROOT));
    }

    #[test]
    fn names_and_ancestors() {
        let mut i = Interner::new();
        let c = i.intern("/a/b/c");
        assert_eq!(i.name(c), "c");
        assert_eq!(i.name(XsSym::ROOT), "");
        let chain: Vec<&str> = i.ancestors(c).map(|s| i.path_str(s)).collect();
        assert_eq!(chain, vec!["/a/b/c", "/a/b", "/a", "/"]);
    }

    #[test]
    fn child_composition_matches_intern() {
        let mut i = Interner::new();
        let a = i.intern("/a");
        let ab = i.child(a, "b");
        assert_eq!(i.path_str(ab), "/a/b");
        assert_eq!(i.resolve("/a/b"), Some(ab));
        assert_eq!(i.intern("/a/b"), ab, "child and intern must agree");
        assert_eq!(i.parent(ab), a);
        assert_eq!(i.depth(ab), 2);
        // Children of the root must not produce "//x".
        let r = i.child(XsSym::ROOT, "top");
        assert_eq!(i.path_str(r), "/top");
        // Numeric composition.
        let n = i.child_u32(ab, 0);
        assert_eq!(i.path_str(n), "/a/b/0");
        let big = i.child_u32(ab, u32::MAX);
        assert_eq!(i.path_str(big), "/a/b/4294967295");
    }

    #[test]
    fn resolve_child_does_not_intern() {
        let mut i = Interner::new();
        let a = i.intern("/a");
        let before = i.len();
        assert_eq!(i.resolve_child(a, "missing"), None);
        assert_eq!(i.len(), before);
        let ab = i.child(a, "b");
        assert_eq!(i.resolve_child(a, "b"), Some(ab));
    }

    #[test]
    fn u32_str_formats_like_display() {
        let mut buf = [0u8; 10];
        for v in [0u32, 1, 9, 10, 42, 12345, u32::MAX] {
            assert_eq!(u32_str(&mut buf, v), v.to_string());
        }
    }

    #[test]
    fn freeze_preserves_symbols_and_keeps_growing() {
        let mut i = Interner::new();
        let a = i.intern("/a");
        let abc = i.intern("/a/b/c");
        let before = i.len();
        i.freeze();
        assert_eq!(i.len(), before, "freeze must not add or drop entries");
        assert_eq!(i.resolve("/a"), Some(a));
        assert_eq!(i.resolve("/a/b/c"), Some(abc));
        assert_eq!(i.intern("/a/b/c"), abc, "re-intern after freeze");
        assert_eq!(i.path_str(abc), "/a/b/c");
        assert_eq!(i.parent(abc), i.resolve("/a/b").unwrap());
        // Post-freeze growth lands in the overlay with continuous
        // indices, and a clone + divergence assigns the same symbols a
        // sequential interner would.
        let mut seq = Interner::new();
        seq.intern("/a");
        seq.intern("/a/b/c");
        let forked = i.clone();
        for table in [&mut i, &mut seq] {
            assert_eq!(table.intern("/new/leaf").index(), before + 1);
            assert_eq!(table.child(a, "x"), table.intern("/a/x"));
            assert_eq!(table.name(table.resolve("/new/leaf").unwrap()), "leaf");
        }
        // The fork taken before the divergence is unaffected.
        assert_eq!(forked.len(), before);
        assert_eq!(forked.resolve("/new/leaf"), None);
        // Freezing again folds the overlay without renumbering.
        i.freeze();
        assert_eq!(i.resolve("/new/leaf").map(XsSym::index), Some(before + 1));
        assert_eq!(i.intern("/a/x"), i.resolve("/a/x").unwrap());
    }

    #[test]
    fn freeze_leaves_no_overlay_capacity_to_clone() {
        let mut i = Interner::new();
        let mut syms = Vec::new();
        for d in 0..500u32 {
            let dom = i.child_u32(XsSym::ROOT, d);
            for leaf in ["name", "memory/target", "device/vif/0/state"] {
                let path = format!("{}/{leaf}", i.path_str(dom));
                syms.push((i.intern(&path), path));
            }
        }
        assert!(i.len() > 3000, "only {} symbols", i.len());
        i.freeze();
        assert_eq!(
            i.heads.capacity(),
            0,
            "frozen overlay index kept its buckets"
        );
        assert_eq!(
            i.entries.capacity(),
            0,
            "frozen overlay entries kept their buffer"
        );
        // A fork of the frozen table copies no overlay table at all.
        let mut fork = i.clone();
        assert_eq!(fork.heads.capacity(), 0);
        assert_eq!(fork.entries.capacity(), 0);
        // Symbols survive the freeze and further interning on either side.
        let fresh = fork.intern("/post/freeze");
        assert_eq!(
            i.intern("/post/freeze"),
            fresh,
            "forks assign identical symbols"
        );
        for (sym, path) in &syms {
            assert_eq!(i.resolve(path), Some(*sym));
            assert_eq!(fork.intern(path), *sym);
            assert_eq!(fork.path_str(*sym), path);
        }
    }

    #[test]
    fn descendant_checks_match_path_semantics() {
        let mut i = Interner::new();
        let ab = i.intern("/a/b");
        let a = i.resolve("/a").unwrap();
        let axb = i.intern("/ax/b");
        assert!(i.is_self_or_descendant_of(ab, a));
        assert!(i.is_self_or_descendant_of(ab, XsSym::ROOT));
        assert!(i.is_self_or_descendant_of(a, a));
        assert!(!i.is_self_or_descendant_of(a, ab));
        assert!(!i.is_self_or_descendant_of(axb, a));
    }

    /// The naive reference for the differential test: a path-keyed
    /// `BTreeMap` that interns missing ancestors top-down.
    #[derive(Clone)]
    struct Model {
        index: BTreeMap<String, usize>,
        paths: Vec<String>,
    }

    impl Model {
        fn new() -> Model {
            Model {
                index: BTreeMap::from([("/".to_string(), 0)]),
                paths: vec!["/".to_string()],
            }
        }

        fn intern(&mut self, path: &str) -> usize {
            if let Some(&s) = self.index.get(path) {
                return s;
            }
            self.intern(parent_path(path));
            self.paths.push(path.to_string());
            self.index.insert(path.to_string(), self.paths.len() - 1);
            self.paths.len() - 1
        }

        fn resolve_prefix(&self, path: &str) -> (usize, usize) {
            let mut cur = path;
            let mut below = 0;
            while !self.index.contains_key(cur) {
                cur = parent_path(cur);
                below += 1;
            }
            (self.index[cur], below)
        }
    }

    fn parent_path(path: &str) -> &str {
        match path.rfind('/') {
            Some(0) | None => "/",
            Some(cut) => &path[..cut],
        }
    }

    fn join(parent: &str, name: &str) -> String {
        match parent {
            "/" => format!("/{name}"),
            _ => format!("{parent}/{name}"),
        }
    }

    /// Asserts the table agrees with the model on its size and on `sym`
    /// and every ancestor: symbol, path, parent, depth and name.
    fn check(i: &Interner, m: &Model, sym: XsSym) {
        assert_eq!(i.len(), m.paths.len(), "len");
        for s in i.ancestors(sym) {
            let path = &m.paths[s.index()];
            assert_eq!(i.path_str(s), path);
            assert_eq!(
                i.parent(s).index(),
                m.index[parent_path(path)],
                "parent of {path}"
            );
            let depth = path.split('/').filter(|c| !c.is_empty()).count();
            assert_eq!(i.depth(s) as usize, depth, "depth of {path}");
            assert_eq!(
                i.name(s),
                path.rsplit('/').next().unwrap(),
                "name of {path}"
            );
        }
    }

    /// Every symbol of the table resolves back to itself by path, by
    /// prefix and by `(parent, name)`.
    fn check_all(i: &Interner, m: &Model) {
        for (s, path) in m.paths.iter().enumerate() {
            let sym = XsSym(s as u32);
            check(i, m, sym);
            assert_eq!(i.resolve(path), Some(sym), "resolve {path}");
            assert_eq!(i.resolve_prefix(path), (sym, 0));
            if sym != XsSym::ROOT {
                assert_eq!(i.resolve_child(i.parent(sym), i.name(sym)), Some(sym));
            }
        }
    }

    const NAMES: [&str; 8] = ["a", "b", "dev", "0", "1", "42", "x-y", "state"];

    fn random_path(rng: &mut SimRng) -> String {
        let depth = 1 + rng.index(4);
        (0..depth).fold("/".to_string(), |p, _| {
            join(&p, NAMES[rng.index(NAMES.len())])
        })
    }

    /// Runs a seeded op stream over up to four forked tables, each
    /// checked against its own model after every op, with fingerprints
    /// cut to `mask`. Returns whether some overlay chain ran into the
    /// frozen base.
    fn differential_run(seed: u64, mask: u64, ops: usize) -> bool {
        let mut rng = SimRng::new(seed);
        let mut first = Interner::new();
        Arc::get_mut(&mut first.base).expect("fresh table").mask = mask;
        let mut worlds = vec![(first, Model::new())];
        let mut spans_base = false;
        for _ in 0..ops {
            let w = rng.index(worlds.len());
            let can_fork = worlds.len() < 4;
            let (i, m) = &mut worlds[w];
            let sym = match rng.index(16) {
                0..=3 => {
                    let path = random_path(&mut rng);
                    let sym = i.intern(&path);
                    assert_eq!(sym.index(), m.intern(&path), "intern {path}");
                    sym
                }
                4..=7 => {
                    let parent = XsSym(rng.index(m.paths.len()) as u32);
                    let name = NAMES[rng.index(NAMES.len())];
                    let sym = i.child(parent, name);
                    assert_eq!(sym.index(), m.intern(&join(&m.paths[parent.index()], name)));
                    sym
                }
                8 | 9 => {
                    let parent = XsSym(rng.index(m.paths.len()) as u32);
                    let n = rng.index(64) as u32;
                    let sym = i.child_u32(parent, n);
                    let path = join(&m.paths[parent.index()], &n.to_string());
                    assert_eq!(sym.index(), m.intern(&path));
                    sym
                }
                10 | 11 => {
                    let path = random_path(&mut rng);
                    let (sym, below) = i.resolve_prefix(&path);
                    assert_eq!(
                        (sym.index(), below),
                        m.resolve_prefix(&path),
                        "prefix {path}"
                    );
                    assert_eq!(
                        i.resolve(&path).map(XsSym::index),
                        m.index.get(&path).copied()
                    );
                    sym
                }
                12 | 13 => {
                    let parent = XsSym(rng.index(m.paths.len()) as u32);
                    let name = NAMES[rng.index(NAMES.len())];
                    let found = i.resolve_child(parent, name);
                    let path = join(&m.paths[parent.index()], name);
                    assert_eq!(found.map(XsSym::index), m.index.get(&path).copied());
                    found.unwrap_or(parent)
                }
                14 => {
                    i.freeze();
                    check_all(i, m);
                    XsSym::ROOT
                }
                15 if can_fork => {
                    // Clone, then feed the fork and its original one
                    // equal op: they must assign equal symbols.
                    let mut fork = (i.clone(), m.clone());
                    let path = random_path(&mut rng);
                    let sym = i.intern(&path);
                    assert_eq!(fork.0.intern(&path), sym, "forks diverged on {path}");
                    m.intern(&path);
                    fork.1.intern(&path);
                    worlds.push(fork);
                    sym
                }
                _ => XsSym::ROOT,
            };
            let (i, m) = &worlds[w];
            check(i, m, sym);
            let split = i.base.entries.len();
            spans_base |= i
                .entries
                .iter()
                .any(|e| e.next.get().is_some_and(|n| n.index() < split));
        }
        for (i, m) in &worlds {
            check_all(i, m);
        }
        spans_base
    }

    #[test]
    fn interner_matches_a_path_keyed_model() {
        // Unmasked fingerprints: chains hold true collisions only.
        for seed in 1..=4 {
            differential_run(seed, u64::MAX, 3_000);
        }
        // Masked to a handful of slots, every probe walks a long chain,
        // and chains run from overlay heads into the frozen base.
        for (seed, mask) in [(11, 0), (12, 0x3), (13, 0x3f)] {
            assert!(
                differential_run(seed, mask, 1_500),
                "no chain spans base and overlay"
            );
        }
    }
}
