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
//! The table is split into a frozen shared **base** plus a small local
//! **overlay** of post-freeze additions. [`Interner::freeze`] (called at
//! world fork points — template capture, cluster stamping) folds the
//! overlay into the base behind an `Arc`, after which cloning the
//! interner is a refcount bump (plus its scratch buffer) instead of a
//! deep copy of every path ever seen; the frozen overlay keeps no
//! capacity, so there is no empty table to copy. Symbols are indices
//! into the concatenation `base.entries ++ overlay.entries`, so
//! freezing never renumbers anything and forked siblings assign
//! identical symbols for identical operation sequences.

use std::collections::HashMap;
use std::sync::Arc;

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

/// The key of a store node: a parsed path or an interned symbol. Every
/// store, transaction, watch and daemon operation takes one `impl
/// XsKey`, so each operation has a single entry point whichever key the
/// caller holds. Lookups (`read`, `rm`, `directory`, `unwatch`, ...)
/// [`find`](XsKey::find) the key and never grow the table; mutations
/// and every transactional op [`intern`](XsKey::intern) it.
pub trait XsKey: Copy {
    /// The key's symbol if its path was ever interned; never interns.
    fn find(self, interner: &Interner) -> Option<XsSym>;
    /// The key's symbol, interning the path and its ancestors if new.
    fn intern(self, interner: &mut Interner) -> XsSym;
    /// Byte length of the key's path: the request's path payload.
    fn wire_len(self, interner: &Interner) -> usize;
}

impl XsKey for XsSym {
    fn find(self, _: &Interner) -> Option<XsSym> {
        Some(self)
    }

    fn intern(self, _: &mut Interner) -> XsSym {
        self
    }

    fn wire_len(self, interner: &Interner) -> usize {
        interner.path_str(self).len()
    }
}

impl XsKey for &XsPath {
    fn find(self, interner: &Interner) -> Option<XsSym> {
        interner.resolve(self.as_str())
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
    /// sort comparators).
    name_off: u32,
    /// Full path; shared with the `by_path` key and with any `XsPath`
    /// materialised from this symbol (a refcount bump, not a copy).
    path: Arc<str>,
}

/// The frozen, `Arc`-shared prefix of the symbol table. Immutable once
/// built; forked worlds share it by refcount.
#[derive(Clone, Debug)]
struct InternerBase {
    by_path: HashMap<Arc<str>, XsSym>,
    entries: Vec<SymEntry>,
}

/// The append-only symbol table: a frozen shared base plus a local
/// overlay of post-freeze additions (see the module docs).
#[derive(Clone, Debug)]
pub struct Interner {
    /// Frozen prefix, shared across world forks. Symbols `0..base.entries
    /// .len()` resolve here.
    base: Arc<InternerBase>,
    /// Post-freeze additions only; symbol `i` lives at local index
    /// `i - base.entries.len()`.
    by_path: HashMap<Arc<str>, XsSym>,
    entries: Vec<SymEntry>,
    /// Reusable buffer for composing child paths; kept at capacity so a
    /// steady-state [`Interner::child`] hit performs zero allocations.
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
        let root: Arc<str> = "/".into();
        let mut by_path = HashMap::new();
        by_path.insert(root.clone(), XsSym::ROOT);
        Interner {
            base: Arc::new(InternerBase {
                by_path,
                entries: vec![SymEntry {
                    parent: XsSym::ROOT,
                    depth: 0,
                    name_off: 1, // the root's name is the empty slice
                    path: root,
                }],
            }),
            by_path: HashMap::new(),
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
    /// is preserved). Called at world fork points; a no-op when the
    /// overlay is already empty.
    ///
    /// The overlay is left with no capacity, not merely empty: a
    /// drained `HashMap` keeps its buckets and every clone copies them
    /// (8 192 empty buckets, ~205 KB, per fork of a 100-guest xl host),
    /// and the fork's first inserts then land on those cold pages.
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
        base.by_path.extend(std::mem::take(&mut self.by_path));
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

    /// Two-level lookup: overlay first (it is small or empty, and in an
    /// unfrozen table it holds everything), then the frozen base.
    #[inline]
    fn lookup(&self, path: &str) -> Option<XsSym> {
        if let Some(&s) = self.by_path.get(path) {
            return Some(s);
        }
        self.base.by_path.get(path).copied()
    }

    /// Never empty — the root is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Looks a path up without interning it. O(1) on the full string.
    pub fn resolve(&self, path: &str) -> Option<XsSym> {
        self.lookup(path)
    }

    /// Interns `path` and every missing ancestor, returning its symbol.
    ///
    /// The caller must pass a well-formed absolute path (an
    /// [`crate::path::XsPath`] invariant); this is not a validator.
    pub fn intern(&mut self, path: &str) -> XsSym {
        if let Some(s) = self.lookup(path) {
            return s;
        }
        // Walk ancestors until one is already interned, remembering the
        // byte lengths of the missing prefixes (deepest first).
        let mut missing = vec![path.len()];
        let mut parent = XsSym::ROOT;
        let mut cur = path;
        loop {
            match cur.rfind('/') {
                Some(0) | None => break, // parent is the root
                Some(cut) => {
                    cur = &path[..cut];
                    if let Some(s) = self.lookup(cur) {
                        parent = s;
                        break;
                    }
                    missing.push(cut);
                }
            }
        }
        let mut depth = self.entry(parent.index()).depth;
        for end in missing.into_iter().rev() {
            let arc: Arc<str> = path[..end].into();
            let name_off = if parent == XsSym::ROOT {
                1
            } else {
                self.entry(parent.index()).path.len() as u32 + 1
            };
            let sym = XsSym(self.len() as u32);
            depth += 1;
            self.entries.push(SymEntry {
                parent,
                depth,
                name_off,
                path: arc.clone(),
            });
            self.by_path.insert(arc, sym);
            parent = sym;
        }
        parent
    }

    /// Interns the child `<parent>/<name>` by symbol composition: one
    /// hash probe and zero allocations when the child is already known
    /// (the steady state of the request path); the path string is built
    /// in an internal scratch buffer, never `format!`ed by callers.
    ///
    /// `name` must be a single well-formed component (non-empty, no
    /// `/`); this is not a validator.
    pub fn child(&mut self, parent: XsSym, name: &str) -> XsSym {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let parent_path = self.path_str(parent);
        if parent_path != "/" {
            scratch.push_str(parent_path);
        }
        scratch.push('/');
        scratch.push_str(name);
        let sym = match self.lookup(scratch.as_str()) {
            Some(s) => s,
            None => {
                let arc: Arc<str> = scratch.as_str().into();
                let sym = XsSym(self.len() as u32);
                self.entries.push(SymEntry {
                    parent,
                    depth: self.entry(parent.index()).depth + 1,
                    name_off: (scratch.len() - name.len()) as u32,
                    path: arc.clone(),
                });
                self.by_path.insert(arc, sym);
                sym
            }
        };
        self.scratch = scratch;
        sym
    }

    /// [`Interner::child`] with a numeric component (`<parent>/<n>`),
    /// formatted on the stack — no intermediate `String`.
    pub fn child_u32(&mut self, parent: XsSym, n: u32) -> XsSym {
        let mut buf = [0u8; 10];
        self.child(parent, u32_str(&mut buf, n))
    }

    /// Looks the child `<parent>/<name>` up without interning it. Zero
    /// allocations; uses the same scratch buffer as [`Interner::child`].
    pub fn resolve_child(&mut self, parent: XsSym, name: &str) -> Option<XsSym> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let parent_path = self.path_str(parent);
        if parent_path != "/" {
            scratch.push_str(parent_path);
        }
        scratch.push('/');
        scratch.push_str(name);
        let sym = self.lookup(scratch.as_str());
        self.scratch = scratch;
        sym
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
        self.cur = if c == XsSym::ROOT {
            None
        } else {
            Some(self.interner.parent(c))
        };
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(i.by_path.capacity(), 0, "frozen overlay map kept its buckets");
        assert_eq!(i.entries.capacity(), 0, "frozen overlay entries kept their buffer");
        // A fork of the frozen table copies no overlay table at all.
        let mut fork = i.clone();
        assert_eq!(fork.by_path.capacity(), 0);
        assert_eq!(fork.entries.capacity(), 0);
        // Symbols survive the freeze and further interning on either side.
        let fresh = fork.intern("/post/freeze");
        assert_eq!(i.intern("/post/freeze"), fresh, "forks assign identical symbols");
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
}
