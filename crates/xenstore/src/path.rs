//! XenStore path handling.

use std::fmt;
use std::sync::Arc;

use crate::store::XsError;

/// A validated, absolute XenStore path (e.g. `/local/domain/3/name`).
///
/// Paths are `/`-separated; components may contain alphanumerics and
/// `-_@:.`, matching what xenstored accepts in practice.
///
/// The string is held in an `Arc`, so cloning a path — watch events,
/// transaction write logs — is a refcount bump, and paths materialised
/// from the interner share the interner's own allocation.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XsPath {
    // Stored without a trailing slash; root is "/".
    raw: Arc<str>,
}

impl XsPath {
    /// The root path `/`.
    pub fn root() -> XsPath {
        XsPath { raw: "/".into() }
    }

    /// Wraps an interner-held path without re-validating. Only the
    /// interner stores pre-validated paths, hence crate-private.
    pub(crate) fn from_interned(raw: Arc<str>) -> XsPath {
        XsPath { raw }
    }

    /// Parses and validates a path.
    pub fn parse(s: &str) -> Result<XsPath, XsError> {
        if s.is_empty() || !s.starts_with('/') {
            return Err(XsError::Invalid);
        }
        if s == "/" {
            return Ok(XsPath::root());
        }
        if s.ends_with('/') {
            return Err(XsError::Invalid);
        }
        for comp in s[1..].split('/') {
            if comp.is_empty() || !comp.bytes().all(valid_byte) {
                return Err(XsError::Invalid);
            }
        }
        Ok(XsPath { raw: s.into() })
    }

    /// The path string.
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    /// Iterates over path components (empty for root). Borrows from the
    /// path — store lookups and watch walks must not allocate.
    pub fn components(&self) -> Components<'_> {
        Components {
            inner: if &*self.raw == "/" {
                None
            } else {
                Some(self.raw[1..].split('/'))
            },
        }
    }

    /// Number of components (depth); root is 0. Counted from the raw
    /// bytes, no allocation or split.
    pub fn depth(&self) -> usize {
        if &*self.raw == "/" {
            0
        } else {
            self.raw.bytes().filter(|&b| b == b'/').count()
        }
    }

    /// The final component, `None` for root.
    pub fn last_component(&self) -> Option<&str> {
        if &*self.raw == "/" {
            None
        } else {
            self.raw.rfind('/').map(|i| &self.raw[i + 1..])
        }
    }

    /// Appends a child component.
    pub fn child(&self, comp: &str) -> Result<XsPath, XsError> {
        if comp.is_empty() || !comp.bytes().all(valid_byte) {
            return Err(XsError::Invalid);
        }
        let raw = if &*self.raw == "/" {
            format!("/{comp}")
        } else {
            format!("{}/{comp}", self.raw)
        };
        Ok(XsPath { raw: raw.into() })
    }

    /// The parent path; root's parent is root.
    pub fn parent(&self) -> XsPath {
        XsPath {
            raw: self.parent_str().into(),
        }
    }

    /// The parent path as a borrowed slice of this one (`"/"` for root
    /// and depth-1 paths). Use with [`std::borrow::Borrow`]-based map
    /// lookups to avoid allocating on read paths.
    pub fn parent_str(&self) -> &str {
        match self.raw.rfind('/') {
            Some(0) | None => "/",
            Some(idx) => &self.raw[..idx],
        }
    }

    /// Iterates over `self` and every ancestor, as borrowed slices:
    /// `/a/b/c` yields `"/a/b/c"`, `"/a/b"`, `"/a"`, `"/"`. No
    /// allocation — this is the watch-table walk.
    pub fn ancestors(&self) -> Ancestors<'_> {
        Ancestors {
            rest: Some(&self.raw),
        }
    }

    /// True if `self` equals `other` or is a descendant of it.
    pub fn is_self_or_descendant_of(&self, other: &XsPath) -> bool {
        if &*other.raw == "/" {
            return true;
        }
        self.raw == other.raw
            || (self.raw.starts_with(&*other.raw)
                && self.raw.as_bytes().get(other.raw.len()) == Some(&b'/'))
    }

    /// Length in bytes (used for payload costing).
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Paths are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

fn valid_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'@' | b':' | b'.')
}

/// Borrowing iterator over path components; see [`XsPath::components`].
#[derive(Clone)]
pub struct Components<'a> {
    inner: Option<std::str::Split<'a, char>>,
}

impl<'a> Iterator for Components<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.inner.as_mut()?.next()
    }
}

/// Borrowing iterator over a path and its ancestors; see
/// [`XsPath::ancestors`].
#[derive(Clone)]
pub struct Ancestors<'a> {
    rest: Option<&'a str>,
}

impl<'a> Iterator for Ancestors<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let cur = self.rest?;
        self.rest = if cur == "/" {
            None
        } else {
            Some(match cur.rfind('/') {
                Some(0) | None => "/",
                Some(idx) => &cur[..idx],
            })
        };
        Some(cur)
    }
}

/// `XsPath` orders, hashes and compares exactly like its raw string, so
/// `BTreeMap<XsPath, _>` and `HashMap<XsPath, _>` can be probed with a
/// `&str` slice — the basis of the allocation-free watch/store walks.
impl std::borrow::Borrow<str> for XsPath {
    fn borrow(&self) -> &str {
        &self.raw
    }
}

impl fmt::Display for XsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

impl fmt::Debug for XsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XsPath({})", self.raw)
    }
}

/// Conventional Xen store layout helpers (paths used by the toolstack).
pub mod layout {
    use super::XsPath;

    /// `/local/domain/<domid>`.
    pub fn domain_dir(domid: u32) -> XsPath {
        XsPath::parse(&format!("/local/domain/{domid}")).expect("static path is valid")
    }

    /// `/local/domain/<backend_domid>/backend/<kind>/<domid>/<devid>`.
    pub fn backend_dir(backend: u32, kind: &str, domid: u32, devid: u32) -> XsPath {
        XsPath::parse(&format!(
            "/local/domain/{backend}/backend/{kind}/{domid}/{devid}"
        ))
        .expect("static path is valid")
    }

    /// `/local/domain/<domid>/device/<kind>/<devid>`.
    pub fn frontend_dir(domid: u32, kind: &str, devid: u32) -> XsPath {
        XsPath::parse(&format!("/local/domain/{domid}/device/{kind}/{devid}"))
            .expect("static path is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_paths() {
        for p in ["/", "/local", "/local/domain/0", "/a/b-c/d_e/f@1:2.3"] {
            assert!(XsPath::parse(p).is_ok(), "{p} should parse");
        }
    }

    #[test]
    fn parse_rejects_invalid_paths() {
        for p in ["", "a/b", "/a/", "/a//b", "/a b", "/a\n", "/ä"] {
            assert_eq!(XsPath::parse(p).unwrap_err(), XsError::Invalid, "{p:?}");
        }
    }

    #[test]
    fn parent_and_child_are_inverse() {
        let p = XsPath::parse("/local/domain/7").unwrap();
        assert_eq!(p.parent().as_str(), "/local/domain");
        assert_eq!(p.parent().child("7").unwrap(), p);
        assert_eq!(XsPath::parse("/a").unwrap().parent(), XsPath::root());
        assert_eq!(XsPath::root().parent(), XsPath::root());
    }

    #[test]
    fn descendant_checks() {
        let root = XsPath::root();
        let a = XsPath::parse("/a").unwrap();
        let ab = XsPath::parse("/a/b").unwrap();
        let axb = XsPath::parse("/ax/b").unwrap();
        assert!(ab.is_self_or_descendant_of(&a));
        assert!(ab.is_self_or_descendant_of(&root));
        assert!(a.is_self_or_descendant_of(&a));
        assert!(!a.is_self_or_descendant_of(&ab));
        assert!(!axb.is_self_or_descendant_of(&a), "prefix must respect separators");
    }

    #[test]
    fn components_and_depth() {
        assert_eq!(XsPath::root().depth(), 0);
        assert_eq!(XsPath::root().components().count(), 0);
        let p = XsPath::parse("/local/domain/3/name").unwrap();
        assert_eq!(
            p.components().collect::<Vec<_>>(),
            vec!["local", "domain", "3", "name"]
        );
        assert_eq!(p.depth(), 4);
        assert_eq!(p.last_component(), Some("name"));
        assert_eq!(XsPath::root().last_component(), None);
    }

    #[test]
    fn ancestors_walk_to_root() {
        let p = XsPath::parse("/a/b/c").unwrap();
        assert_eq!(
            p.ancestors().collect::<Vec<_>>(),
            vec!["/a/b/c", "/a/b", "/a", "/"]
        );
        assert_eq!(XsPath::root().ancestors().collect::<Vec<_>>(), vec!["/"]);
        assert_eq!(p.parent_str(), "/a/b");
        assert_eq!(XsPath::parse("/a").unwrap().parent_str(), "/");
    }

    #[test]
    fn borrow_str_matches_map_semantics() {
        use std::borrow::Borrow;
        use std::collections::BTreeMap;
        let mut m: BTreeMap<XsPath, u32> = BTreeMap::new();
        m.insert(XsPath::parse("/a/b").unwrap(), 1);
        let s: &str = m.keys().next().unwrap().borrow();
        assert_eq!(s, "/a/b");
        assert_eq!(m.get("/a/b"), Some(&1));
        assert_eq!(m.get("/a"), None);
    }

    #[test]
    fn layout_paths_parse() {
        assert_eq!(layout::domain_dir(3).as_str(), "/local/domain/3");
        assert_eq!(
            layout::backend_dir(0, "vif", 5, 0).as_str(),
            "/local/domain/0/backend/vif/5/0"
        );
        assert_eq!(
            layout::frontend_dir(5, "vif", 0).as_str(),
            "/local/domain/5/device/vif/0"
        );
    }
}
