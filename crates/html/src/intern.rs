//! Workspace-wide string and path interning.
//!
//! Wrapper induction compares the *same* small set of tag, attribute,
//! word and path strings millions of times (occurrence vectors over
//! page tokens, §III-C). This module makes those comparisons integer
//! comparisons:
//!
//! * [`Symbol`] — a `u32` handle to an interned string (tag names,
//!   attribute names/values, token words, annotation type names).
//! * [`PathId`] — a `u32` handle to an interned DOM tag-path, built
//!   incrementally as `(parent PathId, Symbol)` pairs, so a node's
//!   path is an O(1) field read instead of an O(depth) ancestor walk
//!   with a fresh `String` per lookup.
//! * [`FxHasher`] — a from-scratch FxHash-style multiply-rotate hasher
//!   backing every interner table and the `(Symbol, PathId)`-keyed
//!   maps in the analysis crates.
//!
//! Both interners are process-wide (`RwLock`-guarded, append-only), so
//! symbols and paths are comparable across documents and across pages
//! of a source — exactly what cross-page role assignment and
//! main-block voting need. Interned strings are leaked (`Box::leak`)
//! to hand out `&'static str`; the tables are deduplicated and grow
//! with the distinct vocabulary of the corpus, which is the same
//! asymptote the pre-interning code paid *per occurrence*.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{OnceLock, RwLock};

// ------------------------------------------------------------ fxhash

/// From-scratch FxHash-style hasher: one multiply-rotate-xor round per
/// 8-byte chunk. Not DoS-resistant — fine for interner tables keyed by
/// trusted, bounded vocabularies.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// `HashMap` keyed with [`FxHasher`]; the default map type for interned
/// keys across the workspace.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

// ------------------------------------------------------------ symbols

/// Handle to an interned string. `Copy`, 4 bytes, and comparable
/// across documents (the interner is process-wide).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct SymbolTable {
    map: FxHashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn symbols() -> &'static RwLock<SymbolTable> {
    static SYMBOLS: OnceLock<RwLock<SymbolTable>> = OnceLock::new();
    SYMBOLS.get_or_init(|| {
        RwLock::new(SymbolTable {
            map: FxHashMap::default(),
            strings: Vec::new(),
        })
    })
}

thread_local! {
    /// Per-thread read cache in front of the `RwLock`-guarded symbol
    /// table: hot vocabularies (tag names, common words) resolve
    /// without ever touching the lock. Safe because the global table
    /// is append-only — a cached `(str → Symbol)` entry can never go
    /// stale — and bounded by the distinct vocabulary, like the table.
    static SYMBOL_CACHE: RefCell<FxHashMap<&'static str, Symbol>> =
        RefCell::new(FxHashMap::default());
}

impl Symbol {
    /// Intern `s`, returning its stable handle.
    pub fn intern(s: &str) -> Symbol {
        SYMBOL_CACHE.with(|cache| {
            if let Some(&sym) = cache.borrow().get(s) {
                return sym;
            }
            let (sym, leaked) = Symbol::intern_global(s);
            cache.borrow_mut().insert(leaked, sym);
            sym
        })
    }

    /// Intern against the shared table, returning the handle and the
    /// leaked key (for thread-local caching).
    fn intern_global(s: &str) -> (Symbol, &'static str) {
        {
            let table = symbols().read().expect("symbol table poisoned");
            if let Some((&leaked, &id)) = table.map.get_key_value(s) {
                return (Symbol(id), leaked);
            }
        }
        let mut table = symbols().write().expect("symbol table poisoned");
        if let Some((&leaked, &id)) = table.map.get_key_value(s) {
            return (Symbol(id), leaked);
        }
        let id = table.strings.len() as u32;
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        table.strings.push(leaked);
        table.map.insert(leaked, id);
        (Symbol(id), leaked)
    }

    /// Intern the ASCII-lowercased form of `s`, skipping the lowercase
    /// allocation when `s` is already lowercase (the common case for
    /// machine-generated markup).
    pub fn intern_lower(s: &str) -> Symbol {
        if s.bytes().any(|b| b.is_ascii_uppercase()) {
            Symbol::intern(&s.to_ascii_lowercase())
        } else {
            Symbol::intern(s)
        }
    }

    /// Look up `s` without interning it; `None` if it was never seen.
    pub fn lookup(s: &str) -> Option<Symbol> {
        let table = symbols().read().expect("symbol table poisoned");
        table.map.get(s).map(|&id| Symbol(id))
    }

    /// The interned string. `'static` because interned strings live for
    /// the process.
    pub fn as_str(self) -> &'static str {
        let table = symbols().read().expect("symbol table poisoned");
        table.strings[self.0 as usize]
    }

    /// Raw index (dense, allocation order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// -------------------------------------------------------------- paths

/// Handle to an interned DOM tag-path (e.g. `html/body/div/span`).
///
/// Paths form a tree: each non-root path is `(parent, last segment)`,
/// interned once. Extending a path ([`PathId::child`]) is a single
/// hash-map probe; reading a node's path is an O(1) field access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(u32);

struct PathNode {
    parent: PathId,
    segment: Symbol,
    depth: u32,
}

struct PathTable {
    map: FxHashMap<(PathId, Symbol), u32>,
    nodes: Vec<PathNode>,
}

fn paths() -> &'static RwLock<PathTable> {
    static PATHS: OnceLock<RwLock<PathTable>> = OnceLock::new();
    PATHS.get_or_init(|| {
        RwLock::new(PathTable {
            map: FxHashMap::default(),
            nodes: vec![PathNode {
                parent: PathId::ROOT,
                segment: Symbol(u32::MAX),
                depth: 0,
            }],
        })
    })
}

thread_local! {
    /// Counts [`PathId::child`] calls — i.e. path-interner probes — on
    /// this thread. The NodeSignature O(N) test snapshots this to prove
    /// signature computation does no per-node path work after tree
    /// construction; per-thread, so tests running in parallel cannot
    /// move each other's count.
    static PATH_PROBES: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`PathId::child`] probes this thread has made so far
/// (diagnostic).
pub fn path_probe_count() -> u64 {
    PATH_PROBES.with(Cell::get)
}

thread_local! {
    /// Per-thread read cache in front of the path table, mirroring
    /// [`SYMBOL_CACHE`]: parsing N pages with the same template walks
    /// the same `(parent, segment)` edges on every worker, and the
    /// cache keeps those off the lock. Append-only table ⇒ entries
    /// never go stale.
    static PATH_CACHE: RefCell<FxHashMap<(PathId, Symbol), PathId>> =
        RefCell::new(FxHashMap::default());
}

impl PathId {
    /// The empty path (the document root).
    pub const ROOT: PathId = PathId(0);

    /// The path `self/segment`, interned.
    pub fn child(self, segment: Symbol) -> PathId {
        PATH_PROBES.with(|n| n.set(n.get() + 1));
        if let Some(hit) = PATH_CACHE.with(|c| c.borrow().get(&(self, segment)).copied()) {
            return hit;
        }
        let id = self.child_global(segment);
        PATH_CACHE.with(|c| c.borrow_mut().insert((self, segment), id));
        id
    }

    /// Extend against the shared table (thread-local cache miss).
    fn child_global(self, segment: Symbol) -> PathId {
        {
            let table = paths().read().expect("path table poisoned");
            if let Some(&id) = table.map.get(&(self, segment)) {
                return PathId(id);
            }
        }
        let mut table = paths().write().expect("path table poisoned");
        if let Some(&id) = table.map.get(&(self, segment)) {
            return PathId(id);
        }
        let id = table.nodes.len() as u32;
        let depth = table.nodes[self.0 as usize].depth + 1;
        table.nodes.push(PathNode {
            parent: self,
            segment,
            depth,
        });
        table.map.insert((self, segment), id);
        PathId(id)
    }

    /// Re-intern a path from externalized segment strings — the inverse
    /// of [`PathId::segments`] + [`Symbol::as_str`]. `PathId`s are
    /// process-local handles, so persisted wrappers store paths as
    /// segment lists; loading rebuilds the same identity in the current
    /// process's table.
    pub fn from_segments<I, S>(segments: I) -> PathId
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        segments.into_iter().fold(PathId::ROOT, |path, seg| {
            path.child(Symbol::intern(seg.as_ref()))
        })
    }

    /// Parent path; `None` at the root.
    pub fn parent(self) -> Option<PathId> {
        if self == PathId::ROOT {
            None
        } else {
            let table = paths().read().expect("path table poisoned");
            Some(table.nodes[self.0 as usize].parent)
        }
    }

    /// Last segment; `None` at the root.
    pub fn last(self) -> Option<Symbol> {
        if self == PathId::ROOT {
            None
        } else {
            let table = paths().read().expect("path table poisoned");
            Some(table.nodes[self.0 as usize].segment)
        }
    }

    /// Number of segments (root = 0).
    pub fn depth(self) -> usize {
        let table = paths().read().expect("path table poisoned");
        table.nodes[self.0 as usize].depth as usize
    }

    /// Segments from the root down.
    pub fn segments(self) -> Vec<Symbol> {
        let table = paths().read().expect("path table poisoned");
        let mut out = Vec::with_capacity(table.nodes[self.0 as usize].depth as usize);
        let mut cur = self;
        while cur != PathId::ROOT {
            let node = &table.nodes[cur.0 as usize];
            out.push(node.segment);
            cur = node.parent;
        }
        out.reverse();
        out
    }

    /// The `/`-joined display form (`html/body/div`). Allocates; for
    /// diagnostics and labels, not hot paths.
    pub fn render(self) -> String {
        let segments = self.segments();
        let mut out = String::new();
        for (i, seg) in segments.iter().enumerate() {
            if i > 0 {
                out.push('/');
            }
            out.push_str(seg.as_str());
        }
        out
    }

    /// Raw index (dense, allocation order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PathId({:?})", self.render())
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_round_trip() {
        let a = Symbol::intern("div");
        let b = Symbol::intern("div");
        assert_eq!(a, b, "same string, same symbol");
        assert_eq!(a.as_str(), "div");
        assert_ne!(Symbol::intern("span"), a);
        // Round trip: resolving and re-interning is the identity.
        assert_eq!(Symbol::intern(a.as_str()), a);
    }

    #[test]
    fn intern_lower_folds_case() {
        assert_eq!(Symbol::intern_lower("DIV"), Symbol::intern("div"));
        assert_eq!(Symbol::intern_lower("div"), Symbol::intern("div"));
    }

    #[test]
    fn lookup_does_not_intern() {
        assert!(Symbol::lookup("never-interned-sentinel-xyzzy").is_none());
        let s = Symbol::intern("interned-sentinel");
        assert_eq!(Symbol::lookup("interned-sentinel"), Some(s));
    }

    #[test]
    fn path_parent_chaining() {
        let html = Symbol::intern("html");
        let body = Symbol::intern("body");
        let div = Symbol::intern("div");
        let p1 = PathId::ROOT.child(html).child(body).child(div);
        let p2 = PathId::ROOT.child(html).child(body).child(div);
        assert_eq!(p1, p2, "same chain, same path id");
        assert_eq!(p1.render(), "html/body/div");
        assert_eq!(p1.depth(), 3);
        assert_eq!(p1.last(), Some(div));
        let parent = p1.parent().expect("non-root");
        assert_eq!(parent.render(), "html/body");
        assert_eq!(parent, PathId::ROOT.child(html).child(body));
        assert_eq!(p1.segments(), vec![html, body, div]);
        assert_eq!(PathId::ROOT.depth(), 0);
        assert_eq!(PathId::ROOT.render(), "");
        assert!(PathId::ROOT.parent().is_none());
        assert!(PathId::ROOT.last().is_none());
    }

    #[test]
    fn from_segments_round_trips() {
        let p = PathId::ROOT
            .child(Symbol::intern("html"))
            .child(Symbol::intern("body"))
            .child(Symbol::intern("ul"));
        let strings: Vec<&str> = p.segments().iter().map(|s| s.as_str()).collect();
        assert_eq!(PathId::from_segments(strings), p);
        assert_eq!(PathId::from_segments(Vec::<&str>::new()), PathId::ROOT);
    }

    #[test]
    fn sibling_paths_diverge() {
        let body = PathId::ROOT.child(Symbol::intern("body"));
        let a = body.child(Symbol::intern("div"));
        let b = body.child(Symbol::intern("span"));
        assert_ne!(a, b);
        assert_eq!(a.parent(), b.parent());
    }

    #[test]
    fn fxhasher_is_stable_and_spreads() {
        fn hash_of(s: &str) -> u64 {
            let mut h = FxHasher::default();
            h.write(s.as_bytes());
            h.finish()
        }
        assert_eq!(hash_of("div"), hash_of("div"));
        assert_ne!(hash_of("div"), hash_of("span"));
        assert_ne!(hash_of("a"), hash_of("aa"), "length must matter");
        // Byte-order sensitivity within a chunk.
        assert_ne!(hash_of("abcdefgh"), hash_of("hgfedcba"));
    }

    #[test]
    fn symbols_agree_across_threads() {
        // Every thread has its own read cache, but all caches front the
        // same append-only table: the same string must resolve to the
        // same Symbol everywhere, warm or cold.
        let words: Vec<String> = (0..64).map(|i| format!("xthread-sym-{i}")).collect();
        let home: Vec<Symbol> = words.iter().map(|w| Symbol::intern(w)).collect();
        let others: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| scope.spawn(|| words.iter().map(|w| Symbol::intern(w)).collect()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        for theirs in others {
            assert_eq!(theirs, home);
        }
        // Second resolution on this thread is a cache hit — still equal.
        let again: Vec<Symbol> = words.iter().map(|w| Symbol::intern(w)).collect();
        assert_eq!(again, home);
    }

    #[test]
    fn paths_agree_across_threads() {
        let tags: Vec<Symbol> = (0..16)
            .map(|i| Symbol::intern(&format!("xthread-tag-{i}")))
            .collect();
        let chain = |tags: &[Symbol]| {
            tags.iter()
                .fold(PathId::ROOT, |path, &segment| path.child(segment))
        };
        let home = chain(&tags);
        let others: Vec<PathId> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| scope.spawn(|| chain(&tags)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        for theirs in others {
            assert_eq!(theirs, home);
        }
        assert_eq!(chain(&tags), home, "warm-cache rebuild is stable");
        assert_eq!(home.depth(), 16);
    }

    #[test]
    fn probe_counter_moves_only_on_child() {
        let before = path_probe_count();
        let p = PathId::ROOT.child(Symbol::intern("counted"));
        let after_child = path_probe_count();
        assert!(after_child > before);
        let _ = p.render();
        let _ = p.depth();
        let _ = p.parent();
        assert_eq!(path_probe_count(), after_child, "reads do not probe");
    }
}
