//! The versioned on-disk wrapper format (`.orw`).
//!
//! A learned wrapper is process-bound: its separator matchers hold
//! [`Symbol`] and [`PathId`] handles that only mean something inside
//! the interner tables of the process that induced it. Persisting a
//! wrapper therefore **externalizes** every interned identity — tokens
//! as `kind/string` pairs, paths as segment-string lists (deduplicated
//! in a table, referenced by index) — and loading re-interns them,
//! rebuilding equivalent handles in the loading process.
//!
//! File layout:
//!
//! ```text
//! ORWRAP v2 <payload-bytes> <fnv64-hex>\n      ← checksummed header
//! {"format_version":2, ...}                    ← JSON payload
//! ```
//!
//! The header carries the format version and an FNV-1a/64 checksum of
//! the payload, so truncation and bit rot fail loudly before any field
//! is trusted. The payload's key order, float form and annotation sort
//! are all fixed, which gives the save fixed point the round-trip test
//! relies on: `save(load(save(w))) == save(w)` byte for byte.
//!
//! Deliberately *not* serialized:
//!
//! * the template's per-node `permutation` (role ids) — roles are
//!   sample-side identities that die with the inducing process, and
//!   extraction, drift scoring and SOD re-validation only read the
//!   matchers, multiplicities, gaps and mapping;
//! * timestamps of any kind — equal wrappers must produce equal bytes.
//!
//! Version history: v1 had no per-node stable ids and no repair
//! provenance. v1 files still **load** (stable ids are synthesized as
//! the node index, provenance as `None`) but are always re-saved as
//! v2 — `save` emits only the current version.

use crate::json::Json;
use objectrunner_core::matching::{GapRef, SetMapping, SodMapping, TupleMapping};
use objectrunner_core::template::{GapInfo, Matcher, NodeMultiplicity, TemplateNode, TemplateTree};
use objectrunner_core::wrapper::Wrapper;
use objectrunner_html::{CleanOptions, FxHashMap, NodeSignature, PageToken, PathId, Symbol};
use objectrunner_segment::MainBlockChoice;
use objectrunner_sod::{Multiplicity, Sod, SodNode};
use std::path::Path;

/// Current format version; bumped on any incompatible payload change.
pub const FORMAT_VERSION: u32 = 2;

/// Oldest version `load` still understands.
pub const MIN_SUPPORTED_VERSION: u32 = 1;

/// Header magic.
const MAGIC: &str = "ORWRAP";

/// Everything needed to serve a source without re-induction: the
/// wrapper, the SOD it was matched against, the cleaning options and
/// main-block choice that reproduce its page preparation, and the
/// store-side lifecycle metadata.
#[derive(Debug, Clone)]
pub struct StoredWrapper {
    /// Source identifier (the serving key).
    pub source: String,
    /// Domain name (resolved to recognizers at re-induction time).
    pub domain: String,
    /// Wrapper revision, starting at 1; bumped on every re-induction.
    pub revision: u64,
    pub sod: Sod,
    pub wrapper: Wrapper,
    /// The segment stage's vote at induction time (None when the
    /// source yielded no candidate block).
    pub main_block: Option<MainBlockChoice>,
    /// Cleaning options the wrapper's pages were prepared with.
    pub clean: CleanOptions,
    /// How this revision was produced: `None` for fresh induction,
    /// `Some` when it was patched out of a previous revision by
    /// tree-diff repair.
    pub repair: Option<RepairProvenance>,
}

/// Provenance recorded when a wrapper revision was produced by
/// tree-diff repair (`core::wrapper::repair_wrapper`) rather than
/// fresh induction: which revision was patched and a summary of the
/// template-tree node mapping the patch went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairProvenance {
    /// Revision the patch was computed against.
    pub repaired_from: u64,
    /// Old-template nodes matched isomorphically (top-down pass).
    pub matched_exact: usize,
    /// Old-template nodes matched by dice similarity (bottom-up pass).
    pub matched_container: usize,
    /// Old-template nodes with no counterpart in the new template.
    pub unmatched_old: usize,
    /// New-template nodes with no counterpart in the old template.
    pub unmatched_new: usize,
}

/// Load/save failures.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// Not an `ORWRAP` file, or the header line is malformed.
    BadHeader,
    /// The file's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// Payload length or checksum mismatch (truncation / corruption).
    Corrupt {
        expected: String,
        found: String,
    },
    /// The payload is not valid JSON.
    Json(crate::json::JsonError),
    /// The payload parsed but a field is missing or mistyped.
    Malformed(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::BadHeader => write!(f, "not an ORWRAP file (bad header)"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            StoreError::Corrupt { expected, found } => {
                write!(f, "corrupt payload: expected {expected}, found {found}")
            }
            StoreError::Json(e) => write!(f, "payload: {e}"),
            StoreError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// FNV-1a, 64-bit. Small, dependency-free, and plenty for detecting
/// truncation and accidental corruption (not an integrity MAC).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Streaming form of [`fnv64`], for checksums over data that is not
/// in memory as one contiguous slice (the object store's manifest
/// checksums each segment's committed prefix incrementally as records
/// append). Feeding the same bytes in any chunking yields the same
/// value as `fnv64` over the concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Resume from a previously [`finish`](Fnv64::finish)ed state.
    pub fn resume(state: u64) -> Fnv64 {
        Fnv64(state)
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value (the hasher may keep absorbing).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

// ------------------------------------------------------------- saving

/// Serialize to the on-disk format (header + payload).
pub fn save(stored: &StoredWrapper) -> String {
    crate::frame::encode(MAGIC, FORMAT_VERSION, &payload_json(stored).render())
}

/// Serialize and replace `path` durably ([`crate::replace_file`]): a
/// crash or a concurrent reader sees the old revision or the new one,
/// never a torn file.
pub fn save_file(path: &Path, stored: &StoredWrapper) -> Result<(), StoreError> {
    crate::replace_file(path, save(stored).as_bytes())?;
    Ok(())
}

/// Interned-path externalization table: paths referenced by payload
/// index, stored as segment-string lists in first-use order.
struct PathTable {
    index: FxHashMap<PathId, usize>,
    rows: Vec<PathId>,
}

impl PathTable {
    fn new() -> PathTable {
        PathTable {
            index: FxHashMap::default(),
            rows: Vec::new(),
        }
    }

    fn intern(&mut self, path: PathId) -> usize {
        if let Some(&i) = self.index.get(&path) {
            return i;
        }
        let i = self.rows.len();
        self.rows.push(path);
        self.index.insert(path, i);
        i
    }

    fn rows_json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|p| Json::Arr(p.segments().iter().map(|s| Json::str(s.as_str())).collect()))
                .collect(),
        )
    }
}

fn payload_json(stored: &StoredWrapper) -> Json {
    let mut paths = PathTable::new();
    // Template first so path-table order tracks node order.
    let template = template_json(&stored.wrapper.template, &mut paths);
    let mapping = sod_mapping_json(&stored.wrapper.mapping);
    let main_block = match &stored.main_block {
        Some(c) => main_block_json(c, &mut paths),
        None => Json::Null,
    };
    let wrapper = Json::Obj(vec![
        ("object_name".into(), Json::str(&stored.wrapper.object_name)),
        ("quality".into(), Json::Float(stored.wrapper.quality)),
        (
            "conflict_splits".into(),
            Json::int(stored.wrapper.conflict_splits),
        ),
        ("rounds".into(), Json::int(stored.wrapper.rounds)),
        ("support".into(), Json::int(stored.wrapper.support)),
        ("template".into(), template),
        ("mapping".into(), mapping),
    ]);
    Json::Obj(vec![
        ("format_version".into(), Json::int(FORMAT_VERSION)),
        ("source".into(), Json::str(&stored.source)),
        ("domain".into(), Json::str(&stored.domain)),
        ("revision".into(), Json::int(stored.revision as i64)),
        ("repair".into(), repair_json(&stored.repair)),
        ("sod".into(), sod_node_json(stored.sod.root())),
        ("clean".into(), clean_json(&stored.clean)),
        ("main_block".into(), main_block),
        ("paths".into(), paths.rows_json()),
        ("wrapper".into(), wrapper),
    ])
}

fn repair_json(repair: &Option<RepairProvenance>) -> Json {
    match repair {
        None => Json::Null,
        Some(r) => Json::Obj(vec![
            ("repaired_from".into(), Json::int(r.repaired_from as i64)),
            ("matched_exact".into(), Json::int(r.matched_exact)),
            ("matched_container".into(), Json::int(r.matched_container)),
            ("unmatched_old".into(), Json::int(r.unmatched_old)),
            ("unmatched_new".into(), Json::int(r.unmatched_new)),
        ]),
    }
}

fn token_json(token: PageToken) -> Json {
    Json::str(match token {
        PageToken::Open(s) => format!("o/{}", s.as_str()),
        PageToken::Close(s) => format!("c/{}", s.as_str()),
        PageToken::Word(s) => format!("w/{}", s.as_str()),
    })
}

fn multiplicity_str(m: Multiplicity) -> String {
    m.to_string() // "1" | "?" | "*" | "+" | "n-m"
}

fn sod_node_json(node: &SodNode) -> Json {
    match node {
        SodNode::Entity {
            type_name,
            multiplicity,
        } => Json::Obj(vec![
            ("t".into(), Json::str("entity")),
            ("name".into(), Json::str(type_name)),
            ("mult".into(), Json::str(multiplicity_str(*multiplicity))),
        ]),
        SodNode::Tuple { name, children } => Json::Obj(vec![
            ("t".into(), Json::str("tuple")),
            ("name".into(), Json::str(name)),
            (
                "children".into(),
                Json::Arr(children.iter().map(sod_node_json).collect()),
            ),
        ]),
        SodNode::Set {
            child,
            multiplicity,
        } => Json::Obj(vec![
            ("t".into(), Json::str("set")),
            ("mult".into(), Json::str(multiplicity_str(*multiplicity))),
            ("child".into(), sod_node_json(child)),
        ]),
        SodNode::Disjunction(a, b) => Json::Obj(vec![
            ("t".into(), Json::str("or")),
            ("a".into(), sod_node_json(a)),
            ("b".into(), sod_node_json(b)),
        ]),
    }
}

fn clean_json(c: &CleanOptions) -> Json {
    Json::Obj(vec![
        (
            "drop_elements".into(),
            Json::Arr(c.drop_elements.iter().map(Json::str).collect()),
        ),
        ("drop_comments".into(), Json::Bool(c.drop_comments)),
        ("drop_hidden".into(), Json::Bool(c.drop_hidden)),
        (
            "keep_attrs".into(),
            Json::Arr(c.keep_attrs.iter().map(Json::str).collect()),
        ),
        (
            "normalize_whitespace".into(),
            Json::Bool(c.normalize_whitespace),
        ),
        (
            "drop_empty_elements".into(),
            Json::Bool(c.drop_empty_elements),
        ),
    ])
}

fn main_block_json(choice: &MainBlockChoice, paths: &mut PathTable) -> Json {
    let sig = &choice.signature;
    Json::Obj(vec![
        ("tag".into(), Json::str(sig.tag.as_str())),
        ("path".into(), Json::int(paths.intern(sig.path))),
        (
            // Attribute order is identity-relevant (NodeSignature
            // compares the Vec), so it is preserved, not sorted.
            "attrs".into(),
            Json::Arr(
                sig.attrs
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::str(k.as_str()), Json::str(v.as_str())]))
                    .collect(),
            ),
        ),
        ("support".into(), Json::int(choice.support)),
        ("score".into(), Json::Float(choice.score)),
    ])
}

fn template_json(tree: &TemplateTree, paths: &mut PathTable) -> Json {
    Json::Obj(vec![(
        "nodes".into(),
        Json::Arr(
            tree.nodes
                .iter()
                .map(|n| template_node_json(n, paths))
                .collect(),
        ),
    )])
}

fn template_node_json(node: &TemplateNode, paths: &mut PathTable) -> Json {
    let mult = match node.multiplicity {
        NodeMultiplicity::One => "one",
        NodeMultiplicity::Optional => "opt",
        NodeMultiplicity::Repeating => "rep",
    };
    let matchers = Json::Arr(
        node.matchers
            .iter()
            .map(|m| Json::Arr(vec![token_json(m.token), Json::int(paths.intern(m.path))]))
            .collect(),
    );
    let gaps = Json::Arr(node.gaps.iter().map(gap_json).collect());
    Json::Obj(vec![
        (
            "class".into(),
            node.class.map(Json::int).unwrap_or(Json::Null),
        ),
        ("sid".into(), Json::int(node.stable_id as i64)),
        ("mult".into(), Json::str(mult)),
        ("matchers".into(), matchers),
        ("gaps".into(), gaps),
        (
            "children".into(),
            Json::Arr(node.children.iter().map(|&c| Json::int(c)).collect()),
        ),
        (
            "parent".into(),
            node.parent.map(Json::int).unwrap_or(Json::Null),
        ),
    ])
}

fn gap_json(gap: &GapInfo) -> Json {
    // FxHashMap iteration order is process-dependent; sort by type name
    // so equal gaps serialize to equal bytes.
    let mut annotations: Vec<(&str, usize)> = gap
        .annotations
        .iter()
        .map(|(s, &n)| (s.as_str(), n))
        .collect();
    annotations.sort_unstable();
    Json::Obj(vec![
        (
            "annotations".into(),
            Json::Arr(
                annotations
                    .into_iter()
                    .map(|(t, n)| Json::Arr(vec![Json::str(t), Json::int(n)]))
                    .collect(),
            ),
        ),
        ("data_instances".into(), Json::int(gap.data_instances)),
        ("total_instances".into(), Json::int(gap.total_instances)),
        (
            "children".into(),
            Json::Arr(gap.children.iter().map(|&c| Json::int(c)).collect()),
        ),
        (
            "samples".into(),
            Json::Arr(gap.samples.iter().map(Json::str).collect()),
        ),
    ])
}

fn gap_ref_json(g: &GapRef) -> Json {
    Json::Arr(vec![Json::int(g.node), Json::int(g.gap)])
}

fn tuple_mapping_json(m: &TupleMapping) -> Json {
    Json::Obj(vec![
        ("anchor".into(), Json::int(m.anchor)),
        (
            "atomics".into(),
            Json::Arr(
                m.atomics
                    .iter()
                    .map(|(t, g)| Json::Arr(vec![Json::str(t), gap_ref_json(g)]))
                    .collect(),
            ),
        ),
        (
            "sets".into(),
            Json::Arr(
                m.sets
                    .iter()
                    .map(|s| match s {
                        SetMapping::Repeated { set_node, element } => Json::Obj(vec![
                            ("kind".into(), Json::str("repeated")),
                            ("set_node".into(), Json::int(*set_node)),
                            ("element".into(), tuple_mapping_json(element)),
                        ]),
                        SetMapping::Collapsed { type_name, gap } => Json::Obj(vec![
                            ("kind".into(), Json::str("collapsed")),
                            ("type".into(), Json::str(type_name)),
                            ("gap".into(), gap_ref_json(gap)),
                        ]),
                    })
                    .collect(),
            ),
        ),
        (
            "missing_optional".into(),
            Json::Arr(m.missing_optional.iter().map(Json::str).collect()),
        ),
    ])
}

fn sod_mapping_json(m: &SodMapping) -> Json {
    Json::Obj(vec![
        ("record".into(), tuple_mapping_json(&m.record)),
        ("record_repeats".into(), Json::Bool(m.record_repeats)),
    ])
}

// ------------------------------------------------------------ loading

/// Parse the on-disk format, verifying header, length and checksum,
/// and re-interning every externalized identity.
pub fn load(data: &str) -> Result<StoredWrapper, StoreError> {
    let (_, payload) = crate::frame::decode(data, MAGIC, MIN_SUPPORTED_VERSION, FORMAT_VERSION)
        .map_err(|e| match e {
            crate::frame::FrameError::BadHeader => StoreError::BadHeader,
            crate::frame::FrameError::UnsupportedVersion(v) => StoreError::UnsupportedVersion(v),
            crate::frame::FrameError::Corrupt { expected, found } => {
                StoreError::Corrupt { expected, found }
            }
        })?;
    let json = Json::parse(payload).map_err(StoreError::Json)?;
    payload_from_json(&json)
}

/// Read and parse `path`.
pub fn load_file(path: &Path) -> Result<StoredWrapper, StoreError> {
    let data = std::fs::read_to_string(path)?;
    load(&data)
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, StoreError> {
    json.get(key)
        .ok_or_else(|| StoreError::Malformed(format!("missing field '{key}'")))
}

fn str_field(json: &Json, key: &str) -> Result<String, StoreError> {
    field(json, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| StoreError::Malformed(format!("field '{key}' is not a string")))
}

fn usize_field(json: &Json, key: &str) -> Result<usize, StoreError> {
    field(json, key)?
        .as_usize()
        .ok_or_else(|| StoreError::Malformed(format!("field '{key}' is not an unsigned integer")))
}

fn arr_field<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], StoreError> {
    field(json, key)?
        .as_arr()
        .ok_or_else(|| StoreError::Malformed(format!("field '{key}' is not an array")))
}

fn bool_field(json: &Json, key: &str) -> Result<bool, StoreError> {
    field(json, key)?
        .as_bool()
        .ok_or_else(|| StoreError::Malformed(format!("field '{key}' is not a bool")))
}

fn payload_from_json(json: &Json) -> Result<StoredWrapper, StoreError> {
    let payload_version = usize_field(json, "format_version")? as u32;
    if !(MIN_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&payload_version) {
        return Err(StoreError::UnsupportedVersion(payload_version));
    }

    // Re-intern the path table.
    let mut paths: Vec<PathId> = Vec::new();
    for row in arr_field(json, "paths")? {
        let segments = row
            .as_arr()
            .ok_or_else(|| StoreError::Malformed("path row is not an array".into()))?;
        let strings: Vec<&str> = segments
            .iter()
            .map(|s| {
                s.as_str()
                    .ok_or_else(|| StoreError::Malformed("path segment is not a string".into()))
            })
            .collect::<Result<_, _>>()?;
        paths.push(PathId::from_segments(strings));
    }

    let wrapper_json = field(json, "wrapper")?;
    let template = template_from_json(field(wrapper_json, "template")?, &paths, payload_version)?;
    let mapping = sod_mapping_from_json(field(wrapper_json, "mapping")?)?;
    let wrapper = Wrapper {
        template,
        mapping,
        object_name: str_field(wrapper_json, "object_name")?,
        quality: field(wrapper_json, "quality")?
            .as_f64()
            .ok_or_else(|| StoreError::Malformed("quality is not a number".into()))?,
        conflict_splits: usize_field(wrapper_json, "conflict_splits")?,
        rounds: usize_field(wrapper_json, "rounds")?,
        support: usize_field(wrapper_json, "support")?,
    };

    let main_block = match field(json, "main_block")? {
        Json::Null => None,
        mb => Some(main_block_from_json(mb, &paths)?),
    };

    // `repair` was introduced in v2; absent in v1 payloads.
    let repair = match json.get("repair") {
        None | Some(Json::Null) => None,
        Some(r) => Some(repair_from_json(r)?),
    };

    Ok(StoredWrapper {
        source: str_field(json, "source")?,
        domain: str_field(json, "domain")?,
        revision: usize_field(json, "revision")? as u64,
        sod: Sod::new(sod_node_from_json(field(json, "sod")?)?),
        wrapper,
        main_block,
        clean: clean_from_json(field(json, "clean")?)?,
        repair,
    })
}

fn repair_from_json(json: &Json) -> Result<RepairProvenance, StoreError> {
    Ok(RepairProvenance {
        repaired_from: usize_field(json, "repaired_from")? as u64,
        matched_exact: usize_field(json, "matched_exact")?,
        matched_container: usize_field(json, "matched_container")?,
        unmatched_old: usize_field(json, "unmatched_old")?,
        unmatched_new: usize_field(json, "unmatched_new")?,
    })
}

fn token_from_str(s: &str) -> Result<PageToken, StoreError> {
    let (kind, body) = s
        .split_once('/')
        .ok_or_else(|| StoreError::Malformed(format!("bad token '{s}'")))?;
    let sym = Symbol::intern(body);
    match kind {
        "o" => Ok(PageToken::Open(sym)),
        "c" => Ok(PageToken::Close(sym)),
        "w" => Ok(PageToken::Word(sym)),
        _ => Err(StoreError::Malformed(format!("bad token kind '{kind}'"))),
    }
}

fn multiplicity_from_str(s: &str) -> Result<Multiplicity, StoreError> {
    match s {
        "1" => Ok(Multiplicity::One),
        "?" => Ok(Multiplicity::Optional),
        "*" => Ok(Multiplicity::Star),
        "+" => Ok(Multiplicity::Plus),
        range => {
            let (n, m) = range
                .split_once('-')
                .ok_or_else(|| StoreError::Malformed(format!("bad multiplicity '{s}'")))?;
            let n = n
                .parse()
                .map_err(|_| StoreError::Malformed(format!("bad multiplicity '{s}'")))?;
            let m = m
                .parse()
                .map_err(|_| StoreError::Malformed(format!("bad multiplicity '{s}'")))?;
            Ok(Multiplicity::Range(n, m))
        }
    }
}

fn sod_node_from_json(json: &Json) -> Result<SodNode, StoreError> {
    match str_field(json, "t")?.as_str() {
        "entity" => Ok(SodNode::Entity {
            type_name: str_field(json, "name")?,
            multiplicity: multiplicity_from_str(&str_field(json, "mult")?)?,
        }),
        "tuple" => Ok(SodNode::Tuple {
            name: str_field(json, "name")?,
            children: arr_field(json, "children")?
                .iter()
                .map(sod_node_from_json)
                .collect::<Result<_, _>>()?,
        }),
        "set" => Ok(SodNode::Set {
            multiplicity: multiplicity_from_str(&str_field(json, "mult")?)?,
            child: Box::new(sod_node_from_json(field(json, "child")?)?),
        }),
        "or" => Ok(SodNode::Disjunction(
            Box::new(sod_node_from_json(field(json, "a")?)?),
            Box::new(sod_node_from_json(field(json, "b")?)?),
        )),
        other => Err(StoreError::Malformed(format!("bad sod node '{other}'"))),
    }
}

fn string_list(json: &Json, key: &str) -> Result<Vec<String>, StoreError> {
    arr_field(json, key)?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| StoreError::Malformed(format!("'{key}' holds a non-string")))
        })
        .collect()
}

fn clean_from_json(json: &Json) -> Result<CleanOptions, StoreError> {
    Ok(CleanOptions {
        drop_elements: string_list(json, "drop_elements")?,
        drop_comments: bool_field(json, "drop_comments")?,
        drop_hidden: bool_field(json, "drop_hidden")?,
        keep_attrs: string_list(json, "keep_attrs")?,
        normalize_whitespace: bool_field(json, "normalize_whitespace")?,
        drop_empty_elements: bool_field(json, "drop_empty_elements")?,
    })
}

fn path_at(paths: &[PathId], idx: usize) -> Result<PathId, StoreError> {
    paths
        .get(idx)
        .copied()
        .ok_or_else(|| StoreError::Malformed(format!("path index {idx} out of range")))
}

fn main_block_from_json(json: &Json, paths: &[PathId]) -> Result<MainBlockChoice, StoreError> {
    let attrs = arr_field(json, "attrs")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| StoreError::Malformed("bad signature attr".into()))?;
            let k = pair[0]
                .as_str()
                .ok_or_else(|| StoreError::Malformed("bad signature attr".into()))?;
            let v = pair[1]
                .as_str()
                .ok_or_else(|| StoreError::Malformed("bad signature attr".into()))?;
            Ok((Symbol::intern(k), Symbol::intern(v)))
        })
        .collect::<Result<Vec<_>, StoreError>>()?;
    Ok(MainBlockChoice {
        signature: NodeSignature {
            tag: Symbol::intern(&str_field(json, "tag")?),
            path: path_at(paths, usize_field(json, "path")?)?,
            attrs,
        },
        support: usize_field(json, "support")?,
        score: field(json, "score")?
            .as_f64()
            .ok_or_else(|| StoreError::Malformed("score is not a number".into()))?,
    })
}

fn template_from_json(
    json: &Json,
    paths: &[PathId],
    version: u32,
) -> Result<TemplateTree, StoreError> {
    let nodes = arr_field(json, "nodes")?
        .iter()
        .enumerate()
        .map(|(idx, n)| template_node_from_json(n, paths, version, idx))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TemplateTree { nodes })
}

fn usize_list(json: &Json, key: &str) -> Result<Vec<usize>, StoreError> {
    arr_field(json, key)?
        .iter()
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| StoreError::Malformed(format!("'{key}' holds a non-integer")))
        })
        .collect()
}

fn template_node_from_json(
    json: &Json,
    paths: &[PathId],
    version: u32,
    idx: usize,
) -> Result<TemplateNode, StoreError> {
    let multiplicity = match str_field(json, "mult")?.as_str() {
        "one" => NodeMultiplicity::One,
        "opt" => NodeMultiplicity::Optional,
        "rep" => NodeMultiplicity::Repeating,
        other => return Err(StoreError::Malformed(format!("bad multiplicity '{other}'"))),
    };
    let matchers = arr_field(json, "matchers")?
        .iter()
        .map(|m| {
            let pair = m
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| StoreError::Malformed("bad matcher".into()))?;
            let token = token_from_str(
                pair[0]
                    .as_str()
                    .ok_or_else(|| StoreError::Malformed("bad matcher token".into()))?,
            )?;
            let path = path_at(
                paths,
                pair[1]
                    .as_usize()
                    .ok_or_else(|| StoreError::Malformed("bad matcher path".into()))?,
            )?;
            Ok(Matcher { token, path })
        })
        .collect::<Result<Vec<_>, StoreError>>()?;
    let gaps = arr_field(json, "gaps")?
        .iter()
        .map(gap_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let class =
        match field(json, "class")? {
            Json::Null => None,
            v => Some(v.as_usize().ok_or_else(|| {
                StoreError::Malformed("class is neither null nor an integer".into())
            })?),
        };
    let parent = match field(json, "parent")? {
        Json::Null => None,
        v => Some(v.as_usize().ok_or_else(|| {
            StoreError::Malformed("parent is neither null nor an integer".into())
        })?),
    };
    // v1 predates stable ids; fresh inductions assigned id = index, so
    // synthesizing the index is exactly what the inducing process had.
    let stable_id = if version >= 2 {
        usize_field(json, "sid")? as u64
    } else {
        idx as u64
    };
    Ok(TemplateNode {
        class,
        stable_id,
        multiplicity,
        matchers,
        // Roles are process-local sample identities; extraction, drift
        // scoring and mapping replay never read them.
        permutation: Vec::new(),
        gaps,
        children: usize_list(json, "children")?,
        parent,
    })
}

fn gap_from_json(json: &Json) -> Result<GapInfo, StoreError> {
    let mut annotations: FxHashMap<Symbol, usize> = FxHashMap::default();
    for pair in arr_field(json, "annotations")? {
        let pair = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| StoreError::Malformed("bad annotation".into()))?;
        let t = pair[0]
            .as_str()
            .ok_or_else(|| StoreError::Malformed("bad annotation type".into()))?;
        let n = pair[1]
            .as_usize()
            .ok_or_else(|| StoreError::Malformed("bad annotation count".into()))?;
        annotations.insert(Symbol::intern(t), n);
    }
    Ok(GapInfo {
        annotations,
        data_instances: usize_field(json, "data_instances")?,
        total_instances: usize_field(json, "total_instances")?,
        children: usize_list(json, "children")?,
        samples: string_list(json, "samples")?,
    })
}

fn gap_ref_from_json(json: &Json) -> Result<GapRef, StoreError> {
    let pair = json
        .as_arr()
        .filter(|p| p.len() == 2)
        .ok_or_else(|| StoreError::Malformed("bad gap ref".into()))?;
    Ok(GapRef {
        node: pair[0]
            .as_usize()
            .ok_or_else(|| StoreError::Malformed("bad gap ref".into()))?,
        gap: pair[1]
            .as_usize()
            .ok_or_else(|| StoreError::Malformed("bad gap ref".into()))?,
    })
}

fn tuple_mapping_from_json(json: &Json) -> Result<TupleMapping, StoreError> {
    let atomics = arr_field(json, "atomics")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| StoreError::Malformed("bad atomic".into()))?;
            let t = pair[0]
                .as_str()
                .ok_or_else(|| StoreError::Malformed("bad atomic type".into()))?;
            Ok((t.to_owned(), gap_ref_from_json(&pair[1])?))
        })
        .collect::<Result<Vec<_>, StoreError>>()?;
    let sets = arr_field(json, "sets")?
        .iter()
        .map(|s| match str_field(s, "kind")?.as_str() {
            "repeated" => Ok(SetMapping::Repeated {
                set_node: usize_field(s, "set_node")?,
                element: tuple_mapping_from_json(field(s, "element")?)?,
            }),
            "collapsed" => Ok(SetMapping::Collapsed {
                type_name: str_field(s, "type")?,
                gap: gap_ref_from_json(field(s, "gap")?)?,
            }),
            other => Err(StoreError::Malformed(format!("bad set kind '{other}'"))),
        })
        .collect::<Result<Vec<_>, StoreError>>()?;
    Ok(TupleMapping {
        anchor: usize_field(json, "anchor")?,
        atomics,
        sets,
        missing_optional: string_list(json, "missing_optional")?,
    })
}

fn sod_mapping_from_json(json: &Json) -> Result<SodMapping, StoreError> {
    Ok(SodMapping {
        record: tuple_mapping_from_json(field(json, "record")?)?,
        record_repeats: bool_field(json, "record_repeats")?,
    })
}
