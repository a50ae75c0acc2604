//! A fleet of pre-induced sources: seeded sites whose wrappers are
//! induced and persisted before the daemon starts, by the same
//! `Service` code (and default configuration) the daemon runs.
//!
//! A candidate source is kept only when every page of its pool
//! extracts on its own with the wrapper staying `fresh`: a page that
//! scored as drifted, or extracted nothing, would flip the source to
//! stale mid-run and make responses depend on request order, which
//! would break the serial reference. Dropped candidates are replaced by
//! the next seeded one, so the fleet is still a function of the seed.

use crate::inputs::{extract_line, generate, induce_line, Rng, Source};
use objectrunner_serve::{ServeConfig, Service};
use objectrunner_store::Json;
use objectrunner_webgen::SiteSpec;
use std::path::{Path, PathBuf};

/// Pages each wrapper is induced from (the first pages of its pool).
pub const INDUCE_PAGES: usize = 20;

pub struct Fleet {
    pub sources: Vec<Source>,
    pub store: PathBuf,
}

/// A daemon-equivalent service over a wrapper directory (and an
/// optional object store).
pub fn service(store: &Path, objects: Option<&Path>) -> Service {
    Service::new(ServeConfig {
        store_dir: store.to_path_buf(),
        object_store: objects.map(Path::to_path_buf),
        ..ServeConfig::default()
    })
}

/// Does a response report a fresh wrapper that extracted something?
fn fresh_hit(response: &str) -> bool {
    let Ok(j) = Json::parse(response) else {
        return false;
    };
    j.get("ok").and_then(Json::as_bool) == Some(true)
        && j.get("state").and_then(Json::as_str) == Some("fresh")
        && j.get("count").and_then(Json::as_usize).unwrap_or(0) > 0
}

/// Induce `count` sources named `<prefix>-NNN` into `store`.
/// `spec_of(k, name, rng)` draws the spec of a candidate for the `k`-th
/// kept source.
pub fn induce(
    seed: u64,
    prefix: &str,
    count: usize,
    store: &Path,
    mut spec_of: impl FnMut(usize, &str, &mut Rng) -> SiteSpec,
) -> Result<Fleet, String> {
    std::fs::create_dir_all(store).map_err(|e| format!("{}: {e}", store.display()))?;
    let mut rng = Rng::fork(seed, prefix);
    let service = service(store, None);
    let mut sources = Vec::with_capacity(count);
    let mut candidate = 0;
    while sources.len() < count {
        if candidate >= count * 4 {
            return Err(format!(
                "only {} of {count} {prefix} sources induce cleanly",
                sources.len()
            ));
        }
        let name = format!("{prefix}-{candidate:03}");
        candidate += 1;
        let spec = spec_of(sources.len(), &name, &mut rng);
        let source = generate(&name, spec, 0.0);
        let induced = service.handle_line(&induce_line(
            &name,
            source.domain,
            &source.pages[..INDUCE_PAGES.min(source.pages.len())],
        ));
        let clean = crate::check::ok(&induced)
            && source
                .pages
                .iter()
                .all(|p| fresh_hit(&service.handle_line(&extract_line(&name, [p]))));
        if clean {
            sources.push(source);
        } else {
            let _ = std::fs::remove_file(store.join(format!("{name}.orw")));
        }
    }
    Ok(Fleet {
        sources,
        store: store.to_path_buf(),
    })
}
