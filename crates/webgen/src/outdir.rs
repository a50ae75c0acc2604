//! Disk-streaming corpus layout: one file per page plus a manifest.
//!
//! [`write_corpus`] drives the [`crate::site::site_pages`] generator
//! page by page, so a million-page corpus is written with one page in
//! memory at a time — the generator and the writer are both streams.
//! The layout is deliberately trivial:
//!
//! ```text
//! out-dir/
//!   manifest.json      (site, domain, seed, drift, page/object counts)
//!   page-000000.html
//!   page-000001.html
//!   …
//! ```
//!
//! [`CorpusDir`] reads the layout back one page at a time, each page
//! read into an owned `String` only when the consumer asks for it, so
//! the streaming extraction path never holds more pages in memory than
//! its working window. Generation is deterministic: the same spec (same
//! seed) always produces byte-identical files, which is what lets
//! benchmark corpora be regenerated instead of shipped.

use crate::site::{site_pages, Drift, PageKind, SiteSpec};
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// File name of page `i` (fixed-width so lexicographic order is page
/// order up to a million pages).
pub fn page_file_name(i: usize) -> String {
    format!("page-{i:06}.html")
}

/// What one [`write_corpus`] run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusWriteStats {
    pub pages: usize,
    /// Golden objects across all pages.
    pub objects: usize,
    /// HTML bytes written (manifest excluded).
    pub bytes: u64,
}

/// Stream a site's pages to `dir` (created if missing), then write
/// `manifest.json`. Peak memory is one page regardless of corpus size.
pub fn write_corpus(spec: &SiteSpec, drift: &Drift, dir: &Path) -> io::Result<CorpusWriteStats> {
    fs::create_dir_all(dir)?;
    let mut stats = CorpusWriteStats {
        pages: 0,
        objects: 0,
        bytes: 0,
    };
    for (i, (page, truth)) in site_pages(spec, drift).enumerate() {
        let path = dir.join(page_file_name(i));
        let mut file = BufWriter::new(File::create(&path)?);
        file.write_all(page.as_bytes())?;
        file.flush()?;
        stats.pages += 1;
        stats.objects += truth.len();
        stats.bytes += page.len() as u64;
    }
    let manifest = manifest_json(spec, drift, &stats);
    fs::write(dir.join("manifest.json"), manifest)?;
    Ok(stats)
}

/// The manifest body (stable key order; one line, trailing newline).
fn manifest_json(spec: &SiteSpec, drift: &Drift, stats: &CorpusWriteStats) -> String {
    let kind = match spec.kind {
        PageKind::List => "list",
        PageKind::Detail => "detail",
    };
    format!(
        "{{\"site\":\"{}\",\"domain\":\"{}\",\"kind\":\"{kind}\",\"style\":{},\
         \"seed\":{},\"drift\":{},\"pages\":{},\"objects\":{},\"html_bytes\":{}}}\n",
        json_escape(&spec.name),
        spec.domain.name(),
        spec.style,
        spec.seed,
        drift.strength,
        stats.pages,
        stats.objects,
        stats.bytes,
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The page type the benchmark harness imports. It is the page's
/// owned text, as [`CorpusDir::page`] returns it.
pub type MappedText = String;

/// Read one page file. Every error, invalid UTF-8 included, names the
/// file.
fn read_page(path: &Path) -> io::Result<String> {
    fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// A corpus directory opened for reading: the sorted page files.
pub struct CorpusDir {
    files: Vec<PathBuf>,
}

impl CorpusDir {
    /// List the page files of `dir` (any `*.html`, sorted by name, so
    /// both this writer's layout and `seed-corpus` output work).
    pub fn open(dir: &Path) -> io::Result<CorpusDir> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "html"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}: no .html pages", dir.display()),
            ));
        }
        Ok(CorpusDir { files })
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the corpus has no pages (never true after `open`).
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Read page `i`.
    pub fn page(&self, i: usize) -> io::Result<String> {
        read_page(&self.files[i])
    }

    /// Stable page id for page `i`: the file stem (consumers record it
    /// as extraction provenance).
    pub fn file_stem(&self, i: usize) -> String {
        self.files[i]
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| self.files[i].display().to_string())
    }

    /// Stream all pages in order, reading each lazily. I/O errors
    /// surface per page; a page is read only when the caller pulls it,
    /// so memory stays bounded by the consumer's window.
    pub fn pages(&self) -> impl Iterator<Item = io::Result<String>> + Send + '_ {
        self.files.iter().map(|p| read_page(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::site::generate_site_with;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("objectrunner-outdir-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec(pages: usize) -> SiteSpec {
        SiteSpec::clean("corpus & co", Domain::Books, PageKind::List, pages, 99)
    }

    #[test]
    fn written_corpus_matches_in_memory_generation() {
        let dir = tmp_dir("match");
        let s = spec(7);
        let stats = write_corpus(&s, &Drift::NONE, &dir).expect("write");
        let source = generate_site_with(&s, &Drift::NONE);
        assert_eq!(stats.pages, 7);
        assert_eq!(stats.objects, source.object_count());
        for (i, page) in source.pages.iter().enumerate() {
            let on_disk = fs::read_to_string(dir.join(page_file_name(i))).expect("page file");
            assert_eq!(&on_disk, page, "page {i} diverged");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seed_writes_byte_identical_files() {
        let dir_a = tmp_dir("det-a");
        let dir_b = tmp_dir("det-b");
        let s = spec(6);
        let drift = Drift::new(0.5);
        let a = write_corpus(&s, &drift, &dir_a).expect("write a");
        let b = write_corpus(&s, &drift, &dir_b).expect("write b");
        assert_eq!(a, b);
        for i in 0..6 {
            let pa = fs::read(dir_a.join(page_file_name(i))).expect("a");
            let pb = fs::read(dir_b.join(page_file_name(i))).expect("b");
            assert_eq!(pa, pb, "page {i} not byte-identical");
        }
        assert_eq!(
            fs::read(dir_a.join("manifest.json")).expect("a"),
            fs::read(dir_b.join("manifest.json")).expect("b"),
        );
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn manifest_records_the_run() {
        let dir = tmp_dir("manifest");
        let s = spec(3);
        let stats = write_corpus(&s, &Drift::new(0.25), &dir).expect("write");
        let manifest = fs::read_to_string(dir.join("manifest.json")).expect("manifest");
        assert!(manifest.contains("\"site\":\"corpus & co\""));
        assert!(manifest.contains("\"domain\":\"Books\""));
        assert!(manifest.contains("\"drift\":0.25"));
        assert!(manifest.contains(&format!("\"pages\":{}", stats.pages)));
        assert!(manifest.contains(&format!("\"objects\":{}", stats.objects)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_dir_reads_pages_back_in_order() {
        let dir = tmp_dir("read");
        let s = spec(5);
        write_corpus(&s, &Drift::NONE, &dir).expect("write");
        let source = generate_site_with(&s, &Drift::NONE);
        let corpus = CorpusDir::open(&dir).expect("open");
        assert_eq!(corpus.len(), 5);
        for (i, page) in corpus.pages().enumerate() {
            let page = page.expect("read page");
            assert_eq!(page, source.pages[i], "page {i}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn page_read_survives_truncation_of_its_file() {
        let dir = tmp_dir("truncate");
        write_corpus(&spec(1), &Drift::NONE, &dir).expect("write");
        let path = dir.join(page_file_name(0));
        let written = fs::read_to_string(&path).expect("page file");
        let corpus = CorpusDir::open(&dir).expect("open");
        let page = corpus.page(0).expect("read page");
        File::create(&path).expect("truncate");
        assert_eq!(page, written, "a read page must not see later writes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_utf8_page_error_names_the_file() {
        let dir = tmp_dir("utf8");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("bad.html"), [0xff, 0xfe, 0x41]).expect("write");
        let corpus = CorpusDir::open(&dir).expect("open");
        let err = corpus.page(0).expect_err("not UTF-8");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad.html"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_dir_is_an_error() {
        let dir = tmp_dir("none");
        assert!(CorpusDir::open(&dir).is_err(), "missing dir");
        fs::create_dir_all(&dir).expect("mkdir");
        assert!(CorpusDir::open(&dir).is_err(), "no pages");
        let _ = fs::remove_dir_all(&dir);
    }
}
