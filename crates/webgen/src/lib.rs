//! # objectrunner-webgen
//!
//! A deterministic synthetic structured-Web generator — the
//! substitution for the paper's 49 real sources (chosen by Mechanical
//! Turk workers) across five domains: concerts, albums, books,
//! publications and cars (§IV-A).
//!
//! Each generated **site** is a formatting template over a domain
//! database, exactly the generative model the paper assumes for
//! schematized pages. Per-site *quirks* reproduce the phenomena the
//! paper's evaluation hinges on:
//!
//! | Quirk | Paper phenomenon |
//! |-------|------------------|
//! | `Clean` | well-behaved template |
//! | `SharedTextNode` | two attributes in one text unit → partially-correct |
//! | `FixedRecordCount` | "too regular" lists that break RoadRunner |
//! | `VaryingAuthorMarkup` | the amazon.com `<a>`-vs-plain author case |
//! | `DecoyRepeatedValue` | "New York" as pseudo-template text |
//! | `NoiseBlocks` | navigation/ads/footers around the data region |
//! | `GroupedColumns` | column-major layout (invalid equivalence classes) |
//! | `Unstructured` | a non-template source that must be discarded |
//!
//! Every page comes with its **golden standard** objects, so the
//! evaluation never relies on hand labelling.

pub mod corpus;
pub mod data;
pub mod domain;
pub mod knowledge;
pub mod outdir;
pub mod site;

pub use corpus::{paper_corpus, CorpusSpec};
pub use domain::{Domain, GoldObject};
pub use outdir::{page_file_name, write_corpus, CorpusDir, CorpusWriteStats, MappedText};
pub use site::{
    generate_drifted, generate_site, generate_site_with, site_pages, Drift, PageKind, Quirk,
    SitePages, SiteSpec, Source,
};
