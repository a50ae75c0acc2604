//! Wrapper persistence for ObjectRunner.
//!
//! A wrapper learned by the induction pipeline is only usable inside
//! the process that learned it: its matchers reference process-local
//! interner handles. This crate gives wrappers a life beyond that
//! process — [`format`] defines a versioned, checksummed, fully
//! self-contained on-disk representation that externalizes every
//! interned identity and re-interns on load, and [`json`] is the
//! small dependency-free JSON engine underneath it (the workspace
//! vendors no serde).
//!
//! Guarantees the rest of the workspace builds on:
//!
//! * **fixed point** — `save(load(save(w)))` is byte-identical to
//!   `save(w)`: key order, float form and annotation sort are fixed;
//! * **cold-process fidelity** — a wrapper loaded in a fresh process
//!   (empty interners) extracts byte-identical objects to the one
//!   that induced it;
//! * **fail-loud** — a truncated or bit-flipped file is rejected by
//!   the header checksum before any field is trusted.

pub mod durable;
pub mod format;
pub mod frame;
pub mod json;

pub use durable::replace_file;
pub use format::{
    fnv64, load, load_file, save, save_file, Fnv64, RepairProvenance, StoreError, StoredWrapper,
    FORMAT_VERSION, MIN_SUPPORTED_VERSION,
};
pub use frame::FrameError;
pub use json::{Json, JsonError};
