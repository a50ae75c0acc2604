//! The one durable write path for files that are replaced whole: the
//! `.orw` wrapper files and the object store's `MANIFEST`.

use std::ffi::OsString;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Replace `path` with `bytes` so that a crash at any point leaves
/// either the old file or the new one: write `<path>.tmp`, fsync it,
/// rename it over `path`, then fsync the directory to persist the
/// rename. A reader that holds the old file open keeps reading the old
/// revision, because the rename swaps in a new inode instead of
/// truncating the old one.
pub fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = OsString::from(path.as_os_str());
    tmp_name.push(".tmp");
    let tmp = Path::new(&tmp_name);
    let mut f = fs::File::create(tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(tmp, path)?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all(); // best-effort where directories cannot be synced
    }
    Ok(())
}
