//! Saving a wrapper replaces the `.orw` file instead of rewriting it in
//! place, so a reader that opened the old revision reads all of it.

use objectrunner_store::{load, load_file, save, save_file};
use std::fs;
use std::io::Read;

const V1_FIXTURE: &[u8] = include_bytes!("fixtures/v1.orw");

#[test]
fn an_open_reader_keeps_the_whole_old_revision() {
    let dir = std::env::temp_dir().join(format!("objectrunner-durable-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("source.orw");
    let mut stored = load(std::str::from_utf8(V1_FIXTURE).unwrap()).expect("fixture loads");
    save_file(&path, &stored).unwrap();
    let old = save(&stored);

    let mut reader = fs::File::open(&path).unwrap();
    stored.revision += 1;
    save_file(&path, &stored).unwrap();
    let mut seen = String::new();
    reader.read_to_string(&mut seen).unwrap();
    assert_eq!(seen, old, "the open handle saw a torn or rewritten file");

    assert_eq!(load_file(&path).unwrap().revision, stored.revision);
    let names: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, ["source.orw"], "temp file left behind");
    fs::remove_dir_all(&dir).unwrap();
}
