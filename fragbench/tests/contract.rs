//! `BENCHMARK.json` and the runner agree: the JSON line of a run carries
//! exactly the metrics the file declares, with the same units, and the
//! file lists only workloads the runner knows.

use fragbench::bench::{END_TO_END, PER_LAYER};
use fragbench::workloads::Shape;

/// `(name, unit)` of each entry with a `"unit"` in `section`, the text of
/// one array of `BENCHMARK.json`.
fn entries(section: &str) -> Vec<(String, String)> {
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(obj[at..].split('"').next()?.to_string())
    };
    section
        .split('{')
        .skip(1)
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

fn section<'a>(text: &'a str, key: &str) -> &'a str {
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let rest = &text[start..];
    &rest[..rest.find(']').expect("section closes")]
}

#[test]
fn declared_metrics_match_the_runner() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(entries(section(&text, "end_to_end")), owned(END_TO_END));
    assert_eq!(entries(section(&text, "per_layer")), owned(PER_LAYER));
    let workloads = section(&text, "workloads");
    let mut listed = 0;
    for name in Shape::NAMES {
        if workloads.contains(&format!("\"name\": \"{name}\"")) {
            listed += 1;
        }
    }
    assert_eq!(listed, workloads.matches("\"name\"").count());
}
