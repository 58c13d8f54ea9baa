//! The option census cannot drift: every leaf key a scenario serializes,
//! plus every `gen.*` leaf of the world generator's config (which the
//! scenario does not serialize), has a row in DESIGN.md's census block, and
//! every config key the block names still exists. A new knob fails here
//! until it has a row.

use std::collections::BTreeSet;

use ef_sim::{PerfSimConfig, SimConfig};
use serde::{Serialize, Value};

const BEGIN_MARK: &str = "<!-- BEGIN option census -->";
const END_MARK: &str = "<!-- END option census -->";

/// Dotted paths of every leaf under `value`. An externally tagged enum
/// value (an object keyed by one capitalised variant name) is one leaf:
/// the variant and its payload are set together.
fn leaf_keys(prefix: &str, value: &Value, out: &mut BTreeSet<String>) {
    let fields = match value {
        Value::Object(fields)
            if !(fields.len() == 1
                && fields[0].0.starts_with(|c: char| c.is_ascii_uppercase())) =>
        {
            fields
        }
        _ => {
            out.insert(prefix.to_string());
            return;
        }
    };
    for (key, child) in fields {
        let path = if prefix.is_empty() {
            key.clone()
        } else {
            format!("{prefix}.{key}")
        };
        leaf_keys(&path, child, out);
    }
}

/// The config keys the census block names: the first cell of each table
/// row, when it is a lowercase dotted key (builder methods start with `.`,
/// flags with `--`, environment variables are uppercase).
fn census_keys(doc: &str) -> BTreeSet<String> {
    let start = doc
        .find(BEGIN_MARK)
        .expect("DESIGN.md carries the census markers");
    let end = start + doc[start..].find(END_MARK).expect("census block is closed");
    doc[start..end]
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|row| row.split('`').next())
        .filter(|key| key.starts_with(|c: char| c.is_ascii_lowercase()))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_config_key_has_a_census_row_and_every_row_a_key() {
    let cfg = SimConfig {
        perf: Some(PerfSimConfig::default()),
        global: Some(Default::default()),
        health: Some(Default::default()),
        ..SimConfig::default()
    };
    let mut serialized = BTreeSet::new();
    leaf_keys("", &cfg.to_value(), &mut serialized);
    leaf_keys("gen", &cfg.gen.to_value(), &mut serialized);
    let census = census_keys(include_str!("../../../DESIGN.md"));
    let missing: Vec<_> = serialized.difference(&census).collect();
    let stale: Vec<_> = census.difference(&serialized).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "DESIGN.md §5 option census is out of date: keys with no row {missing:?}, \
         rows with no key {stale:?}"
    );
}
