//! Generation determinism: the synthetic world is a function of its
//! configuration, nothing else. The same seed must produce *byte-identical*
//! TSV output — across runs, at every preset. Anything less silently breaks
//! golden files, benchmark trajectories, and cross-run comparisons.

use ricd_datagen::prelude::*;
use ricd_graph::io::write_tsv;

fn tsv_bytes(dataset: &DatasetConfig, attack: &AttackConfig) -> Vec<u8> {
    let ds = generate(dataset, attack).expect("valid configs");
    let mut buf = Vec::new();
    write_tsv(&ds.graph, &mut buf).expect("in-memory write");
    buf
}

#[test]
fn default_preset_is_byte_deterministic() {
    let a = tsv_bytes(&DatasetConfig::default(), &AttackConfig::evaluation());
    let b = tsv_bytes(&DatasetConfig::default(), &AttackConfig::evaluation());
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "default (1000x scale-down) preset must be reproducible"
    );
}

#[test]
fn scale100_preset_is_byte_deterministic() {
    let a = tsv_bytes(&DatasetConfig::scale100(), &AttackConfig::scale100());
    let b = tsv_bytes(&DatasetConfig::scale100(), &AttackConfig::scale100());
    assert!(!a.is_empty());
    assert_eq!(a, b, "100x scale-down preset must be reproducible");
}

#[test]
fn seed_changes_the_world() {
    // The complement: determinism must come from the seed, not from the
    // generator ignoring it.
    let base = tsv_bytes(&DatasetConfig::default(), &AttackConfig::evaluation());
    let reseeded = tsv_bytes(
        &DatasetConfig {
            seed: 0xdead_beef,
            ..DatasetConfig::default()
        },
        &AttackConfig::evaluation(),
    );
    assert_ne!(
        base, reseeded,
        "a different seed must produce a different world"
    );
}
