//! Empty on purpose — the frozen benchmark's `Cargo.lock` names this
//! package; delete it when the benchmark is next revised.
