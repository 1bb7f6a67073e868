//! Empty placeholder for the deleted learned IPC/MPKI proxy.
//!
//! The package once trained a regression model on cached cell results.
//! Nothing called it, so its code is gone. The package stays, with its
//! `[dependencies]` unchanged, only because `benchmark/Cargo.lock`
//! records it through `phelps-bench`; deleting it would rewrite that
//! lock file. The next change to `benchmark/` deletes this package, the
//! `phelps-proxy` lines in the root and `crates/bench` manifests, and
//! the lock entry together.
