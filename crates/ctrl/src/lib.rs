//! `tdc-ctrl` — an empty shim. The joint-knob SLO controller lives in
//! `tdc-serve`: every registry tunes through
//! [`ModelRegistry::tune`](tdc_serve::ModelRegistry::tune) on request.
//! This crate stays only because the
//! stand-alone `benchmark/` package still calls [`install`]; it leaves with
//! the next change to `benchmark/`.

/// Does nothing: every [`ModelRegistry`](tdc_serve::ModelRegistry) can tune
/// without anything installed. Kept so `benchmark/`'s call still compiles.
pub fn install(_registry: &tdc_serve::ModelRegistry) {}
