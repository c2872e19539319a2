//! The differential decode oracle.
//!
//! Every fuzz input that looks like (or mutated away from) a compressed
//! stream is pushed through **every decode path** the workspace ships:
//!
//! * the [`Decoder`] matrix, `{Scalar, Kernel, Simd} × {serial, parallel}`.
//!   Serial scalar is the reference. The `Simd` entry points run the
//!   portable kernel when the CPU lacks the ISA, so the cell is always
//!   exercised and always held to the contract;
//! * the windowed decode (`Decoder::decode_windows`), window by window
//!   (`szx_core::window_len` values each), serial and parallel, each
//!   window put back at its offset;
//! * random access (`RandomAccess::decode_range` over the whole stream,
//!   scalar and kernel).
//!
//! The container reader decodes a frame that passes its CRC with the same
//! [`Decoder`], so it is held to this oracle frame by frame by the
//! `container` target rather than by re-wrapping every input here.
//!
//! The contract checked on *every* input, hostile or well-formed:
//!
//! * no path may panic — errors only (`catch_unwind` turns any panic into
//!   a [`Failure`] naming the path);
//! * all paths agree on decodability;
//! * paths that decode must reconstruct **bit-identical** outputs;
//! * every `Decoder` cell must return the reference's **error string
//!   verbatim**. They share one index and
//!   validation layer, and the parallel split reports the first corrupt
//!   block in block order, exactly as the serial loop does; a drifting
//!   message means the paths stopped sharing validation logic. Random
//!   access validates per block, so only its decodability and bits are
//!   compared.

use std::panic::{catch_unwind, AssertUnwindSafe};

use std::sync::{Mutex, PoisonError};

use szx_core::{Decoder, KernelPath, RandomAccess, SzxFloat};

use crate::corpus::fnv1a64;

/// A confirmed fuzzing failure: a panic, a differential divergence, or a
/// broken compression contract. `kind` is stable across equivalent inputs
/// (minimization shrinks while preserving it); `detail` carries context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    pub kind: String,
    pub detail: String,
}

impl Failure {
    pub fn new(kind: impl Into<String>, detail: impl Into<String>) -> Self {
        Failure {
            kind: kind.into(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}

/// Outcome of one decode path: reconstructed bit words, or an error string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Bits(Vec<u64>),
    Error(String),
}

impl Outcome {
    fn is_ok(&self) -> bool {
        matches!(self, Outcome::Bits(_))
    }

    /// Compact novelty signature of this outcome.
    fn feature(&self) -> u64 {
        match self {
            Outcome::Bits(words) => {
                let mut h = fnv1a64(&(words.len() as u64).to_le_bytes());
                for w in words.iter().take(64).chain(words.last()) {
                    h ^= fnv1a64(&w.to_le_bytes());
                }
                h
            }
            Outcome::Error(msg) => fnv1a64(msg.as_bytes()) | 1,
        }
    }
}

/// Render a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one decode path, converting a panic into a [`Failure`] that names
/// the path — the single most important assertion in the harness.
fn run_path<F: SzxFloat>(
    path: &'static str,
    f: impl FnOnce() -> szx_core::Result<Vec<F>>,
) -> Result<Outcome, Failure> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(values)) => Ok(Outcome::Bits(values.iter().map(|v| v.to_word()).collect())),
        Ok(Err(e)) => Ok(Outcome::Error(e.to_string())),
        Err(payload) => Err(Failure::new(
            format!("panic:{path}"),
            panic_message(payload),
        )),
    }
}

/// Report of a full differential run for one element type.
#[derive(Debug)]
pub struct DecodeReport {
    /// Novelty signature folded over every path outcome.
    pub features: u64,
    /// Whether the reference path decoded the input.
    pub decoded_ok: bool,
    /// Reference (serial scalar) outcome, for callers that chain checks.
    pub reference: Outcome,
}

/// The [`Decoder`] cells besides the serial-scalar reference.
const DECODER_CELLS: [(&str, KernelPath, bool); 5] = [
    ("serial-kernel", KernelPath::Kernel, false),
    ("serial-simd", KernelPath::Simd, false),
    ("parallel-scalar", KernelPath::Scalar, true),
    ("parallel-kernel", KernelPath::Kernel, true),
    ("parallel-simd", KernelPath::Simd, true),
];

/// Windowed-decode cells ([`Decoder::decode_windows`]).
const WINDOWED_CELLS: [(&str, KernelPath, bool); 2] = [
    ("windowed-serial-kernel", KernelPath::Kernel, false),
    ("windowed-parallel-simd", KernelPath::Simd, true),
];

/// Run every decode path for element type `F` and check the differential
/// contract. `Err` means a *harness finding* (panic or divergence) — an
/// input that merely fails to decode everywhere is `Ok`.
pub fn differential_decode_typed<F: SzxFloat>(bytes: &[u8]) -> Result<DecodeReport, Failure> {
    let reference = run_path("serial-scalar", || {
        Decoder::new(KernelPath::Scalar, false).decode::<F>(bytes)
    })?;

    let mut features = reference.feature();
    let mut check =
        |path: &'static str, outcome: Outcome, same_message: bool| -> Result<(), Failure> {
            features = features.rotate_left(7).wrapping_add(outcome.feature());
            if outcome.is_ok() != reference.is_ok() {
                return Err(Failure::new(
                    format!("divergence:decodability:{path}"),
                    format!(
                        "serial-scalar {} but {path} {}",
                        if reference.is_ok() {
                            "decodes"
                        } else {
                            "errors"
                        },
                        if outcome.is_ok() { "decodes" } else { "errors" },
                    ),
                ));
            }
            match (&reference, &outcome) {
                (Outcome::Bits(a), Outcome::Bits(b)) if a != b => {
                    let at = a
                        .iter()
                        .zip(b)
                        .position(|(x, y)| x != y)
                        .map(|i| i.to_string())
                        .unwrap_or_else(|| format!("len {} vs {}", a.len(), b.len()));
                    return Err(Failure::new(
                        format!("divergence:bits:{path}"),
                        format!("first differing element: {at}"),
                    ));
                }
                (Outcome::Error(a), Outcome::Error(b)) if same_message && a != b => {
                    return Err(Failure::new(
                        format!("divergence:errmsg:{path}"),
                        format!("serial-scalar: {a:?} vs {path}: {b:?}"),
                    ));
                }
                _ => {}
            }
            Ok(())
        };

    for (path, kernel, parallel) in DECODER_CELLS {
        let out = run_path(path, || Decoder::new(kernel, parallel).decode::<F>(bytes))?;
        check(path, out, true)?;
    }

    // The windowed decode: a parallel decoder hands over the windows in
    // the order its threads finish them, so each goes back to its offset.
    for (path, kernel, parallel) in WINDOWED_CELLS {
        let out = run_path(path, || {
            let windows = Mutex::new(Vec::new());
            Decoder::new(kernel, parallel).decode_windows::<F, ()>(bytes, |(), at, w| {
                let mut windows = windows.lock().unwrap_or_else(PoisonError::into_inner);
                windows.push((at, w.to_vec()));
                Ok(())
            })?;
            let mut windows = windows.into_inner().unwrap_or_else(PoisonError::into_inner);
            windows.sort_unstable_by_key(|&(at, _)| at);
            Ok(windows.into_iter().flat_map(|(_, w)| w).collect())
        })?;
        check(path, out, true)?;
    }

    for (path, sel) in [
        ("random-access-scalar", KernelPath::Scalar),
        ("random-access-kernel", KernelPath::Kernel),
    ] {
        let out = run_path(path, || {
            let ra = RandomAccess::<F>::new(bytes)?.with_decoder(Decoder::new(sel, false));
            ra.decode_range(0, ra.len())
        })?;
        check(path, out, false)?;
    }

    Ok(DecodeReport {
        features,
        decoded_ok: reference.is_ok(),
        reference,
    })
}

/// Run the differential oracle for **both** element types (a stream's
/// dtype byte is itself attacker-controlled, so each input is tortured as
/// f32 and as f64) plus the panic-freedom check on `inspect`.
pub fn differential_decode(bytes: &[u8]) -> Result<u64, Failure> {
    let inspected = catch_unwind(AssertUnwindSafe(|| {
        szx_core::inspect(bytes).map(|h| (h.dtype, h.n, h.n_nonconstant))
    }));
    let features = match inspected {
        Ok(Ok(tuple)) => fnv1a64(format!("{tuple:?}").as_bytes()),
        Ok(Err(e)) => fnv1a64(e.to_string().as_bytes()),
        Err(payload) => {
            return Err(Failure::new("panic:inspect", panic_message(payload)));
        }
    };
    let r32 = differential_decode_typed::<f32>(bytes)?;
    let r64 = differential_decode_typed::<f64>(bytes)?;
    Ok(features
        .rotate_left(17)
        .wrapping_add(r32.features)
        .rotate_left(17)
        .wrapping_add(r64.features))
}

#[cfg(test)]
mod tests {
    use super::*;
    use szx_core::SzxConfig;

    fn archive() -> Vec<u8> {
        let data: Vec<f32> = (0..700).map(|i| (i as f32 * 0.02).sin() * 4.0).collect();
        szx_core::compress(&data, &SzxConfig::absolute(1e-4)).unwrap()
    }

    #[test]
    fn valid_archive_decodes_on_every_path() {
        let bytes = archive();
        let report = differential_decode_typed::<f32>(&bytes).unwrap();
        assert!(report.decoded_ok);
        assert!(differential_decode(&bytes).is_ok());
    }

    #[test]
    fn garbage_errors_agree_on_every_path() {
        let report = differential_decode_typed::<f32>(b"not a stream at all").unwrap();
        assert!(!report.decoded_ok);
        assert!(differential_decode(&[]).is_ok());
    }

    #[test]
    fn truncations_stay_in_contract() {
        let bytes = archive();
        for cut in (0..bytes.len()).step_by(37) {
            differential_decode(&bytes[..cut]).unwrap();
        }
    }
}
