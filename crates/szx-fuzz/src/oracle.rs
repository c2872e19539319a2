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
//! * random access (`Decoder::decode_range` on a `StreamIndex`), scalar,
//!   kernel and simd, over the whole stream and over one range that
//!   starts mid-window and mid-block and ends inside the last block; the
//!   sub-range is held to the matching slice of the reference.
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
//!   compared, and a sub-range only where the reference decodes (its
//!   blocks may all be sound when another block is not).

use std::panic::{catch_unwind, AssertUnwindSafe};

use std::sync::{Mutex, PoisonError};

use std::ops::Range;

use szx_core::{Decoder, Header, KernelPath, StreamIndex, SzxFloat};

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

/// Random-access cells ([`Decoder::decode_range`]): the whole stream, and
/// the [`sub_range`].
const RANDOM_ACCESS_CELLS: [(&str, &str, KernelPath); 3] = [
    (
        "random-access-scalar",
        "random-range-scalar",
        KernelPath::Scalar,
    ),
    (
        "random-access-kernel",
        "random-range-kernel",
        KernelPath::Kernel,
    ),
    ("random-access-simd", "random-range-simd", KernelPath::Simd),
];

/// A range of the stream `header` describes that starts mid-block halfway
/// through it, off every window edge, and ends inside its last block.
fn sub_range(header: &Header) -> Range<usize> {
    let (n, bs) = (header.n, header.block_size);
    let last = n.saturating_sub(1) / bs * bs;
    let end = last + (n - last).div_ceil(2);
    let start = (n / 2 / bs * bs + bs / 2).min(end);
    start..end
}

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

    for (path, sub_path, kernel) in RANDOM_ACCESS_CELLS {
        let mut decoder = Decoder::new(kernel, false);
        let out = run_path(path, || {
            let index = StreamIndex::parse::<F>(bytes)?;
            decoder.decode_range::<F>(&index, bytes, 0..index.header().n)
        })?;
        check(path, out, false)?;
        let mut range = 0..0;
        let out = run_path(sub_path, || {
            let index = StreamIndex::parse::<F>(bytes)?;
            range = sub_range(index.header());
            decoder.decode_range::<F>(&index, bytes, range.clone())
        })?;
        if let Outcome::Bits(want) = &reference {
            let want = want.get(range.clone()).unwrap_or_default();
            match out {
                Outcome::Bits(got) if got == want => {}
                Outcome::Bits(_) => {
                    return Err(Failure::new(
                        format!("divergence:bits:{sub_path}"),
                        format!("range {range:?} differs from the reference slice"),
                    ));
                }
                Outcome::Error(e) => {
                    return Err(Failure::new(
                        format!("divergence:decodability:{sub_path}"),
                        format!("serial-scalar decodes but range {range:?} errors: {e}"),
                    ));
                }
            }
        }
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
    fn sub_range_starts_mid_block_and_ends_in_the_last_block() {
        let bytes = archive();
        let header = szx_core::inspect(&bytes).unwrap();
        let (n, bs) = (header.n, header.block_size);
        let range = sub_range(&header);
        assert_ne!(range.start % bs, 0, "{range:?}");
        assert!(range.start > 0 && range.end < n, "{range:?}");
        assert_eq!((range.end - 1) / bs, (n - 1) / bs, "{range:?}");
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
