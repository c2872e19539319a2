//! The three fuzz targets. Each takes arbitrary bytes (so the same
//! functions back the in-tree engine, the corpus replay suite, and the
//! optional cargo-fuzz wrappers under `fuzz/`) and returns either a
//! novelty signature or a [`Failure`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use szx_core::{ContainerReader, ContainerWriter, Decoder, KernelPath, ReadAt, SzxFloat};

use crate::corpus::fnv1a64;
use crate::gen::{Spec, SpecType};
use crate::oracle::{differential_decode, differential_decode_typed, Failure, Outcome};

/// The fuzz targets the harness ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzTarget {
    /// Mutated/truncated/bit-flipped archive bytes → every decode entry
    /// point; error-not-panic + differential agreement of every path.
    DecodeArbitrary,
    /// Bytes decoded as a [`Spec`] (config + synthetic field) → compress on
    /// every encode path, assert bitwise stream identity, the header error
    /// bound, and full decode-path agreement.
    RoundtripConfig,
    /// Bytes treated as a container: header/footer/index torture for
    /// `ContainerReader`, per-frame differential decode of every frame
    /// that passes its CRC, and the same reads through a source that fails
    /// from a fuzzed offset on.
    Container,
}

impl FuzzTarget {
    pub const ALL: [FuzzTarget; 3] = [
        FuzzTarget::DecodeArbitrary,
        FuzzTarget::RoundtripConfig,
        FuzzTarget::Container,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FuzzTarget::DecodeArbitrary => "decode",
            FuzzTarget::RoundtripConfig => "round",
            FuzzTarget::Container => "container",
        }
    }

    pub fn from_name(name: &str) -> Option<FuzzTarget> {
        match name {
            "decode" => Some(FuzzTarget::DecodeArbitrary),
            "round" | "roundtrip" => Some(FuzzTarget::RoundtripConfig),
            "container" => Some(FuzzTarget::Container),
            _ => None,
        }
    }

    /// Route a corpus file to its replay target by name prefix.
    pub fn for_corpus_file(file_name: &str) -> Option<FuzzTarget> {
        if file_name.starts_with("decode_") {
            Some(FuzzTarget::DecodeArbitrary)
        } else if file_name.starts_with("round_") {
            Some(FuzzTarget::RoundtripConfig)
        } else if file_name.starts_with("container_") {
            Some(FuzzTarget::Container)
        } else {
            None
        }
    }
}

/// Run one target on one input. `Ok` carries the novelty signature used by
/// the engine's corpus scheduling; `Err` is a finding.
pub fn run_target(target: FuzzTarget, input: &[u8]) -> Result<u64, Failure> {
    match target {
        FuzzTarget::DecodeArbitrary => differential_decode(input),
        FuzzTarget::RoundtripConfig => roundtrip_config(input),
        FuzzTarget::Container => container_torture(input),
    }
}

/// Like [`run_target`], but also catches panics that escape the target
/// itself (e.g. from an encode path, which the decode oracle's per-path
/// guards do not cover). This is the entry the engine and replay use.
pub fn run_target_guarded(target: FuzzTarget, input: &[u8]) -> Result<u64, Failure> {
    match catch_unwind(AssertUnwindSafe(|| run_target(target, input))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(Failure::new(format!("panic:{}", target.name()), msg))
        }
    }
}

/// Target 2: roundtrip with arbitrary config.
fn roundtrip_config(input: &[u8]) -> Result<u64, Failure> {
    let spec = Spec::from_bytes(input);
    match spec.dtype {
        SpecType::F32 => roundtrip_typed::<f32>(&spec),
        SpecType::F64 => roundtrip_typed::<f64>(&spec),
    }
}

fn roundtrip_typed<F: SzxFloat>(spec: &Spec) -> Result<u64, Failure> {
    let data: Vec<F> = spec.generate();
    let cfg = spec.config();

    // Encode-path identity: scalar, kernel, simd, and parallel compressors
    // must emit byte-identical archives — or reject the input with
    // identical errors. (Rejection is legitimate: e.g. a relative bound
    // over data containing ±inf resolves to an unusable infinite absolute
    // bound.)
    let scalar = szx_core::compress(&data, &cfg);
    let kernel = szx_core::compress(&data, &cfg.with_kernel(KernelPath::Kernel));
    let simd = szx_core::compress(&data, &cfg.with_kernel(KernelPath::Simd));
    let par = szx_core::compress(
        &data,
        &cfg.with_kernel(KernelPath::Kernel).with_parallel(true),
    );
    let archive = match scalar {
        Err(e) => {
            let expected = e.to_string();
            for (path, r) in [("kernel", &kernel), ("simd", &simd), ("parallel", &par)] {
                match r {
                    Err(other) if other.to_string() == expected => {}
                    Err(other) => {
                        return Err(Failure::new(
                            "roundtrip:reject-divergence",
                            format!("scalar: {expected:?} vs {path}: {other:?} ({spec:?})"),
                        ));
                    }
                    Ok(_) => {
                        return Err(Failure::new(
                            "roundtrip:reject-divergence",
                            format!(
                                "scalar rejects ({expected:?}) but {path} compresses ({spec:?})"
                            ),
                        ));
                    }
                }
            }
            // All encode paths agree the input is uncompressible as
            // configured; that agreement is the property.
            return Ok(fnv1a64(expected.as_bytes()));
        }
        Ok(bytes) => bytes,
    };
    match kernel {
        Ok(kernel) if archive == kernel => {}
        _ => {
            return Err(Failure::new(
                "roundtrip:stream-identity:kernel",
                format!("{spec:?}"),
            ));
        }
    }
    match simd {
        Ok(simd) if archive == simd => {}
        _ => {
            return Err(Failure::new(
                "roundtrip:stream-identity:simd",
                format!("{spec:?}"),
            ));
        }
    }
    match par {
        Ok(par) if archive == par => {}
        _ => {
            return Err(Failure::new(
                "roundtrip:stream-identity:parallel",
                format!("{spec:?}"),
            ));
        }
    }

    // A single-frame container must embed exactly the serial archive
    // (frames are independent SZx streams by contract).
    let container = (|| {
        let mut writer = ContainerWriter::new(Vec::new(), cfg)?;
        writer.push("0", &data)?;
        writer.finish()
    })()
    .map_err(|e| Failure::new("roundtrip:compress-error", format!("container: {e}")))?;
    let reader = ContainerReader::new(&container)
        .map_err(|e| Failure::new("roundtrip:stream-identity:frame", e.to_string()))?;
    if reader.frame_bytes(0).ok() != Some(archive.as_slice()) {
        return Err(Failure::new(
            "roundtrip:stream-identity:frame",
            format!("{spec:?}"),
        ));
    }

    // Header sanity: the stream must carry a finite, non-negative absolute
    // bound regardless of how the relative bound resolved.
    let header =
        szx_core::inspect(&archive).map_err(|e| Failure::new("roundtrip:header", e.to_string()))?;
    if !header.eb.is_finite() || header.eb < 0.0 {
        return Err(Failure::new(
            "roundtrip:header",
            format!("recorded bound {} for {spec:?}", header.eb),
        ));
    }

    // Full differential decode on the fresh archive; it must
    // decode everywhere.
    let report = differential_decode_typed::<F>(&archive)?;
    let words = match report.reference {
        Outcome::Bits(words) => words,
        Outcome::Error(e) => {
            return Err(Failure::new(
                "roundtrip:decode-error",
                format!("{spec:?}: {e}"),
            ));
        }
    };
    if words.len() != data.len() {
        return Err(Failure::new(
            "roundtrip:length",
            format!("{} in, {} out ({spec:?})", data.len(), words.len()),
        ));
    }

    // The error-bound contract, element by element: finite values within
    // the header's absolute bound, non-finite values bit-exact.
    for (i, (x, w)) in data.iter().zip(&words).enumerate() {
        let y = F::from_word(*w);
        if x.is_nan() || x.to_f64().is_infinite() {
            if x.to_word() != *w {
                return Err(Failure::new(
                    "roundtrip:special-not-bitexact",
                    format!("element {i} ({spec:?})"),
                ));
            }
        } else {
            // NaN-propagating on purpose: a NaN/inf reconstruction of a
            // finite input yields a non-finite error, which must count as
            // a bound violation rather than slip past a `>` comparison.
            let err = (x.to_f64() - y.to_f64()).abs();
            if !err.is_finite() || err > header.eb {
                return Err(Failure::new(
                    "roundtrip:bound-exceeded",
                    format!(
                        "element {i}: |{} - {}| > {} ({spec:?})",
                        x.to_f64(),
                        y.to_f64(),
                        header.eb
                    ),
                ));
            }
        }
    }

    // Buffer-reuse decode paths: a right-sized buffer must reproduce the
    // reference bits, a wrong-sized one must error (never write OOB).
    for sel in [KernelPath::Scalar, KernelPath::Kernel, KernelPath::Simd] {
        let mut out = vec![F::ZERO; data.len()];
        let mut decoder = Decoder::new(sel, false);
        decoder
            .decode_into(&archive, &mut out)
            .map_err(|e| Failure::new("roundtrip:decode-error", format!("into: {e}")))?;
        if out.iter().zip(&words).any(|(v, w)| v.to_word() != *w) {
            return Err(Failure::new(
                "divergence:bits:decompress-into",
                format!("{spec:?}"),
            ));
        }
        let mut short = vec![F::ZERO; data.len().saturating_sub(1)];
        if decoder.decode_into(&archive, &mut short).is_ok() {
            return Err(Failure::new(
                "roundtrip:short-buffer-accepted",
                format!("{spec:?}"),
            ));
        }
    }

    let mut h = fnv1a64(&archive);
    h ^= report.features;
    Ok(h)
}

/// Cap on frames examined per container input.
const MAX_FRAMES: usize = 64;

/// Target 3: header/footer/index torture for the container reader, the
/// full differential oracle on every frame that passes its CRC, then the
/// reader's positional reads through a source cut at a fuzzed offset.
fn container_torture(input: &[u8]) -> Result<u64, Failure> {
    // The raw stream header parser must never panic on these bytes either.
    let mut features = match catch_unwind(AssertUnwindSafe(|| szx_core::inspect(input))) {
        Ok(Ok(h)) => fnv1a64(format!("{h:?}").as_bytes()),
        Ok(Err(e)) => fnv1a64(e.to_string().as_bytes()),
        Err(_) => return Err(Failure::new("panic:inspect", "inspect(container bytes)")),
    };

    let parse = catch_unwind(AssertUnwindSafe(|| ContainerReader::new(input)));
    let reader = match parse {
        Ok(Ok(reader)) => reader,
        Ok(Err(e)) => {
            return Ok(features
                .rotate_left(9)
                .wrapping_add(fnv1a64(e.to_string().as_bytes())));
        }
        Err(_) => return Err(Failure::new("panic:frame-index", "ContainerReader::new")),
    };

    let n = reader.len().min(MAX_FRAMES);
    features = features.rotate_left(3).wrapping_add(n as u64);
    for i in 0..n {
        // The reader's own CRC check and decode must error, never panic;
        // the frame bytes it hands out then face every decode path.
        let frame = catch_unwind(AssertUnwindSafe(|| {
            let _ = reader.frame::<f32>(i);
            reader.frame_bytes(i)
        }))
        .map_err(|_| Failure::new("panic:frame", format!("frame {i}")))?;
        features = features.rotate_left(5).wrapping_add(match frame {
            Ok(bytes) => differential_decode(bytes)?,
            Err(e) => fnv1a64(e.to_string().as_bytes()),
        });
    }
    let cut = fnv1a64(input) % (input.len() as u64 + 1);
    Ok(features
        .rotate_left(11)
        .wrapping_add(truncated_reads(input, &reader, cut)?))
}

/// Container bytes whose reads fail from a fuzzed offset on, as a file cut
/// there after it was opened: a read that reaches the offset errors.
struct Truncated<'a> {
    bytes: &'a [u8],
    from: u64,
    hit: AtomicBool,
}

impl ReadAt for Truncated<'_> {
    fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> szx_core::Result<()> {
        if offset.saturating_add(buf.len() as u64) > self.from {
            self.hit.store(true, Ordering::Relaxed);
            return Err(szx_core::SzxError::Io("source ended early".into()));
        }
        self.bytes.read_exact_at(buf, offset)
    }
}

/// The positional reader over `input` cut at `cut`: opening the container
/// and decoding every frame must error, never panic, and where no read
/// reached the cut, it must see exactly what `in_memory` saw.
fn truncated_reads(
    input: &[u8],
    in_memory: &ContainerReader<'_>,
    cut: u64,
) -> Result<u64, Failure> {
    let source = Truncated {
        bytes: input,
        from: cut,
        hit: AtomicBool::new(false),
    };
    let got = catch_unwind(AssertUnwindSafe(|| {
        ContainerReader::open(&source).map(|reader| decoded_frames(&reader))
    }))
    .map_err(|_| Failure::new("panic:truncated-source", format!("cut at {}", source.from)))?;
    if !source.hit.load(Ordering::Relaxed) && got.as_ref().ok() != Some(&decoded_frames(in_memory))
    {
        return Err(Failure::new(
            "divergence:truncated-source",
            format!("no read reached the cut at {}", source.from),
        ));
    }
    Ok(fnv1a64(format!("{got:?}").as_bytes()))
}

/// Each frame of `reader` decoded as `f32` bits, or its error message.
fn decoded_frames<R: ReadAt + ?Sized>(
    reader: &ContainerReader<'_, R>,
) -> Vec<Result<Vec<u32>, String>> {
    (0..reader.len().min(MAX_FRAMES))
        .map(|i| {
            let frame = reader.frame::<f32>(i).map_err(|e| e.to_string());
            frame.map(|v| v.iter().map(|x| x.to_bits()).collect())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use szx_core::SzxConfig;

    #[test]
    fn decode_target_accepts_valid_and_garbage() {
        let data: Vec<f32> = (0..500).map(|i| i as f32 * 0.5).collect();
        let bytes = szx_core::compress(&data, &SzxConfig::relative(1e-3)).unwrap();
        run_target_guarded(FuzzTarget::DecodeArbitrary, &bytes).unwrap();
        run_target_guarded(FuzzTarget::DecodeArbitrary, b"garbage").unwrap();
        run_target_guarded(FuzzTarget::DecodeArbitrary, &[]).unwrap();
    }

    #[test]
    fn roundtrip_target_is_total_over_spec_bytes() {
        // A spread of spec bytes, including degenerate ones.
        run_target_guarded(FuzzTarget::RoundtripConfig, &[]).unwrap();
        run_target_guarded(FuzzTarget::RoundtripConfig, &[0xff; 18]).unwrap();
        let spec = Spec::from_bytes(&[1, 1, 16, 0, 3, 200, 1, 0, 4, 0x1f]);
        run_target_guarded(FuzzTarget::RoundtripConfig, &spec.to_bytes()).unwrap();
    }

    #[test]
    fn container_target_handles_containers_and_noise() {
        let mut w = ContainerWriter::new(Vec::new(), SzxConfig::absolute(1e-3)).unwrap();
        w.push("ramp", &(0..300).map(|i| i as f32).collect::<Vec<_>>())
            .unwrap();
        w.push(
            "sqrt",
            &(0..130).map(|i| (i as f32).sqrt()).collect::<Vec<_>>(),
        )
        .unwrap();
        let container = w.finish().unwrap();
        run_target_guarded(FuzzTarget::Container, &container).unwrap();
        // The positional reader, cut at every offset.
        let reader = ContainerReader::new(&container).unwrap();
        for cut in 0..=container.len() as u64 {
            truncated_reads(&container, &reader, cut).unwrap();
        }
        run_target_guarded(FuzzTarget::Container, b"SZXC\x01\x02").unwrap();
        run_target_guarded(FuzzTarget::Container, &[]).unwrap();
    }

    #[test]
    fn corpus_prefix_routing() {
        assert_eq!(
            FuzzTarget::for_corpus_file("decode_cesm.szx"),
            Some(FuzzTarget::DecodeArbitrary)
        );
        assert_eq!(
            FuzzTarget::for_corpus_file("container_nyx.szxc"),
            Some(FuzzTarget::Container)
        );
        assert_eq!(
            FuzzTarget::for_corpus_file("round_3.spec"),
            Some(FuzzTarget::RoundtripConfig)
        );
        assert_eq!(FuzzTarget::for_corpus_file("README.md"), None);
    }
}
