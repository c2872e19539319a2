//! Hostile-input tests for the decoder: a compressed stream that has been
//! truncated, bit-flipped, or forged must produce `Err(SzxError::...)` —
//! never a panic, an out-of-bounds read, or an absurd allocation. Both the
//! serial and the parallel decompressor are held to the same contract.

use szx_core::stream::HEADER_LEN;
use szx_core::{ContainerReader, ContainerWriter, Decoder, KernelPath, StreamIndex, SzxConfig};

/// Decode `bytes` with the scalar oracle, the branch-free kernel, and the
/// explicit SIMD path; assert they agree on whether the stream is
/// decodable, and — when it is — on every reconstructed bit. Returns
/// whether decoding succeeded.
fn scalar_kernel_parity(bytes: &[u8], what: &str) -> bool {
    let s = Decoder::new(KernelPath::Scalar, false).decode::<f32>(bytes);
    let k = Decoder::new(KernelPath::Kernel, false).decode::<f32>(bytes);
    let v = Decoder::new(KernelPath::Simd, false).decode::<f32>(bytes);
    assert_eq!(
        s.is_ok(),
        k.is_ok(),
        "{what}: scalar/kernel decoders disagree on decodability"
    );
    assert_eq!(
        s.is_ok(),
        v.is_ok(),
        "{what}: scalar/simd decoders disagree on decodability"
    );
    match (s, k, v) {
        (Ok(a), Ok(b), Ok(c)) => {
            for (i, ((x, y), z)) in a.iter().zip(&b).zip(&c).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch at {i}");
                assert_eq!(x.to_bits(), z.to_bits(), "{what}: simd bit mismatch at {i}");
            }
            true
        }
        _ => false,
    }
}

fn sample_stream() -> (Vec<f32>, Vec<u8>) {
    let data: Vec<f32> = (0..4096)
        .map(|i| (i as f32 * 0.01).sin() * 10.0 + (i as f32 * 0.37).cos())
        .collect();
    let bytes = szx_core::compress(&data, &SzxConfig::absolute(1e-4)).unwrap();
    (data, bytes)
}

/// Byte offset of the zsize array for an f32 stream.
fn zsize_off(bytes: &[u8]) -> usize {
    let h = szx_core::inspect(bytes).unwrap();
    let nblocks = h.num_blocks();
    HEADER_LEN + nblocks.div_ceil(8) + nblocks * 4
}

/// Byte offset of the payload section for an f32 stream.
fn payload_off(bytes: &[u8]) -> usize {
    let h = szx_core::inspect(bytes).unwrap();
    zsize_off(bytes) + h.n_nonconstant * 2
}

#[test]
fn every_truncation_point_is_a_clean_error() {
    let (_, bytes) = sample_stream();
    for cut in 0..bytes.len() {
        let r = szx_core::decompress::<f32>(&bytes[..cut]);
        assert!(r.is_err(), "truncation at {cut}/{} decoded", bytes.len());
        let r = Decoder::new(KernelPath::detect(), true).decode::<f32>(&bytes[..cut]);
        assert!(r.is_err(), "parallel truncation at {cut} decoded");
        // The kernel decoder must reject every truncation the scalar one
        // does — no panic, no out-of-bounds load from its overlapping-read
        // arena.
        let r = Decoder::new(KernelPath::Kernel, false).decode::<f32>(&bytes[..cut]);
        assert!(r.is_err(), "kernel truncation at {cut} decoded");
        let r = Decoder::new(KernelPath::Kernel, true).decode::<f32>(&bytes[..cut]);
        assert!(r.is_err(), "parallel kernel truncation at {cut} decoded");
        // The SIMD decoder validates payloads before its gather pass; it
        // must reject exactly what the scalar decoder rejects.
        let r = Decoder::new(KernelPath::Simd, false).decode::<f32>(&bytes[..cut]);
        assert!(r.is_err(), "simd truncation at {cut} decoded");
    }
}

#[test]
fn flipped_zsize_bytes_error_out() {
    let (_, bytes) = sample_stream();
    let z = zsize_off(&bytes);
    let h = szx_core::inspect(&bytes).unwrap();
    assert!(h.n_nonconstant > 0, "fixture must have payloads");

    // Oversizing any zsize entry pushes the payload prefix sum past the end
    // of the stream: the index build must reject it.
    for entry in 0..h.n_nonconstant.min(8) {
        let mut bad = bytes.clone();
        bad[z + 2 * entry] = 0xff;
        bad[z + 2 * entry + 1] = 0xff;
        assert!(
            szx_core::decompress::<f32>(&bad).is_err(),
            "oversized zsize[{entry}] decoded"
        );
        assert!(Decoder::new(KernelPath::detect(), true)
            .decode::<f32>(&bad)
            .is_err());
    }

    // Shrinking an entry misaligns every later payload; decoding may fail
    // or produce garbage values, but must never panic or read OOB — and
    // the scalar and kernel decoders must agree on the garbage.
    let mut bad = bytes.clone();
    bad[z] = 1;
    bad[z + 1] = 0;
    scalar_kernel_parity(&bad, "shrunk zsize");
    let _ = Decoder::new(KernelPath::detect(), true).decode::<f32>(&bad);
    let _ = Decoder::new(KernelPath::Kernel, true).decode::<f32>(&bad);
}

#[test]
fn oversized_req_len_is_rejected() {
    let (_, bytes) = sample_stream();
    let p = payload_off(&bytes);
    // Each payload starts with its required length R_k; legal f32 values
    // are 9..=32. Forge impossible ones.
    for forged in [0u8, 8, 33, 64, 0xff] {
        let mut bad = bytes.clone();
        bad[p] = forged;
        assert!(
            szx_core::decompress::<f32>(&bad).is_err(),
            "req_len={forged} decoded"
        );
        assert!(Decoder::new(KernelPath::detect(), true)
            .decode::<f32>(&bad)
            .is_err());
    }
}

#[test]
fn forged_header_fields_are_rejected() {
    let (_, bytes) = sample_stream();

    // Element count inflated far past the actual sections. Must error out
    // before allocating the claimed output.
    let mut bad = bytes.clone();
    bad[12..20].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    assert!(szx_core::decompress::<f32>(&bad).is_err());

    // Element count slightly inflated (one extra block's worth).
    let mut bad = bytes.clone();
    let h = szx_core::inspect(&bytes).unwrap();
    bad[12..20].copy_from_slice(&((h.n + h.block_size) as u64).to_le_bytes());
    assert!(szx_core::decompress::<f32>(&bad).is_err());

    // Non-constant count disagreeing with the state bits.
    let mut bad = bytes.clone();
    bad[28..36].copy_from_slice(&((h.n_nonconstant as u64) - 1).to_le_bytes());
    assert!(szx_core::decompress::<f32>(&bad).is_err());

    // Wrong element type.
    assert!(szx_core::decompress::<f64>(&bytes).is_err());

    // Block size outside the supported range.
    let mut bad = bytes.clone();
    bad[8..12].copy_from_slice(&(1u32 << 20).to_le_bytes());
    assert!(szx_core::decompress::<f32>(&bad).is_err());
}

#[test]
fn single_byte_flips_never_panic() {
    // Exhaustive single-byte corruption over a small stream: any byte set
    // to 0x00/0xff may yield Err or garbage-but-bounded output; every
    // decoder must survive all of them, and scalar vs kernel must agree
    // both on decodability and on the reconstructed bits.
    let data: Vec<f32> = (0..640).map(|i| (i as f32 * 0.1).sin() * 3.0).collect();
    let bytes = szx_core::compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
    for pos in 0..bytes.len() {
        for val in [0x00u8, 0xff, 0x5a] {
            if bytes[pos] == val {
                continue;
            }
            let mut bad = bytes.clone();
            bad[pos] = val;
            scalar_kernel_parity(&bad, &format!("byte {pos} = {val:#x}"));
            let _ = Decoder::new(KernelPath::detect(), true).decode::<f32>(&bad);
            let _ = Decoder::new(KernelPath::Kernel, true).decode::<f32>(&bad);
        }
    }
}

#[test]
fn multi_byte_corruption_windows_keep_path_parity() {
    // Contiguous 2–4 byte corruption windows — wide enough to straddle a
    // zsize entry, a payload R_k byte plus its leading codes, or a header
    // field boundary, which single-byte flips never exercise. Every window
    // runs through the szx-fuzz differential oracle, so all five decode
    // paths (serial scalar, serial kernel, parallel, random access,
    // streaming) are held to the agreement contract at once, not just the
    // scalar/kernel pair.
    let data: Vec<f32> = (0..640).map(|i| (i as f32 * 0.1).sin() * 3.0).collect();
    let bytes = szx_core::compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
    let patterns: [&[u8]; 3] = [
        &[0x00, 0x00, 0x00, 0x00],
        &[0xff, 0xff, 0xff, 0xff],
        &[0xa5, 0x5a, 0xa5, 0x5a],
    ];
    for width in [2usize, 3, 4] {
        // Stride keeps the sweep ~O(n) per (width, pattern) while still
        // hitting every section; offset by width so successive widths land
        // on different byte positions.
        for start in (0..bytes.len().saturating_sub(width)).step_by(5) {
            for pattern in patterns {
                let mut bad = bytes.clone();
                bad[start..start + width].copy_from_slice(&pattern[..width]);
                if bad == bytes {
                    continue;
                }
                if let Err(failure) =
                    szx_fuzz::run_target_guarded(szx_fuzz::FuzzTarget::DecodeArbitrary, &bad)
                {
                    panic!(
                        "window [{start}..{}] {pattern:02x?}: {failure}",
                        start + width
                    );
                }
            }
        }
    }
}

#[test]
fn corruption_windows_across_frame_boundaries() {
    // Same idea against the container: windows that straddle two frames,
    // or a frame and the index, are only reachable through its parser.
    let mut w = ContainerWriter::new(Vec::new(), SzxConfig::absolute(1e-3)).unwrap();
    let data: Vec<f32> = (0..900).map(|i| (i as f32 * 0.05).cos() * 2.0).collect();
    for (k, chunk) in data.chunks(300).enumerate() {
        w.push(&k.to_string(), chunk).unwrap();
    }
    let container = w.finish().unwrap();
    for width in [2usize, 4] {
        for start in (0..container.len().saturating_sub(width)).step_by(7) {
            let mut bad = container.clone();
            for b in &mut bad[start..start + width] {
                *b ^= 0xff;
            }
            if let Err(failure) =
                szx_fuzz::run_target_guarded(szx_fuzz::FuzzTarget::Container, &bad)
            {
                panic!("frame window [{start}..{}]: {failure}", start + width);
            }
        }
    }
}

#[test]
#[expect(clippy::reversed_empty_ranges, reason = "the case under test")]
fn random_access_and_inspect_survive_corruption() {
    let (mut data, bytes) = sample_stream();
    // Truncations through the header and index sections.
    for cut in [0, 4, 17, 35, 36, 40, zsize_off(&bytes), payload_off(&bytes)] {
        let cut = cut.min(bytes.len());
        let _ = szx_core::inspect(&bytes[..cut]);
        assert!(
            StreamIndex::parse::<f32>(&bytes[..cut]).is_err(),
            "cut {cut}"
        );
    }
    // Out-of-range queries are errors or an empty walk, never panics; the
    // first two blocks are constant.
    data[..256].fill(5.0);
    let bytes = szx_core::compress(&data, &SzxConfig::absolute(1e-4)).unwrap();
    let index = StreamIndex::parse::<f32>(&bytes).unwrap();
    let n = data.len();
    for kernel in [KernelPath::Scalar, KernelPath::Kernel, KernelPath::Simd] {
        let mut decoder = Decoder::new(kernel, false);
        assert!(decoder
            .decode_range::<f32>(&index, &bytes[..], 60..50)
            .is_err());
        assert!(decoder
            .decode_range::<f32>(&index, &bytes[..], n - 1..n + 1)
            .is_err());
        assert!(decoder
            .decode_range::<f32>(&index, &bytes[..], usize::MAX - 1..usize::MAX)
            .is_err());
        let empty: Vec<f32> = decoder.decode_range(&index, &bytes[..], n..n).unwrap();
        assert!(empty.is_empty());
    }
    assert_eq!(index.blocks::<f32>(1).next(), Some((5.0, None)));
    assert_eq!(index.blocks::<f32>(index.num_blocks()).next(), None);
    assert_eq!(index.blocks::<f32>(usize::MAX).next(), None);
}

#[test]
fn every_single_byte_flip_in_a_container_is_detected() {
    // A flipped byte anywhere in a container — header, frame payload,
    // index or footer — must surface as an error when the container is
    // opened or when one of its frames is read. A frame that does decode
    // must reproduce the clean decode bit for bit: no plausible-looking
    // wrong floats.
    let wave = |n: usize, f: f32| -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * f).sin() * 10.0 + (i as f32 * 0.37).cos())
            .collect()
    };
    let frames = [
        ("pressure", wave(600, 0.01)),
        ("T", wave(130, 0.3)),
        ("velocity-x", wave(900, 0.07)),
    ];
    let mut w = ContainerWriter::new(Vec::new(), SzxConfig::absolute(1e-4)).unwrap();
    for (name, data) in &frames {
        w.push(name, data).unwrap();
    }
    let container = w.finish().unwrap();
    let clean = ContainerReader::new(&container).unwrap();
    let reference: Vec<Vec<u32>> = (0..frames.len())
        .map(|i| {
            let v: Vec<f32> = clean.frame(i).unwrap();
            v.iter().map(|x| x.to_bits()).collect()
        })
        .collect();
    // Each frame's stream bytes: a flip there fails the frame's CRC, and
    // that mismatch is the error, whatever else the flip broke.
    let spans: Vec<std::ops::Range<usize>> = (0..frames.len())
        .map(|i| {
            let stream = clean.frame_bytes(i).unwrap();
            let start = stream.as_ptr() as usize - container.as_ptr() as usize;
            start..start + stream.len()
        })
        .collect();

    let mut flips = 0usize;
    for at in 0..container.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            flips += 1;
            let mut bad = container.clone();
            bad[at] ^= mask;
            let Ok(r) = ContainerReader::new(&bad) else {
                continue;
            };
            let mut detected = false;
            for (i, want) in reference.iter().enumerate() {
                match r.frame::<f32>(i) {
                    Err(e) => {
                        detected = true;
                        if spans[i].contains(&at) {
                            let e = e.to_string();
                            assert!(e.contains("checksum mismatch"), "flip at {at}: {e}");
                        }
                    }
                    Ok(v) => assert!(
                        v.iter().map(|x| x.to_bits()).eq(want.iter().copied()),
                        "flip {mask:#04x} at byte {at}: frame {i} decoded to wrong floats"
                    ),
                }
            }
            assert!(detected, "flip {mask:#04x} at byte {at} went undetected");
        }
    }
    assert_eq!(flips, 3 * container.len());
}

/// A container around `index` (count included) whose footer carries a
/// valid index CRC, so only the index contents are hostile.
fn forge_container(index: &[u8]) -> Vec<u8> {
    use szx_core::container::{crc32c, MAGIC, VERSION};
    let mut out = MAGIC.to_vec();
    out.push(VERSION);
    out.extend_from_slice(index);
    out.extend_from_slice(&crc32c(index).to_le_bytes());
    out.extend_from_slice(&(index.len() as u64).to_le_bytes());
    out.extend_from_slice(&MAGIC);
    out
}

#[test]
fn hostile_index_counts_error_before_allocating() {
    // Had the parser reserved entries from the count field, u32::MAX
    // entries would request hundreds of GB and abort the test process; the
    // count is bounded by the index bytes present instead.
    let mut index = u32::MAX.to_le_bytes().to_vec();
    index.extend_from_slice(&[0x11; 7]);
    let huge = forge_container(&index);
    assert_eq!(huge.len(), 32);
    let err = ContainerReader::new(&huge)
        .err()
        .expect("huge count rejected");
    assert!(err.to_string().contains("implausible frame count"), "{err}");

    // One entry whose name length runs past the end of the index. (In 32
    // bytes any nonzero count is already implausible, so this index holds
    // one minimal entry's worth of bytes.)
    let mut index = 1u32.to_le_bytes().to_vec();
    index.extend_from_slice(&1000u16.to_le_bytes());
    index.extend_from_slice(b"twelve bytes");
    let long_name = forge_container(&index);
    let err = ContainerReader::new(&long_name)
        .err()
        .expect("overlong name rejected");
    assert!(
        err.to_string().contains("name runs past the index"),
        "{err}"
    );
}
