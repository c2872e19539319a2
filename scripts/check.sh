#!/usr/bin/env bash
# Tier-1 gate, fully offline: everything resolves against the in-repo
# shims (see shims/README.md), so no network or registry access is needed.
#
#   scripts/check.sh            # build + tests + release property/kernel
#                               # equivalence suite + fmt + clippy + audit
#   scripts/check.sh --quick    # tier-1 subset: build + debug tests +
#                               # release decode-equivalence subset + audit
#   scripts/check.sh --fast     # alias for --quick (kept for muscle memory)
#   scripts/check.sh --audit    # just the szx-audit static-analysis pass,
#                               # refreshing results/AUDIT.json
#   scripts/check.sh --fuzz     # long differential fuzz campaign (in-tree
#                               # engine), minimized findings saved to
#                               # tests/corpus/; FUZZ_SECS / FUZZ_SEED /
#                               # FUZZ_ITERS tune the budget
#   scripts/check.sh --sanitize # nightly-only ASan (and TSan when rust-src
#                               # is installed) over the unsafe surface;
#                               # skips gracefully when nightly is absent
#
# Run from anywhere; the script cd's to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Keep cargo away from the network: the workspace pins every external
# dependency to a local path shim, so an offline build must succeed.
export CARGO_NET_OFFLINE=true

# In-tree static analysis (crates/szx-audit) of what no compiler checks:
# call-graph panic reachability from the decode entry points (full call
# chains in the output), hot-loop allocation, checked parse-path
# arithmetic, the trace-buffer atomics protocol and guarded
# `#[target_feature]` calls. Prints per-rule finding counts, exits
# non-zero on any finding, refreshes the committed report (CI diffs it for
# freshness), and writes a SARIF 2.1.0 report for code-scanning upload.
run_audit() {
    echo "==> szx-audit (panic-reach/alloc/arith/atomics/target-feature audit)"
    mkdir -p target
    cargo run -q --release -p szx-audit -- \
        --json results/AUDIT.json --sarif target/AUDIT.sarif
}

# Metrics-exposition smoke: one tiny compress with every observability
# artifact requested must yield a Prometheus exposition, a JSON-lines event
# log, and a run manifest the observatory comparator accepts (compared
# against itself: zero regressions, exit 0).
#
# Every step checks its own exit status instead of leaning on `set -e`:
# `set -e` is silently disabled inside a function invoked from any guarded
# context (`if run_obs_smoke`, `run_obs_smoke || ...`), which once let a
# partially built target dir run a stale szx-cli binary, fail the schema
# validate, and still report the gate green. The explicit up-front build
# also guarantees `cargo run -q` below executes today's binaries, not
# whatever an interrupted earlier build left behind.
run_obs_smoke() {
    echo "==> szx metrics-exposition smoke"
    local dir
    dir="$(mktemp -d)"
    obs_fail() {
        echo "==> FAIL obs smoke: $1" >&2
        rm -rf "$dir"
        exit 1
    }
    cargo build -q --release -p szx-cli -p bench \
        || obs_fail "building szx-cli/bench"
    cargo run -q --release -p szx-cli -- gen cesm "$dir/fields" --scale tiny >/dev/null \
        || obs_fail "generating tiny CESM fields"
    local field
    field="$(find "$dir/fields" -name '*.f32' | sort | head -1)"
    [[ -n "$field" ]] || obs_fail "no .f32 field generated"
    cargo run -q --release -p szx-cli -- compress "$field" "$dir/out.szx" \
        --abs 1e-3 --metrics "$dir/m.prom" --events "$dir/e.jsonl" \
        --manifest "$dir/run.json" >/dev/null \
        || obs_fail "compress with observability artifacts"
    grep -q '^# TYPE szx_compress_bytes_raw_total counter$' "$dir/m.prom" \
        || obs_fail "metrics exposition missing bytes_raw counter"
    grep -q '^# TYPE szx_process_peak_rss_bytes gauge$' "$dir/m.prom" \
        || obs_fail "metrics exposition missing peak-RSS gauge"
    grep -q '"event":"run.start"' "$dir/e.jsonl" \
        || obs_fail "event log missing run.start"
    cargo run -q --release -p bench --bin observatory -- \
        validate "$dir/run.json" >/dev/null \
        || obs_fail "observatory schema validate"
    cargo run -q --release -p bench --bin observatory -- \
        compare "$dir/run.json" "$dir/run.json" \
        || obs_fail "observatory self-compare"
    rm -rf "$dir"
}

# Profiler smoke: compress ~16 MB of CESM data with --profile, then
# decompress it with --profile, and check the folded output. The stacks are
# the spans' exact self time, so every stage that ran is in them however
# short it was, and the zone checks below are deterministic.
run_profile_smoke() {
    echo "==> szx profiler smoke (--profile on ~16 MB CESM)"
    local dir
    dir="$(mktemp -d)"
    prof_fail() {
        echo "==> FAIL profile smoke: $1" >&2
        rm -rf "$dir"
        exit 1
    }
    cargo build -q --release -p szx-cli \
        || prof_fail "building szx-cli"
    cargo run -q --release -p szx-cli -- gen cesm "$dir/fields" --scale large >/dev/null \
        || prof_fail "generating large CESM fields"
    # head reads from a process substitution rather than a pipeline: the
    # suite is far bigger than 16 MB, so a `cat | head -c` pipeline always
    # ends in cat taking SIGPIPE, which `set -o pipefail` (correctly)
    # reports as failure.
    head -c 16000000 <(cat "$dir"/fields/*.f32) > "$dir/big.f32" \
        || prof_fail "assembling 16 MB input"
    cargo run -q --release -p szx-cli -- \
        compress "$dir/big.f32" "$dir/out.szx" --abs 1e-3 \
        --profile "$dir/p.folded" --profile-svg "$dir/p.svg" >/dev/null \
        || prof_fail "compress with --profile"
    cargo run -q --release -p szx-cli -- \
        decompress "$dir/out.szx" "$dir/out.f32" --profile "$dir/d.folded" >/dev/null \
        || prof_fail "decompress with --profile"
    [[ -s "$dir/p.folded" ]] \
        || prof_fail "folded profile is empty"
    grep -Eq '^[^ ]+ [0-9]+$' "$dir/p.folded" \
        || prof_fail "folded profile is not in collapsed-stack format"
    grep -q '</svg>' "$dir/p.svg" \
        || prof_fail "SVG flamegraph is truncated"
    # On hosts with the ISA extension the default path is the explicit SIMD
    # one, and it must show up in the profile under its own zone — that
    # attribution is how a perf regression in dispatch (silently falling
    # back to the portable kernel) becomes visible. Skipped elsewhere: the
    # portable kernel is the default there and no simd zone can exist.
    if grep -q '^flags.* avx2' /proc/cpuinfo 2>/dev/null; then
        grep -q 'compress\.simd\.encode' "$dir/p.folded" \
            || prof_fail "no compress.simd.encode zone in the folded profile (simd dispatch fell back?)"
        grep -q 'decompress\.simd\.decode' "$dir/d.folded" \
            || prof_fail "no decompress.simd.decode zone in the folded profile (simd dispatch fell back?)"
    fi
    rm -rf "$dir"
}

# SIMD equivalence gate: the explicit AVX2/NEON path must be byte-identical
# to the portable kernel and the scalar oracle — same compressed stream,
# same decode bits, same error messages. Release mode only: the intrinsic
# kernels and the autovectorized portable kernels both need optimizations
# to exercise their real codegen. The scalar × kernel × simd matrix over
# these shapes is `tests/tests/windowed_codec.rs`; here the CLI end to end
# `cmp`s the default path against SZX_DISABLE_SIMD=1 (the portable kernels
# and the table CRC32C), each serial and --parallel on RAYON_NUM_THREADS=1
# to 4.
run_simd_equivalence() {
    echo "==> SIMD equivalence (scalar vs kernel vs simd, default vs SZX_DISABLE_SIMD=1, serial vs parallel, release)"
    cargo test -q --release -p szx-core simd \
        || { echo "==> FAIL szx-core simd equivalence tests" >&2; exit 1; }
    # The encode-identity tests once more with the override set, where the
    # detected default path is the portable kernel.
    SZX_DISABLE_SIMD=1 cargo test -q --release -p szx-core -- identical parallel_stream_equals \
        || { echo "==> FAIL encode identity tests under SZX_DISABLE_SIMD=1" >&2; exit 1; }
    cargo test -q --release -p szx-integration-tests --test simd_dispatch \
        || { echo "==> FAIL simd dispatch integration tests" >&2; exit 1; }
    local dir
    dir="$(mktemp -d)"
    simd_fail() {
        echo "==> FAIL simd equivalence: $1" >&2
        rm -rf "$dir"
        exit 1
    }
    cargo build -q --release -p szx-cli \
        || simd_fail "building szx-cli"
    cargo run -q --release -p szx-cli -- gen cesm "$dir/fields" --scale small >/dev/null \
        || simd_fail "generating small CESM fields"
    local field
    field="$(find "$dir/fields" -name '*.f32' | sort | head -1)"
    [[ -n "$field" ]] || simd_fail "no .f32 field generated"
    # One small field (405 000 bytes) fits in one 512 KiB window; the
    # concatenation of 30 spans more than 16, so its cmp crosses window
    # boundaries in both directions.
    find "$dir/fields" -name '*.f32' | sort | head -30 | xargs cat >"$dir/multi.f32" \
        || simd_fail "concatenating fields"
    (($(stat -c %s "$dir/multi.f32") > 8 * 1024 * 1024)) \
        || simd_fail "concatenated input is not larger than 8 MiB"
    # Zeros of both signs and NaNs, f32 and f64, over several windows: the
    # zero extreme a relative bound's range scan meets lands in different
    # accumulators of the SIMD min/max, whose result every path must share.
    python3 - "$dir/mixed" <<'PY' || simd_fail "writing the mixed-zero inputs"
import math, struct, sys
n = 400_000
vals = []
for i in range(n):
    if i % 10_007 == 5:
        v = math.nan
    elif (i // 5_000) % 3 == 0:
        v = -0.0 if i * 7 % 3 == 0 else 0.0
    else:
        v = abs(50 * math.sin(i * 1e-3) + 0.3 * math.cos(i * 0.037))
    vals.append(v)
for code in "fd":
    with open(f"{sys.argv[1]}.{'f32' if code == 'f' else 'f64'}", "wb") as f:
        f.write(struct.pack(f"<{n}{code}", *vals))
PY
    (($(stat -c %s "$dir/mixed.f32") > 3 * 512 * 1024)) \
        || simd_fail "the mixed-zero input spans fewer than four windows"
    # SCALE-LetKF T at REL 1e-3 is almost all nb = 2 non-constant blocks,
    # the lead-clamp path of the decode kernels.
    cargo run -q --release -p szx-cli -- gen scale "$dir/scale" --scale small >/dev/null \
        || simd_fail "generating small SCALE-LetKF fields"
    [[ -f "$dir/scale/T.f32" ]] || simd_fail "no SCALE-LetKF T field generated"
    # Its first 100003 values: not a multiple of 4, so the last block (35
    # values) ends in a ragged quad.
    head -c 400012 "$dir/scale/T.f32" >"$dir/scale/T-ragged.f32" \
        || simd_fail "cutting the ragged input"
    local input bound sel off threads
    for input in "$field" "$dir/multi.f32" "$dir/scale/T.f32" "$dir/scale/T-ragged.f32" \
        "$dir/mixed.f32" "$dir/mixed.f64"; do
        bound=(--abs 1e-3)
        if [[ "$input" == "$dir/scale/"* || "$input" == "$dir/mixed."* ]]; then
            bound=(--rel 1e-3)
        fi
        if [[ "$input" == *.f64 ]]; then
            bound+=(--f64)
        fi
        # SZX_DISABLE_SIMD="" is unset: the default path.
        for sel in default nosimd; do
            off=""
            [[ "$sel" == nosimd ]] && off=1
            SZX_DISABLE_SIMD=$off cargo run -q --release -p szx-cli -- compress "$input" \
                "$dir/$sel.szx" "${bound[@]}" >/dev/null \
                || simd_fail "compress ($sel)"
            SZX_DISABLE_SIMD=$off cargo run -q --release -p szx-cli -- decompress \
                "$dir/$sel.szx" "$dir/$sel.f32" >/dev/null \
                || simd_fail "decompress ($sel)"
            # Serial and --parallel are one codec: the pool's threads claim
            # whole windows, so on any pool size (1 to 4, more than a
            # 2-core runner has) and in any claim order the parallel stream
            # and decode must equal the serial files bytewise.
            for threads in 1 2 3 4; do
                SZX_DISABLE_SIMD=$off RAYON_NUM_THREADS=$threads cargo run -q --release \
                    -p szx-cli -- compress "$input" "$dir/par.szx" "${bound[@]}" --parallel \
                    >/dev/null \
                    || simd_fail "compress --parallel ($sel, $threads threads)"
                SZX_DISABLE_SIMD=$off RAYON_NUM_THREADS=$threads cargo run -q --release \
                    -p szx-cli -- decompress "$dir/par.szx" "$dir/par.f32" --parallel \
                    >/dev/null \
                    || simd_fail "decompress --parallel ($sel, $threads threads)"
                cmp -s "$dir/$sel.szx" "$dir/par.szx" \
                    || simd_fail "$sel serial and $threads-thread streams differ ($input)"
                cmp -s "$dir/$sel.f32" "$dir/par.f32" \
                    || simd_fail "$sel serial and $threads-thread decodes differ ($input)"
            done
        done
        cmp -s "$dir/default.szx" "$dir/nosimd.szx" \
            || simd_fail "SZX_DISABLE_SIMD=1 and default files differ ($input)"
        cmp -s "$dir/default.f32" "$dir/nosimd.f32" \
            || simd_fail "SZX_DISABLE_SIMD=1 and default decodes differ bitwise ($input)"
    done
    # decompress inverts stream: all frames in order, the concatenation of
    # every frame's extract (25 frames of one small field).
    cargo run -q --release -p szx-cli -- stream "$field" "$dir/s.szx" \
        --abs 1e-3 --frame 4096 >/dev/null \
        || simd_fail "stream --frame 4096"
    cargo run -q --release -p szx-cli -- decompress "$dir/s.szx" "$dir/s.f32" >/dev/null \
        || simd_fail "decompress of a stream"
    local frames k
    frames="$(cargo run -q --release -p szx-cli -- list "$dir/s.szx" | tail -n +2 | wc -l)"
    ((frames > 1)) || simd_fail "stream wrote $frames frames"
    : >"$dir/s-extracts.f32"
    for ((k = 0; k < frames; k++)); do
        cargo run -q --release -p szx-cli -- extract "$dir/s.szx" "$k" "$dir/frame.f32" >/dev/null \
            || simd_fail "extract of frame $k"
        cat "$dir/frame.f32" >>"$dir/s-extracts.f32"
    done
    cmp -s "$dir/s.f32" "$dir/s-extracts.f32" \
        || simd_fail "decompress of a stream differs from its extracts concatenated"
    rm -rf "$dir"
}

# AVX-512 coder disassembly: the release `szx` must keep each step's
# one-instruction commit — `vpcompressb` in the AVX-512 encode, `vpexpandb`
# in its decode. A missing one means the step was not inlined or the
# intrinsic lowered to something else. Skipped without objdump or off x86-64.
run_disasm_check() {
    echo "==> AVX-512 coder disassembly (vpcompressb / vpexpandb)"
    if [[ "$(uname -m)" != x86_64 ]]; then
        echo "==> SKIP disassembly check: not an x86-64 host"
        return
    fi
    if ! command -v objdump >/dev/null; then
        echo "==> SKIP disassembly check: objdump is not installed"
        return
    fi
    local asm fn insn
    asm="$(mktemp)"
    objdump -d --no-show-raw-insn target/release/szx >"$asm" \
        || { rm -f "$asm"; echo "==> FAIL objdump of target/release/szx" >&2; exit 1; }
    for pair in "encode_block_f32_avx512 vpcompressb" "decode_block_f32_avx512 vpexpandb"; do
        read -r fn insn <<<"$pair"
        # The function's own body runs from its symbol line to the next
        # one; the mnemonic is an instruction line's second field.
        awk -v fn="$fn" -v insn="$insn" '
            /^[0-9a-f]+ <.*>:$/ { inside = index($0, fn) > 0 }
            inside && $2 == insn { found = 1 }
            END { exit !found }' "$asm" \
            || { rm -f "$asm"; echo "==> FAIL $fn holds no $insn" >&2; exit 1; }
    done
    rm -f "$asm"
}

# Bounded differential fuzz smoke (fixed seed, deterministic): replay the
# committed corpus, then a short mutation campaign per target. Any finding
# — panic, decode-path divergence, or bound violation — exits nonzero.
run_fuzz_smoke() {
    echo "==> szx-fuzz differential smoke (fixed seed, bounded)"
    cargo run -q --release -p szx-fuzz -- smoke --corpus tests/corpus \
        --seed 12648430 --iters 400 --time-secs 30 \
        || { echo "==> FAIL fuzz smoke" >&2; exit 1; }
}

if [[ "${1:-}" == "--audit" ]]; then
    run_audit
    echo "==> OK (audit only)"
    exit 0
fi

if [[ "${1:-}" == "--fuzz" ]]; then
    # Long campaign: all three targets, minimized findings written straight
    # into tests/corpus/ (commit them — fuzz_regressions.rs replays them
    # forever after). Deterministic for a given FUZZ_SEED.
    secs="${FUZZ_SECS:-600}"
    seed="${FUZZ_SEED:-1}"
    iters="${FUZZ_ITERS:-2000000}"
    echo "==> szx-fuzz long campaign (seed=$seed, ${secs}s/target budget)"
    cargo build -q --release -p szx-fuzz
    cargo run -q --release -p szx-fuzz -- run all --corpus tests/corpus \
        --seed "$seed" --iters "$iters" --time-secs "$secs" \
        --save-dir tests/corpus \
        || { echo "==> findings saved to tests/corpus/ — minimize done," \
                  "commit them and fix the bug" >&2; exit 1; }
    echo "==> OK (fuzz campaign clean)"
    exit 0
fi

if [[ "${1:-}" == "--sanitize" ]]; then
    # Sanitizers need -Z flags, hence nightly. The container images this
    # repo builds in do not always carry a nightly toolchain (or the
    # rust-src component TSan's -Zbuild-std needs), so every missing piece
    # downgrades to an explicit skip instead of a failure.
    if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
        echo "==> SKIP --sanitize: no nightly toolchain installed"
        exit 0
    fi
    target="$(rustc -vV | sed -n 's/^host: //p')"
    # --lib --tests: doctest binaries fail to link the sanitizer runtime.
    #
    # The SIMD module is the workspace's largest unsafe surface — raw
    # intrinsic loads/stores, overlapping 8-byte commits, gather-style
    # provider reconstruction — so it gets a dedicated focused pass first
    # (fast signal, precise attribution), then the broad crate run covers
    # everything else.
    echo "==> AddressSanitizer over the SIMD kernels (nightly, ${target})"
    RUSTFLAGS="-Zsanitizer=address" \
        cargo +nightly test -q --target "$target" --lib \
        -p szx-core simd
    echo "==> AddressSanitizer (nightly, ${target})"
    RUSTFLAGS="-Zsanitizer=address" \
        cargo +nightly test -q --target "$target" --lib --tests \
        -p szx-telemetry -p szx-core
    if rustup component list --toolchain nightly --installed 2>/dev/null \
        | grep -q '^rust-src'; then
        echo "==> ThreadSanitizer (nightly, -Zbuild-std, ${target})"
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -q -Zbuild-std --target "$target" \
            --lib --tests -p szx-telemetry
    else
        echo "==> SKIP ThreadSanitizer: rust-src component not installed"
    fi
    echo "==> OK (sanitize)"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

if [[ "${1:-}" != "--fast" && "${1:-}" != "--quick" ]]; then
    run_disasm_check
fi

if [[ "${1:-}" == "--fast" || "${1:-}" == "--quick" ]]; then
    # The decode kernel only matters under optimizations (overlapping loads,
    # autovectorized assembly sweep), so even the quick gate runs the
    # scalar-vs-kernel decode equivalence subset in release mode.
    echo "==> cargo test --release (decode kernel equivalence subset)"
    cargo test -q --release -p szx-core dekernels
    cargo test -q --release -p szx-integration-tests \
        --test roundtrip_properties --test fuzz_regressions
    run_simd_equivalence
    run_audit
    run_obs_smoke
    run_profile_smoke
    run_fuzz_smoke
    echo "==> OK (quick: skipped full release suites, fmt, clippy)"
    exit 0
fi

# The scalar-vs-kernel equivalence and roundtrip property suites again in
# release mode: autovectorization only kicks in with optimizations, so this
# is the build that actually exercises the branch-free kernel codegen.
echo "==> cargo test --release (kernel equivalence + properties)"
cargo test -q --release -p szx-core kernels
cargo test -q --release -p szx-core dekernels
cargo test -q --release -p szx-integration-tests \
    --test roundtrip_properties --test edge_cases \
    --test corrupt_archive --test scratch_allocation \
    --test fuzz_regressions

run_simd_equivalence

echo "==> cargo fmt --check"
cargo fmt --all --check

# Lint every workspace member. The manifests' `[lints]` tables carry the
# unsafe-code policy (where unsafe code may live, a `SAFETY:` comment on
# each unsafe block) and the kernel modules deny unannotated narrowing
# casts; -D warnings keeps the gate binary (a finding fails the script,
# not just prints), and a stale `#[expect]` fails it too.
echo "==> cargo clippy -D warnings"
cargo clippy --release --workspace --all-targets -- -D warnings

run_audit

# Observatory smoke: a tiny sweep must bootstrap BENCH_0.json, validate
# against the schema, and a second identical sweep must pass the gate
# (throughput ignored — CI timing is noisy; ratio/PSNR are deterministic).
echo "==> bench observatory smoke (tiny)"
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
obs() { cargo run -q --release -p bench --bin observatory -- "$@"; }
obs run --scale tiny --samples 1 --fields 1 --bounds 1e-3 \
    --out-dir "$obs_dir" --quiet
obs validate "$obs_dir/BENCH_0.json"
obs run --scale tiny --samples 1 --fields 1 --bounds 1e-3 \
    --out-dir "$obs_dir" --quiet --ignore-throughput

run_obs_smoke

run_profile_smoke

run_fuzz_smoke

echo "==> OK"
