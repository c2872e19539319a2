//! libFuzzer wrapper for the container torture target: arbitrary bytes
//! through the container header, footer and index parser, then every frame
//! that passes its CRC, then the positional reader through a source that
//! fails from a fuzzed offset on — errors allowed, panics and cross-path
//! divergence are findings.
#![no_main]

use libfuzzer_sys::fuzz_target;

fuzz_target!(|data: &[u8]| {
    if let Err(failure) = szx_fuzz::run_target(szx_fuzz::FuzzTarget::Container, data) {
        panic!("{failure}");
    }
});
