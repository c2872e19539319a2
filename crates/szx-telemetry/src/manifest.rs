//! Run manifests: one versioned JSON document per run tying the
//! configuration (bound, mode, kernel, threads), the dataset identity
//! (path, size, FNV-1a digest), the final metrics snapshot, and the
//! measured quality numbers together — the durable record the bench
//! observatory ingests alongside its own `BENCH_<n>.json` reports.
//!
//! ## Schema v1
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "kind": "szx_run_manifest",
//!   "command": "compress",
//!   "created_unix_ms": 1700000000000,
//!   "config":  { "bound": 1e-3, "mode": "abs", "kernel": "auto", "threads": 8 },
//!   "dataset": { "path": "cldhgh.f32", "bytes": 26218800,
//!                "digest_fnv1a64": "a1b2c3d4e5f60789" },
//!   "metrics": { "spans": {…}, "counters": {…}, "hists": {…},
//!                "gauges": {…}, "derived": {…} },
//!   "quality": { "ratio": 8.4, "psnr_db": 84.2, "max_abs_err": 9.9e-4 }
//! }
//! ```
//!
//! `config`/`quality` member sets are open (renderers must ignore unknown
//! keys); the *required* top-level keys are what [`Manifest::validate`]
//! checks. Unknown top-level keys are likewise allowed — v1 consumers must
//! skip what they don't know so v1.x producers can extend the record.

use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::report::{render_jsonl, Report, Value};

/// Bumped only on breaking changes; see the module docs for the v1 shape.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;
/// Discriminator so a manifest is recognizable among other JSON artifacts.
pub const MANIFEST_KIND: &str = "szx_run_manifest";

/// 64-bit FNV-1a over `bytes` — the dataset digest. Not cryptographic;
/// meant to catch "same path, different contents" across bench runs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// Incremental [`fnv1a64`]: `update` with consecutive pieces of the data
/// (any split gives the same digest), then `finish`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    pub fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::U64(x) => Json::Num(*x as f64),
        Value::F64(x) => Json::Num(*x),
        Value::Str(s) => Json::Str(s.clone()),
    }
}

/// Builder for a schema-v1 run manifest. Construct with [`new`](Self::new),
/// fill the sections, then [`render`](Self::render) to a JSON document.
pub struct Manifest {
    members: Vec<(String, Json)>,
}

impl Manifest {
    pub fn new(command: &str) -> Manifest {
        let created_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Manifest {
            members: vec![
                (
                    "schema_version".into(),
                    Json::Num(MANIFEST_SCHEMA_VERSION as f64),
                ),
                ("kind".into(), Json::Str(MANIFEST_KIND.into())),
                ("command".into(), Json::Str(command.into())),
                ("created_unix_ms".into(), Json::Num(created_ms as f64)),
                ("config".into(), Json::Obj(Vec::new())),
                (
                    "dataset".into(),
                    Json::Obj(vec![
                        ("path".into(), Json::Str(String::new())),
                        ("bytes".into(), Json::Num(0.0)),
                        ("digest_fnv1a64".into(), Json::Str(String::new())),
                    ]),
                ),
                ("metrics".into(), Json::Obj(Vec::new())),
            ],
        }
    }

    /// Insert or replace a top-level member.
    pub fn set(&mut self, key: &str, v: Json) {
        if let Some(slot) = self.members.iter_mut().find(|(k, _)| k == key) {
            slot.1 = v;
        } else {
            self.members.push((key.to_string(), v));
        }
    }

    /// Replace the `config` object with these entries.
    pub fn set_config(&mut self, entries: &[(&str, Value)]) {
        self.set(
            "config",
            Json::Obj(
                entries
                    .iter()
                    .map(|(k, v)| (k.to_string(), value_to_json(v)))
                    .collect(),
            ),
        );
    }

    /// Record the dataset identity: path, byte length, FNV-1a digest
    /// (stored as 16 hex digits so 2^53-unsafe u64s survive the f64
    /// number model).
    pub fn set_dataset(&mut self, path: &str, bytes: u64, digest: u64) {
        self.set(
            "dataset",
            Json::Obj(vec![
                ("path".into(), Json::Str(path.into())),
                ("bytes".into(), Json::Num(bytes as f64)),
                ("digest_fnv1a64".into(), Json::Str(format!("{digest:016x}"))),
            ]),
        );
    }

    /// Embed a metrics snapshot (the JSON-lines report object, verbatim).
    pub fn set_metrics(&mut self, report: &Report) {
        let parsed = Json::parse(&render_jsonl(report))
            .expect("render_jsonl emits valid JSON by construction");
        self.set("metrics", parsed);
    }

    /// Replace the `quality` object (ratio, PSNR, max error, …).
    pub fn set_quality(&mut self, entries: &[(&str, Value)]) {
        self.set(
            "quality",
            Json::Obj(
                entries
                    .iter()
                    .map(|(k, v)| (k.to_string(), value_to_json(v)))
                    .collect(),
            ),
        );
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(self.members.clone())
    }

    /// Render the manifest document (compact JSON, one line).
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Check a parsed document against schema v1: kind/version must match
    /// exactly, required sections must be present with the right shapes.
    /// Unknown members pass (open schema).
    pub fn validate(j: &Json) -> Result<(), String> {
        let version = j
            .get("schema_version")
            .and_then(Json::as_f64)
            .ok_or("missing schema_version")?;
        if version != MANIFEST_SCHEMA_VERSION as f64 {
            return Err(format!("unsupported schema_version {version}"));
        }
        match j.get("kind").and_then(Json::as_str) {
            Some(MANIFEST_KIND) => {}
            other => return Err(format!("kind {other:?} != {MANIFEST_KIND:?}")),
        }
        j.get("command")
            .and_then(Json::as_str)
            .ok_or("missing command")?;
        j.get("config")
            .and_then(Json::as_obj)
            .ok_or("missing config object")?;
        let ds = j.get("dataset").ok_or("missing dataset object")?;
        ds.get("path")
            .and_then(Json::as_str)
            .ok_or("dataset.path")?;
        ds.get("bytes")
            .and_then(Json::as_f64)
            .ok_or("dataset.bytes")?;
        ds.get("digest_fnv1a64")
            .and_then(Json::as_str)
            .ok_or("dataset.digest_fnv1a64")?;
        j.get("metrics")
            .and_then(Json::as_obj)
            .ok_or("missing metrics object")?;
        Ok(())
    }

    /// Parse *and* validate a manifest document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let j = Json::parse(text)?;
        Self::validate(&j)?;
        Ok(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a64_any_split_gives_the_same_digest() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 37 % 251) as u8).collect();
        for piece in [1usize, 3, 64, 999, 1000] {
            let mut h = Fnv1a64::new();
            for p in data.chunks(piece) {
                h.update(p);
            }
            assert_eq!(h.finish(), fnv1a64(&data), "pieces of {piece}");
        }
    }

    fn sample() -> Manifest {
        let mut m = Manifest::new("compress");
        m.set_config(&[
            ("bound", Value::F64(1e-3)),
            ("mode", Value::Str("abs".into())),
            ("threads", Value::U64(4)),
        ]);
        m.set_dataset("cldhgh.f32", 26_218_800, 0xdead_beef_cafe_f00d);
        let mut r = Report::default();
        r.counters.push(("encode.blocks".into(), 42));
        m.set_metrics(&r);
        m.set_quality(&[("ratio", Value::F64(8.5)), ("psnr_db", Value::F64(84.25))]);
        m
    }

    #[test]
    fn roundtrip_through_in_tree_parser() {
        let m = sample();
        let text = m.render();
        let j = Manifest::parse(&text).expect("own output validates");
        assert_eq!(j.get("command").unwrap().as_str(), Some("compress"));
        assert_eq!(
            j.get("config").unwrap().get("bound").unwrap().as_f64(),
            Some(1e-3)
        );
        assert_eq!(
            j.get("dataset")
                .unwrap()
                .get("digest_fnv1a64")
                .unwrap()
                .as_str(),
            Some("deadbeefcafef00d")
        );
        assert_eq!(
            j.get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("encode.blocks")
                .unwrap()
                .as_f64(),
            Some(42.0)
        );
        assert_eq!(
            j.get("quality").unwrap().get("ratio").unwrap().as_f64(),
            Some(8.5)
        );
        // Render → parse → render must be a fixed point.
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn validate_rejects_wrong_version_kind_and_missing_sections() {
        let good = Json::parse(&sample().render()).unwrap();
        Manifest::validate(&good).unwrap();

        let mut wrong_version = sample();
        wrong_version.set("schema_version", Json::Num(2.0));
        assert!(Manifest::validate(&wrong_version.to_json()).is_err());

        let mut wrong_kind = sample();
        wrong_kind.set("kind", Json::Str("bench_report".into()));
        assert!(Manifest::validate(&wrong_kind.to_json()).is_err());

        for doc in ["{}", "[]", "{\"schema_version\":1}"] {
            assert!(Manifest::parse(doc).is_err(), "{doc} must not validate");
        }
    }

    #[test]
    fn unknown_members_are_allowed() {
        let mut m = sample();
        m.set("future_field", Json::Str("ok".into()));
        Manifest::validate(&m.to_json()).unwrap();
    }
}
