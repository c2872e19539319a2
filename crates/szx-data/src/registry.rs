//! The six applications of the paper's Table 2 and how to generate their
//! synthetic stand-ins.

use crate::apps;
use crate::fields::Dataset;

/// The applications evaluated in the paper (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Application {
    /// CESM-ATM: 77 2-D atmosphere fields, 1800×3600.
    CesmAtm,
    /// Hurricane ISABEL: 13 3-D fields, 100×500×500.
    Hurricane,
    /// Miranda large-eddy simulation: 7 3-D fields, 256×384×384.
    Miranda,
    /// Nyx cosmology: 6 3-D fields, 512×512×512.
    Nyx,
    /// QMCPack electronic structure: 2 fields, 288×115×69×69.
    QmcPack,
    /// SCALE-LetKF weather: 12 3-D fields, 98×1200×1200.
    ScaleLetkf,
}

impl Application {
    /// All six, in the paper's table order.
    pub const ALL: [Application; 6] = [
        Application::CesmAtm,
        Application::Hurricane,
        Application::Miranda,
        Application::Nyx,
        Application::QmcPack,
        Application::ScaleLetkf,
    ];

    /// Short name as used in the paper's tables.
    pub fn short_name(self) -> &'static str {
        match self {
            Application::CesmAtm => "CESM",
            Application::Hurricane => "Hurricane",
            Application::Miranda => "Miranda",
            Application::Nyx => "NYX",
            Application::QmcPack => "QMCPACK",
            Application::ScaleLetkf => "SCALE",
        }
    }

    /// Table 2 metadata: (field count, full dims `[nx, ny, nz]`, description).
    pub fn spec(self) -> (usize, [usize; 3], &'static str) {
        match self {
            Application::CesmAtm => (
                77,
                [3600, 1800, 1],
                "Atmosphere simulation of Community Earth System Model",
            ),
            Application::Hurricane => (13, [500, 500, 100], "simulation of Hurricane ISABEL"),
            Application::Miranda => (
                7,
                [384, 384, 256],
                "large-eddy simulation of multi-component flows with turbulent mixing",
            ),
            Application::Nyx => (
                6,
                [512, 512, 512],
                "adaptive mesh, massively parallel cosmological simulation",
            ),
            Application::QmcPack => (
                2,
                [69, 69, 115 * 288],
                "simulation for electronic structure of atoms, molecules and solids",
            ),
            Application::ScaleLetkf => (
                12,
                [1200, 1200, 98],
                "SCALE-RM weather simulation based on LETKF filter",
            ),
        }
    }

    /// Generate the synthetic dataset at the given scale with all fields.
    pub fn generate(self, scale: Scale, seed: u64) -> Dataset {
        self.generate_limited(scale, seed, usize::MAX)
    }

    /// Generate at most `max_fields` fields (cheaper sweeps).
    pub fn generate_limited(self, scale: Scale, seed: u64, max_fields: usize) -> Dataset {
        let mut ds = match self {
            Application::CesmAtm => apps::cesm::generate(scale, seed, max_fields),
            Application::Hurricane => apps::hurricane::generate(scale, seed, max_fields),
            Application::Miranda => apps::miranda::generate(scale, seed, max_fields),
            Application::Nyx => apps::nyx::generate(scale, seed, max_fields),
            Application::QmcPack => apps::qmcpack::generate(scale, seed, max_fields),
            Application::ScaleLetkf => apps::scale_letkf::generate(scale, seed, max_fields),
        };
        ds.name = self.short_name().to_string();
        ds
    }

    /// A small deterministic value sample for fuzz-corpus seeding: the
    /// first `n` values of the application's first tiny-scale field (fixed
    /// seed 1), padded by cycling when the field is shorter than `n`. The
    /// fuzzing harness (`crates/szx-fuzz`) compresses these into its seed
    /// corpus so mutation starts from each application's real value
    /// statistics instead of white noise.
    pub fn fuzz_seed_values(self, n: usize) -> Vec<f32> {
        let ds = self.generate_limited(Scale::Tiny, 1, 1);
        let data: &[f32] = match ds.fields.first() {
            Some(field) if !field.data.is_empty() => &field.data,
            _ => &[0.0],
        };
        (0..n).map(|i| data[i % data.len()]).collect()
    }
}

/// Spatial scale of the generated grids. The full Table 2 dimensions are
/// divided by the factor along every axis (min 8 samples per axis), keeping
/// the local smoothness statistics — and hence compressibility — intact
/// while making everything laptop-runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Divide each axis by 16 (unit tests).
    Tiny,
    /// Divide each axis by 8 (quick experiments; the default).
    Small,
    /// Divide each axis by 4 (throughput benchmarks).
    Medium,
    /// Divide each axis by 2.
    Large,
    /// The paper's full dimensions.
    Full,
}

impl Scale {
    /// Every scale, smallest grids first.
    const ALL: [Scale; 5] = [
        Scale::Tiny,
        Scale::Small,
        Scale::Medium,
        Scale::Large,
        Scale::Full,
    ];

    /// The scale's name on command lines, in `SZX_SCALE` and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
            Scale::Full => "full",
        }
    }

    /// The scale [`Scale::name`] calls `name`, if any.
    pub fn parse(name: &str) -> Option<Scale> {
        Scale::ALL.into_iter().find(|s| s.name() == name)
    }

    pub fn factor(self) -> usize {
        match self {
            Scale::Tiny => 16,
            Scale::Small => 8,
            Scale::Medium => 4,
            Scale::Large => 2,
            Scale::Full => 1,
        }
    }

    /// Apply to a dimension triple.
    pub fn apply(self, dims: [usize; 3]) -> [usize; 3] {
        let f = self.factor();
        let shrink = |d: usize| if d == 1 { 1 } else { (d / f).max(8) };
        [shrink(dims[0]), shrink(dims[1]), shrink(dims[2])]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_round_trip() {
        for s in Scale::ALL {
            assert_eq!(Scale::parse(s.name()), Some(s));
        }
        assert_eq!(Scale::parse("tinyy"), None);
        assert_eq!(Scale::parse(""), None);
    }

    #[test]
    fn specs_match_table_2() {
        assert_eq!(Application::CesmAtm.spec().0, 77);
        assert_eq!(Application::Hurricane.spec().0, 13);
        assert_eq!(Application::Miranda.spec().0, 7);
        assert_eq!(Application::Nyx.spec().0, 6);
        assert_eq!(Application::QmcPack.spec().0, 2);
        assert_eq!(Application::ScaleLetkf.spec().0, 12);
        assert_eq!(Application::Nyx.spec().1, [512, 512, 512]);
    }

    #[test]
    fn scale_shrinks_dims() {
        assert_eq!(Scale::Small.apply([512, 512, 512]), [64, 64, 64]);
        assert_eq!(Scale::Full.apply([512, 512, 512]), [512, 512, 512]);
        assert_eq!(
            Scale::Tiny.apply([100, 1, 1]),
            [8, 1, 1],
            "floor and keep 1s"
        );
    }

    #[test]
    fn every_app_generates_with_right_field_counts() {
        for app in Application::ALL {
            let ds = app.generate(Scale::Tiny, 1);
            assert_eq!(ds.fields.len(), app.spec().0, "{}", app.short_name());
            assert_eq!(ds.name, app.short_name());
            for f in &ds.fields {
                assert!(!f.data.is_empty(), "{} / {}", ds.name, f.name);
                assert!(
                    f.data.iter().all(|v| v.is_finite()),
                    "{} / {} has non-finite values",
                    ds.name,
                    f.name
                );
            }
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let a = Application::Miranda.generate(Scale::Tiny, 7);
        let b = Application::Miranda.generate(Scale::Tiny, 7);
        let c = Application::Miranda.generate(Scale::Tiny, 8);
        assert_eq!(a.fields[0].data, b.fields[0].data);
        assert_ne!(a.fields[0].data, c.fields[0].data);
    }

    #[test]
    fn limited_generation_truncates() {
        let ds = Application::CesmAtm.generate_limited(Scale::Tiny, 1, 5);
        assert_eq!(ds.fields.len(), 5);
    }

    #[test]
    fn figure_reference_fields_exist() {
        // Fields that paper figures cite by name must exist.
        let checks: [(Application, &[&str]); 6] = [
            (Application::CesmAtm, &["CLDHGH", "PHIS"]),
            (Application::Hurricane, &["CLOUD", "QSNOW", "U"]),
            (
                Application::Miranda,
                &[
                    "density",
                    "diffusivity",
                    "pressure",
                    "velocity-x",
                    "velocity-y",
                    "velocity-z",
                    "viscocity",
                ],
            ),
            (Application::Nyx, &["baryon-density", "temperature"]),
            (Application::QmcPack, &["inspline"]),
            (Application::ScaleLetkf, &["V"]),
        ];
        for (app, names) in checks {
            let ds = app.generate(Scale::Tiny, 3);
            for name in names {
                assert!(
                    ds.field(name).is_some(),
                    "{} missing {name}",
                    app.short_name()
                );
            }
        }
    }
}
