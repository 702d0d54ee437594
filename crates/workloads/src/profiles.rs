//! The twelve game/timedemo profiles of Table I, with their published
//! per-table parameters.

use gwc_api::GraphicsApi;

/// Broad scene style, controlling the synthetic world generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneKind {
    /// Indoor corridors and rooms (Doom3, Quake4, Riddick, FEAR).
    Indoor,
    /// Open terrain with distant geometry (Oblivion).
    Open,
    /// Mixed indoor/outdoor (UT2004, HL2, Splinter Cell).
    Mixed,
}

/// One timedemo's published characteristics (Tables I, III, IV, V, XII).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GameProfile {
    /// "Game/Timedemo" label, e.g. `"Doom3/trdemo2"`.
    pub name: &'static str,
    /// Game engine (Table I).
    pub engine: &'static str,
    /// Release date (Table I).
    pub release: &'static str,
    /// Total frames in the paper's timedemo (Table I).
    pub frames: u32,
    /// Duration at 30 fps (Table I).
    pub duration: &'static str,
    /// Texture quality setting (Table I).
    pub texture_quality: &'static str,
    /// Anisotropy level; `None` = trilinear only (Table I).
    pub aniso: Option<u8>,
    /// Whether the game uses vertex/fragment programs (Table I; UT2004
    /// uses the fixed-function API, translated to programs by the driver).
    pub uses_shaders: bool,
    /// Graphics API (Table I).
    pub api: GraphicsApi,
    /// Average indices per batch (Table III).
    pub indices_per_batch: f64,
    /// Average indices per frame (Table III).
    pub indices_per_frame: f64,
    /// Bytes per index (Table III).
    pub index_bytes: u8,
    /// Average vertex program instructions (Table IV).
    pub vs_instructions: f64,
    /// Second-region vertex program length (Oblivion only, Table IV).
    pub vs_instructions_region2: Option<f64>,
    /// Primitive mix as triangle fractions `(TL, TS, TF)` (Table V).
    pub primitive_mix: (f64, f64, f64),
    /// Average primitives per frame (Table V).
    pub primitives_per_frame: f64,
    /// Average fragment program instructions (Table XII).
    pub fs_instructions: f64,
    /// Average fragment texture instructions (Table XII).
    pub fs_tex_instructions: f64,
    /// Whether the engine renders stencil shadow volumes with a z-prepass
    /// (the Doom3-engine games; Section III.C).
    pub stencil_shadows: bool,
    /// Scene style for the synthetic world.
    pub scene: SceneKind,
    /// Whether the paper gathered microarchitectural (ATTILA) results for
    /// this demo (the three simulated OpenGL benchmarks).
    pub simulated: bool,
}

impl GameProfile {
    /// Average batches per frame (Table III, derived).
    pub fn batches_per_frame(&self) -> f64 {
        self.indices_per_frame / self.indices_per_batch
    }

    /// ALU-to-texture ratio (Table XII, derived).
    pub fn alu_tex_ratio(&self) -> f64 {
        (self.fs_instructions - self.fs_tex_instructions) / self.fs_tex_instructions
    }

    /// Index bytes per frame (Table III / Figure 2, derived).
    pub fn index_bytes_per_frame(&self) -> f64 {
        self.indices_per_frame * self.index_bytes as f64
    }

    /// All twelve timedemos, in Table I order.
    pub fn all() -> &'static [GameProfile] {
        ALL_PROFILES
    }

    /// The OpenGL subset (eligible for microarchitectural simulation).
    pub fn opengl() -> impl Iterator<Item = &'static GameProfile> {
        ALL_PROFILES.iter().filter(|p| p.api == GraphicsApi::OpenGl)
    }

    /// The three demos the paper simulates in ATTILA.
    pub fn simulated() -> impl Iterator<Item = &'static GameProfile> {
        ALL_PROFILES.iter().filter(|p| p.simulated)
    }

    /// Looks a profile up by its `name`.
    pub fn by_name(name: &str) -> Option<&'static GameProfile> {
        ALL_PROFILES.iter().find(|p| p.name == name)
    }
}

/// Constructs a [`GameProfile`] for a workload that is not one of the
/// twelve Table I games — the synthesized scenarios of `gwc-scenarios`, or
/// any future generated workload.
///
/// `GameProfile` carries `&'static str` fields so the twelve paper
/// profiles can live in a `const` table; synthesized profiles get the same
/// lifetime by interning: [`ProfileBuilder::build`] leaks the profile once
/// and returns the same `&'static GameProfile` for every later build of
/// the same name (first build wins). The leak is bounded by the number of
/// distinct scenario names in the process.
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    name: String,
    engine: String,
    scene: SceneKind,
    frames: u32,
    aniso: Option<u8>,
    indices_per_batch: f64,
    indices_per_frame: f64,
    index_bytes: u8,
    vs_instructions: f64,
    primitive_mix: (f64, f64, f64),
    primitives_per_frame: f64,
    fs_instructions: f64,
    fs_tex_instructions: f64,
    stencil_shadows: bool,
}

impl ProfileBuilder {
    /// Starts a profile named `name` with neutral defaults.
    pub fn new(name: &str) -> Self {
        ProfileBuilder {
            name: name.to_string(),
            engine: String::from("synthetic"),
            scene: SceneKind::Mixed,
            frames: 0,
            aniso: None,
            indices_per_batch: 0.0,
            indices_per_frame: 0.0,
            index_bytes: 2,
            vs_instructions: 0.0,
            primitive_mix: (1.0, 0.0, 0.0),
            primitives_per_frame: 0.0,
            fs_instructions: 0.0,
            fs_tex_instructions: 0.0,
            stencil_shadows: false,
        }
    }

    /// Engine label shown in reports.
    pub fn engine(mut self, engine: &str) -> Self {
        self.engine = engine.to_string();
        self
    }

    /// Scene style.
    pub fn scene(mut self, scene: SceneKind) -> Self {
        self.scene = scene;
        self
    }

    /// Frame count of the generated demo.
    pub fn frames(mut self, frames: u32) -> Self {
        self.frames = frames;
        self
    }

    /// Anisotropic filtering level (`None` = trilinear).
    pub fn aniso(mut self, aniso: Option<u8>) -> Self {
        self.aniso = aniso;
        self
    }

    /// Declared batch granularity (Table III analogue).
    pub fn batching(mut self, indices_per_batch: f64, indices_per_frame: f64, index_bytes: u8) -> Self {
        self.indices_per_batch = indices_per_batch;
        self.indices_per_frame = indices_per_frame;
        self.index_bytes = index_bytes;
        self
    }

    /// Declared shader lengths (Tables IV/XII analogue).
    pub fn shaders(mut self, vs: f64, fs_total: f64, fs_tex: f64) -> Self {
        self.vs_instructions = vs;
        self.fs_instructions = fs_total;
        self.fs_tex_instructions = fs_tex;
        self
    }

    /// Declared primitive mix and throughput (Table V analogue).
    pub fn primitives(mut self, mix: (f64, f64, f64), per_frame: f64) -> Self {
        self.primitive_mix = mix;
        self.primitives_per_frame = per_frame;
        self
    }

    /// Whether the workload renders stencil shadow volumes.
    pub fn stencil_shadows(mut self, on: bool) -> Self {
        self.stencil_shadows = on;
        self
    }

    /// Interns and returns the profile.
    pub fn build(self) -> &'static GameProfile {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static REGISTRY: OnceLock<Mutex<HashMap<String, &'static GameProfile>>> = OnceLock::new();
        let mut reg = REGISTRY.get_or_init(|| Mutex::new(HashMap::new())).lock().unwrap();
        if let Some(existing) = reg.get(self.name.as_str()) {
            return existing;
        }
        let leaked: &'static GameProfile = Box::leak(Box::new(GameProfile {
            name: Box::leak(self.name.clone().into_boxed_str()),
            engine: Box::leak(self.engine.into_boxed_str()),
            release: "synthesized",
            frames: self.frames,
            duration: "-",
            texture_quality: "High",
            aniso: self.aniso,
            uses_shaders: true,
            api: GraphicsApi::OpenGl,
            indices_per_batch: self.indices_per_batch,
            indices_per_frame: self.indices_per_frame,
            index_bytes: self.index_bytes,
            vs_instructions: self.vs_instructions,
            vs_instructions_region2: None,
            primitive_mix: self.primitive_mix,
            primitives_per_frame: self.primitives_per_frame,
            fs_instructions: self.fs_instructions,
            fs_tex_instructions: self.fs_tex_instructions,
            stencil_shadows: self.stencil_shadows,
            scene: self.scene,
            simulated: true,
        }));
        reg.insert(self.name, leaked);
        leaked
    }
}

const ALL_PROFILES: &[GameProfile] = &[
    GameProfile {
        name: "UT2004/Primeval",
        engine: "Unreal 2.5",
        release: "March 2004",
        frames: 1992,
        duration: "1' 06''",
        texture_quality: "High/Anisotropic",
        aniso: Some(16),
        uses_shaders: false,
        api: GraphicsApi::OpenGl,
        indices_per_batch: 1110.0,
        indices_per_frame: 249_285.0,
        index_bytes: 2,
        vs_instructions: 23.46,
        vs_instructions_region2: None,
        primitive_mix: (0.999, 0.001, 0.0),
        primitives_per_frame: 83_095.0,
        fs_instructions: 4.63,
        fs_tex_instructions: 1.54,
        stencil_shadows: false,
        scene: SceneKind::Mixed,
        simulated: true,
    },
    GameProfile {
        name: "Doom3/trdemo1",
        engine: "Doom3",
        release: "August 2004",
        frames: 3464,
        duration: "1' 55''",
        texture_quality: "High/Anisotropic",
        aniso: Some(16),
        uses_shaders: true,
        api: GraphicsApi::OpenGl,
        indices_per_batch: 275.0,
        indices_per_frame: 196_416.0,
        index_bytes: 4,
        vs_instructions: 20.31,
        vs_instructions_region2: None,
        primitive_mix: (1.0, 0.0, 0.0),
        primitives_per_frame: 65_472.0,
        fs_instructions: 12.85,
        fs_tex_instructions: 3.98,
        stencil_shadows: true,
        scene: SceneKind::Indoor,
        simulated: false,
    },
    GameProfile {
        name: "Doom3/trdemo2",
        engine: "Doom3",
        release: "August 2004",
        frames: 3990,
        duration: "2' 13''",
        texture_quality: "High/Anisotropic",
        aniso: Some(16),
        uses_shaders: true,
        api: GraphicsApi::OpenGl,
        indices_per_batch: 304.0,
        indices_per_frame: 136_548.0,
        index_bytes: 4,
        vs_instructions: 19.35,
        vs_instructions_region2: None,
        primitive_mix: (1.0, 0.0, 0.0),
        primitives_per_frame: 45_516.0,
        fs_instructions: 12.95,
        fs_tex_instructions: 3.98,
        stencil_shadows: true,
        scene: SceneKind::Indoor,
        simulated: true,
    },
    GameProfile {
        name: "Quake4/demo4",
        engine: "Doom3",
        release: "October 2005",
        frames: 2976,
        duration: "1' 39''",
        texture_quality: "High/Anisotropic",
        aniso: Some(16),
        uses_shaders: true,
        api: GraphicsApi::OpenGl,
        indices_per_batch: 405.0,
        indices_per_frame: 172_330.0,
        index_bytes: 4,
        vs_instructions: 27.92,
        vs_instructions_region2: None,
        primitive_mix: (1.0, 0.0, 0.0),
        primitives_per_frame: 57_443.0,
        fs_instructions: 16.29,
        fs_tex_instructions: 4.33,
        stencil_shadows: true,
        scene: SceneKind::Indoor,
        simulated: true,
    },
    GameProfile {
        name: "Quake4/guru5",
        engine: "Doom3",
        release: "October 2005",
        frames: 3081,
        duration: "1' 43''",
        texture_quality: "High/Anisotropic",
        aniso: Some(16),
        uses_shaders: true,
        api: GraphicsApi::OpenGl,
        indices_per_batch: 166.0,
        indices_per_frame: 135_051.0,
        index_bytes: 4,
        vs_instructions: 24.42,
        vs_instructions_region2: None,
        primitive_mix: (1.0, 0.0, 0.0),
        primitives_per_frame: 45_017.0,
        fs_instructions: 17.16,
        fs_tex_instructions: 4.54,
        stencil_shadows: true,
        scene: SceneKind::Indoor,
        simulated: false,
    },
    GameProfile {
        name: "Riddick/MainFrame",
        engine: "Starbreeze",
        release: "December 2004",
        frames: 1629,
        duration: "0' 54''",
        texture_quality: "High/Trilinear",
        aniso: None,
        uses_shaders: true,
        api: GraphicsApi::OpenGl,
        indices_per_batch: 356.0,
        indices_per_frame: 214_965.0,
        index_bytes: 2,
        vs_instructions: 16.70,
        vs_instructions_region2: None,
        primitive_mix: (1.0, 0.0, 0.0),
        primitives_per_frame: 71_655.0,
        fs_instructions: 14.64,
        fs_tex_instructions: 1.94,
        stencil_shadows: false,
        scene: SceneKind::Indoor,
        simulated: false,
    },
    GameProfile {
        name: "Riddick/PrisonArea",
        engine: "Starbreeze",
        release: "December 2004",
        frames: 2310,
        duration: "1' 17''",
        texture_quality: "High/Trilinear",
        aniso: None,
        uses_shaders: true,
        api: GraphicsApi::OpenGl,
        indices_per_batch: 658.0,
        indices_per_frame: 239_425.0,
        index_bytes: 2,
        vs_instructions: 20.96,
        vs_instructions_region2: None,
        primitive_mix: (1.0, 0.0, 0.0),
        primitives_per_frame: 79_808.0,
        fs_instructions: 13.63,
        fs_tex_instructions: 1.83,
        stencil_shadows: false,
        scene: SceneKind::Indoor,
        simulated: false,
    },
    GameProfile {
        name: "FEAR/built-in demo",
        engine: "Monolith",
        release: "October 2005",
        frames: 576,
        duration: "0' 19''",
        texture_quality: "High/Anisotropic",
        aniso: Some(16),
        uses_shaders: true,
        api: GraphicsApi::Direct3D,
        indices_per_batch: 641.0,
        indices_per_frame: 331_374.0,
        index_bytes: 2,
        vs_instructions: 18.19,
        vs_instructions_region2: None,
        primitive_mix: (1.0, 0.0, 0.0),
        primitives_per_frame: 110_458.0,
        fs_instructions: 21.30,
        fs_tex_instructions: 2.79,
        stencil_shadows: false,
        scene: SceneKind::Indoor,
        simulated: false,
    },
    GameProfile {
        name: "FEAR/interval2",
        engine: "Monolith",
        release: "October 2005",
        frames: 2102,
        duration: "1' 10''",
        texture_quality: "High/Anisotropic",
        aniso: Some(16),
        uses_shaders: true,
        api: GraphicsApi::Direct3D,
        indices_per_batch: 1085.0,
        indices_per_frame: 307_202.0,
        index_bytes: 2,
        vs_instructions: 21.02,
        vs_instructions_region2: None,
        primitive_mix: (0.967, 0.033, 0.0),
        primitives_per_frame: 102_402.0,
        fs_instructions: 19.31,
        fs_tex_instructions: 2.72,
        stencil_shadows: false,
        scene: SceneKind::Indoor,
        simulated: false,
    },
    GameProfile {
        name: "Half Life 2 LC/built-in",
        engine: "Valve Source",
        release: "October 2005",
        frames: 1805,
        duration: "1' 00''",
        texture_quality: "High/Anisotropic",
        aniso: Some(16),
        uses_shaders: true,
        api: GraphicsApi::Direct3D,
        indices_per_batch: 736.0,
        indices_per_frame: 328_919.0,
        index_bytes: 2,
        vs_instructions: 27.04,
        vs_instructions_region2: None,
        primitive_mix: (1.0, 0.0, 0.0),
        primitives_per_frame: 109_640.0,
        fs_instructions: 19.94,
        fs_tex_instructions: 3.88,
        stencil_shadows: false,
        scene: SceneKind::Mixed,
        simulated: false,
    },
    GameProfile {
        name: "Oblivion/Anvil Castle",
        engine: "Gamebryo",
        release: "March 2006",
        frames: 2620,
        duration: "1' 27''",
        texture_quality: "High/Trilinear",
        aniso: None,
        uses_shaders: true,
        api: GraphicsApi::Direct3D,
        indices_per_batch: 998.0,
        indices_per_frame: 711_196.0,
        index_bytes: 2,
        vs_instructions: 18.88,
        vs_instructions_region2: Some(37.72),
        primitive_mix: (0.463, 0.537, 0.0),
        primitives_per_frame: 551_694.0,
        fs_instructions: 15.48,
        fs_tex_instructions: 1.36,
        stencil_shadows: false,
        scene: SceneKind::Open,
        simulated: false,
    },
    GameProfile {
        name: "Splinter Cell 3/first level",
        engine: "Unreal 2.5++",
        release: "March 2005",
        frames: 2970,
        duration: "1' 39''",
        texture_quality: "High/Anisotropic",
        aniso: Some(16),
        uses_shaders: true,
        api: GraphicsApi::Direct3D,
        indices_per_batch: 308.0,
        indices_per_frame: 177_300.0,
        index_bytes: 2,
        vs_instructions: 28.36,
        vs_instructions_region2: None,
        primitive_mix: (0.691, 0.267, 0.042),
        primitives_per_frame: 107_494.0,
        fs_instructions: 4.62,
        fs_tex_instructions: 2.13,
        stencil_shadows: false,
        scene: SceneKind::Mixed,
        simulated: false,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_profiles_in_table1_order() {
        let all = GameProfile::all();
        assert_eq!(all.len(), 12);
        assert_eq!(all[0].name, "UT2004/Primeval");
        assert_eq!(all[11].name, "Splinter Cell 3/first level");
    }

    #[test]
    fn three_simulated_opengl_demos() {
        let sim: Vec<_> = GameProfile::simulated().map(|p| p.name).collect();
        assert_eq!(sim, vec!["UT2004/Primeval", "Doom3/trdemo2", "Quake4/demo4"]);
        assert!(GameProfile::simulated().all(|p| p.api == GraphicsApi::OpenGl));
    }

    #[test]
    fn opengl_vs_d3d_split() {
        assert_eq!(GameProfile::opengl().count(), 7);
    }

    #[test]
    fn derived_batches_per_frame_plausible() {
        // Figure 1 shows batch counts between roughly 100 and 1500.
        for p in GameProfile::all() {
            let b = p.batches_per_frame();
            assert!(b > 100.0 && b < 1500.0, "{}: {b}", p.name);
        }
    }

    #[test]
    fn alu_tex_ratios_match_table12() {
        let check = |name: &str, expected: f64| {
            let p = GameProfile::by_name(name).unwrap();
            assert!(
                (p.alu_tex_ratio() - expected).abs() < 0.05,
                "{name}: {} vs {expected}",
                p.alu_tex_ratio()
            );
        };
        check("UT2004/Primeval", 2.01);
        check("Doom3/trdemo2", 2.25);
        check("Quake4/demo4", 2.76);
        check("Oblivion/Anvil Castle", 10.38);
        check("Splinter Cell 3/first level", 1.17);
    }

    #[test]
    fn doom3_engine_games_use_stencil_shadows() {
        for p in GameProfile::all() {
            assert_eq!(p.stencil_shadows, p.engine == "Doom3", "{}", p.name);
        }
    }

    #[test]
    fn index_width_by_engine() {
        for p in GameProfile::all() {
            let expect = if p.engine == "Doom3" { 4 } else { 2 };
            assert_eq!(p.index_bytes, expect, "{}", p.name);
        }
    }

    #[test]
    fn primitive_mix_sums_to_one() {
        for p in GameProfile::all() {
            let (tl, ts, tf) = p.primitive_mix;
            assert!((tl + ts + tf - 1.0).abs() < 1e-6, "{}", p.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(GameProfile::by_name("Quake4/demo4").is_some());
        assert!(GameProfile::by_name("nonexistent").is_none());
    }

    #[test]
    fn builder_interns_by_name() {
        let a = ProfileBuilder::new("test/builder-intern")
            .engine("gwc-scenarios")
            .frames(3)
            .batching(512.0, 65_536.0, 2)
            .shaders(12.0, 10.0, 3.0)
            .build();
        let b = ProfileBuilder::new("test/builder-intern").build();
        assert!(std::ptr::eq(a, b), "same name must intern to the same profile");
        assert_eq!(a.engine, "gwc-scenarios");
        assert_eq!(a.indices_per_batch, 512.0);
        // Synthesized profiles never shadow the Table I set.
        assert!(GameProfile::by_name("test/builder-intern").is_none());
    }
}
