//! Scenario naming and parameter-grid expansion.
//!
//! A scenario is the composition of three orthogonal axes:
//!
//! - **archetype** — what the scene *is* (corridor, terrain, storm,
//!   foliage, crowd),
//! - **render style** — how frames are structured (depth-prepass, stencil
//!   shadows, many small passes, post-processing chain),
//! - **API style** — how work is submitted (sorted, tiny batches, mega
//!   batches, state-thrash).
//!
//! The canonical name `scn:<archetype>+<style>+<api>` round-trips through
//! [`ScenarioSpec::parse`], so a scenario travels through job manifests as
//! a plain string exactly like a Table I game name.

/// Scene archetype: the geometry and surface behaviour of the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Archetype {
    /// Indoor corridor: a room plus screen-filling wall layers — high
    /// depth complexity.
    Corridor,
    /// Open terrain: strip-ordered heightfield patches — vertex-cache
    /// friendly, wide clip fractions.
    Terrain,
    /// Particle storm: clouds of independent additive quads — vertex-cache
    /// hostile, blend-heavy.
    Storm,
    /// Foliage: alpha-tested noise panels — alpha-kill heavy.
    Foliage,
    /// Crowd: many closed spheres — back-face-cull heavy.
    Crowd,
}

impl Archetype {
    /// All archetypes, in grid-expansion order.
    pub const ALL: [Archetype; 5] = [
        Archetype::Corridor,
        Archetype::Terrain,
        Archetype::Storm,
        Archetype::Foliage,
        Archetype::Crowd,
    ];

    /// The grid/CLI token.
    pub fn name(self) -> &'static str {
        match self {
            Archetype::Corridor => "corridor",
            Archetype::Terrain => "terrain",
            Archetype::Storm => "storm",
            Archetype::Foliage => "foliage",
            Archetype::Crowd => "crowd",
        }
    }

    /// Parses a grid/CLI token.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|a| a.name() == name)
    }
}

/// Frame/pass structure of the renderer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RenderStyle {
    /// Depth-only prepass then one color pass.
    Prepass,
    /// Z-prepass, stencil shadow volumes and additive relighting per
    /// light (the Doom3-engine structure).
    Stencil,
    /// Several additive color passes over the same geometry
    /// (deferred-style many-small-passes).
    ManyPass,
    /// One color pass plus a chain of fullscreen texture-heavy quads.
    Post,
}

impl RenderStyle {
    /// All render styles, in grid-expansion order.
    pub const ALL: [RenderStyle; 4] = [
        RenderStyle::Prepass,
        RenderStyle::Stencil,
        RenderStyle::ManyPass,
        RenderStyle::Post,
    ];

    /// The grid/CLI token.
    pub fn name(self) -> &'static str {
        match self {
            RenderStyle::Prepass => "prepass",
            RenderStyle::Stencil => "stencil",
            RenderStyle::ManyPass => "manypass",
            RenderStyle::Post => "post",
        }
    }

    /// Parses a grid/CLI token.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Submission style at the API level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApiStyle {
    /// Material-sorted submission, state bound once per group.
    Sorted,
    /// Draws split into tiny (≤ 64 index) batches.
    Tiny,
    /// Contiguous draws merged into mega batches.
    Mega,
    /// Unsorted submission with redundant state binds before every draw.
    Thrash,
}

impl ApiStyle {
    /// All API styles, in grid-expansion order.
    pub const ALL: [ApiStyle; 4] =
        [ApiStyle::Sorted, ApiStyle::Tiny, ApiStyle::Mega, ApiStyle::Thrash];

    /// The grid/CLI token.
    pub fn name(self) -> &'static str {
        match self {
            ApiStyle::Sorted => "sorted",
            ApiStyle::Tiny => "tiny",
            ApiStyle::Mega => "mega",
            ApiStyle::Thrash => "thrash",
        }
    }

    /// Parses a grid/CLI token.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// One point in scenario space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioSpec {
    /// Scene archetype.
    pub archetype: Archetype,
    /// Render style.
    pub style: RenderStyle,
    /// API submission style.
    pub api: ApiStyle,
}

/// Prefix marking a job/game name as a generated scenario.
pub const SCENARIO_PREFIX: &str = "scn:";

impl ScenarioSpec {
    /// The canonical name, `scn:<archetype>+<style>+<api>`.
    pub fn name(&self) -> String {
        format!(
            "{SCENARIO_PREFIX}{}+{}+{}",
            self.archetype.name(),
            self.style.name(),
            self.api.name()
        )
    }

    /// Parses a canonical scenario name. Returns `None` when `name` does
    /// not start with [`SCENARIO_PREFIX`]; malformed suffixes are errors.
    pub fn parse(name: &str) -> Option<Result<Self, String>> {
        let rest = name.strip_prefix(SCENARIO_PREFIX)?;
        let make = || -> Result<ScenarioSpec, String> {
            let mut parts = rest.split('+');
            let a = parts.next().unwrap_or("");
            let s = parts.next().unwrap_or("");
            let p = parts.next().unwrap_or("");
            if parts.next().is_some() {
                return Err(format!("scenario `{name}`: expected archetype+style+api"));
            }
            Ok(ScenarioSpec {
                archetype: Archetype::from_name(a)
                    .ok_or_else(|| format!("scenario `{name}`: unknown archetype `{a}`"))?,
                style: RenderStyle::from_name(s)
                    .ok_or_else(|| format!("scenario `{name}`: unknown style `{s}`"))?,
                api: ApiStyle::from_name(p)
                    .ok_or_else(|| format!("scenario `{name}`: unknown api style `{p}`"))?,
            })
        };
        Some(make())
    }
}

/// A malformed grid spec, pointing at the offending key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError {
    /// The grid key (or token) that failed to parse.
    pub key: String,
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "grid key `{}`: {}", self.key, self.message)
    }
}

impl std::error::Error for GridError {}

/// A parsed parameter grid: the cross product of the selected axis values
/// times `seeds` seed replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Selected archetypes (grid order).
    pub archetypes: Vec<Archetype>,
    /// Selected render styles (grid order).
    pub styles: Vec<RenderStyle>,
    /// Selected API styles (grid order).
    pub apis: Vec<ApiStyle>,
    /// Seed replicas per cell combination.
    pub seeds: u32,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec {
            archetypes: vec![Archetype::Corridor],
            styles: vec![RenderStyle::Prepass],
            apis: vec![ApiStyle::Sorted],
            seeds: 1,
        }
    }
}

/// One expanded grid cell: a scenario plus its generation seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridCell {
    /// The scenario at this cell.
    pub spec: ScenarioSpec,
    /// Generation seed (base seed plus replica index).
    pub seed: u64,
}

impl GridCell {
    /// Unique display label: the scenario name plus its seed.
    pub fn label(&self) -> String {
        format!("{}#{}", self.spec.name(), self.seed)
    }
}

fn parse_axis<T: Copy>(
    key: &str,
    value: &str,
    all: &[T],
    from_name: impl Fn(&str) -> Option<T>,
    expected: &str,
) -> Result<Vec<T>, GridError> {
    if value == "all" {
        return Ok(all.to_vec());
    }
    let mut out = Vec::new();
    for token in value.split(',') {
        let token = token.trim();
        let parsed = from_name(token).ok_or_else(|| GridError {
            key: key.to_string(),
            message: format!("unknown value `{token}` (expected {expected}, or `all`)"),
        })?;
        out.push(parsed);
    }
    Ok(out)
}

impl GridSpec {
    /// Parses a grid spec of the form
    /// `archetype=corridor,terrain;style=prepass;api=tiny,sorted;seeds=2`.
    ///
    /// Omitted keys fall back to the [`Default`] single values; the value
    /// `all` selects every variant of an axis. Errors name the offending
    /// key so the CLI can exit 2 with a precise message.
    pub fn parse(spec: &str) -> Result<GridSpec, GridError> {
        let mut grid = GridSpec::default();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause.split_once('=').ok_or_else(|| GridError {
                key: clause.to_string(),
                message: String::from("expected `key=value[,value...]`"),
            })?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "archetype" => {
                    grid.archetypes = parse_axis(
                        key,
                        value,
                        &Archetype::ALL,
                        Archetype::from_name,
                        "corridor, terrain, storm, foliage, crowd",
                    )?;
                }
                "style" => {
                    grid.styles = parse_axis(
                        key,
                        value,
                        &RenderStyle::ALL,
                        RenderStyle::from_name,
                        "prepass, stencil, manypass, post",
                    )?;
                }
                "api" => {
                    grid.apis = parse_axis(
                        key,
                        value,
                        &ApiStyle::ALL,
                        ApiStyle::from_name,
                        "sorted, tiny, mega, thrash",
                    )?;
                }
                "seeds" => {
                    grid.seeds = value.parse::<u32>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        GridError {
                            key: key.to_string(),
                            message: format!("`{value}` is not a positive seed count"),
                        }
                    })?;
                }
                _ => {
                    return Err(GridError {
                        key: key.to_string(),
                        message: String::from(
                            "unknown key (expected archetype, style, api, seeds)",
                        ),
                    })
                }
            }
        }
        Ok(grid)
    }

    /// Number of cells the grid expands to.
    pub fn cell_count(&self) -> usize {
        self.archetypes.len() * self.styles.len() * self.apis.len() * self.seeds as usize
    }

    /// Expands the grid into cells, in deterministic archetype-major
    /// order. Replica `k` of a combination runs at seed `base_seed + k`.
    pub fn expand(&self, base_seed: u64) -> Vec<GridCell> {
        let mut out = Vec::with_capacity(self.cell_count());
        for &archetype in &self.archetypes {
            for &style in &self.styles {
                for &api in &self.apis {
                    for k in 0..self.seeds {
                        out.push(GridCell {
                            spec: ScenarioSpec { archetype, style, api },
                            seed: base_seed + k as u64,
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_round_trip() {
        for archetype in Archetype::ALL {
            for style in RenderStyle::ALL {
                for api in ApiStyle::ALL {
                    let spec = ScenarioSpec { archetype, style, api };
                    let name = spec.name();
                    assert!(name.starts_with(SCENARIO_PREFIX));
                    let back = ScenarioSpec::parse(&name).unwrap().unwrap();
                    assert_eq!(back, spec);
                }
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_names() {
        assert!(ScenarioSpec::parse("Doom3/trdemo2").is_none());
        assert!(ScenarioSpec::parse("scn:corridor").unwrap().is_err());
        assert!(ScenarioSpec::parse("scn:corridor+prepass+sorted+extra").unwrap().is_err());
        assert!(ScenarioSpec::parse("scn:hallway+prepass+sorted").unwrap().is_err());
        assert!(ScenarioSpec::parse("scn:corridor+sideways+sorted").unwrap().is_err());
        assert!(ScenarioSpec::parse("scn:corridor+prepass+chaotic").unwrap().is_err());
    }

    #[test]
    fn grid_parse_and_expand() {
        let grid = GridSpec::parse("archetype=corridor,terrain;style=prepass,post;api=tiny;seeds=2")
            .unwrap();
        assert_eq!(grid.cell_count(), 8);
        let cells = grid.expand(100);
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].spec.archetype, Archetype::Corridor);
        assert_eq!(cells[0].seed, 100);
        assert_eq!(cells[1].seed, 101);
        assert_eq!(cells[7].spec.archetype, Archetype::Terrain);
        assert_eq!(cells[7].spec.style, RenderStyle::Post);
        // Labels are unique.
        let mut labels: Vec<String> = cells.iter().map(GridCell::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn grid_all_token_and_defaults() {
        let grid = GridSpec::parse("archetype=all").unwrap();
        assert_eq!(grid.archetypes.len(), 5);
        assert_eq!(grid.styles, vec![RenderStyle::Prepass]);
        assert_eq!(grid.apis, vec![ApiStyle::Sorted]);
        assert_eq!(grid.seeds, 1);
        assert_eq!(GridSpec::parse("").unwrap(), GridSpec::default());
    }

    #[test]
    fn grid_errors_name_offending_key() {
        let e = GridSpec::parse("archetype=corridoor").unwrap_err();
        assert_eq!(e.key, "archetype");
        assert!(e.message.contains("corridoor"));
        let e = GridSpec::parse("flavor=spicy").unwrap_err();
        assert_eq!(e.key, "flavor");
        let e = GridSpec::parse("seeds=0").unwrap_err();
        assert_eq!(e.key, "seeds");
        let e = GridSpec::parse("archetype").unwrap_err();
        assert_eq!(e.key, "archetype");
        assert!(e.message.contains("key=value"));
    }
}
