//! API-level statistics: the paper's Tables III–V, XII and Figures 1–3, 8.

use std::collections::HashMap;

use gwc_raster::PrimitiveType;
use gwc_stats::TimeSeries;

use crate::command::{Command, Indices};
use crate::CommandSink;

/// Raw per-frame counters, reset at every `EndFrame`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameApiStats {
    /// Draw calls this frame (Figure 1).
    pub batches: u64,
    /// Indices referenced this frame (Table III).
    pub indices: u64,
    /// Bytes of index data transferred (Figure 2).
    pub index_bytes: u64,
    /// State calls this frame (Figure 3).
    pub state_calls: u64,
    /// Primitives (triangles) assembled this frame (Table V).
    pub primitives: u64,
    /// Triangles drawn as lists / strips / fans.
    pub prims_by_type: [u64; 3],
    /// Σ(vertex program length × indices) — for index-weighted Table IV.
    pub vs_instr_weighted: f64,
    /// Σ(fragment program length) over batches — for Table XII / Figure 8.
    pub fs_instr_sum: f64,
    /// Σ(fragment texture instructions) over batches.
    pub fs_tex_sum: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProgramInfo {
    instructions: u32,
    texture_instructions: u32,
}

/// A [`CommandSink`] that computes every API-level metric of the paper.
///
/// Feed it a trace (or tee it alongside the simulator) and read the
/// per-frame series and whole-run averages.
///
/// ```
/// use gwc_api::{ApiStats, Command, CommandSink};
///
/// let mut stats = ApiStats::new();
/// stats.consume(&Command::EndFrame);
/// assert_eq!(stats.frames(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ApiStats {
    programs: HashMap<u32, (bool, ProgramInfo)>, // id -> (is_fragment, info)
    index_buffers: HashMap<u32, (u32, u64)>,     // id -> (bytes/idx, len)
    bound_vertex: Option<u32>,
    bound_fragment: Option<u32>,
    current: FrameApiStats,
    frames_done: u64,
    // Whole-run accumulators.
    total: FrameApiStats,
    // Per-frame series (the figures).
    batches_series: Vec<f64>,
    index_mb_series: Vec<f64>,
    state_calls_series: Vec<f64>,
    fs_instr_series: Vec<f64>,
    fs_tex_series: Vec<f64>,
    vs_instr_series: Vec<f64>,
}

impl ApiStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        ApiStats::default()
    }

    /// Completed frames.
    pub fn frames(&self) -> u64 {
        self.frames_done
    }

    /// Counters of the in-progress frame.
    pub fn current_frame(&self) -> &FrameApiStats {
        &self.current
    }

    /// Whole-run totals (sum over completed frames).
    pub fn totals(&self) -> &FrameApiStats {
        &self.total
    }

    /// Average indices per batch (Table III).
    pub fn avg_indices_per_batch(&self) -> f64 {
        if self.total.batches == 0 {
            0.0
        } else {
            self.total.indices as f64 / self.total.batches as f64
        }
    }

    /// Average indices per frame (Table III).
    pub fn avg_indices_per_frame(&self) -> f64 {
        if self.frames_done == 0 {
            0.0
        } else {
            self.total.indices as f64 / self.frames_done as f64
        }
    }

    /// Average index bytes per frame (Figure 2 / Table III bandwidth).
    pub fn avg_index_bytes_per_frame(&self) -> f64 {
        if self.frames_done == 0 {
            0.0
        } else {
            self.total.index_bytes as f64 / self.frames_done as f64
        }
    }

    /// Average primitives per frame (Table V).
    pub fn avg_primitives_per_frame(&self) -> f64 {
        if self.frames_done == 0 {
            0.0
        } else {
            self.total.primitives as f64 / self.frames_done as f64
        }
    }

    /// Primitive type shares `(list, strip, fan)` as fractions of all
    /// triangles (Table V).
    pub fn primitive_shares(&self) -> (f64, f64, f64) {
        let total: u64 = self.total.prims_by_type.iter().sum();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let f = |i: usize| self.total.prims_by_type[i] as f64 / total as f64;
        (f(0), f(1), f(2))
    }

    /// Index-weighted average vertex program length (Table IV).
    pub fn avg_vertex_instructions(&self) -> f64 {
        if self.total.indices == 0 {
            0.0
        } else {
            self.total.vs_instr_weighted / self.total.indices as f64
        }
    }

    /// Batch-averaged fragment program length (Table XII).
    pub fn avg_fragment_instructions(&self) -> f64 {
        if self.total.batches == 0 {
            0.0
        } else {
            self.total.fs_instr_sum / self.total.batches as f64
        }
    }

    /// Batch-averaged fragment texture instructions (Table XII).
    pub fn avg_fragment_tex_instructions(&self) -> f64 {
        if self.total.batches == 0 {
            0.0
        } else {
            self.total.fs_tex_sum / self.total.batches as f64
        }
    }

    /// ALU-to-texture ratio (Table XII); infinite if no texture
    /// instructions were issued.
    pub fn alu_tex_ratio(&self) -> f64 {
        let tex = self.avg_fragment_tex_instructions();
        if tex == 0.0 {
            f64::INFINITY
        } else {
            (self.avg_fragment_instructions() - tex) / tex
        }
    }

    fn series(name: &str, data: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new(name);
        s.extend(data.iter().copied());
        s
    }

    /// Batches per frame (Figure 1).
    pub fn batches_per_frame(&self) -> TimeSeries {
        Self::series("batches/frame", &self.batches_series)
    }

    /// Index megabytes per frame (Figure 2).
    pub fn index_mb_per_frame(&self) -> TimeSeries {
        Self::series("index MB/frame", &self.index_mb_series)
    }

    /// State calls per frame (Figure 3).
    pub fn state_calls_per_frame(&self) -> TimeSeries {
        Self::series("state calls/frame", &self.state_calls_series)
    }

    /// Average fragment program length per frame (Figure 8).
    pub fn fs_instructions_per_frame(&self) -> TimeSeries {
        Self::series("fragment instructions", &self.fs_instr_series)
    }

    /// Average fragment texture instructions per frame (Figure 8).
    pub fn fs_tex_per_frame(&self) -> TimeSeries {
        Self::series("texture instructions", &self.fs_tex_series)
    }

    /// Index-weighted vertex program length per frame (Table IV's
    /// two-region split for Oblivion uses this).
    pub fn vs_instructions_per_frame(&self) -> TimeSeries {
        Self::series("vertex instructions", &self.vs_instr_series)
    }
}

impl CommandSink for ApiStats {
    fn consume(&mut self, command: &Command) {
        if command.is_state_call() {
            self.current.state_calls += 1;
        }
        match command {
            Command::CreateProgram { id, program } => {
                self.programs.insert(
                    *id,
                    (
                        program.kind() == gwc_shader::ProgramKind::Fragment,
                        ProgramInfo {
                            instructions: program.instruction_count() as u32,
                            texture_instructions: program.texture_count() as u32,
                        },
                    ),
                );
            }
            Command::CreateIndexBuffer { id, indices } => {
                let bpi = indices.bytes_per_index();
                self.index_buffers.insert(*id, (bpi, indices.len() as u64));
                // Index upload itself is start-up traffic; Table III counts
                // only per-frame draw traffic, so nothing else here.
                let _ = Indices::is_empty;
            }
            Command::State(state) => {
                use crate::command::StateCommand;
                if let StateCommand::BindPrograms { vertex, fragment } = state {
                    self.bound_vertex = Some(*vertex);
                    self.bound_fragment = Some(*fragment);
                }
            }
            Command::Draw { index_buffer, primitive, count, .. } => {
                self.current.batches += 1;
                self.current.indices += *count as u64;
                let bpi =
                    self.index_buffers.get(index_buffer).map(|&(b, _)| b).unwrap_or(2) as u64;
                self.current.index_bytes += bpi * *count as u64;
                let tris = primitive.triangle_count(*count as usize) as u64;
                self.current.primitives += tris;
                let slot = match primitive {
                    PrimitiveType::TriangleList => 0,
                    PrimitiveType::TriangleStrip => 1,
                    PrimitiveType::TriangleFan => 2,
                };
                self.current.prims_by_type[slot] += tris;
                if let Some((_, info)) =
                    self.bound_vertex.and_then(|id| self.programs.get(&id))
                {
                    self.current.vs_instr_weighted +=
                        info.instructions as f64 * *count as f64;
                }
                if let Some((_, info)) =
                    self.bound_fragment.and_then(|id| self.programs.get(&id))
                {
                    self.current.fs_instr_sum += info.instructions as f64;
                    self.current.fs_tex_sum += info.texture_instructions as f64;
                }
            }
            Command::EndFrame => {
                let f = self.current;
                self.batches_series.push(f.batches as f64);
                self.index_mb_series.push(f.index_bytes as f64 / (1024.0 * 1024.0));
                self.state_calls_series.push(f.state_calls as f64);
                let fs_avg = if f.batches == 0 { 0.0 } else { f.fs_instr_sum / f.batches as f64 };
                let fs_tex_avg = if f.batches == 0 { 0.0 } else { f.fs_tex_sum / f.batches as f64 };
                let vs_avg =
                    if f.indices == 0 { 0.0 } else { f.vs_instr_weighted / f.indices as f64 };
                self.fs_instr_series.push(fs_avg);
                self.fs_tex_series.push(fs_tex_avg);
                self.vs_instr_series.push(vs_avg);
                // Accumulate into totals.
                self.total.batches += f.batches;
                self.total.indices += f.indices;
                self.total.index_bytes += f.index_bytes;
                self.total.state_calls += f.state_calls;
                self.total.primitives += f.primitives;
                for i in 0..3 {
                    self.total.prims_by_type[i] += f.prims_by_type[i];
                }
                self.total.vs_instr_weighted += f.vs_instr_weighted;
                self.total.fs_instr_sum += f.fs_instr_sum;
                self.total.fs_tex_sum += f.fs_tex_sum;
                self.current = FrameApiStats::default();
                self.frames_done += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{StateCommand, VertexLayout};
    use gwc_math::Vec4;
    use gwc_shader::{Instr, Program, ProgramKind, Reg, Src};

    fn vs(len: usize) -> Program {
        let instrs = vec![Instr::mov(Reg::out(0), Src::input(0)); len];
        Program::new(ProgramKind::Vertex, "vs", instrs).unwrap()
    }

    fn fs(alu: usize, tex: usize) -> Program {
        let mut instrs = Vec::new();
        for u in 0..tex {
            instrs.push(Instr::tex(Reg::temp(0), Src::input(0), u as u8 % 16));
        }
        for _ in 0..alu {
            instrs.push(Instr::mov(Reg::out(0), Src::temp(0)));
        }
        Program::new(ProgramKind::Fragment, "fs", instrs).unwrap()
    }

    fn setup(stats: &mut ApiStats) {
        stats.consume(&Command::CreateProgram { id: 0, program: vs(20) });
        stats.consume(&Command::CreateProgram { id: 1, program: fs(9, 3) });
        stats.consume(&Command::CreateIndexBuffer {
            id: 0,
            indices: Indices::U32((0..300).collect()),
        });
        stats.consume(&Command::CreateVertexBuffer {
            id: 0,
            layout: VertexLayout::POS_NORMAL_UV,
            data: vec![Vec4::ZERO; 3],
        });
        stats.consume(&Command::State(StateCommand::BindPrograms { vertex: 0, fragment: 1 }));
    }

    fn draw(count: u32, primitive: PrimitiveType) -> Command {
        Command::Draw { vertex_buffer: 0, index_buffer: 0, primitive, first: 0, count }
    }

    #[test]
    fn batches_and_indices_counted() {
        let mut s = ApiStats::new();
        setup(&mut s);
        s.consume(&draw(300, PrimitiveType::TriangleList));
        s.consume(&draw(150, PrimitiveType::TriangleList));
        s.consume(&Command::EndFrame);
        assert_eq!(s.frames(), 1);
        assert_eq!(s.totals().batches, 2);
        assert_eq!(s.totals().indices, 450);
        assert_eq!(s.avg_indices_per_batch(), 225.0);
        assert_eq!(s.avg_indices_per_frame(), 450.0);
        // 32-bit indices: 450 * 4 bytes.
        assert_eq!(s.totals().index_bytes, 1800);
    }

    #[test]
    fn primitive_shares() {
        let mut s = ApiStats::new();
        setup(&mut s);
        s.consume(&draw(300, PrimitiveType::TriangleList)); // 100 tris
        s.consume(&draw(102, PrimitiveType::TriangleStrip)); // 100 tris
        s.consume(&Command::EndFrame);
        let (tl, ts, tf) = s.primitive_shares();
        assert!((tl - 0.5).abs() < 1e-12);
        assert!((ts - 0.5).abs() < 1e-12);
        assert_eq!(tf, 0.0);
        assert_eq!(s.avg_primitives_per_frame(), 200.0);
    }

    #[test]
    fn shader_averages() {
        let mut s = ApiStats::new();
        setup(&mut s);
        s.consume(&draw(300, PrimitiveType::TriangleList));
        s.consume(&Command::EndFrame);
        assert_eq!(s.avg_vertex_instructions(), 20.0);
        assert_eq!(s.avg_fragment_instructions(), 12.0);
        assert_eq!(s.avg_fragment_tex_instructions(), 3.0);
        assert_eq!(s.alu_tex_ratio(), 3.0);
    }

    #[test]
    fn state_calls_counted_per_frame() {
        let mut s = ApiStats::new();
        setup(&mut s); // 4 creates + 1 bind = 5 state calls
        s.consume(&Command::EndFrame);
        s.consume(&Command::State(StateCommand::ColorMask(false)));
        s.consume(&Command::EndFrame);
        let series = s.state_calls_per_frame();
        assert_eq!(series.values(), &[5.0, 1.0]);
    }

    #[test]
    fn series_lengths_match_frames() {
        let mut s = ApiStats::new();
        setup(&mut s);
        for _ in 0..10 {
            s.consume(&draw(30, PrimitiveType::TriangleList));
            s.consume(&Command::EndFrame);
        }
        assert_eq!(s.batches_per_frame().len(), 10);
        assert_eq!(s.index_mb_per_frame().len(), 10);
        assert_eq!(s.fs_instructions_per_frame().len(), 10);
        assert!((s.batches_per_frame().mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_all_zero() {
        let s = ApiStats::new();
        assert_eq!(s.avg_indices_per_batch(), 0.0);
        assert_eq!(s.avg_vertex_instructions(), 0.0);
        assert_eq!(s.primitive_shares(), (0.0, 0.0, 0.0));
        assert!(s.alu_tex_ratio().is_infinite());
    }
}
