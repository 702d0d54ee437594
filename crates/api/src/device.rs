//! The recording device: validation + trace capture + live dispatch.

use std::collections::HashMap;

use crate::command::{Command, StateCommand};
use crate::trace::Trace;
use crate::CommandSink;

/// Errors a [`Device`] reports for malformed command streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// A resource id was created twice.
    DuplicateId(&'static str, u32),
    /// A command referenced an id that was never created.
    UnknownId(&'static str, u32),
    /// A draw call's index range exceeds the bound index buffer.
    IndexRangeOutOfBounds {
        /// First index requested.
        first: u32,
        /// Count requested.
        count: u32,
        /// Actual buffer length.
        available: u32,
    },
    /// A draw call referenced a vertex beyond the vertex buffer.
    VertexOutOfBounds {
        /// The offending vertex index.
        index: u32,
        /// Vertices in the buffer.
        available: u32,
    },
    /// A vertex buffer's data length is not a multiple of its layout.
    MalformedVertexData,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::DuplicateId(kind, id) => write!(f, "duplicate {kind} id {id}"),
            DeviceError::UnknownId(kind, id) => write!(f, "unknown {kind} id {id}"),
            DeviceError::IndexRangeOutOfBounds { first, count, available } => write!(
                f,
                "index range {first}..{} exceeds buffer of {available}",
                first + count
            ),
            DeviceError::VertexOutOfBounds { index, available } => {
                write!(f, "vertex index {index} exceeds buffer of {available} vertices")
            }
            DeviceError::MalformedVertexData => {
                write!(f, "vertex data length is not a multiple of the layout")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// The application-facing device: validates commands, records them into a
/// [`Trace`] and forwards them to an optional live sink.
///
/// This plays the role of the GL driver + GLInterceptor in the paper's
/// tool chain. Validation is strict ([C-VALIDATE]): invalid streams are
/// rejected at record time so traces are replayable by construction.
///
/// As a [`CommandSink`] the device is the recorder a generator emits
/// into: valid commands are recorded exactly as [`Device::submit`]
/// records them, invalid ones are dropped and the first rejection is
/// kept for [`Device::first_error`].
///
/// ```
/// use gwc_api::{Command, Device, Indices, VertexLayout};
/// use gwc_math::Vec4;
///
/// let mut dev = Device::new();
/// dev.submit(Command::CreateVertexBuffer {
///     id: 0,
///     layout: VertexLayout::POS_NORMAL_UV,
///     data: vec![Vec4::ZERO; 9],
/// })?;
/// dev.submit(Command::CreateIndexBuffer { id: 0, indices: Indices::U16(vec![0, 1, 2]) })?;
/// # Ok::<(), gwc_api::DeviceError>(())
/// ```
#[derive(Debug, Default)]
pub struct Device {
    trace: Trace,
    vertex_buffers: HashMap<u32, u32>, // id -> vertex count
    index_buffers: HashMap<u32, u32>,  // id -> index count, max index
    index_max: HashMap<u32, u32>,
    textures: HashMap<u32, ()>,
    programs: HashMap<u32, ()>,
    first_error: Option<DeviceError>,
}

impl Device {
    /// Creates an empty device.
    pub fn new() -> Self {
        Device::default()
    }

    /// Submits a command: validates, records, returns it for forwarding.
    ///
    /// # Errors
    ///
    /// Returns a [`DeviceError`] (and records nothing) when the command
    /// references unknown resources, redefines an id, or draws out of
    /// bounds.
    pub fn submit(&mut self, command: Command) -> Result<(), DeviceError> {
        self.validate(&command)?;
        self.trace.push(command);
        Ok(())
    }

    /// Submits a command and forwards it to a live sink.
    ///
    /// # Errors
    ///
    /// Same as [`Device::submit`].
    pub fn submit_to<S: CommandSink>(
        &mut self,
        command: Command,
        sink: &mut S,
    ) -> Result<(), DeviceError> {
        self.validate(&command)?;
        sink.consume(&command);
        self.trace.push(command);
        Ok(())
    }

    fn validate(&mut self, command: &Command) -> Result<(), DeviceError> {
        match command {
            Command::CreateVertexBuffer { id, layout, data } => {
                if self.vertex_buffers.contains_key(id) {
                    return Err(DeviceError::DuplicateId("vertex buffer", *id));
                }
                if layout.attributes == 0 || data.len() % layout.attributes as usize != 0 {
                    return Err(DeviceError::MalformedVertexData);
                }
                self.vertex_buffers.insert(*id, (data.len() / layout.attributes as usize) as u32);
            }
            Command::CreateIndexBuffer { id, indices } => {
                if self.index_buffers.contains_key(id) {
                    return Err(DeviceError::DuplicateId("index buffer", *id));
                }
                let max = (0..indices.len()).map(|i| indices.get(i)).max().unwrap_or(0);
                self.index_buffers.insert(*id, indices.len() as u32);
                self.index_max.insert(*id, max);
            }
            Command::CreateTexture { id, .. } => {
                if self.textures.contains_key(id) {
                    return Err(DeviceError::DuplicateId("texture", *id));
                }
                self.textures.insert(*id, ());
            }
            Command::CreateProgram { id, .. } => {
                if self.programs.contains_key(id) {
                    return Err(DeviceError::DuplicateId("program", *id));
                }
                self.programs.insert(*id, ());
            }
            Command::State(state) => match state {
                StateCommand::BindTexture { texture, .. }
                    if !self.textures.contains_key(texture) => {
                        return Err(DeviceError::UnknownId("texture", *texture));
                    }
                StateCommand::BindPrograms { vertex, fragment } => {
                    if !self.programs.contains_key(vertex) {
                        return Err(DeviceError::UnknownId("program", *vertex));
                    }
                    if !self.programs.contains_key(fragment) {
                        return Err(DeviceError::UnknownId("program", *fragment));
                    }
                }
                _ => {}
            },
            Command::Draw { vertex_buffer, index_buffer, first, count, .. } => {
                let &vcount = self
                    .vertex_buffers
                    .get(vertex_buffer)
                    .ok_or(DeviceError::UnknownId("vertex buffer", *vertex_buffer))?;
                let &icount = self
                    .index_buffers
                    .get(index_buffer)
                    .ok_or(DeviceError::UnknownId("index buffer", *index_buffer))?;
                if first.saturating_add(*count) > icount {
                    return Err(DeviceError::IndexRangeOutOfBounds {
                        first: *first,
                        count: *count,
                        available: icount,
                    });
                }
                let max = self.index_max[index_buffer];
                if max >= vcount {
                    return Err(DeviceError::VertexOutOfBounds { index: max, available: vcount });
                }
            }
            Command::Clear { .. } | Command::EndFrame => {}
        }
        Ok(())
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the device, returning the recorded trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The first command the device rejected while consuming a stream as
    /// a [`CommandSink`], if any. [`Device::submit`] returns its errors
    /// instead and never sets this.
    pub fn first_error(&self) -> Option<&DeviceError> {
        self.first_error.as_ref()
    }
}

impl CommandSink for Device {
    fn consume(&mut self, command: &Command) {
        match self.validate(command) {
            Ok(()) => self.trace.push(command.clone()),
            Err(e) => {
                self.first_error.get_or_insert(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Indices, VertexLayout};
    use gwc_math::Vec4;
    use gwc_raster::PrimitiveType;

    fn vb(id: u32, verts: usize) -> Command {
        Command::CreateVertexBuffer {
            id,
            layout: VertexLayout::POS_NORMAL_UV,
            data: vec![Vec4::ZERO; verts * 3],
        }
    }

    fn ib(id: u32, indices: Vec<u16>) -> Command {
        Command::CreateIndexBuffer { id, indices: Indices::U16(indices) }
    }

    fn draw(vbuf: u32, ibuf: u32, first: u32, count: u32) -> Command {
        Command::Draw {
            vertex_buffer: vbuf,
            index_buffer: ibuf,
            primitive: PrimitiveType::TriangleList,
            first,
            count,
        }
    }

    #[test]
    fn valid_stream_records() {
        let mut d = Device::new();
        d.submit(vb(0, 3)).unwrap();
        d.submit(ib(0, vec![0, 1, 2])).unwrap();
        d.submit(draw(0, 0, 0, 3)).unwrap();
        d.submit(Command::EndFrame).unwrap();
        assert_eq!(d.trace().len(), 4);
        assert_eq!(d.trace().frame_count(), 1);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut d = Device::new();
        d.submit(vb(0, 3)).unwrap();
        assert_eq!(d.submit(vb(0, 3)).unwrap_err(), DeviceError::DuplicateId("vertex buffer", 0));
    }

    #[test]
    fn unknown_buffer_rejected() {
        let mut d = Device::new();
        d.submit(vb(0, 3)).unwrap();
        assert_eq!(
            d.submit(draw(0, 9, 0, 3)).unwrap_err(),
            DeviceError::UnknownId("index buffer", 9)
        );
    }

    #[test]
    fn out_of_range_draw_rejected() {
        let mut d = Device::new();
        d.submit(vb(0, 3)).unwrap();
        d.submit(ib(0, vec![0, 1, 2])).unwrap();
        let err = d.submit(draw(0, 0, 1, 3)).unwrap_err();
        assert!(matches!(err, DeviceError::IndexRangeOutOfBounds { .. }));
    }

    #[test]
    fn dangling_index_rejected() {
        let mut d = Device::new();
        d.submit(vb(0, 3)).unwrap();
        d.submit(ib(0, vec![0, 1, 7])).unwrap(); // index 7 > 2
        let err = d.submit(draw(0, 0, 0, 3)).unwrap_err();
        assert!(matches!(err, DeviceError::VertexOutOfBounds { index: 7, available: 3 }));
    }

    #[test]
    fn malformed_vertex_data_rejected() {
        let mut d = Device::new();
        let cmd = Command::CreateVertexBuffer {
            id: 0,
            layout: VertexLayout::POS_NORMAL_UV,
            data: vec![Vec4::ZERO; 4], // not a multiple of 3
        };
        assert_eq!(d.submit(cmd).unwrap_err(), DeviceError::MalformedVertexData);
    }

    #[test]
    fn rejected_commands_not_recorded() {
        let mut d = Device::new();
        let _ = d.submit(draw(0, 0, 0, 3));
        assert_eq!(d.trace().len(), 0);
    }

    #[test]
    fn binding_unknown_texture_rejected() {
        let mut d = Device::new();
        let err = d
            .submit(Command::State(StateCommand::BindTexture { unit: 0, texture: 5 }))
            .unwrap_err();
        assert_eq!(err, DeviceError::UnknownId("texture", 5));
    }

    #[test]
    fn consumed_valid_stream_records_like_submit() {
        let stream = [vb(0, 3), ib(0, vec![0, 1, 2]), draw(0, 0, 0, 3), Command::EndFrame];
        let mut submitted = Device::new();
        let mut consumed = Device::new();
        for c in &stream {
            submitted.submit(c.clone()).unwrap();
            consumed.consume(c);
        }
        assert_eq!(consumed.first_error(), None);
        assert_eq!(consumed.into_trace(), submitted.into_trace());
    }

    #[test]
    fn consumed_invalid_command_is_dropped_and_first_error_kept() {
        let mut d = Device::new();
        d.consume(&vb(0, 3));
        d.consume(&draw(0, 9, 0, 3)); // unknown index buffer
        d.consume(&vb(0, 3)); // duplicate id
        d.consume(&Command::EndFrame);
        assert_eq!(d.first_error(), Some(&DeviceError::UnknownId("index buffer", 9)));
        assert_eq!(d.trace().commands(), &[vb(0, 3), Command::EndFrame]);
    }

    #[test]
    fn live_sink_receives_commands() {
        struct Counter(u32);
        impl CommandSink for Counter {
            fn consume(&mut self, _c: &Command) {
                self.0 += 1;
            }
        }
        let mut d = Device::new();
        let mut sink = Counter(0);
        d.submit_to(vb(0, 3), &mut sink).unwrap();
        d.submit_to(Command::EndFrame, &mut sink).unwrap();
        assert_eq!(sink.0, 2);
    }
}
