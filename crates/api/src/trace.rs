//! Replayable command traces.

use crate::command::Command;
use crate::CommandSink;

/// A recorded command stream: the simulator-side equivalent of a
/// GLInterceptor trace file.
///
/// Traces replay bit-exactly into any [`CommandSink`] — "allowing to replay
/// exactly the same input several times", the property the paper's
/// methodology (after Dunwoody & Linton) is built on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    commands: Vec<Command>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a command.
    pub fn push(&mut self, command: Command) {
        self.commands.push(command);
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// `true` when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// The commands.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Mutable access to the commands (fault injection).
    pub fn commands_mut(&mut self) -> &mut [Command] {
        &mut self.commands
    }

    /// Number of complete frames (`EndFrame` markers).
    pub fn frame_count(&self) -> usize {
        self.commands.iter().filter(|c| matches!(c, Command::EndFrame)).count()
    }

    /// Number of draw calls.
    pub fn draw_count(&self) -> usize {
        self.commands.iter().filter(|c| matches!(c, Command::Draw { .. })).count()
    }

    /// Replays the full trace into a sink.
    pub fn replay<S: CommandSink>(&self, sink: &mut S) {
        for c in &self.commands {
            sink.consume(c);
        }
    }

    /// Replays only the first `frames` frames (plus all preceding setup).
    pub fn replay_frames<S: CommandSink>(&self, frames: usize, sink: &mut S) {
        let mut done = 0;
        for c in &self.commands {
            sink.consume(c);
            if matches!(c, Command::EndFrame) {
                done += 1;
                if done >= frames {
                    break;
                }
            }
        }
    }

    /// Replays everything *after* the first `start_frame` frames — the
    /// complement of [`Trace::replay_frames`], used to resume a replay from
    /// a frame-boundary checkpoint.
    pub fn replay_from<S: CommandSink>(&self, start_frame: usize, sink: &mut S) {
        let mut done = 0;
        for c in &self.commands {
            if done >= start_frame {
                sink.consume(c);
            } else if matches!(c, Command::EndFrame) {
                done += 1;
            }
        }
    }
}

impl Extend<Command> for Trace {
    fn extend<T: IntoIterator<Item = Command>>(&mut self, iter: T) {
        self.commands.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_math::Vec4;

    struct Collector(Vec<Command>);
    impl CommandSink for Collector {
        fn consume(&mut self, c: &Command) {
            self.0.push(c.clone());
        }
    }

    fn clear() -> Command {
        Command::Clear {
            mask: crate::ClearMask::ALL,
            color: Vec4::ZERO,
            depth: 1.0,
            stencil: 0,
        }
    }

    #[test]
    fn replay_preserves_order_and_content() {
        let mut t = Trace::new();
        t.push(clear());
        t.push(Command::EndFrame);
        t.push(clear());
        t.push(Command::EndFrame);
        let mut sink = Collector(Vec::new());
        t.replay(&mut sink);
        assert_eq!(sink.0.len(), 4);
        assert_eq!(sink.0, t.commands());
        assert_eq!(t.frame_count(), 2);
    }

    #[test]
    fn replay_frames_stops_at_boundary() {
        let mut t = Trace::new();
        for _ in 0..5 {
            t.push(clear());
            t.push(Command::EndFrame);
        }
        let mut sink = Collector(Vec::new());
        t.replay_frames(2, &mut sink);
        assert_eq!(sink.0.len(), 4);
    }

    #[test]
    fn counters() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.extend([clear(), Command::EndFrame]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.draw_count(), 0);
    }
}
