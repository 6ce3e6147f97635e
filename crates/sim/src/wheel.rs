//! The name the engine's scheduler used to go by, kept for callers outside
//! the workspace.

/// Alias of [`crate::queue::LaneScheduler`].
pub type TimingWheel<E> = crate::queue::LaneScheduler<E>;
