//! Notifications from a client to the dedicated core (paper §III-B).
//!
//! One [`Note`] type is the minimal descriptor a client posts: it is both
//! the record the write-ahead [`crate::journal::EventJournal`] keeps and
//! the message the shared queue carries. The two differ only in how they
//! hold a note's shared-memory segment:
//!
//! * the journal keeps a [`Note<Span>`] — the segment's coordinates, so a
//!   respawned dedicated core can re-adopt it from the allocator;
//! * the queue carries a [`Note<Segment>`] — the live handle, whose
//!   release/acquire handoff through the queue is what makes the zero-copy
//!   transfer sound (the client's writes happen-before the server's reads).
//!
//! [`Note::map_segment`] is the only bridge between the two. Every client
//! note is journaled *before* it is pushed, and the queue [`Event`] carries
//! the journal's sequence number, so a restarted dedicated core can replay
//! notes the dead one never finished and reject the stale queue copies when
//! they eventually pop (`claim` arbitration).

use damaris_format::Layout;
use damaris_shm::Segment;

/// Where a segment lies in the shared buffer: what the journal keeps of a
/// note's segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub offset: usize,
    pub len: usize,
}

/// What a client tells the dedicated core, with its segment (if any)
/// held as `S`: a [`Segment`] on the queue, a [`Span`] in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Note<S> {
    /// A variable instance was written to shared memory.
    Write {
        /// Declaration-order id of the variable (name lives in the config,
        /// "only data is sent together with the minimal descriptor").
        variable_id: u32,
        /// Simulation step.
        iteration: u32,
        /// Client id within the node (the paper's `source`).
        source: u32,
        /// The reserved segment containing the payload.
        segment: S,
        /// Per-write shape for dynamic variables (particle arrays, §III-D);
        /// `None` for statically-declared layouts.
        dynamic_layout: Option<Layout>,
        /// CRC-32 the client computed over its source bytes before the
        /// `memcpy`; the persist plugin re-computes it over the segment to
        /// quarantine torn shm writes end-to-end.
        data_crc: u32,
    },
    /// A user-defined event (`df_signal`). The name is small and
    /// infrequent, so sending it keeps the API simple (the configuration
    /// holds the bindings).
    User {
        name: String,
        iteration: u32,
        source: u32,
    },
    /// The client finished an iteration; when every client of the node has
    /// sent this, iteration-scoped actions fire.
    EndIteration { iteration: u32, source: u32 },
    /// A client abandoned an allocated-but-never-committed region
    /// (`dc_alloc` handle dropped without `commit`). Clients must never
    /// release shared memory themselves — partition reclamation is FIFO
    /// and single-consumer — so the segment travels to the dedicated core,
    /// which releases it in order at the owning iteration's flush.
    Abandon {
        iteration: u32,
        source: u32,
        segment: S,
    },
}

impl<S> Note<S> {
    /// The client that sent this note.
    pub fn source(&self) -> u32 {
        match self {
            Note::Write { source, .. }
            | Note::User { source, .. }
            | Note::EndIteration { source, .. }
            | Note::Abandon { source, .. } => *source,
        }
    }

    /// The simulation step this note belongs to.
    pub fn iteration(&self) -> u32 {
        match self {
            Note::Write { iteration, .. }
            | Note::User { iteration, .. }
            | Note::EndIteration { iteration, .. }
            | Note::Abandon { iteration, .. } => *iteration,
        }
    }

    /// The same note with its segment held another way: `f` converts the
    /// segment of a `Write` or `Abandon` (the other kinds carry none), and
    /// its error aborts the conversion. Clones a name or dynamic layout,
    /// so the write fast path never calls it.
    pub fn map_segment<T, E>(&self, f: impl FnOnce(&S) -> Result<T, E>) -> Result<Note<T>, E> {
        Ok(match self {
            Note::Write {
                variable_id,
                iteration,
                source,
                segment,
                dynamic_layout,
                data_crc,
            } => Note::Write {
                variable_id: *variable_id,
                iteration: *iteration,
                source: *source,
                segment: f(segment)?,
                dynamic_layout: dynamic_layout.clone(),
                data_crc: *data_crc,
            },
            Note::User {
                name,
                iteration,
                source,
            } => Note::User {
                name: name.clone(),
                iteration: *iteration,
                source: *source,
            },
            Note::EndIteration { iteration, source } => Note::EndIteration {
                iteration: *iteration,
                source: *source,
            },
            Note::Abandon {
                iteration,
                source,
                segment,
            } => Note::Abandon {
                iteration: *iteration,
                source: *source,
                segment: f(segment)?,
            },
        })
    }
}

/// One message on the node's shared queue.
#[derive(Debug)]
pub enum Event {
    /// A client note, tagged with its write-ahead journal sequence number.
    Note { seq: u64, note: Note<Segment> },
    /// The runtime is shutting down; the server drains and exits.
    Terminate,
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_shm::MutexAllocator;
    use std::convert::Infallible;

    #[test]
    fn events_traverse_the_shared_queue() {
        let alloc = MutexAllocator::with_capacity(1024);
        let queue = damaris_shm::MpscQueue::<Event>::new(8);
        let mut seg = alloc.allocate(16).unwrap();
        seg.copy_from_slice(&[7u8; 16]);
        let write = Note::Write {
            variable_id: 3,
            iteration: 1,
            source: 0,
            segment: seg,
            dynamic_layout: None,
            data_crc: damaris_format::crc32(&[7u8; 16]),
        };
        queue
            .push(Event::Note {
                seq: 0,
                note: write,
            })
            .ok()
            .unwrap();
        let user = Note::User {
            name: "snapshot".into(),
            iteration: 1,
            source: 0,
        };
        queue.push(Event::Note { seq: 1, note: user }).ok().unwrap();
        match queue.pop().unwrap() {
            Event::Note {
                seq: 0,
                note:
                    Note::Write {
                        variable_id,
                        segment,
                        ..
                    },
            } => {
                assert_eq!(variable_id, 3);
                assert_eq!(segment.as_slice(), &[7u8; 16]);
                alloc.release(segment);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            queue.pop().unwrap(),
            Event::Note {
                seq: 1,
                note: Note::User { .. }
            }
        ));
    }

    #[test]
    fn map_segment_converts_only_the_segment() {
        let note = Note::Abandon {
            iteration: 4,
            source: 2,
            segment: Span { offset: 64, len: 8 },
        };
        assert_eq!((note.iteration(), note.source()), (4, 2));
        let Ok(moved) = note.map_segment(|s| Ok::<_, Infallible>(s.offset + s.len));
        assert_eq!(
            moved,
            Note::Abandon {
                iteration: 4,
                source: 2,
                segment: 72
            }
        );
        // A failed conversion drops the note; segment-free kinds never call `f`.
        assert_eq!(note.map_segment(|_| Err::<(), _>("gone")), Err("gone"));
        let end: Note<Span> = Note::EndIteration {
            iteration: 4,
            source: 2,
        };
        assert_eq!(
            end.map_segment(|_| Err::<(), _>("unused")),
            Ok(Note::EndIteration {
                iteration: 4,
                source: 2
            })
        );
    }
}
