// Package am is a Go reimplementation of the AM++ / Active Pebbles messaging
// substrate the paper builds on (Willcock et al., "AM++: A Generalized Active
// Message Framework"; Willcock et al., "Active Pebbles").
//
// It simulates a distributed machine inside one process: a Universe holds R
// ranks, each with its own inbound message queue and a pool of handler
// threads. User programs run SPMD style, one goroutine per rank, and
// communicate only through typed active messages. The features the paper
// relies on are all present:
//
//   - Typed message types with arbitrary handler functions, which take a
//     delivered envelope's messages one at a time or as one batch; handlers
//     may send any number of further messages (no restrictions, unlike
//     classic AM), one at a time or as a run (SendAll).
//   - Object-based addressing: a message type may carry an address function
//     that computes the destination rank from the payload, so senders address
//     data (vertices), not ranks.
//   - A coalescing layer that buffers messages per destination and ships them
//     in batches (envelopes).
//   - A caching/reduction layer that combines or suppresses redundant
//     messages inside coalescing buffers (e.g. keep only the best distance
//     per target vertex).
//   - Epochs with distributed termination detection: an epoch ends only when
//     every message sent (directly or transitively by handlers) has been
//     handled on every rank. Two detectors are provided: a fast shared
//     atomic-counter detector and a Mattern-style four-counter protocol that
//     uses explicit control messages, as a real distributed system would.
//   - The epoch primitives the paper's strategies need: Flush (epoch_flush)
//     and TryFinish (try_finish).
//   - Collectives (barrier, all-reduce) for use between epochs.
//
// Message and byte counts are tracked exactly (see Stats); they are the
// basis of the message-count experiments in EXPERIMENTS.md.
package am
