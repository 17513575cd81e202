// Package pmap implements the paper's property maps (§III-B): associations
// from vertices or edges to values, stored distributed — each rank holds the
// values of the vertices and edges it owns, and all access happens at the
// owner ("reading from and writing to property maps must be done at the
// nodes where the values are located", §IV).
//
// "At the owner" is a statement about storage, not about threads: every
// accessor takes the owning rank and acts on that rank's shard, on behalf of
// the owning rank. The word-valued maps are pure atomics and the set-valued
// map takes the owner's lock, so the caller may be any of the owner's handler
// threads or — where the transport says two ranks share an address space — a
// thread of a co-resident rank applying a single-word operation in place
// instead of mailing it (DESIGN.md, "Co-resident direct application"). What
// stays with the owner's threads is everything that is not one word: edge
// generation, lock-synchronised conditions, work hooks.
//
// Two families are provided:
//
//   - Word-valued maps (VertexWord, EdgeWord) storing int64 words with
//     atomic operations (load, store, min, add, CAS). These are what the
//     pattern engine operates on: word payloads keep messages fixed-size
//     and coalescible, and single-value conditions can be synchronized with
//     atomic instructions exactly as §IV-B describes.
//   - VertexSet for set-valued properties with atomic insert (the paper's
//     preds[v].insert(u) modification form).
//
// The LockMap realizes §IV-B's lock map abstraction: when a condition
// accesses more than one value at a vertex, synchronization falls back from
// atomics to locking, parameterized by a locking scheme (a lock per vertex,
// or a lock per block of vertices, trading lock count against coarseness).
package pmap
