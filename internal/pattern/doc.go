// Package pattern implements the paper's primary contribution: declarative
// graph-access patterns that compile into active-message communication.
//
// A Pattern (§III) is a collection of vertex/edge property declarations and
// actions. An action starts at an input vertex v, optionally "fans out" once
// through a generator (out_edges, in_edges, adj, or the vertices stored in a
// set-valued property), and consists of a chain of conditions guarding
// property-map modifications. Expressions are built with the combinators in
// this package; the paper's aliases correspond to ordinary Go variables
// holding subexpressions.
//
// Compile performs the paper's §IV analysis:
//
//   - locality analysis (Def. 1): every value used is located at a vertex —
//     the input vertex, a generated vertex/edge (local to v), or the index
//     of a property access (possibly itself a gathered value, enabling
//     pointer-jumping chains like chg[chg[v]]);
//   - the dependency graph (Def. 2) over accesses, from which per-condition
//     message plans are derived: gather hops that accumulate values in the
//     message payload, and a final evaluate hop;
//   - the merge optimization (§IV-A): the hop at the locality of the first
//     modification is placed last and merged with condition evaluation, so
//     the read-modify-write of the modified value is synchronized at one
//     vertex (atomic instructions for the single-value case, the lock map
//     otherwise, §IV-B) — for the SSSP pattern this yields the single
//     message of Fig. 6;
//   - local-subexpression folding (Fig. 6's precomputed dist[v]+weight[e]):
//     subexpressions whose inputs are available before the final hop are
//     computed early and carried as one payload word;
//   - dependency detection (§IV-C): a modification whose property is also
//     read anywhere in the action fires the action's work hook at the
//     modified vertex when the value actually changes.
//
// Plan options disable each optimization individually (naive DFS gather
// order with backtracking, unmerged evaluation, no folding) so the
// experiment suite can reproduce the message-count comparisons of Figs. 5
// and 6.
//
// Engine.Bind resolves a compiled plan against storage into a bound program
// (prog.go) — property maps held directly, expressions as closures over
// payload slots — and the Engine executes that program over the am substrate:
// hops become active messages addressed by locality vertex (object-based
// addressing, §IV-D), executed inline when the destination vertex is owned by
// the current rank.
package pattern
