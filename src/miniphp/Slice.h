//===- Slice.h - Backward slices from taint sinks ---------------*- C++ -*-==//
///
/// \file
/// Backward slicing over a Cfg, driven by the facts of a taint pass
/// (Taint.h). For every sink the pass computes the set of statements that
/// can affect the sink expression — the assignments (transitively)
/// defining its variables and the branch conditions guarding the sink —
/// and, across all *live* (not proven-safe) sinks, two program-wide
/// summaries the symbolic executor uses to prune its walk:
///
///  * `ReachesLiveSink[b]` — whether block `b` can still reach a sink
///    that needs solving; exploration stops at blocks that cannot.
///  * `RelevantVars` — variables whose values can flow into a live sink
///    expression or into a branch condition guarding one; assignments to
///    any other variable are skipped during path exploration (they can
///    affect neither the sink constraint nor path feasibility).
///
/// See docs/TAINT.md for the slicing rules and the soundness argument.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_MINIPHP_SLICE_H
#define DPRLE_MINIPHP_SLICE_H

#include "miniphp/Cfg.h"
#include "miniphp/Taint.h"

#include <set>
#include <string>
#include <vector>

namespace dprle {
namespace miniphp {

/// The backward slice of one sink.
struct SinkSlice {
  const Stmt *Sink = nullptr;
  unsigned Line = 0;
  /// Source lines of the slice: the sink itself, the assignments that
  /// can (transitively) define its variables, and the conditions of the
  /// branches guarding it.
  std::set<unsigned> Lines;
  /// Variables that can affect the sink expression or its guards.
  std::set<std::string> Vars;
};

/// The result of slicing one taint pass.
struct SliceResult {
  /// False when the inputs were unusable (taint pass not Ok); consumers
  /// must then skip all pruning.
  bool Ok = false;
  /// One slice per TaintResult sink, in the same order.
  std::vector<SinkSlice> Slices;
  /// Union of SinkSlice::Vars over the live (not proven-safe) sinks.
  std::set<std::string> RelevantVars;
  /// Per block: can this block reach a live sink? (A block containing
  /// one counts.) Indexed by BlockId; empty iff !Ok.
  std::vector<char> ReachesLiveSink;

  const SinkSlice *sliceFor(const Stmt *S) const;
};

/// Computes backward slices over \p G for the sinks of \p T.
SliceResult computeSlices(const Cfg &G, const TaintResult &T);

/// Per-policy slices plus the cross-policy unions the shared multi-spec
/// walk (runSymExecAll) prunes with: a block is explored while ANY
/// policy's live sink is reachable, and an assignment is kept while its
/// target is relevant to ANY policy.
struct AuditSliceResult {
  /// False when any input taint pass was unusable; consumers must then
  /// skip all pruning.
  bool Ok = false;
  /// One SliceResult per TaintResult, in the same order.
  std::vector<SliceResult> PerPolicy;
  /// Union of the per-policy RelevantVars.
  std::set<std::string> RelevantVars;
  /// Per block: can it reach a live sink of any policy?
  std::vector<char> ReachesLiveSink;
};

/// Slices every taint result of a shared multi-policy pass
/// (analyzeTaintAll) over \p G: one computeSlices call per policy (each
/// builds its own CFG predecessor lists), plus the cross-policy unions.
AuditSliceResult computeAuditSlices(const Cfg &G,
                                    const std::vector<TaintResult> &Taints);

} // namespace miniphp
} // namespace dprle

#endif // DPRLE_MINIPHP_SLICE_H
