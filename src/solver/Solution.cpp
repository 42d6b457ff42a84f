//===- Solution.cpp - Satisfying assignments -----------------------------------//

#include "solver/Solution.h"
#include "automata/Decide.h"
#include "automata/MemoTable.h"
#include "automata/NfaOps.h"
#include "regex/NfaToRegex.h"

using namespace dprle;

RenderStats &RenderStats::global() {
  static RenderStats Stats;
  return Stats;
}

namespace {

struct RegisterRenderStats {
  RegisterRenderStats() {
    StatsRegistry &R = StatsRegistry::global();
    RenderStats &S = RenderStats::global();
    R.registerCounter("render.hits", &S.Hits);
    R.registerCounter("render.misses", &S.Misses);
    R.registerCounter("render.evictions", &S.Evictions);
  }
};
RegisterRenderStats RegisterRenderStatsInit;

/// Renders keyed by the machine's identity. Eight stripes: service
/// workers render concurrently, and a hit is cheap enough that one lock
/// would be contended.
MemoTable<RenderedLanguage> &renderMemo() {
  static MemoTable<RenderedLanguage> Memo(
      /*NumStripes=*/8, /*MaxEntriesPerStripe=*/512,
      {&RenderStats::global().Hits, &RenderStats::global().Misses,
       &RenderStats::global().Evictions});
  return Memo;
}

RenderedLanguage renderUncached(const Nfa &M) {
  RenderedLanguage R;
  R.Regex = nfaToRegex(M);
  if (!ResourceGuard::exhausted())
    R.Witness = shortestString(M);
  return R;
}

} // namespace

size_t dprle::memoValueBytes(const RenderedLanguage &R) {
  return R.Regex.size() + (R.Witness ? R.Witness->size() : 0);
}

RenderedLanguage dprle::renderLanguage(const Nfa &M) {
  if (!DecisionCache::global().enabled())
    return renderUncached(M);
  MemoKey Key;
  Key.addMachine(M);
  if (std::optional<RenderedLanguage> Hit = renderMemo().find(Key))
    return std::move(*Hit);
  RenderedLanguage R = renderUncached(M);
  renderMemo().insert(std::move(Key), R);
  return R;
}

void dprle::clearRenderCache() { renderMemo().clear(); }

std::optional<std::string> Assignment::witness(VarId V) const {
  return shortestString(Languages[V]);
}

std::vector<std::string> Assignment::witnesses(VarId V, size_t Count,
                                               size_t MaxLen) const {
  return enumerateStrings(Languages[V], MaxLen, Count);
}

std::string Assignment::regexFor(VarId V) const {
  return nfaToRegex(Languages[V]);
}
