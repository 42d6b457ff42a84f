//===- MemoTable.h - Bounded content-keyed memo tables ----------*- C++ -*-==//
//
// Part of dprle-cpp, a reproduction of Hooimeijer & Weimer, "A Decision
// Procedure for Subset Constraints over Regular Languages" (PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one memo mechanism behind every cache in dprle. The procedure asks
/// the same language questions over and over (Figures 5 and 7: subset
/// checks, intersection emptiness, minimizing the same constants), so each
/// answer is memoized by the *content* of the machines it was computed
/// from. Keys hold machines by identity handle (Nfa.h's MachineIdentity),
/// so a lookup never re-serializes a machine. The instances:
///
///  * decision-kernel answers (Decide.h's DecisionCache),
///  * minimized() results (NfaOps.h),
///  * a session's reuse table (solver/Session.h),
///  * symbolic execution's branch-condition languages (miniphp/SymExec.cpp),
///  * rendered answers, regex text plus witness (solver/Solution.h).
///
/// A table is split into lock-striped stripes, each bounded twice: by an
/// entry count the instance chooses, and by MaxPinnedBytes / stripes bytes
/// pinned by its entries, keys and values both (memoValueBytes below).
/// Overflowing either flushes the stripe wholesale, counted as one
/// eviction. insert() refuses any value computed while the calling
/// thread's ResourceGuard is exhausted: a machine or verdict truncated by
/// a tripped budget must never be served to a later, ungoverned caller
/// (docs/ROBUSTNESS.md).
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_AUTOMATA_MEMOTABLE_H
#define DPRLE_AUTOMATA_MEMOTABLE_H

#include "automata/Nfa.h"
#include "support/Budget.h"
#include "support/Stats.h"
#include "support/StringUtils.h"

#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace dprle {

/// A memo key: shape bytes plus machine identities in order. The shape
/// must determine how many machines follow and what each one stands for
/// (a query kind, a group's layout, a condition's text), so equal keys
/// mean equal inputs.
struct MemoKey {
  std::string Shape;
  std::vector<MachineIdentity> Machines;

  /// Appends \p V to the shape as 8 little-endian bytes.
  void addNumber(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      Shape.push_back(static_cast<char>(V >> (I * 8)));
  }
  void addMachine(const Nfa &M) { Machines.push_back(M.identity()); }

  uint64_t hash() const {
    uint64_t H = fnv1a(Shape);
    for (const MachineIdentity &M : Machines)
      H = (H ^ M.hash()) * 1099511628211ull;
    return H;
  }
  /// Key bytes the entry pins: the shape and the encodings of its
  /// identities. A handle repeated back to back (the two sides of a query
  /// over one machine) counts once.
  size_t pinnedBytes() const {
    size_t Bytes = Shape.size();
    for (size_t I = 0; I != Machines.size(); ++I)
      if (I == 0 || !Machines[I].sameHandle(Machines[I - 1]))
        Bytes += Machines[I].encoding().size();
    return Bytes;
  }
  friend bool operator==(const MemoKey &, const MemoKey &) = default;
};

/// Heap bytes a memo value pins beyond its map node (which
/// MemoTable::EntryOverhead covers). Every value type stored in a
/// MemoTable has an overload, found by argument-dependent lookup next to
/// the type: scalars pin nothing, a machine its state and transition
/// storage.
template <typename T>
  requires std::is_arithmetic_v<T>
size_t memoValueBytes(T) {
  return 0;
}
inline size_t memoValueBytes(const Nfa &M) {
  return M.numStates() * sizeof(std::vector<Transition>) +
         M.numTransitions() * sizeof(Transition) + M.numStates() / 8;
}

/// A bounded, lock-striped map from MemoKey to Value; see the file
/// comment.
template <typename Value> class MemoTable {
public:
  /// Bytes all entries of one table may pin, split evenly across its
  /// stripes: each entry's key bytes, value bytes and EntryOverhead.
  /// Sized by measurement (docs/PERFORMANCE.md): the decide table then
  /// peaks no higher than a bound of 256 machines per stripe would, and
  /// the minimize memo keeps its hit ratio.
  static constexpr size_t MaxPinnedBytes = size_t(6) << 20;
  /// What an entry costs besides its key and value bytes, rounded up: the
  /// map node and bucket, the key's handle vector and the identities'
  /// shared blocks. Counting it keeps tables of many small entries
  /// (decide answers) within the same memory as tables of few large ones.
  static constexpr size_t EntryOverhead = 256;

  /// Where lookups and flushes are counted; null counters are skipped.
  struct Counters {
    RelaxedCounter *Hits = nullptr;
    RelaxedCounter *Misses = nullptr;
    RelaxedCounter *Evictions = nullptr;
  };

  MemoTable(size_t NumStripes, size_t MaxEntriesPerStripe, Counters C = {})
      : Stripes(NumStripes), MaxEntries(MaxEntriesPerStripe),
        MaxBytes(MaxPinnedBytes / NumStripes), Count(C) {}

  /// The value stored under \p K, if any; counts a hit or a miss.
  std::optional<Value> find(const MemoKey &K) const {
    Stripe &S = stripeOf(K);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Entries.find(K);
    if (It == S.Entries.end()) {
      bump(Count.Misses);
      return std::nullopt;
    }
    bump(Count.Hits);
    return It->second;
  }

  /// Files \p V under \p K unless the calling thread's budget is
  /// exhausted or the entry alone exceeds the stripe's byte bound. A full
  /// stripe is flushed first. An existing entry is kept.
  void insert(MemoKey K, Value V) {
    size_t Bytes = K.pinnedBytes() + memoValueBytes(V) + EntryOverhead;
    if (ResourceGuard::exhausted() || Bytes > MaxBytes)
      return;
    Stripe &S = stripeOf(K);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    if (S.Entries.count(K))
      return;
    if (S.Entries.size() >= MaxEntries || S.PinnedBytes + Bytes > MaxBytes) {
      S.Entries.clear();
      S.PinnedBytes = 0;
      bump(Count.Evictions);
    }
    S.Entries.emplace(std::move(K), std::move(V));
    S.PinnedBytes += Bytes;
  }

  void clear() {
    for (Stripe &S : Stripes) {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      S.Entries.clear();
      S.PinnedBytes = 0;
    }
  }

  /// Entries right now (diagnostics; momentary under concurrency).
  size_t size() const {
    size_t Total = 0;
    for (Stripe &S : Stripes) {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      Total += S.Entries.size();
    }
    return Total;
  }

  /// Calls \p F on every key, one stripe at a time under its lock.
  template <typename Fn> void forEachKey(Fn F) const {
    for (Stripe &S : Stripes) {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      for (const auto &Entry : S.Entries)
        F(Entry.first);
    }
  }

private:
  struct KeyHash {
    size_t operator()(const MemoKey &K) const { return K.hash(); }
  };
  struct Stripe {
    std::mutex Mutex;
    std::unordered_map<MemoKey, Value, KeyHash> Entries;
    size_t PinnedBytes = 0;
  };

  Stripe &stripeOf(const MemoKey &K) const {
    // The high bits pick the stripe; the map's buckets use the low ones.
    return Stripes[(K.hash() * 0x9E3779B97F4A7C15ull >> 32) % Stripes.size()];
  }
  static void bump(RelaxedCounter *C) {
    if (C)
      ++*C;
  }

  mutable std::vector<Stripe> Stripes;
  size_t MaxEntries;
  size_t MaxBytes;
  Counters Count;
};

} // namespace dprle

#endif // DPRLE_AUTOMATA_MEMOTABLE_H
