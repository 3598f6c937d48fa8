// Hierarchical code lists (paper Def. 2): each dimension draws its values
// from a coded list with a tree hierarchy rooted at an ALL concept.

#ifndef RDFCUBE_HIERARCHY_CODE_LIST_H_
#define RDFCUBE_HIERARCHY_CODE_LIST_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/status.h"

namespace rdfcube {
namespace hierarchy {

/// Dense identifier of a code within one CodeList.
using CodeId = uint32_t;

/// Sentinel for "no code".
inline constexpr CodeId kNoCode = UINT32_MAX;

/// \brief A finalized code list's Euler-tour interval labels, indexed by
/// CodeId: `a` is an ancestor-or-self of `b` iff pre[a] <= pre[b] and
/// post[b] <= post[a]. Valid while the list is alive and unmodified.
struct EulerLabels {
  const uint32_t* pre;
  const uint32_t* post;
};

/// \brief One dimension's hierarchical code list.
///
/// Codes are added with an optional parent, then Finalize() validates the
/// structure (single root, no cycles) and computes for every code:
///  * its level (root = 0),
///  * Euler-tour interval labels, making IsAncestorOrSelf an O(1) interval
///    test — this is the `levels` hash table plus `hierarchy.isParent` of the
///    paper's Algorithm 4, with the constant-time check the paper requires,
///  * its children, packed into one array.
///
/// Names are indexed by an open-addressing table of ids over the stored
/// names, so adding a code allocates at most its name.
///
/// Ancestry is reflexive (`c ≻ c`), matching Def. 2.
class CodeList {
 public:
  /// Creates a code list whose root concept carries the given name
  /// (typically an "ALL" IRI). The root has level 0 and id 0.
  explicit CodeList(std::string root_name);

  /// Adds a code under `parent` (defaults to the root). Returns the new id,
  /// or the existing id if `name` was already added (the parent must then
  /// match, else InvalidArgument).
  [[nodiscard]] Result<CodeId> Add(std::string_view name, CodeId parent = 0);

  /// Makes room for `n` codes in all (the root included), so that adding
  /// that many grows no array. The reservation is clamped to `limit`, the
  /// most codes the caller can still supply: a decoder passes what its
  /// remaining bytes can encode, so a forged count cannot size the list.
  void Reserve(std::size_t n, std::size_t limit);

  /// Looks up a code by name.
  std::optional<CodeId> Find(std::string_view name) const;

  /// Finishes construction: computes levels, interval labels and the
  /// children arrays. Must be called before the query methods below.
  /// Idempotent; adding more codes after Finalize() requires calling it
  /// again.
  [[nodiscard]] Status Finalize();

  /// True iff `a` is an ancestor of `b` or a == b (the paper's `a ≻ b`).
  /// Precondition: Finalize() succeeded.
  bool IsAncestorOrSelf(CodeId a, CodeId b) const {
    return tin_[a] <= tin_[b] && tout_[b] <= tout_[a];
  }

  /// The (pre, post) labels behind IsAncestorOrSelf, for kernels that pack
  /// them. Precondition: Finalize() succeeded.
  EulerLabels euler_labels() const { return {tin_.data(), tout_.data()}; }

  /// True iff `a` is a strict ancestor of `b`.
  bool IsStrictAncestor(CodeId a, CodeId b) const {
    return a != b && IsAncestorOrSelf(a, b);
  }

  CodeId root() const { return 0; }
  const std::string& name(CodeId c) const { return names_[c]; }
  CodeId parent(CodeId c) const { return parents_[c]; }

  /// Depth of `c`; the root is level 0. Precondition: finalized.
  uint32_t level(CodeId c) const { return levels_[c]; }

  /// Deepest level present. Precondition: finalized.
  uint32_t max_level() const { return max_level_; }

  std::size_t size() const { return names_.size(); }
  bool finalized() const { return finalized_; }

  /// Chain of ancestors from `c` up to and including the root (c first).
  std::vector<CodeId> AncestorsOrSelf(CodeId c) const;

  /// Direct children of `c` in the order they were added: a view into one
  /// array shared by every code, valid until the list is next modified.
  /// Precondition: finalized.
  std::span<const CodeId> children(CodeId c) const {
    return {child_ids_.data() + child_offsets_[c],
            child_ids_.data() + child_offsets_[c + 1]};
  }

 private:
  // The slot of `name` in index_: the one holding its id, or the empty slot
  // where it would go.
  std::size_t Probe(std::string_view name) const;
  // Rehashes every name into a table of `slots` (a power of two).
  void Rehash(std::size_t slots);

  std::vector<std::string> names_;
  std::vector<CodeId> parents_;  // parents_[0] == kNoCode; parents_[c] < c
  // Power-of-two table of ids into names_, kNoCode marking an empty slot,
  // never more than half full (linear probing).
  std::vector<CodeId> index_;

  bool finalized_ = false;
  std::vector<uint32_t> levels_;
  std::vector<uint32_t> tin_, tout_;  // Euler-tour interval labels
  uint32_t max_level_ = 0;
  // Children as CSR: those of c are child_ids_[child_offsets_[c],
  // child_offsets_[c + 1]), ascending by id (= insertion order).
  std::vector<uint32_t> child_offsets_;
  std::vector<CodeId> child_ids_;
};

}  // namespace hierarchy
}  // namespace rdfcube

#endif  // RDFCUBE_HIERARCHY_CODE_LIST_H_
