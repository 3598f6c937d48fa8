#include "hierarchy/code_list.h"

#include <functional>

namespace rdfcube {
namespace hierarchy {

namespace {

// Smallest index table; a table never holds more than half its slots.
constexpr std::size_t kMinIndexSlots = 8;

std::size_t SlotsFor(std::size_t codes) {
  std::size_t slots = kMinIndexSlots;
  while (slots < 2 * codes) slots *= 2;
  return slots;
}

}  // namespace

CodeList::CodeList(std::string root_name) {
  names_.push_back(std::move(root_name));
  parents_.push_back(kNoCode);
  index_.assign(kMinIndexSlots, kNoCode);
  index_[Probe(names_[0])] = 0;
}

std::size_t CodeList::Probe(std::string_view name) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = std::hash<std::string_view>{}(name) & mask;
  while (index_[slot] != kNoCode && names_[index_[slot]] != name) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void CodeList::Rehash(std::size_t slots) {
  index_.assign(slots, kNoCode);
  for (CodeId c = 0; c < names_.size(); ++c) index_[Probe(names_[c])] = c;
}

void CodeList::Reserve(std::size_t n, std::size_t limit) {
  const std::size_t codes = n < limit ? n : limit;
  names_.reserve(codes);
  parents_.reserve(codes);
  if (SlotsFor(codes) > index_.size()) Rehash(SlotsFor(codes));
}

Result<CodeId> CodeList::Add(std::string_view name, CodeId parent) {
  if (parent >= names_.size()) {
    return Status::InvalidArgument("parent code id out of range");
  }
  const std::size_t slot = Probe(name);
  if (index_[slot] != kNoCode) {
    const CodeId existing = index_[slot];
    if (parents_[existing] != parent) {
      return Status::InvalidArgument("code '" + std::string(name) +
                                     "' re-added with a different parent");
    }
    return existing;
  }
  const CodeId id = static_cast<CodeId>(names_.size());
  names_.emplace_back(name);
  parents_.push_back(parent);
  if (2 * names_.size() > index_.size()) {
    Rehash(2 * index_.size());
  } else {
    index_[slot] = id;
  }
  finalized_ = false;
  return id;
}

std::optional<CodeId> CodeList::Find(std::string_view name) const {
  const CodeId id = index_[Probe(name)];
  if (id == kNoCode) return std::nullopt;
  return id;
}

Status CodeList::Finalize() {
  const std::size_t n = names_.size();
  // Children as CSR in id order: count per parent, prefix-sum into start
  // positions, then place each code and advance its parent's cursor. The
  // cursors end where the next parent starts, so shifting them one slot
  // right restores the offsets.
  child_offsets_.assign(n + 1, 0);
  for (CodeId c = 1; c < n; ++c) ++child_offsets_[parents_[c] + 1];
  for (std::size_t p = 0; p < n; ++p) {
    child_offsets_[p + 1] += child_offsets_[p];
  }
  child_ids_.resize(n - 1);
  for (CodeId c = 1; c < n; ++c) child_ids_[child_offsets_[parents_[c]]++] = c;
  for (std::size_t p = n; p > 0; --p) child_offsets_[p] = child_offsets_[p - 1];
  child_offsets_[0] = 0;

  // Euler tour without a walk: each code takes two clock ticks (entry and
  // exit), so a subtree of s codes spans 2s ticks. Subtree sizes come
  // children first (a child's id exceeds its parent's), held in tout_
  // until each code's exit is known; then entries go parents first, a
  // child entering right after its parent and its earlier siblings'
  // subtrees. These are the labels a depth-first walk over the children in
  // insertion order would assign.
  levels_.assign(n, 0);
  tin_.assign(n, 0);
  tout_.assign(n, 1);
  max_level_ = 0;
  for (std::size_t c = n - 1; c > 0; --c) tout_[parents_[c]] += tout_[c];
  if (tout_[0] != n) {
    return Status::Internal("code list hierarchy is not a single tree");
  }
  for (CodeId p = 0; p < n; ++p) {
    uint32_t clock = tin_[p] + 1;
    for (CodeId child : children(p)) {
      tin_[child] = clock;
      clock += 2 * tout_[child];
      levels_[child] = levels_[p] + 1;
      if (levels_[child] > max_level_) max_level_ = levels_[child];
    }
    tout_[p] = clock;
  }
  finalized_ = true;
  return Status::OK();
}

std::vector<CodeId> CodeList::AncestorsOrSelf(CodeId c) const {
  std::vector<CodeId> chain;
  for (CodeId cur = c; cur != kNoCode; cur = parents_[cur]) {
    chain.push_back(cur);
  }
  return chain;
}

}  // namespace hierarchy
}  // namespace rdfcube
