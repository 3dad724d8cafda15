// Flat label -> data-node mapping used by embeddings.
//
// Pattern labels are small dense integers ($1, $2, ...), so the mapping of
// an embedding is a vector indexed by label with kInvalidNode marking
// absent slots -- Get/Set/Erase in the enumerator's inner loop are plain
// array accesses instead of the std::map node traversals the original
// implementation paid per candidate.

#ifndef TOSS_TAX_LABEL_MAP_H_
#define TOSS_TAX_LABEL_MAP_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "tax/data_tree.h"

namespace toss::tax {

class LabelMap {
 public:
  LabelMap() = default;
  LabelMap(std::initializer_list<std::pair<int, NodeId>> pairs) {
    for (const auto& [label, node] : pairs) Set(label, node);
  }

  /// The node mapped to `label`, or kInvalidNode when unmapped.
  NodeId Get(int label) const {
    return (label >= 0 && static_cast<size_t>(label) < slots_.size())
               ? slots_[label]
               : kInvalidNode;
  }

  /// Maps `label` to `node` (kInvalidNode is not a mappable value).
  void Set(int label, NodeId node) {
    assert(label >= 0 && node != kInvalidNode);
    if (static_cast<size_t>(label) >= slots_.size()) {
      slots_.resize(static_cast<size_t>(label) + 1, kInvalidNode);
    }
    if (slots_[label] == kInvalidNode) ++size_;
    slots_[label] = node;
  }

  void Erase(int label) {
    if (label >= 0 && static_cast<size_t>(label) < slots_.size() &&
        slots_[label] != kInvalidNode) {
      slots_[label] = kInvalidNode;
      --size_;
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Iterates mapped (label, node) pairs in ascending label order.
  class const_iterator {
   public:
    const_iterator(const std::vector<NodeId>* slots, size_t pos)
        : slots_(slots), pos_(pos) {
      SkipEmpty();
    }
    std::pair<int, NodeId> operator*() const {
      return {static_cast<int>(pos_), (*slots_)[pos_]};
    }
    const_iterator& operator++() {
      ++pos_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    void SkipEmpty() {
      while (pos_ < slots_->size() && (*slots_)[pos_] == kInvalidNode) {
        ++pos_;
      }
    }
    const std::vector<NodeId>* slots_;
    size_t pos_;
  };

  const_iterator begin() const { return const_iterator(&slots_, 0); }
  const_iterator end() const { return const_iterator(&slots_, slots_.size()); }

 private:
  std::vector<NodeId> slots_;
  size_t size_ = 0;
};

}  // namespace toss::tax

#endif  // TOSS_TAX_LABEL_MAP_H_
