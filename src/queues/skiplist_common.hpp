// Lock-free skiplist substrate shared by the Lindén–Jonsson queue and the
// SprayList.
//
// Design notes
// ------------
// * Nodes are ordered by (key, node address); the address tiebreak makes the
//   order total, so duplicate keys need no special cases.
// * A node is logically deleted when bit 0 of its next[0] word is set. The
//   deleter claims the node with fetch_or — exactly one thread observes the
//   unmarked previous value and owns the item. This is the Lindén–Jonsson
//   "minimal memory contention" trick: deletions do not modify any other
//   node, so concurrent delete_min operations only contend on the marked
//   word itself.
// * Physical unlinking ("snipping") is best-effort and may be performed by
//   any traversal; inserts never link a new node after a logically deleted
//   predecessor (the link CAS requires the unmarked word), which rules out
//   losing live nodes to concurrent snips.
// * Memory reclamation is deferred: claimed nodes are pushed onto a Treiber
//   retired stack and freed only at destruction or at an explicitly
//   quiescent unsafe_purge(). The original Lindén and SprayList benchmark
//   codes equally never return nodes mid-run (custom pools); deferring makes
//   every racy unlink trivially memory-safe and is the honest cost model for
//   a throughput benchmark. Bounded-memory operation with EBR is
//   demonstrated by the k-LSM (src/queues/klsm/), which frees aggressively.
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>

#include "obs/metrics.hpp"
#include "platform/cache.hpp"
#include "platform/rng.hpp"
#include "validation/fault_injection.hpp"

namespace cpq::detail {

template <typename Key, typename Value>
class SkiplistBase {
 public:
  static constexpr unsigned kMaxHeight = 20;

  explicit SkiplistBase(std::uint64_t seed)
      : head_(new_node(std::numeric_limits<Key>::min(), Value{}, kMaxHeight)),
        tail_(new_node(std::numeric_limits<Key>::max(), Value{}, kMaxHeight)),
        seed_(seed) {
    for (unsigned level = 0; level < kMaxHeight; ++level) {
      head_->next[level].store(pack(tail_, false), std::memory_order_relaxed);
      tail_->next[level].store(pack(nullptr, false), std::memory_order_relaxed);
    }
  }

  ~SkiplistBase() {
    // Free the whole level-0 chain except nodes owned by the retired stack
    // (i.e. marked nodes — their claimant pushed them there), then the
    // retired stack itself. Each node is freed exactly once.
    Node* node = head_;
    while (node) {
      Node* next = unpack(node->next[0].load(std::memory_order_relaxed));
      if (node == head_ || node == tail_ || !is_marked(node)) {
        delete_node(node);
      }
      node = next;
    }
    Node* retired = retired_head_.load(std::memory_order_relaxed);
    while (retired) {
      Node* next = retired->retired_next;
      delete_node(retired);
      retired = next;
    }
  }

  SkiplistBase(const SkiplistBase&) = delete;
  SkiplistBase& operator=(const SkiplistBase&) = delete;

  // Reclaim all logically deleted nodes. ONLY safe when no other thread is
  // operating on the skiplist (e.g. between benchmark repetitions).
  void unsafe_purge() {
    // Rebuild every level over live nodes only.
    Node* preds[kMaxHeight];
    for (unsigned level = 0; level < kMaxHeight; ++level) preds[level] = head_;
    Node* node = unpack(head_->next[0].load(std::memory_order_relaxed));
    while (node != tail_) {
      Node* next = unpack(node->next[0].load(std::memory_order_relaxed));
      if (!is_marked(node)) {
        // All surviving nodes are live, so every rebuilt link is unmarked.
        for (unsigned level = 0; level < node->height; ++level) {
          preds[level]->next[level].store(pack(node, false),
                                          std::memory_order_relaxed);
          preds[level] = node;
        }
      }
      node = next;
    }
    for (unsigned level = 0; level < kMaxHeight; ++level) {
      preds[level]->next[level].store(pack(tail_, false),
                                      std::memory_order_relaxed);
    }
    Node* retired =
        retired_head_.exchange(nullptr, std::memory_order_relaxed);
    while (retired) {
      Node* next = retired->retired_next;
      delete_node(retired);
      retired = next;
    }
  }

  // Number of live (unmarked) nodes; linear scan, quiescent use only.
  std::size_t unsafe_size() const {
    std::size_t n = 0;
    const Node* node = unpack(head_->next[0].load(std::memory_order_relaxed));
    while (node != tail_) {
      if (!is_marked(node)) ++n;
      node = unpack(node->next[0].load(std::memory_order_relaxed));
    }
    return n;
  }

 protected:
  struct Node {
    Key key;
    Value value;
    unsigned height;
    Node* retired_next = nullptr;  // Treiber link for deferred reclamation
    // next[0] bit 0 set <=> this node is logically deleted.
    std::atomic<std::uintptr_t> next[1];  // trailing array, length = height
  };

  static Node* new_node(Key key, Value value, unsigned height) {
    const std::size_t bytes =
        sizeof(Node) + (height - 1) * sizeof(std::atomic<std::uintptr_t>);
    void* mem = ::operator new(bytes, std::align_val_t{kCacheLineSize});
    Node* node = static_cast<Node*>(mem);
    node->key = key;
    node->value = value;
    node->height = height;
    node->retired_next = nullptr;
    for (unsigned level = 0; level < height; ++level) {
      new (&node->next[level]) std::atomic<std::uintptr_t>(0);
    }
    return node;
  }

  static void delete_node(Node* node) {
    ::operator delete(node, std::align_val_t{kCacheLineSize});
  }

  static std::uintptr_t pack(Node* node, bool mark) noexcept {
    return reinterpret_cast<std::uintptr_t>(node) |
           static_cast<std::uintptr_t>(mark);
  }

  static Node* unpack(std::uintptr_t word) noexcept {
    return reinterpret_cast<Node*>(word & ~std::uintptr_t{1});
  }

  static bool word_marked(std::uintptr_t word) noexcept { return word & 1; }

  // A node is logically deleted iff its own next[0] word is marked.
  static bool is_marked(const Node* node) noexcept {
    return word_marked(node->next[0].load(std::memory_order_acquire));
  }

  // Total order: (key, address). The address tiebreak gives duplicates a
  // stable order and makes searches exact.
  static bool node_less(const Node* node, Key key, const Node* ref) noexcept {
    if (node->key < key) return true;
    if (key < node->key) return false;
    return ref != nullptr && node < ref;
  }

  // Geometric height from the caller's RNG (p = 1/2), capped.
  static unsigned random_height(Xoroshiro128& rng) noexcept {
    const std::uint64_t r = rng.next() | (1ULL << (kMaxHeight - 1));
    return static_cast<unsigned>(std::countr_zero(r)) + 1;
  }

  // Find preds[l]/succs[l] such that preds[l] < (key, ref) <= succs[l] at
  // every level, snipping logically deleted nodes out of the traversed
  // chains along the way (best effort). Returns the level-0 successor.
  // `ref == nullptr` targets the position before all nodes with `key`.
  Node* search(Key key, const Node* ref, Node** preds, Node** succs) {
    Node* pred = head_;
    for (unsigned level = kMaxHeight; level-- > 0;) {
      std::uintptr_t pred_word = pred->next[level].load(std::memory_order_acquire);
      Node* curr = unpack(pred_word);
      for (;;) {
        if (curr == tail_) break;
        const std::uintptr_t curr_word =
            curr->next[level].load(std::memory_order_acquire);
        Node* next = unpack(curr_word);
        // Start pulling the successor while we compare/snip curr: the
        // traversal is a dependent-load chain, and the next hop's header
        // line is the one miss we can overlap with this iteration.
        if (next != nullptr) prefetch_read(next);
        CPQ_INJECT("skiplist.snip");
        // At level 0 the mark must come from curr_word itself: only a
        // marked word's successor is final (inserts link behind unmarked
        // words only), so snipping to the successor of an earlier,
        // unmarked load could cut out a node linked behind curr since.
        // Upper-level words carry no mark, and a link lost there only
        // shortens a node.
        const bool marked =
            level == 0 ? word_marked(curr_word) : is_marked(curr);
        if (marked) {
          // Snip curr out of this level (preserving pred's own level-0 mark
          // bit). Failure means pred's chain changed; reload and continue.
          const std::uintptr_t desired = pack(next, word_marked(pred_word));
          if (pred->next[level].compare_exchange_weak(
                  pred_word, desired, std::memory_order_acq_rel,
                  std::memory_order_acquire)) {
            pred_word = desired;
          }
          curr = unpack(pred_word);
          continue;
        }
        if (!node_less(curr, key, ref)) break;
        pred = curr;
        pred_word = curr_word;
        curr = next;
      }
      if (preds) preds[level] = pred;
      if (succs) succs[level] = curr;
      if (level == 0) return curr;
    }
    return nullptr;  // unreachable
  }

  // Lock-free insert shared by Linden and SprayList.
  void insert_node(Key key, Value value, Xoroshiro128& rng) {
    const unsigned height = random_height(rng);
    Node* node = new_node(key, value, height);
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    for (;;) {
      search(key, node, preds, succs);
      // Prepare all level pointers before publishing at level 0.
      for (unsigned level = 0; level < height; ++level) {
        node->next[level].store(pack(succs[level], false),
                                std::memory_order_relaxed);
      }
      // Publish: the expected word must be unmarked — never attach a live
      // node to a logically deleted predecessor.
      std::uintptr_t expected = pack(succs[0], false);
      if (preds[0]->next[0].compare_exchange_strong(
              expected, pack(node, false), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        break;
      }
      // Lost the race; re-search and retry.
      CPQ_COUNT(kCasRetry);
    }
    // Link the upper levels (best effort: a failed level is re-searched a
    // bounded number of times, then abandoned — the node just stays
    // shorter, which only affects search cost, not correctness).
    for (unsigned level = 1; level < height; ++level) {
      unsigned attempts = 0;
      for (;;) {
        if (is_marked(node)) return;  // already claimed; stop linking
        std::uintptr_t expected = pack(succs[level], false);
        if (preds[level]->next[level].compare_exchange_strong(
                expected, pack(node, false), std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          break;
        }
        if (++attempts > kLinkAttempts) return;
        search(key, node, preds, succs);
        if (succs[level] == node) break;  // already reachable at this level
        node->next[level].store(pack(succs[level], false),
                                std::memory_order_relaxed);
      }
    }
  }

  // Claim `node`: set its mark bit; true iff this thread won. The winner
  // owns the item and must push the node onto the retired stack.
  bool claim(Node* node) noexcept {
    const std::uintptr_t old =
        node->next[0].fetch_or(1, std::memory_order_acq_rel);
    return !word_marked(old);
  }

  void push_retired(Node* node) noexcept {
    Node* head = retired_head_.load(std::memory_order_relaxed);
    do {
      node->retired_next = head;
    } while (!retired_head_.compare_exchange_weak(
        head, node, std::memory_order_release, std::memory_order_relaxed));
  }

  // Detach logically deleted nodes from the head chains (the "deleted
  // prefix" restructure of Lindén–Jonsson). Nodes are NOT freed here.
  void clean_prefix() {
    for (unsigned level = kMaxHeight; level-- > 0;) {
      for (;;) {
        std::uintptr_t word = head_->next[level].load(std::memory_order_acquire);
        Node* first = unpack(word);
        if (first == tail_ || !is_marked(first)) break;
        const std::uintptr_t bypass =
            pack(unpack(first->next[level].load(std::memory_order_acquire)),
                 false);
        if (!head_->next[level].compare_exchange_strong(
                word, bypass, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          break;  // contention on head; leave it to the next cleaner
        }
      }
    }
  }

  static constexpr unsigned kLinkAttempts = 4;

  Node* const head_;
  Node* const tail_;
  std::atomic<Node*> retired_head_{nullptr};
  std::uint64_t seed_;
};

}  // namespace cpq::detail
