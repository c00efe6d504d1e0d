// The engineered MultiQueue's former name, kept for code that still spells
// it; the class is MultiQueue in queues/multiqueue.hpp.
#pragma once

#include "queues/multiqueue.hpp"

namespace cpq {

template <typename Key, typename Value,
          typename SeqQueue = seq::BinaryHeap<Key, Value>>
using EngMultiQueue = MultiQueue<Key, Value, SeqQueue>;

}  // namespace cpq
