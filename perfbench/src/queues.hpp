// The queues the workloads measure, built by name, and the drain every
// conservation check ends with.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common.hpp"
#include "queues/klsm/klsm.hpp"
#include "queues/multiqueue.hpp"
#include "queues/multiqueue_eng.hpp"

namespace pb {

// Calls f(queue) on a fresh instance of the queue named `name`: mq (c=4),
// mq-eng (default MqEngConfig) or klsm4096.
template <typename F>
void with_queue(const std::string& name, unsigned threads, std::uint64_t seed,
                F&& f) {
  if (name == "mq") {
    f(*std::make_unique<cpq::MultiQueue<Key, Value>>(threads, 4, seed));
  } else if (name == "mq-eng") {
    f(*std::make_unique<cpq::EngMultiQueue<Key, Value>>(
        threads, cpq::MqEngConfig{}, seed));
  } else {
    f(*std::make_unique<cpq::KLsmQueue<Key, Value>>(threads, 4096, seed));
  }
}

// Pops everything left through handle `tid`, passing each item to
// sink(key, value), and re-polls a run of empty answers so a relaxed
// queue's transient emptiness cannot hide items. Returns the items popped.
template <typename Q, typename Sink>
std::uint64_t drain(Q& queue, Sink&& sink, unsigned tid = 0) {
  constexpr unsigned kMisses = 256;
  auto handle = queue.get_handle(tid);
  std::uint64_t n = 0;
  Key key;
  Value value;
  for (unsigned misses = 0; misses < kMisses;) {
    if (handle.delete_min(key, value)) {
      sink(key, value);
      ++n;
      misses = 0;
    } else {
      ++misses;
    }
  }
  return n;
}

}  // namespace pb
