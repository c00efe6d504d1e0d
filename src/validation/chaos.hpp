// Declarative chaos schedules: the input format of the ChaosCampaign runner
// (chaos_campaign.hpp).
//
// A schedule is a small line-based text file — committed next to the tests
// that run it, so a CI chaos campaign is reviewable like any other fixture:
//
//   # workload
//   duration_s 2.5
//   baseline_s 0.5          # fault-free prefix establishing the p99 baseline
//   arrival_hz 20000        # per producer (open-loop Poisson)
//   producers 2
//   consumers 2
//   hot_ops 0.9             # optional hotspot skew: this fraction of
//   hot_keys 0.1            # submissions hits the bottom hot_keys of
//                           # key_space (0 0 = uniform keys)
//   ttl_us 50000            # 0 disables deadline shedding
//   # assertions
//   window_ms 50            # p99 is tracked per window of this width
//   recovery_factor 3       # recovered when p99 <= factor * baseline p99 ...
//   recovery_floor_ms 5     # ... or below this absolute floor (noisy hosts)
//   rank_bound 4096         # RankEstimator bound; violations outside fault
//                           # windows fail the campaign. 0 skips the check.
//   # faults
//   scenario lock-convoy start=0.6 dur=0.3 kind=inject site=spinlock ppm=40000
//   scenario slow-queue  start=1.0 dur=0.3 kind=stall stall_us=150000
//
// Fault kinds:
//   stall         every submit and delete_min of the service sleeps
//                 stall_us (required) before it touches the queue; a stall
//                 longer than ttl_us makes the queue shed what it holds
//   inject        CPQ_INJECT delays at `ppm` on sites containing `site`
//                 (thread stalls: site=""; EBR reclamation delays:
//                 site=ebr; spinlock convoys: site=spinlock)
//   inject_throw  CPQ_INJECT kThrow at `ppm` on sites containing `site` —
//                 only safe on exception-clean seams (service/submit)
//
// inject/inject_throw scenarios need a binary compiled with
// CPQ_FAULT_INJECTION; without it the campaign marks them inert and says so.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

namespace cpq::validation {

enum class ChaosFaultKind : std::uint8_t {
  kStall,
  kInject,
  kInjectThrow,
};

inline const char* chaos_fault_kind_name(ChaosFaultKind kind) noexcept {
  switch (kind) {
    case ChaosFaultKind::kStall: return "stall";
    case ChaosFaultKind::kInject: return "inject";
    case ChaosFaultKind::kInjectThrow: return "inject_throw";
  }
  return "?";
}

struct ChaosScenario {
  std::string name;
  ChaosFaultKind kind = ChaosFaultKind::kStall;
  double start_s = 0.0;     // fault applied at this offset into the run
  double duration_s = 0.0;  // and cleared after this long
  std::uint32_t stall_us = 0;  // stall: pause per service operation
  std::uint32_t ppm = 0;       // inject*: firings per million crossings
  std::string site;            // inject*: site-name substring filter

  double clear_s() const noexcept { return start_s + duration_s; }
};

struct ChaosSchedule {
  // Workload shape.
  double duration_s = 2.0;
  double baseline_s = 0.4;
  double arrival_hz = 20'000.0;  // per producer
  unsigned producers = 2;
  unsigned consumers = 2;
  std::uint64_t key_space = std::uint64_t{1} << 32;
  // Hotspot key skew (workloads/distributions.hpp): hot_ops of submissions
  // draw from the bottom hot_keys of key_space. hot_keys 0 = uniform keys.
  double hot_ops = 0.0;
  double hot_keys = 0.0;

  // Service configuration (forwarded into ServiceConfig).
  std::size_t max_in_flight = 0;
  std::string policy = "reject";  // reject | tiered (admission under load)
  std::uint64_t ttl_us = 0;

  // Assertions.
  double window_ms = 25.0;
  double recovery_factor = 2.0;
  double recovery_floor_ms = 2.0;
  double rank_bound = 0.0;  // 0 = skip the rank-error check
  // Rank violations are attributed to a fault until this long after it
  // clears (backlog scored while draining is the fault's doing, not noise).
  double rank_grace_s = 0.25;

  std::vector<ChaosScenario> scenarios;
};

namespace detail {

inline bool chaos_parse_error(std::string& error, unsigned line,
                              const std::string& what) {
  error = "chaos schedule line " + std::to_string(line) + ": " + what;
  return false;
}

}  // namespace detail

// Parse a schedule from `text`. Returns false with a one-line diagnostic in
// `error` on malformed input; unknown keys are errors (a typo silently
// weakening a chaos campaign is exactly the failure this layer exists to
// prevent).
inline bool parse_chaos_schedule(const std::string& text, ChaosSchedule& out,
                                 std::string& error) {
  out = ChaosSchedule{};
  std::istringstream stream(text);
  std::string raw;
  unsigned line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream line(raw);
    std::string key;
    if (!(line >> key)) continue;  // blank / comment-only
    if (key == "scenario") {
      ChaosScenario sc;
      if (!(line >> sc.name)) {
        return detail::chaos_parse_error(error, line_no, "scenario needs a name");
      }
      bool have_kind = false;
      std::string token;
      while (line >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
          return detail::chaos_parse_error(
              error, line_no, "expected key=value, got '" + token + "'");
        }
        const std::string k = token.substr(0, eq);
        const std::string v = token.substr(eq + 1);
        if (k == "start") {
          sc.start_s = std::strtod(v.c_str(), nullptr);
        } else if (k == "dur") {
          sc.duration_s = std::strtod(v.c_str(), nullptr);
        } else if (k == "kind") {
          have_kind = true;
          if (v == "stall") {
            sc.kind = ChaosFaultKind::kStall;
          } else if (v == "inject") {
            sc.kind = ChaosFaultKind::kInject;
          } else if (v == "inject_throw") {
            sc.kind = ChaosFaultKind::kInjectThrow;
          } else {
            return detail::chaos_parse_error(error, line_no,
                                             "unknown kind '" + v + "'");
          }
        } else if (k == "stall_us") {
          sc.stall_us =
              static_cast<std::uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
        } else if (k == "ppm") {
          sc.ppm =
              static_cast<std::uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
        } else if (k == "site") {
          sc.site = v;
        } else {
          return detail::chaos_parse_error(error, line_no,
                                           "unknown scenario key '" + k + "'");
        }
      }
      if (!have_kind) {
        return detail::chaos_parse_error(
            error, line_no, "scenario '" + sc.name + "' needs kind=");
      }
      if (sc.duration_s <= 0.0) {
        return detail::chaos_parse_error(
            error, line_no, "scenario '" + sc.name + "' needs dur= > 0");
      }
      if (sc.kind == ChaosFaultKind::kStall && sc.stall_us == 0) {
        return detail::chaos_parse_error(
            error, line_no,
            "scenario '" + sc.name + "' needs stall_us= > 0");
      }
      if ((sc.kind == ChaosFaultKind::kInject ||
           sc.kind == ChaosFaultKind::kInjectThrow) &&
          sc.ppm == 0) {
        sc.ppm = sc.kind == ChaosFaultKind::kInject ? 100'000 : 2'000;
      }
      if (sc.kind == ChaosFaultKind::kInjectThrow && sc.site.empty()) {
        // Unfiltered kThrow would fire under noexcept queue internals and
        // terminate; restrict it to the exception-clean service seam.
        sc.site = "service/submit";
      }
      out.scenarios.push_back(std::move(sc));
      continue;
    }
    std::string value;
    if (!(line >> value)) {
      return detail::chaos_parse_error(error, line_no,
                                       "key '" + key + "' needs a value");
    }
    const double d = std::strtod(value.c_str(), nullptr);
    const std::uint64_t u = std::strtoull(value.c_str(), nullptr, 10);
    if (key == "duration_s") {
      out.duration_s = d;
    } else if (key == "baseline_s") {
      out.baseline_s = d;
    } else if (key == "arrival_hz") {
      out.arrival_hz = d;
    } else if (key == "producers") {
      out.producers = static_cast<unsigned>(u);
    } else if (key == "consumers") {
      out.consumers = static_cast<unsigned>(u);
    } else if (key == "key_space") {
      out.key_space = u;
    } else if (key == "hot_ops") {
      out.hot_ops = d;
    } else if (key == "hot_keys") {
      out.hot_keys = d;
    } else if (key == "max_in_flight") {
      out.max_in_flight = u;
    } else if (key == "policy") {
      if (value != "reject" && value != "tiered") {
        return detail::chaos_parse_error(
            error, line_no, "policy must be reject or tiered, got '" + value +
                                "' (block would hang an open-loop producer)");
      }
      out.policy = value;
    } else if (key == "ttl_us") {
      out.ttl_us = u;
    } else if (key == "window_ms") {
      out.window_ms = d;
    } else if (key == "recovery_factor") {
      out.recovery_factor = d;
    } else if (key == "recovery_floor_ms") {
      out.recovery_floor_ms = d;
    } else if (key == "rank_bound") {
      out.rank_bound = d;
    } else if (key == "rank_grace_s") {
      out.rank_grace_s = d;
    } else {
      return detail::chaos_parse_error(error, line_no,
                                       "unknown key '" + key + "'");
    }
  }
  if (out.duration_s <= 0.0) {
    error = "chaos schedule: duration_s must be > 0";
    return false;
  }
  if (out.producers == 0 || out.consumers == 0) {
    error = "chaos schedule: producers and consumers must be > 0";
    return false;
  }
  if (out.window_ms <= 0.0) {
    error = "chaos schedule: window_ms must be > 0";
    return false;
  }
  if (out.hot_ops < 0.0 || out.hot_ops > 1.0 || out.hot_keys < 0.0 ||
      out.hot_keys > 1.0) {
    error = "chaos schedule: hot_ops and hot_keys must be in [0, 1]";
    return false;
  }
  if (out.hot_ops > 0.0 && out.hot_keys == 0.0) {
    error = "chaos schedule: hot_ops needs hot_keys > 0";
    return false;
  }
  for (const ChaosScenario& sc : out.scenarios) {
    if (sc.start_s < out.baseline_s) {
      error = "chaos schedule: scenario '" + sc.name +
              "' starts inside the baseline window";
      return false;
    }
    if (sc.clear_s() >= out.duration_s) {
      error = "chaos schedule: scenario '" + sc.name +
              "' must clear before duration_s (no recovery window left)";
      return false;
    }
  }
  return true;
}

}  // namespace cpq::validation
