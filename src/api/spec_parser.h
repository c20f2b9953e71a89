// Shared parsing helpers for "<generator>:key=value,..." source specs,
// used by both the batch loader (api/instance_source.cc) and the streaming
// source factory (api/stream_source.cc) so the spec dialect cannot drift
// between the two paths. Internal to src/api/.
#ifndef FLOWSCHED_API_SPEC_PARSER_H_
#define FLOWSCHED_API_SPEC_PARSER_H_

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace flowsched {

struct CoflowGenConfig;
struct PoissonConfig;

namespace api_spec {

struct Spec {
  std::string generator;
  std::map<std::string, std::string> kv;
};

inline bool SplitSpec(const std::string& source, Spec& spec,
                      std::string* error) {
  const auto colon = source.find(':');
  spec.generator = source.substr(0, colon);
  if (colon == std::string::npos) return true;
  std::stringstream rest(source.substr(colon + 1));
  std::string pair;
  while (std::getline(rest, pair, ',')) {
    if (pair.empty()) continue;
    const auto eq = pair.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) {
        *error = "generator spec: expected key=value, got \"" + pair + "\"";
      }
      return false;
    }
    spec.kv[pair.substr(0, eq)] = pair.substr(eq + 1);
  }
  return true;
}

// Reads spec values with defaults; collects unknown-key / parse errors.
class SpecReader {
 public:
  explicit SpecReader(const Spec& spec) : spec_(spec) {}

  double Get(const std::string& key, double fallback) {
    used_.push_back(key);
    const auto it = spec_.kv.find(key);
    if (it == spec_.kv.end()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == it->second.c_str()) {
      Error(key + ": unparsable value \"" + it->second + "\"");
      return fallback;
    }
    return v;
  }

  long long GetInt(const std::string& key, long long fallback) {
    used_.push_back(key);
    const auto it = spec_.kv.find(key);
    if (it == spec_.kv.end()) return fallback;
    long long v = 0;
    const char* first = it->second.data();
    const char* last = first + it->second.size();
    auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc() || ptr != last) {
      Error(key + ": unparsable value \"" + it->second + "\"");
      return fallback;
    }
    return v;
  }

  std::string GetString(const std::string& key, const std::string& fallback) {
    used_.push_back(key);
    const auto it = spec_.kv.find(key);
    return it == spec_.kv.end() ? fallback : it->second;
  }

  // Value check for a key already read: unless `ok`, records
  // "<key> must be <what>, got <value>".
  void Check(bool ok, const char* key, const char* what) {
    if (ok) return;
    const auto it = spec_.kv.find(key);
    Error(std::string(key) + " must be " + what + ", got " +
          (it == spec_.kv.end() ? std::string("the default")
                                : "\"" + it->second + "\""));
  }

  // Call after all Get*(): flags keys the generator does not understand.
  void CheckUnknown() {
    for (const auto& [key, value] : spec_.kv) {
      if (std::find(used_.begin(), used_.end(), key) == used_.end()) {
        Error("unknown key \"" + key + "\" for generator " + spec_.generator);
      }
    }
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  void Error(const std::string& msg) {
    if (!error_.empty()) error_ += "; ";
    error_ += msg;
  }

  const Spec& spec_;
  std::vector<std::string> used_;
  std::string error_;
};

// The poisson and coflow generators' keys, read and value-checked into a
// generator config (defined in api/instance_source.cc). Each out-of-range
// value is an error naming its key, and the config is meaningful only when
// r.ok(). The batch loader and the stream factory both read specs through
// these, so they accept exactly the same specs. `rounds` lands in
// num_rounds (the stream factory takes `rounds=inf` out first).
PoissonConfig ReadPoissonKeys(SpecReader& r);
// *load is the per-port flow load (poisson semantics); CoflowRate turns it
// into mean_coflows_per_round through the width distribution's mean,
// which costs O(width) and so is left to the callers that generate.
CoflowGenConfig ReadCoflowKeys(SpecReader& r, double* load);
double CoflowRate(const CoflowGenConfig& cfg, double load);

}  // namespace api_spec
}  // namespace flowsched

#endif  // FLOWSCHED_API_SPEC_PARSER_H_
