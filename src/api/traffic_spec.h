// Shared `cdf:` spec reading for the batch loader (api/instance_source.cc)
// and the streaming factory (api/stream_source.cc), so the realistic-traffic
// dialect cannot drift between the two paths. Internal to src/api/.
#ifndef FLOWSCHED_API_TRAFFIC_SPEC_H_
#define FLOWSCHED_API_TRAFFIC_SPEC_H_

#include <string>

#include "api/spec_parser.h"
#include "traffic/traffic_gen.h"

namespace flowsched {
namespace api_spec {

// Reads every `cdf:` key into *config (the stream factory takes
// `rounds=inf` out of the spec first), resolving the size distribution
// from `dist=` (a builtin name, default websearch) or `file=` (an
// HPCC-format CDF file). The CDF parses even on validation-only passes,
// so a bad file or name fails before any run.
// Returns false with *error set on a bad distribution or out-of-range
// values; key-level errors (unparsable values, unknown keys, `rounds` out
// of range) accumulate in the reader as usual and remain the caller's to
// check.
bool ReadTrafficSpec(SpecReader& r, TrafficConfig* config,
                     std::string* error);

}  // namespace api_spec
}  // namespace flowsched

#endif  // FLOWSCHED_API_TRAFFIC_SPEC_H_
