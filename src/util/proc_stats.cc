#include "util/proc_stats.h"

#include <cstdio>
#include <cstring>

namespace flowsched {

long long PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  long long kb = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lld", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace flowsched
