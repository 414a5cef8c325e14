#include "util/mem.hpp"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define BNF_HAVE_RUSAGE 1
#endif

namespace bnf {

namespace {

#if defined(__linux__)
// Parse one "Vm...:  <kb> kB" line out of /proc/self/status. Returns 0
// when the file or field is missing (e.g. non-procfs sandboxes).
std::uint64_t proc_status_kb(const char* field) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  const std::size_t field_len = std::strlen(field);
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      unsigned long long value = 0;
      if (std::sscanf(line + field_len + 1, "%llu", &value) == 1) {
        kb = value;
      }
      break;
    }
  }
  std::fclose(status);
  return kb;
}
#endif

}  // namespace

std::uint64_t peak_rss_bytes() {
#if defined(BNF_HAVE_RUSAGE)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
#if defined(__APPLE__)
    // macOS reports ru_maxrss in bytes.
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    // Linux (and the BSDs) report kibibytes.
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
  }
#endif
#if defined(__linux__)
  return proc_status_kb("VmHWM") * 1024;
#else
  return 0;
#endif
}

}  // namespace bnf
