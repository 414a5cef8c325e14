// Process memory probe for telemetry and bench reporting. The probe is a
// read-only query of OS bookkeeping (no allocation on the query path), so
// the progress heartbeat can poll it from a monitor thread without
// perturbing the run it is observing.
#pragma once

#include <cstdint>

namespace bnf {

/// High-water-mark resident set size of the process, in bytes: the peak RSS
/// the OS has observed since process start. Monotone non-decreasing across
/// calls. POSIX getrusage (with the Linux KiB convention) backed by
/// /proc/self/status VmHWM; 0 when neither source is available.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace bnf
