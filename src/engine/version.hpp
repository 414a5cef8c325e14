// Build identification for run metadata.
#pragma once

#include <string>

namespace bnf {

/// `git describe --always --dirty` of the checkout this binary was built
/// from, read at build time, or "unknown" when git was unavailable.
[[nodiscard]] const std::string& git_describe();

}  // namespace bnf
