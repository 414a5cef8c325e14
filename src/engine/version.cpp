#include "engine/version.hpp"

// Every build rewrites this header when the checkout's id changes
// (cmake/git_describe.cmake). A configured but unbuilt tree, as clang-tidy
// reads it, has no header yet.
#if __has_include("generated/git_describe.hpp")
#include "generated/git_describe.hpp"
#endif

#ifndef BILATNET_GIT_DESCRIBE
#define BILATNET_GIT_DESCRIBE "unknown"
#endif

namespace bnf {

const std::string& git_describe() {
  static const std::string description = BILATNET_GIT_DESCRIBE;
  return description;
}

}  // namespace bnf
