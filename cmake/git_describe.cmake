# Writes the checkout's `git describe --always --dirty` to OUTPUT as the
# BILATNET_GIT_DESCRIBE define that src/engine/version.cpp reads, or
# "unknown" outside a git checkout or without git. CMakeLists.txt runs it
# on every build; it rewrites OUTPUT only when the id changed, so an
# unchanged checkout recompiles nothing.
#
#   cmake -DSOURCE_DIR=<checkout> -DOUTPUT=<header> [-DGIT_EXECUTABLE=<git>]
#         -P cmake/git_describe.cmake
set(describe "unknown")
if(GIT_EXECUTABLE)
  execute_process(
    COMMAND ${GIT_EXECUTABLE} describe --always --dirty
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE raw
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE status)
  if(status EQUAL 0)
    set(describe "${raw}")
  endif()
endif()

set(content "// Generated by cmake/git_describe.cmake.\n#define BILATNET_GIT_DESCRIBE \"${describe}\"\n")
set(old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT "${old}" STREQUAL "${content}")
  file(WRITE "${OUTPUT}" "${content}")
endif()
