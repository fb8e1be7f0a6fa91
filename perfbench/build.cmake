# Build hook for the benchmark. run.py configures the repository's own
# top-level CMakeLists.txt in a Release tree of the benchmark's own,
# with -DCMAKE_PROJECT_eelsched_INCLUDE=<this file>, and builds only
# the targets below. The libraries therefore compile with exactly the
# options and flags the repository sets, and no repository build file
# changes. The targets are created at the end of the top-level
# directory, after those settings and every src/ library exist.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(perfbench_targets)
    add_library(perfbench_common STATIC
        ${PERFBENCH_DIR}/bench.cc
        ${PERFBENCH_DIR}/checks.cc)
    target_link_libraries(perfbench_common PUBLIC eelsched)

    add_executable(perfbench
        ${PERFBENCH_DIR}/main.cc
        ${PERFBENCH_DIR}/tables.cc
        ${PERFBENCH_DIR}/rewrite.cc
        ${PERFBENCH_DIR}/service.cc)
    target_link_libraries(perfbench PRIVATE perfbench_common)

    add_executable(perfbench_checks ${PERFBENCH_DIR}/test_checks.cc)
    target_link_libraries(perfbench_checks PRIVATE perfbench_common)
endfunction()

cmake_language(DEFER CALL perfbench_targets)
