# Included at the end of the crowdrank project() call (run.py passes it as
# CMAKE_PROJECT_crowdrank_INCLUDE). Defers reading the benchmark's build
# file until the top-level CMakeLists.txt has defined the library targets
# it links. Deferred arguments expand when the call runs, so the path is
# kept in a variable now.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${PERFBENCH_DIR}/CMakeLists.txt")
