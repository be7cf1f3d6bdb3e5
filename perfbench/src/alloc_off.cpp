// perfbench (untraced) keeps the library's own operator new: no counting.
#include "bench.hpp"

namespace perfbench::alloc {

bool available() { return false; }
void set_counting(bool) {}
Counts read() { return {}; }

}  // namespace perfbench::alloc
