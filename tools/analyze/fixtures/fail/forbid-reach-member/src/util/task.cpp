#include "util/task.hpp"

namespace bnf {

// The override this virtual call reaches is defined where util cannot
// include it, but it derives from task, whose header this file sees.
int dispatch(const task& job, int cost) { return job.run(cost); }

}  // namespace bnf
