#pragma once

namespace bnf {

class task {
 public:
  virtual ~task();
  virtual int run(int cost) const = 0;
};

int dispatch(const task& job, int cost);

}  // namespace bnf
