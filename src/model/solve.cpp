#include "model/solve.hpp"

#include <utility>

#include "model/restrict.hpp"

namespace wfc::model {

task::LevelRestrictor make_restrictor(std::shared_ptr<const Model> model) {
  if (model == nullptr || model->is_wait_free()) return {};
  return [model = std::move(model)](const proto::SdsChain& chain, int level)
             -> std::optional<topo::Arena> {
    return restrict_level(chain, level, *model).arena;
  };
}

task::SolveResult solve_in_model(const task::Task& task, int max_level,
                                 std::shared_ptr<const Model> model,
                                 task::SolveOptions options) {
  options.restrictor = make_restrictor(std::move(model));
  return task::solve(task, max_level, options);
}

task::SolveResult solve_at_level_in_model(const task::Task& task, int level,
                                          std::shared_ptr<const Model> model,
                                          task::SolveOptions options) {
  options.restrictor = make_restrictor(std::move(model));
  return task::solve_at_level(task, level, options);
}

}  // namespace wfc::model
