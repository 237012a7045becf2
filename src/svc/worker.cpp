#include "svc/worker.hpp"

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <string>
#include <utility>

#include "core/sweep.hpp"
#include "sim/logging.hpp"

namespace bgpsim::svc {

int worker_loop(Connection conn, std::uint64_t worker_id) {
  // Appended rather than `"w" + std::to_string(...)`: GCC 12's Release
  // build reports a false -Wrestrict on that operator+.
  std::string tag{"w"};
  tag += std::to_string(worker_id);
  sim::Log::set_instance_tag(std::move(tag));
  try {
    Hello hello;
    hello.worker_id = worker_id;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    if (!conn.send_frame(encode_hello(hello))) return 1;

    for (;;) {
      std::optional<Frame> frame = conn.recv_frame();
      // EOF at a frame boundary: the coordinator is gone (or closed us
      // out deliberately); either way there is no one to serve.
      if (!frame) return 0;
      if (frame->type == FrameType::kShutdown) return 0;
      if (frame->type != FrameType::kWork) {
        std::fprintf(stderr, "bgpsim_worker %llu: unexpected frame type %d\n",
                     static_cast<unsigned long long>(worker_id),
                     static_cast<int>(frame->type));
        return 1;
      }

      const WorkUnit unit = decode_work(*frame);
      sim::LogLine{sim::LogLevel::kDebug, "svc", sim::SimTime::zero()}
          << "unit " << unit.unit_id << ": scenario " << unit.scenario_index
          << " trials [" << unit.trial_begin << ", "
          << unit.trial_begin + unit.trial_count << ")";
      try {
        UnitResult result;
        result.unit_id = unit.unit_id;
        result.scenario_index = unit.scenario_index;
        result.trial_begin = unit.trial_begin;
        result.outcomes.reserve(static_cast<std::size_t>(unit.trial_count));
        for (std::uint64_t i = 0; i < unit.trial_count; ++i) {
          result.outcomes.push_back(core::run_single_trial(
              unit.scenario,
              static_cast<std::size_t>(unit.trial_begin + i)));
        }
        if (!conn.send_frame(encode_result(result))) return 1;
      } catch (const std::exception& e) {
        // The unit failed inside the experiment driver (e.g. convergence
        // timeout). That is the campaign's problem to arbitrate, not a
        // reason for this process to die — report and keep serving.
        UnitError err;
        err.unit_id = unit.unit_id;
        err.message = e.what();
        if (!conn.send_frame(encode_error(err))) return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgpsim_worker %llu: %s\n",
                 static_cast<unsigned long long>(worker_id), e.what());
    return 1;
  }
}

}  // namespace bgpsim::svc
