// Test helper: collects the finalized traces an HttpServer hands its
// trace_sink (on the event-loop thread) for the test thread to inspect.
// Every wait is bounded, so a test fails rather than hangs when the sink
// never fires.
#ifndef EGP_TESTS_TESTING_TRACE_COLLECTOR_H_
#define EGP_TESTS_TESTING_TRACE_COLLECTOR_H_

#include <algorithm>
#include <chrono>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/trace.h"

namespace egp {
namespace testing_util {

class TraceCollector {
 public:
  void Add(const RequestTrace& trace) {
    MutexLock lock(&mu_);
    traces_.push_back(trace);
  }

  /// The traces so far, once at least `n` arrived or 5 s passed.
  std::vector<RequestTrace> WaitFor(size_t n) {
    return WaitUntil([n](const std::vector<RequestTrace>& traces) {
      return traces.size() >= n;
    });
  }

  /// The trace of the request with id `id`, if it arrives within 5 s.
  std::optional<RequestTrace> WaitForId(std::string_view id) {
    const auto has_id = [id](const RequestTrace& trace) {
      return trace.id == id;
    };
    const std::vector<RequestTrace> traces =
        WaitUntil([&has_id](const std::vector<RequestTrace>& so_far) {
          return std::any_of(so_far.begin(), so_far.end(), has_id);
        });
    const auto it = std::find_if(traces.begin(), traces.end(), has_id);
    if (it == traces.end()) return std::nullopt;
    return *it;
  }

 private:
  template <typename Done>
  std::vector<RequestTrace> WaitUntil(Done done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      {
        MutexLock lock(&mu_);
        if (done(traces_) || std::chrono::steady_clock::now() >= deadline) {
          return traces_;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  Mutex mu_;
  std::vector<RequestTrace> traces_ EGP_GUARDED_BY(mu_);
};

}  // namespace testing_util
}  // namespace egp

#endif  // EGP_TESTS_TESTING_TRACE_COLLECTOR_H_
