// Shared pieces of the serving benchmark's two programs (loadgen.cc and
// trace.cc): the request-stream file run.py writes, the in-process oracle
// for a /v1/preview body, and the body comparison the correctness gate
// uses.
#ifndef EGP_PERFBENCH_REPLAY_H_
#define EGP_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "server/catalog.h"

namespace perfbench {

/// One line of a stream file: tab-separated
///   phase  class  at_us  verify  body
/// where phase is "warmup", "closed", "open", "probe" or "replay", class
/// is "hot" (a warm measure configuration) or "cold" (one never requested
/// before), at_us is the open-loop send time from the start of the loop,
/// verify is 1 for the seeded subset compared with the oracle, and body
/// is the POST /v1/preview JSON on one line.
struct StreamEntry {
  std::string phase;
  std::string cls;
  int64_t at_us = 0;
  bool verify = false;
  std::string body;
};

egp::Result<std::vector<StreamEntry>> ReadStream(const std::string& path);

/// The entries of one phase, in file order.
std::vector<StreamEntry> Phase(const std::vector<StreamEntry>& entries,
                               std::string_view phase);

/// Parses repeated "name=path" flags into catalog specs.
egp::Result<std::vector<egp::DatasetSpec>> ParseSpecs(
    const std::vector<std::string>& flags);

/// The body the server should answer `request_body` with, computed in
/// process: Engine::Preview + PreviewResponseToJson on `catalog`.
egp::Result<std::string> ExpectedBody(const egp::DatasetCatalog& catalog,
                                      std::string_view request_body);

/// Whether two /v1/preview bodies are the same document once the members
/// that legitimately differ between two servings are dropped: "timings"
/// (wall clock) and "cacheHit" (which process's cache was warm). Both
/// bodies go through the strict parser; a parse failure is an error.
egp::Result<bool> SameBody(std::string_view a, std::string_view b);

/// steady_clock now, in nanoseconds.
int64_t NowNs();

/// CPU time of this whole process (every thread), in nanoseconds.
int64_t ProcessCpuNs();

/// Wall milliseconds of a fixed single-thread integer loop: how fast this
/// box runs right now, recorded beside every result.
double CalibrationMillis();

}  // namespace perfbench

#endif  // EGP_PERFBENCH_REPLAY_H_
