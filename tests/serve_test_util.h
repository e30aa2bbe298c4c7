#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "spidermine/session.h"
#include "tools/serve_loop.h"

/// \file serve_test_util.h
/// Shared serve test fixtures: a small graph with a planted pattern, a
/// session over it, and a helper that serves the stream connection the
/// way `spidermine serve < requests.jsonl > responses.jsonl` does: the
/// requests sit in a temporary regular file on the input fd, and the
/// responses land in another one on the output fd.

namespace spidermine::cli {

/// A 200-vertex ER graph with one 10-vertex pattern planted 3 times.
inline LabeledGraph TestGraph(uint64_t seed = 11) {
  Rng rng(seed);
  GraphBuilder builder = GenerateErdosRenyi(200, 2.0, 14, &rng);
  Pattern planted = RandomConnectedPattern(10, 0.15, 14, &rng);
  PatternInjector injector(&builder);
  EXPECT_TRUE(injector.Inject(planted, 3, &rng).ok());
  return std::move(builder.Build()).value();
}

inline Result<MiningSession> TestSession(const LabeledGraph* graph,
                                         int64_t min_support = 3) {
  SessionConfig config;
  config.min_support = min_support;
  config.num_threads = 2;
  return MiningSession::Create(graph, config);
}

/// What one stream run returned and wrote.
struct StreamServeResult {
  Status status;
  std::string out;  ///< everything written to the stream's output fd
};

/// Runs RunServeServer with \p requests as the stream's whole input and
/// returns its status and output. Diagnostics go to \p err. A given
/// \p out_fd (a pipe, say) receives the responses instead of a temporary
/// file, and `out` stays empty.
inline StreamServeResult ServeStream(const MiningSession& session,
                                     std::string_view requests,
                                     const ServeOptions& options,
                                     std::ostream& err,
                                     ServeStats* stats = nullptr,
                                     int out_fd = -1) {
  StreamServeResult result;
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  if (in == nullptr || out == nullptr) {
    result.status = Status::IoError("tmpfile() failed");
  } else {
    std::fwrite(requests.data(), 1, requests.size(), in);
    std::fflush(in);
    std::rewind(in);
    ServeTransportOptions transport;
    transport.stream_in_fd = ::fileno(in);
    transport.stream_out_fd = out_fd >= 0 ? out_fd : ::fileno(out);
    result.status = RunServeServer(session, transport, err, options, stats);
    ::lseek(::fileno(out), 0, SEEK_SET);
    char chunk[4096];
    ssize_t n;
    while ((n = ::read(::fileno(out), chunk, sizeof(chunk))) > 0) {
      result.out.append(chunk, static_cast<size_t>(n));
    }
  }
  if (in != nullptr) std::fclose(in);
  if (out != nullptr) std::fclose(out);
  return result;
}

}  // namespace spidermine::cli
