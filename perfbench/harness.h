// Benchmark harness pieces shared by perfbench_probe and its self-test:
// in-memory spans with a Chrome trace writer, percentile arithmetic, the
// seeded pair source, and the closed- and open-loop JSONL load generators.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/benchmark_factory.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

// Microseconds on the monotonic clock (CLOCK_MONOTONIC on Linux, the clock
// Python's time.monotonic_ns reads), so spans from run.py and from this
// process share one time axis.
double NowUs();

// Spans kept in memory and written once at the end of the run.
class SpanRecorder {
 public:
  // `prefix` makes span ids unique across processes; `root_parent` is the id
  // of the span (in run.py) that started this process.
  SpanRecorder(std::string prefix, std::string root_parent);

  // Opens a span under the innermost open span; returns its index.
  size_t Begin(const std::string& name);
  void End(size_t index);
  // Writes the spans as a JSON list of flat Chrome trace_event "X" events.
  tailormatch::Status WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string id;
    std::string parent;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  std::string prefix_;
  std::string root_parent_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name);
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  // Ends the span before the scope does; later calls do nothing.
  void Close();

 private:
  SpanRecorder* recorder_;
  size_t index_ = 0;
};

// Linear interpolation between closest ranks: the q-quantile (q in [0, 1])
// sits at position q * (n - 1) of the sorted values. Empty input gives 0.
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// One labelled product pair as the serve protocol carries it.
struct PairText {
  std::string left;
  std::string right;
  bool label = false;
};

// Endless sequence of distinct labelled product pairs from the program's
// own data generators (WDC-small generator spec, data::BuildSplit), seeded.
// Pair i is the same for a given seed however far the sequence is read.
class PairSource {
 public:
  explicit PairSource(uint64_t seed);
  const PairText& Get(size_t index);

 private:
  void Refill();

  tailormatch::data::BenchmarkSpec spec_;
  std::unique_ptr<tailormatch::data::EntityGenerator> generator_;
  tailormatch::Rng rng_;
  std::vector<PairText> pairs_;
  std::unordered_set<std::string> seen_;
};

// A JSONL match request line for `pair` with id `id`.
std::string MatchRequestLine(size_t id, const PairText& pair);

// Line transport over several connections; a test substitutes a fake with a
// virtual clock.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual double NowUs() = 0;
  // Writes one request line (newline added) to connection `conn`.
  virtual void Send(size_t conn, const std::string& line) = 0;
  // Waits up to `timeout_us` for response lines and appends each as
  // (connection, line). Returns false when a connection failed.
  virtual bool Poll(double timeout_us,
                    std::vector<std::pair<size_t, std::string>>* lines) = 0;
};

// Blocking loopback TCP connections to one port, polled together.
class TcpTransport : public Transport {
 public:
  TcpTransport(int port, size_t connections);
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  bool ok() const { return ok_; }
  double NowUs() override;
  void Send(size_t conn, const std::string& line) override;
  bool Poll(double timeout_us,
            std::vector<std::pair<size_t, std::string>>* lines) override;
  // Sends one line on connection 0 and waits for its response.
  bool RoundTrip(const std::string& line, std::string* response);

 private:
  std::vector<int> fds_;
  std::vector<std::string> buffers_;
  bool ok_ = true;
};

// One request of a load phase and what came back.
struct RequestRecord {
  size_t pair = 0;       // index into the PairSource
  bool repeat = false;   // repeats an earlier pair of the phase
  double due_us = 0.0;   // open loop: scheduled send time
  double sent_us = 0.0;
  double done_us = 0.0;  // response received
  std::string response;  // raw response line
};

// Closed loop: every connection keeps `depth` requests in flight, each
// answer releasing the next request, until `total` requests have been
// answered. A fixed count, not a fixed time, so the pairs a run sends (and
// the result-cache memory they take) do not depend on the host's speed.
// `next_pair` is advanced past the pairs used.
struct ClosedLoopResult {
  std::vector<RequestRecord> requests;
  double start_us = 0.0;
  double end_us = 0.0;  // last answer
  bool transport_ok = true;
};
ClosedLoopResult RunClosedLoop(Transport& transport, size_t connections,
                               int depth, size_t total, size_t* next_pair,
                               PairSource& pairs);

// Answers per second in consecutive windows of `window_us` from the
// phase's start; the last, partial window is dropped (a phase shorter than
// one window gives its overall rate).
std::vector<double> WindowRates(const ClosedLoopResult& phase,
                                double window_us);

// Open loop: the schedule fixes, before the phase starts, when each request
// is due and which pair it carries. The generator sends every request whose
// due time has passed, in order, on connection (index % connections), and
// never waits for answers to send. Latency is done - due, so a send that
// stalls lengthens the latency of every request queued behind it.
struct OpenLoopSchedule {
  std::vector<double> offset_us;  // due time relative to the phase start
  std::vector<size_t> pair;
  std::vector<bool> repeat;
};
// `count` Poisson arrivals at `rate` per second (a fixed count, so every
// run attempts the same number of requests); a `repeat_share` of requests
// repeat an earlier pair of the phase, picked with Zipf(`zipf_s`) skew over
// the pairs in order of first use; the rest take fresh pairs from
// `*next_pair` on.
OpenLoopSchedule MakeOpenLoopSchedule(uint64_t seed, double rate,
                                      size_t count, double repeat_share,
                                      double zipf_s, size_t* next_pair);
struct OpenLoopResult {
  std::vector<RequestRecord> requests;
  bool transport_ok = true;
};
OpenLoopResult RunOpenLoop(Transport& transport, size_t connections,
                           const OpenLoopSchedule& schedule,
                           PairSource& pairs);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
