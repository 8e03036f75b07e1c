// Self-test of the harness arithmetic: percentiles against hand-computed
// values, and open-loop latency timed from each request's due time.
// Exit 0 when every check passes.

#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) < 1e-9,
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void TestPercentile() {
  using perfbench::Percentile;
  // Sorted: 1 2 3 4 5 6 7 8 9 10; position q * 9.
  const std::vector<double> ten = {7, 1, 10, 3, 5, 2, 9, 4, 8, 6};
  ExpectNear(Percentile(ten, 0.0), 1.0, "p0 of 1..10");
  ExpectNear(Percentile(ten, 0.5), 5.5, "p50 of 1..10");
  ExpectNear(Percentile(ten, 0.25), 3.25, "p25 of 1..10");
  ExpectNear(Percentile(ten, 0.75), 7.75, "p75 of 1..10");
  ExpectNear(Percentile(ten, 0.99), 9.91, "p99 of 1..10");
  ExpectNear(Percentile(ten, 1.0), 10.0, "p100 of 1..10");
  ExpectNear(Percentile({4.0}, 0.99), 4.0, "single value");
  ExpectNear(Percentile({}, 0.5), 0.0, "empty");
  // 100 values 1..100: p99 sits at position 98.01 -> 99.01.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  ExpectNear(Percentile(hundred, 0.99), 99.01, "p99 of 1..100");
  ExpectNear(perfbench::Mean({1, 2, 3, 6}), 3.0, "mean");
}

// Virtual-clock transport: every request is answered `service_us` after it
// is sent; the send of request `stall_index` blocks for `stall_us`.
class FakeTransport : public perfbench::Transport {
 public:
  FakeTransport(double service_us, size_t stall_index, double stall_us)
      : service_us_(service_us),
        stall_index_(stall_index),
        stall_us_(stall_us) {}

  double NowUs() override { return now_; }
  void Send(size_t conn, const std::string& line) override {
    if (sends_++ == stall_index_) now_ += stall_us_;
    pending_.push_back({now_ + service_us_, {conn, line}});
  }
  bool Poll(double timeout_us,
            std::vector<std::pair<size_t, std::string>>* lines) override {
    const double until = now_ + timeout_us;
    if (pending_.empty() || pending_.front().first > until) {
      now_ = until;
      return true;
    }
    now_ = std::max(now_, pending_.front().first);
    while (!pending_.empty() && pending_.front().first <= now_) {
      lines->push_back(pending_.front().second);
      pending_.pop_front();
    }
    return true;
  }

 private:
  double now_ = 1000.0;
  double service_us_;
  size_t stall_index_;
  double stall_us_;
  size_t sends_ = 0;
  std::deque<std::pair<double, std::pair<size_t, std::string>>> pending_;
};

void TestOpenLoopTimesFromDueTime() {
  // Ten requests due every 1000 us; the send of request 3 stalls 4500 us.
  perfbench::OpenLoopSchedule schedule;
  for (size_t i = 0; i < 10; ++i) {
    schedule.offset_us.push_back(1000.0 * (i + 1));
    schedule.pair.push_back(i);
    schedule.repeat.push_back(false);
  }
  perfbench::PairSource pairs(1);
  FakeTransport transport(/*service_us=*/100.0, /*stall_index=*/3,
                          /*stall_us=*/4500.0);
  const perfbench::OpenLoopResult result =
      perfbench::RunOpenLoop(transport, 2, schedule, pairs);
  Expect(result.transport_ok, "fake transport ok");
  std::vector<double> latency;
  for (const perfbench::RequestRecord& r : result.requests) {
    latency.push_back(r.done_us - r.due_us);
  }
  // Before the stall: service time only.
  for (size_t i = 0; i < 3; ++i) {
    ExpectNear(latency[i], 100.0, "latency before the stall #" + std::to_string(i));
  }
  // Request 3 is due at 4000 and its send returns at 8500. Requests 4..7
  // fall due during the stall and leave at 8500 too: their latency counts
  // the wait from their due time, not from the late send.
  ExpectNear(latency[3], 4600.0, "stalled request");
  ExpectNear(latency[4], 3600.0, "queued behind the stall #4");
  ExpectNear(latency[7], 600.0, "queued behind the stall #7");
  ExpectNear(result.requests[5].sent_us - result.requests[5].due_us, 2500.0,
             "generator lag of #5");
  // Request 8 is due after the stall ended: back to service time.
  ExpectNear(latency[8], 100.0, "after the stall");
  // A closed-loop view of the same run (sent -> done) would hide the stall.
  ExpectNear(result.requests[5].done_us - result.requests[5].sent_us, 100.0,
             "send-to-answer time of #5");
}

void TestSchedule() {
  size_t next_pair = 0;
  const perfbench::OpenLoopSchedule a =
      perfbench::MakeOpenLoopSchedule(9, 2000.0, 10000, 0.3, 1.1, &next_pair);
  size_t next_again = 0;
  const perfbench::OpenLoopSchedule b =
      perfbench::MakeOpenLoopSchedule(9, 2000.0, 10000, 0.3, 1.1, &next_again);
  Expect(a.offset_us == b.offset_us && a.pair == b.pair,
         "same seed gives the same schedule");
  const double n = static_cast<double>(a.pair.size());
  Expect(a.pair.size() == 10000, "exactly the requested count");
  Expect(std::fabs(a.offset_us.back() - 5e6) < 2e5,
         "10,000 arrivals at 2,000/s last about 5 s");
  size_t repeats = 0;
  for (size_t i = 0; i < a.pair.size(); ++i) {
    repeats += a.repeat[i] ? 1 : 0;
    // A repeat names a pair used earlier; a fresh pair is the next unused.
    Expect(!a.repeat[i] || a.pair[i] < next_pair, "repeat of an earlier pair");
  }
  Expect(std::fabs(repeats / n - 0.3) < 0.02, "repeat share near 0.3");
  Expect(next_pair == a.pair.size() - repeats, "fresh pairs are consecutive");
}

}  // namespace

int main() {
  TestPercentile();
  TestOpenLoopTimesFromDueTime();
  TestSchedule();
  if (failures == 0) std::printf("perfbench_selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
