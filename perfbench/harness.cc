#include "harness.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <time.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <utility>

#include "util/json.h"
#include "util/string_util.h"

namespace perfbench {

using tailormatch::Status;
namespace json = tailormatch::json;
namespace data = tailormatch::data;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Spans ----

SpanRecorder::SpanRecorder(std::string prefix, std::string root_parent)
    : prefix_(std::move(prefix)), root_parent_(std::move(root_parent)) {}

size_t SpanRecorder::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.id = prefix_ + "." + std::to_string(spans_.size());
  span.parent = open_.empty() ? root_parent_ : spans_[open_.back()].id;
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::End(size_t index) {
  spans_[index].end_us = NowUs();
  open_.erase(std::find(open_.begin(), open_.end(), index));
}

Status SpanRecorder::WriteJson(const std::string& path) const {
  const long pid = static_cast<long>(::getpid());
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out += ",\n";
    out += tailormatch::StrFormat(
        "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":%ld,"
        "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"sid\":%s,\"parent\":%s}",
        json::Quote(span.name).c_str(), pid, span.start_us,
        span.end_us - span.start_us, json::Quote(span.id).c_str(),
        json::Quote(span.parent).c_str());
  }
  out += "]\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  if (!file.good()) return Status::Internal("cannot write " + path);
  return Status::Ok();
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const std::string& name)
    : recorder_(recorder) {
  if (recorder_ != nullptr) index_ = recorder_->Begin(name);
}

void ScopedSpan::Close() {
  if (recorder_ != nullptr) recorder_->End(index_);
  recorder_ = nullptr;
}

// ---- Statistics ----

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / values.size();
}

// ---- Pairs ----

PairSource::PairSource(uint64_t seed)
    : spec_(data::GetBenchmarkSpec(data::BenchmarkId::kWdcSmall)),
      generator_(data::MakeGenerator(spec_)),
      rng_(seed * 0x9e3779b97f4a7c15ULL + 0x5e7e) {}

const PairText& PairSource::Get(size_t index) {
  while (index >= pairs_.size()) Refill();
  return pairs_[index];
}

void PairSource::Refill() {
  // "test" keeps labels free of the generator's annotation noise.
  data::Dataset chunk =
      data::BuildSplit(spec_, *generator_, "test", 1024, 1024, rng_);
  for (data::EntityPair& pair : chunk.pairs) {
    PairText text{std::move(pair.left.surface), std::move(pair.right.surface),
                  pair.label};
    if (!seen_.insert(text.left + '\x1f' + text.right).second) continue;
    pairs_.push_back(std::move(text));
  }
}

std::string MatchRequestLine(size_t id, const PairText& pair) {
  return "{\"id\":\"" + std::to_string(id) + "\",\"left\":" +
         json::Quote(pair.left) + ",\"right\":" + json::Quote(pair.right) +
         "}";
}

// ---- TCP transport ----

TcpTransport::TcpTransport(int port, size_t connections) {
  for (size_t i = 0; i < connections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (fd >= 0) ::close(fd);
      ok_ = false;
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fds_.push_back(fd);
    buffers_.emplace_back();
  }
}

TcpTransport::~TcpTransport() {
  for (int fd : fds_) ::close(fd);
}

double TcpTransport::NowUs() { return perfbench::NowUs(); }

void TcpTransport::Send(size_t conn, const std::string& line) {
  std::string framed = line + "\n";
  size_t at = 0;
  while (at < framed.size()) {
    const ssize_t n = ::send(fds_[conn], framed.data() + at, framed.size() - at,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ok_ = false;
      return;
    }
    at += static_cast<size_t>(n);
  }
}

bool TcpTransport::Poll(double timeout_us,
                        std::vector<std::pair<size_t, std::string>>* lines) {
  std::vector<pollfd> fds(fds_.size());
  for (size_t i = 0; i < fds_.size(); ++i) fds[i] = {fds_[i], POLLIN, 0};
  // ppoll, not poll: an open loop waits for the next due time with
  // microsecond precision, and poll's millisecond timeout would make the
  // generator itself late.
  const double wait_ns = std::max(0.0, timeout_us) * 1e3;
  timespec timeout{static_cast<time_t>(wait_ns / 1e9),
                   static_cast<long>(std::fmod(wait_ns, 1e9))};
  const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (ready < 0) return errno == EINTR && ok_;
  char chunk[65536];
  for (size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t n = ::recv(fds_[i], chunk, sizeof(chunk), 0);
    if (n <= 0) {
      ok_ = false;
      continue;
    }
    std::string& buffer = buffers_[i];
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      lines->emplace_back(i, buffer.substr(start, nl - start));
    }
    buffer.erase(0, start);
  }
  return ok_;
}

bool TcpTransport::RoundTrip(const std::string& line, std::string* response) {
  Send(0, line);
  std::vector<std::pair<size_t, std::string>> lines;
  while (ok_ && lines.empty()) Poll(1e6, &lines);
  if (lines.empty()) return false;
  *response = std::move(lines.front().second);
  return ok_;
}

// ---- Load phases ----

ClosedLoopResult RunClosedLoop(Transport& transport, size_t connections,
                               int depth, size_t total, size_t* next_pair,
                               PairSource& pairs) {
  ClosedLoopResult result;
  result.requests.reserve(total);
  std::vector<std::deque<size_t>> in_flight(connections);
  const auto send_next = [&](size_t conn) {
    if (result.requests.size() >= total) return;
    RequestRecord record;
    record.pair = (*next_pair)++;
    const std::string line =
        MatchRequestLine(result.requests.size(), pairs.Get(record.pair));
    record.sent_us = transport.NowUs();
    in_flight[conn].push_back(result.requests.size());
    result.requests.push_back(std::move(record));
    transport.Send(conn, line);
  };
  result.start_us = transport.NowUs();
  for (size_t conn = 0; conn < connections; ++conn) {
    for (int i = 0; i < depth; ++i) send_next(conn);
  }
  size_t answered = 0;
  std::vector<std::pair<size_t, std::string>> lines;
  while (answered < result.requests.size()) {
    lines.clear();
    if (!transport.Poll(1e6, &lines)) {
      result.transport_ok = false;
      break;
    }
    const double now = transport.NowUs();
    for (auto& [conn, line] : lines) {
      if (in_flight[conn].empty()) {
        result.transport_ok = false;  // an answer nobody asked for
        continue;
      }
      RequestRecord& record = result.requests[in_flight[conn].front()];
      in_flight[conn].pop_front();
      ++answered;
      record.done_us = now;
      record.response = std::move(line);
      send_next(conn);
    }
    result.end_us = now;
  }
  return result;
}

std::vector<double> WindowRates(const ClosedLoopResult& phase,
                                double window_us) {
  const double elapsed = phase.end_us - phase.start_us;
  if (elapsed < window_us) {
    return {elapsed > 0.0 ? phase.requests.size() / (elapsed / 1e6) : 0.0};
  }
  std::vector<double> counts(static_cast<size_t>(elapsed / window_us), 0.0);
  for (const RequestRecord& r : phase.requests) {
    const size_t w = static_cast<size_t>((r.done_us - phase.start_us) / window_us);
    if (r.done_us > 0.0 && w < counts.size()) counts[w] += 1.0;
  }
  for (double& count : counts) count /= window_us / 1e6;
  return counts;
}

OpenLoopSchedule MakeOpenLoopSchedule(uint64_t seed, double rate,
                                      size_t count, double repeat_share,
                                      double zipf_s, size_t* next_pair) {
  OpenLoopSchedule schedule;
  tailormatch::Rng rng(seed ^ 0x0be7100bULL);
  std::vector<size_t> used;        // distinct pairs in order of first use
  std::vector<double> cumulative;  // Zipf weights over `used`
  double t = 0.0;
  while (schedule.offset_us.size() < count) {
    double u = rng.NextDouble();
    while (u <= 0.0) u = rng.NextDouble();
    t += -std::log(u) / rate * 1e6;
    size_t pair;
    bool repeat = !used.empty() && rng.NextBool(repeat_share);
    if (repeat) {
      const double target = rng.NextDouble() * cumulative.back();
      const size_t rank = static_cast<size_t>(
          std::upper_bound(cumulative.begin(), cumulative.end(), target) -
          cumulative.begin());
      pair = used[std::min(rank, used.size() - 1)];
    } else {
      pair = (*next_pair)++;
      used.push_back(pair);
      const double weight = std::pow(static_cast<double>(used.size()), -zipf_s);
      cumulative.push_back((cumulative.empty() ? 0.0 : cumulative.back()) +
                           weight);
    }
    schedule.offset_us.push_back(t);
    schedule.pair.push_back(pair);
    schedule.repeat.push_back(repeat);
  }
  return schedule;
}

OpenLoopResult RunOpenLoop(Transport& transport, size_t connections,
                           const OpenLoopSchedule& schedule,
                           PairSource& pairs) {
  OpenLoopResult result;
  const size_t n = schedule.offset_us.size();
  result.requests.resize(n);
  // Render every line before the phase so the generator's own work does
  // not delay sends.
  std::vector<std::string> request_lines(n);
  for (size_t i = 0; i < n; ++i) {
    result.requests[i].pair = schedule.pair[i];
    result.requests[i].repeat = schedule.repeat[i];
    request_lines[i] = MatchRequestLine(i, pairs.Get(schedule.pair[i]));
  }
  std::vector<std::deque<size_t>> in_flight(connections);
  const double start = transport.NowUs();
  size_t next = 0;
  size_t completed = 0;
  std::vector<std::pair<size_t, std::string>> lines;
  while (completed < n) {
    double now = transport.NowUs();
    while (next < n && start + schedule.offset_us[next] <= now) {
      RequestRecord& record = result.requests[next];
      record.due_us = start + schedule.offset_us[next];
      const size_t conn = next % connections;
      in_flight[conn].push_back(next);
      transport.Send(conn, request_lines[next]);
      record.sent_us = now;
      ++next;
      now = transport.NowUs();
    }
    const double wait_us =
        next < n ? std::max(0.0, start + schedule.offset_us[next] - now) : 1e6;
    lines.clear();
    if (!transport.Poll(wait_us, &lines)) {
      result.transport_ok = false;
      break;
    }
    const double done = transport.NowUs();
    for (auto& [conn, line] : lines) {
      if (in_flight[conn].empty()) {
        result.transport_ok = false;
        continue;
      }
      RequestRecord& record = result.requests[in_flight[conn].front()];
      in_flight[conn].pop_front();
      record.done_us = done;
      record.response = std::move(line);
      ++completed;
    }
  }
  return result;
}

}  // namespace perfbench
