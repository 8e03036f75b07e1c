// perfbench_probe: the benchmark's in-process side. run.py drives the
// program through its CLI; this binary generates the serve traffic, checks
// the program's answers against independent computations, and, in traced
// runs, times each layer's public functions from here (nothing inside src/
// is instrumented).
//
//   perfbench_probe loadgen      --port P --seed S --model M --closed N
//                                --open-s T              serve traffic + checks
//   perfbench_probe serve-layers --fleet-port P --single-port Q --model M
//                                --seed S
//   perfbench_probe dedup-layers --entities N --corpus-seed C --seed S
//                                [--full 1]
//   perfbench_probe train-layers --cache-dir D
//   perfbench_probe eval-f1      --model M
//   perfbench_probe pretrain
//
// Every mode writes one flat JSON object to --out; with --spans PATH it also
// writes the spans it recorded (parented under --span-parent). Settings that
// do not change from run to run are the constants below.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cascade/ann_index.h"
#include "cascade/cheap_scorer.h"
#include "cascade/union_find.h"
#include "core/batch_matcher.h"
#include "core/experiment.h"
#include "core/fine_tuner.h"
#include "core/matcher.h"
#include "data/corpus_stream.h"
#include "eval/evaluator.h"
#include "harness.h"
#include "llm/infer_engine.h"
#include "llm/pretrainer.h"
#include "llm/trainer.h"
#include "nn/kernels.h"
#include "nn/optimizer.h"
#include "serve/micro_batcher.h"
#include "serve/model_registry.h"
#include "serve/result_cache.h"
#include "text/tfidf.h"
#include "util/json.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

using namespace tailormatch;
using perfbench::NowUs;
using perfbench::Percentile;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

namespace {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        ok_ = false;
        break;
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
    if ((argc - 2) % 2 != 0) ok_ = false;
  }
  bool ok() const { return ok_; }
  std::string Str(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  // A value the mode cannot run without.
  std::string Need(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
  double Num(const std::string& key) const {
    return std::atof(Need(key).c_str());
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

// Flat JSON object of numbers and booleans, in insertion order.
class Report {
 public:
  void Num(const std::string& key, double value) {
    entries_.emplace_back(key, StrFormat("%.9g", std::isfinite(value) ? value
                                                                       : 0.0));
  }
  void Bool(const std::string& key, bool value) {
    entries_.emplace_back(key, value ? "true" : "false");
  }
  bool Write(const std::string& path) const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ",\n ";
      out += json::Quote(entries_[i].first) + ": " + entries_[i].second;
    }
    out += "}\n";
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << out;
    return file.good();
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// Spans are written only in traced runs, which pass --spans PATH.
SpanRecorder* SpansOf(const Args& args, SpanRecorder* recorder) {
  return args.Str("spans", "").empty() ? nullptr : recorder;
}
bool WriteSpans(const Args& args, const SpanRecorder& recorder) {
  const std::string path = args.Str("spans", "");
  return path.empty() || recorder.WriteJson(path).ok();
}

std::unique_ptr<llm::SimLlm> LoadModel(const std::string& path) {
  Result<std::unique_ptr<llm::SimLlm>> model = llm::SimLlm::LoadCheckpoint(path);
  if (!model.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 model.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(model).value();
}

double MedianOf(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

// Threads of the in-process index build, recall scan and trainer: the
// reference host's cores, as run.py passes them to the CLI.
constexpr int kThreads = 4;

// ---- loadgen ----

// Closed loop: 4 connections (the reference host's cores), each keeping 8
// pipelined requests in flight, after a warm-up of fresh pairs.
constexpr size_t kConnections = 4;
constexpr int kDepth = 8;
constexpr size_t kWarmupPairs = 4000;
// Open loop: Poisson arrivals at an eighth of the closed loop's throughput on
// the reference host, low enough that the fleet keeps up when the shared
// host gives the run only part of its cores. The traffic mix is an
// assumption, not a measurement: no request trace of an entity-matching
// service is available, so a quarter of the requests repeat an earlier pair,
// with plain Zipf (s = 1) skew over the earlier pairs in order of first use.
// Both cache hits and misses occur, and the median request is a miss.
constexpr double kOpenRate = 1000.0;
constexpr double kRepeatShare = 0.25;
constexpr double kZipfS = 1.0;
// Served probabilities recomputed in this process: a seeded sample of the
// traffic's pairs, and a fixed set of pairs, the same in every run, sent one
// at a time to the freshly started server before any other request, so that
// each server process sees them in the same order every run.
constexpr size_t kCheckSample = 256;
constexpr size_t kExactPairs = 256;
constexpr uint64_t kExactPairSeed = 0xe8ac7ULL;
// Sub-windows of the closed loop's throughput (the best one is reported) and
// of the open loop's latency percentiles (their median is reported).
constexpr double kClosedWindowUs = 0.5e6;
constexpr double kOpenWindowUs = 1e6;

struct ServedAnswer {
  bool ok = false;
  bool in_order = false;
  bool match = false;
  bool says_yes = false;
  bool cache_hit = false;
  std::string probability;  // the literal digits the server printed
};

ServedAnswer ParseAnswer(const perfbench::RequestRecord& record, size_t id) {
  ServedAnswer answer;
  std::map<std::string, std::string> fields;
  if (!json::ParseFlatObject(record.response, &fields).ok()) return answer;
  answer.ok = fields["outcome"] == "ok" && fields.count("probability") > 0;
  answer.in_order = fields["id"] == std::to_string(id);
  answer.match = fields["match"] == "true";
  answer.says_yes = fields["response"].rfind("Yes", 0) == 0;
  answer.cache_hit = fields["cache_hit"] == "true";
  answer.probability = fields["probability"];
  return answer;
}

int CmdLoadgen(const Args& args) {
  const uint64_t seed = static_cast<uint64_t>(args.Num("seed"));
  const size_t closed_pairs = static_cast<size_t>(args.Num("closed"));
  const double open_s = args.Num("open-s");
  SpanRecorder recorder("loadgen", args.Str("span-parent", ""));
  SpanRecorder* spans = SpansOf(args, &recorder);

  // The reference model for the served-probability checks, loaded before
  // any phase. Run with TM_INFER_EXECUTOR=dynamic: the autograd forward is
  // the oracle the served (planned) probabilities are compared with.
  core::Matcher reference(
      std::shared_ptr<llm::SimLlm>(LoadModel(args.Need("model"))));
  const auto dynamic_digits = [&](const perfbench::PairText& text) {
    return json::Number(
        reference.Match(text.left, text.right, data::Domain::kProduct)
            .probability);
  };

  perfbench::PairSource pairs(seed);
  size_t next_pair = 0;
  // Generate the closed loop's pairs before it starts, so the client's own
  // generator work stays out of the measurement.
  pairs.Get(kWarmupPairs + closed_pairs);

  const int port = static_cast<int>(args.Num("port"));
  perfbench::TcpTransport transport(port, kConnections);
  if (!transport.ok()) {
    std::fprintf(stderr, "cannot connect to port %d\n", port);
    return 1;
  }

  // Fixed pairs first, one at a time, each compared digit for digit.
  size_t exact_failed = 0;
  bool exact_transport = true;
  {
    ScopedSpan span(spans, "loadgen.exact_pairs");
    perfbench::PairSource fixed(kExactPairSeed);
    std::string response;
    for (size_t i = 0; i < kExactPairs; ++i) {
      exact_transport = exact_transport &&
          transport.RoundTrip(perfbench::MatchRequestLine(i, fixed.Get(i)),
                              &response);
      std::map<std::string, std::string> fields;
      const bool same =
          json::ParseFlatObject(response, &fields).ok() &&
          fields["outcome"] == "ok" && fields["id"] == std::to_string(i) &&
          fields["probability"] == dynamic_digits(fixed.Get(i));
      exact_failed += same ? 0 : 1;
    }
  }

  perfbench::ClosedLoopResult warmup, closed;
  {
    ScopedSpan span(spans, "loadgen.warmup");
    warmup = perfbench::RunClosedLoop(transport, kConnections, kDepth,
                                      kWarmupPairs, &next_pair, pairs);
  }
  {
    ScopedSpan span(spans, "loadgen.closed_loop");
    closed = perfbench::RunClosedLoop(transport, kConnections, kDepth,
                                      closed_pairs, &next_pair, pairs);
  }
  perfbench::OpenLoopSchedule schedule = perfbench::MakeOpenLoopSchedule(
      seed, kOpenRate, static_cast<size_t>(std::lround(kOpenRate * open_s)),
      kRepeatShare, kZipfS, &next_pair);
  pairs.Get(next_pair);
  perfbench::OpenLoopResult open;
  {
    ScopedSpan span(spans, "loadgen.open_loop");
    open = perfbench::RunOpenLoop(transport, kConnections, schedule, pairs);
  }

  // ---- Checks ----
  ScopedSpan check_span(spans, "loadgen.check");
  // A fixed pair whose served probability differs from the dynamic
  // executor's is a failed operation: the same pairs fail in every run.
  size_t attempted = kExactPairs, failed = exact_failed;
  bool in_order = true, match_consistent = true, repeats_consistent = true;
  std::unordered_map<size_t, std::string> first_answer;  // pair -> digits
  std::vector<size_t> answered_pairs;
  // Served decisions against the generator's labels, first answer per pair.
  size_t tp = 0, fp = 0, fn = 0;
  const auto check_phase = [&](const std::vector<perfbench::RequestRecord>& requests) {
    for (size_t i = 0; i < requests.size(); ++i) {
      ++attempted;
      const ServedAnswer answer = ParseAnswer(requests[i], i);
      if (!answer.ok) {
        ++failed;
        continue;
      }
      in_order = in_order && answer.in_order;
      match_consistent = match_consistent && answer.match == answer.says_yes;
      auto [it, inserted] =
          first_answer.emplace(requests[i].pair, answer.probability);
      if (inserted) {
        answered_pairs.push_back(requests[i].pair);
        const bool label = pairs.Get(requests[i].pair).label;
        tp += answer.match && label ? 1 : 0;
        fp += answer.match && !label ? 1 : 0;
        fn += !answer.match && label ? 1 : 0;
      } else if (it->second != answer.probability) {
        repeats_consistent = false;
      }
    }
  };
  check_phase(warmup.requests);
  check_phase(closed.requests);
  check_phase(open.requests);

  // Seeded sample of answered pairs, recomputed in this process.
  Rng rng(seed ^ 0xc4ec4ULL);
  const size_t sample = std::min(answered_pairs.size(), kCheckSample);
  size_t exact = 0;
  double max_abs_diff = 0.0;
  for (size_t index : rng.SampleIndices(answered_pairs.size(), sample)) {
    const size_t pair = answered_pairs[index];
    const perfbench::PairText& text = pairs.Get(pair);
    const double p =
        reference.Match(text.left, text.right, data::Domain::kProduct)
            .probability;
    if (json::Number(p) == first_answer[pair]) ++exact;
    max_abs_diff = std::max(
        max_abs_diff, std::fabs(p - std::atof(first_answer[pair].c_str())));
  }

  // Throughput and latency percentiles over fixed sub-windows, so one
  // transient stall of the shared host moves one window's figure, not the
  // run's.
  const std::vector<double> window_throughput =
      perfbench::WindowRates(closed, kClosedWindowUs);
  std::vector<double> lag_ms;
  std::vector<std::vector<double>> window_latency_ms(
      static_cast<size_t>(open_s * 1e6 / kOpenWindowUs));
  const double open_start =
      open.requests.empty() ? 0.0
                            : open.requests[0].due_us - schedule.offset_us[0];
  size_t repeats = 0, cache_hits = 0;
  for (size_t i = 0; i < open.requests.size(); ++i) {
    const perfbench::RequestRecord& r = open.requests[i];
    const double ms = (r.done_us - r.due_us) / 1e3;
    lag_ms.push_back((r.sent_us - r.due_us) / 1e3);
    const size_t w = static_cast<size_t>((r.due_us - open_start) / kOpenWindowUs);
    if (w < window_latency_ms.size()) window_latency_ms[w].push_back(ms);
    repeats += r.repeat ? 1 : 0;
    cache_hits += ParseAnswer(r, i).cache_hit ? 1 : 0;
  }
  std::vector<double> window_p50, window_p99;
  for (const std::vector<double>& window : window_latency_ms) {
    window_p50.push_back(Percentile(window, 0.50));
    window_p99.push_back(Percentile(window, 0.99));
  }

  Report report;
  report.Num("attempted", static_cast<double>(attempted));
  report.Num("failed", static_cast<double>(failed));
  report.Bool("transport_ok", transport.ok() && exact_transport &&
                                  warmup.transport_ok &&
                                  closed.transport_ok && open.transport_ok);
  report.Bool("in_order", in_order);
  report.Bool("match_consistent", match_consistent);
  report.Bool("repeats_consistent", repeats_consistent);
  report.Num("exact_pairs", static_cast<double>(kExactPairs));
  report.Num("exact_failed", static_cast<double>(exact_failed));
  report.Num("sampled", static_cast<double>(sample));
  report.Num("sampled_exact", static_cast<double>(exact));
  report.Num("sampled_max_abs_diff", max_abs_diff);
  report.Num("served_f1", tp == 0 ? 0.0 : 2.0 * tp / (2.0 * tp + fp + fn));
  report.Num("closed_completed", static_cast<double>(closed.requests.size()));
  report.Num("closed_window_s", (closed.end_us - closed.start_us) / 1e6);
  // The best window: the host's other tenants only ever take capacity away.
  report.Num("serve_throughput", Percentile(window_throughput, 1.0));
  report.Num("open_requests", static_cast<double>(open.requests.size()));
  report.Num("open_repeats", static_cast<double>(repeats));
  report.Num("serve_p50_ms", MedianOf(window_p50));
  report.Num("serve_p99_ms", MedianOf(window_p99));
  report.Num("generator_lag_p50_ms", Percentile(lag_ms, 0.50));
  report.Num("generator_lag_p99_ms", Percentile(lag_ms, 0.99));
  report.Num("generator_lag_max_ms", Percentile(lag_ms, 1.0));
  report.Num("cache_hit_share",
             open.requests.empty()
                 ? 0.0
                 : static_cast<double>(cache_hits) / open.requests.size());
  if (!report.Write(args.Need("out"))) return 1;
  check_span.Close();
  return WriteSpans(args, recorder) ? 0 : 1;
}

// ---- llm / nn / prompt layers ----

// Microseconds per pair for single and batched forwards, planned and
// dynamic, over the same prompts.
void InferLayers(const llm::SimLlm& model,
                 const std::vector<std::string>& prompts, SpanRecorder* spans,
                 Report* report) {
  ScopedSpan layer(spans, "llm.infer");
  const double n = static_cast<double>(prompts.size());
  for (const std::string& prompt : prompts) model.PredictMatchProbability(prompt);
  const auto time_singles = [&] {
    const double start = NowUs();
    for (const std::string& prompt : prompts) {
      model.PredictMatchProbability(prompt);
    }
    return (NowUs() - start) / n;
  };
  const auto time_batches = [&](size_t batch) {
    const double start = NowUs();
    for (size_t at = 0; at < prompts.size(); at += batch) {
      std::vector<std::string> chunk(
          prompts.begin() + at,
          prompts.begin() + std::min(prompts.size(), at + batch));
      model.PredictMatchProbabilities(chunk, 1);
    }
    return (NowUs() - start) / n;
  };
  {
    ScopedSpan span(spans, "SimLlm::PredictMatchProbability planned");
    report->Num("infer_planned_us_per_pair", time_singles());
  }
  {
    ScopedSpan span(spans, "SimLlm::PredictMatchProbability dynamic");
    llm::InferExecutorModeScope dynamic(llm::InferExecutorMode::kDynamic);
    report->Num("infer_dynamic_us_per_pair", time_singles());
  }
  {
    ScopedSpan span(spans, "SimLlm::PredictMatchProbabilities batch8");
    report->Num("infer_batch8_us_per_pair", time_batches(8));
  }
  {
    ScopedSpan span(spans, "SimLlm::PredictMatchProbabilities batch64");
    report->Num("infer_batch64_us_per_pair", time_batches(64));
  }
}

int MeanClippedTokens(const llm::SimLlm& model,
                      const std::vector<std::string>& prompts) {
  double tokens = 0.0;
  for (const std::string& prompt : prompts) {
    tokens += model.tokenizer()
                  .EncodeForModel(prompt, model.config().max_seq)
                  .size();
  }
  return std::max(1, static_cast<int>(std::lround(tokens / prompts.size())));
}

// One GEMM call shape: C(m x n) += op(A) * op(B) with inner dimension k.
struct GemmShape {
  char form;  // 'N' = GemmNN, 'T' = GemmNT, 'U' = GemmTN
  int m, n, k;
};

// Runs the shapes round after round for about `budget_ms`; reports GFLOP/s
// and the bytes moved per second computed from the shapes (A and B read,
// C read and written once per call), as `<prefix>_gflops` / `_gbps`.
void TimeGemms(const std::vector<GemmShape>& shapes, double budget_ms,
               const std::string& prefix, Report* report) {
  std::vector<std::vector<float>> a, b, c;
  double flops = 0.0, bytes = 0.0;
  Rng rng(17);
  for (const GemmShape& s : shapes) {
    a.emplace_back(static_cast<size_t>(s.m) * s.k);
    b.emplace_back(static_cast<size_t>(s.k) * s.n);
    c.emplace_back(static_cast<size_t>(s.m) * s.n, 0.0f);
    for (float& v : a.back()) v = rng.NextFloat() - 0.5f;
    for (float& v : b.back()) v = rng.NextFloat() - 0.5f;
    flops += 2.0 * s.m * s.n * s.k;
    bytes += 4.0 * (static_cast<double>(s.m) * s.k +
                    static_cast<double>(s.k) * s.n + 2.0 * s.m * s.n);
  }
  const auto round = [&] {
    for (size_t i = 0; i < shapes.size(); ++i) {
      const GemmShape& s = shapes[i];
      if (s.form == 'N') {
        nn::kernels::GemmNN(s.m, s.n, s.k, a[i].data(), b[i].data(), c[i].data());
      } else if (s.form == 'T') {
        nn::kernels::GemmNT(s.m, s.n, s.k, a[i].data(), b[i].data(), c[i].data());
      } else {
        nn::kernels::GemmTN(s.m, s.n, s.k, a[i].data(), b[i].data(), c[i].data());
      }
    }
  };
  round();
  long rounds = 0;
  const double start = NowUs();
  double elapsed = 0.0;
  while (elapsed < budget_ms * 1e3) {
    round();
    ++rounds;
    elapsed = NowUs() - start;
  }
  report->Num(prefix + "_gflops", flops * rounds / (elapsed * 1e3));
  report->Num(prefix + "_gbps", bytes * rounds / (elapsed * 1e3));
}

// The linear layers of one transformer block at sequence length `seq`:
// Q, K, V and output projections (dim x dim) and the MLP (dim x 4 dim and
// back). Forward is y = x W, so GemmNN(m = seq, n = out, k = in).
std::vector<std::pair<int, int>> LinearDims(const llm::ModelConfig& config) {
  const int d = config.dim, h = 4 * config.dim;
  return {{d, d}, {d, d}, {d, d}, {d, d}, {d, h}, {h, d}};
}

void InferGemm(const llm::SimLlm& model, int seq, SpanRecorder* spans,
               Report* report) {
  ScopedSpan span(spans, "kernels::GemmNN inference shapes");
  std::vector<GemmShape> shapes;
  for (auto [in, out] : LinearDims(model.config())) {
    shapes.push_back({'N', seq, out, in});
  }
  TimeGemms(shapes, 200.0, "gemm_infer", report);
}

void PromptLayers(const llm::SimLlm& model,
                  const std::vector<data::EntityPair>& pairs,
                  SpanRecorder* spans, Report* report) {
  ScopedSpan layer(spans, "prompt.text");
  const double n = static_cast<double>(pairs.size());
  std::vector<std::string> prompts(pairs.size());
  double start = NowUs();
  {
    ScopedSpan span(spans, "core::RenderPairPrompt");
    for (size_t i = 0; i < pairs.size(); ++i) {
      prompts[i] = core::RenderPairPrompt(prompt::PromptTemplate::kDefault,
                                          pairs[i]);
    }
  }
  report->Num("prompt_render_us_per_pair", (NowUs() - start) / n);
  double tokens = 0.0;
  start = NowUs();
  {
    ScopedSpan span(spans, "Tokenizer::Encode");
    for (const std::string& prompt : prompts) {
      tokens += model.tokenizer().Encode(prompt).size();
    }
  }
  report->Num("tokenize_us_per_pair", (NowUs() - start) / n);
  report->Num("tokens_per_pair", tokens / n);
}

// ---- serve-layers ----

// Median round-trip latency (ms) of `lines` sent one at a time.
double MedianRoundTripMs(int port, const std::vector<std::string>& warm,
                         const std::vector<std::string>& lines, bool* ok) {
  perfbench::TcpTransport transport(port, 1);
  std::string response;
  for (const std::string& line : warm) {
    *ok = *ok && transport.ok() && transport.RoundTrip(line, &response);
  }
  std::vector<double> ms;
  for (const std::string& line : lines) {
    const double start = NowUs();
    *ok = *ok && transport.ok() && transport.RoundTrip(line, &response);
    ms.push_back((NowUs() - start) / 1e3);
    *ok = *ok && response.find("\"outcome\":\"ok\"") != std::string::npos;
  }
  return MedianOf(ms);
}

int CmdServeLayers(const Args& args) {
  SpanRecorder recorder("serve_layers", args.Str("span-parent", ""));
  SpanRecorder* spans = SpansOf(args, &recorder);
  const size_t warm = 256;
  const size_t count = 1024;
  // A different stream from the loadgen's, so no pair is a cache hit.
  perfbench::PairSource source(static_cast<uint64_t>(args.Num("seed")) ^
                               0x1a7e5ULL);
  std::vector<std::string> warm_lines, lines;
  std::vector<data::EntityPair> pairs;
  for (size_t i = 0; i < warm + count; ++i) {
    const perfbench::PairText& text = source.Get(i);
    (i < warm ? warm_lines : lines).push_back(perfbench::MatchRequestLine(i, text));
    pairs.push_back(core::MakeSurfacePair(text.left, text.right,
                                          data::Domain::kProduct));
  }
  const std::vector<data::EntityPair> measured(pairs.begin() + warm,
                                               pairs.end());

  auto model = std::shared_ptr<llm::SimLlm>(LoadModel(args.Need("model")));
  Report report;
  bool ok = true;
  double fleet_ms, single_ms, submit_ms, predict_ms;
  {
    ScopedSpan layer(spans, "serve");
    {
      ScopedSpan span(spans, "fleet round trip");
      fleet_ms = MedianRoundTripMs(static_cast<int>(args.Num("fleet-port")),
                                   warm_lines, lines, &ok);
    }
    {
      ScopedSpan span(spans, "single server round trip");
      single_ms = MedianRoundTripMs(
          static_cast<int>(args.Num("single-port")), warm_lines, lines, &ok);
    }
    {
      // A worker's batcher: the fleet's per-worker defaults.
      ScopedSpan span(spans, "MicroBatcher::Submit");
      serve::MicroBatcherConfig config;
      config.max_batch = 8;
      config.max_wait_us = 200;
      config.queue_capacity = 1024;
      config.cache = std::make_shared<serve::ResultCache>(size_t{16} << 20);
      serve::MicroBatcher batcher(config);
      auto served = std::make_shared<serve::ServedModel>();
      served->name = "default";
      served->version = 1;
      served->model = model;
      std::vector<double> ms;
      for (size_t i = 0; i < pairs.size(); ++i) {
        const double start = NowUs();
        serve::ServeResult result = batcher.SubmitAndWait(
            served, prompt::PromptTemplate::kDefault, pairs[i]);
        if (i >= warm) ms.push_back((NowUs() - start) / 1e3);
        ok = ok && result.outcome == serve::RequestOutcome::kOk;
      }
      submit_ms = MedianOf(ms);
      batcher.Shutdown();
    }
    {
      ScopedSpan span(spans, "SimLlm::PredictMatchProbabilities single");
      std::vector<double> ms;
      for (const data::EntityPair& pair : measured) {
        const double start = NowUs();
        model->PredictMatchProbabilities(
            {core::RenderPairPrompt(prompt::PromptTemplate::kDefault, pair)}, 1);
        ms.push_back((NowUs() - start) / 1e3);
      }
      predict_ms = MedianOf(ms);
    }
  }
  report.Num("serve_router_self_ms", fleet_ms - single_ms);
  report.Num("serve_jsonl_tcp_self_ms", single_ms - submit_ms);
  report.Num("serve_batcher_wait_ms", submit_ms - predict_ms);
  report.Num("serve_forward_ms", predict_ms);

  std::vector<std::string> prompts;
  for (const data::EntityPair& pair : measured) {
    prompts.push_back(
        core::RenderPairPrompt(prompt::PromptTemplate::kDefault, pair));
  }
  InferLayers(*model, prompts, spans, &report);
  InferGemm(*model, MeanClippedTokens(*model, prompts), spans, &report);
  PromptLayers(*model, measured, spans, &report);
  report.Bool("ok", ok);
  if (!report.Write(args.Need("out"))) return 1;
  return WriteSpans(args, recorder) ? 0 : 1;
}

// ---- dedup-layers ----

// Seeded queries of the recall@10 check.
constexpr size_t kRecallQueries = 200;

// Candidate recall@10 of CascadeIndex::Query against brute-force exact
// cosine on `sample` seeded queries. A neighbour counts when its exact
// cosine reaches the exact 10th best (ties at the boundary are equivalent).
double RecallAt10(const cascade::CascadeIndex& index,
                  const std::vector<text::SparseVector>& vectors,
                  const std::vector<size_t>& queries, int threads) {
  constexpr int kK = 10;
  std::vector<double> recall(queries.size(), 0.0);
  ThreadPool::ParallelFor(queries.size(), static_cast<size_t>(threads),
                          [&](size_t qi) {
    const size_t q = queries[qi];
    std::vector<double> exact;
    exact.reserve(vectors.size());
    for (size_t d = 0; d < vectors.size(); ++d) {
      if (d != q) exact.push_back(text::TfidfEmbedder::Cosine(vectors[q], vectors[d]));
    }
    std::nth_element(exact.begin(), exact.begin() + (kK - 1), exact.end(),
                     std::greater<double>());
    const double kth = exact[kK - 1];
    int hits = 0;
    for (const cascade::CascadeIndex::Neighbor& neighbor :
         index.Query(static_cast<int>(q), kK)) {
      const double cosine = text::TfidfEmbedder::Cosine(
          vectors[q], vectors[static_cast<size_t>(neighbor.doc)]);
      if (neighbor.doc != static_cast<int>(q) && cosine >= kth - 1e-6) ++hits;
    }
    recall[qi] = static_cast<double>(hits) / kK;
  });
  return perfbench::Mean(recall);
}

int CmdDedupLayers(const Args& args) {
  const bool full = args.Str("full", "0") != "0";
  SpanRecorder recorder("dedup_layers", args.Str("span-parent", ""));
  SpanRecorder* spans = SpansOf(args, &recorder);
  const int threads = kThreads;
  const uint64_t corpus_seed = static_cast<uint64_t>(args.Num("corpus-seed"));
  Report report;

  std::vector<std::string> surfaces;
  std::vector<uint64_t> entity_ids;
  {
    ScopedSpan span(spans, "CorpusStream");
    data::CorpusStreamConfig config;
    config.num_entities = static_cast<size_t>(args.Num("entities"));
    config.seed = corpus_seed;
    data::CorpusStream stream(config);
    data::Entity entity;
    while (stream.Next(&entity)) {
      surfaces.push_back(entity.surface);
      entity_ids.push_back(entity.entity_id);
    }
  }
  const size_t n = surfaces.size();
  ScopedSpan layer(spans, "cascade");
  text::TfidfEmbedder embedder;
  double start = NowUs();
  {
    ScopedSpan span(spans, "TfidfEmbedder::Fit");
    embedder.Fit(surfaces);
  }
  report.Num("tfidf_fit_ms", (NowUs() - start) / 1e3);
  std::vector<text::SparseVector> vectors(n);
  start = NowUs();
  {
    // One thread: the per-entity cost of Embed itself.
    ScopedSpan span(spans, "TfidfEmbedder::Embed");
    for (size_t i = 0; i < n; ++i) vectors[i] = embedder.Embed(surfaces[i]);
  }
  report.Num("tfidf_embed_us_per_entity", (NowUs() - start) / n);

  cascade::CascadeIndexOptions index_options;
  index_options.seed = corpus_seed;  // as `tailormatch dedup` seeds it
  cascade::CascadeIndex index(index_options);
  start = NowUs();
  {
    ScopedSpan span(spans, "CascadeIndex::Build");
    index.Build(&vectors, threads);
  }
  report.Num("index_build_ms", (NowUs() - start) / 1e3);

  Rng rng(static_cast<uint64_t>(args.Num("seed")) ^ 0x4eca11ULL);
  const size_t sample = std::min(n, kRecallQueries);
  {
    ScopedSpan span(spans, "recall@10 vs brute force");
    report.Num("candidate_recall_at10",
               RecallAt10(index, vectors, rng.SampleIndices(n, sample), threads));
    report.Num("recall_queries", static_cast<double>(sample));
  }
  if (full) {
    // Per-query latency on one thread, over a seeded sample of records.
    std::vector<double> query_us;
    {
      ScopedSpan span(spans, "CascadeIndex::Query");
      for (size_t q : rng.SampleIndices(n, std::min<size_t>(n, 4000))) {
        const double t = NowUs();
        index.Query(static_cast<int>(q), 10);
        query_us.push_back(NowUs() - t);
      }
    }
    report.Num("query_p50_us", Percentile(query_us, 0.50));
    report.Num("query_p99_us", Percentile(query_us, 0.99));

    // Every record's candidates, as the cascade generates them.
    struct Pair {
      int a, b;
      float cosine;
    };
    std::vector<Pair> candidates;
    {
      ScopedSpan span(spans, "candidates (all records)");
      std::vector<std::vector<Pair>> per_doc(n);
      ThreadPool::ParallelFor(n, static_cast<size_t>(threads), [&](size_t i) {
        for (const auto& neighbor : index.Query(static_cast<int>(i), 10)) {
          const int a = std::min(static_cast<int>(i), neighbor.doc);
          const int b = std::max(static_cast<int>(i), neighbor.doc);
          per_doc[i].push_back({a, b, static_cast<float>(neighbor.score)});
        }
      }, 64);
      for (auto& list : per_doc) {
        candidates.insert(candidates.end(), list.begin(), list.end());
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const Pair& x, const Pair& y) {
                  return x.a != y.a ? x.a < y.a : x.b < y.b;
                });
      candidates.erase(std::unique(candidates.begin(), candidates.end(),
                                   [](const Pair& x, const Pair& y) {
                                     return x.a == y.a && x.b == y.b;
                                   }),
                       candidates.end());
    }
    std::vector<cascade::DocProfile> profiles(n);
    for (size_t i = 0; i < n; ++i) profiles[i] = cascade::MakeDocProfile(surfaces[i]);
    cascade::CheapScorer scorer;
    {
      ScopedSpan span(spans, "CheapScorer::Fit");
      std::vector<cascade::CheapScorer::TrainPair> train;
      const size_t stride = std::max<size_t>(1, candidates.size() / 512);
      for (size_t i = 0; i < candidates.size(); i += stride) {
        const Pair& c = candidates[i];
        train.push_back({cascade::ComputeFeatures(c.cosine, profiles[c.a],
                                                  profiles[c.b]),
                         entity_ids[c.a] == entity_ids[c.b]});
      }
      scorer.Fit(train);
    }
    std::vector<double> scores(candidates.size());
    start = NowUs();
    {
      ScopedSpan span(spans, "CheapScorer::Score");
      for (size_t i = 0; i < candidates.size(); ++i) {
        const Pair& c = candidates[i];
        scores[i] = scorer.Score(cascade::ComputeFeatures(
            c.cosine, profiles[c.a], profiles[c.b]));
      }
    }
    report.Num("score_us_per_pair", (NowUs() - start) / candidates.size());
    start = NowUs();
    size_t clusters = 0;
    {
      ScopedSpan span(spans, "UnionFind cluster");
      cascade::UnionFind uf(n);
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (scores[i] >= 0.5) uf.Union(candidates[i].a, candidates[i].b);
      }
      clusters = uf.Clusters(2).size();
    }
    report.Num("cluster_ms", (NowUs() - start) / 1e3);
    report.Num("cheap_clusters", static_cast<double>(clusters));
  }
  layer.Close();
  if (!report.Write(args.Need("out"))) return 1;
  return WriteSpans(args, recorder) ? 0 : 1;
}

// ---- train-layers ----

int CmdTrainLayers(const Args& args) {
  SpanRecorder recorder("train_layers", args.Str("span-parent", ""));
  SpanRecorder* spans = SpansOf(args, &recorder);
  Report report;
  const core::ExperimentContext context = core::ExperimentContext::FromEnv();
  const llm::FamilyProfile profile =
      llm::GetFamilyProfile(llm::ModelFamily::kLlama8B);
  std::unique_ptr<llm::SimLlm> zero_shot =
      llm::GetZeroShotModel(profile.family, args.Need("cache-dir"));
  const data::Benchmark benchmark =
      data::BuildBenchmark(data::BenchmarkId::kWdcSmall, context.data_scale);
  nn::LoraConfig lora;
  lora.rank = profile.lora_rank;
  lora.alpha = profile.lora_alpha;
  lora.dropout = profile.lora_dropout;

  ScopedSpan layer(spans, "llm.trainer");
  // Per-phase cost of single-threaded steps of batch 16.
  {
    std::unique_ptr<llm::SimLlm> model = zero_shot->Clone();
    model->EnableLora(lora);
    const std::vector<llm::TrainExample> examples = core::FineTuner::BuildExamples(
        *model, benchmark.train.pairs, prompt::PromptTemplate::kDefault,
        explain::ExplanationStyle::kNone);
    nn::AdamW optimizer(model->TrainableParameters(), profile.finetune_lr);
    const int batch = profile.batch_size;
    const int batches = 40;
    std::vector<double> forward_us, backward_us, step_us;
    for (int b = 0; b < batches; ++b) {
      std::vector<nn::Tensor> losses;
      double t = NowUs();
      {
        ScopedSpan span(spans, "SimLlm::ForwardLoss x16");
        for (int i = 0; i < batch; ++i) {
          const size_t e = static_cast<size_t>(b * batch + i) % examples.size();
          losses.push_back(model->ForwardLoss(examples[e], /*training=*/true,
                                              static_cast<uint64_t>(b * batch + i)));
        }
      }
      forward_us.push_back(NowUs() - t);
      t = NowUs();
      {
        ScopedSpan span(spans, "Tensor::Backward x16");
        for (nn::Tensor& loss : losses) {
          nn::Scale(loss, 1.0f / static_cast<float>(batch)).Backward();
        }
      }
      backward_us.push_back(NowUs() - t);
      t = NowUs();
      {
        ScopedSpan span(spans, "AdamW::Step");
        nn::ClipGradNorm(optimizer.params(), 5.0f);
        optimizer.Step();
        optimizer.ZeroGrad();
        model->NotifyWeightsMutated();
      }
      step_us.push_back(NowUs() - t);
    }
    report.Num("train_forward_us_per_batch", MedianOf(forward_us));
    report.Num("train_backward_us_per_batch", MedianOf(backward_us));
    report.Num("train_optimizer_us_per_batch", MedianOf(step_us));

    std::vector<std::string> prompts;
    for (size_t i = 0; i < 256 && i < benchmark.train.pairs.size(); ++i) {
      prompts.push_back(prompt::RenderPrompt(prompt::PromptTemplate::kDefault,
                                             benchmark.train.pairs[i]));
    }
    const int seq = MeanClippedTokens(*model, prompts);
    // Forward y = x W, backward dx = dy W^T and dW = x^T dy.
    std::vector<GemmShape> shapes;
    for (auto [in, out] : LinearDims(model->config())) {
      shapes.push_back({'N', seq, out, in});
      shapes.push_back({'T', seq, in, out});
      shapes.push_back({'U', in, out, seq});
    }
    ScopedSpan span(spans, "kernels::Gemm NN/NT/TN training shapes");
    TimeGemms(shapes, 300.0, "gemm_train", &report);
  }
  // One epoch of the data-parallel trainer, as `--train-threads` runs it.
  std::unique_ptr<llm::SimLlm> model = zero_shot->Clone();
  model->EnableLora(lora);
  {
    const std::vector<llm::TrainExample> examples = core::FineTuner::BuildExamples(
        *model, benchmark.train.pairs, prompt::PromptTemplate::kDefault,
        explain::ExplanationStyle::kNone);
    llm::TrainOptions options;
    options.epochs = 1;
    options.batch_size = profile.batch_size;
    options.learning_rate = profile.finetune_lr;
    options.num_threads = kThreads;
    options.select_best_checkpoint = false;
    const double t = NowUs();
    {
      ScopedSpan span(spans, "llm::TrainModel 1 epoch");
      llm::TrainModel(*model, examples, options);
    }
    report.Num("train_examples_per_s", examples.size() / ((NowUs() - t) / 1e6));
  }
  model->MergeLora();
  {
    eval::EvalOptions options;
    options.max_pairs = context.eval_max_pairs;
    const double t = NowUs();
    {
      ScopedSpan span(spans, "core::BatchEvaluate test split");
      core::BatchEvaluate(*model, benchmark.test, options);
    }
    report.Num("eval_test_ms", (NowUs() - t) / 1e3);
  }
  layer.Close();
  if (!report.Write(args.Need("out"))) return 1;
  return WriteSpans(args, recorder) ? 0 : 1;
}

// ---- eval-f1 ----

// Test F1 (in percent, as the CLI prints it) of a saved checkpoint, from
// this process's own confusion counts over the evaluation subsample.
int CmdEvalF1(const Args& args) {
  const core::ExperimentContext context = core::ExperimentContext::FromEnv();
  std::unique_ptr<llm::SimLlm> model = LoadModel(args.Need("model"));
  const data::Benchmark benchmark =
      data::BuildBenchmark(data::BenchmarkId::kWdcSmall, context.data_scale);
  eval::EvalOptions options;
  options.max_pairs = context.eval_max_pairs;
  core::Matcher matcher(std::shared_ptr<llm::SimLlm>(std::move(model)));
  long tp = 0, fp = 0, fn = 0, tn = 0;
  for (const data::EntityPair* pair : eval::SelectEvalPairs(benchmark.test, options)) {
    const bool predicted = matcher.Match(*pair).is_match;
    tp += predicted && pair->label;
    fp += predicted && !pair->label;
    fn += !predicted && pair->label;
    tn += !predicted && !pair->label;
  }
  Report report;
  report.Num("tp", tp);
  report.Num("fp", fp);
  report.Num("fn", fn);
  report.Num("tn", tn);
  report.Num("f1", tp == 0 ? 0.0 : 100.0 * 2 * tp / (2.0 * tp + fp + fn));
  return report.Write(args.Need("out")) ? 0 : 1;
}

// ---- pretrain ----

int CmdPretrain(const Args& args) {
  SpanRecorder recorder("pretrain", args.Str("span-parent", ""));
  Report report;
  const double t = NowUs();
  {
    ScopedSpan span(SpansOf(args, &recorder), "llm::Pretrain llama8b");
    llm::Pretrain(llm::GetFamilyProfile(llm::ModelFamily::kLlama8B));
  }
  report.Num("pretrain_s", (NowUs() - t) / 1e6);
  if (!report.Write(args.Need("out"))) return 1;
  return WriteSpans(args, recorder) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_probe <mode> [--key value ...]\n");
    return 2;
  }
  const std::string mode = argv[1];
  Args args(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "arguments must be --key value pairs\n");
    return 2;
  }
  if (mode == "loadgen") return CmdLoadgen(args);
  if (mode == "serve-layers") return CmdServeLayers(args);
  if (mode == "dedup-layers") return CmdDedupLayers(args);
  if (mode == "train-layers") return CmdTrainLayers(args);
  if (mode == "eval-f1") return CmdEvalF1(args);
  if (mode == "pretrain") return CmdPretrain(args);
  std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
  return 2;
}
