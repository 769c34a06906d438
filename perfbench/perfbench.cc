// The simulator benchmark program: one workload, TPFTL and DFTL, one process.
//
//   perfbench --workload gc_heavy|read_miss_trace|tenant_serve --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// Every workload runs on the single-die (1 x 1 x 1) device from one thread.
// The inputs are generated from --seed during set-up. The measured window of
// each FTL is a fixed number of requests derived from --seconds, so every
// simulated metric is a pure function of (workload, seed, seconds) and
// repeats bit for bit, while host time is measured over windows that add up
// to about --seconds per run (see EndToEnd).
//
// After each FTL's window the device is checked against a shadow model built
// from the benchmark's own inputs (see Verify). The result is one JSON object
// on stdout; run.py validates it against BENCHMARK.json and prints it.
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics from a pass with SsdConfig::trace_phases on and a per-request
// RunObserver that timestamps every request from outside the simulator and
// classifies it by the deltas of AtStats / FlashStats / WriteBufferStats
// (see PerLayer). perfbench/README.md maps each metric to its layer and
// workload.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/latency_histogram.h"
#include "src/ssd/runner.h"
#include "src/trace/spc_parser.h"
#include "src/trace/trace_io.h"
#include "src/util/rng.h"
#include "src/workload/generator.h"
#include "src/workload/tenant_mix.h"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif
#ifndef PB_CXX_FLAGS
#define PB_CXX_FLAGS "unknown"
#endif
#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif

namespace tpftl::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t start_ns) { return static_cast<double>(NowNs() - start_ns) * 1e-9; }

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }
double Ratio(uint64_t num, uint64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Derives an independent sub-seed per input stream from the run's --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.Next();
}

struct FtlUnderTest {
  FtlKind kind;
  const char* tag;
};
constexpr FtlUnderTest kFtls[] = {{FtlKind::kTpftl, "tpftl"}, {FtlKind::kDftl, "dftl"}};

// Rounds of the end-to-end run: the workload's independent input replicas,
// each replayed kRounds / replicas() times (see EndToEnd). Each FTL window
// lasts about seconds / (2 * kRounds), so a run measures for about --seconds.
constexpr int kRounds = 12;
// Untraced/traced pass pairs of the traced run (see PerLayer).
constexpr int kOverheadReps = 3;

// Seed of replica `replica`'s inputs; replica 0 also feeds the traced run.
uint64_t ReplicaSeed(uint64_t seed, int replica) {
  return SubSeed(seed, 1000 + static_cast<uint64_t>(replica));
}

// ---------------------------------------------------------------------------
// Shadow model: which LPNs the FTL must map once the inputs have been served.
//
// Preconditioning writes every logical page, so every LPN starts mapped.
// Requests are split into pages exactly as Ssd::ServiceRequestPages does; a
// mirror CFLRU buffer with the device's configuration decides which host
// writes have reached the FTL (only flushed pages are mapped anew). A TRIM
// unmaps its pages.
class Shadow {
 public:
  Shadow(uint64_t logical_pages, const WriteBufferConfig& buffer)
      : logical_pages_(logical_pages), mapped_(logical_pages, 1), buffer_(buffer) {}

  void Apply(const IoRequest& request) {
    const Lpn first = request.FirstLpn(kPageBytes) % logical_pages_;
    const uint64_t pages = std::min(request.PageCount(kPageBytes), logical_pages_);
    for (uint64_t i = 0; i < pages; ++i) {
      const Lpn lpn = (first + i) % logical_pages_;
      if (request.is_trim()) {
        buffer_.Discard(lpn);
        mapped_[lpn] = 0;
      } else if (!buffer_.enabled()) {
        MarkFlushed(request.is_write() ? lpn : kInvalidLpn);
      } else if (request.is_write()) {
        MarkFlushed(buffer_.PutWrite(lpn));
      } else if (!buffer_.ServeRead(lpn)) {
        MarkFlushed(buffer_.AdmitClean(lpn));
      }
    }
  }

  uint64_t logical_pages() const { return logical_pages_; }
  bool mapped(Lpn lpn) const { return mapped_[lpn] != 0; }

 private:
  static constexpr uint64_t kPageBytes = 4096;
  void MarkFlushed(Lpn lpn) {
    if (lpn != kInvalidLpn) {
      mapped_[lpn] = 1;
    }
  }
  uint64_t logical_pages_;
  std::vector<uint8_t> mapped_;
  WriteBuffer buffer_;
};

struct Verdict {
  uint64_t checks = 0;
  uint64_t mismatches = 0;
  std::string first;  // Description of the first mismatch.
  void Fail(const std::string& what) {
    ++mismatches;
    if (first.empty()) {
      first = what;
    }
  }
};

// The output check: every LPN the shadow maps must probe to a valid data page
// tagged with that LPN, every other LPN must be unmapped, the translation
// counters must balance, and the FTL's own structural self-check must pass.
Verdict Verify(const Ssd& ssd, const Shadow& shadow) {
  Verdict v;
  const Ftl& ftl = ssd.ftl();
  const NandFlash& flash = ssd.flash();
  if (shadow.logical_pages() != ssd.logical_pages()) {
    v.Fail("shadow covers " + std::to_string(shadow.logical_pages()) + " pages, device " +
           std::to_string(ssd.logical_pages()));
    return v;
  }
  for (Lpn lpn = 0; lpn < shadow.logical_pages(); ++lpn) {
    ++v.checks;
    const Ppn ppn = ftl.Probe(lpn);
    if (!shadow.mapped(lpn)) {
      if (ppn != kInvalidPpn) {
        v.Fail("lpn " + std::to_string(lpn) + " should be unmapped");
      }
      continue;
    }
    if (ppn == kInvalidPpn || flash.StateOf(ppn) != PageState::kValid ||
        flash.OobKindOf(ppn) != OobKind::kData || flash.OobTag(ppn) != lpn) {
      v.Fail("lpn " + std::to_string(lpn) + " does not probe to its own valid data page");
    }
  }
  const AtStats& s = ftl.stats();
  ++v.checks;
  if (s.hits + s.misses + s.model_hits != s.lookups) {
    v.Fail("hits + misses != lookups");
  }
  ++v.checks;
  if (!ftl.CheckInvariants()) {
    v.Fail("Ftl::CheckInvariants failed");
  }
  return v;
}

// Planted-defect self-test: an FTL that silently drops every mapping commit
// of one LPN must fail the output check. Runs on a small device, so it costs
// milliseconds per run and keeps every result honest about its checker.
bool SabotageIsDetected(FtlKind kind, uint64_t seed) {
  SsdConfig config;
  config.logical_bytes = 16ULL << 20;
  config.ftl_kind = kind;
  Ssd ssd(config);
  ssd.FillSequential();
  Shadow shadow(ssd.logical_pages(), WriteBufferConfig{});
  const auto submit = [&](IoKind kind_of_op, Lpn lpn) {
    IoRequest request;
    request.kind = kind_of_op;
    request.offset_bytes = lpn * 4096;
    request.size_bytes = 4096;
    ssd.Submit(request);
    shadow.Apply(request);
  };
  // Aged traffic first, then the planted defect: the victim's next (and
  // only) write programs a page but never commits its mapping. A second
  // write would invalidate the stale page twice, which the FTL treats as
  // fatal, so the victim is written once, last.
  const Lpn victim = 17;
  Rng rng(seed);
  for (int i = 0; i < 20000; ++i) {
    const Lpn lpn = 18 + rng.Below(ssd.logical_pages() - 18);
    submit(rng.Below(4) == 0 ? IoKind::kRead : IoKind::kWrite, lpn);
  }
  ssd.ftl().TestOnlySabotageDropCommits(victim);
  submit(IoKind::kWrite, victim);
  return Verify(ssd, shadow).mismatches > 0;
}

// ---------------------------------------------------------------------------
// Streaming SPC trace source: parses the file line by line with the trace
// layer's SpcParser while the replay runs, so parsing is part of the replay's
// host time and memory stays flat. The file is replayed `loops` times; each
// pass shifts its timestamps by `loop_span_us` so arrivals keep increasing.
class SpcFileSource : public TraceSource {
 public:
  SpcFileSource(std::string path, uint64_t lines, uint64_t loops, MicroSec loop_span_us)
      : path_(std::move(path)), lines_(lines), loops_(loops), loop_span_us_(loop_span_us),
        buffer_(1 << 20) {}
  ~SpcFileSource() override { Close(); }
  SpcFileSource(const SpcFileSource&) = delete;
  SpcFileSource& operator=(const SpcFileSource&) = delete;

  bool Next(IoRequest* out) override {
    while (true) {
      std::string_view line;
      if (!NextLine(&line)) {
        if (++loop_ >= loops_) {
          return false;
        }
        Open();
        continue;
      }
      if (const std::optional<IoRequest> parsed = parser_.ParseLine(line)) {
        *out = *parsed;
        out->arrival_us += static_cast<double>(loop_) * loop_span_us_;
        last_arrival_us_ = out->arrival_us;
        return true;
      }
      ++malformed_;
    }
  }

  void Rewind() override {
    loop_ = 0;
    malformed_ = 0;
    Open();
  }

  std::optional<uint64_t> SizeHint() const override { return lines_ * loops_; }
  uint64_t malformed() const { return malformed_; }
  MicroSec last_arrival_us() const { return last_arrival_us_; }

 private:
  void Close() {
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
  }
  void Open() {
    Close();
    file_ = std::fopen(path_.c_str(), "rb");
    TPFTL_CHECK_MSG(file_ != nullptr, "cannot open the trace file");
    begin_ = end_ = 0;
  }
  // Next '\n'-terminated line from the read buffer, refilling it as needed.
  bool NextLine(std::string_view* line) {
    while (true) {
      const char* base = buffer_.data();
      const void* nl = std::memchr(base + begin_, '\n', end_ - begin_);
      if (nl != nullptr) {
        const size_t stop = static_cast<size_t>(static_cast<const char*>(nl) - base);
        *line = std::string_view(base + begin_, stop - begin_);
        begin_ = stop + 1;
        return true;
      }
      if (file_ == nullptr) {
        return false;
      }
      std::memmove(buffer_.data(), base + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
      TPFTL_CHECK_MSG(end_ < buffer_.size(), "trace line longer than the read buffer");
      const size_t got = std::fread(buffer_.data() + end_, 1, buffer_.size() - end_, file_);
      if (got == 0) {
        Close();
        if (end_ == 0) {
          return false;
        }
        buffer_[end_++] = '\n';  // Unterminated last line.
        continue;
      }
      end_ += got;
    }
  }

  std::string path_;
  uint64_t lines_;
  uint64_t loops_;
  MicroSec loop_span_us_;
  SpcParser parser_;
  std::FILE* file_ = nullptr;
  std::vector<char> buffer_;
  size_t begin_ = 0;
  size_t end_ = 0;
  uint64_t loop_ = 0;
  uint64_t malformed_ = 0;
  MicroSec last_arrival_us_ = 0.0;
};

// In-memory replay that remembers the last request it handed out.
class TapTrace : public TraceSource {
 public:
  explicit TapTrace(const std::vector<IoRequest>& requests) : requests_(requests) {}
  bool Next(IoRequest* out) override {
    if (pos_ >= requests_.size()) {
      return false;
    }
    *out = requests_[pos_++];
    last_arrival_us_ = out->arrival_us;
    return true;
  }
  void Rewind() override { pos_ = 0; }
  std::optional<uint64_t> SizeHint() const override { return requests_.size(); }
  MicroSec last_arrival_us() const { return last_arrival_us_; }

 private:
  const std::vector<IoRequest>& requests_;
  size_t pos_ = 0;
  MicroSec last_arrival_us_ = 0.0;
};

// ---------------------------------------------------------------------------
// Workloads.

struct DriverResult {
  RunReport report;
  uint64_t offered = 0;  // Measured-window arrivals.
  uint64_t dropped = 0;
  std::vector<TenantServingStats> tenants;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  // Set-up part 1: materializes one input draw from `seed` (or writes it as
  // a trace file). Returns the number of requests generated.
  virtual uint64_t Generate(uint64_t seed) = 0;
  // One FTL through the workload's driver: device construction,
  // preconditioning fill, warm-up, then the measured window.
  virtual DriverResult Drive(FtlKind kind, bool trace_phases, const RunObserver& observer) = 0;
  // Observer indices of the measured window run 1..measured().
  virtual uint64_t measured() const = 0;
  // Independent input draws the end-to-end run pools; a divisor of kRounds.
  // More replicas average the simulated metrics over more inputs, fewer
  // give each replica more repeats for its host timing.
  virtual int replicas() const { return 3; }
  // Shadow of the device state after the whole input has been served.
  virtual Shadow BuildShadow() = 0;
  // Arrival time of the request the driver submitted last, for the
  // service-time split. 0 for the closed loop, which issues each request at
  // the previous completion.
  virtual MicroSec LastArrivalUs() const { return 0.0; }
  // Host time of parsing the trace alone, per request (0 without a trace).
  virtual double ParseOnlyNsPerRequest() { return 0.0; }
  virtual std::map<std::string, double> Describe() const = 0;
};

// gc_heavy: the GcHeavyMix shape of bench/bench_common.h (64 MiB device,
// Zipf 1.2, 80% writes, interleaved sequential scans), closed loop at QD1.
class GcHeavy : public Workload {
 public:
  explicit GcHeavy(double window_s) {
    w_.name = "gc_heavy";
    w_.address_space_bytes = 64ULL << 20;
    w_.write_ratio = 0.8;
    w_.zipf_theta = 1.2;
    w_.seq_read_fraction = 0.3;
    w_.seq_write_fraction = 0.2;
    w_.chunk_pages = 32;
    w_.mean_interarrival_us = 50.0;
    measured_ = static_cast<uint64_t>(kRequestsPerSecond * window_s);
    w_.num_requests = kWarmup + measured_;
  }

  uint64_t Generate(uint64_t seed) override {
    w_.seed = seed;
    trace_ = MaterializeWorkload(w_);
    return trace_.requests().size();
  }

  DriverResult Drive(FtlKind kind, bool trace_phases, const RunObserver& observer) override {
    ExperimentConfig config;
    config.workload = w_;
    config.ftl_kind = kind;
    config.trace_phases = trace_phases;
    ClosedLoopConfig loop;
    loop.queue_depth = 1;
    loop.warmup_requests = kWarmup;
    loop.measured_requests = measured_;
    ClosedLoopReport r = RunClosedLoop(config, trace_, loop, observer);
    return DriverResult{std::move(r.report), r.measured, 0, {}};
  }

  uint64_t measured() const override { return measured_; }

  Shadow BuildShadow() override {
    Shadow shadow(w_.total_pages(), WriteBufferConfig{});
    for (const IoRequest& request : trace_.requests()) {
      shadow.Apply(request);
    }
    return shadow;
  }

  std::map<std::string, double> Describe() const override {
    return {{"device_mib", 64}, {"warmup_requests", kWarmup},
            {"measured_requests", static_cast<double>(measured_)}, {"queue_depth", 1}};
  }

 private:
  // Calibration: the harmonic mean of TPFTL's and DFTL's host rates on this
  // mix on the reference machine (README.md), so the two windows of a round
  // last about 2 * window_s together. The same holds for the other workloads.
  static constexpr double kRequestsPerSecond = 500'000;
  static constexpr uint64_t kWarmup = 100'000;
  WorkloadConfig w_;
  uint64_t measured_ = 0;
  VectorTrace trace_;
};

// read_miss_trace: ~95% small random reads with low skew over 4 GiB at the
// paper's default cache budget, written as an SPC trace file at set-up and
// replayed open loop on the file's own timestamps at light load.
class ReadMissTrace : public Workload {
 public:
  ReadMissTrace(double window_s, const std::string& work_dir, int replica)
      : path_(work_dir + "/read_miss_trace." + std::to_string(replica) + ".spc") {
    w_.name = "read_miss_trace";
    w_.address_space_bytes = 4ULL << 30;
    w_.write_ratio = 0.05;
    w_.zipf_theta = 0.8;
    w_.chunk_pages = 64;
    w_.mean_random_bytes = 4096;
    w_.max_request_bytes = 16 * 1024;
    w_.mean_interarrival_us = 500.0;
    w_.num_requests = kFileRequests;
    const auto wanted = static_cast<uint64_t>(kRequestsPerSecond * window_s);
    loops_ = std::max<uint64_t>(1, (kWarmup + wanted + kFileRequests - 1) / kFileRequests);
    const uint64_t total = loops_ * kFileRequests;
    warmup_fraction_ = static_cast<double>(kWarmup) / static_cast<double>(total);
    // Same expression RunTrace uses to size its warm-up.
    const auto warm = static_cast<uint64_t>(static_cast<double>(total) * warmup_fraction_);
    measured_ = total - warm;
  }

  uint64_t Generate(uint64_t seed) override {
    w_.seed = seed;
    const VectorTrace trace = MaterializeWorkload(w_);
    // Loop passes are spaced by the file's span plus one mean gap.
    loop_span_us_ = trace.requests().back().arrival_us + w_.mean_interarrival_us;
    TPFTL_CHECK_MSG(SaveTraceSpc(path_, trace.requests()), "cannot write the trace file");
    return trace.requests().size();
  }

  DriverResult Drive(FtlKind kind, bool trace_phases, const RunObserver& observer) override {
    ExperimentConfig config;
    config.workload = w_;
    config.ftl_kind = kind;
    config.trace_phases = trace_phases;
    config.warmup_fraction = warmup_fraction_;
    SpcFileSource source(path_, kFileRequests, loops_, loop_span_us_);
    source_ = &source;
    RunReport report = RunTrace(config, source, observer);
    source_ = nullptr;
    TPFTL_CHECK_MSG(source.malformed() == 0, "trace file has malformed lines");
    return DriverResult{std::move(report), measured_, 0, {}};
  }

  MicroSec LastArrivalUs() const override { return source_->last_arrival_us(); }

  // The input draws barely move the simulated metrics here (spread < 0.5%
  // over seeds), while the 4 GiB device's host time is the most sensitive to
  // co-tenant cache pressure: all rounds go to repeats.
  int replicas() const override { return 1; }

  uint64_t measured() const override { return measured_; }

  Shadow BuildShadow() override {
    Shadow shadow(w_.total_pages(), WriteBufferConfig{});
    SyntheticWorkload generator(w_);
    for (uint64_t loop = 0; loop < loops_; ++loop) {
      generator.Rewind();
      IoRequest request;
      while (generator.Next(&request)) {
        shadow.Apply(request);
      }
    }
    return shadow;
  }

  double ParseOnlyNsPerRequest() override {
    SpcFileSource source(path_, kFileRequests, 1, loop_span_us_);
    source.Rewind();
    IoRequest request;
    uint64_t n = 0;
    const uint64_t start = NowNs();
    while (source.Next(&request)) {
      ++n;
    }
    return Ratio(static_cast<double>(NowNs() - start), static_cast<double>(n));
  }

  std::map<std::string, double> Describe() const override {
    return {{"device_mib", 4096},
            {"file_requests", kFileRequests},
            {"loops", static_cast<double>(loops_)},
            {"warmup_requests", kWarmup},
            {"measured_requests", static_cast<double>(measured_)},
            {"mean_interarrival_us", w_.mean_interarrival_us}};
  }

 private:
  static constexpr double kRequestsPerSecond = 1'200'000;
  static constexpr uint64_t kFileRequests = 250'000;
  static constexpr uint64_t kWarmup = 50'000;
  WorkloadConfig w_;
  std::string path_;
  uint64_t loops_ = 1;
  double warmup_fraction_ = 0.0;
  uint64_t measured_ = 0;
  MicroSec loop_span_us_ = 0.0;
  const SpcFileSource* source_ = nullptr;  // Set while Drive runs.
};

// tenant_serve: three tenants on disjoint windows (YCSB-A, a 50/50
// sequential streamer, the TRIM-heavy aging preset) with Poisson arrivals,
// open loop through RunServing, CFLRU write buffer on, two data streams.
class TenantServe : public Workload {
 public:
  explicit TenantServe(double window_s)
      : total_(static_cast<uint64_t>(kRequestsPerSecond * window_s) + kWarmup) {
    buffer_.capacity_pages = kBufferPages;
  }

  uint64_t Generate(uint64_t seed) override {
    TenantMixSource mix(Specs(seed));
    TPFTL_CHECK(mix.RequiredDeviceBytes() == kDeviceBytes);
    requests_.clear();
    requests_.reserve(mix.SizeHint().value_or(0));
    IoRequest request;
    mix.Rewind();
    while (mix.Next(&request)) {
      requests_.push_back(request);
    }
    names_ = mix.TenantNames();
    return requests_.size();
  }

  DriverResult Drive(FtlKind kind, bool trace_phases, const RunObserver& observer) override {
    ExperimentConfig config;
    config.workload.name = "tenant_serve";
    config.workload.address_space_bytes = kDeviceBytes;
    config.ftl_kind = kind;
    config.trace_phases = trace_phases;
    config.cache_bytes = kCacheBytes;
    config.write_buffer = buffer_;
    config.data_streams = 2;
    ServingConfig serving;
    serving.warmup_requests = kWarmup;
    serving.max_queue_us = kMaxQueueUs;
    serving.tenant_count = static_cast<uint32_t>(names_.size());
    serving.tenant_names = names_;
    TapTrace tap(requests_);
    tap_ = &tap;
    ServingReport r = RunServing(config, tap, serving, observer);
    tap_ = nullptr;
    return DriverResult{std::move(r.report), r.offered, r.dropped, std::move(r.tenants)};
  }

  MicroSec LastArrivalUs() const override { return tap_->last_arrival_us(); }

  // The hit ratio and tail here hinge on the few large streamer and aging
  // requests of each draw, so four draws are pooled.
  int replicas() const override { return 4; }

  uint64_t measured() const override {
    uint64_t requests = 0;
    for (const double share : kShares) {
      requests += TenantRequests(share);
    }
    return requests - kWarmup;
  }

  Shadow BuildShadow() override {
    Shadow shadow(kDeviceBytes / 4096, buffer_);
    for (const IoRequest& request : requests_) {
      shadow.Apply(request);
    }
    return shadow;
  }

  std::map<std::string, double> Describe() const override {
    return {{"device_mib", static_cast<double>(kDeviceBytes >> 20)},
            {"offered_rps", kTotalRateRps},
            {"max_queue_us", kMaxQueueUs},
            {"buffer_pages", kBufferPages},
            {"cache_bytes", kCacheBytes},
            {"warmup_requests", kWarmup},
            {"measured_requests", static_cast<double>(measured())}};
  }

 private:
  static constexpr double kRequestsPerSecond = 120'000;
  static constexpr uint64_t kWarmup = 10'000;
  static constexpr double kTotalRateRps = 100.0;
  static constexpr MicroSec kMaxQueueUs = 1e6;
  static constexpr uint64_t kBufferPages = 1024;
  static constexpr uint64_t kMiB = 1ULL << 20;
  static constexpr uint64_t kDeviceBytes = 64 * kMiB;
  // 1/8 of the full page-level table: the paper's default budget for this
  // small device holds a few hundred entries, which leaves DFTL's hit ratio
  // near zero and at the mercy of the seed.
  static constexpr uint64_t kCacheBytes = 16 * 1024;
  // Request shares of YCSB-A, the streamer and the aging preset.
  static constexpr double kShares[] = {0.90, 0.06, 0.04};

  uint64_t TenantRequests(double share) const {
    return static_cast<uint64_t>(static_cast<double>(total_) * share);
  }

  // Three tenants on disjoint windows (16 + 16 + 32 MiB) whose Poisson rates
  // make them end together.
  std::vector<TenantSpec> Specs(uint64_t seed) const {
    const double span_us = static_cast<double>(total_) / kTotalRateRps * 1e6;
    const auto tenant = [&](TenantSpec spec, size_t i, uint64_t offset) {
      spec.ops.num_requests = TenantRequests(kShares[i]);
      spec.arrival.kind = ArrivalKind::kPoisson;
      spec.arrival.seed = SubSeed(seed, 10 + i);
      spec.arrival.rate_rps = static_cast<double>(spec.ops.num_requests) / span_us * 1e6;
      spec.lba_offset_bytes = offset;
      return spec;
    };
    return {tenant(YcsbTenant('A', 16 * kMiB, 0, SubSeed(seed, 3)), 0, 0),
            tenant(StreamerTenant(16 * kMiB, 0, SubSeed(seed, 4), 0.5), 1, 16 * kMiB),
            tenant(AgingTenant(32 * kMiB, 0, SubSeed(seed, 5)), 2, 32 * kMiB)};
  }

  uint64_t total_;
  WriteBufferConfig buffer_;
  std::vector<std::string> names_;
  std::vector<IoRequest> requests_;
  const TapTrace* tap_ = nullptr;  // Set while Drive runs.
};

// ---------------------------------------------------------------------------
// Measurement.

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries;
  void Add(const std::string& name, double value, const std::string& unit) {
    entries.push_back({name, {value, unit}});
  }
};

struct CheckTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;
};

// One untraced FTL window: host time from the first to the last measured
// request in kChunks equal chunks, and the simulated device service time of
// every measured request.
struct WindowTimer {
  static constexpr uint64_t kChunks = 20;
  uint64_t entry_ns = 0;  // Driver entry.
  uint64_t first_ns = 0;  // After the first measured request.
  uint64_t last_ns = 0;   // After the last measured request.
  uint64_t chunk = 1;     // Requests per chunk.
  std::vector<uint64_t> marks;  // first_ns, then the end of every chunk.
  // Service time = finish - start, where the single-die FIFO device starts a
  // request at max(previous finish, its arrival): queueing never counts.
  std::vector<double> service_us;
  MicroSec prev_free_us = 0.0;

  double warm_s() const { return static_cast<double>(first_ns - entry_ns) * 1e-9; }
  double window_s() const { return static_cast<double>(last_ns - first_ns) * 1e-9; }
};

// Runs the verification at the last measured request, outside the timed
// window, and books its outcome.
void CheckAtEnd(const Ssd& ssd, Workload& workload, std::optional<Shadow>* shadow,
                CheckTally* tally, const char* ftl) {
  if (!shadow->has_value()) {
    shadow->emplace(workload.BuildShadow());
  }
  const Verdict v = Verify(ssd, **shadow);
  tally->attempted += v.checks;
  tally->failed += v.mismatches;
  if (v.mismatches > 0) {
    tally->notes.push_back(std::string(ftl) + ": " + std::to_string(v.mismatches) +
                           " mismatches, first: " + v.first);
  }
}

// One untraced window. Returns the driver result; fills `timer`.
DriverResult TimedRun(Workload& workload, const FtlUnderTest& ftl, std::optional<Shadow>* shadow,
                      CheckTally* tally, WindowTimer* timer) {
  const uint64_t n = workload.measured();
  timer->chunk = std::max<uint64_t>(1, (n - 1) / WindowTimer::kChunks);
  timer->service_us.reserve(n);
  bool checked = false;
  timer->entry_ns = NowNs();
  DriverResult result = workload.Drive(
      ftl.kind, /*trace_phases=*/false, [&](const Ssd& ssd, uint64_t index) {
        const MicroSec free_us = ssd.device_free_at();
        const MicroSec epoch_us = ssd.stats_epoch_us();
        const MicroSec prev_us = index == 1 ? epoch_us : timer->prev_free_us;
        timer->service_us.push_back(
            free_us - std::max(prev_us, std::max(workload.LastArrivalUs(), epoch_us)));
        timer->prev_free_us = free_us;
        if ((index - 1) % timer->chunk == 0 && timer->marks.size() <= WindowTimer::kChunks) {
          timer->marks.push_back(NowNs());
          if (index == 1) {
            timer->first_ns = timer->marks.back();
          }
        }
        if (index == n) {
          timer->last_ns = NowNs();
          CheckAtEnd(ssd, workload, shadow, tally, ftl.tag);
          checked = true;
        }
      });
  tally->attempted += result.offered;
  tally->failed += result.dropped;
  if (!checked) {
    ++tally->failed;
    tally->notes.push_back(std::string(ftl.tag) + ": window ended before request " +
                           std::to_string(n) + " (dropped " + std::to_string(result.dropped) +
                           "), output not checked");
  }
  return result;
}


double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB.
}

// Mean of the values at or above the nearest-rank q-quantile: the
// conditional tail mean. Simulated service times are sums of a few fixed
// flash latencies, so the p99 itself sits on a plateau that reads the same
// for every input draw; the mean of the slowest 1% moves with the tail.
double TailMean(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(std::max<size_t>(rank, 1) - 1);
  std::nth_element(v.begin(), nth, v.end());
  double sum = 0.0;
  for (auto it = nth; it != v.end(); ++it) {
    sum += *it;
  }
  return sum / static_cast<double>(v.end() - nth);
}

// The counters Eq. 12 and Hr are computed from, summed over rounds.
void Accumulate(const AtStats& s, AtStats* into) {
  into->lookups += s.lookups;
  into->hits += s.hits;
  into->host_page_writes += s.host_page_writes;
  into->trans_writes_at += s.trans_writes_at;
  into->trans_writes_gc += s.trans_writes_gc;
  into->gc_data_migrations += s.gc_data_migrations;
}

using WorkloadFactory = std::function<std::unique_ptr<Workload>(int replica)>;

// The end-to-end run. Inputs: replicas() independent draws from --seed. Each
// round sets up and replays every FTL on one replica; the rounds cycle
// through the replicas kRounds / replicas() times, so the repeats of one replica are
// spread over the whole run.
//  * Simulated metrics pool the replicas' measured requests (averaging over
//    the draws). Every repeat must reproduce its replica's simulated
//    figures bit for bit; a repeat that does not counts as a failure.
//  * Host speed: each window is timed in kChunks chunks, and each chunk keeps
//    its fastest repeat. Identical work timed at different moments, so a
//    co-tenant slowing the machine for a few seconds does not decide it.
//  * Set-up time is the median over the rounds.
void EndToEnd(const WorkloadFactory& make, uint64_t seed, Metrics* m, CheckTally* tally) {
  constexpr size_t kFtlCount = std::size(kFtls);
  struct Replica {
    std::unique_ptr<Workload> workload;
    double gen_s = 0.0;
    std::optional<Shadow> shadow;
    std::vector<std::vector<uint64_t>> best_chunk_ns{kFtlCount};
    std::vector<uint64_t> chunk_requests = std::vector<uint64_t>(kFtlCount);
    std::vector<std::vector<double>> service_us{kFtlCount};
    std::vector<AtStats> stats = std::vector<AtStats>(kFtlCount);
  };
  std::unique_ptr<Workload> first = make(0);
  std::vector<Replica> replicas(static_cast<size_t>(first->replicas()));
  const int repeats = kRounds / first->replicas();
  replicas[0].workload = std::move(first);
  for (size_t k = 0; k < replicas.size(); ++k) {
    if (k > 0) {
      replicas[k].workload = make(static_cast<int>(k));
    }
    const uint64_t start = NowNs();
    replicas[k].workload->Generate(ReplicaSeed(seed, static_cast<int>(k)));
    replicas[k].gen_s = SecondsSince(start);
  }
  std::vector<double> setups;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    for (Replica& replica : replicas) {
      double setup = replica.gen_s;
      for (size_t f = 0; f < kFtlCount; ++f) {
        WindowTimer timer;
        const DriverResult r =
            TimedRun(*replica.workload, kFtls[f], &replica.shadow, tally, &timer);
        setup += timer.warm_s();
        std::vector<uint64_t>& best = replica.best_chunk_ns[f];
        for (size_t j = 1; j < timer.marks.size(); ++j) {
          const uint64_t ns = timer.marks[j] - timer.marks[j - 1];
          if (repeat == 0) {
            best.push_back(ns);
          } else if (j - 1 < best.size()) {
            best[j - 1] = std::min(best[j - 1], ns);
          }
        }
        replica.chunk_requests[f] = timer.chunk;
        if (repeat == 0) {
          replica.service_us[f] = std::move(timer.service_us);
          replica.stats[f] = r.report.stats;
          continue;
        }
        ++tally->attempted;
        const AtStats& reference = replica.stats[f];
        if (timer.service_us != replica.service_us[f] || r.report.stats.hits != reference.hits ||
            r.report.stats.lookups != reference.lookups ||
            r.report.write_amplification != reference.write_amplification()) {
          ++tally->failed;
          tally->notes.push_back(std::string(kFtls[f].tag) +
                                 ": a repeat did not reproduce the simulation bit for bit");
        }
      }
      setups.push_back(setup);
    }
  }
  for (size_t f = 0; f < kFtlCount; ++f) {
    double requests = 0.0;
    uint64_t ns = 0;
    for (const Replica& replica : replicas) {
      requests += static_cast<double>(replica.chunk_requests[f] * replica.best_chunk_ns[f].size());
      for (const uint64_t chunk_ns : replica.best_chunk_ns[f]) {
        ns += chunk_ns;
      }
    }
    m->Add(std::string("replay_req_per_s.") + kFtls[f].tag,
           Ratio(requests, static_cast<double>(ns) * 1e-9), "req/s");
  }
  m->Add("setup_s", Median(setups), "s");
  m->Add("peak_rss_mib", PeakRssMib(), "MiB");
  for (size_t f = 0; f < kFtlCount; ++f) {
    std::vector<double> service_us;
    AtStats pooled;
    for (const Replica& replica : replicas) {
      service_us.insert(service_us.end(), replica.service_us[f].begin(),
                        replica.service_us[f].end());
      Accumulate(replica.stats[f], &pooled);
    }
    double sum = 0.0;
    for (const double us : service_us) {
      sum += us;
    }
    const std::string tag = kFtls[f].tag;
    m->Add("sim_mean_response_us." + tag, Ratio(sum, static_cast<double>(service_us.size())),
           "us");
    m->Add("sim_p99_tail_mean_us." + tag, TailMean(std::move(service_us), 0.99), "us");
    m->Add("write_amplification." + tag, pooled.write_amplification(), "ratio");
    m->Add("hit_ratio." + tag, pooled.hit_ratio(), "ratio");
  }
}

// Host-time classes of the traced run, outermost layer first: a request
// that evicted from the write buffer, else one that ran GC, else one that
// missed the mapping cache, else a hit.
enum Class : uint8_t { kWbufEvict = 0, kGc, kMiss, kHit, kClassCount };
constexpr const char* kClassNames[kClassCount] = {"wbuf_evict", "gc", "miss", "hit"};

struct Span {
  uint64_t start_ns;
  uint64_t dur_ns;
  uint64_t index;
  uint8_t cls;
};

struct TracedTally {
  uint64_t entry_ns = 0;
  uint64_t first_ns = 0;
  uint64_t last_ns = 0;
  uint64_t class_ns[kClassCount] = {};
  uint64_t class_count[kClassCount] = {};
  obs::LatencyHistogram host_ns;
  std::vector<Span> spans;
  std::vector<uint64_t> streams_at_start;
  std::vector<uint64_t> streams_at_end;
  WriteBufferStats wbuf;  // Measured-window buffer counters.
  uint64_t pages_per_block = 0;
};

constexpr size_t kSpanCap = 50'000;

void WriteSpans(const std::string& path, const std::vector<TracedTally>& per_ftl) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (size_t f = 0; f < per_ftl.size(); ++f) {
    out << (first ? "" : ",") << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << f
        << ",\"args\":{\"name\":\"" << kFtls[f].tag << "\"}}";
    first = false;
    const std::vector<Span>& spans = per_ftl[f].spans;
    const uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    for (const Span& s : spans) {
      out << ",{\"name\":\"" << kClassNames[s.cls] << "_req\",\"ph\":\"X\",\"pid\":" << f
          << ",\"tid\":0,\"ts\":" << static_cast<double>(s.start_ns - origin) * 1e-3
          << ",\"dur\":" << static_cast<double>(s.dur_ns) * 1e-3 << ",\"args\":{\"req\":"
          << s.index << "}}";
    }
  }
  out << "]}\n";
}

// One traced FTL pass: trace_phases on, and an observer that timestamps each
// measured request and classifies it by its counter deltas.
TracedTally TracedRun(Workload& workload, const FtlUnderTest& ftl, std::optional<Shadow>* shadow,
                      CheckTally* tally, DriverResult* result) {
  const uint64_t n = workload.measured();
  TracedTally t;
  t.spans.reserve(kSpanCap);
  uint64_t prev_ns = 0;
  uint64_t prev_evict = 0;
  uint64_t prev_gc = 0;
  uint64_t prev_misses = 0;
  bool checked = false;
  t.entry_ns = NowNs();
  *result = workload.Drive(
      ftl.kind, /*trace_phases=*/true, [&](const Ssd& ssd, uint64_t index) {
        const uint64_t now = NowNs();
        const WriteBufferStats& wb = ssd.write_buffer().stats();
        const AtStats& at = ssd.ftl().stats();
        const FlashStats& fl = ssd.flash().stats();
        const uint64_t evict = wb.flushes + wb.clean_drops;
        const uint64_t gc = at.gc_data_blocks + at.gc_trans_blocks + fl.block_erases;
        if (index == 1) {
          t.first_ns = now;
          t.streams_at_start = ssd.ftl().stream_write_counts();
        } else {
          const uint64_t dur = now - prev_ns;
          const Class cls = evict > prev_evict        ? kWbufEvict
                            : gc > prev_gc            ? kGc
                            : at.misses > prev_misses ? kMiss
                                                      : kHit;
          t.class_ns[cls] += dur;
          ++t.class_count[cls];
          t.host_ns.Add(static_cast<double>(dur));
          if (t.spans.size() < kSpanCap) {
            t.spans.push_back(Span{prev_ns, dur, index, cls});
          }
        }
        prev_ns = now;
        prev_evict = evict;
        prev_gc = gc;
        prev_misses = at.misses;
        if (index == n) {
          t.last_ns = now;
          t.streams_at_end = ssd.ftl().stream_write_counts();
          t.wbuf = wb;
          t.pages_per_block = ssd.geometry().pages_per_block;
          CheckAtEnd(ssd, workload, shadow, tally, ftl.tag);
          checked = true;
        }
      });
  tally->attempted += result->offered;
  tally->failed += result->dropped;
  if (!checked) {
    ++tally->failed;
    tally->notes.push_back(std::string(ftl.tag) + ": traced window ended early, output not checked");
  }
  return t;
}

// The traced run on replica 0. Untraced and traced passes alternate
// kOverheadReps times per FTL; trace_overhead compares the fastest of each,
// and the per-layer metrics come from the first traced pass.
void PerLayer(Workload& workload, uint64_t seed, const std::string& spans_path, Metrics* m,
              CheckTally* tally) {
  constexpr size_t kFtlCount = std::size(kFtls);
  const uint64_t gen_start = NowNs();
  const uint64_t generated = workload.Generate(ReplicaSeed(seed, 0));
  const double gen_s = SecondsSince(gen_start);
  std::optional<Shadow> shadow;
  std::vector<double> untraced_s(kFtlCount, 0.0);
  std::vector<double> traced_s(kFtlCount, 0.0);
  std::vector<TracedTally> tallies(kFtlCount);
  std::vector<DriverResult> results(kFtlCount);
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    for (size_t f = 0; f < kFtlCount; ++f) {
      WindowTimer timer;
      TimedRun(workload, kFtls[f], &shadow, tally, &timer);
      DriverResult r;
      TracedTally t = TracedRun(workload, kFtls[f], &shadow, tally, &r);
      const double window_s = static_cast<double>(t.last_ns - t.first_ns) * 1e-9;
      untraced_s[f] = rep == 0 ? timer.window_s() : std::min(untraced_s[f], timer.window_s());
      traced_s[f] = rep == 0 ? window_s : std::min(traced_s[f], window_s);
      if (rep == 0) {
        tallies[f] = std::move(t);
        results[f] = std::move(r);
      }
    }
  }

  m->Add("trace.parse_ns_per_req", workload.ParseOnlyNsPerRequest(), "ns/req");
  m->Add("workload.gen_ns_per_req", Ratio(gen_s * 1e9, static_cast<double>(generated)),
         "ns/req");
  for (size_t k = 0; k < kFtlCount; ++k) {
    const std::string f = kFtls[k].tag;
    const TracedTally& t = tallies[k];
    const DriverResult& r = results[k];

    const RunReport& rep = r.report;
    const AtStats& s = rep.stats;
    const FlashStats& fl = rep.flash;
    const auto req = static_cast<double>(rep.requests);
    const auto per_req = [&](double v) { return Ratio(v, req); };
    const double window_ns = static_cast<double>(t.last_ns - t.first_ns);
    uint64_t class_total = 0;
    for (const uint64_t ns : t.class_ns) {
      class_total += ns;
    }

    m->Add("ssd.warm_s." + f, static_cast<double>(t.first_ns - t.entry_ns) * 1e-9, "s");
    m->Add("ssd.host_ns_per_req.p50." + f, t.host_ns.Quantile(0.50), "ns");
    m->Add("ssd.host_ns_per_req.p99." + f, t.host_ns.Quantile(0.99), "ns");
    for (int c = 0; c < kClassCount; ++c) {
      const std::string name = std::string(kClassNames[c]) + "_req." + f;
      m->Add("ssd.host_ns." + name, Ratio(t.class_ns[c], t.class_count[c]), "ns");
      m->Add("ssd.host_share." + name, Ratio(t.class_ns[c], class_total), "ratio");
    }
    m->Add("ftl.lookups_per_req." + f, per_req(static_cast<double>(s.lookups)), "count/req");
    m->Add("ftl.evictions_per_req." + f, per_req(static_cast<double>(s.evictions)), "count/req");
    m->Add("ftl.trans_reads_per_req." + f, per_req(static_cast<double>(s.trans_reads_total())),
           "count/req");
    m->Add("ftl.trans_writes_per_req." + f,
           per_req(static_cast<double>(s.trans_writes_total())), "count/req");
    m->Add("ftl.prd." + f, rep.prd, "ratio");
    const uint64_t victims = s.gc_data_blocks + s.gc_trans_blocks;
    const uint64_t migrations = s.gc_data_migrations + s.gc_trans_migrations;
    const uint64_t victim_pages = victims * t.pages_per_block;
    m->Add("gc.victims_per_kreq." + f, per_req(static_cast<double>(victims)) * 1e3,
           "count/kreq");
    m->Add("gc.migrations_per_victim." + f, Ratio(migrations, victims), "count");
    m->Add("gc.reclaim_efficiency." + f,
           Ratio(static_cast<double>(victim_pages) - static_cast<double>(migrations),
                 static_cast<double>(victim_pages)),
           "ratio");
    // Write-buffer hit ratio over the host page accesses (reads + writes)
    // the tenant lanes counted; the buffer only runs on tenant_serve.
    uint64_t host_pages = 0;
    for (const TenantServingStats& ts : r.tenants) {
      host_pages += ts.pages_read + ts.pages_written;
    }
    m->Add("wbuf.hit_ratio." + f, Ratio(t.wbuf.read_hits + t.wbuf.write_hits, host_pages),
           "ratio");
    m->Add("wbuf.flushes_per_req." + f, per_req(static_cast<double>(t.wbuf.flushes)),
           "count/req");
    uint64_t hot = 0;
    uint64_t all = 0;
    for (size_t i = 0; i < t.streams_at_end.size(); ++i) {
      const uint64_t d = t.streams_at_end[i] - t.streams_at_start[i];
      hot += i == 0 ? d : 0;
      all += d;
    }
    m->Add("heat.hot_write_share." + f, Ratio(hot, all), "ratio");
    const char* tenant_tags[] = {"ycsb", "stream", "aging"};
    for (size_t i = 0; i < 3; ++i) {
      m->Add(std::string("tenant.") + tenant_tags[i] + ".p99_us." + f,
             i < r.tenants.size() ? r.tenants[i].p99_response_us : 0.0, "us");
    }
    m->Add("ssd.dropped_share." + f, Ratio(r.dropped, r.offered), "ratio");
    m->Add("flash.reads_per_req." + f, per_req(static_cast<double>(fl.page_reads)), "count/req");
    m->Add("flash.programs_per_req." + f, per_req(static_cast<double>(fl.page_writes)),
           "count/req");
    m->Add("flash.erases_per_kreq." + f, per_req(static_cast<double>(fl.block_erases)) * 1e3,
           "count/kreq");
    m->Add("flash.host_ns_per_op." + f,
           Ratio(window_ns,
                 static_cast<double>(fl.page_reads + fl.page_writes + fl.block_erases)),
           "ns/op");
    const obs::PhaseTimes& ph = rep.phases;
    m->Add("sim.queue_us_per_req." + f, per_req(rep.queue_us_total), "us/req");
    m->Add("sim.translation_us_per_req." + f, per_req(ph.PhaseUs(obs::Phase::kTranslation)),
           "us/req");
    m->Add("sim.user_us_per_req." + f, per_req(ph.PhaseUs(obs::Phase::kUser)), "us/req");
    m->Add("sim.gc_us_per_req." + f, per_req(ph.PhaseUs(obs::Phase::kGc)), "us/req");
    m->Add("sim.flush_us_per_req." + f, per_req(ph.PhaseUs(obs::Phase::kFlush)), "us/req");
    m->Add("sim.phase_sum_check." + f,
           Ratio(rep.queue_us_total + ph.ServiceUs(), rep.response_total_us), "ratio");
  }
  double untraced_total = 0.0;
  double traced_total = 0.0;
  for (size_t i = 0; i < kFtlCount; ++i) {
    untraced_total += untraced_s[i];
    traced_total += traced_s[i];
  }
  // Traced rate / untraced rate over the same requests.
  m->Add("trace_overhead", Ratio(untraced_total, traced_total), "ratio");
  WriteSpans(spans_path, tallies);
}

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::stoull(value);
    } else if (key == "--seconds") {
      seconds = std::stod(value);
    } else if (key == "--trace") {
      trace = value == "1";
    } else if (key == "--work-dir") {
      work_dir = value;
    } else {
      std::cerr << "unknown argument " << key << "\n";
      return 2;
    }
  }

  const double window_s = seconds / (2.0 * kRounds);
  WorkloadFactory make;
  if (workload_name == "gc_heavy") {
    make = [&](int) { return std::make_unique<GcHeavy>(window_s); };
  } else if (workload_name == "read_miss_trace") {
    make = [&](int replica) {
      return std::make_unique<ReadMissTrace>(window_s, work_dir, replica);
    };
  } else if (workload_name == "tenant_serve") {
    make = [&](int) { return std::make_unique<TenantServe>(window_s); };
  } else {
    std::cerr << "unknown workload '" << workload_name << "'\n";
    return 2;
  }

  CheckTally tally;
  for (const FtlUnderTest& ftl : kFtls) {
    ++tally.attempted;
    if (!SabotageIsDetected(ftl.kind, seed)) {
      ++tally.failed;
      tally.notes.push_back(std::string(ftl.tag) + ": planted lost mapping not detected");
    }
  }

  Metrics metrics;
  const std::unique_ptr<Workload> described = make(0);
  if (trace) {
    PerLayer(*described, seed, work_dir + "/" + workload_name + ".spans.json", &metrics, &tally);
  } else {
    EndToEnd(make, seed, &metrics, &tally);
  }

  std::ostringstream os;
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.entries.size(); ++i) {
    const auto& [name, vu] = metrics.entries[i];
    os << (i > 0 ? ", " : "") << JsonString(name) << ": {\"value\": " << Num(vu.first)
       << ", \"unit\": " << JsonString(vu.second) << "}";
  }
  os << "}, \"details\": {\"build_type\": " << JsonString(PB_BUILD_TYPE)
     << ", \"cxx_flags\": " << JsonString(PB_CXX_FLAGS)
     << ", \"compiler\": " << JsonString(PB_COMPILER)
     << ", \"rounds\": " << (trace ? kOverheadReps : kRounds)
     << ", \"replicas\": " << (trace ? 1 : described->replicas());
  for (const auto& [key, value] : described->Describe()) {
    os << ", " << JsonString(key) << ": " << Num(value);
  }
  os << ", \"notes\": [";
  for (size_t i = 0; i < tally.notes.size(); ++i) {
    os << (i > 0 ? ", " : "") << JsonString(tally.notes[i]);
  }
  os << "]}}";
  std::cout << os.str() << std::endl;
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tpftl::perfbench

int main(int argc, char** argv) { return tpftl::perfbench::Main(argc, argv); }
