// Fixed-work end-to-end benchmark of the SDX controller (core::SdxRuntime).
//
// One process runs one named workload from a seed. Every workload runs the
// same five phases with a fixed, seeded number of operations each (never a
// time box), so counts repeat exactly and timings are medians over many
// operations:
//
//   1. set-up          register participants, bulk-load the RIB, install
//                      policies, first FullCompile (median of repeats)
//   2. settled table   from-scratch FullCompiles; forwarding of a seeded
//                      probe set through InjectFromParticipantBatch
//   3. update replay   a GenerateFor stream fixed per workload, one update
//                      per ApplyUpdates
//   4. burst replay    background FullCompile, 100 bursts of a second
//                      stream, background FullCompile
//   5. policy edits    Set*Policy + FullCompile pairs (remove one clause,
//                      then restore it), cycling over policy holders
//
// Phases 3-5 are closed loops. Outputs are checked independently:
// route-server best routes against a decision process written out here,
// probe conservation against DropCounts(), the §4.1 BGP-consistency
// property on every delivered probe, and, after every background compile,
// packet-for-packet equivalence with a second runtime loaded with the same
// final state and compiled once, sequentially, from scratch.
//
// --trace 1 runs the same work with spans recorded around every call into
// a layer (plus the stage spans FullCompile/ApplyUpdates return) and
// reports per-layer metrics instead of the end-to-end ones.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bgp/update.h"
#include "net/prefix_trie.h"
#include "obs/drop_reason.h"
#include "sdx/runtime.h"
#include "workload/policy_gen.h"
#include "workload/seed.h"
#include "workload/topology_gen.h"
#include "workload/traffic_gen.h"
#include "workload/update_gen.h"

using namespace sdx;

namespace {

using Clock = std::chrono::steady_clock;
using bgp::AsNumber;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads

// The scenario and the phase-3 update stream are fixed per workload (the
// settled table and the churned one are properties of the workload, so
// flow_rules and churn_rules repeat exactly on every seed); --seed drives
// the burst stream, probes, edits and check samples.
struct WorkloadSpec {
  const char* name;
  int prefixes;
  std::uint64_t scenario_seed;  // topology; policies use scenario_seed + 1,
                                // the phase-3 stream a lane of it
  double policy_scale;          // multiplies the §6.1 policy fractions
  int edit_cycles;              // phase 5 passes over every policy holder
};

constexpr WorkloadSpec kWorkloads[] = {
    {"policy_edits", 2000, 2300, 2.0, 1},
    {"rib_scale", 6000, 6300, 1.0, 2},
};

// Shared by both workloads.
constexpr int kParticipants = 300;
constexpr int kCoverageFanout = 150;   // top transit's peering clauses
constexpr int kSetups = 5;             // phase 1; setup_s is their median
constexpr int kFullCompiles = 20;      // phase 2 from-scratch compiles
constexpr std::size_t kProbes = 20000;  // phase 2 probe set
constexpr int kPassesPerCompile = 3;   // phase 2 timed passes per compile
constexpr int kUpdates = 1000;         // phase 3 single updates

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// Seed lanes (workload::DeriveSeed). kLaneUpdates derives from the
// scenario seed; the others from --seed.
enum Lane : std::uint64_t {
  kLaneUpdates = 1,
  kLaneBursts = 2,
  kLaneProbes = 3,
  kLaneEdits = 4,
  kLaneReceivers = 5,
  kLaneEquivalence = 6,
};

constexpr int kCompileThreads = 2;           // pinned pool, below nproc
constexpr std::size_t kCheckReceivers = 48;  // check (a) receiver sample
constexpr std::size_t kEquivalenceProbes = 3000;
constexpr std::uint32_t kProbeBytes = 64;    // smallest packet size

// ---------------------------------------------------------------------------
// Small statistics helpers

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size = 0, resident = 0;
  const int read = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Spans (traced mode only). Benchmark spans carry real start/end times;
// runtime stage spans (which report durations only) are laid out
// sequentially under the benchmark span that returned them.

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the run started
  double end = 0.0;
  long parent = -1;
  bool runtime_stage = false;
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  long Begin(std::string name) {
    if (!enabled_) return -1;
    Span span;
    span.name = std::move(name);
    span.start = Now();
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<long>(spans_.size() - 1));
    return open_.back();
  }

  void End(long index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = Now();
    while (!open_.empty()) {
      const long top = open_.back();
      open_.pop_back();
      if (top == index) break;
    }
  }

  // Appends the runtime's pre-order stage spans under `parent`.
  void AddStages(long parent, const std::vector<obs::SpanRecord>& stages) {
    if (parent < 0) return;
    std::vector<long> ids(stages.size(), -1);
    std::map<long, double> cursor;  // next free start per parent span
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const obs::SpanRecord& stage = stages[i];
      const long owner = stage.parent == obs::SpanRecord::kNoParent
                             ? parent
                             : ids[stage.parent];
      auto [it, inserted] = cursor.try_emplace(
          owner, spans_[static_cast<std::size_t>(owner)].start);
      Span span;
      span.name = stage.name;
      span.start = it->second;
      span.end = span.start + stage.seconds;
      span.parent = owner;
      span.runtime_stage = true;
      it->second = span.end;
      spans_.push_back(std::move(span));
      ids[i] = static_cast<long>(spans_.size() - 1);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per span name: duration minus the time its children cover.
  std::map<std::string, std::pair<double, std::size_t>> SelfTimes() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child[static_cast<std::size_t>(span.parent)] += span.end - span.start;
      }
    }
    std::map<std::string, std::pair<double, std::size_t>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& [seconds, count] = out[spans_[i].name];
      seconds += std::max(0.0, spans_[i].end - spans_[i].start - child[i]);
      ++count;
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start\":" << s.start << ",\"end\":" << s.end
          << ",\"parent\":" << s.parent
          << ",\"runtime_stage\":" << (s.runtime_stage ? "true" : "false")
          << "}\n";
    }
    for (const auto& [name, self] : SelfTimes()) {
      out << "{\"self_time\":\"" << name << "\",\"seconds\":" << self.first
          << ",\"spans\":" << self.second << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  double Now() const { return SecondsSince(origin_); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<long> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, std::string name)
      : trace_(trace), index_(trace.Begin(std::move(name))) {}
  ~ScopedSpan() { trace_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  long index() const { return index_; }

 private:
  Trace& trace_;
  long index_;
};

// Sum of the stage spans named `name` (any depth).
double StageSeconds(const std::vector<obs::SpanRecord>& stages,
                    const std::string& name) {
  double sum = 0.0;
  for (const obs::SpanRecord& stage : stages) {
    if (stage.name == name) sum += stage.seconds;
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Pinned program options

core::RuntimeOptions PinnedOptions() {
  core::RuntimeOptions options;
  options.compile.parallel = true;
  options.compile.incremental = true;
  options.compile.threads = kCompileThreads;
  options.decision.parallel = false;
  options.decision.shards = 1;
  options.batch_window = 0;
  options.backend = dataplane::FlowTable::Backend::kCompiled;
  options.vmac_encoding = core::VmacEncoding::kLegacy;
  return options;
}

obs::TelemetryOptions PinnedTelemetry() {
  obs::TelemetryOptions telemetry;
  telemetry.journal.enabled = true;
  telemetry.journal.capacity = obs::Journal::kDefaultCapacity;
  telemetry.flow.enabled = false;
  telemetry.flow.options = obs::FlowRecorder::Options{};
  telemetry.convergence.enabled = false;
  telemetry.convergence.max_pending = std::size_t{1} << 16;
  telemetry.timeseries.enabled = false;
  telemetry.timeseries.interval_seconds = 0.05;
  telemetry.timeseries.capacity = obs::TimeSeries::kDefaultCapacity;
  return telemetry;
}

const char* EncodingName(core::VmacEncoding encoding) {
  switch (encoding) {
    case core::VmacEncoding::kAuto: return "auto";
    case core::VmacEncoding::kLegacy: return "legacy";
    case core::VmacEncoding::kEncoded: return "encoded";
  }
  return "?";
}

std::string DescribeOptions(core::SdxRuntime& runtime) {
  const core::RuntimeOptions o = runtime.runtime_options();
  const obs::TelemetryOptions& t = runtime.telemetry_options();
  std::ostringstream line;
  line << "options: compile.parallel=" << o.compile.parallel
       << " compile.incremental=" << o.compile.incremental
       << " compile.threads=" << o.compile.threads
       << " decision.parallel=" << o.decision.parallel
       << " decision.shards=" << o.decision.shards
       << " batch_window=" << o.batch_window << " backend="
       << (o.backend == dataplane::FlowTable::Backend::kCompiled ? "compiled"
                                                                 : "linear")
       << " vmac_encoding=" << EncodingName(o.vmac_encoding)
       << " resolved_encoding=" << EncodingName(runtime.ResolvedVmacEncoding())
       << " encoded_active=" << runtime.encoded_vmacs_active()
       << " | telemetry: journal=" << t.journal.enabled << "/"
       << t.journal.capacity << " flow=" << t.flow.enabled
       << " convergence=" << t.convergence.enabled
       << " timeseries=" << t.timeseries.enabled;
  return line.str();
}

// ---------------------------------------------------------------------------
// Inputs and the benchmark's own model of the control plane

struct Inputs {
  workload::IxpScenario scenario;
  workload::GeneratedPolicies policies;
};

Inputs MakeInputs(const WorkloadSpec& spec) {
  workload::TopologyParams topo;
  topo.participants = kParticipants;
  topo.total_prefixes = spec.prefixes;
  topo.seed = spec.scenario_seed;
  Inputs inputs;
  inputs.scenario = workload::TopologyGenerator(topo).Generate();
  workload::PolicyParams params;
  params.seed = spec.scenario_seed + 1;
  params.content_fraction =
      std::min(1.0, params.content_fraction * spec.policy_scale);
  params.transit_top_fraction =
      std::min(1.0, params.transit_top_fraction * spec.policy_scale);
  params.eyeball_top_fraction =
      std::min(1.0, params.eyeball_top_fraction * spec.policy_scale);
  params.coverage_fanout = kCoverageFanout;
  inputs.policies = workload::PolicyGenerator(params).Generate(inputs.scenario);
  return inputs;
}

// The AS path the set-up announces for `member`'s prefix (a short path
// ending in a synthetic origin, as workload::Install does).
std::vector<AsNumber> InitialPath(AsNumber as, const net::IPv4Prefix& prefix) {
  return {as, static_cast<AsNumber>(64500 +
                                    (prefix.network().value() >> 8) % 500)};
}

// What the benchmark announced: prefix -> announcer -> route attributes.
struct AnnouncedRoute {
  std::vector<AsNumber> as_path;
  std::uint32_t local_pref = 100;
  std::uint32_t med = 0;
  bgp::Origin origin = bgp::Origin::kIgp;
};
using RibModel = std::map<net::IPv4Prefix, std::map<AsNumber, AnnouncedRoute>>;

RibModel InitialModel(const workload::IxpScenario& scenario) {
  RibModel model;
  for (const workload::Member& member : scenario.members) {
    for (const net::IPv4Prefix& prefix : member.announced) {
      model[prefix][member.as].as_path = InitialPath(member.as, prefix);
    }
  }
  return model;
}

void ApplyToModel(RibModel& model, const bgp::BgpUpdate& update) {
  if (const auto* a = std::get_if<bgp::Announcement>(&update)) {
    AnnouncedRoute& route = model[a->route.prefix][a->from_as];
    route.as_path = a->route.as_path;
    route.local_pref = a->route.local_pref;
    route.med = a->route.med;
    route.origin = a->route.origin;
  } else {
    const auto& w = std::get<bgp::Withdrawal>(update);
    auto it = model.find(w.prefix);
    if (it == model.end()) return;
    it->second.erase(w.from_as);
    if (it->second.empty()) model.erase(it);
  }
}

// The decision process, written out independently of bgp/decision.cc:
// local-pref, AS-path length, origin, MED, peer router id; the receiver's
// own announcement and paths through the receiver are excluded.
std::optional<std::pair<AsNumber, const AnnouncedRoute*>> ExpectedBest(
    const RibModel& model, const std::map<AsNumber, net::IPv4Address>& ids,
    AsNumber receiver, const net::IPv4Prefix& prefix) {
  auto it = model.find(prefix);
  if (it == model.end()) return std::nullopt;
  std::optional<std::pair<AsNumber, const AnnouncedRoute*>> best;
  for (const auto& [announcer, route] : it->second) {
    if (announcer == receiver) continue;
    if (std::find(route.as_path.begin(), route.as_path.end(), receiver) !=
        route.as_path.end()) {
      continue;
    }
    if (!best) {
      best.emplace(announcer, &route);
      continue;
    }
    const AnnouncedRoute& b = *best->second;
    bool better = false;
    if (route.local_pref != b.local_pref) {
      better = route.local_pref > b.local_pref;
    } else if (route.as_path.size() != b.as_path.size()) {
      better = route.as_path.size() < b.as_path.size();
    } else if (route.origin != b.origin) {
      better = route.origin < b.origin;
    } else if (route.med != b.med) {
      better = route.med < b.med;
    } else {
      better = ids.at(announcer) < ids.at(best->first);
    }
    if (better) best.emplace(announcer, &route);
  }
  return best;
}

bool MatchesExpected(const bgp::BgpRoute* actual,
                     const std::optional<std::pair<AsNumber,
                                                   const AnnouncedRoute*>>&
                         expected) {
  if (actual == nullptr || !expected) return actual == nullptr && !expected;
  const AnnouncedRoute& e = *expected->second;
  return actual->peer_as == expected->first && actual->as_path == e.as_path &&
         actual->local_pref == e.local_pref && actual->med == e.med &&
         actual->origin == e.origin;
}

// ---------------------------------------------------------------------------
// Operation accounting: every timed operation gets an id; a failed check
// marks the operation it belongs to.

class Ledger {
 public:
  std::size_t Add() { return attempted_++; }
  void Fail(std::size_t op, const std::string& why) {
    if (failed_.insert(op).second && failed_.size() <= 10) {
      std::fprintf(stderr, "check failed (op %zu): %s\n", op, why.c_str());
    }
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_.size(); }

 private:
  std::size_t attempted_ = 0;
  std::set<std::size_t> failed_;
};

// ---------------------------------------------------------------------------
// Set-up

struct SetupResult {
  double seconds = 0.0;
  double load_seconds = 0.0;
  double load_rss_mb = 0.0;
  double compile_rss_mb = 0.0;
  core::CompileStats compile;
};

SetupResult SetUp(core::SdxRuntime& runtime, const Inputs& inputs,
                  Trace& trace) {
  SetupResult result;
  runtime.Configure(PinnedOptions());
  runtime.ConfigureTelemetry(PinnedTelemetry());
  ScopedSpan root(trace, "setup");
  const auto start = Clock::now();
  {
    ScopedSpan span(trace, "core.add_participants");
    for (const workload::Member& member : inputs.scenario.members) {
      runtime.AddParticipant(member.as, member.ports);
    }
  }
  {
    ScopedSpan span(trace, "rs.load");
    const double rss_before = trace.enabled() ? RssMb() : 0.0;
    const auto load_start = Clock::now();
    runtime.route_server().BeginBulkLoad();
    for (const workload::Member& member : inputs.scenario.members) {
      for (const net::IPv4Prefix& prefix : member.announced) {
        runtime.AnnouncePrefix(member.as, prefix,
                               InitialPath(member.as, prefix));
      }
    }
    runtime.route_server().EndBulkLoad();
    result.load_seconds = SecondsSince(load_start);
    if (trace.enabled()) result.load_rss_mb = RssMb() - rss_before;
  }
  {
    ScopedSpan span(trace, "core.set_policies");
    for (const auto& [as, clauses] : inputs.policies.outbound) {
      runtime.SetOutboundPolicy(as, clauses);
    }
    for (const auto& [as, clauses] : inputs.policies.inbound) {
      runtime.SetInboundPolicy(as, clauses);
    }
  }
  {
    ScopedSpan span(trace, "core.full_compile");
    const double rss_before = trace.enabled() ? RssMb() : 0.0;
    result.compile = runtime.FullCompile();
    if (trace.enabled()) result.compile_rss_mb = RssMb() - rss_before;
    trace.AddStages(span.index(), result.compile.stages);
  }
  result.seconds = SecondsSince(start);
  return result;
}

// A job run in a forked child. The constructor forks at once, so the child
// is a copy of this process as it is at that moment; the child then waits
// until Finish() tells it to run `fn`, and Finish() returns the bytes `fn`
// produced, or nullopt when the child failed. The child leaves with _exit,
// so it neither tears down the (possibly large) state it inherited nor
// flushes inherited stdio buffers, and this process's peak RSS never
// includes the child's allocations.
class ForkedJob {
 public:
  template <typename Fn>
  explicit ForkedJob(Fn&& fn) {
    std::fflush(stdout);
    std::fflush(stderr);
    int go[2];
    int out[2];
    if (pipe(go) != 0) return;
    if (pipe(out) != 0) {
      close(go[0]);
      close(go[1]);
      return;
    }
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ == 0) {
      // Later children inherit this job's go pipe, so EOF alone cannot
      // release a child whose parent died; the kernel kills it instead.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(0);
      close(go[1]);
      close(out[0]);
      char byte = 0;
      if (read(go[0], &byte, 1) != 1) _exit(0);  // never released
      int code = 0;
      try {
        const std::string result = fn();
        std::size_t done = 0;
        while (done < result.size()) {
          const ssize_t n =
              write(out[1], result.data() + done, result.size() - done);
          if (n <= 0) break;
          done += static_cast<std::size_t>(n);
        }
        if (done != result.size()) code = 2;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "child failed: %s\n", e.what());
        code = 1;
      }
      _exit(code);
    }
    close(go[0]);
    close(out[1]);
    if (pid_ < 0) {
      close(go[1]);
      close(out[0]);
      return;
    }
    go_fd_ = go[1];
    out_fd_ = out[0];
  }

  ForkedJob(const ForkedJob&) = delete;
  ForkedJob& operator=(const ForkedJob&) = delete;

  // A job never finished (the run unwound early) is killed: its go pipe's
  // write end may also be open in later children, so it would never see
  // EOF.
  ~ForkedJob() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      Reap();
    }
  }

  std::optional<std::string> Finish() {
    if (pid_ <= 0) return std::nullopt;
    const char byte = 1;
    const bool started = write(go_fd_, &byte, 1) == 1;
    close(go_fd_);
    go_fd_ = -1;
    std::string result;
    char buffer[4096];
    for (;;) {
      const ssize_t n = read(out_fd_, buffer, sizeof buffer);
      if (n <= 0) break;
      result.append(buffer, static_cast<std::size_t>(n));
    }
    const bool ok = Reap() && started;
    if (!ok) return std::nullopt;
    return result;
  }

 private:
  // Closes the pipes and waits for the child; true when it exited 0.
  bool Reap() {
    if (go_fd_ >= 0) close(go_fd_);
    if (out_fd_ >= 0) close(out_fd_);
    go_fd_ = out_fd_ = -1;
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  pid_t pid_ = -1;
  int go_fd_ = -1;
  int out_fd_ = -1;
};

// ---------------------------------------------------------------------------
// Forwarding probes and the per-pass checks (b) and (c)

struct ProbeSet {
  std::vector<AsNumber> senders;               // one batch per sender
  std::vector<std::vector<net::Packet>> batches;
  std::size_t total = 0;
};

ProbeSet MakeProbes(const workload::IxpScenario& scenario, std::uint64_t seed,
                    std::size_t count) {
  workload::PacketSampler sampler(scenario, seed);
  std::map<AsNumber, std::vector<net::Packet>> by_sender;
  for (const workload::SampledPacket& sample : sampler.Sample(count)) {
    net::Packet packet;
    packet.header = sample.header;
    packet.size_bytes = kProbeBytes;
    by_sender[sample.from].push_back(packet);
  }
  ProbeSet probes;
  for (auto& [as, packets] : by_sender) {
    probes.senders.push_back(as);
    probes.total += packets.size();
    probes.batches.push_back(std::move(packets));
  }
  return probes;
}

class Checker {
 public:
  Checker(const workload::IxpScenario& scenario, const RibModel* model,
          std::map<AsNumber, net::IPv4Address> router_ids)
      : model_(model), router_ids_(std::move(router_ids)) {
    for (const net::IPv4Prefix& prefix : scenario.prefixes) {
      prefixes_.Insert(prefix, prefix);
    }
    for (const workload::Member& member : scenario.members) {
      members_.push_back(member.as);
    }
  }

  const std::vector<AsNumber>& members() const { return members_; }

  std::optional<net::IPv4Prefix> Covering(net::IPv4Address dst) const {
    auto match = prefixes_.LongestMatch(dst);
    if (!match) return std::nullopt;
    return *match->second;
  }

  // (b) conservation and (c) BGP consistency for one forwarding pass.
  // Returns an empty string when both hold.
  std::string CheckPass(
      core::SdxRuntime& runtime, const ProbeSet& probes,
      const std::vector<std::vector<dataplane::Emission>>& emissions,
      const obs::DropCounters& before, const obs::DropCounters& after) const {
    std::uint64_t emitted = 0;
    for (const auto& out : emissions) emitted += out.size();
    std::uint64_t dropped = 0;
    for (obs::DropReason reason : obs::kAllDropReasons) {
      dropped += after.count(reason) - before.count(reason);
    }
    if (emitted + dropped != probes.total) {
      return "conservation: " + std::to_string(probes.total) +
             " probes != " + std::to_string(emitted) + " emissions + " +
             std::to_string(dropped) + " drops";
    }
    std::uint64_t expect_no_route = 0;
    for (std::size_t i = 0; i < probes.senders.size(); ++i) {
      const AsNumber sender = probes.senders[i];
      for (const net::Packet& packet : probes.batches[i]) {
        const auto prefix = Covering(packet.header.dst_ip);
        if (!prefix ||
            runtime.route_server().BestRoute(sender, *prefix) == nullptr) {
          ++expect_no_route;
        }
      }
      for (const dataplane::Emission& emission : emissions[i]) {
        const auto prefix = Covering(emission.packet.header.dst_ip);
        const core::PhysicalPort* port =
            runtime.topology().FindPhysicalPort(emission.out_port);
        if (!prefix || port == nullptr ||
            !runtime.route_server().ExportsTo(port->owner, sender, *prefix)) {
          std::ostringstream why;
          why << "consistency: AS" << sender << " -> "
              << emission.packet.header.dst_ip << " left on port "
              << emission.out_port << " owned by AS"
              << (port ? port->owner : 0) << " which exports no route";
          return why.str();
        }
      }
    }
    const std::uint64_t no_route =
        after.count(obs::DropReason::kNoFibRoute) -
        before.count(obs::DropReason::kNoFibRoute);
    if (no_route != expect_no_route) {
      return "no_fib_route: counted " + std::to_string(no_route) +
             ", expected " + std::to_string(expect_no_route);
    }
    return {};
  }

  // (a) For every prefix in `touched` and every receiver in `receivers`,
  // the route server's best route equals the recomputed one. Returns the
  // prefixes that differ.
  std::vector<net::IPv4Prefix> CheckBestRoutes(
      core::SdxRuntime& runtime, const std::set<net::IPv4Prefix>& touched,
      const std::vector<AsNumber>& receivers) const {
    std::vector<net::IPv4Prefix> wrong;
    for (const net::IPv4Prefix& prefix : touched) {
      for (AsNumber receiver : receivers) {
        const bgp::BgpRoute* actual =
            runtime.route_server().BestRoute(receiver, prefix);
        if (!MatchesExpected(actual, ExpectedBest(*model_, router_ids_,
                                                  receiver, prefix))) {
          wrong.push_back(prefix);
          break;
        }
      }
    }
    return wrong;
  }

 private:
  const RibModel* model_;
  std::map<AsNumber, net::IPv4Address> router_ids_;
  net::PrefixMap<net::IPv4Prefix> prefixes_;
  std::vector<AsNumber> members_;
};

// ---------------------------------------------------------------------------
// From-scratch equivalence

// One probe's observable outcome: sorted emission descriptions plus the
// per-reason drop delta.
struct Observation {
  std::vector<std::string> emissions;
  std::array<std::uint64_t, obs::kDropReasonCount> drops{};
  friend bool operator==(const Observation&, const Observation&) = default;
};

std::vector<Observation> Observe(
    core::SdxRuntime& runtime,
    const std::vector<workload::SampledPacket>& probes) {
  std::vector<Observation> out;
  out.reserve(probes.size());
  for (const workload::SampledPacket& sample : probes) {
    net::Packet packet;
    packet.header = sample.header;
    packet.size_bytes = kProbeBytes;
    const obs::DropCounters before = runtime.DropCounts();
    auto emissions = runtime.InjectFromParticipantBatch(
        sample.from, std::span<const net::Packet>(&packet, 1));
    const obs::DropCounters after = runtime.DropCounts();
    Observation observation;
    for (const dataplane::Emission& emission : emissions) {
      observation.emissions.push_back(
          std::to_string(emission.out_port) + " " +
          emission.packet.header.ToString());
    }
    std::sort(observation.emissions.begin(), observation.emissions.end());
    for (std::size_t r = 0; r < obs::kDropReasonCount; ++r) {
      observation.drops[r] = after.count(obs::kAllDropReasons[r]) -
                             before.count(obs::kAllDropReasons[r]);
    }
    out.push_back(std::move(observation));
  }
  return out;
}

struct PolicyState {
  std::map<AsNumber, std::vector<core::OutboundClause>> outbound;
  std::map<AsNumber, std::vector<core::InboundClause>> inbound;
};

// Loads a second runtime with the final control-plane state (participants,
// every announced route, current policies), compiles it once from scratch
// on one thread with incremental compile off, and compares it with
// `runtime` packet by packet. Returns an empty string when equivalent.
std::string CheckEquivalence(core::SdxRuntime& runtime, const Inputs& inputs,
                             const RibModel& model,
                             const PolicyState& policies, std::uint64_t seed,
                             std::size_t flow_rules) {
  if (runtime.fast_path_groups() != 0) {
    return "fast-path groups remain after a background compile";
  }
  for (const dataplane::FlowRule& rule : runtime.data_plane().table().rules()) {
    if (rule.cookie == 1) return "fast-path rule remains";
  }
  workload::PacketSampler sampler(inputs.scenario, seed);
  const std::vector<workload::SampledPacket> probes =
      sampler.Sample(kEquivalenceProbes);
  const std::vector<Observation> expected = Observe(runtime, probes);

  ForkedJob job([&]() -> std::string {
    core::SdxRuntime reference;
    core::RuntimeOptions options = PinnedOptions();
    options.compile.parallel = false;
    options.compile.incremental = false;
    options.compile.threads = 1;
    options.backend = dataplane::FlowTable::Backend::kLinear;
    reference.Configure(options);
    reference.ConfigureTelemetry(PinnedTelemetry());
    for (const workload::Member& member : inputs.scenario.members) {
      reference.AddParticipant(member.as, member.ports);
    }
    reference.route_server().BeginBulkLoad();
    for (const auto& [prefix, announcers] : model) {
      for (const auto& [as, route] : announcers) {
        if (route.local_pref != 100 || route.med != 0 ||
            route.origin != bgp::Origin::kIgp) {
          throw std::runtime_error(
              "route attributes AnnouncePrefix cannot set");
        }
        reference.AnnouncePrefix(as, prefix, route.as_path);
      }
    }
    reference.route_server().EndBulkLoad();
    for (const auto& [as, clauses] : policies.outbound) {
      reference.SetOutboundPolicy(as, clauses);
    }
    for (const auto& [as, clauses] : policies.inbound) {
      reference.SetInboundPolicy(as, clauses);
    }
    const core::CompileStats stats = reference.FullCompile();
    const std::vector<Observation> actual = Observe(reference, probes);
    std::size_t mismatches = 0;
    std::string first;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      if (actual[i] == expected[i]) continue;
      if (mismatches++ == 0) {
        std::ostringstream why;
        why << "probe " << i << " from AS" << probes[i].from << " "
            << probes[i].header.ToString() << ": runtime "
            << expected[i].emissions.size() << " emission(s) "
            << (expected[i].emissions.empty() ? ""
                                              : expected[i].emissions[0])
            << " vs reference " << actual[i].emissions.size()
            << " emission(s) "
            << (actual[i].emissions.empty() ? "" : actual[i].emissions[0]);
        first = why.str();
      }
    }
    std::ostringstream out;
    out << stats.flow_rule_count << " " << mismatches << " " << first;
    return out.str();
  });
  const auto child = job.Finish();
  if (!child) return "reference runtime failed";
  std::istringstream in(*child);
  std::size_t reference_rules = 0, mismatches = 0;
  in >> reference_rules >> mismatches;
  std::string first;
  std::getline(in, first);
  if (mismatches != 0) {
    return std::to_string(mismatches) + "/" +
           std::to_string(kEquivalenceProbes) +
           " probes differ from the from-scratch reference;" + first;
  }
  if (reference_rules != flow_rules) {
    return "flow rules " + std::to_string(flow_rules) + " != reference " +
           std::to_string(reference_rules);
  }
  return {};
}

// ---------------------------------------------------------------------------
// Metrics output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Burst selection

// Phase 4 replays the burst-size mixture the update generator draws from
// (§4.3.2): 100 bursts, 78 of 1-3 updates, 21 of 4-100 and one large
// burst. The generator draws large bursts from 101-1,000 updates; the one
// taken here must have 451-650, the middle of that class, because a large
// burst carries about a third of the phase's updates at a quarter of the
// per-update cost of the others, so its size would otherwise set
// burst_updates_per_s. Taking exactly that mix, in stream order, keeps the
// work the same shape on every seed; the seed decides which bursts.
// Returns an empty vector when the stream is too short to fill the mix.
std::vector<workload::Burst> PickBursts(const workload::UpdateStream& stream) {
  std::array<int, 3> quota = {78, 21, 1};
  std::vector<workload::Burst> out;
  for (const workload::Burst& burst : stream.bursts) {
    const std::size_t n = burst.update_count;
    const int size_class = n <= 3     ? 0
                           : n <= 100 ? 1
                           : (n > 450 && n <= 650) ? 2
                                                   : -1;
    if (size_class < 0 || quota[static_cast<std::size_t>(size_class)] == 0) {
      continue;
    }
    --quota[static_cast<std::size_t>(size_class)];
    out.push_back(burst);
  }
  if (quota != std::array<int, 3>{0, 0, 0}) return {};
  return out;
}

// ---------------------------------------------------------------------------
// The run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return args;
}

int Run(const WorkloadSpec& spec, const Args& args) {
  Trace trace(args.trace);
  Ledger ledger;
  // Wall time per phase, printed for sizing the workload table.
  std::vector<std::pair<const char*, double>> phase_wall;
  auto phase_clock = Clock::now();
  auto end_phase = [&](const char* name) {
    phase_wall.emplace_back(name, SecondsSince(phase_clock));
    phase_clock = Clock::now();
  };
  const std::uint64_t seed = args.seed;

  // --- Inputs (untimed) -----------------------------------------------------
  const Inputs inputs = MakeInputs(spec);
  RibModel model = InitialModel(inputs.scenario);
  PolicyState policies{inputs.policies.outbound, inputs.policies.inbound};

  auto stream_params = [&](int updates, std::uint64_t base,
                           std::uint64_t lane) {
    auto params = workload::UpdateStreamParams::Small(
        spec.prefixes, static_cast<std::uint64_t>(updates),
        workload::DeriveSeed(base, lane));
    params.duration_seconds = 1e12;  // never truncate by simulated time
    return params;
  };
  const workload::UpdateStream updates =
      workload::UpdateGenerator(
          stream_params(kUpdates, spec.scenario_seed, kLaneUpdates))
          .GenerateFor(inputs.scenario);
  const workload::UpdateStream burst_stream =
      workload::UpdateGenerator(stream_params(100000, seed, kLaneBursts))
          .GenerateFor(inputs.scenario);
  const std::vector<workload::Burst> bursts =
      PickBursts(burst_stream);
  if (updates.updates.size() != static_cast<std::size_t>(kUpdates) ||
      bursts.empty()) {
    std::fprintf(stderr, "update generator returned a short stream\n");
    return 2;
  }

  const ProbeSet probes = MakeProbes(
      inputs.scenario, workload::DeriveSeed(seed, kLaneProbes),
      kProbes);

  end_phase("inputs");
  // --- Phase 1: set-up ------------------------------------------------------
  // The set-up repeats are forked now, while this process is still small,
  // and released one at a time at the later phase boundaries, so the median
  // spans the whole run instead of one stretch of it. Each repeat reports
  // its set-up time and rule count.
  std::vector<std::unique_ptr<ForkedJob>> setup_jobs;
  for (int i = 0; i + 1 < kSetups; ++i) {
    setup_jobs.push_back(std::make_unique<ForkedJob>([&]() -> std::string {
      core::SdxRuntime scratch;
      Trace silent(false);
      const SetupResult r = SetUp(scratch, inputs, silent);
      return JsonNumber(r.seconds) + " " +
             std::to_string(r.compile.flow_rule_count);
    }));
  }
  std::vector<double> setup_seconds;
  std::size_t next_setup_job = 0;
  std::size_t flow_rules = 0;
  // Runs the next forked set-up repeat, if any is left.
  auto setup_repeat = [&] {
    if (next_setup_job == setup_jobs.size()) return;
    const std::size_t op = ledger.Add();
    const auto out = setup_jobs[next_setup_job++]->Finish();
    double seconds = 0.0;
    std::size_t rules = 0;
    if (out) {
      std::istringstream in(*out);
      in >> seconds >> rules;
    }
    if (!out || rules != flow_rules) {
      ledger.Fail(op, "set-up repeat failed or installed " +
                          std::to_string(rules) + " rules, the kept runtime " +
                          std::to_string(flow_rules));
      return;
    }
    setup_seconds.push_back(seconds);
  };
  auto runtime = std::make_unique<core::SdxRuntime>();
  const std::size_t setup_op = ledger.Add();
  const SetupResult setup = SetUp(*runtime, inputs, trace);
  setup_seconds.push_back(setup.seconds);
  flow_rules = setup.compile.flow_rule_count;
  if (flow_rules == 0 || runtime->data_plane().table().size() != flow_rules) {
    ledger.Fail(setup_op, "settling compile installed no rules");
  }

  std::printf("workload: %s seed=%llu participants=%d prefixes=%zu "
              "outbound_clauses=%zu inbound_clauses=%zu "
              "policy_participants=%zu trace=%d\n",
              spec.name, static_cast<unsigned long long>(seed),
              kParticipants, inputs.scenario.prefixes.size(),
              inputs.policies.outbound_clause_count(),
              inputs.policies.inbound_clause_count(),
              inputs.policies.participants_with_policies(),
              args.trace ? 1 : 0);
  std::printf("%s\n", DescribeOptions(*runtime).c_str());

  std::map<AsNumber, net::IPv4Address> router_ids;
  for (const workload::Member& member : inputs.scenario.members) {
    router_ids[member.as] = runtime->RouterIp(member.as);
  }
  const Checker checker(inputs.scenario, &model, router_ids);
  std::vector<AsNumber> receivers = checker.members();
  {
    std::mt19937_64 rng(workload::DeriveSeed(seed, kLaneReceivers));
    std::shuffle(receivers.begin(), receivers.end(), rng);
    receivers.resize(std::min(receivers.size(), kCheckReceivers));
  }

  end_phase("setup");
  // --- Phase 2: settled table -----------------------------------------------
  // From-scratch compiles alternate with forwarding passes, so both sets of
  // samples spread over the whole phase rather than one short stretch of it.
  std::vector<double> fwd_mpps;
  std::vector<std::vector<dataplane::Emission>> emissions(
      probes.senders.size());
  auto forward_pass = [&](bool timed) {
    const std::size_t op = ledger.Add();
    const obs::DropCounters before = runtime->DropCounts();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < probes.senders.size(); ++i) {
      emissions[i] = runtime->InjectFromParticipantBatch(probes.senders[i],
                                                         probes.batches[i]);
    }
    const double seconds = SecondsSince(start);
    const obs::DropCounters after = runtime->DropCounts();
    const std::string why =
        checker.CheckPass(*runtime, probes, emissions, before, after);
    if (!why.empty()) ledger.Fail(op, why);
    if (timed) {
      fwd_mpps.push_back(static_cast<double>(probes.total) / seconds / 1e6);
    }
  };
  std::vector<double> full_compile_ms;
  std::vector<double> fec_ms, vnh_ms, readvertise_full_ms, compose_full_ms;
  {
    ScopedSpan phase(trace, "phase2.settled");
    core::RuntimeOptions scratch = PinnedOptions();
    scratch.compile.incremental = false;
    runtime->Configure(scratch);
    for (int i = 0; i < kFullCompiles; ++i) {
      const std::size_t op = ledger.Add();
      {
        ScopedSpan span(trace, "core.full_compile");
        const auto start = Clock::now();
        const core::CompileStats stats = runtime->FullCompile();
        full_compile_ms.push_back(SecondsSince(start) * 1e3);
        trace.AddStages(span.index(), stats.stages);
        fec_ms.push_back(StageSeconds(stats.stages, "fec_compute") * 1e3);
        vnh_ms.push_back(StageSeconds(stats.stages, "vnh_allocation") * 1e3);
        readvertise_full_ms.push_back(
            StageSeconds(stats.stages, "readvertise_routes") * 1e3);
        compose_full_ms.push_back(
            StageSeconds(stats.stages, "policy_composition") * 1e3);
        if (stats.incremental || stats.flow_rule_count != flow_rules) {
          ledger.Fail(op, "from-scratch compile changed the settled table (" +
                              std::to_string(stats.flow_rule_count) + " vs " +
                              std::to_string(flow_rules) + " rules)");
        }
      }
      ScopedSpan span(trace, "core.forwarding");
      // Untimed warm-up: the new rule generation's classifier is built on
      // its first lookup.
      forward_pass(/*timed=*/false);
      for (int k = 0; k < kPassesPerCompile; ++k) {
        forward_pass(/*timed=*/true);
      }
    }
    runtime->Configure(PinnedOptions());
  }
  setup_repeat();
  end_phase("settled_table");

  // Traced only: border router and fabric timed apart on the same probes.
  double border_router_ns = 0.0, fabric_ns = 0.0, fib_entries = 0.0;
  std::size_t tuples = 0;
  if (trace.enabled()) {
    ScopedSpan phase(trace, "phase2.layers");
    std::vector<double> router_ns, switch_ns;
    for (int pass = 0; pass < kFullCompiles; ++pass) {
      std::vector<net::Packet> tagged;
      tagged.reserve(probes.total);
      std::size_t routed = 0;
      const auto start = Clock::now();
      {
        ScopedSpan span(trace, "sdx.border_router");
        for (std::size_t i = 0; i < probes.senders.size(); ++i) {
          const core::BorderRouter* router =
              runtime->FindRouter(probes.senders[i]);
          if (router == nullptr) continue;
          for (const net::Packet& packet : probes.batches[i]) {
            auto out = router->EmitPacket(packet, runtime->arp());
            ++routed;
            if (out) tagged.push_back(std::move(*out));
          }
        }
      }
      router_ns.push_back(SecondsSince(start) * 1e9 /
                          static_cast<double>(
                              std::max<std::size_t>(1, routed)));
      const auto fabric_start = Clock::now();
      {
        ScopedSpan span(trace, "dataplane.process_batch");
        auto out = runtime->data_plane().ProcessBatch(tagged);
        (void)out;
      }
      switch_ns.push_back(SecondsSince(fabric_start) * 1e9 /
                          static_cast<double>(std::max<std::size_t>(
                              1, tagged.size())));
    }
    border_router_ns = Median(router_ns);
    fabric_ns = Median(switch_ns);
    for (const workload::Member& member : inputs.scenario.members) {
      if (const core::BorderRouter* router = runtime->FindRouter(member.as)) {
        fib_entries += static_cast<double>(router->fib_size());
      }
    }
    tuples = runtime->data_plane().table().CompiledTupleCount();
  }

  end_phase("layers");
  // --- Phase 3: update replay -----------------------------------------------
  std::vector<double> update_ms;
  std::vector<double> update_traced_ms, update_untraced_ms;
  std::vector<double> group_us, slice_us, install_us,
      readvertise_us;
  std::size_t rules_added = 0, applied3 = 0;
  double decision_seconds = 0.0;
  std::size_t decision_applied = 0;
  std::uint64_t journal_events = 0;
  // CompilationCache counts lookups since its last Clear(), which every
  // FullCompile does before composing; so an op that compiles contributes
  // its closing counts, and an op that does not contributes the increase.
  std::uint64_t cache_hits = 0, cache_misses = 0;
  auto count_cache = [&](std::uint64_t hits_before,
                         std::uint64_t misses_before, bool compiled) {
    const std::uint64_t hits = runtime->cache().hits();
    const std::uint64_t misses = runtime->cache().misses();
    cache_hits += compiled ? hits : hits - hits_before;
    cache_misses += compiled ? misses : misses - misses_before;
  };
  std::set<net::IPv4Prefix> touched3;
  std::map<net::IPv4Prefix, std::size_t> last_op3;
  {
    ScopedSpan phase(trace, "phase3.updates");
    for (std::size_t i = 0; i < updates.updates.size(); ++i) {
      const bgp::BgpUpdate& update = updates.updates[i];
      const std::size_t op = ledger.Add();
      // Traced runs alternate traced and untraced updates, which is how
      // trace.overhead_pct is measured.
      const bool traced = trace.enabled() && i % 2 == 0;
      // Layer counters are read only in traced runs.
      const std::uint64_t journal_before =
          trace.enabled() && runtime->journal()
              ? runtime->journal()->total_recorded()
              : 0;
      const std::uint64_t hits_before =
          trace.enabled() ? runtime->cache().hits() : 0;
      const std::uint64_t misses_before =
          trace.enabled() ? runtime->cache().misses() : 0;
      const long span = traced ? trace.Begin("core.apply_updates") : -1;
      const auto start = Clock::now();
      core::BatchStats stats;
      try {
        stats = runtime->ApplyUpdates(
            std::span<const bgp::BgpUpdate>(&update, 1));
      } catch (const std::exception& e) {
        ledger.Fail(op, std::string("ApplyUpdates threw: ") + e.what());
      }
      const double ms = SecondsSince(start) * 1e3;
      trace.End(span);
      update_ms.push_back(ms);
      ApplyToModel(model, update);
      touched3.insert(bgp::UpdatePrefix(update));
      last_op3[bgp::UpdatePrefix(update)] = op;
      if (trace.enabled()) {
        (traced ? update_traced_ms : update_untraced_ms).push_back(ms);
        if (traced) trace.AddStages(span, stats.stages);
        journal_events += (runtime->journal()
                               ? runtime->journal()->total_recorded()
                               : 0) -
                          journal_before;
        count_cache(hits_before, misses_before, /*compiled=*/false);
        applied3 += stats.updates_applied;
        rules_added += stats.rules_added;
        decision_seconds += StageSeconds(stats.stages, "rib_update");
        decision_applied += stats.updates_applied;
        if (stats.compiled) {
          group_us.push_back(
              StageSeconds(stats.stages, "group_construction") * 1e6);
          slice_us.push_back(StageSeconds(stats.stages, "slice_compile") * 1e6);
          install_us.push_back(
              StageSeconds(stats.stages, "rule_install") * 1e6);
          readvertise_us.push_back(
              StageSeconds(stats.stages, "readvertise") * 1e6);
        }
      }
    }
  }
  const std::size_t churn_rules = runtime->data_plane().table().size();
  for (const net::IPv4Prefix& prefix :
       checker.CheckBestRoutes(*runtime, touched3, receivers)) {
    ledger.Fail(last_op3[prefix],
                "best route differs from the recomputed one for " +
                    prefix.ToString());
  }

  setup_repeat();
  end_phase("updates");
  // --- Phase 4: burst replay ------------------------------------------------
  std::size_t equivalence_round = 0;
  auto background_compile = [&](double* seconds_out) {
    const std::size_t op = ledger.Add();
    ScopedSpan span(trace, "core.background_compile");
    const auto start = Clock::now();
    const core::CompileStats stats = runtime->FullCompile();
    if (seconds_out != nullptr) *seconds_out += SecondsSince(start);
    trace.AddStages(span.index(), stats.stages);
    ScopedSpan check(trace, "check.equivalence");
    const std::string why = CheckEquivalence(
        *runtime, inputs, model, policies,
        workload::DeriveSeed(seed, kLaneEquivalence + 16 * equivalence_round++),
        stats.flow_rule_count);
    if (!why.empty()) ledger.Fail(op, why);
    return stats;
  };

  double burst_seconds = 0.0;
  std::size_t burst_updates = 0;
  std::size_t coalesce_in = 0, coalesce_applied = 0;
  std::size_t base_rules = 0;
  {
    ScopedSpan phase(trace, "phase4.bursts");
    background_compile(nullptr);
    std::set<net::IPv4Prefix> touched4;
    std::map<net::IPv4Prefix, std::size_t> last_op4;
    for (const workload::Burst& burst : bursts) {
      const std::span<const bgp::BgpUpdate> batch(
          burst_stream.updates.data() + burst.first_update,
          burst.update_count);
      const std::size_t op = ledger.Add();
      ScopedSpan span(trace, "core.apply_updates");
      const auto start = Clock::now();
      core::BatchStats stats;
      try {
        stats = runtime->ApplyUpdates(batch);
      } catch (const std::exception& e) {
        ledger.Fail(op, std::string("ApplyUpdates threw: ") + e.what());
      }
      burst_seconds += SecondsSince(start);
      trace.AddStages(span.index(), stats.stages);
      burst_updates += batch.size();
      coalesce_in += stats.updates_in;
      coalesce_applied += stats.updates_applied;
      decision_seconds += StageSeconds(stats.stages, "rib_update");
      decision_applied += stats.updates_applied;
      for (const bgp::BgpUpdate& update : batch) {
        ApplyToModel(model, update);
        touched4.insert(bgp::UpdatePrefix(update));
        last_op4[bgp::UpdatePrefix(update)] = op;
      }
    }
    for (const net::IPv4Prefix& prefix :
         checker.CheckBestRoutes(*runtime, touched4, receivers)) {
      ledger.Fail(last_op4[prefix],
                  "best route differs from the recomputed one for " +
                      prefix.ToString());
    }
    // The background pass after the bursts (§4.3.2) counts toward their
    // wall time.
    base_rules = background_compile(&burst_seconds).flow_rule_count;
  }

  setup_repeat();
  end_phase("bursts");
  // --- Phase 5: policy edits ------------------------------------------------
  struct EditTarget {
    AsNumber as;
    bool inbound;
  };
  std::vector<EditTarget> targets;
  for (const auto& [as, clauses] : inputs.policies.outbound) {
    if (!clauses.empty()) targets.push_back({as, false});
  }
  for (const auto& [as, clauses] : inputs.policies.inbound) {
    if (!clauses.empty()) targets.push_back({as, true});
  }
  std::mt19937_64 edit_rng(workload::DeriveSeed(seed, kLaneEdits));
  std::shuffle(targets.begin(), targets.end(), edit_rng);

  std::vector<double> edit_ms, edit_traced_ms, edit_untraced_ms;
  std::vector<double> groups_edit_ms, compose_edit_ms, inbound_edit_ms,
      override_edit_ms, default_edit_ms, finalize_edit_ms, install_edit_ms;
  std::size_t blocks_total = 0, blocks_reused = 0;
  {
    ScopedSpan phase(trace, "phase5.edits");
    // Every (holder, direction) target gets one remove + restore pair per
    // cycle, so the mix of cheap and expensive edits is the same on every
    // seed; the seed picks the order and the clause removed.
    const std::size_t edits = 2 * targets.size() *
                              static_cast<std::size_t>(spec.edit_cycles);
    for (std::size_t e = 0; e < edits; ++e) {
      const EditTarget& target = targets[(e / 2) % targets.size()];
      const bool restore = e % 2 == 1;
      const std::size_t op = ledger.Add();
      const bool traced = trace.enabled() && (e / 2) % 2 == 0;
      const long span = traced ? trace.Begin("core.policy_edit") : -1;
      core::CompileStats stats;
      double ms = 0.0;
      try {
        if (target.inbound) {
          auto clauses = inputs.policies.inbound.at(target.as);
          if (!restore) {
            const auto drop = static_cast<long>(edit_rng() % clauses.size());
            clauses.erase(clauses.begin() + drop);
          }
          policies.inbound[target.as] = clauses;
          const auto start = Clock::now();
          runtime->SetInboundPolicy(target.as, std::move(clauses));
          stats = runtime->FullCompile();
          ms = SecondsSince(start) * 1e3;
        } else {
          auto clauses = inputs.policies.outbound.at(target.as);
          if (!restore) {
            const auto drop = static_cast<long>(edit_rng() % clauses.size());
            clauses.erase(clauses.begin() + drop);
          }
          policies.outbound[target.as] = clauses;
          const auto start = Clock::now();
          runtime->SetOutboundPolicy(target.as, std::move(clauses));
          stats = runtime->FullCompile();
          ms = SecondsSince(start) * 1e3;
        }
      } catch (const std::exception& ex) {
        ledger.Fail(op, std::string("policy edit threw: ") + ex.what());
      }
      trace.End(span);
      edit_ms.push_back(ms);
      if (restore && stats.flow_rule_count != base_rules) {
        ledger.Fail(op, "restoring a policy left " +
                            std::to_string(stats.flow_rule_count) +
                            " rules, expected " + std::to_string(base_rules));
      }
      if (trace.enabled()) {
        (traced ? edit_traced_ms : edit_untraced_ms).push_back(ms);
        if (traced) trace.AddStages(span, stats.stages);
        groups_edit_ms.push_back(
            StageSeconds(stats.stages, "recompute_groups") * 1e3);
        compose_edit_ms.push_back(
            StageSeconds(stats.stages, "policy_composition") * 1e3);
        inbound_edit_ms.push_back(
            StageSeconds(stats.stages, "inbound_blocks") * 1e3);
        override_edit_ms.push_back(
            StageSeconds(stats.stages, "override_blocks") * 1e3);
        default_edit_ms.push_back(
            StageSeconds(stats.stages, "default_blocks") * 1e3);
        finalize_edit_ms.push_back(
            StageSeconds(stats.stages, "finalize_classifier") * 1e3);
        install_edit_ms.push_back(
            StageSeconds(stats.stages, "rule_install") * 1e3);
        count_cache(0, 0, /*compiled=*/true);
        blocks_total += stats.blocks_total;
        blocks_reused += stats.blocks_reused;
      }
    }
  }

  setup_repeat();
  while (next_setup_job < setup_jobs.size()) setup_repeat();
  end_phase("edits");
  // Final state: one more checked forwarding pass.
  {
    ScopedSpan phase(trace, "final.checks");
    forward_pass(/*timed=*/false);
  }
  end_phase("final_checks");
  std::fprintf(stderr, "phase wall seconds:");
  for (const auto& [name, seconds] : phase_wall) {
    std::fprintf(stderr, " %s=%.2f", name, seconds);
  }
  std::fprintf(stderr, "\n");
  for (const auto& [name, samples] :
       {std::pair<const char*, const std::vector<double>*>{"full_compile_ms",
                                                          &full_compile_ms},
        {"fwd_mpps", &fwd_mpps},
        {"update_ms", &update_ms},
        {"edit_ms", &edit_ms},
        {"setup_s", &setup_seconds}}) {
    std::fprintf(stderr, "samples %s: n=%zu q1=%.4g median=%.4g q3=%.4g\n",
                 name, samples->size(), Quantile(*samples, 0.25),
                 Median(*samples), Quantile(*samples, 0.75));
  }
  // --- Report ---------------------------------------------------------------
  std::vector<Metric> metrics;
  if (!trace.enabled()) {
    metrics = {
        {"setup_s", Median(setup_seconds), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"flow_rules", static_cast<double>(flow_rules), "count"},
        {"churn_rules", static_cast<double>(churn_rules), "count"},
        {"full_compile_ms", Median(full_compile_ms), "ms"},
        {"fwd_mpps", Median(fwd_mpps), "Mpps"},
        {"update_p50_ms", Quantile(update_ms, 0.50), "ms"},
        {"update_p99_ms", Quantile(update_ms, 0.99), "ms"},
        {"burst_updates_per_s",
         static_cast<double>(burst_updates) / burst_seconds, "1/s"},
        {"policy_edit_p50_ms", Quantile(edit_ms, 0.50), "ms"},
        {"policy_edit_p90_ms", Quantile(edit_ms, 0.90), "ms"},
    };
  } else {
    auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const double overhead_pct =
        50.0 * (ratio(Median(update_traced_ms), Median(update_untraced_ms)) +
                ratio(Median(edit_traced_ms), Median(edit_untraced_ms)) - 2.0);
    metrics = {
        {"bgp.coalesce_ratio",
         ratio(static_cast<double>(coalesce_in),
               static_cast<double>(coalesce_applied)),
         "ratio"},
        {"rs.load_s", setup.load_seconds, "s"},
        {"rs.load_rss_mb", setup.load_rss_mb, "MB"},
        {"rs.decision_us",
         ratio(decision_seconds * 1e6, static_cast<double>(decision_applied)),
         "us/update"},
        {"sdx.prefix_groups",
         static_cast<double>(setup.compile.prefix_group_count), "count"},
        {"sdx.fec_ms.full", Median(fec_ms), "ms"},
        {"sdx.vnh_ms.full", Median(vnh_ms), "ms"},
        {"sdx.groups_ms.edit", Median(groups_edit_ms), "ms"},
        {"sdx.readvertise_ms.full", Median(readvertise_full_ms), "ms"},
        {"sdx.readvertise_us.update", Median(readvertise_us), "us/batch"},
        {"sdx.fib_entries", fib_entries, "count"},
        {"sdx.compile_rss_mb", setup.compile_rss_mb, "MB"},
        {"sdx.compose_ms.full", Median(compose_full_ms), "ms"},
        {"sdx.compose_ms.edit", Median(compose_edit_ms), "ms"},
        {"sdx.compose_ms.edit.inbound", Median(inbound_edit_ms), "ms"},
        {"sdx.compose_ms.edit.override", Median(override_edit_ms), "ms"},
        {"sdx.compose_ms.edit.default", Median(default_edit_ms), "ms"},
        {"sdx.compose_ms.edit.finalize", Median(finalize_edit_ms), "ms"},
        {"sdx.blocks_reused_ratio.edit",
         ratio(static_cast<double>(blocks_reused),
               static_cast<double>(blocks_total)),
         "ratio"},
        {"policy.cache_hit_ratio",
         ratio(static_cast<double>(cache_hits),
               static_cast<double>(cache_hits + cache_misses)),
         "ratio"},
        {"sdx.group_construction_us.update", Median(group_us), "us/batch"},
        {"sdx.slice_compile_us.update", Median(slice_us), "us/batch"},
        {"dataplane.install_ms.edit", Median(install_edit_ms), "ms"},
        {"dataplane.install_us.update", Median(install_us), "us/batch"},
        {"dataplane.rules_per_update",
         ratio(static_cast<double>(rules_added),
               static_cast<double>(applied3)),
         "count"},
        {"dataplane.tuples", static_cast<double>(tuples), "count"},
        {"dataplane.fabric_ns", fabric_ns, "ns/pkt"},
        {"sdx.border_router_ns", border_router_ns, "ns/pkt"},
        {"obs.journal_events_per_update",
         ratio(static_cast<double>(journal_events),
               static_cast<double>(updates.updates.size())),
         "count"},
        {"trace.overhead_pct", overhead_pct, "%"},
    };
    if (!args.spans_path.empty() && !trace.Write(args.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_path.c_str());
      return 2;
    }
  }
  std::printf("summary: setups=%zu full_compiles=%zu fwd_passes=%zu "
              "probes=%zu updates=%zu bursts=%zu burst_updates=%zu "
              "edits=%zu equivalence_checks=%zu peak_rss_total_mb=%.1f\n",
              setup_seconds.size(), full_compile_ms.size(), fwd_mpps.size(),
              probes.total, update_ms.size(), bursts.size(),
              burst_updates, edit_ms.size(), equivalence_round, PeakRssMb());
  // Every failed check is charged to its operation in `failed`; `correct`
  // speaks of the rest: the run completed and every reported value is a
  // finite measurement.
  const bool correct = std::all_of(
      metrics.begin(), metrics.end(),
      [](const Metric& m) { return std::isfinite(m.value); });
  PrintResult(correct, ledger.attempted(), ledger.failed(), metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: sdx_perfbench --workload NAME --seed N "
                 "[--trace 0|1] [--spans FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args->workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  try {
    return Run(*spec, *args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
}
