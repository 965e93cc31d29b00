#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>

#include "comm/cluster.hpp"
#include "core/optimus_model.hpp"
#include "kernel/thread_pool.hpp"
#include "megatron/megatron_model.hpp"
#include "mesh/mesh.hpp"
#include "model/serial_model.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "runtime/data.hpp"
#include "runtime/optimizer.hpp"
#include "serving/serving.hpp"
#include "serving/traffic.hpp"
#include "util/rng.hpp"

namespace hostbench {

namespace oc = optimus::comm;
namespace os = optimus::serving;
namespace ort = optimus::runtime;
using optimus::tensor::index_t;

// ---------------------------------------------------------------------------
// probes.hpp out-of-line parts
// ---------------------------------------------------------------------------

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : {99.0, 90.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    t = Tail{p, v[std::max<std::size_t>(rank, 1) - 1], n - std::max<std::size_t>(rank, 1)};
    if (t.beyond >= 10) break;
  }
  return t;
}

Tail windowed_tail(const std::vector<double>& v, std::size_t windows, std::size_t min_window) {
  Tail t = tail_of(v);
  const std::size_t n = v.size();
  windows = std::min(windows, n / std::max<std::size_t>(min_window, 1));
  if (windows < 2) return t;
  t.windows = windows;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> win(v.begin() + static_cast<std::ptrdiff_t>(w * n / windows),
                            v.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / windows));
    std::sort(win.begin(), win.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(t.percentile / 100.0 * static_cast<double>(win.size())));
    const double value = win[std::max<std::size_t>(rank, 1) - 1];
    if (w == 0 || value < t.value) t.value = value;
  }
  return t;
}

void SelfTimes::add(const std::vector<optimus::obs::SpanRecord>& all, int rank) {
  std::vector<const optimus::obs::SpanRecord*> spans;
  for (const auto& s : all) {
    if (s.rank == rank && s.lane < 0) spans.push_back(&s);
  }
  std::stable_sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    return a->wall_begin_ns != b->wall_begin_ns ? a->wall_begin_ns < b->wall_begin_ns
                                                : a->depth < b->depth;
  });
  // open[d] = index of the innermost span seen at depth d (-1: none recorded,
  // e.g. the cluster's rank_body span, which closes only at body exit).
  std::vector<long> open;
  std::vector<double> covered(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto depth = static_cast<std::size_t>(spans[i]->depth);
    open.resize(depth, -1);
    const double dur =
        static_cast<double>(spans[i]->wall_end_ns - spans[i]->wall_begin_ns) * 1e-9;
    if (depth > 0 && open[depth - 1] >= 0) {
      covered[static_cast<std::size_t>(open[depth - 1])] += dur;
    }
    open.push_back(static_cast<long>(i));
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur =
        static_cast<double>(spans[i]->wall_end_ns - spans[i]->wall_begin_ns) * 1e-9;
    self_s[spans[i]->cat] += dur - covered[i];
    total_s[spans[i]->cat] += dur;
    ++this->spans[spans[i]->cat + "/" + spans[i]->name];
    if (spans[i]->cat == "kernel" && spans[i]->name == "gemm") {
      double mnk = 1;
      for (const auto& [key, value] : spans[i]->args) {
        if (key == "m" || key == "n" || key == "k") mnk *= value.as_number();
      }
      gemm_mults += mnk;
    }
  }
}

namespace {

// ---------------------------------------------------------------------------
// Workload table
// ---------------------------------------------------------------------------

enum class Kind { kOptimus, kMegatron, kSerial, kServe };

struct Spec {
  const char* name;
  Kind kind;
  int world;
  const char* engine;  // src/ module whose public calls the step makes
};

// Why each exists is in README.md: the paper's 2D method, its 1D baseline,
// the single-worker baseline that bypasses comm and summa, and 2D decode,
// where per-collective fixed cost and the serving loop dominate.
constexpr Spec kSpecs[] = {
    {"train_2d", Kind::kOptimus, 4, "core"},
    {"train_1d", Kind::kMegatron, 4, "megatron"},
    {"train_serial", Kind::kSerial, 1, "model"},
    {"serve_2d_decode", Kind::kServe, 4, "core"},
};

// Kernel thread budget. A 4-rank workload gets max(1, 2 / 4) = 1 thread per
// device, so its busiest moment is its 4 rank threads; train_serial's GEMMs
// run on a 2-thread cooperative pool. With 4 pool threads on a shared 4-vCPU
// host, threads spun at region barriers whenever a peer's vCPU was taken,
// and train_serial's p90 step CPU spread 30-40 % between identical runs
// (2 threads: under 7 %).
constexpr int kKernelThreads = 2;
constexpr int kSetups = 9;          // set-ups per run; setup_s is their median
// Each set-up ends with the least work that still runs every code path of a
// step once, so lazy first-step work lands in set-up: one training step, or
// one wave of requests (one per slot, all arriving at once) of the traffic's
// shortest prompt and output. The amount of work does not depend on the seed
// (only the token ids do).
constexpr int kWarmupSteps = 1;
constexpr index_t kWarmupPrompt = 2;
constexpr std::size_t kWarmupOutput = 4;
// Request lengths are bench/bench_serving's mix (prompt 2-6, output 4-16
// tokens), so a request is fed ~13 decode cycles on average.
constexpr index_t kPromptMin = 2, kPromptMax = 6;
constexpr index_t kOutputMin = 4, kOutputMax = 16;
// A session is ~500 decode cycles; the serving phase repeats sessions until
// its time is up.
constexpr std::size_t kSessionRequests = 300;
// About twice the 2x2 engine's simulated capacity, so the slots stay full
// once the first arrivals are in: 8 slots / (~13 cycles per request x
// 1.3 ms simulated per cycle) = ~470 requests/s.
constexpr double kArrivalRate = 940.0;
constexpr double kLr = 1e-3;
// Minimum timed steps of an untraced run (up to twice --seconds), so the
// tail's percentile has ten samples beyond it over the run: p90 of >= 100
// training steps, p99 of >= 3 sessions (>= 1000 decode cycles). Traced runs
// report no tail, so both of their halves need only a few steps.
constexpr std::size_t kMinTrainSteps = 100;
constexpr std::size_t kMinSessions = 3;
// step_cpu_tail_ms is the lowest of up to 10 windows' tails (windowed_tail),
// each window at least 100 steps, so that its percentile is still a tail.
// Serving runs (thousands of ~2-ms decode cycles, where host contention comes
// and goes many times a run) get 10 windows; training runs (at most a few
// hundred steps in 24 s) get one, which is tail_of over the run.
constexpr std::size_t kTailWindows = 10;
constexpr std::size_t kTailMinWindow = 100;
constexpr std::size_t kMinTracedTrainSteps = 12;
constexpr std::size_t kMinTracedSessions = 1;
// Traced phases fold the recorded spans into self times every this many
// steps, bounding the span buffers.
constexpr std::size_t kTrainDrainEvery = 8;
constexpr std::size_t kServeDrainEvery = 64;

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return s;
  }
  OPT_CHECK(false, "unknown workload '" << name << "'");
  return kSpecs[0];
}

// ---------------------------------------------------------------------------
// Lead-rank accounting
// ---------------------------------------------------------------------------

/// Counters the program already keeps, read on the lead rank at phase edges.
struct Counters {
  oc::CommStats comm;
  optimus::kernel::PoolStats pool;
  std::uint64_t allocs = 0;
  std::uint64_t mults = 0;
  double sim = 0;
  oc::UtilBreakdown util;

  static Counters read(oc::Context& ctx) {
    Counters c;
    c.comm = ctx.world.stats();
    c.pool = optimus::kernel::pool_stats();
    c.allocs = ctx.device.alloc_count();
    c.mults = ctx.device.mults_total();
    // Include compute counted but not yet drained into the clock.
    c.sim = ctx.clock.now() + ctx.cost.compute_time(ctx.device.pending_mults());
    c.util = ctx.clock.util();
    return c;
  }
};

std::uint64_t comm_calls(const oc::CommStats& s) {
  return s.broadcast.calls + s.reduce.calls + s.allreduce.calls + s.allgather.calls +
         s.reducescatter.calls + s.alltoall.calls + s.barrier.calls + s.p2p_messages;
}

/// Everything the lead rank measures over one phase of timed steps.
struct Phase {
  std::vector<double> step_cpu_s;   // process CPU per step
  std::vector<double> step_wall_s;  // lead wall per step
  CallStat batch, forward, loss, backward, optimizer, session;
  double cpu0 = 0, cpu1 = 0, wall0 = 0, wall1 = 0;
  double tokens = 0;  // trained tokens, or generated tokens when serving
  double active_slots = 0, fed = 0, replayed = 0;
  double latency_p50_s = 0, latency_p99_s = 0;  // first serving session
  Counters c0, c1;
  SelfTimes self;

  std::size_t steps() const { return step_cpu_s.size(); }

  void begin(oc::Context& ctx, bool traced) {
    if (traced) {
      optimus::obs::reset();
      optimus::obs::set_enabled(true);
    }
    c0 = Counters::read(ctx);
    cpu0 = process_cpu_s();
    wall0 = wall_s();
  }
  void end(oc::Context& ctx, bool traced) {
    cpu1 = process_cpu_s();
    wall1 = wall_s();
    c1 = Counters::read(ctx);
    if (traced) {
      optimus::obs::set_enabled(false);
      drain_spans(ctx.rank);
    }
  }
  /// Folds the spans recorded so far into self times. Called by the lead
  /// between steps, so every lead span is closed.
  void drain_spans(int rank) {
    self.add(optimus::obs::snapshot(), rank);
    optimus::obs::reset();
  }
};

struct SetupSample {
  double cpu_s = 0;
  double launch_wall_s = 0;
  double construct_wall_s = 0;
  std::uint64_t digest = 0;  // warm-up losses or warm-up tokens
  double first_loss = 0;
};

/// State the lead rank writes during one run of one workload.
struct Run {
  std::vector<SetupSample> setups;
  Phase untraced, traced;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t output_digest = kFnvBasis;  // loss trace / generated tokens of phase 1
  std::uint64_t input_digest = kFnvBasis;
  double peak_device_bytes = 0;
  std::vector<std::string> errors;
  // One stop decision per phase, shared by every rank of the timed cluster.
  std::optional<StepGate> gate_untraced, gate_traced;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  return optimus::util::mix3(seed, k, 0x686F737462656E63ULL);
}

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

using Sampler = std::function<ort::LmBatch(int)>;

Sampler make_sampler(std::uint64_t seed) {
  const auto cfg = train_config();
  return ort::make_cached_sampler(
      [w = ort::RandomLmWorkload(cfg.batch, cfg.seq_len, cfg.vocab, mix(seed, 0))]() mutable {
        return w.next();
      });
}

/// Constructs the workload's engine on this rank and hands it to fn.
template <typename F>
void with_train_model(Kind kind, oc::Context& ctx, F&& fn) {
  const auto cfg = train_config();
  switch (kind) {
    case Kind::kOptimus: {
      optimus::mesh::Mesh2D mesh(ctx.world);
      optimus::core::OptimusTransformer<float> m(cfg, mesh);
      fn(m);
      return;
    }
    case Kind::kMegatron: {
      optimus::megatron::MegatronTransformer<float> m(cfg, ctx.world);
      fn(m);
      return;
    }
    default: {
      optimus::model::SerialTransformer<float> m(cfg);
      fn(m);
      return;
    }
  }
}

/// One LM step through the engine's public calls (as runtime::lm_step makes
/// them), each timed on the lead rank.
template <typename Model>
double train_step(Model& m, ort::Adam<float>& opt, const ort::LmBatch& b, const char* engine,
                  Phase* ph) {
  double loss = 0;
  timed_call(ph ? &ph->forward : nullptr, engine, "forward", [&] { m.forward(b.tokens); });
  timed_call(ph ? &ph->loss : nullptr, engine, "loss",
             [&] { loss = static_cast<double>(m.lm_loss(b.labels)); });
  timed_call(ph ? &ph->backward : nullptr, engine, "backward", [&] {
    m.zero_grads();
    m.backward_lm();
  });
  timed_call(ph ? &ph->optimizer : nullptr, "runtime", "optimizer",
             [&] { opt.step(m.parameters(), m.gradients(), kLr); });
  return loss;
}

template <typename Model>
void train_phase(Model& model, ort::Adam<float>& opt, oc::Context& ctx, const Spec& spec,
                 Sampler& next, StepGate& gate, Phase& ph, bool traced, Run& run) {
  const bool lead = ctx.rank == 0;
  Phase* lp = lead ? &ph : nullptr;
  const auto cfg = train_config();
  if (lead) ph.begin(ctx, traced);
  for (std::size_t i = 0; gate.admit(i); ++i) {
    const double c0 = lead ? process_cpu_s() : 0;
    const double w0 = lead ? wall_s() : 0;
    double loss = 0;
    {
      optimus::obs::Span span("hostbench", "step");
      ort::LmBatch batch;
      timed_call(lp ? &lp->batch : nullptr, "runtime", "batch", [&] { batch = next(ctx.rank); });
      loss = train_step(model, opt, batch, spec.engine, lp);
      // A lone rank makes no collective, which is where compute is drained.
      if (ctx.size == 1) ctx.clock.drain_compute(ctx.cost);
    }
    if (!lead) continue;
    ph.step_cpu_s.push_back(process_cpu_s() - c0);
    ph.step_wall_s.push_back(wall_s() - w0);
    ph.tokens += static_cast<double>(cfg.tokens_per_batch());
    ++run.attempted;
    if (!std::isfinite(loss)) ++run.failed;
    if (&ph == &run.untraced) run.output_digest = fnv1a(run.output_digest, &loss, sizeof loss);
    if (traced && (i + 1) % kTrainDrainEvery == 0) ph.drain_spans(ctx.rank);
  }
  if (lead) ph.end(ctx, traced);
}

void train_body(oc::Context& ctx, const Spec& spec, const Options& o, Sampler& next,
                SetupSample& setup, double cpu_at_launch, double wall_at_launch, Run* timed) {
  const bool lead = ctx.rank == 0;
  if (lead) setup.launch_wall_s = wall_s() - wall_at_launch;
  const double w0 = wall_s();
  with_train_model(spec.kind, ctx, [&](auto& model) {
    if (lead) setup.construct_wall_s = wall_s() - w0;
    ort::Adam<float> opt;
    std::uint64_t digest = kFnvBasis;
    for (int i = 0; i < kWarmupSteps; ++i) {
      const double loss =
          train_step(model, opt, next(ctx.rank), spec.engine, nullptr);
      if (ctx.size == 1) ctx.clock.drain_compute(ctx.cost);
      digest = fnv1a(digest, &loss, sizeof loss);
      if (lead && i == 0) setup.first_loss = loss;
    }
    if (lead) {
      setup.cpu_s = process_cpu_s() - cpu_at_launch;
      setup.digest = digest;
    }
    if (timed == nullptr) return;
    train_phase(model, opt, ctx, spec, next, *timed->gate_untraced, timed->untraced, false,
                *timed);
    if (o.trace) {
      train_phase(model, opt, ctx, spec, next, *timed->gate_traced, timed->traced, true, *timed);
    }
    if (lead) timed->peak_device_bytes = static_cast<double>(ctx.device.bytes_peak());
  });
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

/// The serving set-up's warm-up session: seeded token ids, fixed lengths,
/// every request arriving at t0.
std::vector<os::Request> warmup_requests(std::uint64_t seed, double t0) {
  auto reqs = session_requests(seed, 0, static_cast<std::size_t>(serve_config().batch), t0);
  for (auto& r : reqs) {
    r.arrival = t0;
    r.prompt.resize(static_cast<std::size_t>(kWarmupPrompt));
    r.max_new_tokens = kWarmupOutput;
  }
  return reqs;
}

/// DecodeEngine decorator: times the engine step (so ServingSession::step
/// minus it is the serving loop's own cost) and classifies each active
/// slot's token as prefill, replay (re-fed after an eviction) or generating.
class TimedDecodeEngine final : public os::DecodeEngine<float> {
 public:
  explicit TimedDecodeEngine(os::DecodeEngine<float>& inner) : inner_(&inner) {}

  /// Points the decorator at the session it serves; `phase` is null off the
  /// lead rank or outside timed phases.
  void watch(const os::ContinuousBatchScheduler* sched, Phase* phase) {
    sched_ = sched;
    phase_ = phase;
  }

  index_t slots() const override { return inner_->slots(); }
  index_t capacity() const override { return inner_->capacity(); }
  index_t vocab() const override { return inner_->vocab(); }
  std::uint64_t cache_bytes() const override { return inner_->cache_bytes(); }
  void reset_slot(index_t slot) override { inner_->reset_slot(slot); }
  index_t slot_len(index_t slot) const override { return inner_->slot_len(slot); }

  std::vector<std::int32_t> step(const std::vector<std::int32_t>& tokens,
                                 const std::vector<std::uint8_t>& active) override {
    if (phase_ != nullptr) {
      for (index_t s = 0; s < slots(); ++s) {
        const os::Request* r = sched_->request_in_slot(s);
        if (r == nullptr) continue;
        phase_->active_slots += 1;
        phase_->fed += 1;
        if (r->fed + 1 >= r->forced_size()) {
          phase_->tokens += 1;  // this step's argmax is a new token
        } else if (r->fed >= r->prompt.size()) {
          phase_->replayed += 1;
        }
      }
    }
    std::vector<std::int32_t> out;
    timed_call(phase_ ? &phase_->forward : nullptr, "core", "decode",
               [&] { out = inner_->step(tokens, active); });
    return out;
  }

 private:
  os::DecodeEngine<float>* inner_;
  const os::ContinuousBatchScheduler* sched_ = nullptr;
  Phase* phase_ = nullptr;
};

std::uint64_t token_digest(std::uint64_t h, const std::vector<os::Request>& done) {
  for (const os::Request& r : done) {
    h = fnv1a(h, &r.id, sizeof r.id);
    h = fnv1a(h, r.generated.data(), r.generated.size() * sizeof(std::int32_t));
  }
  return h;
}

/// Serves one session to completion. With `ph`, samples each decode cycle.
std::vector<os::Request> run_session(TimedDecodeEngine& eng, std::vector<os::Request> reqs,
                                     oc::Context& ctx, Phase* ph, bool traced,
                                     os::ServingMetrics* metrics) {
  os::ServingSession<float> session(eng, std::move(reqs));
  eng.watch(&session.scheduler(), ph);
  const std::function<double()> now = [&] { return ctx.clock.now(); };
  for (;;) {
    const std::uint64_t before = session.decode_steps();
    const double c0 = ph ? process_cpu_s() : 0;
    const double w0 = ph ? wall_s() : 0;
    os::ServingSession<float>::Step st;
    {
      optimus::obs::Span span("hostbench", "step");
      timed_call(ph ? &ph->session : nullptr, "serving", "step", [&] { st = session.step(now); });
    }
    if (ph != nullptr && session.decode_steps() > before) {
      ph->step_cpu_s.push_back(process_cpu_s() - c0);
      ph->step_wall_s.push_back(wall_s() - w0);
      if (traced && ph->steps() % kServeDrainEvery == 0) ph->drain_spans(ctx.rank);
    }
    if (st == os::ServingSession<float>::Step::kDone) break;
    if (st == os::ServingSession<float>::Step::kIdle) {
      ctx.clock.set(session.scheduler().next_arrival());
    }
  }
  eng.watch(nullptr, nullptr);
  if (metrics != nullptr) *metrics = session.metrics();
  return session.scheduler().completed();
}

void serve_phase(TimedDecodeEngine& eng, oc::Context& ctx, const Options& o, StepGate& gate,
                 Phase& ph, bool traced, Run& run) {
  const bool lead = ctx.rank == 0;
  if (lead) ph.begin(ctx, traced);
  for (std::size_t k = 0; gate.admit(k); ++k) {
    auto reqs = session_requests(o.seed, k + 1, kSessionRequests, ctx.clock.now());
    if (!lead) {
      run_session(eng, std::move(reqs), ctx, nullptr, false, nullptr);
      continue;
    }
    if (&ph == &run.untraced && k == 0) {
      for (const os::Request& r : reqs) {
        run.input_digest = fnv1a(run.input_digest, r.prompt.data(),
                                 r.prompt.size() * sizeof(std::int32_t));
        run.input_digest = fnv1a(run.input_digest, &r.max_new_tokens, sizeof r.max_new_tokens);
        run.input_digest = fnv1a(run.input_digest, &r.arrival, sizeof r.arrival);
      }
    }
    std::vector<std::size_t> want(reqs.size());
    for (const os::Request& r : reqs) want.at(static_cast<std::size_t>(r.id)) = r.max_new_tokens;
    os::ServingMetrics m;
    const auto done = run_session(eng, std::move(reqs), ctx, &ph, traced, &m);
    if (k == 0) {
      ph.latency_p50_s = m.p50_latency;
      ph.latency_p99_s = m.p99_latency;
    }
    run.attempted += want.size();
    std::size_t exact = 0;
    for (const os::Request& r : done) {
      if (r.generated.size() == want.at(static_cast<std::size_t>(r.id))) ++exact;
    }
    run.failed += want.size() - exact;
    if (&ph == &run.untraced) run.output_digest = token_digest(run.output_digest, done);
  }
  if (lead) ph.end(ctx, traced);
}

void serve_body(oc::Context& ctx, const Options& o, SetupSample& setup, double cpu_at_launch,
                double wall_at_launch, Run* timed) {
  const bool lead = ctx.rank == 0;
  if (lead) setup.launch_wall_s = wall_s() - wall_at_launch;
  const double w0 = wall_s();
  const auto cfg = serve_config();
  optimus::mesh::Mesh2D mesh(ctx.world);
  optimus::core::OptimusTransformer<float> model(cfg, mesh);
  os::OptimusDecodeEngine<float> inner(model, cfg.batch);
  TimedDecodeEngine eng(inner);
  if (lead) setup.construct_wall_s = wall_s() - w0;
  const auto warm = run_session(eng, warmup_requests(o.seed, ctx.clock.now()), ctx, nullptr,
                                false, nullptr);
  if (lead) {
    setup.cpu_s = process_cpu_s() - cpu_at_launch;
    setup.digest = token_digest(kFnvBasis, warm);
  }
  if (timed == nullptr) return;
  serve_phase(eng, ctx, o, *timed->gate_untraced, timed->untraced, false, *timed);
  if (o.trace) serve_phase(eng, ctx, o, *timed->gate_traced, timed->traced, true, *timed);
  if (lead) timed->peak_device_bytes = static_cast<double>(ctx.device.bytes_peak());
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Collects metrics. A value that is not finite is a broken measurement: it
/// is recorded as an error, which makes the run incorrect, and reported as 0
/// so that the result stays valid JSON.
class MetricSink {
 public:
  explicit MetricSink(std::vector<std::string>& errors) : errors_(&errors) {}
  void put(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      errors_->push_back("metric " + name + " is not finite");
      value = 0;
    }
    out_.push_back({name, value, unit});
  }
  std::vector<Metric> take() { return std::move(out_); }

 private:
  std::vector<std::string>* errors_;
  std::vector<Metric> out_;
};

double per(double x, std::size_t n) { return n == 0 ? 0 : x / static_cast<double>(n); }
double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

template <typename F>
double median_of(const std::vector<SetupSample>& s, F&& field) {
  std::vector<double> v;
  for (const auto& x : s) v.push_back(field(x));
  return median(v);
}

void end_to_end(const Run& run, MetricSink& out, std::vector<std::string>& notes) {
  const Phase& u = run.untraced;
  const Tail tail = windowed_tail(u.step_cpu_s, kTailWindows, kTailMinWindow);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "step_cpu_tail_ms is p%g, the lowest of %zu window(s) of %zu steps in all "
                "(%zu steps beyond p%g over the run)",
                tail.percentile, tail.windows, u.steps(), tail.beyond, tail.percentile);
  notes.emplace_back(buf);
  out.put("tok_per_cpu_s", ratio(u.tokens, u.cpu1 - u.cpu0), "tok/cpu_s");
  out.put("step_cpu_p50_ms", median(u.step_cpu_s) * 1e3, "ms");
  out.put("step_cpu_tail_ms", tail.value * 1e3, "ms");
  out.put("setup_s", median_of(run.setups, [](const auto& s) { return s.cpu_s; }), "s");
  out.put("peak_rss_mib", peak_rss_mib(), "MiB");
  out.put("ok_frac",
          1.0 - ratio(static_cast<double>(run.failed), static_cast<double>(run.attempted)),
          "frac");
}

void per_layer(const Spec& spec, const Run& run, MetricSink& out,
               std::vector<std::string>& notes) {
  const Phase& u = run.untraced;
  const Phase& t = run.traced;
  const std::size_t n = t.steps();
  const auto ms = [n](double s) { return per(s, n) * 1e3; };
  const bool serving = spec.kind == Kind::kServe;

  for (const char* engine : {"core", "megatron", "model"}) {
    const bool used = std::string(engine) == spec.engine;
    const std::string e = engine;
    const auto call = [&](const char* name, const CallStat& c) {
      out.put(e + "." + name + "_cpu_ms", used ? ms(c.cpu_s) : 0, "ms");
      out.put(e + "." + name + "_wait_ms", used ? ms(c.wall_s - c.cpu_s) : 0, "ms");
    };
    call("forward", t.forward);
    call("loss", t.loss);
    call("backward", t.backward);
    out.put(e + ".construct_ms",
            used ? median_of(run.setups, [](const auto& s) { return s.construct_wall_s; }) * 1e3
                 : 0,
            "ms");
    out.put(e + ".self_ms_per_step", used ? ms(t.self.self(e)) : 0, "ms");
  }

  const oc::CommStats& a = t.c0.comm;
  const oc::CommStats& b = t.c1.comm;
  const double calls = static_cast<double>(comm_calls(b) - comm_calls(a));
  out.put("comm.cluster_launch_ms",
          median_of(run.setups, [](const auto& s) { return s.launch_wall_s; }) * 1e3, "ms");
  out.put("comm.calls_per_step", per(calls, n), "count");
  out.put("comm.bytes_per_step", per(static_cast<double>(b.total_bytes() - a.total_bytes()), n),
          "B");
  out.put("comm.bcast_calls_per_step",
          per(static_cast<double>(b.broadcast.calls - a.broadcast.calls), n), "count");
  out.put("comm.reduce_calls_per_step",
          per(static_cast<double>(b.reduce.calls - a.reduce.calls), n), "count");
  out.put("comm.allreduce_calls_per_step",
          per(static_cast<double>(b.allreduce.calls - a.allreduce.calls), n), "count");
  out.put("comm.allgather_calls_per_step",
          per(static_cast<double>(b.allgather.calls - a.allgather.calls), n), "count");
  out.put("comm.self_ms_per_step", ms(t.self.self("comm")), "ms");
  out.put("comm.us_per_call", ratio(t.self.self("comm"), calls) * 1e6, "us");

  out.put("summa.self_ms_per_step", ms(t.self.self("summa")), "ms");
  out.put("summa.k_steps_per_step", per(static_cast<double>(t.self.count("summa/k_step")), n),
          "count");

  const double mults = static_cast<double>(t.c1.mults - t.c0.mults);
  const double regions = static_cast<double>(t.c1.pool.regions - t.c0.pool.regions);
  out.put("kernel.gemm_self_ms_per_step", ms(t.self.self("kernel")), "ms");
  out.put("kernel.gemm_calls_per_step", per(static_cast<double>(t.self.count("kernel/gemm")), n),
          "count");
  out.put("kernel.gflops", ratio(2 * t.self.gemm_mults, t.self.self("kernel")) * 1e-9,
          "GFLOP/s");
  out.put("kernel.mults_per_step", per(mults, n), "count");
  out.put("kernel.pool_regions_per_step", per(regions, n), "count");
  out.put("kernel.pool_parks_per_step",
          per(static_cast<double>(t.c1.pool.parks - t.c0.pool.parks), n), "count");
  out.put("kernel.pool_avg_region_wait_ms",
          ratio(static_cast<double>(t.c1.pool.submit_wait_ns - t.c0.pool.submit_wait_ns),
                regions) *
              1e-6,
          "ms");

  out.put("runtime.optimizer_cpu_ms", ms(t.optimizer.cpu_s), "ms");
  out.put("runtime.optimizer_wait_ms", ms(t.optimizer.wall_s - t.optimizer.cpu_s), "ms");
  out.put("runtime.batch_ms", ms(t.batch.wall_s), "ms");

  out.put("tensor.peak_device_mib", run.peak_device_bytes / (1024.0 * 1024.0), "MiB");
  out.put("tensor.allocs_per_step", per(static_cast<double>(t.c1.allocs - t.c0.allocs), n),
          "count");

  const double slots = static_cast<double>(serve_config().batch);
  out.put("serving.sched_cpu_ms", serving ? ms(t.session.cpu_s - t.forward.cpu_s) : 0, "ms");
  out.put("serving.sched_wait_ms",
          serving ? ms((t.session.wall_s - t.session.cpu_s) - (t.forward.wall_s - t.forward.cpu_s))
                  : 0,
          "ms");
  out.put("serving.batch_occupancy", ratio(t.active_slots, slots * static_cast<double>(n)),
          "frac");
  out.put("serving.replay_frac", ratio(t.replayed, t.fed), "frac");

  const double sim = t.c1.sim - t.c0.sim;
  out.put("sim.tok_per_s", ratio(t.tokens, sim), "tok/s");
  out.put("sim.step_ms", ms(sim), "ms");
  out.put("sim.compute_frac", ratio(t.c1.util.compute - t.c0.util.compute, sim), "frac");
  out.put("sim.align_wait_frac", ratio(t.c1.util.align_wait - t.c0.util.align_wait, sim), "frac");
  out.put("sim.transfer_frac", ratio(t.c1.util.transfer - t.c0.util.transfer, sim), "frac");
  out.put("sim.latency_p50_ms", t.latency_p50_s * 1e3, "ms");
  out.put("sim.latency_p99_ms", t.latency_p99_s * 1e3, "ms");

  out.put("wall.tok_per_s", ratio(u.tokens, u.wall1 - u.wall0), "tok/s");
  out.put("wall.step_p50_ms", median(u.step_wall_s) * 1e3, "ms");
  out.put("wall.cpu_per_wall", ratio(u.cpu1 - u.cpu0, u.wall1 - u.wall0), "ratio");

  out.put("obs.trace_overhead_frac", ratio(median(t.step_cpu_s), median(u.step_cpu_s)) - 1,
          "frac");

  // The lead step's wall time, and the part no timed public call covers.
  const double step_total = t.self.total("hostbench");
  const double remainder = t.self.self("hostbench");
  out.put("step.lead_ms", ms(step_total), "ms");
  out.put("step.unattributed_ms", ms(remainder), "ms");

  char buf[256];
  const double calls_wall = t.batch.wall_s + t.forward.wall_s + t.loss.wall_s +
                            t.backward.wall_s + t.optimizer.wall_s + t.session.wall_s -
                            (serving ? t.forward.wall_s : 0);
  std::snprintf(buf, sizeof buf,
                "traced lead step %.4f ms = timed calls %.4f ms + unattributed %.4f ms "
                "(over %zu steps)",
                ms(step_total), ms(calls_wall), ms(remainder), n);
  notes.emplace_back(buf);
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

optimus::model::TransformerConfig train_config() {
  optimus::model::TransformerConfig cfg;
  cfg.batch = 4;
  cfg.seq_len = 64;
  cfg.hidden = 256;
  cfg.heads = 8;
  cfg.vocab = 512;
  cfg.layers = 2;
  cfg.seed = 42;
  return cfg;
}

optimus::model::TransformerConfig serve_config() {
  optimus::model::TransformerConfig cfg;
  cfg.batch = 8;  // decode slots
  cfg.seq_len = 64;
  cfg.hidden = 128;
  cfg.heads = 8;
  cfg.vocab = 256;
  cfg.layers = 4;
  cfg.seed = 42;
  return cfg;
}

std::vector<os::Request> session_requests(std::uint64_t seed, std::size_t k, std::size_t count,
                                          double t0) {
  const auto cfg = serve_config();
  os::TrafficConfig tc;
  tc.rate = kArrivalRate;
  tc.count = count;
  tc.prompt_min = kPromptMin;
  tc.prompt_max = kPromptMax;
  tc.output_min = kOutputMin;
  tc.output_max = kOutputMax;
  tc.vocab = cfg.vocab;
  tc.capacity = cfg.seq_len;
  tc.seed = mix(seed, k);
  auto reqs = os::poisson_open_loop(tc);
  for (auto& r : reqs) r.arrival += t0;
  return reqs;
}

Result run_workload(const Options& o) {
  const Spec& spec = find_spec(o.workload);
  OPT_CHECK(o.seconds > 0 && o.seconds <= 600, "--seconds must be in (0, 600]");
  optimus::kernel::set_threads(kKernelThreads);

  const bool serve = spec.kind == Kind::kServe;
  Run run;
  run.setups.resize(kSetups);
  const std::size_t traced_min = serve ? kMinTracedSessions : kMinTracedTrainSteps;
  if (o.trace) {
    run.gate_untraced.emplace(o.seconds / 2, traced_min);
  } else {
    run.gate_untraced.emplace(o.seconds, serve ? kMinSessions : kMinTrainSteps);
  }
  run.gate_traced.emplace(o.seconds / 2, traced_min);
  for (int rep = 0; rep < kSetups; ++rep) {
    SetupSample& setup = run.setups[static_cast<std::size_t>(rep)];
    Run* timed = rep + 1 == kSetups ? &run : nullptr;
    Sampler sampler = make_sampler(o.seed);
    const double cpu0 = process_cpu_s();
    const double wall0 = wall_s();
    oc::run_cluster(spec.world, [&](oc::Context& ctx) {
      if (serve) {
        serve_body(ctx, o, setup, cpu0, wall0, timed);
      } else {
        train_body(ctx, spec, o, sampler, setup, cpu0, wall0, timed);
      }
    });
    if (!serve && rep == 0) {
      const ort::LmBatch first = make_sampler(o.seed)(0);
      const auto bytes = static_cast<std::size_t>(first.tokens.numel()) * sizeof(std::int32_t);
      run.input_digest = fnv1a(run.input_digest, first.tokens.data(), bytes);
    }
  }

  Result res;
  res.attempted = run.attempted;
  res.failed = run.failed;
  for (const SetupSample& s : run.setups) {
    if (s.digest != run.setups.front().digest) {
      run.errors.push_back("warm-up outputs differ between set-ups of one seed");
      break;
    }
  }
  if (!serve) {
    // Untrained, the model should be near chance: ln(vocab).
    const double chance = std::log(static_cast<double>(train_config().vocab));
    const double first = run.setups.front().first_loss;
    if (!(std::abs(first - chance) < 0.25 * chance)) {
      run.errors.push_back("first loss " + std::to_string(first) + " is far from chance " +
                           std::to_string(chance));
    }
  }
  if (run.failed > 0) run.errors.push_back(std::to_string(run.failed) + " operations failed");

  MetricSink sink(run.errors);
  if (o.trace) {
    per_layer(spec, run, sink, res.notes);
  } else {
    end_to_end(run, sink, res.notes);
  }
  res.metrics = sink.take();
  res.correct = run.errors.empty() && run.attempted > 0;

  char buf[160];
  std::snprintf(buf, sizeof buf, "input_digest %016llx",
                static_cast<unsigned long long>(run.input_digest));
  res.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "warmup_digest %016llx",
                static_cast<unsigned long long>(run.setups.front().digest));
  res.notes.emplace_back(buf);
  std::string setups = "setup CPU s of each set-up:";
  for (const SetupSample& s : run.setups) {
    std::snprintf(buf, sizeof buf, " %.4f", s.cpu_s);
    setups += buf;
  }
  res.notes.push_back(setups);
  std::snprintf(buf, sizeof buf, "output_digest %016llx over %zu timed steps",
                static_cast<unsigned long long>(run.output_digest), run.untraced.steps());
  res.notes.emplace_back(buf);
  for (const std::string& e : run.errors) res.notes.push_back("error: " + e);
  return res;
}

std::vector<double> train_losses(const std::string& workload, std::uint64_t seed, int steps) {
  const Spec& spec = find_spec(workload);
  OPT_CHECK(spec.kind != Kind::kServe, workload << " is not a training workload");
  Sampler next = make_sampler(seed);
  std::vector<double> losses;
  oc::run_cluster(spec.world, [&](oc::Context& ctx) {
    with_train_model(spec.kind, ctx, [&](auto& model) {
      ort::Adam<float> opt;
      for (int i = 0; i < steps; ++i) {
        const double loss = train_step(model, opt, next(ctx.rank), spec.engine, nullptr);
        if (ctx.rank == 0) losses.push_back(loss);
      }
    });
  });
  return losses;
}

std::vector<os::Request> serve_optimus(const std::vector<os::Request>& requests) {
  std::vector<os::Request> done;
  oc::run_cluster(4, [&](oc::Context& ctx) {
    const auto cfg = serve_config();
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<float> model(cfg, mesh);
    os::OptimusDecodeEngine<float> inner(model, cfg.batch);
    TimedDecodeEngine eng(inner);
    auto out = run_session(eng, requests, ctx, nullptr, false, nullptr);
    if (ctx.rank == 0) done = std::move(out);
  });
  return done;
}

}  // namespace hostbench
