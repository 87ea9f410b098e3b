#include "core/gate_sampler.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <utility>

#include "support/rng.h"
#include "support/thread_pool.h"

namespace dhtrng::core {

namespace {

/// Most power cycles one sampler simulates ahead.  A fourth would save
/// under ~10 % of a characterize report while holding one more simulator
/// (~75 KB) and one more thread.
constexpr std::size_t kMaxLookahead = 3;

/// Look-ahead depth D: one idle core per queued cycle, 0 on one core.
std::size_t lookahead_depth() {
  static const std::size_t depth = std::min(
      kMaxLookahead, support::ThreadPool::hardware_threads() - 1);
  return depth;
}

/// D workers shared by every sampler, so an array of gate-level cores
/// never multiplies threads.  Built on the first look-ahead: a sampler
/// that never restarts twice alike starts no thread.
support::ThreadPool& lookahead_pool() {
  static support::ThreadPool pool(lookahead_depth());
  return pool;
}

}  // namespace

struct GateSampler::Ahead {
  /// kQueued -> kRunning when a worker starts the run; -> kTaken when
  /// restart() or the destructor takes the cycle back.  A worker skips a
  /// taken cycle, and stops a running one between steps once it is taken.
  enum State : int { kQueued, kRunning, kTaken };

  std::unique_ptr<sim::Simulator> sim;
  std::atomic<int> state{kQueued};
  std::future<void> done;  ///< the worker's run, and any error it threw
};

GateSampler::GateSampler(sim::Circuit circuit, std::size_t out_dff,
                         double dt_ps, const fpga::DeviceModel& device,
                         const noise::PvtScaling& scale,
                         noise::NoiseMode noise_mode, std::uint64_t seed)
    : circuit_(std::make_unique<const sim::Circuit>(std::move(circuit))),
      out_dff_(out_dff),
      dt_ps_(dt_ps),
      seed_(seed) {
  config_.gate_jitter = device.gate_jitter;
  config_.scaling = scale;
  config_.noise_mode = noise_mode;
  sim_ = power_on(0);
}

GateSampler::~GateSampler() { cancel_ahead(); }

GateSampler::GateSampler(GateSampler&&) noexcept = default;

GateSampler& GateSampler::operator=(GateSampler&& other) noexcept {
  if (this != &other) {
    // This sampler's queued cycles run over its circuit: settle them
    // before the circuit goes.
    std::destroy_at(this);
    std::construct_at(this, std::move(other));
  }
  return *this;
}

void GateSampler::restart() {
  const bool steady = cycle_bits_ > 0 && cycle_bits_ == last_cycle_bits_;
  last_cycle_bits_ = cycle_bits_;
  cycle_bits_ = 0;
  ++restarts_;
  sim_ = take_ahead();
  if (!sim_) sim_ = power_on(restarts_);
  if (steady && lookahead_depth() > 0) queue_ahead(last_cycle_bits_);
}

std::unique_ptr<sim::Simulator> GateSampler::power_on(
    std::uint64_t cycle) const {
  sim::SimConfig config = config_;
  config.seed = cycle == 0 ? seed_ : support::SplitMix64(seed_ + cycle).next();
  auto sim = std::make_unique<sim::Simulator>(*circuit_, config);
  sim->record_dff(out_dff_);
  return sim;
}

std::unique_ptr<sim::Simulator> GateSampler::take_ahead() {
  if (ahead_.empty()) return nullptr;
  const std::shared_ptr<Ahead> a = std::move(ahead_.front());
  ahead_.erase(ahead_.begin());
  int queued = Ahead::kQueued;
  if (!a->state.compare_exchange_strong(queued, Ahead::kTaken)) {
    // A worker is running it.  A run that threw is discarded: the cycle is
    // rebuilt inline, so the error (a pure function of the cycle, like its
    // bits) surfaces from the same next_bit() as on the serial path.
    try {
      a->done.get();
    } catch (...) {
      return nullptr;
    }
  }
  return std::move(a->sim);
}

void GateSampler::queue_ahead(std::uint64_t samples) {
  support::ThreadPool& pool = lookahead_pool();
  while (ahead_.size() < lookahead_depth()) {
    // Built here so the simulator's memory comes from this thread's arena;
    // the worker only runs it.
    auto a = std::make_shared<Ahead>();
    a->sim = power_on(restarts_ + ahead_.size() + 1);
    // The task holds the cycle weakly: `a->done` holds the task, so a
    // strong hold would keep both alive for good.
    a->done = pool.submit([weak = std::weak_ptr<Ahead>(a), samples,
                           out_dff = out_dff_, dt_ps = dt_ps_] {
      const std::shared_ptr<Ahead> cycle = weak.lock();
      if (!cycle) return;  // dropped before a worker got to it
      int queued = Ahead::kQueued;
      if (!cycle->state.compare_exchange_strong(queued, Ahead::kRunning)) {
        return;
      }
      sim::Simulator& sim = *cycle->sim;
      const std::vector<std::uint8_t>& buffered = sim.samples(out_dff);
      // The steps next_sample() takes, so the state after each is the
      // serial one.
      while (buffered.size() < samples && cycle->state == Ahead::kRunning) {
        sim.run_until(sim.now() + dt_ps);
      }
    });
    ahead_.push_back(std::move(a));
  }
}

void GateSampler::cancel_ahead() noexcept {
  for (const std::shared_ptr<Ahead>& a : ahead_) {
    if (a->state.exchange(Ahead::kTaken) == Ahead::kRunning) a->done.wait();
    a->sim.reset();  // freed here, while its circuit lives
  }
  ahead_.clear();
}

}  // namespace dhtrng::core
