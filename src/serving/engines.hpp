#pragma once

// DecodeEngine: the uniform step interface the serving loop drives, with one
// adapter per execution engine. A step feeds one (global) token per cache
// slot, runs the KV-cached incremental forward, and returns the greedy
// (argmax) next token per slot — replicated on every rank, since the
// scheduler runs identically everywhere and must observe identical outputs.
//
// Argmax assembly per engine, each ending in one greedy_argmax scan over
// vocab blocks in global vocab order (ties break to the lowest id):
//   serial    logits are already dense [slots, v]: one block
//   Megatron  local [slots, v/p] vocab slice → all_gather → p blocks
//   Optimus   [slots/q, v/q] block → row all_gather (vocab) → column
//             all_gather (slot blocks) → q blocks per slot block
//
// The scans charge no multiplies and run after the final collective, so a
// decode step's simulated cost is exactly its collectives plus its GEMM
// compute — the closed form perfmodel::predict_decode_step_time models.

#include <cstdint>
#include <vector>

#include "comm/sim_clock.hpp"
#include "core/optimus_model.hpp"
#include "megatron/megatron_model.hpp"
#include "model/kv_cache.hpp"
#include "model/serial_model.hpp"
#include "serving/request.hpp"

namespace optimus::serving {

template <typename T>
class DecodeEngine {
 public:
  virtual ~DecodeEngine() = default;
  virtual tensor::index_t slots() const = 0;
  virtual tensor::index_t capacity() const = 0;
  virtual tensor::index_t vocab() const = 0;
  /// This rank's KV-cache shard footprint (tracked by the memory accountant).
  virtual std::uint64_t cache_bytes() const = 0;
  /// One decode step: tokens/active are the global per-slot vectors (every
  /// rank passes the same). Returns the argmax next token per slot.
  virtual std::vector<std::int32_t> step(const std::vector<std::int32_t>& tokens,
                                         const std::vector<std::uint8_t>& active) = 0;
  /// Frees a cache slot for reuse.
  virtual void reset_slot(tensor::index_t slot) = 0;
  /// Sequence length currently cached in a slot.
  virtual tensor::index_t slot_len(tensor::index_t slot) const = 0;
};

/// Greedy next token of each of `rows` rows whose vocabulary is stored as
/// `blocks` column blocks of `width` ids: block k of row r starts at
/// logits[(k·rows + r)·width] and holds global ids [k·width, (k+1)·width).
/// The first maximum in global id order wins, so ties break to the lowest id.
template <typename T>
void greedy_argmax(const T* logits, tensor::index_t rows, tensor::index_t blocks,
                   tensor::index_t width, std::int32_t* out) {
  for (tensor::index_t r = 0; r < rows; ++r) {
    T best_v{};
    tensor::index_t best = -1;
    for (tensor::index_t k = 0; k < blocks; ++k) {
      const T* blk = logits + (k * rows + r) * width;
      for (tensor::index_t j = 0; j < width; ++j) {
        if (best < 0 || blk[j] > best_v) {
          best_v = blk[j];
          best = k * width + j;
        }
      }
    }
    out[r] = static_cast<std::int32_t>(best);
  }
}

namespace detail {

inline tensor::ITensor to_itensor(const std::vector<std::int32_t>& v) {
  tensor::ITensor t(tensor::Shape{static_cast<tensor::index_t>(v.size())});
  for (std::size_t i = 0; i < v.size(); ++i) t[static_cast<tensor::index_t>(i)] = v[i];
  return t;
}

}  // namespace detail

/// Dense single-device oracle. No communicator drains the compute counter, so
/// the adapter drains it into the supplied clock (when given) after each step
/// — keeping the simulated timeline comparable with the distributed engines.
template <typename T>
class SerialDecodeEngine final : public DecodeEngine<T> {
 public:
  SerialDecodeEngine(model::SerialTransformer<T>& m, tensor::index_t slots,
                     comm::SimClock* clock = nullptr, const comm::CostModel* cost = nullptr)
      : model_(&m), cache_(m.make_kv_cache(slots)), clock_(clock), cost_(cost) {}

  tensor::index_t slots() const override { return cache_.slots(); }
  tensor::index_t capacity() const override { return cache_.capacity(); }
  tensor::index_t vocab() const override { return model_->config().vocab; }
  std::uint64_t cache_bytes() const override { return cache_.footprint_bytes(); }
  void reset_slot(tensor::index_t slot) override { cache_.reset(slot); }
  tensor::index_t slot_len(tensor::index_t slot) const override { return cache_.len(slot); }

  std::vector<std::int32_t> step(const std::vector<std::int32_t>& tokens,
                                 const std::vector<std::uint8_t>& active) override {
    const tensor::ITensor toks = detail::to_itensor(tokens);
    model_->forward_decode(toks, cache_, &active);
    const tensor::TensorT<T> logits = model_->lm_logits_decode();  // [slots, v]
    std::vector<std::int32_t> out(static_cast<std::size_t>(slots()));
    greedy_argmax(logits.data(), slots(), 1, vocab(), out.data());
    if (clock_ != nullptr && cost_ != nullptr) clock_->drain_compute(*cost_);
    return out;
  }

 private:
  model::SerialTransformer<T>* model_;
  model::KvCacheT<T> cache_;
  comm::SimClock* clock_;
  const comm::CostModel* cost_;
};

/// Megatron 1D: cache is column-sharded over heads, logits over vocab.
template <typename T>
class MegatronDecodeEngine final : public DecodeEngine<T> {
 public:
  MegatronDecodeEngine(megatron::MegatronTransformer<T>& m, comm::Communicator& comm,
                       tensor::index_t slots)
      : model_(&m), comm_(&comm), cache_(m.make_kv_cache(slots)) {}

  tensor::index_t slots() const override { return cache_.slots(); }
  tensor::index_t capacity() const override { return cache_.capacity(); }
  tensor::index_t vocab() const override { return model_->config().vocab; }
  std::uint64_t cache_bytes() const override { return cache_.footprint_bytes(); }
  void reset_slot(tensor::index_t slot) override { cache_.reset(slot); }
  tensor::index_t slot_len(tensor::index_t slot) const override { return cache_.len(slot); }

  std::vector<std::int32_t> step(const std::vector<std::int32_t>& tokens,
                                 const std::vector<std::uint8_t>& active) override {
    const tensor::ITensor toks = detail::to_itensor(tokens);
    model_->forward_decode(toks, cache_, &active);
    tensor::TensorT<T> local = model_->lm_logits_decode_local();  // [slots, v/p]
    const tensor::index_t n = slots();
    const tensor::index_t vl = model_->vocab_per_rank();
    const int p = comm_->size();
    std::vector<T> all(static_cast<std::size_t>(p) * static_cast<std::size_t>(n * vl));
    comm_->all_gather(local.data(), n * vl, all.data());
    std::vector<std::int32_t> out(static_cast<std::size_t>(n));
    greedy_argmax(all.data(), n, p, vl, out.data());
    return out;
  }

 private:
  megatron::MegatronTransformer<T>* model_;
  comm::Communicator* comm_;
  model::KvCacheT<T> cache_;
};

/// Optimus 2D: cache is row-split over slots and column-split over heads;
/// logits come back as q×q blocks and are assembled with one all-gather per
/// mesh dimension.
template <typename T>
class OptimusDecodeEngine final : public DecodeEngine<T> {
 public:
  OptimusDecodeEngine(core::OptimusTransformer<T>& m, tensor::index_t slots_global)
      : model_(&m), cache_(m.make_kv_cache(slots_global)), slots_global_(slots_global) {}

  tensor::index_t slots() const override { return slots_global_; }
  tensor::index_t capacity() const override { return cache_.capacity(); }
  tensor::index_t vocab() const override { return model_->config().vocab; }
  std::uint64_t cache_bytes() const override { return cache_.footprint_bytes(); }
  void reset_slot(tensor::index_t slot) override {
    // Global slot → this row's local shard (other rows' shards hold other
    // slot blocks; each rank resets only what it owns).
    const tensor::index_t nl = cache_.slots();
    const tensor::index_t row = static_cast<tensor::index_t>(model_->mesh().row());
    if (slot / nl == row) cache_.reset(slot % nl);
  }
  tensor::index_t slot_len(tensor::index_t slot) const override {
    const tensor::index_t nl = cache_.slots();
    const tensor::index_t row = static_cast<tensor::index_t>(model_->mesh().row());
    OPT_CHECK(slot / nl == row, "slot " << slot << " not hosted by mesh row " << row);
    return cache_.len(slot % nl);
  }

  std::vector<std::int32_t> step(const std::vector<std::int32_t>& tokens,
                                 const std::vector<std::uint8_t>& active) override {
    const tensor::ITensor toks = detail::to_itensor(tokens);
    model_->forward_decode(toks, cache_, &active);
    tensor::TensorT<T> block = model_->lm_logits_decode_block();  // [slots/q, v/q]
    const tensor::index_t q = model_->q();
    const tensor::index_t nl = cache_.slots();
    const tensor::index_t vq = model_->vocab_local();
    // Vocab direction (mesh row), then slot-block direction (mesh column).
    std::vector<T> row_all(static_cast<std::size_t>(q * nl * vq));
    model_->mesh().row_comm().all_gather(block.data(), nl * vq, row_all.data());
    std::vector<T> all(static_cast<std::size_t>(q * q * nl * vq));
    model_->mesh().col_comm().all_gather(row_all.data(), q * nl * vq, all.data());
    // Slot block i (mesh row) holds q vocab blocks (mesh columns).
    std::vector<std::int32_t> out(static_cast<std::size_t>(slots_global_));
    for (tensor::index_t i = 0; i < q; ++i) {
      greedy_argmax(all.data() + i * q * nl * vq, nl, q, vq, out.data() + i * nl);
    }
    return out;
  }

 private:
  core::OptimusTransformer<T>* model_;
  model::KvCacheT<T> cache_;
  tensor::index_t slots_global_;
};

}  // namespace optimus::serving
