#pragma once

// Synthetic workload generators.
//
// The paper evaluates throughput/memory only (no accuracy), so the shape of
// the data — (b, s, v) — is what matters. These generators provide:
//
//   * RandomLmWorkload    — uniform token streams; the benchmark workload.
//   * PatternLmWorkload   — periodic sequences the model can actually learn,
//                           used by tests/examples to show loss → 0.
//   * SyntheticClsWorkload — linearly separable class-conditional token
//                           distributions for the classification branch.
//   * CharCorpus          — a character-level corpus for the text-generation
//                           example (encode/decode + batch sampling).
//
// All generators are deterministic given their seed.

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "tensor/device_context.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace optimus::runtime {

struct LmBatch {
  tensor::ITensor tokens;  // [b, s]
  tensor::ITensor labels;  // [b, s] next-token targets, last position masked
};

struct ClsBatch {
  tensor::ITensor tokens;  // [b, s]
  tensor::ITensor labels;  // [b]
};

class RandomLmWorkload {
 public:
  RandomLmWorkload(tensor::index_t batch, tensor::index_t seq_len, tensor::index_t vocab,
                   std::uint64_t seed)
      : batch_(batch), seq_len_(seq_len), vocab_(vocab), rng_(seed) {}

  LmBatch next();

 private:
  tensor::index_t batch_, seq_len_, vocab_;
  util::Rng rng_;
};

/// Sequences of the form x_t = (offset + t) mod period mapped into the vocab;
/// after seeing one period, the next token is exactly predictable.
class PatternLmWorkload {
 public:
  PatternLmWorkload(tensor::index_t batch, tensor::index_t seq_len, tensor::index_t vocab,
                    tensor::index_t period, std::uint64_t seed)
      : batch_(batch), seq_len_(seq_len), vocab_(vocab), period_(period), rng_(seed) {
    OPT_CHECK(period >= 2 && period <= vocab, "period must be in [2, vocab]");
  }

  LmBatch next();

 private:
  tensor::index_t batch_, seq_len_, vocab_, period_;
  util::Rng rng_;
};

/// Class c draws tokens from the vocab band [c·v/C, (c+1)·v/C) with
/// probability `purity` and uniformly otherwise — separable for purity > 1/C.
class SyntheticClsWorkload {
 public:
  SyntheticClsWorkload(tensor::index_t batch, tensor::index_t seq_len, tensor::index_t vocab,
                       tensor::index_t num_classes, double purity, std::uint64_t seed)
      : batch_(batch),
        seq_len_(seq_len),
        vocab_(vocab),
        classes_(num_classes),
        purity_(purity),
        rng_(seed) {
    OPT_CHECK(num_classes >= 2 && vocab >= num_classes, "need v >= C >= 2");
  }

  ClsBatch next();

 private:
  tensor::index_t batch_, seq_len_, vocab_, classes_;
  double purity_;
  util::Rng rng_;
};

/// Wraps a batch source shared by the lock-stepped ranks of a simulated
/// cluster. Every rank calls `sampler(rank)` and observes the identical
/// batch sequence, while the source is drawn exactly once per position (the
/// first consumer to reach a position fills the cache; stragglers replay it).
/// Copies of the returned functor share one cache, so it can be captured by
/// value into a cluster body. Replaces the hand-rolled static-cache lambdas
/// the examples used to carry. The source runs on the sampler's own
/// DeviceContext: which rank reaches a position first depends on the
/// interleaving, so the shared cache is charged to no rank.
template <typename Source>
auto make_cached_sampler(Source source) {
  using Batch = decltype(source());
  struct State {
    explicit State(Source s) : src(std::move(s)) {}
    std::mutex mu;
    Source src;
    tensor::DeviceContext host;
    std::vector<Batch> cache;
    std::vector<std::size_t> cursor;  // per-rank read position
  };
  auto state = std::make_shared<State>(std::move(source));
  return [state](int rank) -> Batch {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->cursor.size() <= static_cast<std::size_t>(rank)) {
      state->cursor.resize(static_cast<std::size_t>(rank) + 1, 0);
    }
    const std::size_t i = state->cursor[static_cast<std::size_t>(rank)]++;
    if (i >= state->cache.size()) {
      tensor::ScopedDevice on_host(state->host);
      state->cache.push_back(state->src());
    }
    return state->cache[i];
  };
}

/// Character-level corpus: vocabulary = distinct bytes of the text.
class CharCorpus {
 public:
  explicit CharCorpus(std::string text);

  tensor::index_t vocab_size() const { return static_cast<tensor::index_t>(chars_.size()); }
  tensor::index_t length() const { return static_cast<tensor::index_t>(encoded_.size()); }

  /// Samples b random windows of length s+1; tokens are the first s chars,
  /// labels the last s (standard next-char objective, nothing masked).
  LmBatch sample(tensor::index_t batch, tensor::index_t seq_len, util::Rng& rng) const;

  std::int32_t encode(char c) const;
  char decode(std::int32_t token) const;
  std::string decode(const std::vector<std::int32_t>& tokens) const;

  /// A built-in public-domain-style snippet used by the examples.
  static const char* builtin_text();

 private:
  std::string chars_;                 // index → char
  std::array<std::int32_t, 256> to_index_;
  std::vector<std::int32_t> encoded_;
};

}  // namespace optimus::runtime
