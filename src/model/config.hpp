#pragma once

// Transformer configuration shared by the serial oracle and both distributed
// engines, following the paper's symbol conventions (§2.1):
//
//   b = batch, s = sequence length, h = hidden size, n = attention heads,
//   v = vocabulary, N = transformer layers, p = devices, q = √p.

#include <cstdint>

#include "tensor/shape.hpp"
#include "util/check.hpp"

namespace optimus::model {

struct TransformerConfig {
  tensor::index_t batch = 4;      // b
  tensor::index_t seq_len = 8;    // s
  tensor::index_t hidden = 16;    // h
  tensor::index_t heads = 4;      // n
  tensor::index_t vocab = 32;     // v
  tensor::index_t layers = 2;     // N
  tensor::index_t mlp_ratio = 4;  // MLP expands h → mlp_ratio·h
  tensor::index_t num_classes = 2;  // classification-branch labels
  bool causal = true;             // causal attention mask (LM convention)
  double layernorm_eps = 1e-5;
  double init_scale = 0.05;       // weights ~ U[−init_scale, init_scale]
  std::uint64_t seed = 1234;      // drives counter-based parameter init

  tensor::index_t head_dim() const { return hidden / heads; }
  tensor::index_t ffn_hidden() const { return mlp_ratio * hidden; }
  tensor::index_t tokens_per_batch() const { return batch * seq_len; }

  /// Throws unless every entry of `ids` (token ids, or labels when `labels`:
  /// a negative label masks its position) is a row of the vocabulary. Every
  /// rank holds the same global ids, so all ranks throw before any collective.
  template <typename Ids>
  void check_vocab_ids(const Ids& ids, bool labels, const char* op) const {
    for (tensor::index_t i = 0; i < ids.numel(); ++i) {
      OPT_CHECK(ids[i] < vocab && (labels || ids[i] >= 0),
                op << ": " << (labels ? "label " : "token id ") << ids[i] << " at index " << i
                   << " outside vocab [0, " << vocab << ")");
    }
  }

  /// Total parameter count of the stem + embedding + heads.
  std::uint64_t parameter_count() const;

  /// Validity for serial execution.
  void validate() const {
    OPT_CHECK(batch >= 1 && seq_len >= 1 && hidden >= 1 && heads >= 1 && vocab >= 2 &&
                  layers >= 1 && mlp_ratio >= 1,
              "non-positive transformer dimension");
    OPT_CHECK(hidden % heads == 0, "hidden " << hidden << " not divisible by heads " << heads);
  }

  /// Additional divisibility the q×q Optimus layout needs (§3.2.1): the batch
  /// and hidden axes split q ways, heads stay whole per device column, and
  /// the vocabulary splits q ways for the 2D embedding/lm-head. At depth > 1
  /// (the Tesseract q×q×d mesh) every SUMMA contraction block further splits
  /// d ways into per-depth sub-panels, so each global contraction dimension
  /// the engine multiplies over — hidden (and through it 3h and the FFN
  /// width), vocab, and the token rows b·s/q of the weight-gradient Aᵀ·B
  /// calls — must divide by q·d.
  void validate_for_mesh(int q, int depth = 1) const {
    validate();
    OPT_CHECK(batch % q == 0, "batch " << batch << " not divisible by q " << q);
    OPT_CHECK(hidden % q == 0, "hidden " << hidden << " not divisible by q " << q);
    OPT_CHECK(heads % q == 0, "heads " << heads << " not divisible by q " << q);
    OPT_CHECK(vocab % q == 0, "vocab " << vocab << " not divisible by q " << q);
    OPT_CHECK(num_classes >= 1, "num_classes");
    OPT_CHECK(depth >= 1, "mesh depth " << depth);
    if (depth > 1) {
      OPT_CHECK(hidden % (static_cast<tensor::index_t>(q) * depth) == 0,
                "hidden " << hidden << " not divisible by q*d " << q * depth);
      OPT_CHECK(vocab % (static_cast<tensor::index_t>(q) * depth) == 0,
                "vocab " << vocab << " not divisible by q*d " << q * depth);
      OPT_CHECK((batch / q * seq_len) % depth == 0,
                "token rows " << batch / q * seq_len << " not divisible by depth " << depth);
    }
  }

  /// Divisibility Megatron's 1D layout needs: every device owns n/p whole
  /// heads and 1/p of each weight matrix's split dimension.
  void validate_for_1d(int p) const {
    validate();
    OPT_CHECK(heads % p == 0, "heads " << heads << " not divisible by devices " << p);
    OPT_CHECK(ffn_hidden() % p == 0, "ffn hidden not divisible by devices " << p);
    OPT_CHECK(vocab % p == 0, "vocab " << vocab << " not divisible by devices " << p);
  }
};

}  // namespace optimus::model
