// Text generation: trains a character-level language model on a small
// built-in corpus and then generates text with *distributed inference* on the
// Optimus mesh — the paper's lm-head branch end to end.
//
//   ./text_generation [--engine optimus|serial] [--steps 300] [--q 2]
//                     [--gen-chars 120] [--temperature 0.0] [--prompt "the "]
//
// Distributed generation walkthrough (engine = optimus, b = q streams):
//   * each mesh row owns one generation stream (batch axis is row-split);
//   * the lm-head logits block is computed with SUMMA Algorithm 2;
//   * the owning row all-gathers its vocabulary slices to see the full
//     distribution, samples the next character, and the columns exchange the
//     per-row choices so every device can assemble the next input window.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "core/optimus_model.hpp"
#include "mesh/mesh.hpp"
#include "model/serial_model.hpp"
#include "runtime/data.hpp"
#include "runtime/lr_schedule.hpp"
#include "runtime/optimizer.hpp"
#include "runtime/trainer.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace oc = optimus::comm;
namespace om = optimus::model;
namespace ort = optimus::runtime;
namespace ot = optimus::tensor;

namespace {

/// Greedy / temperature sampling from a full logits row.
std::int32_t sample_token(const std::vector<float>& logits, double temperature,
                          optimus::util::Rng& rng) {
  if (temperature <= 0.0) {
    return static_cast<std::int32_t>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
  }
  double mx = logits[0];
  for (double v : logits) mx = std::max(mx, v);
  std::vector<double> probs(logits.size());
  double z = 0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp((logits[i] - mx) / temperature);
    z += probs[i];
  }
  double u = rng.uniform() * z;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    u -= probs[i];
    if (u <= 0) return static_cast<std::int32_t>(i);
  }
  return static_cast<std::int32_t>(probs.size() - 1);
}

/// Masks the padded vocabulary tail (cfg.vocab is rounded up to a mesh
/// multiple) so sampling can never produce a token the corpus cannot decode.
void mask_padding_vocab(std::vector<float>& logits, ot::index_t real_vocab) {
  for (std::size_t vi = static_cast<std::size_t>(real_vocab); vi < logits.size(); ++vi) {
    logits[vi] = -1e30f;
  }
}

om::TransformerConfig corpus_config(const ort::CharCorpus& corpus, int q,
                                    ot::index_t batch) {
  om::TransformerConfig cfg;
  cfg.batch = batch;
  cfg.seq_len = 32;
  cfg.hidden = 32 * q;
  cfg.heads = 2 * q;
  // Round the corpus vocabulary up to a multiple of q (padding tokens are
  // simply never produced by the data).
  cfg.vocab = (corpus.vocab_size() + q - 1) / q * q;
  cfg.layers = 2;
  cfg.seed = 17;
  cfg.init_scale = 0.04;
  return cfg;
}

void run_serial(const ort::CharCorpus& corpus, int steps, int gen_chars, double temperature,
                const std::string& prompt) {
  const auto cfg = corpus_config(corpus, /*q=*/1, /*batch=*/8);
  om::SerialTransformer<float> model(cfg);
  ort::Adam<float> opt;
  ort::WarmupCosineLr schedule(3e-3, steps / 10 + 1, steps);
  optimus::util::Rng data_rng(3);
  auto losses = ort::train_lm(
      model, opt, schedule,
      [&] { return corpus.sample(cfg.batch, cfg.seq_len, data_rng); }, steps,
      std::max(1, steps / 6));
  std::cout << "final loss " << ort::tail_mean(losses, 10) << " (chance "
            << std::log(static_cast<double>(cfg.vocab)) << ")\n\ngenerated:\n";

  // KV-cached incremental generation at batch 1 — the prompt is fed once and
  // each new character costs a single decode step (the old path re-ran the
  // full context window every character, replicated across the training
  // batch). When the history outgrows the positional capacity the cache is
  // re-primed from the most recent half window (sliding-window hysteresis),
  // so the amortized cost stays O(1) forwards per character.
  auto cache = model.make_kv_cache(/*slots=*/1);
  std::vector<std::int32_t> context;
  for (char c : prompt) context.push_back(corpus.encode(c));
  if (context.empty()) context.push_back(corpus.encode(' '));
  std::size_t base = 0;  // first context index resident in the cache
  std::size_t fed = 0;   // context tokens already appended to the cache
  const auto feed_pending = [&] {
    if (context.size() - base > static_cast<std::size_t>(cfg.seq_len)) {
      base = context.size() - static_cast<std::size_t>(cfg.seq_len) / 2;
      cache.reset(0);
      fed = base;
    }
    ot::ITensor one(ot::Shape{1});
    while (fed < context.size()) {
      one[0] = context[fed++];
      model.forward_decode(one, cache);
    }
  };
  optimus::util::Rng gen_rng(9);
  std::string out = prompt;
  std::vector<float> last(static_cast<std::size_t>(cfg.vocab));
  for (int i = 0; i < gen_chars; ++i) {
    feed_pending();
    ot::Tensor logits = model.lm_logits_decode();  // [1, vocab]
    for (ot::index_t vi = 0; vi < cfg.vocab; ++vi) last[vi] = logits.at(0, vi);
    mask_padding_vocab(last, corpus.vocab_size());
    const std::int32_t next = sample_token(last, temperature, gen_rng);
    out.push_back(corpus.decode(next));
    context.push_back(next);
  }
  std::cout << out << "\n";
}

void run_optimus(const ort::CharCorpus& corpus, int steps, int gen_chars, double temperature,
                 const std::string& prompt, int q) {
  const auto cfg = corpus_config(corpus, q, /*batch=*/4 * q);
  std::cout << "training on a " << q << "x" << q << " mesh ("
            << cfg.parameter_count() << " parameters)\n";

  std::mutex mu;
  std::vector<std::string> streams(static_cast<std::size_t>(q));
  double final_loss = 0;
  // Shared batch cache so every rank trains on identical data.
  optimus::util::Rng data_rng(3);
  auto sampler = ort::make_cached_sampler(
      [&] { return corpus.sample(cfg.batch, cfg.seq_len, data_rng); });
  oc::run_cluster(q * q, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<float> engine(cfg, mesh);
    ort::Adam<float> opt;
    ort::WarmupCosineLr schedule(3e-3, steps / 10 + 1, steps);
    auto losses = ort::train_lm(
        engine, opt, schedule, [&] { return sampler(ctx.rank); }, steps);
    if (ctx.rank == 0) final_loss = ort::tail_mean(losses, 10);

    // --- Distributed generation: one stream per mesh row (b = q). ---
    // The engine was built for the training batch; rebuild at generation
    // batch b = q and copy the trained parameters over (shapes are identical,
    // only the batch axis changed).
    om::TransformerConfig gcfg = cfg;
    gcfg.batch = q;
    optimus::core::OptimusTransformer<float> genengine(gcfg, mesh);
    {
      auto src = engine.parameters();
      auto dst = genengine.parameters();
      for (std::size_t i = 0; i < src.size(); ++i) dst[i]->copy_from(*src[i]);
    }
    optimus::core::OptimusTransformer<float>* gen = &genengine;

    std::vector<std::int32_t> window(static_cast<std::size_t>(q * gcfg.seq_len));
    {
      // Every row starts from the same prompt.
      std::vector<std::int32_t> seed;
      for (char c : prompt) seed.push_back(corpus.encode(c));
      while (static_cast<ot::index_t>(seed.size()) < gcfg.seq_len) {
        seed.insert(seed.begin(), corpus.encode(' '));
      }
      for (int r = 0; r < q; ++r) {
        for (ot::index_t t = 0; t < gcfg.seq_len; ++t) {
          window[r * gcfg.seq_len + t] = seed[t];
        }
      }
    }
    optimus::util::Rng gen_rng(100 + mesh.row());  // same stream within a row
    std::vector<std::string> local(static_cast<std::size_t>(q));
    for (int i = 0; i < gen_chars; ++i) {
      ot::ITensor tokens = ot::ITensor::from_vector(ot::Shape{q, gcfg.seq_len}, window);
      gen->forward(tokens);
      ot::Tensor block = gen->lm_logits_block();  // [seq_len, v/q] (1 seq/row)
      // Assemble the full distribution of the last position across the row.
      const ot::index_t vq = gcfg.vocab / q;
      std::vector<float> full(static_cast<std::size_t>(gcfg.vocab));
      mesh.row_comm().all_gather(block.data() + (gcfg.seq_len - 1) * vq, vq, full.data());
      mask_padding_vocab(full, corpus.vocab_size());
      const std::int32_t mine = sample_token(full, temperature, gen_rng);
      // Exchange the per-row choices down the columns so every device can
      // build the next window.
      std::vector<std::int32_t> next(static_cast<std::size_t>(q));
      mesh.col_comm().all_gather(&mine, 1, next.data());
      for (int r = 0; r < q; ++r) {
        auto* row_window = window.data() + r * gcfg.seq_len;
        std::rotate(row_window, row_window + 1, row_window + gcfg.seq_len);
        row_window[gcfg.seq_len - 1] = next[static_cast<std::size_t>(r)];
        if (ctx.rank == 0) local[static_cast<std::size_t>(r)].push_back(corpus.decode(next[r]));
      }
    }
    if (ctx.rank == 0) {
      std::lock_guard<std::mutex> lock(mu);
      streams = local;
    }
  });
  std::cout << "final loss " << final_loss << " (chance "
            << std::log(static_cast<double>(cfg.vocab)) << ")\n";
  for (int r = 0; r < q; ++r) {
    std::cout << "\nstream " << r << " (mesh row " << r << "): " << prompt << streams[r]
              << "\n";
  }
}

}  // namespace

static int run_main(int argc, char** argv) {
  optimus::util::Cli cli(argc, argv);
  const std::string engine = cli.get_string("engine", "optimus");
  const int steps = cli.get_int("steps", 300);
  const int gen_chars = cli.get_int("gen-chars", 120);
  const double temperature = cli.get_double("temperature", 0.0);
  const std::string prompt = cli.get_string("prompt", "the ");
  const int q = cli.get_int("q", 2);
  cli.finish();
  OPT_CHECK(engine == "serial" || engine == "optimus",
            "--engine must be serial or optimus, got '" << engine << "'");

  ort::CharCorpus corpus(ort::CharCorpus::builtin_text());
  std::cout << "corpus: " << corpus.length() << " chars, vocab " << corpus.vocab_size()
            << "\n";
  if (engine == "serial") {
    run_serial(corpus, steps, gen_chars, temperature, prompt);
  } else {
    run_optimus(corpus, steps, gen_chars, temperature, prompt, q);
  }
  return 0;
}

int main(int argc, char** argv) {
  return optimus::util::guarded_main([&] { return run_main(argc, argv); });
}
