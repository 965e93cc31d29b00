#include "runtime/optimizer.hpp"

#include <cmath>

#include "kernel/elementwise.hpp"

namespace optimus::runtime {

namespace {

using tensor::index_t;
using tensor::TensorT;

template <typename T>
void ensure_slots(std::vector<TensorT<T>>& slots,
                  const std::vector<TensorT<T>*>& params) {
  if (!slots.empty()) {
    OPT_CHECK(slots.size() == params.size(),
              "optimizer state holds " << slots.size() << " slots, got " << params.size()
                                       << " parameters");
    return;
  }
  slots.reserve(params.size());
  for (const auto* p : params) slots.push_back(TensorT<T>::zeros(p->shape()));
}

}  // namespace

template <typename T>
void Sgd<T>::step(const std::vector<TensorT<T>*>& params,
                  const std::vector<TensorT<T>*>& grads, double lr) {
  OPT_CHECK(params.size() == grads.size(), "params/grads size mismatch");
  const bool momentum = options_.momentum != 0.0;
  if (momentum) ensure_slots(velocity_, params);
  const T mu = static_cast<T>(options_.momentum);
  const T wd = static_cast<T>(options_.weight_decay);
  const T step_size = static_cast<T>(lr);
  for (std::size_t i = 0; i < params.size(); ++i) {
    TensorT<T>& p = *params[i];
    const TensorT<T>& g = *grads[i];
    OPT_CHECK(p.numel() == g.numel(), "param/grad shape mismatch at index " << i);
    const index_t n = p.numel();
    T* pp = p.data();
    const T* gp = g.data();
    if (momentum) {
      T* vp = velocity_[i].data();
      for (index_t k = 0; k < n; ++k) {
        const T eff = gp[k] + wd * pp[k];
        vp[k] = mu * vp[k] + eff;
        pp[k] -= step_size * vp[k];
      }
    } else if (wd != T{0}) {
      for (index_t k = 0; k < n; ++k) pp[k] -= step_size * (gp[k] + wd * pp[k]);
    } else {
      for (index_t k = 0; k < n; ++k) pp[k] -= step_size * gp[k];
    }
  }
}

template <typename T>
void Adam<T>::step(const std::vector<TensorT<T>*>& params,
                   const std::vector<TensorT<T>*>& grads, double lr) {
  OPT_CHECK(params.size() == grads.size(), "params/grads size mismatch");
  ensure_slots(m_, params);
  ensure_slots(v_, params);
  t_ += 1;
  const double b1 = options_.beta1;
  const double b2 = options_.beta2;
  const kernel::AdamCoefficients<T> c{
      .beta1 = static_cast<T>(b1),
      .one_minus_beta1 = static_cast<T>(1.0 - b1),
      .beta2 = static_cast<T>(b2),
      .one_minus_beta2 = static_cast<T>(1.0 - b2),
      .bias1 = static_cast<T>(1.0 - std::pow(b1, static_cast<double>(t_))),
      .bias2 = static_cast<T>(1.0 - std::pow(b2, static_cast<double>(t_))),
      .eps = static_cast<T>(options_.eps),
      .weight_decay = static_cast<T>(options_.weight_decay),
      .lr = static_cast<T>(lr)};
  for (std::size_t i = 0; i < params.size(); ++i) {
    TensorT<T>& p = *params[i];
    const TensorT<T>& g = *grads[i];
    OPT_CHECK(p.numel() == g.numel(), "param/grad shape mismatch at index " << i);
    kernel::adam_update(p.data(), g.data(), m_[i].data(), v_[i].data(), p.numel(), c);
  }
}

template <typename T>
T global_grad_norm(const std::vector<TensorT<T>*>& grads, comm::Communicator* world) {
  T sq{0};
  for (const auto* g : grads) {
    const T* gp = g->data();
    const index_t n = g->numel();
    for (index_t k = 0; k < n; ++k) sq += gp[k] * gp[k];
  }
  if (world != nullptr) world->all_reduce(&sq, 1);
  return std::sqrt(sq);
}

template <typename T>
T clip_grad_norm(const std::vector<TensorT<T>*>& grads, T max_norm,
                 comm::Communicator* world) {
  const T norm = global_grad_norm(grads, world);
  if (norm > max_norm && norm > T{0}) {
    const T factor = max_norm / norm;
    for (auto* g : grads) tensor::ops::scale_(*g, factor);
  }
  return norm;
}

#define OPTIMUS_INSTANTIATE_OPT(T)                                                \
  template class Sgd<T>;                                                          \
  template class Adam<T>;                                                         \
  template T global_grad_norm<T>(const std::vector<TensorT<T>*>&,                 \
                                 comm::Communicator*);                            \
  template T clip_grad_norm<T>(const std::vector<TensorT<T>*>&, T,                \
                               comm::Communicator*);

OPTIMUS_INSTANTIATE_OPT(float)
OPTIMUS_INSTANTIATE_OPT(double)

#undef OPTIMUS_INSTANTIATE_OPT

}  // namespace optimus::runtime
