#pragma once

// Cluster topology and the α-β communication cost model.
//
// The paper's testbed is nodes of `gpus_per_node` GPUs joined by InfiniBand;
// communication within a node is cheaper than across nodes, and Figure 8
// shows that *how* the q×q mesh is laid onto nodes changes how many devices
// contend for each node's uplink. We model:
//
//   * node_of(rank)  — either the naive row-major packing (Fig. 8a) or the
//     bunched tile packing (Fig. 8b) that keeps an r×c sub-square of the mesh
//     on one node.
//   * beta_eff(group) — beta_intra for single-node groups; for multi-node
//     groups, beta_inter scaled by the uplink contention factor
//     gpus_per_node / (members of this group per node), because all parallel
//     rows/columns run their collectives simultaneously and share the NIC.
//
// Collective time formulas match the paper's §2.5:
//   tree (broadcast/reduce):    ceil(log2 g) · (α + β·B)
//   ring all-reduce:            2(g−1) · (α + β·B/g)
//   ring all-gather / reduce-scatter: (g−1) · (α + β·B/g)
// with B the payload in bytes, plus the one the paper does not price:
//   dissemination barrier:      2·ceil(log2 g) · α
// Communicator charges exactly these; it computes no time of its own.

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace optimus::comm {

enum class Arrangement {
  kNaive,    // node = rank / gpus_per_node (Fig. 8a)
  kBunched,  // square mesh tiles per node (Fig. 8b)
};

Arrangement parse_arrangement(const std::string& name);

class Topology {
 public:
  /// `mesh_q` is the mesh side when ranks form a q×q mesh (used by the bunched
  /// packing); pass 0 for a flat 1-D rank space (Megatron), where bunched
  /// degenerates to naive.
  Topology(int world_size, int gpus_per_node, Arrangement arrangement, int mesh_q = 0);

  int world_size() const { return world_size_; }
  int gpus_per_node() const { return gpus_per_node_; }
  int num_nodes() const { return num_nodes_; }
  Arrangement arrangement() const { return arrangement_; }

  int node_of(int rank) const {
    OPT_DCHECK(rank >= 0 && rank < world_size_, "rank " << rank);
    return node_of_[rank];
  }

  /// True if every rank in `group` lives on one node.
  bool single_node(const std::vector<int>& group) const;

  /// Max number of `group` members that share any one node.
  int max_members_per_node(const std::vector<int>& group) const;

 private:
  int world_size_;
  int gpus_per_node_;
  int num_nodes_;
  Arrangement arrangement_;
  std::vector<int> node_of_;
};

/// α-β-γ machine constants. Defaults are calibrated against the paper's
/// Megatron weak-scaling measurements (see perfmodel::calibrate_frontera).
struct MachineParams {
  double alpha = 2.0e-5;        // per-message latency, seconds
  double beta_intra = 1.0e-10;  // seconds per byte within a node (~10 GB/s)
  double beta_inter = 8.0e-10;  // seconds per byte across nodes (~1.25 GB/s effective)
  double flop_rate = 2.0e12;    // scalar multiply-accumulates per second per device

  /// Unit-cost model: time == "weighted scalars" (α=0, β=1/scalar, R=∞ is not
  /// representable; use flop_rate huge). Used to validate Table 1 exactly.
  static MachineParams unit_cost();
};

/// What a collective over one group costs per call, priced once: its size and
/// its effective per-byte cost (CostModel::beta_eff). A Communicator prices
/// its group when it is made; the time formulas below take this price.
struct GroupCost {
  int size = 1;
  double beta = 0;
};

class CostModel {
 public:
  CostModel(const Topology& topo, const MachineParams& params)
      : topo_(&topo), params_(params) {}

  const MachineParams& params() const { return params_; }
  const Topology& topology() const { return *topo_; }

  /// Effective per-byte cost for a collective over `group`.
  double beta_eff(const std::vector<int>& group) const;

  /// {group size, beta_eff(group)}.
  GroupCost price(const std::vector<int>& group) const;

  double tree_time(const GroupCost& group, std::uint64_t bytes) const;

  /// Chunked-pipeline plan for a tree collective (broadcast/reduce). Large
  /// payloads on deep trees are split into C chunks streamed down the tree:
  /// with d = ceil(log2 g) rounds the pipelined time is
  /// (C + d − 1)·(α + β·B/C), which beats the plain d·(α + β·B) whenever the
  /// per-chunk latency is small against the serialised transfer. chunks == 1
  /// (time == tree_time) is returned for small payloads, shallow trees or
  /// α == 0 cost models, so the unit-cost validation forms are untouched.
  struct TreePlan {
    int chunks = 1;
    double time = 0;
  };
  TreePlan tree_plan(const GroupCost& group, std::uint64_t bytes) const;
  double ring_allreduce_time(const GroupCost& group, std::uint64_t bytes) const;
  double ring_allgather_time(const GroupCost& group, std::uint64_t total_bytes) const;
  double ring_reducescatter_time(const GroupCost& group, std::uint64_t total_bytes) const;
  /// Dissemination barrier, latency only: 2·⌈log₂g⌉·α.
  double barrier_time(const GroupCost& group) const;
  double p2p_time(int src, int dst, std::uint64_t bytes) const;

  double compute_time(std::uint64_t mults) const {
    return static_cast<double>(mults) / params_.flop_rate;
  }

 private:
  const Topology* topo_;
  MachineParams params_;
};

/// ceil(log2(n)) for n >= 1.
int log2_ceil(int n);

}  // namespace optimus::comm
