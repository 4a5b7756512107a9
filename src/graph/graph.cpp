#include "graph/graph.hpp"

#include <deque>
#include <limits>

#include "common/binary_io.hpp"
#include "common/bitset.hpp"

namespace algas {

std::size_t Graph::valid_degree(NodeId v) const {
  std::size_t count = 0;
  for (NodeId n : neighbors(v)) {
    if (n != kInvalidNode) ++count;
  }
  return count;
}

Graph::Stats Graph::stats() const {
  Stats s;
  if (num_nodes_ == 0) return s;
  s.min_degree = degree_;
  double total = 0.0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const std::size_t d = valid_degree(v);
    total += static_cast<double>(d);
    s.min_degree = std::min(s.min_degree, d);
    s.max_degree = std::max(s.max_degree, d);
  }
  s.avg_degree = total / static_cast<double>(num_nodes_);

  Bitset seen(num_nodes_);
  std::deque<NodeId> frontier{entry_point_};
  seen.set(entry_point_);
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    for (NodeId n : neighbors(v)) {
      if (n == kInvalidNode || seen.test(n)) continue;
      seen.set(n);
      ++reached;
      frontier.push_back(n);
    }
  }
  s.reachable_fraction =
      static_cast<double>(reached) / static_cast<double>(num_nodes_);
  return s;
}

constexpr Magic kMagic = {'A', 'L', 'G', 'A', 'S', 'G', 'R', '1'};

void Graph::save(BinaryWriter& out) const {
  out.magic(kMagic);
  out.pod(static_cast<std::uint64_t>(num_nodes_));
  out.pod(static_cast<std::uint64_t>(degree_));
  out.pod(static_cast<std::uint32_t>(entry_point_));
  out.array(adj_);
}

void Graph::save(const std::string& path) const {
  BinaryWriter out(path);
  save(out);
  out.finish();
}

Graph Graph::load(BinaryReader& in) {
  in.expect_magic(kMagic, "graph magic");
  const auto n = in.pod<std::uint64_t>("graph node count");
  const auto d = in.pod<std::uint64_t>("graph degree");
  const auto ep = in.pod<std::uint32_t>("graph entry point");
  // Node ids are u32, so more nodes (or distinct neighbors) than NodeId can
  // index is corrupt, not merely big; it also keeps n * d from overflowing.
  if (n > std::numeric_limits<NodeId>::max() ||
      d > std::numeric_limits<NodeId>::max()) {
    in.fail("graph header", std::to_string(n) + " nodes of degree " +
                                std::to_string(d) + " overflow NodeId");
  }
  if (n > 0 && ep >= n) {
    in.fail("graph entry point", std::to_string(ep) + " out of range for " +
                                     std::to_string(n) + " nodes");
  }
  Graph g;
  g.adj_ = in.array<NodeId>(n * d, "graph adjacency");
  g.num_nodes_ = static_cast<std::size_t>(n);
  g.degree_ = static_cast<std::size_t>(d);
  if (n > 0) g.set_entry_point(ep);
  for (const NodeId id : g.adj_) {
    if (id != kInvalidNode && static_cast<std::uint64_t>(id) >= n) {
      in.fail("graph adjacency", "neighbor id " + std::to_string(id) +
                                     " out of range for " + std::to_string(n) +
                                     " nodes");
    }
  }
  return g;
}

Graph Graph::load(const std::string& path) {
  BinaryReader in(path);
  Graph g = load(in);
  in.finish();
  return g;
}

}  // namespace algas
