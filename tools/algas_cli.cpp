// algas_cli — operational front-end for the library.
//
//   algas_cli gen    --name sift --n 20000 --q 200 --out ds.abin
//   algas_cli gt     --dataset ds.abin --k 100 [--threads N] --out ds.abin
//   algas_cli import --name my --base b.fvecs --query q.fvecs
//                    [--gt gt.ivecs] [--metric l2|cosine|ip] --out ds.abin
//   algas_cli build  --dataset ds.abin --kind nsw|cagra --degree 32
//                    [--ef 64] [--storage f32|f16|int8] [--threads N]
//                    [--batch N] --out graph.agr
//                    (--threads 0 = ALGAS_BUILD_THREADS, then hardware; the
//                    graph is byte-identical for any thread count)
//   algas_cli stats  --dataset ds.abin [--graph graph.agr]
//   algas_cli search --dataset ds.abin --graph graph.agr [--engine algas|
//                    cagra|ganns|ivf] [--topk 16] [--list 128] [--slots 16]
//                    [--nparallel 4] [--beam 4] [--queries N] [--sync
//                    mirrored|naive|blocking] [--nprobe 8]
//                    [--storage f32|f16|int8]  (base-row codec; see DESIGN.md)
//                    [--trace out.json]  (SimTrace timeline; open in Perfetto)
//                    (--index idx.amx replaces --graph: serve a mutable-index
//                    snapshot, tombstones excluded from results)
//                    [--shards K]  (scatter-gather over K simulated devices;
//                    per-shard graphs are built from --degree/--ef/--threads,
//                    so --graph is not needed) [--fanout F] (probe only the
//                    F closest shards; 0 = all) [--router-centroids 8]
//                    [--filter cat=K | ts<T]  (serve only rows whose
//                    category equals K / timestamp is below T; needs a
//                    dataset with attributes. The engine filters DURING
//                    traversal with a selectivity-widened candidate list
//                    and reports recall against filtered ground truth.)
//   algas_cli insert --dataset ds.abin --rows new.fvecs
//                    [--index idx.amx | --graph graph.agr]  (start point;
//                    neither = bootstrap from an empty dataset)
//                    [--degree 32] [--ef 64] [--batch N] [--threads N]
//                    [--out-index idx.amx] [--out-dataset ds.abin]
//                    (outputs default to updating --index / --dataset
//                    in place; both files must travel together)
//   algas_cli delete --dataset ds.abin --index idx.amx --ids 3,17,42
//                    [--compact 1] [--out-index ...] [--out-dataset ...]
//   algas_cli serve  --dataset ds.abin [--arrival poisson|bursty]
//                    [--rate 1000] [--burst-rate 0] [--deadline-us 0]
//                    [--capacity N] [--policy reject|drop-oldest]
//                    [--high-priority 0.0] [--queries N] [--seed 1]
//                    [--shards 1] [--topk 16] [--list 128] [--slots 16]
//                    [--nparallel 4] [--beam 4] [--hosts 1]
//                    [--degree 32] [--ef 64] [--threads N]
//                    [--filter cat=K | ts<T]  (as in search)
//                    (open-loop run: queries arrive on the generated
//                    schedule; --capacity bounds the host queue and
//                    --deadline-us sheds/evicts late queries. Per-shard
//                    graphs are built from the construction flags.)
//
// Flag precedence follows the repo-wide rule (common/env.hpp): an explicit
// CLI flag wins, then the ALGAS_* environment variable, then the compiled
// default. Every command prints a short human-readable report to stdout.
// A flag the command does not read, or a number that does not parse or fit,
// is an error (exit 1) raised before any file is written.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "algas.hpp"

using namespace algas;

namespace {

/// Unsigned decimal `text` no larger than `max`, or invalid_argument
/// naming `flag`. No sign, no whitespace, no trailing characters:
/// strtoull alone would read "-1" as 2^64-1 and "abc" as 0.
std::uint64_t parse_unsigned(const std::string& flag, const std::string& text,
                             std::uint64_t max) {
  const auto bad = [&](const char* what) {
    return std::invalid_argument(flag + ": " + what + ": '" + text + "'");
  };
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    throw bad("not an unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0') throw bad("not an unsigned integer");
  if (errno == ERANGE || v > max) throw bad("out of range");
  return v;
}

/// Tiny --key value parser; flags are required unless a default is given.
/// Only the flags the command reads are accepted.
class Args {
 public:
  Args(int argc, char** argv, const std::set<std::string>& known) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw std::invalid_argument(std::string("expected flag, got ") +
                                    argv[i]);
      }
      if (known.count(argv[i] + 2) == 0) {
        throw std::invalid_argument(std::string("unknown flag ") + argv[i] +
                                    " for " + argv[1]);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
    if (argc >= 3 && (argc - 2) % 2 != 0) {
      throw std::invalid_argument("flags must come in --key value pairs");
    }
  }

  std::string get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing required flag --" + key);
    }
    return it->second;
  }

  std::string get_or(const std::string& key, const std::string& dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }

  std::size_t get_size(const std::string& key, std::size_t dflt) const {
    auto it = values_.find(key);
    return it == values_.end()
               ? dflt
               : parse_unsigned("--" + key, it->second,
                                std::numeric_limits<std::size_t>::max());
  }

  /// A finite decimal; anything else is invalid_argument naming the flag.
  double get_double(const std::string& key, double dflt) const {
    auto it = values_.find(key);
    if (it == values_.end()) return dflt;
    const std::string& text = it->second;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
      throw std::invalid_argument("--" + key + ": not a finite number: '" +
                                  text + "'");
    }
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
};

Metric parse_metric(const std::string& s) {
  if (s == "l2") return Metric::kL2;
  if (s == "cosine") return Metric::kCosine;
  if (s == "ip") return Metric::kInnerProduct;
  throw std::invalid_argument("unknown metric: " + s);
}

GraphKind parse_kind(const std::string& s) {
  if (s == "nsw") return GraphKind::kNsw;
  if (s == "cagra") return GraphKind::kCagra;
  throw std::invalid_argument("unknown graph kind: " + s);
}

/// Apply --storage to a freshly loaded dataset. Quantization happens after
/// load so cached ground truth stays f32-exact; recall then measures the
/// codec's loss (see DESIGN.md "Quantized storage and the recall gate").
/// Default comes from ALGAS_STORAGE (flag > env > "f32").
void apply_storage(Dataset& ds, const Args& args) {
  const std::string codec =
      args.get_or("storage", RuntimeOptions::from_env().storage);
  ds.set_storage(parse_storage_codec(codec));
}

sim::ArrivalKind parse_arrival(const std::string& s) {
  if (s == "poisson") return sim::ArrivalKind::kPoisson;
  if (s == "bursty") return sim::ArrivalKind::kBursty;
  throw std::invalid_argument("unknown arrival process: " + s);
}

core::ShedPolicy parse_policy(const std::string& s) {
  if (s == "reject") return core::ShedPolicy::kRejectNew;
  if (s == "drop-oldest") return core::ShedPolicy::kDropOldest;
  throw std::invalid_argument("unknown shed policy: " + s);
}

core::HostSync parse_sync(const std::string& s) {
  if (s == "mirrored") return core::HostSync::kPollMirrored;
  if (s == "naive") return core::HostSync::kPollNaive;
  if (s == "blocking") return core::HostSync::kBlocking;
  throw std::invalid_argument("unknown sync mode: " + s);
}

/// Build the --filter bitset over base rows: "cat=K" (category equality)
/// or "ts<T" (timestamp strictly below T). Returns nullptr when no filter
/// was requested. The bitset must outlive any engine configured with it —
/// callers keep the unique_ptr alive across the run.
std::unique_ptr<search::NodeBitset> parse_filter(const Dataset& ds,
                                                 const Args& args) {
  const std::string spec = args.get_or("filter", "");
  if (spec.empty()) return nullptr;
  if (!ds.has_attributes()) {
    throw std::invalid_argument(
        "--filter needs a dataset with attributes; regenerate it with "
        "`algas_cli gen` (synthetic datasets attach them automatically)");
  }
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  auto bits = std::make_unique<search::NodeBitset>(ds.num_base());
  if (spec.rfind("cat=", 0) == 0) {
    const auto want = static_cast<std::uint32_t>(
        parse_unsigned("--filter cat", spec.substr(4), kMax));
    const auto& cats = ds.categories();
    for (std::size_t i = 0; i < cats.size(); ++i) {
      if (cats[i] == want) bits->set(static_cast<NodeId>(i));
    }
  } else if (spec.rfind("ts<", 0) == 0) {
    const auto limit = static_cast<std::uint32_t>(
        parse_unsigned("--filter ts", spec.substr(3), kMax));
    const auto& ts = ds.timestamps();
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts[i] < limit) bits->set(static_cast<NodeId>(i));
    }
  } else {
    throw std::invalid_argument("bad --filter (want cat=K or ts<T): " + spec);
  }
  return bits;
}

/// Score served results against predicate-restricted exact ground truth
/// (computed on the fly — the attached unfiltered gt does not apply under
/// a filter) and print the filtered-recall line.
void print_filtered_recall(const Dataset& ds,
                           const search::AcceptPredicate& accept,
                           const metrics::Collector& col, std::size_t topk) {
  const std::size_t accepted =
      accept.accepted_in_range(0, static_cast<NodeId>(ds.num_base()));
  const auto gt = compute_filtered_ground_truth(ds, topk, accept);
  double total = 0.0;
  std::size_t served = 0;
  for (const auto& r : col.records()) {
    if (!r.served()) continue;
    ++served;
    total += metrics::recall_against(
        {gt.data() + r.query_index * topk, topk}, r.results, topk);
  }
  std::printf("filter: %zu/%zu rows accepted (%.2f%%) | filtered recall@%zu "
              "%.4f over %zu served\n",
              accepted, ds.num_base(),
              100.0 * static_cast<double>(accepted) /
                  static_cast<double>(std::max<std::size_t>(ds.num_base(), 1)),
              topk, served == 0 ? 0.0 : total / static_cast<double>(served),
              served);
}

/// BuildConfig from the shared construction flags (insert/delete/build).
BuildConfig parse_build_config(const Args& args) {
  BuildConfig cfg;
  cfg.degree = args.get_size("degree", 32);
  cfg.ef_construction = args.get_size("ef", 64);
  // --threads/--batch default to the environment (flag > env > default).
  cfg.threads =
      args.get_size("threads", RuntimeOptions::from_env().build_threads);
  cfg.insert_batch = args.get_size("batch", cfg.insert_batch);
  return cfg;
}

int cmd_gen(const Args& args) {
  const std::string name = args.get("name");
  SyntheticSpec spec;
  if (name == "sift") spec = sift_like_spec();
  else if (name == "gist") spec = gist_like_spec();
  else if (name == "glove") spec = glove_like_spec();
  else if (name == "nytimes") spec = nytimes_like_spec();
  else throw std::invalid_argument("unknown generator: " + name);
  spec.num_base = args.get_size("n", 20000);
  spec.num_queries = args.get_size("q", 200);
  const Dataset ds = make_synthetic(spec);
  save_dataset(ds, args.get("out"));
  std::printf("wrote %s: %s\n", args.get("out").c_str(),
              ds.describe().c_str());
  return 0;
}

int cmd_gt(const Args& args) {
  Dataset ds = load_dataset(args.get("dataset"));
  compute_ground_truth(ds, args.get_size("k", 100),
                       args.get_size("threads", 0));
  save_dataset(ds, args.get("out"));
  std::printf("attached gt@%zu: %s\n", ds.gt_k(), ds.describe().c_str());
  return 0;
}

int cmd_import(const Args& args) {
  const Dataset ds = load_texmex(
      args.get("name"), args.get("base"), args.get("query"),
      args.get_or("gt", ""), parse_metric(args.get_or("metric", "l2")));
  save_dataset(ds, args.get("out"));
  std::printf("imported %s: %s\n", args.get("out").c_str(),
              ds.describe().c_str());
  return 0;
}

int cmd_build(const Args& args) {
  Dataset ds = load_dataset(args.get("dataset"));
  apply_storage(ds, args);
  const BuildReport report =
      build_graph(parse_kind(args.get("kind")), ds, parse_build_config(args));
  const Graph& g = report.graph;
  g.save(args.get("out"));
  const auto stats = g.stats();
  std::printf("wrote %s: %zu nodes, avg degree %.1f, %.1f%% reachable\n",
              args.get("out").c_str(), g.num_nodes(), stats.avg_degree,
              100.0 * stats.reachable_fraction);
  std::printf("build: %.2fs wall | virtual %.1fms batched vs %.1fms serial "
              "(modeled %.0fx) | %zu batches | %zu distance evals\n",
              report.wall_build_s, report.virtual_build_ns / 1e6,
              report.serial_build_ns / 1e6, report.speedup(), report.batches,
              report.scored_points);
  return 0;
}

int cmd_stats(const Args& args) {
  const Dataset ds = load_dataset(args.get("dataset"));
  std::printf("dataset: %s\n", ds.describe().c_str());
  const std::string graph_path = args.get_or("graph", "");
  if (!graph_path.empty()) {
    const Graph g = Graph::load(graph_path);
    const auto stats = g.stats();
    std::printf("graph:   %zu nodes, degree %zu (avg %.1f, min %zu), "
                "entry %u, %.2f%% reachable\n",
                g.num_nodes(), g.degree(), stats.avg_degree,
                stats.min_degree, g.entry_point(),
                100.0 * stats.reachable_fraction);
  }
  return 0;
}

void print_report(const char* engine_name, const core::EngineReport& rep) {
  std::printf("%s: %zu queries | storage %s | recall %.4f | latency mean "
              "%.1fus p99 %.1fus | throughput %.0f qps | pcie txns %llu\n",
              engine_name, rep.summary.queries,
              storage_codec_name(rep.storage), rep.recall,
              rep.summary.mean_service_us, rep.summary.p99_service_us,
              rep.summary.throughput_qps,
              static_cast<unsigned long long>(rep.pcie_transactions));
}

/// AlgasConfig from the shared engine flags (search --index/--shards/plain
/// and serve). `accept` and `trace` must outlive the run.
core::AlgasConfig parse_engine_config(const Args& args,
                                      const search::AcceptPredicate& accept,
                                      sim::Tracer* trace) {
  core::AlgasConfig cfg;
  cfg.search.topk = args.get_size("topk", 16);
  cfg.search.candidate_len = args.get_size("list", 128);
  cfg.search.beam_width = args.get_size("beam", 4);
  cfg.search.accept = accept;
  cfg.slots = args.get_size("slots", 16);
  cfg.n_parallel = args.get_size("nparallel", 0);
  cfg.host_threads = args.get_size("hosts", 1);
  cfg.host_sync = parse_sync(args.get_or("sync", "mirrored"));
  cfg.tracer = trace;
  return cfg;
}

/// Load the mutable index named by --index, or adopt --graph, or (neither)
/// bootstrap from an empty dataset. The dataset must be the one the
/// index/graph was built over — the loaders validate the row counts agree.
core::MutableIndex open_index(Dataset ds, const Args& args) {
  const std::string index_path = args.get_or("index", "");
  const std::string graph_path = args.get_or("graph", "");
  BuildConfig cfg = parse_build_config(args);
  if (!index_path.empty()) {
    return core::MutableIndex::load(index_path, std::move(ds), cfg);
  }
  if (!graph_path.empty()) {
    return core::MutableIndex(std::move(ds), Graph::load(graph_path), cfg);
  }
  return core::MutableIndex(std::move(ds), cfg);
}

int cmd_insert(const Args& args) {
  const std::string ds_path = args.get("dataset");
  core::MutableIndex idx = open_index(load_dataset(ds_path), args);

  std::size_t row_dim = 0;
  const std::vector<float> rows = read_fvecs(args.get("rows"), row_dim);
  if (row_dim != idx.dataset().dim() && idx.dataset().dim() != 0) {
    throw std::invalid_argument("row dim mismatch: rows are " +
                                std::to_string(row_dim) + "d, dataset is " +
                                std::to_string(idx.dataset().dim()) + "d");
  }
  const auto report = idx.insert(rows);
  std::printf("inserted %zu rows in %zu batches | %zu distance evals | "
              "virtual %.1fms batched vs %.1fms serial | now %zu published, "
              "%zu live\n",
              report.inserted, report.batches, report.scored_points,
              report.virtual_build_ns / 1e6, report.serial_build_ns / 1e6,
              idx.published(), idx.live());

  // The snapshot and the (now longer) dataset only make sense as a pair.
  const std::string out_index =
      args.get_or("out-index", args.get_or("index", "index.amx"));
  const std::string out_ds = args.get_or("out-dataset", ds_path);
  save_dataset(idx.dataset(), out_ds);
  idx.save(out_index);
  std::printf("wrote %s + %s (epoch %llu)\n", out_index.c_str(),
              out_ds.c_str(), static_cast<unsigned long long>(idx.epoch()));
  return 0;
}

int cmd_delete(const Args& args) {
  const std::string ds_path = args.get("dataset");
  core::MutableIndex idx = open_index(load_dataset(ds_path), args);

  // Parse every id before tombstoning any.
  std::vector<NodeId> victims;
  const std::string ids = args.get("ids");
  for (std::size_t pos = 0; pos < ids.size();) {
    const std::size_t comma = std::min(ids.find(',', pos), ids.size());
    victims.push_back(static_cast<NodeId>(
        parse_unsigned("--ids", ids.substr(pos, comma - pos),
                       std::numeric_limits<NodeId>::max())));
    pos = comma + 1;
  }
  std::size_t removed = 0, already = 0;
  for (const NodeId v : victims) (idx.remove(v) ? removed : already)++;
  std::printf("tombstoned %zu ids (%zu were already dead) | %zu live of "
              "%zu published\n",
              removed, already, idx.live(), idx.published());

  bool dataset_changed = false;
  if (args.get_size("compact", 0) != 0) {
    const auto rep = idx.compact();
    dataset_changed = rep.dropped > 0;
    std::printf("compacted: dropped %zu, %zu survivors, %zu rows "
                "re-selected\n",
                rep.dropped, rep.survivors, rep.patched);
  }

  // get_or, not get: a graph-opened delete has no --index to fall back on,
  // and C++ would evaluate (and throw from) the fallback eagerly.
  const std::string out_index =
      args.get_or("out-index", args.get_or("index", ""));
  if (out_index.empty()) {
    throw std::invalid_argument("delete needs --out-index (or --index)");
  }
  idx.save(out_index);
  std::printf("wrote %s (epoch %llu)\n", out_index.c_str(),
              static_cast<unsigned long long>(idx.epoch()));
  if (dataset_changed) {
    // Compaction remapped row ids, so the paired dataset must be rewritten.
    const std::string out_ds = args.get_or("out-dataset", ds_path);
    save_dataset(idx.dataset(), out_ds);
    std::printf("wrote %s (rows remapped by compaction)\n", out_ds.c_str());
  }
  return 0;
}

/// --dataset with --storage applied, for the commands that score recall.
Dataset load_serving_dataset(const Args& args) {
  Dataset ds = load_dataset(args.get("dataset"));
  apply_storage(ds, args);
  if (!ds.has_ground_truth()) {
    std::printf("note: dataset has no ground truth; recall prints as 0 "
                "(run `algas_cli gt` first)\n");
  }
  return ds;
}

/// Write the --trace sink once a run completes; a no-op when untraced.
void save_trace(sim::Tracer* trace, const std::string& path, const char* hint) {
  if (trace == nullptr) return;
  trace->save(path);
  std::printf("wrote trace %s (%llu events)%s\n", path.c_str(),
              static_cast<unsigned long long>(trace->events_recorded()), hint);
}

int cmd_search(const Args& args) {
  Dataset ds = load_serving_dataset(args);
  const std::string engine = args.get_or("engine", "algas");
  const std::size_t topk = args.get_size("topk", 16);
  const std::size_t list = args.get_size("list", 128);
  const std::size_t slots = args.get_size("slots", 16);
  const std::size_t queries = args.get_size("queries", ds.num_queries());

  // --trace: explicit SimTrace sink, written once the run completes. Pure
  // observer — identical results and virtual time with or without it.
  const std::string trace_path = args.get_or("trace", "");
  sim::Tracer tracer;
  sim::Tracer* const trace = trace_path.empty() ? nullptr : &tracer;

  // --filter: attribute predicate applied during traversal. The bitset
  // lives here so it outlives whichever engine the run wires it into.
  const auto filter = parse_filter(ds, args);
  const search::AcceptPredicate accept{filter.get()};
  if (filter != nullptr && engine != "algas") {
    throw std::invalid_argument(
        "--filter is traversal-integrated and only serves the algas engine "
        "(the ivf post-filter baseline lives in bench_filtered)");
  }

  if (engine == "ivf") {
    if (trace) {
      std::printf("note: the ivf baseline is untraced; --trace ignored\n");
    }
    baselines::IvfConfig cfg;
    cfg.topk = topk;
    cfg.nprobe = args.get_size("nprobe", 8);
    cfg.batch_size = slots;
    baselines::IvfEngine e(ds, cfg);
    print_report("ivf", e.run_closed_loop(queries));
    return 0;
  }

  // --index: serve a mutable-index snapshot — same engine, but tombstoned
  // rows are excluded from results and the snapshot's graph is used.
  const std::string index_path = args.get_or("index", "");
  if (!index_path.empty()) {
    if (engine != "algas") {
      throw std::invalid_argument("--index only serves the algas engine");
    }
    core::MutableIndex idx = core::MutableIndex::load(
        index_path, std::move(ds), parse_build_config(args));
    const core::AlgasConfig cfg = parse_engine_config(args, accept, trace);
    std::printf("index: epoch %llu | %zu live of %zu published\n",
                static_cast<unsigned long long>(idx.epoch()), idx.live(),
                idx.published());
    const core::EngineReport rep = idx.serve(cfg, queries);
    print_report("algas", rep);
    if (filter != nullptr) {
      // Truth must honor the tombstones serve() conjoined in, or deleted
      // rows would count as misses.
      print_filtered_recall(idx.dataset(),
                            accept.with_tombstones(&idx.tombstones()),
                            rep.collector, topk);
    }
    save_trace(trace, trace_path, "");
    return 0;
  }

  // --shards: scatter-gather over K simulated devices. Per-shard graphs
  // are built here (deterministically, from the shared build flags); a
  // monolithic --graph cannot be split, so the flag is ignored.
  const std::size_t shards = args.get_size("shards", 0);
  if (shards > 0) {
    if (engine != "algas") {
      throw std::invalid_argument("--shards only serves the algas engine");
    }
    core::ShardedConfig scfg;
    scfg.base = parse_engine_config(args, accept, trace);
    scfg.shards = shards;
    scfg.fanout = args.get_size("fanout", 0);
    scfg.router_centroids = args.get_size("router-centroids", 8);
    scfg.build = parse_build_config(args);
    core::ShardedEngine e(ds, scfg);
    for (std::size_t s = 0; s < shards; ++s) {
      const auto r = e.partition().range(s);
      std::printf("shard %zu: rows [%u, %u) | %zu nodes\n", s, r.begin,
                  r.end, e.shard_graph(s).num_nodes());
    }
    const core::ShardedReport rep = e.run_closed_loop(queries);
    print_report("algas-sharded", rep.merged);
    if (filter != nullptr) {
      print_filtered_recall(ds, accept, rep.merged.collector, topk);
    }
    std::printf("scatter-gather: mean fanout %.2f | %zu merges "
                "(%.1fus busy) | host bus %llu txns, %llu bytes, %.1f%% "
                "busy\n",
                rep.mean_fanout, rep.merges, rep.merge_busy_ns / 1e3,
                static_cast<unsigned long long>(rep.bus_transactions),
                static_cast<unsigned long long>(rep.bus_bytes),
                100.0 * rep.bus_utilization);
    save_trace(trace, trace_path, "");
    return 0;
  }

  const Graph g = Graph::load(args.get("graph"));
  if (engine == "algas") {
    const core::AlgasConfig cfg = parse_engine_config(args, accept, trace);
    core::AlgasEngine e(ds, g, cfg);
    std::printf("plan: %s\n", e.plan().describe().c_str());
    const core::EngineReport rep = e.run_closed_loop(queries);
    print_report("algas", rep);
    if (filter != nullptr) {
      print_filtered_recall(ds, accept, rep.collector, topk);
    }
  } else if (engine == "cagra" || engine == "ganns") {
    baselines::StaticConfig cfg;
    cfg.search.topk = topk;
    cfg.search.candidate_len = list;
    cfg.batch_size = slots;
    cfg.n_parallel = args.get_size("nparallel", 4);  // ganns_preset pins 1
    cfg.tracer = trace;
    if (engine == "ganns") cfg = baselines::ganns_preset(cfg);
    baselines::StaticBatchEngine e(ds, g, cfg);
    print_report(engine.c_str(), e.run_closed_loop(queries));
  } else {
    throw std::invalid_argument("unknown engine: " + engine);
  }
  save_trace(trace, trace_path,
             "; open in https://ui.perfetto.dev or chrome://tracing");
  return 0;
}

int cmd_serve(const Args& args) {
  Dataset ds = load_serving_dataset(args);

  core::ServingConfig cfg;
  cfg.arrival.kind = parse_arrival(args.get_or("arrival", "poisson"));
  cfg.arrival.rate_qps = args.get_double("rate", 1000.0);
  cfg.arrival.burst_rate_qps = args.get_double("burst-rate", 0.0);
  cfg.arrival.seed = args.get_size("seed", 1);
  cfg.deadline_us = args.get_double("deadline-us", 0.0);
  cfg.high_priority_fraction = args.get_double("high-priority", 0.0);
  cfg.num_queries = args.get_size("queries", 0);

  const auto filter = parse_filter(ds, args);
  const search::AcceptPredicate accept{filter.get()};

  core::AlgasConfig& base = cfg.sharded.base;
  base = parse_engine_config(args, accept, nullptr);
  // An unbounded queue is the closed-loop default; serving mode (the
  // AdmissionActor front-end) activates only when --capacity is given.
  base.admission.capacity =
      args.get_size("capacity", core::kUnboundedQueue);
  base.admission.policy = parse_policy(args.get_or("policy", "reject"));

  cfg.sharded.shards = args.get_size("shards", 1);
  cfg.sharded.fanout = args.get_size("fanout", 0);
  cfg.sharded.router_centroids = args.get_size("router-centroids", 8);
  cfg.sharded.build = parse_build_config(args);

  core::ServingEngine e(ds, cfg);
  const core::ServingReport rep = e.run();
  const metrics::RunSummary& s = rep.sharded.merged.summary;
  char deadline_buf[32] = "none";
  if (cfg.deadline_us > 0.0) {
    std::snprintf(deadline_buf, sizeof deadline_buf, "%.0fus",
                  cfg.deadline_us);
  }
  char queue_buf[32] = "unbounded";
  if (base.admission.bounded()) {
    std::snprintf(queue_buf, sizeof queue_buf, "%zu",
                  base.admission.capacity);
  }
  std::printf("workload: %s arrivals, %zu queries, offered %.0f qps, "
              "deadline %s, queue %s/%s\n",
              sim::arrival_kind_name(cfg.arrival.kind), rep.arrivals.size(),
              rep.offered_qps, deadline_buf, queue_buf,
              core::shed_policy_name(base.admission.policy));
  print_report("serve", rep.sharded.merged);
  if (filter != nullptr) {
    print_filtered_recall(ds, accept, rep.sharded.merged.collector,
                          base.search.topk);
  }
  std::printf("serving: goodput %.0f qps | shed %.1f%% (%zu queue, %zu "
              "deadline, %zu evicted) | deadline miss %.1f%% | latency "
              "p99 %.1fus p999 %.1fus\n",
              s.goodput_qps, 100.0 * s.shed_rate, s.shed_queue,
              s.shed_deadline, s.evicted, 100.0 * s.deadline_miss_rate,
              s.p99_latency_us, s.p999_latency_us);
  return 0;
}

void usage() {
  std::printf(
      "usage: algas_cli <gen|gt|import|build|stats|search|insert|delete|"
      "serve> --key value ...\n"
      "see the header comment of tools/algas_cli.cpp for full flag lists\n");
}

using Flags = std::set<std::string>;

Flags operator+(Flags a, const Flags& b) {
  a.insert(b.begin(), b.end());
  return a;
}

/// Flags read by parse_build_config and by parse_engine_config.
const Flags kBuildFlags = {"degree", "ef", "threads", "batch"};
const Flags kEngineFlags = {"topk",      "list",  "beam", "slots",
                            "nparallel", "hosts", "sync"};

struct Command {
  int (*run)(const Args&);
  Flags flags;  ///< every flag the command reads
};

const std::map<std::string, Command> kCommands = {
    {"gen", {cmd_gen, {"name", "n", "q", "out"}}},
    {"gt", {cmd_gt, {"dataset", "k", "threads", "out"}}},
    {"import",
     {cmd_import, {"name", "base", "query", "gt", "metric", "out"}}},
    {"build",
     {cmd_build, Flags{"dataset", "storage", "kind", "out"} + kBuildFlags}},
    {"stats", {cmd_stats, {"dataset", "graph"}}},
    {"search",
     {cmd_search, Flags{"dataset", "storage", "engine", "queries", "trace",
                        "filter", "nprobe", "index", "graph", "shards",
                        "fanout", "router-centroids"} +
                      kEngineFlags + kBuildFlags}},
    {"insert",
     {cmd_insert, Flags{"dataset", "rows", "index", "graph", "out-index",
                        "out-dataset"} +
                      kBuildFlags}},
    {"delete",
     {cmd_delete, Flags{"dataset", "index", "graph", "ids", "compact",
                        "out-index", "out-dataset"} +
                      kBuildFlags}},
    {"serve",
     {cmd_serve, Flags{"dataset", "storage", "arrival", "rate", "burst-rate",
                       "deadline-us", "capacity", "policy", "high-priority",
                       "queries", "seed", "shards", "fanout",
                       "router-centroids", "filter"} +
                     kEngineFlags + kBuildFlags}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const auto it = kCommands.find(argv[1]);
  if (it == kCommands.end()) {
    usage();
    return 2;
  }
  try {
    return it->second.run(Args(argc, argv, it->second.flags));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
