#include "replay.h"

#include <memory>
#include <optional>
#include <utility>

#include "core/decomposition.h"
#include "core/tc_tree_query.h"
#include "net/network_io.h"
#include "net/theme_network.h"
#include "oracles.h"
#include "serve/line_protocol.h"

namespace tcf::e2e {

QueryServiceOptions ServerServiceOptions() {
  QueryServiceOptions options;
  options.num_threads = kServerThreads;
  options.cache_bytes = kServerCacheMb << 20;
  options.cache_compose_min_walk_us = kServerComposeMinUs;
  return options;
}

std::vector<uint64_t> ReplayWire(Client& client,
                                 const std::vector<std::string>& lines,
                                 SpanBuffer& spans, size_t* failed) {
  std::vector<uint64_t> hashes(lines.size(), 0);
  Request request;
  request.kind = Request::Kind::kQuery;
  for (size_t i = 0; i < lines.size(); ++i) {
    request.query_line = lines[i];
    StatusOr<Client::Reply> reply = Status::Internal("not sent");
    {
      ScopedSpan span(&spans, "client.RoundTrip", "replay",
                      kReplayRequestBase + i);
      reply = client.RoundTrip(request);
    }
    if (!reply.ok() || !reply->header.ok) {
      ++*failed;
      if (!reply.ok()) break;
      continue;
    }
    hashes[i] = PayloadHash(reply->payload);
  }
  return hashes;
}

QueryReplay ReplayQueries(QueryService& service, const MappedTcTree& tree,
                          const std::vector<std::string>& lines,
                          SpanBuffer& spans) {
  QueryReplay out;
  out.answer_hash.assign(lines.size(), 0);
  for (size_t i = 0; i < lines.size(); ++i) {
    const uint64_t req = kReplayRequestBase + i;
    ScopedSpan root(&spans, "replay.request", "replay", req);
    StatusOr<Request> request = Status::Internal("unparsed");
    {
      ScopedSpan span(&spans, "line_protocol.ParseRequest", "replay", req,
                      root.id());
      request = ParseRequest(lines[i]);
    }
    if (!request.ok()) continue;
    StatusOr<ServeQuery> query = Status::Internal("unparsed");
    {
      ScopedSpan span(&spans, "query_service.ParseServeQuery", "replay", req,
                      root.id());
      query = ParseServeQuery(service.dictionary(), request->query_line);
    }
    if (!query.ok()) continue;
    QueryBackend::Result result;
    {
      ScopedSpan span(&spans, "query_service.Execute", "replay", req,
                      root.id());
      result = service.Execute(*query);
    }
    {
      ScopedSpan span(&spans, "tc_tree_query.QueryTcTree", "replay", req,
                      root.id());
      const TcTreeQueryResult walk =
          QueryTcTree(tree, query->items, query->alpha);
      out.visited_nodes += walk.visited_nodes;
      out.retrieved_nodes += walk.retrieved_nodes;
      out.pruned_subtrees += walk.pruned_subtrees;
    }
    std::vector<std::string> payload;
    {
      ScopedSpan span(&spans, "line_protocol.EncodeTruss", "replay", req,
                      root.id());
      payload.reserve(result->trusses.size());
      for (const PatternTruss& truss : result->trusses) {
        payload.push_back(EncodeTruss(service.dictionary(), truss));
      }
    }
    {
      ScopedSpan span(&spans, "line_protocol.DecodeTruss", "replay", req,
                      root.id());
      for (const std::string& line : payload) (void)DecodeTruss(line);
    }
    for (const std::string& line : payload) out.answer_bytes += line.size() + 1;
    out.answer_hash[i] = PayloadHash(payload);
  }
  return out;
}

void ReplayUpdates(DatabaseNetwork& net, std::optional<TcTree>& baseline,
                   QueryService& service,
                   const std::vector<NetworkUpdate>& batches,
                   const TcTreeOptions& options, SpanBuffer& spans,
                   UpdateReplay* out) {
  // The live index: `baseline` until the first install, then the tree the
  // service serves (installed by move, so no span pays for a copy).
  for (size_t k = 0; k < batches.size(); ++k) {
    const uint64_t req = kUpdateRequestBase + out->batches;
    const std::shared_ptr<const TcTreeSnapshot> live = service.snapshot();
    const TcTree& old_tree = baseline ? *baseline : *live->owned_tree();
    ScopedSpan root(&spans, "replay.update", "update", req);
    std::vector<ItemId> dirty;
    {
      ScopedSpan span(&spans, "tc_tree_update.ComputeDirtyItems", "update",
                      req, root.id());
      dirty = ComputeDirtyItems(net, batches[k]);
    }
    {
      ScopedSpan span(&spans, "database_network.Apply", "update", req,
                      root.id());
      ApplyUpdates({batches[k]}, &net);
    }
    TcTreeUpdateResult updated;
    {
      ScopedSpan span(&spans, "tc_tree_update.UpdateTcTree", "update", req,
                      root.id());
      updated = UpdateTcTree(old_tree, net, dirty, options);
    }
    {
      ScopedSpan span(&spans, "query_service.ApplyUpdatedSnapshot", "update",
                      req, root.id());
      service.ApplyUpdatedSnapshot(std::move(updated.tree),
                                   updated.changed_roots, dirty);
    }
    baseline.reset();
    ++out->batches;
    out->copied += updated.stats.copied;
    out->recomputed += updated.stats.recomputed;
    out->dirty_items += dirty.size();
    out->changed_roots += updated.changed_roots.size();
    out->full_rebuilds += updated.stats.full_rebuild ? 1 : 0;
  }
}

StatusOr<BuildReplay> ReplayBuild(const std::string& net_path,
                                  const std::string& out_path,
                                  const TcTreeOptions& options,
                                  SpanBuffer& spans) {
  const uint64_t req = kBuildRequestBase;
  StatusOr<DatabaseNetwork> net = Status::Internal("not loaded");
  {
    ScopedSpan span(&spans, "network_io.LoadNetworkFromFile", "build", req);
    net = LoadNetworkFromFile(net_path);
  }
  if (!net.ok()) return net.status();
  // Layer 1 in isolation: the single-item theme networks Build starts
  // from, induced and peeled one at a time.
  const std::vector<ItemId> items = net->ActiveItems();
  for (size_t i = 0; i < items.size(); ++i) {
    ThemeNetwork theme;
    {
      ScopedSpan span(&spans, "theme_network.InduceThemeNetwork", "build",
                      req + 1 + i);
      theme = InduceThemeNetwork(*net, Itemset({items[i]}));
    }
    ScopedSpan span(&spans, "decomposition.FromThemeNetwork", "build",
                    req + 1 + i);
    (void)TrussDecomposition::FromThemeNetwork(theme);
  }
  BuildReplay out;
  {
    TcTree tree;
    {
      ScopedSpan span(&spans, "tc_tree.Build", "build", req);
      tree = TcTree::Build(*net, options);
    }
    out.stats = tree.build_stats();
    out.nodes = tree.num_nodes();
    out.indexed_edges = tree.TotalIndexedEdges();
    out.memory_bytes = tree.MemoryBytes();
    ScopedSpan span(&spans, "tcfi_format.SaveTcTreeBinary", "build", req);
    TCF_RETURN_IF_ERROR(SaveTcTreeBinary(tree, out_path));
  }
  StatusOr<MappedTcTree> mapped = Status::Internal("not mapped");
  {
    ScopedSpan span(&spans, "tcfi_format.MapTcTree", "build", req);
    mapped = MapTcTree(out_path);
  }
  if (!mapped.ok()) return mapped.status();
  out.file_bytes = mapped->FileBytes();
  return out;
}

}  // namespace tcf::e2e
