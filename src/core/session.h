#ifndef ARIADNE_CORE_SESSION_H_
#define ARIADNE_CORE_SESSION_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "eval/common.h"
#include "eval/layered.h"
#include "eval/naive.h"
#include "eval/online.h"
#include "graph/graph.h"
#include "pql/analysis.h"
#include "pql/parser.h"
#include "provenance/store.h"

namespace ariadne {

/// Named query parameters ($eps, $alpha, ...).
using QueryParams = std::vector<std::pair<std::string, Value>>;

struct SessionOptions {
  EngineOptions engine;
  /// Cost-order join plans and pick probe columns by bucket cardinality
  /// (DESIGN.md §2.3). Results are bit-identical either way; disable to
  /// fall back to the legacy literal order (ariadne_run --no-plan).
  bool plan_joins = true;
};

/// Result of an online run: the analytic finished (its values live in the
/// engine; overhead in engine_stats) and the query's tables exist — both
/// at once, which is the paper's headline capability.
struct OnlineRunResult {
  RunStats engine_stats;
  QueryResult query_result;
  /// Transient provenance held in the query state at the end.
  size_t transient_bytes = 0;
  /// Per-rule evaluator counters, merged over partitions.
  EvalStats eval_stats;
};

/// The main entry point of the library: binds an input graph to the PQL
/// front-end and the three evaluation modes.
///
///   Session session(&graph);
///   auto query = session.PrepareOnline(queries::Apt(), {{"eps", 0.01}});
///   PageRankProgram pagerank;
///   auto run = session.RunOnline(pagerank, *query);
///   run->query_result.Table("safe");
///
/// See examples/ for full programs.
class Session {
 public:
  /// `graph` must outlive the session.
  explicit Session(const Graph* graph, SessionOptions options = {})
      : graph_(graph), options_(options) {}

  const Graph& graph() const { return *graph_; }

  /// Parses, binds and analyzes a query for online/capture evaluation
  /// (transient EDBs allowed).
  Result<AnalyzedQuery> PrepareOnline(const std::string& text,
                                      const QueryParams& params = {}) const {
    return Prepare(text, params, nullptr, /*allow_transient=*/true);
  }

  /// Parses, binds and analyzes a query for offline evaluation against a
  /// captured store's schema.
  Result<AnalyzedQuery> PrepareOffline(const std::string& text,
                                       const ProvenanceStore& store,
                                       const QueryParams& params = {}) const {
    const StoreSchema schema = store.ToStoreSchema();
    return Prepare(text, params, &schema, /*allow_transient=*/false);
  }

  /// Runs the analytic alone (the Giraph baseline of the experiments).
  /// `final_values`, when non-null, receives the vertex values.
  template <typename P>
  Result<RunStats> RunBaseline(
      P& analytic,
      std::vector<typename P::ValueType>* final_values = nullptr) const {
    Engine<typename P::ValueType, typename P::MessageType> engine(
        graph_, options_.engine);
    ARIADNE_ASSIGN_OR_RETURN(RunStats stats, engine.Run(analytic));
    if (final_values != nullptr) {
      // CopyValuesTo (not values()) so paged vertex state also works.
      ARIADNE_RETURN_NOT_OK(engine.CopyValuesTo(final_values));
    }
    return stats;
  }

  /// Online evaluation (paper Fig 2): evaluates `query` in lockstep with
  /// the unmodified `analytic`. `retention_window` caps per-vertex EDB
  /// history in supersteps (0 = unlimited; 2 is safe for all the paper's
  /// monitoring/apt queries).
  template <typename P>
  Result<OnlineRunResult> RunOnline(
      P& analytic, const AnalyzedQuery& query, int retention_window = 0,
      std::vector<typename P::ValueType>* final_values = nullptr) const {
    ARIADNE_RETURN_NOT_OK(ValidateMode(query, EvalMode::kOnline));
    OnlineOptions online_options;
    online_options.retention_window = retention_window;
    OnlineProgram<P> program(&analytic, &query, graph_, online_options);
    Engine<typename P::ValueType, OnlineMessage<typename P::MessageType>>
        engine(graph_, options_.engine);
    ARIADNE_ASSIGN_OR_RETURN(RunStats stats, engine.Run(program));
    ARIADNE_RETURN_NOT_OK(program.status());
    if (final_values != nullptr) {
      // CopyValuesTo (not values()) so paged vertex state also works.
      ARIADNE_RETURN_NOT_OK(engine.CopyValuesTo(final_values));
    }
    MergedNodes merged = program.Merge();
    OnlineRunResult out;
    out.engine_stats = std::move(stats);
    out.query_result = std::move(merged.result);
    out.transient_bytes = merged.state_bytes;
    out.eval_stats = std::move(merged.eval);
    return out;
  }

  /// Declarative capture (paper Fig 1a): runs the analytic with
  /// `capture_query` evaluated online; derived relations are persisted
  /// into `store` layer by layer.
  template <typename P>
  Result<RunStats> Capture(
      P& analytic, const AnalyzedQuery& capture_query, ProvenanceStore* store,
      int retention_window = 0,
      std::vector<typename P::ValueType>* final_values = nullptr,
      bool use_fast_capture = true,
      CaptureDegradePolicy degrade_policy = CaptureDegradePolicy::kFail) const {
    ARIADNE_RETURN_NOT_OK(ValidateMode(capture_query, EvalMode::kOnline));
    if (store == nullptr) {
      return Status::InvalidArgument("capture requires a store");
    }
    OnlineOptions online_options;
    online_options.store = store;
    online_options.retention_window = retention_window;
    online_options.disable_fast_capture = !use_fast_capture;
    online_options.degrade_policy = degrade_policy;
    OnlineProgram<P> program(&analytic, &capture_query, graph_,
                             online_options);
    Engine<typename P::ValueType, OnlineMessage<typename P::MessageType>>
        engine(graph_, options_.engine);
    ARIADNE_ASSIGN_OR_RETURN(RunStats stats, engine.Run(program));
    ARIADNE_RETURN_NOT_OK(program.status());
    // Quiesce the write-behind flusher: spill files are durable and
    // spill counters are meaningful as soon as Capture returns. A
    // degraded store drains clean by design (layers stay resident).
    Status flushed = store->Flush();
    stats.capture_degraded = program.capture_degraded();
    stats.capture_degraded_at = program.capture_degraded_at();
    if (!flushed.ok()) {
      if (degrade_policy == CaptureDegradePolicy::kFail) return flushed;
      // The spill failure only surfaced after the last barrier. Nothing
      // is lost — a failed flush keeps its layer resident — so the
      // capture content is complete; stop spilling and keep it in
      // memory, loudly. (Queries stay answerable: MarkDegraded is only
      // for content that was actually dropped mid-run.)
      store->EnterStorageDegradedMode();
      stats.capture_degraded = true;
      if (stats.capture_degraded_at < 0) {
        stats.capture_degraded_at = stats.supersteps;
      }
      ARIADNE_LOG(Warning) << "capture spill failed after the run ("
                           << flushed.message()
                           << "); store kept fully in memory";
    }
    if (final_values != nullptr) {
      // CopyValuesTo (not values()) so paged vertex state also works.
      ARIADNE_RETURN_NOT_OK(engine.CopyValuesTo(final_values));
    }
    return stats;
  }

  /// Offline querying of a captured store (paper Fig 1b): layered
  /// (directed queries) or naive (any query). The store is only read —
  /// concurrent RunOffline calls over one store are safe (the serve
  /// subsystem relies on this; see DESIGN.md §2.6).
  Result<OfflineRun> RunOffline(const ProvenanceStore* store,
                                const AnalyzedQuery& query,
                                EvalMode mode) const {
    switch (mode) {
      case EvalMode::kLayered: {
        LayeredEvaluator evaluator(graph_, store, &query);
        return evaluator.Run();
      }
      case EvalMode::kNaive: {
        NaiveEvaluator evaluator(graph_, store, &query);
        return evaluator.Run();
      }
      case EvalMode::kOnline:
        return Status::InvalidArgument(
            "online evaluation runs with the analytic; use RunOnline");
    }
    return Status::Internal("unknown mode");
  }

 private:
  Result<AnalyzedQuery> Prepare(const std::string& text,
                                const QueryParams& params,
                                const StoreSchema* schema,
                                bool allow_transient) const {
    ARIADNE_ASSIGN_OR_RETURN(Program program, ParseProgram(text));
    if (!params.empty()) {
      ARIADNE_RETURN_NOT_OK(program.BindParameters(params));
    }
    AnalyzeOptions options;
    options.allow_transient = allow_transient;
    options.plan_joins = options_.plan_joins;
    return Analyze(program, Catalog::Default(), UdfRegistry::Default(),
                   schema, options);
  }

  const Graph* graph_;
  SessionOptions options_;
};

}  // namespace ariadne

#endif  // ARIADNE_CORE_SESSION_H_
