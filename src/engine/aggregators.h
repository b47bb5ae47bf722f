#ifndef ARIADNE_ENGINE_AGGREGATORS_H_
#define ARIADNE_ENGINE_AGGREGATORS_H_

#include <mutex>
#include <string>
#include <unordered_map>

#include "common/serialize.h"
#include "common/status.h"
#include "engine/types.h"

namespace ariadne {

class ThreadPool;

/// Commutative/associative fold applied to doubles aggregated by vertices.
enum class AggregateOp { kSum, kMin, kMax };

/// Pregel-style global aggregators over doubles. Values accumulated during
/// superstep s become readable (Get) during superstep s+1 and in
/// MasterCompute after s. Thread-safe for concurrent Accumulate.
class AggregatorRegistry {
 public:
  /// Registers an aggregator; re-registering the same name resets it.
  void Register(const std::string& name, AggregateOp op);

  /// Drops all aggregators (called by the engine at the start of a run).
  void Reset();

  bool Has(const std::string& name) const;

  /// Folds `v` into the current superstep's accumulation.
  /// Precondition: `name` is registered (CHECK otherwise).
  void Accumulate(const std::string& name, double v);

  /// Value finalized at the end of the previous superstep (identity of the
  /// fold if nothing was accumulated: 0 for sum, +/-inf for min/max).
  double Get(const std::string& name) const;

  /// Superstep barrier: publishes current accumulations and resets them.
  void EndSuperstep();

  /// Checkpoint support: writes every slot (sorted by name, so the bytes
  /// are deterministic) and restores them. Deserialize replaces the whole
  /// slot table — the program re-registers on resume, then restoration
  /// overwrites the fresh identities with the checkpointed values.
  void Serialize(BinaryWriter& w) const;
  Status Deserialize(BinaryReader& r);

 private:
  struct Slot {
    AggregateOp op;
    double current;
    double previous;
  };
  static double Identity(AggregateOp op);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Slot> slots_;
};

/// Passed to VertexProgram::MasterCompute after each superstep barrier
/// (Giraph's MasterCompute hook). `aggregators->Get` returns the values
/// accumulated during the superstep that just completed.
struct MasterContext {
  Superstep superstep = 0;  ///< the just-completed superstep
  const AggregatorRegistry* aggregators = nullptr;
  bool halt = false;  ///< set true to stop the whole computation
  /// The engine's workers, idle during MasterCompute: a program may run
  /// barrier work on them (Giraph's per-worker postSuperstep). Always set
  /// by the engine.
  ThreadPool* pool = nullptr;
};

}  // namespace ariadne

#endif  // ARIADNE_ENGINE_AGGREGATORS_H_
