#ifndef ARIADNE_PQL_QUERIES_H_
#define ARIADNE_PQL_QUERIES_H_

#include <optional>
#include <string>

namespace ariadne::queries {

/// The paper's numbered queries as PQL texts. Parameters ($eps, $alpha,
/// $sigma) are bound via Program::BindParameters. Two texts deviate from
/// the printed versions where those are ill-formed under set semantics;
/// the deviations are documented inline and in DESIGN.md.

/// Query 1 / §6.2.2 — the apt (approximate-optimization tuning) query.
/// Parameter: $eps. udf-diff compares scalars by |Δ| and ALS feature
/// vectors by euclidean distance, matching the paper's parameterization.
std::string Apt();

/// Query 2 — capture the full provenance graph.
std::string CaptureFull();

/// Query 3 — capture a custom provenance graph: the forward lineage of
/// vertex $alpha starting at superstep 0.
std::string CaptureForwardLineage();

/// Query 4 — PageRank monitoring: vertices with zero in-degree must not
/// receive messages.
std::string PageRankInDegreeCheck();

/// Query 5 — SSSP/WCC monitoring: a value revision upon receiving
/// messages must never *increase* the value. (The printed rule ties the
/// receive to the earlier superstep of the evolution edge and flags
/// non-decreases; we use the update superstep and flag strict increases,
/// which is what the prose describes.)
std::string MonotoneUpdateCheck();

/// Query 6 — SSSP/WCC monitoring: no messages => no value change.
std::string NoMessageNoChangeCheck();

/// Query 7 — ALS input/algorithm audit: ratings and predictions must stay
/// in the rating range; failures are attributed to the input (corrupt
/// rating) or the algorithm (prediction out of range). (The printed
/// conjunction `e < 0, e > 5` is unsatisfiable; we use the
/// `outside(v, lo, hi)` UDF.) Builds on prov-prediction / prov-error
/// rules derived via the als-predict / als-rating function UDFs.
std::string AlsRangeAudit();

/// Query 8 — ALS monitoring: users/items whose average prediction error
/// increases across consecutive solve supersteps by more than $eps.
std::string AlsErrorIncrease();

/// Query 10 — backward lineage over the full provenance graph.
/// Parameters: $alpha (output vertex), $sigma (its superstep).
std::string BackwardLineageFull();

/// Query 11 — custom capture for backward tracing: values, send
/// supersteps (no payloads, no destinations) and static edges.
std::string CaptureCustomBackward();

/// Query 12 — backward lineage over the Query-11 custom provenance.
/// Parameters: $alpha, $sigma.
std::string BackwardLineageCustom();

/// The text behind a short name the tools accept: apt, q4, q5, q6,
/// capture-full or capture-custom (Query 11). nullopt for any other name,
/// which the tools then read as a file path.
std::optional<std::string> ByName(const std::string& name);

}  // namespace ariadne::queries

#endif  // ARIADNE_PQL_QUERIES_H_
