#include "pql/queries.h"

namespace ariadne::queries {

std::string Apt() {
  return R"pql(
    change(x, i) <- value(x, d1, i), value(x, d2, j), evolution(x, j, i),
                    udf-diff(d1, d2, $eps).
    neighbor-change(x, i) <- receive-msg(x, y, m, i), !change(y, j), j = i - 1.
    no-execute(x, i) <- !neighbor-change(x, i), superstep(x, i).
    safe(x, i) <- no-execute(x, i), change(x, i).
    unsafe(x, i) <- no-execute(x, i), !change(x, i).
  )pql";
}

std::string CaptureFull() {
  return R"pql(
    value(x, v, i) <- vertex-value(x, v), superstep(x, i).
    send-message(x, y, m, i) <- send(x, y, m), superstep(x, i).
    receive-message(x, y, m, i) <- receive(x, y, m), superstep(x, i).
  )pql";
}

std::string CaptureForwardLineage() {
  return R"pql(
    fwd-lineage(x, v, i) <- value(x, v, i), superstep(x, i), x = $alpha, i = 0.
    fwd-lineage(x, v, i) <- receive-message(x, y, m, i), fwd-lineage(y, w, j),
                            value(x, v, i).
  )pql";
}

std::string PageRankInDegreeCheck() {
  return R"pql(
    in-degree(x, COUNT(y)) <- edge(y, x).
    check-failed(x, y, i) <- in-degree(x, d), receive-message(x, y, m, i),
                             d = 0.
  )pql";
}

std::string MonotoneUpdateCheck() {
  return R"pql(
    check-failed(x, i) <- value(x, d1, i), value(x, d2, j), evolution(x, j, i),
                          receive-message(x, y, m, i), d1 > d2.
  )pql";
}

std::string NoMessageNoChangeCheck() {
  return R"pql(
    neighbor-change(x, i) <- receive-message(x, y, m, i).
    problem(x, i) <- value(x, d1, i), value(x, d2, j), evolution(x, j, i),
                     !neighbor-change(x, i), d1 != d2.
  )pql";
}

std::string AlsRangeAudit() {
  return R"pql(
    prov-prediction(x, y, p, i) <- value(x, d, i), receive-message(x, y, m, i),
                                   als-predict(d, m, p).
    prov-error(x, y, e, i) <- prov-prediction(x, y, p, i),
                              receive-message(x, y, m, i), als-rating(m, r),
                              e = r - p.
    input-failed(x, y, i) <- prov-error(x, y, e, i), edge-value(x, y, w, i),
                             outside(w, 0, 5).
    algo-failed(x, y, i) <- prov-prediction(x, y, p, i), outside(p, 0, 5).
  )pql";
}

std::string AlsErrorIncrease() {
  return R"pql(
    prov-prediction(x, y, p, i) <- value(x, d, i), receive-message(x, y, m, i),
                                   als-predict(d, m, p).
    prov-error(x, y, e, i) <- prov-prediction(x, y, p, i),
                              receive-message(x, y, m, i), als-rating(m, r),
                              e = r - p.
    degree(x, COUNT(y)) <- receive-message(x, y, m, i).
    sum-error(x, i, SUM(e)) <- prov-error(x, y, e, i).
    avg-error(x, i, s / d) <- sum-error(x, i, s), degree(x, d).
    problem(x, e1, e2, i) <- avg-error(x, i, e1), avg-error(x, j, e2),
                             evolution(x, j, i), e1 > e2 + $eps.
  )pql";
}

std::string BackwardLineageFull() {
  return R"pql(
    back-trace(x, i) <- superstep(x, i), i = $sigma, x = $alpha.
    back-trace(x, i) <- send-message(x, y, m, i), back-trace(y, j), j = i + 1.
    back-lineage(x, d) <- back-trace(x, i), value(x, d, i), i = 0.
  )pql";
}

std::string CaptureCustomBackward() {
  return R"pql(
    prov-value(x, i, d) <- value(x, d, i), superstep(x, i).
    prov-send(x, i) <- send-message(x, y, m, i).
    prov-edges(x, y) <- edges(x, y).
  )pql";
}

std::string BackwardLineageCustom() {
  return R"pql(
    back-trace(x, i) <- prov-value(x, i, d), i = $sigma, x = $alpha.
    back-trace(x, i) <- prov-edges(x, y), prov-send(x, i), back-trace(y, j),
                        j = i + 1.
    back-lineage(x, d) <- back-trace(x, i), prov-value(x, i, d), i = 0.
  )pql";
}

std::optional<std::string> ByName(const std::string& name) {
  if (name == "apt") return Apt();
  if (name == "q4") return PageRankInDegreeCheck();
  if (name == "q5") return MonotoneUpdateCheck();
  if (name == "q6") return NoMessageNoChangeCheck();
  if (name == "capture-full") return CaptureFull();
  if (name == "capture-custom") return CaptureCustomBackward();
  return std::nullopt;
}

}  // namespace ariadne::queries
