#include "engine/exec_options.h"

#include <algorithm>

namespace dfdb {

std::string_view GranularityToString(Granularity g) {
  switch (g) {
    case Granularity::kRelation:
      return "relation";
    case Granularity::kPage:
      return "page";
    case Granularity::kTuple:
      return "tuple";
  }
  return "?";
}

int UnitBytes(Granularity g, int page_bytes, int tuple_width) {
  const int width = std::max(1, tuple_width);
  return g == Granularity::kTuple ? width : std::max(page_bytes, width);
}

}  // namespace dfdb
