#include "engine/exec_options.h"

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

}  // namespace dfdb
