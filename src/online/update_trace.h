// Update-trace parsing for the serving engine: a textual log of query
// additions and retirements replayed against an OnlineEngine (the `mc3
// serve` subcommand).
//
// Format, one operation per line:
//
//   # comments and blank lines are skipped
//   + white adidas juventus     add the query {white, adidas, juventus}
//   - sony tv                   remove the query {sony, tv}
//   add,white,adidas            CSV spelling of the same operations
//   remove,sony,tv
//   white adidas                a line with no marker is an add
//                               (raw query-log style)
//
// Properties are separated by whitespace or commas and are matched
// case-sensitively against the base workload's property names (the same
// convention as the instance CSV dialect); unseen names are interned as new
// properties.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/property_set.h"
#include "util/status.h"

namespace mc3::online {

/// One trace operation.
struct TraceOp {
  enum class Kind { kAdd, kRemove };
  Kind kind = Kind::kAdd;
  PropertySet query;
  /// 1-based source line the operation was parsed from, so replay errors
  /// can point back into the trace file.
  size_t line = 0;
};

/// A parsed trace plus the property-name table grown while parsing.
struct UpdateTrace {
  std::vector<TraceOp> ops;
  /// The base name table extended with names first seen in the trace
  /// (index = PropertyId). Hand this to the engine via set_property_names.
  std::vector<std::string> property_names;
  size_t skipped_lines = 0;  ///< comments and blank lines
};

/// Parses `lines` against the `base_names` id table (typically the base
/// workload's property names). Fails — naming the 1-based line and the
/// offending token — on a line whose query is empty after removing the
/// marker, on a stray '+'/'-' marker after the first token (almost always
/// two operations joined on one line), and on property names containing
/// control characters.
///
/// `name_ids`, when given, is the caller's name -> id index of `base_names`
/// (empty on the first call: it is then built from `base_names`). Parsing
/// extends it with every name it interns, so a caller that parses many
/// traces against one growing table (WAL replay, one record at a time)
/// moves the table in, takes it back from the result and pays only for new
/// names, instead of rebuilding the index per call.
Result<UpdateTrace> ParseUpdateTrace(
    const std::vector<std::string>& lines, std::vector<std::string> base_names,
    std::unordered_map<std::string, PropertyId>* name_ids = nullptr);

/// File variant: reads `path` line by line; parse errors are prefixed with
/// the path.
Result<UpdateTrace> LoadUpdateTrace(const std::string& path,
                                    std::vector<std::string> base_names);

/// Renders one operation as a canonical trace line (no trailing newline):
/// an explicit '+' or '-' marker followed by the query's property names in
/// ascending-id order, space-separated. The exact inverse of
/// ParseUpdateTrace for that line. Fails when a property id has no entry in
/// `names` or when a name is not serializable in the line format (empty,
/// contains whitespace/comma/control bytes, or is itself a bare '+'/'-'
/// marker token).
Result<std::string> RenderTraceOp(TraceOp::Kind kind, const PropertySet& query,
                                  const std::vector<std::string>& names);

/// Renders an update batch as trace text: one operation per line, each with
/// a trailing newline, removes before adds (the order ApplyUpdate applies
/// them). This is the shared serializer behind WAL record payloads
/// (src/durability/wal.h) and `mc3 serve --record-trace`; replaying the
/// rendered text through ParseUpdateTrace + ApplyUpdate reproduces the
/// batch exactly.
Result<std::string> RenderUpdateBatch(const std::vector<PropertySet>& add,
                                      const std::vector<PropertySet>& remove,
                                      const std::vector<std::string>& names);

}  // namespace mc3::online

