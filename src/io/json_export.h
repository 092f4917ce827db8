// JSON export of previews, for UI / notebook consumption.
//
// Two levels of detail: the schema-level preview (key + attribute
// metadata and scores) and the materialized preview (with sampled
// tuples). Output is deterministic, minified JSON written through
// JsonWriter (io/json_writer.h); no external JSON library is required.
#ifndef EGP_IO_JSON_EXPORT_H_
#define EGP_IO_JSON_EXPORT_H_

#include <string>

#include "core/preview.h"
#include "core/tuple_sampler.h"
#include "graph/entity_graph.h"
#include "io/json_writer.h"

namespace egp {

/// {"score": ..., "tables": [{"key": ..., "keyScore": ...,
///   "nonkeys": [{"name": ..., "direction": "out", "target": ...,
///                "score": ...}, ...]}, ...]}
void PreviewToJson(const PreparedSchema& prepared, const Preview& preview,
                   JsonWriter* out);
std::string PreviewToJson(const PreparedSchema& prepared,
                          const Preview& preview);

/// Adds sampled rows: {"tables": [{"key": ..., "columns": [...],
///   "totalTuples": ..., "rows": [{"key": ..., "cells": [[...], ...]},
///   ...]}]}
void MaterializedPreviewToJson(const EntityGraph& graph,
                               const MaterializedPreview& preview,
                               JsonWriter* out);
std::string MaterializedPreviewToJson(const EntityGraph& graph,
                                      const MaterializedPreview& preview);

}  // namespace egp

#endif  // EGP_IO_JSON_EXPORT_H_
