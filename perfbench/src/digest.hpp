// Canonical bytes and digests of everything the workloads check.
//
// Checks compare exact bytes (floats by bit pattern), so any change to
// an output, however small, is a mismatch. Digests are FNV-1a-64 over
// those bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cellspot/core/as_pipeline.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/dataset/beacon_dataset.hpp"
#include "cellspot/dataset/demand_dataset.hpp"
#include "cellspot/query/table.hpp"

namespace perfbench {

[[nodiscard]] std::uint64_t Fnv1a(std::string_view bytes);

/// Every field of every AS, in list order.
[[nodiscard]] std::string AsListBytes(const std::vector<cellspot::core::AsAggregate>& ases);

/// CSPT encoding of the classification (the snapshot layer's canonical
/// single-merge layout).
[[nodiscard]] std::string ClassifiedBytes(const cellspot::core::ClassifiedSubnets& classified);

/// CSPT encoding of the beacon and demand datasets.
[[nodiscard]] std::string DatasetsBytes(const cellspot::dataset::BeaconDataset& beacons,
                                        const cellspot::dataset::DemandDataset& demand);

/// Digest of one pipeline result: classified + candidates + kept.
[[nodiscard]] std::uint64_t ResultDigest(
    const cellspot::core::ClassifiedSubnets& classified,
    const std::vector<cellspot::core::AsAggregate>& candidates,
    const cellspot::core::AsFilterOutcome& filtered);

/// Column names, types and every cell, in order.
[[nodiscard]] std::string TableBytes(const cellspot::query::Table& table);

}  // namespace perfbench
