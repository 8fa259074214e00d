/**
 * @file
 * serve_sweep's design grid, shared by the serve-cache and the
 * replay-index suites.
 */
#pragma once

#include <string>
#include <vector>

#include "support/strings.hh"

namespace muir
{

/** The twelve timing variants serve_sweep asks of @p workload: queue
 *  depths with bank counts, and tile counts on the Cilk msort. */
inline std::vector<std::string>
sweepVariants(const std::string &workload)
{
    std::vector<std::string> out;
    for (unsigned q : {2u, 4u, 8u}) {
        if (workload == "msort") {
            for (unsigned t : {2u, 4u})
                for (unsigned b : {2u, 4u})
                    out.push_back(fmt("queue:%u,tile:%u,bank:%u,fusion", q,
                                      t, b));
        } else {
            for (unsigned b : {1u, 2u, 4u, 8u})
                out.push_back(
                    fmt("queue:%u,localize,bank:%u,fusion", q, b));
        }
    }
    return out;
}

} // namespace muir
