#include "uopt/pipeline.hh"

#include <memory>
#include <vector>

#include "support/strings.hh"
#include "uopt/passes.hh"

namespace muir::uopt
{

namespace
{

std::vector<std::string>
splitSpec(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    size_t pos = 0;
    while (true) {
        size_t next = text.find(sep, pos);
        if (next == std::string::npos) {
            parts.push_back(text.substr(pos));
            return parts;
        }
        parts.push_back(text.substr(pos, next - pos));
        pos = next + 1;
    }
}

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

bool
addPass(PassManager &pm, const std::string &spec, std::string *error)
{
    auto parts = splitSpec(spec, ':');
    const std::string &name = parts[0];
    long arg = -1;
    if (parts.size() > 1) {
        unsigned v = 0;
        if (parts.size() > 2 || !parsePositive(parts[1], v))
            return fail(error, "pass '" + name + "': '" +
                                   spec.substr(name.size() + 1) +
                                   "' is not a positive integer");
        arg = static_cast<long>(v);
    }
    if (name == "queue") {
        pm.add(std::make_unique<TaskQueuingPass>(
            arg > 0 ? unsigned(arg) : 8));
    } else if (name == "tile") {
        pm.add(std::make_unique<ExecutionTilingPass>(
            arg > 0 ? unsigned(arg) : 4));
    } else if (name == "localize") {
        pm.add(std::make_unique<MemoryLocalizationPass>(
            arg > 0 ? unsigned(arg) : 16));
    } else if (name == "bank") {
        pm.add(std::make_unique<BankingPass>(arg > 0 ? unsigned(arg)
                                                     : 4));
    } else if (name == "fusion") {
        pm.add(std::make_unique<OpFusionPass>(arg > 0 ? arg / 100.0
                                                      : 1.0));
    } else if (name == "tensor") {
        pm.add(std::make_unique<TensorWideningPass>());
    } else {
        return fail(error, "unknown pass '" + name +
                               "' (valid: queue, tile, localize, "
                               "bank, fusion, tensor)");
    }
    return true;
}

} // namespace

bool
buildPipeline(PassManager &pm, const std::string &spec,
              std::string *error)
{
    if (spec.empty())
        return true;
    for (const auto &part : splitSpec(spec, ','))
        if (!addPass(pm, part, error))
            return false;
    return true;
}

} // namespace muir::uopt
