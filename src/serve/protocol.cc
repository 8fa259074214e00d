#include "serve/protocol.hh"

#include <utility>
#include <vector>

#include "support/strings.hh"

namespace muir::serve
{

namespace
{

/**
 * Trace-id parse: decimal, or 0x-prefixed hex so ids can be pasted
 * straight out of a waterfall or `muir.trace.v1` document.
 */
bool
parseTraceId(const std::string &text, uint64_t &out)
{
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
        if (text.size() > 18)
            return false;
        uint64_t v = 0;
        for (size_t i = 2; i < text.size(); ++i) {
            char c = text[i];
            uint64_t digit;
            if (c >= '0' && c <= '9')
                digit = uint64_t(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = uint64_t(c - 'a') + 10;
            else if (c >= 'A' && c <= 'F')
                digit = uint64_t(c - 'A') + 10;
            else
                return false;
            v = (v << 4) | digit;
        }
        out = v;
        return true;
    }
    return parseU64(text, out);
}

/** First line of @p payload; @p rest gets everything after the '\n'. */
std::string
firstLine(const std::string &payload, std::string *rest = nullptr)
{
    size_t nl = payload.find('\n');
    if (nl == std::string::npos) {
        if (rest)
            rest->clear();
        return payload;
    }
    if (rest)
        *rest = payload.substr(nl + 1);
    return payload.substr(0, nl);
}

/**
 * Parse a `verb key=value key=value` line. @return false when the verb
 * does not match or a token has no '='.
 */
bool
parseKvLine(const std::string &line, const std::string &verb,
            std::vector<std::pair<std::string, std::string>> &out)
{
    std::vector<std::string> tokens;
    for (const std::string &tok : split(line, ' '))
        if (!tok.empty())
            tokens.push_back(tok);
    if (tokens.empty() || tokens[0] != verb)
        return false;
    for (size_t i = 1; i < tokens.size(); ++i) {
        size_t eq = tokens[i].find('=');
        if (eq == std::string::npos || eq == 0)
            return false;
        out.emplace_back(tokens[i].substr(0, eq),
                         tokens[i].substr(eq + 1));
    }
    return true;
}

} // namespace

std::string
renderRunRequest(const RunRequest &req)
{
    std::string line = "run workload=" + req.workload;
    if (!req.passes.empty())
        line += " passes=" + req.passes;
    if (req.maxCycles)
        line += fmt(" max_cycles=%llu",
                    (unsigned long long)req.maxCycles);
    if (req.deadlineMs)
        line += fmt(" deadline_ms=%llu",
                    (unsigned long long)req.deadlineMs);
    if (req.workDelayMs)
        line += fmt(" work_delay_ms=%llu",
                    (unsigned long long)req.workDelayMs);
    if (req.traceId)
        line += fmt(" trace=%llu", (unsigned long long)req.traceId);
    line += "\n";
    return line + req.graph;
}

bool
parseRunRequest(const std::string &payload, RunRequest &out,
                std::string *error)
{
    RunRequest req;
    std::string head = firstLine(payload, &req.graph);
    std::vector<std::pair<std::string, std::string>> kvs;
    if (!parseKvLine(head, "run", kvs)) {
        if (error)
            *error = "first line must be "
                     "'run workload=<name> [key=value ...]'";
        return false;
    }
    for (const auto &[key, value] : kvs) {
        if (key == "workload") {
            req.workload = value;
        } else if (key == "passes") {
            req.passes = value;
        } else if (key == "max_cycles") {
            if (!parseU64(value, req.maxCycles)) {
                if (error)
                    *error = "max_cycles must be a decimal integer";
                return false;
            }
        } else if (key == "deadline_ms") {
            if (!parseU64(value, req.deadlineMs)) {
                if (error)
                    *error = "deadline_ms must be a decimal integer";
                return false;
            }
        } else if (key == "work_delay_ms") {
            if (!parseU64(value, req.workDelayMs)) {
                if (error)
                    *error = "work_delay_ms must be a decimal integer";
                return false;
            }
        } else if (key == "trace") {
            if (!parseTraceId(value, req.traceId) || !req.traceId) {
                if (error)
                    *error = "trace must be a nonzero decimal or "
                             "0x-hex integer";
                return false;
            }
        } else {
            if (error)
                *error = fmt("unknown run key '%s'", key.c_str());
            return false;
        }
    }
    if (req.workload.empty()) {
        if (error)
            *error = "run request is missing workload=<name>";
        return false;
    }
    out = std::move(req);
    return true;
}

std::string
renderTraceRequest(const TraceRequest &req)
{
    std::string line = "trace";
    if (req.id)
        line += fmt(" id=0x%016llx", (unsigned long long)req.id);
    if (req.limit)
        line += fmt(" limit=%llu", (unsigned long long)req.limit);
    return line;
}

bool
parseTraceRequest(const std::string &payload, TraceRequest &out,
                  std::string *error)
{
    TraceRequest req;
    std::vector<std::pair<std::string, std::string>> kvs;
    if (!parseKvLine(firstLine(payload), "trace", kvs)) {
        if (error)
            *error = "first line must be "
                     "'trace [id=<id>] [limit=<n>]'";
        return false;
    }
    for (const auto &[key, value] : kvs) {
        if (key == "id") {
            if (!parseTraceId(value, req.id) || !req.id) {
                if (error)
                    *error = "id must be a nonzero decimal or 0x-hex "
                             "integer";
                return false;
            }
        } else if (key == "limit") {
            if (!parseU64(value, req.limit)) {
                if (error)
                    *error = "limit must be a decimal integer";
                return false;
            }
        } else {
            if (error)
                *error = fmt("unknown trace key '%s'", key.c_str());
            return false;
        }
    }
    out = req;
    return true;
}

std::string
renderErrorReply(const ErrorReply &reply)
{
    return fmt("error code=%s line=%u\n", reply.code.c_str(),
               reply.line) +
           reply.message;
}

bool
parseErrorReply(const std::string &payload, ErrorReply &out)
{
    ErrorReply reply;
    std::string head = firstLine(payload, &reply.message);
    std::vector<std::pair<std::string, std::string>> kvs;
    if (!parseKvLine(head, "error", kvs))
        return false;
    uint64_t line = 0;
    for (const auto &[key, value] : kvs) {
        if (key == "code")
            reply.code = value;
        else if (key == "line" && parseU64(value, line))
            reply.line = unsigned(line);
    }
    out = std::move(reply);
    return true;
}

std::string
renderShedReply(const ShedReply &reply)
{
    return fmt("shed reason=%s retry_after_ms=%llu",
               reply.reason.c_str(),
               (unsigned long long)reply.retryAfterMs);
}

bool
parseShedReply(const std::string &payload, ShedReply &out)
{
    ShedReply reply;
    std::vector<std::pair<std::string, std::string>> kvs;
    if (!parseKvLine(firstLine(payload), "shed", kvs))
        return false;
    for (const auto &[key, value] : kvs) {
        if (key == "reason")
            reply.reason = value;
        else if (key == "retry_after_ms" &&
                 !parseU64(value, reply.retryAfterMs))
            return false;
    }
    out = std::move(reply);
    return true;
}

std::string
renderDeadlineReply(const DeadlineReply &reply)
{
    return fmt("deadline reason=%s\n", reply.reason.c_str()) +
           reply.detail;
}

bool
parseDeadlineReply(const std::string &payload, DeadlineReply &out)
{
    DeadlineReply reply;
    std::string head = firstLine(payload, &reply.detail);
    std::vector<std::pair<std::string, std::string>> kvs;
    if (!parseKvLine(head, "deadline", kvs))
        return false;
    for (const auto &[key, value] : kvs)
        if (key == "reason")
            reply.reason = value;
    out = std::move(reply);
    return true;
}

std::string
canonicalResult(const workloads::RunResult &result)
{
    return fmt("cycles=%llu\nfirings=%llu\ncheck=ok\n",
               (unsigned long long)result.cycles,
               (unsigned long long)result.firings) +
           result.stats.dump();
}

} // namespace muir::serve
