#include "uir/serialize.hh"

#include <cstdlib>
#include <map>
#include <sstream>
#include <tuple>
#include <vector>

#include "support/logging.hh"
#include "support/strings.hh"

namespace muir::uir
{

namespace
{

// ---------------------------------------------------------------- types

std::string
typeStr(const ir::Type &t)
{
    switch (t.kind()) {
      case ir::Type::Kind::Void:
        return "void";
      case ir::Type::Kind::Int:
        return fmt("i%u", t.bits());
      case ir::Type::Kind::Float:
        return "f32";
      case ir::Type::Kind::Ptr:
        return "ptr:" + typeStr(t.pointee());
      case ir::Type::Kind::Tensor:
        return fmt("t:%ux%ux%c", t.rows(), t.cols(),
                   t.tensorElemFloat() ? 'f' : 'i');
    }
    return "void";
}

/** Recoverable parse problem; caught by deserializeOrError. */
struct ParseError
{
    unsigned line;
    std::string msg;
};

/** Strict decimal signed parse — atoi-with-junk is a silent zero. */
int64_t
parseInt(const std::string &s, const char *what, unsigned lineno)
{
    if (s.empty())
        throw ParseError{lineno, fmt("empty %s", what)};
    size_t i = s[0] == '-' ? 1 : 0;
    if (i == s.size())
        throw ParseError{lineno, fmt("bad %s '%s'", what, s.c_str())};
    int64_t v = 0;
    for (; i < s.size(); ++i) {
        if (s[i] < '0' || s[i] > '9')
            throw ParseError{lineno,
                             fmt("bad %s '%s'", what, s.c_str())};
        v = v * 10 + (s[i] - '0');
        if (v < 0)
            throw ParseError{lineno,
                             fmt("%s '%s' overflows", what, s.c_str())};
    }
    return s[0] == '-' ? -v : v;
}

unsigned
parseUnsigned(const std::string &s, const char *what, unsigned lineno)
{
    int64_t v = parseInt(s, what, lineno);
    if (v < 0 || v > int64_t(~0u))
        throw ParseError{lineno,
                         fmt("%s '%s' out of range", what, s.c_str())};
    return static_cast<unsigned>(v);
}

double
parseDouble(const std::string &s, const char *what, unsigned lineno)
{
    if (s.empty())
        throw ParseError{lineno, fmt("empty %s", what)};
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size())
        throw ParseError{lineno, fmt("bad %s '%s'", what, s.c_str())};
    return v;
}

ir::Type
parseType(const std::string &s, unsigned lineno)
{
    if (s == "void")
        return ir::Type::voidTy();
    if (s == "f32")
        return ir::Type::f32();
    if (!s.empty() && s[0] == 'i')
        return ir::Type::intTy(
            parseUnsigned(s.substr(1), "int width", lineno));
    if (startsWith(s, "ptr:"))
        return ir::Type::ptrTo(parseType(s.substr(4), lineno));
    if (startsWith(s, "t:")) {
        unsigned r = 0, c = 0;
        char f = 'f';
        if (std::sscanf(s.c_str(), "t:%ux%ux%c", &r, &c, &f) != 3 ||
            (f != 'f' && f != 'i') || !r || !c)
            throw ParseError{lineno,
                             fmt("bad tensor type '%s'", s.c_str())};
        return ir::Type::tensor(r, c, f == 'f');
    }
    throw ParseError{lineno, fmt("bad type '%s'", s.c_str())};
}

// ------------------------------------------------------- key=value lines

/** Split "key=value" tokens of one line (values cannot hold spaces). */
std::map<std::string, std::string>
fields(const std::vector<std::string> &tokens, size_t from,
       unsigned lineno)
{
    std::map<std::string, std::string> out;
    for (size_t i = from; i < tokens.size(); ++i) {
        auto eq = tokens[i].find('=');
        if (eq == std::string::npos || eq == 0)
            throw ParseError{lineno, fmt("bad token '%s' (want "
                                         "key=value)",
                                         tokens[i].c_str())};
        if (!out.emplace(tokens[i].substr(0, eq),
                         tokens[i].substr(eq + 1))
                 .second)
            throw ParseError{lineno,
                             fmt("duplicate key '%s'",
                                 tokens[i].substr(0, eq).c_str())};
    }
    return out;
}

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream is(line);
    std::string tok;
    while (is >> tok)
        tokens.push_back(tok);
    return tokens;
}

const std::string &
need(const std::map<std::string, std::string> &kv, const char *key,
     unsigned lineno)
{
    auto it = kv.find(key);
    if (it == kv.end())
        throw ParseError{lineno, fmt("missing required key '%s'", key)};
    return it->second;
}

// -------------------------------------------------------------- emitters

void
emitStructure(std::ostringstream &os, const Structure &s)
{
    os << "structure " << s.name() << " kind="
       << structureKindName(s.kind()) << " banks=" << s.banks()
       << " ports=" << s.portsPerBank() << " wide=" << s.wideWords()
       << " lat=" << s.latency() << " size=" << s.sizeKb() << " ways="
       << s.ways() << " line=" << s.lineBytes() << " miss="
       << s.missLatency() << " bpc=" << s.bytesPerCycle();
    if (!s.spaces().empty())
        os << " spaces=" << join(s.spaces(), ",");
    os << "\n";
}

void
emitNode(std::ostringstream &os, const Node &n,
         const std::map<const Node *, unsigned> &seq)
{
    os << "  node " << seq.at(&n) << " name=" << n.name() << " kind="
       << nodeKindName(n.kind()) << " type=" << typeStr(n.irType());
    switch (n.kind()) {
      case NodeKind::Compute:
        os << " op=" << ir::opName(n.op());
        break;
      case NodeKind::Fused: {
        std::vector<std::string> uops;
        for (const auto &mop : n.microOps()) {
            uops.push_back(fmt("%s~%s~%s", ir::opName(mop.op),
                               typeStr(mop.type).c_str(),
                               join(mop.srcs, ".").c_str()));
        }
        os << " uops=" << join(uops, "|");
        break;
      }
      case NodeKind::ConstNode:
        if (n.constIsFloat())
            os << " fval=" << fmt("%.17g", n.constFp());
        else
            os << " ival=" << n.constInt();
        break;
      case NodeKind::GlobalAddr:
        os << " global=" << n.global()->name();
        break;
      case NodeKind::Load:
      case NodeKind::Store:
        os << " space=" << n.memSpace();
        break;
      case NodeKind::LoopControl:
        os << " carried=" << n.numCarried() << " stages="
           << n.ctrlStages();
        break;
      case NodeKind::ChildCall:
        os << " callee=" << n.callee()->name() << " spawn="
           << (n.isSpawn() ? 1 : 0);
        break;
      default:
        break;
    }
    const char *sep = " in=";
    for (const auto &ref : n.inputs()) {
        os << sep << seq.at(ref.node) << ':' << ref.out;
        sep = ",";
    }
    if (n.guard().valid())
        os << " guard=" << seq.at(n.guard().node) << ":"
           << n.guard().out;
    os << "\n";
}

/**
 * The graph in the textual format. Without @p timing it leaves out
 * what the executor does not read: the structure lines and each task's
 * tiles, queue depth, decoupling and junction ports.
 */
void
emitGraph(std::ostringstream &os, const Accelerator &accel, bool timing)
{
    os << "accelerator " << accel.name() << "\n";
    if (timing)
        for (const auto &s : accel.structures())
            emitStructure(os, *s);
    // Declare all tasks before node bodies so callee references always
    // resolve.
    for (const auto &t : accel.tasks()) {
        os << "task " << t->name() << " kind=" << taskKindName(t->kind());
        if (timing)
            os << " tiles=" << t->numTiles() << " queue="
               << t->queueDepth() << " decoupled="
               << (t->decoupled() ? 1 : 0) << " jr="
               << t->junctionReadPorts() << " jw="
               << t->junctionWritePorts();
        if (t->parentTask())
            os << " parent=" << t->parentTask()->name();
        os << "\n";
    }
    for (const auto &t : accel.tasks()) {
        os << "body " << t->name() << "\n";
        // Normalized sequential ids (raw ids may have gaps after
        // passes delete nodes), so a reload re-serializes identically.
        std::map<const Node *, unsigned> seq;
        for (const auto &n : t->nodes())
            seq.emplace(n.get(), unsigned(seq.size()));
        for (const auto &n : t->nodes())
            emitNode(os, *n, seq);
        os << "end\n";
    }
    os << "root " << accel.root()->name() << "\n";
}

} // namespace

std::string
serialize(const Accelerator &accel)
{
    std::ostringstream os;
    os << "# µIR graph (textual checkpoint)\n";
    emitGraph(os, accel, /*timing=*/true);
    return os.str();
}

std::string
dataflowKey(const Accelerator &accel)
{
    std::ostringstream os;
    emitGraph(os, accel, /*timing=*/false);
    return os.str();
}

namespace
{

/** The parser proper; throws ParseError on malformed input. */
std::unique_ptr<Accelerator>
parseGraph(const std::string &text, const ir::Module *source)
{
    if (text.size() > kMaxSerializedBytes)
        throw ParseError{0, fmt("input too large: %zu bytes "
                                "(cap %zu)",
                                text.size(), kMaxSerializedBytes)};
    std::unique_ptr<Accelerator> accel;
    Task *body_task = nullptr;
    unsigned lineno = 0;
    bool root_set = false;
    unsigned total_nodes = 0;
    std::map<const Task *, std::map<unsigned, Node *>> node_by_id;
    // Deferred edges: (task, consumer, slot-or-guard, producer id, out).
    struct Edge
    {
        Task *task;
        Node *consumer;
        bool is_guard;
        unsigned producer_id;
        unsigned out;
        unsigned lineno;
    };
    std::vector<Edge> edges;
    // Parent tasks may be declared after their children (the front end
    // creates children first); resolve at the end.
    std::vector<std::tuple<Task *, std::string, unsigned>> parent_fixups;

    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.size() > kMaxSerializedLineBytes)
            throw ParseError{lineno,
                             fmt("input too large: line is %zu bytes "
                                 "(cap %zu)",
                                 line.size(), kMaxSerializedLineBytes)};
        if (line.empty() || line[0] == '#')
            continue;
        auto tokens = tokenize(line);
        if (tokens.empty())
            continue;
        const std::string &head = tokens[0];

        if (head == "accelerator") {
            if (tokens.size() < 2)
                throw ParseError{lineno, "accelerator needs a name"};
            if (accel)
                throw ParseError{lineno, "duplicate accelerator line"};
            accel = std::make_unique<Accelerator>(tokens[1], source);
        } else if (head == "structure") {
            if (!accel)
                throw ParseError{lineno, "structure before accelerator"};
            if (tokens.size() < 2)
                throw ParseError{lineno, "structure needs a name"};
            if (accel->structureByName(tokens[1]))
                throw ParseError{lineno, fmt("duplicate structure '%s'",
                                             tokens[1].c_str())};
            if (accel->structures().size() >= kMaxSerializedStructures)
                throw ParseError{lineno,
                                 fmt("input too large: more than %u "
                                     "structures",
                                     kMaxSerializedStructures)};
            auto kv = fields(tokens, 2, lineno);
            const std::string &kind_s = need(kv, "kind", lineno);
            StructureKind kind;
            if (kind_s == "scratchpad")
                kind = StructureKind::Scratchpad;
            else if (kind_s == "cache")
                kind = StructureKind::Cache;
            else if (kind_s == "dram")
                kind = StructureKind::Dram;
            else
                throw ParseError{lineno,
                                 fmt("unknown structure kind '%s'",
                                     kind_s.c_str())};
            Structure *s = accel->addStructure(kind, tokens[1]);
            unsigned banks =
                parseUnsigned(need(kv, "banks", lineno), "banks", lineno);
            unsigned ports =
                parseUnsigned(need(kv, "ports", lineno), "ports", lineno);
            unsigned wide =
                parseUnsigned(need(kv, "wide", lineno), "wide", lineno);
            if (!banks || !ports || !wide)
                throw ParseError{lineno, "banks/ports/wide must be >= 1"};
            s->setBanks(banks);
            s->setPortsPerBank(ports);
            s->setWideWords(wide);
            s->setLatency(
                parseUnsigned(need(kv, "lat", lineno), "lat", lineno));
            s->setSizeKb(
                parseUnsigned(need(kv, "size", lineno), "size", lineno));
            s->setWays(
                parseUnsigned(need(kv, "ways", lineno), "ways", lineno));
            s->setLineBytes(
                parseUnsigned(need(kv, "line", lineno), "line", lineno));
            s->setMissLatency(
                parseUnsigned(need(kv, "miss", lineno), "miss", lineno));
            s->setBytesPerCycle(
                parseDouble(need(kv, "bpc", lineno), "bpc", lineno));
            if (kv.count("spaces"))
                for (const auto &sp : split(kv["spaces"], ','))
                    s->addSpace(parseUnsigned(sp, "space id", lineno));
        } else if (head == "task") {
            if (!accel)
                throw ParseError{lineno, "task before accelerator"};
            if (tokens.size() < 2)
                throw ParseError{lineno, "task needs a name"};
            if (accel->taskByName(tokens[1]))
                throw ParseError{lineno, fmt("duplicate task '%s'",
                                             tokens[1].c_str())};
            if (accel->tasks().size() >= kMaxSerializedTasks)
                throw ParseError{lineno,
                                 fmt("input too large: more than %u "
                                     "tasks",
                                     kMaxSerializedTasks)};
            auto kv = fields(tokens, 2, lineno);
            const std::string &kind_s = need(kv, "kind", lineno);
            TaskKind kind;
            if (kind_s == "root")
                kind = TaskKind::Root;
            else if (kind_s == "loop")
                kind = TaskKind::Loop;
            else if (kind_s == "spawn")
                kind = TaskKind::Spawn;
            else if (kind_s == "func")
                kind = TaskKind::Func;
            else
                throw ParseError{lineno, fmt("unknown task kind '%s'",
                                             kind_s.c_str())};
            Task *t = accel->addTask(kind, tokens[1], nullptr);
            if (kv.count("parent"))
                parent_fixups.emplace_back(t, kv["parent"], lineno);
            t->setNumTiles(parseUnsigned(need(kv, "tiles", lineno),
                                         "tiles", lineno));
            t->setQueueDepth(parseUnsigned(need(kv, "queue", lineno),
                                           "queue", lineno));
            t->setDecoupled(need(kv, "decoupled", lineno) == "1");
            t->setJunctionPorts(
                parseUnsigned(need(kv, "jr", lineno), "jr", lineno),
                parseUnsigned(need(kv, "jw", lineno), "jw", lineno));
        } else if (head == "body") {
            if (!accel || tokens.size() < 2)
                throw ParseError{lineno, "bad body line"};
            if (body_task)
                throw ParseError{lineno, "body inside another body "
                                         "(missing 'end')"};
            body_task = accel->taskByName(tokens[1]);
            if (!body_task)
                throw ParseError{lineno, fmt("body for unknown task "
                                             "'%s'",
                                             tokens[1].c_str())};
        } else if (head == "node") {
            if (!body_task)
                throw ParseError{lineno, "node outside body"};
            if (tokens.size() < 2)
                throw ParseError{lineno, "node needs an id"};
            if (++total_nodes > kMaxSerializedNodes)
                throw ParseError{lineno,
                                 fmt("input too large: more than %u "
                                     "nodes",
                                     kMaxSerializedNodes)};
            unsigned orig_id =
                parseUnsigned(tokens[1], "node id", lineno);
            if (node_by_id[body_task].count(orig_id))
                throw ParseError{lineno,
                                 fmt("duplicate node id %u in task %s",
                                     orig_id,
                                     body_task->name().c_str())};
            auto kv = fields(tokens, 2, lineno);
            const std::string &kind_s = need(kv, "kind", lineno);
            const std::string &name = need(kv, "name", lineno);
            ir::Type type = parseType(need(kv, "type", lineno), lineno);

            // An op name resolver shared by compute and fused nodes.
            auto parseOp = [&](const std::string &op_s) {
                for (int o = 0; o <= int(ir::Op::TRelu); ++o)
                    if (op_s == ir::opName(static_cast<ir::Op>(o)))
                        return static_cast<ir::Op>(o);
                throw ParseError{lineno,
                                 fmt("unknown op '%s'", op_s.c_str())};
            };

            Node *n = nullptr;
            if (kind_s == "compute") {
                n = body_task->addCompute(parseOp(need(kv, "op", lineno)),
                                          type, name);
            } else if (kind_s == "fused") {
                n = body_task->addNode(NodeKind::Fused, name);
                n->setIrType(type);
                for (const auto &uop_s :
                     split(need(kv, "uops", lineno), '|')) {
                    auto parts = split(uop_s, '~');
                    if (parts.size() != 3)
                        throw ParseError{lineno, fmt("bad uop '%s'",
                                                     uop_s.c_str())};
                    Node::MicroOp mop;
                    mop.op = parseOp(parts[0]);
                    mop.type = parseType(parts[1], lineno);
                    if (!parts[2].empty())
                        for (const auto &src : split(parts[2], '.'))
                            mop.srcs.push_back(static_cast<int>(
                                parseInt(src, "uop src", lineno)));
                    n->microOps().push_back(std::move(mop));
                }
            } else if (kind_s == "const") {
                if (kv.count("fval"))
                    n = body_task->addConstFp(parseDouble(
                        kv["fval"], "fval", lineno));
                else
                    n = body_task->addConstInt(
                        type,
                        parseInt(need(kv, "ival", lineno), "ival",
                                 lineno));
                n->setName(name);
            } else if (kind_s == "globaladdr") {
                if (!source)
                    throw ParseError{lineno,
                                     "globaladdr needs a source module"};
                const std::string &g_name = need(kv, "global", lineno);
                const ir::GlobalArray *g = source->global(g_name);
                if (!g)
                    throw ParseError{lineno, fmt("unknown global '%s'",
                                                 g_name.c_str())};
                n = body_task->addGlobalAddr(g);
                n->setName(name);
            } else if (kind_s == "load") {
                n = body_task->addLoad(
                    type,
                    parseUnsigned(need(kv, "space", lineno), "space",
                                  lineno),
                    name);
            } else if (kind_s == "store") {
                n = body_task->addStore(
                    parseUnsigned(need(kv, "space", lineno), "space",
                                  lineno),
                    name);
            } else if (kind_s == "livein") {
                n = body_task->addLiveIn(type, name);
            } else if (kind_s == "liveout") {
                n = body_task->addLiveOut(type, name);
            } else if (kind_s == "loopctrl") {
                n = body_task->addNode(NodeKind::LoopControl, name);
                n->setIrType(type);
                n->setNumCarried(parseUnsigned(
                    need(kv, "carried", lineno), "carried", lineno));
                n->setCtrlStages(parseUnsigned(
                    need(kv, "stages", lineno), "stages", lineno));
            } else if (kind_s == "childcall") {
                const std::string &callee_name =
                    need(kv, "callee", lineno);
                Task *callee = accel->taskByName(callee_name);
                if (!callee)
                    throw ParseError{lineno, fmt("unknown callee '%s'",
                                                 callee_name.c_str())};
                n = body_task->addChildCall(
                    callee, need(kv, "spawn", lineno) == "1", name);
            } else if (kind_s == "sync") {
                n = body_task->addNode(NodeKind::SyncNode, name);
                n->setIrType(type);
            } else {
                throw ParseError{lineno, fmt("unknown node kind '%s'",
                                             kind_s.c_str())};
            }
            node_by_id[body_task][orig_id] = n;

            auto parseRef = [&](const std::string &ref_s, bool guard) {
                auto rc = split(ref_s, ':');
                if (rc.size() != 2)
                    throw ParseError{lineno,
                                     fmt("bad %s ref '%s' (want "
                                         "id:out)",
                                         guard ? "guard" : "input",
                                         ref_s.c_str())};
                if (edges.size() >= kMaxSerializedEdges)
                    throw ParseError{lineno,
                                     fmt("input too large: more than "
                                         "%u edges",
                                         kMaxSerializedEdges)};
                edges.push_back(
                    {body_task, n, guard,
                     parseUnsigned(rc[0], "node ref", lineno),
                     parseUnsigned(rc[1], "output index", lineno),
                     lineno});
            };
            if (kv.count("in"))
                for (const auto &ref_s : split(kv["in"], ','))
                    parseRef(ref_s, false);
            if (kv.count("guard"))
                parseRef(kv["guard"], true);
        } else if (head == "end") {
            if (!body_task)
                throw ParseError{lineno, "'end' outside a body"};
            body_task = nullptr;
        } else if (head == "root") {
            if (!accel || tokens.size() < 2)
                throw ParseError{lineno, "bad root line"};
            Task *root = accel->taskByName(tokens[1]);
            if (!root)
                throw ParseError{lineno, fmt("unknown root '%s'",
                                             tokens[1].c_str())};
            accel->setRoot(root);
            root_set = true;
        } else {
            throw ParseError{lineno, fmt("unknown directive '%s'",
                                         head.c_str())};
        }
    }
    if (!accel)
        throw ParseError{0, "no accelerator in input"};
    if (body_task)
        throw ParseError{lineno, fmt("body of task '%s' never ended",
                                     body_task->name().c_str())};
    if (!root_set)
        throw ParseError{0, "no root directive"};

    for (auto &[task, parent_name, fix_line] : parent_fixups) {
        Task *parent = accel->taskByName(parent_name);
        if (!parent)
            throw ParseError{fix_line, fmt("unknown parent task '%s'",
                                           parent_name.c_str())};
        task->setParentTask(parent);
    }

    // Wire deferred edges (producers may appear after consumers only
    // for loop back edges, which is why edges are deferred wholesale).
    for (const Edge &e : edges) {
        auto &ids = node_by_id[e.task];
        auto it = ids.find(e.producer_id);
        if (it == ids.end())
            throw ParseError{e.lineno,
                             fmt("dangling node ref %u in task %s",
                                 e.producer_id, e.task->name().c_str())};
        if (e.is_guard)
            e.consumer->setGuard(it->second, e.out);
        else
            e.consumer->addInput(it->second, e.out);
    }
    return accel;
}

} // namespace

DeserializeResult
deserializeOrError(const std::string &text, const ir::Module *source)
{
    DeserializeResult result;
    try {
        result.accel = parseGraph(text, source);
    } catch (const ParseError &pe) {
        result.error = pe.msg;
        result.line = pe.line;
    }
    return result;
}

std::unique_ptr<Accelerator>
deserialize(const std::string &text, const ir::Module *source)
{
    DeserializeResult result = deserializeOrError(text, source);
    if (!result.ok())
        muir_fatal("deserialize: line %u: %s", result.line,
                   result.error.c_str());
    return std::move(result.accel);
}

} // namespace muir::uir
