#include "analysis/lint.h"

#include <algorithm>

#include "analysis/dataflow.h"
#include "analysis/wcet.h"
#include "common/logging.h"

namespace uexc::analysis {

using detail::formatString;
using sim::DecodedInst;
using sim::Op;

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Note:    return "note";
      case Severity::Warning: return "warning";
      case Severity::Error:   return "error";
    }
    return "?";
}

const char *
checkName(Check c)
{
    switch (c) {
      case Check::LoadDelayHazard:      return "load-delay-hazard";
      case Check::ControlInDelaySlot:   return "control-in-delay-slot";
      case Check::PrivilegedInUserCode: return "privileged-in-user-code";
      case Check::ClobberedRegister:    return "clobbered-register";
      case Check::UnreachableCode:      return "unreachable-code";
      case Check::FallOffEnd:           return "fall-off-end";
      case Check::InvalidOpcode:        return "invalid-opcode";
      case Check::FastPathStructure:    return "fast-path-structure";
      case Check::SharedPageConflict:   return "shared-page-conflict";
      case Check::UnsyncSharedWrite:    return "unsync-shared-write";
      case Check::HandlerWcetExceedsBudget:
        return "handler-wcet-exceeds-budget";
      case Check::UnboundedHandlerLoop: return "unbounded-handler-loop";
    }
    return "?";
}

namespace {

Finding
makeFinding(Check check, Severity sev, Addr addr,
            const std::string &region, const DecodedInst &inst,
            std::string message)
{
    Finding f;
    f.check = check;
    f.severity = sev;
    f.addr = addr;
    f.region = region;
    f.disasm = sim::disassemble(inst, addr);
    f.message = std::move(message);
    return f;
}

/** Names of the registers in @p mask, comma-separated. */
std::string
regMaskNames(Word mask)
{
    std::string out;
    for (unsigned r = 0; r < sim::NumRegs; r++) {
        if (!(mask & (Word{1} << r)))
            continue;
        if (!out.empty())
            out += ",";
        out += sim::regName(r);
    }
    return out;
}

void
checkLoadDelayHazards(const Cfg &cfg, const RegionSpec &spec,
                      std::vector<Finding> &out)
{
    for (Addr a = cfg.begin(); a < cfg.end(); a += 4) {
        if (!cfg.reached(a))
            continue;
        const DecodedInst &inst = cfg.inst(a);
        if (!(sim::opFlags(inst.op) & sim::opf::Load))
            continue;
        Word written = sim::regWriteSet(inst);
        if (!written)
            continue;
        for (Addr n : cfg.nextExecuted(a)) {
            if (!(sim::regReadSet(cfg.inst(n)) & written))
                continue;
            out.push_back(makeFinding(
                Check::LoadDelayHazard, Severity::Warning, a,
                spec.name, inst,
                formatString(
                    "%s is read by the next executed instruction at "
                    "0x%08x (%s); an R3000 load delay slot would "
                    "deliver the stale value",
                    regMaskNames(written).c_str(), n,
                    sim::disassemble(cfg.inst(n), n).c_str())));
            break;
        }
    }
}

void
checkDelaySlots(const Cfg &cfg, const RegionSpec &spec,
                std::vector<Finding> &out)
{
    for (Addr a = cfg.begin(); a < cfg.end(); a += 4) {
        if (!cfg.reached(a) || !cfg.isDelaySlot(a))
            continue;
        const DecodedInst &inst = cfg.inst(a);
        if (sim::opFlags(inst.op) & sim::opf::Control) {
            out.push_back(makeFinding(
                Check::ControlInDelaySlot, Severity::Error, a,
                spec.name, inst,
                "branch or jump in a delay slot: behavior is "
                "architecturally undefined"));
        }
    }
}

void
checkPrivileged(const Cfg &cfg, const RegionSpec &spec,
                std::vector<Finding> &out)
{
    for (Addr a = cfg.begin(); a < cfg.end(); a += 4) {
        if (!cfg.reached(a))
            continue;
        const DecodedInst &inst = cfg.inst(a);
        if (sim::opFlags(inst.op) & sim::opf::Privileged) {
            out.push_back(makeFinding(
                Check::PrivilegedInUserCode, Severity::Error, a,
                spec.name, inst,
                "privileged instruction reachable in user-mode code "
                "(would raise Coprocessor Unusable)"));
        }
    }
}

void
checkInvalidOpcodes(const Cfg &cfg, const RegionSpec &spec,
                    std::vector<Finding> &out)
{
    for (Addr a = cfg.begin(); a < cfg.end(); a += 4) {
        if (!cfg.reached(a))
            continue;
        const DecodedInst &inst = cfg.inst(a);
        if (inst.op == Op::Invalid) {
            out.push_back(makeFinding(
                Check::InvalidOpcode, Severity::Error, a, spec.name,
                inst,
                formatString("reachable word 0x%08x does not decode "
                             "(would raise Reserved Instruction)",
                             inst.raw)));
        }
    }
}

void
checkUnreachable(const Cfg &cfg, const RegionSpec &spec,
                 std::vector<Finding> &out)
{
    // Nop padding (raw zero, from align()) is expected to be
    // unreachable; only real instructions are worth flagging.
    Addr run_begin = 0;
    unsigned run_len = 0;
    auto flush = [&]() {
        if (!run_len)
            return;
        out.push_back(makeFinding(
            Check::UnreachableCode, Severity::Warning, run_begin,
            spec.name, cfg.inst(run_begin),
            formatString("%u instruction word%s not reachable from "
                         "any entry point",
                         run_len, run_len == 1 ? "" : "s")));
        run_len = 0;
    };
    for (Addr a = cfg.begin(); a < cfg.end(); a += 4) {
        if (!cfg.reached(a) && !cfg.isData(a) && cfg.word(a) != 0) {
            if (!run_len)
                run_begin = a;
            run_len++;
        } else {
            flush();
        }
    }
    flush();
}

void
checkFallOff(const Cfg &cfg, const RegionSpec &spec,
             std::vector<Finding> &out)
{
    for (const BasicBlock &b : cfg.blocks()) {
        if (!b.fallsOff)
            continue;
        Addr last = b.end - 4;
        out.push_back(makeFinding(
            Check::FallOffEnd, Severity::Error, last, spec.name,
            cfg.inst(last),
            spec.handler
                ? "handler is truncated: control flow runs past its "
                  "last instruction without a return"
                : "control flow runs off the end of the code region "
                  "into data or unmapped words"));
    }
}

void
checkRegisterDiscipline(const Cfg &cfg, const RegionSpec &spec,
                        std::vector<Finding> &out)
{
    std::vector<Word> saved_in = savedInMasks(cfg);
    const auto &blocks = cfg.blocks();
    for (unsigned i = 0; i < blocks.size(); i++) {
        if (saved_in[i] == ~Word{0})
            continue; // not reachable from the handler entries
        Word saved = saved_in[i];
        for (Addr a = blocks[i].begin; a < blocks[i].end; a += 4) {
            const DecodedInst &inst = cfg.inst(a);
            Word bad =
                sim::regWriteSet(inst) & ~spec.scratchMask & ~saved;
            if (bad) {
                out.push_back(makeFinding(
                    Check::ClobberedRegister, Severity::Error, a,
                    spec.name, inst,
                    formatString(
                        "handler clobbers %s without saving it on "
                        "every path first (scratch set: %s)",
                        regMaskNames(bad).c_str(),
                        regMaskNames(spec.scratchMask).c_str())));
            }
            saved = savedTransfer(inst, saved);
        }
    }
}

void
checkHandlerWcet(const sim::Program &prog, const RegionSpec &spec,
                 const LintConfig &config, std::vector<Finding> &out)
{
    CodeRegion region;
    region.begin = spec.begin;
    region.end = spec.end;
    region.entries = spec.entries;
    region.dataRanges = spec.dataRanges;
    Vsa vsa = Vsa::run(prog, region);
    WcetResult wcet =
        computeWcet(vsa, {config.cost, config.cachesEnabled});

    if (!wcet.bounded) {
        for (const LoopBound &loop : wcet.loops) {
            if (loop.bounded)
                continue;
            Finding f = makeFinding(
                Check::UnboundedHandlerLoop, Severity::Error,
                loop.backEdge, spec.name, vsa.cfg().inst(loop.backEdge),
                formatString(
                    "loop closing at 0x%08x has no inferable "
                    "iteration bound: the handler's worst-case "
                    "latency is unbounded",
                    loop.head));
            f.payload.emplace_back("loop_head", loop.head);
            out.push_back(std::move(f));
        }
        return;
    }
    if (spec.wcetBudget && wcet.worstCycles > spec.wcetBudget) {
        Finding f = makeFinding(
            Check::HandlerWcetExceedsBudget, Severity::Error,
            spec.begin, spec.name, vsa.cfg().inst(spec.begin),
            formatString("handler worst-case bound is %llu cycles, "
                         "over its budget of %llu",
                         (unsigned long long)wcet.worstCycles,
                         (unsigned long long)spec.wcetBudget));
        f.payload.emplace_back("wcet_cycles", wcet.worstCycles);
        f.payload.emplace_back("budget_cycles", spec.wcetBudget);
        f.payload.emplace_back("wcet_insts", wcet.worstInsts);
        out.push_back(std::move(f));
    }
}

void
checkSharedPages(const sim::Program &prog, const RegionSpec &spec,
                 const LintConfig &config, std::vector<Finding> &out)
{
    CodeRegion region;
    region.begin = spec.begin;
    region.end = spec.end;
    region.entries = spec.entries;
    region.dataRanges = spec.dataRanges;

    std::vector<std::vector<Addr>> entries = config.perHartEntries;
    if (entries.empty())
        entries.assign(config.multihart, spec.entries);

    PageAccessOptions opts;
    opts.pageOf = config.pageOf;
    ConflictResult result =
        analyzeSharedPageConflicts(prog, region, entries, opts);

    for (unsigned hart = 0; hart < result.harts.size(); hart++) {
        for (Addr a : result.harts[hart].unboundedStores) {
            Finding f = makeFinding(
                Check::UnsyncSharedWrite, Severity::Error, a,
                spec.name, sim::decode(prog.words[(a - prog.origin) / 4]),
                formatString(
                    "hart %u store has an unbounded effective-address "
                    "set: its shared-page footprint cannot be "
                    "predicted",
                    hart));
            f.payload.emplace_back("hart", hart);
            out.push_back(std::move(f));
        }
    }
    // One note per conflicting page; the pair detail goes into the
    // payload (an 8-hart program would otherwise repeat each page up
    // to harts^2 times).
    for (Word page : result.conflictPages) {
        unsigned pairs = 0, writers = 0, fetch_side = 0;
        Word writer_mask = 0;
        for (const PageConflict &c : result.conflicts) {
            if (c.page != page)
                continue;
            pairs++;
            if (c.kind == PageConflict::Kind::WriteFetch)
                fetch_side++;
            if (!(writer_mask & (Word{1} << c.writer))) {
                writer_mask |= Word{1} << c.writer;
                writers++;
            }
        }
        Finding f = makeFinding(
            Check::SharedPageConflict, Severity::Note, spec.begin,
            spec.name,
            sim::decode(prog.words.empty() ? 0 : prog.words[0]),
            formatString(
                "page 0x%x: %u hart%s may-write it while other harts "
                "may %s it (%u hart pairing%s); harts sharing it "
                "cannot run independently",
                page, writers, writers == 1 ? "" : "s",
                fetch_side ? "fetch or read" : "read", pairs,
                pairs == 1 ? "" : "s"));
        f.payload.emplace_back("page", page);
        f.payload.emplace_back("writer_harts", writers);
        f.payload.emplace_back("hart_pairings", pairs);
        out.push_back(std::move(f));
    }
}

} // namespace

std::vector<Finding>
lint(const sim::Program &prog, const LintConfig &config)
{
    std::vector<Finding> out;
    for (const RegionSpec &spec : config.regions) {
        CodeRegion region;
        region.begin = spec.begin;
        region.end = spec.end;
        region.entries = spec.entries;
        region.dataRanges = spec.dataRanges;
        Cfg cfg = Cfg::build(prog, region);

        if (spec.handler) {
            // The enclosing whole-program region already runs the
            // generic checks; a handler region adds the discipline
            // and truncation diagnostics.
            checkRegisterDiscipline(cfg, spec, out);
            checkFallOff(cfg, spec, out);
            checkInvalidOpcodes(cfg, spec, out);
            if (config.analyzeWcet)
                checkHandlerWcet(prog, spec, config, out);
        } else {
            checkLoadDelayHazards(cfg, spec, out);
            checkDelaySlots(cfg, spec, out);
            if (spec.userMode)
                checkPrivileged(cfg, spec, out);
            checkUnreachable(cfg, spec, out);
            checkFallOff(cfg, spec, out);
            checkInvalidOpcodes(cfg, spec, out);
            if (config.multihart > 0)
                checkSharedPages(prog, spec, config, out);
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.addr < b.addr;
                     });
    return out;
}

std::vector<Finding>
verifyFastPath(const sim::Program &prog, const FastPathSpec &spec)
{
    std::vector<Finding> out;
    if (spec.phases.empty())
        return out;

    auto instAt = [&](Addr a) {
        Addr off = a - prog.origin;
        Word w = (a >= prog.origin && off / 4 < prog.words.size())
                     ? prog.words[off / 4]
                     : 0;
        return sim::decode(w);
    };
    auto report = [&](Addr addr, std::string msg) {
        out.push_back(makeFinding(Check::FastPathStructure,
                                  Severity::Error, addr, "fast-path",
                                  instAt(addr), std::move(msg)));
    };

    for (unsigned i = 0; i < spec.phases.size(); i++) {
        const FastPathSpec::Phase &p = spec.phases[i];
        unsigned words = (p.end - p.begin) / 4;
        if (words != p.expectedWords) {
            report(p.begin,
                   formatString("phase \"%s\" holds %u instructions, "
                                "the paper's Table 3 requires %u",
                                p.name.c_str(), words,
                                p.expectedWords));
        }
        if (i + 1 < spec.phases.size() &&
            p.end != spec.phases[i + 1].begin) {
            report(p.end, formatString(
                              "phase \"%s\" is not contiguous with "
                              "phase \"%s\"",
                              p.name.c_str(),
                              spec.phases[i + 1].name.c_str()));
        }
    }

    Addr begin = spec.phases.front().begin;
    Addr end = spec.phases.back().end;
    for (Addr a = begin; a < end; a += 4) {
        DecodedInst inst = instAt(a);
        std::uint16_t f = sim::opFlags(inst.op);
        if (!(f & sim::opf::Memory))
            continue;
        Word base_bit = Word{1} << inst.rs;
        if ((f & sim::opf::Store) && !(spec.storeBaseMask & base_bit)) {
            report(a, formatString(
                          "store through base %s: fast-path stores "
                          "must stay inside the pinned save area "
                          "(allowed bases: %s)",
                          sim::regName(inst.rs),
                          regMaskNames(spec.storeBaseMask).c_str()));
        } else if ((f & sim::opf::Load) &&
                   !(spec.loadBaseMask & base_bit)) {
            report(a, formatString(
                          "load through base %s: fast-path loads must "
                          "use the pinned frame or proc structure "
                          "(allowed bases: %s)",
                          sim::regName(inst.rs),
                          regMaskNames(spec.loadBaseMask).c_str()));
        }
    }

    if (end - begin >= 8) {
        if (instAt(end - 8).op != Op::Jr || instAt(end - 4).op != Op::Rfe) {
            report(end - 8,
                   "the vector phase must end in jr/rfe (dispatch to "
                   "the user handler with the delay-slot mode "
                   "restore)");
        }
    }
    return out;
}

bool
hasErrors(const std::vector<Finding> &findings, bool strict)
{
    return std::any_of(findings.begin(), findings.end(),
                       [strict](const Finding &f) {
                           return f.severity == Severity::Error ||
                                  (strict && f.severity ==
                                                 Severity::Warning);
                       });
}

std::string
formatFinding(const Finding &f)
{
    return formatString("%s[%s] 0x%08x in %s: %s  [%s]",
                        severityName(f.severity), checkName(f.check),
                        f.addr, f.region.c_str(), f.message.c_str(),
                        f.disasm.c_str());
}

std::string
formatFindings(const std::vector<Finding> &findings)
{
    std::string out;
    for (const Finding &f : findings) {
        out += formatFinding(f);
        out += '\n';
    }
    return out;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += formatString("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

} // namespace

std::string
formatFindingsJson(const std::vector<Finding> &findings)
{
    std::string out = "[\n";
    for (std::size_t i = 0; i < findings.size(); i++) {
        const Finding &f = findings[i];
        out += formatString(
            "  {\"check\": \"%s\", \"severity\": \"%s\", "
            "\"pc\": \"0x%08x\", \"region\": \"%s\", "
            "\"disasm\": \"%s\", \"message\": \"%s\"",
            checkName(f.check), severityName(f.severity), f.addr,
            jsonEscape(f.region).c_str(), jsonEscape(f.disasm).c_str(),
            jsonEscape(f.message).c_str());
        for (const auto &[key, value] : f.payload)
            out += formatString(", \"%s\": %llu",
                                jsonEscape(key).c_str(),
                                (unsigned long long)value);
        out += i + 1 < findings.size() ? "},\n" : "}\n";
    }
    out += "]\n";
    return out;
}

} // namespace uexc::analysis
