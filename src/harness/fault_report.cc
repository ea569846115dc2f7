#include "harness/fault_report.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/atomic_write.hh"
#include "common/json.hh"
#include "harness/table.hh"

namespace slip
{

namespace
{

/** Histogram bucket b's report key: its cycle range, "lo-hi". */
std::string
bucketLabel(unsigned b)
{
    return std::to_string(Histogram::bucketLo(b)) + "-" +
           std::to_string(Histogram::bucketHi(b));
}

/**
 * Walks a report field list between the fields and a JSON object.
 * Read fills the fields from `obj`, stopping at the first missing or
 * mistyped one and naming it in `err`; otherwise the fields are stored
 * into `obj`. bind() handles each value type in both directions.
 */
template <bool Read>
class Binder
{
  public:
    Binder(Json &obj, std::string &err, std::string path = "")
        : obj_(obj), err_(err), path_(std::move(path))
    {
        if constexpr (!Read)
            obj_.kind = Json::Obj;
    }

    /**
     * One field. A reader requires it unless its presence flag is false
     * on the still-empty record, so a field written only when set
     * (worker_crashes) reads back as optional.
     */
    template <typename T>
    void
    operator()(const std::string &name, T &&v, bool present = true)
    {
        if constexpr (Read) {
            Json *j = nullptr;
            for (auto &[key, member] : obj_.obj)
                if (!j && key == name)
                    j = &member;
            const bool ok =
                err_.empty() && (j ? bind(*j, v, path_ + name) : !present);
            if (!ok && err_.empty())
                err_ = (j ? "bad field " : "missing field ") + path_ + name;
        } else if (present) {
            obj_.obj.emplace_back(name, Json{});
            bind(obj_.obj.back().second, v, path_ + name);
        }
    }

    /** Fields that render inline as one object. */
    template <typename List>
    void
    group(const std::string &name, List &&list)
    {
        (*this)(name, Group<List>{list});
    }

    /** total / count, printed in place of the total. */
    template <typename U>
    void
    mean(const std::string &name, U &total, U &count)
    {
        (*this)(name, Mean<U>{total, count});
    }

    template <typename Record>
    void
    record(Record &r)
    {
        Record::fields(r, *this);
    }

  private:
    template <typename List> struct Group { List &list; };
    template <typename U> struct Mean { U &total, &count; };

    template <typename T>
    bool
    bind(Json &j, T &v, const std::string &path)
    {
        using U = std::remove_const_t<T>;
        if constexpr (std::is_same_v<U, std::string>) {
            if constexpr (Read) {
                v = j.str;
                return j.kind == Json::Str;
            } else {
                j.kind = Json::Str;
                j.str = v;
            }
        } else if constexpr (std::is_integral_v<U>) {
            if constexpr (Read) {
                return jsonNumber(j, v);
            } else {
                j.kind = Json::Num;
                j.str = std::to_string(v);
            }
        } else if constexpr (requires { v.total; v.count; }) {
            // Six significant digits, as an ostream prints a double.
            // Read back, llround(mean * count) renders them again.
            double mean = v.count ? double(v.total) / double(v.count) : 0;
            if constexpr (Read) {
                if (!jsonNumber(j, mean) || mean < 0 ||
                    mean * double(v.count) >= 0x1p63)
                    return false;
                v.total = std::llround(mean * double(v.count));
            } else {
                char text[32];
                std::snprintf(text, sizeof(text), "%g", mean);
                j.kind = Json::Num;
                j.str = text;
            }
        } else if constexpr (std::is_same_v<U, Histogram>) {
            // Non-zero buckets, keyed by their cycle range.
            if constexpr (Read) {
                for (const auto &[label, count] : j.obj) {
                    unsigned b = 0;
                    while (b < Histogram::kBuckets && label != bucketLabel(b))
                        ++b;
                    uint64_t n = 0;
                    if (b == Histogram::kBuckets || !jsonNumber(count, n))
                        return false;
                    v.addToBucket(b, n);
                }
                return j.kind == Json::Obj;
            } else {
                Binder<Read> buckets(j, err_, path + ".");
                for (unsigned b = 0; b < Histogram::kBuckets; ++b)
                    buckets(bucketLabel(b), v.bucket(b), v.bucket(b) != 0);
            }
        } else if constexpr (requires { typename U::mapped_type; }) {
            // A map is an object; empty histograms are left out.
            if constexpr (Read) {
                for (auto &[key, member] : j.obj)
                    if (!bind(member, v[key], path + "." + key))
                        return false;
                return j.kind == Json::Obj;
            } else {
                Binder<Read> entries(j, err_, path + ".");
                for (const auto &[key, member] : v) {
                    if constexpr (std::is_same_v<typename U::mapped_type,
                                                 Histogram>)
                        entries(key, member, member.count() != 0);
                    else
                        entries(key, member);
                }
            }
        } else if constexpr (requires { v.size(); v[0]; }) {
            // std::array or std::vector.
            if constexpr (!Read) {
                j.kind = Json::Arr;
                j.arr.resize(v.size());
            } else if constexpr (requires { v.resize(0); }) {
                v.resize(j.arr.size());
            }
            if (j.kind != Json::Arr || j.arr.size() != v.size())
                return false;
            for (size_t i = 0; i < v.size(); ++i)
                if (!bind(j.arr[i], v[i], path + "[" + std::to_string(i) + "]"))
                    return false;
        } else {
            // A group, or a record with a field list.
            if (j.kind != Json::Obj && Read)
                return false;
            Binder<Read> members(j, err_, path + ".");
            if constexpr (requires { v.list; })
                v.list(members);
            else
                members.record(v);
            return err_.empty();
        }
        return true;
    }

    Json &obj_;
    std::string &err_;
    std::string path_;
};

/**
 * The report's text. A block (the campaign object, each workload) puts
 * one key a line; every other value sits inline on its key's line.
 */
void
print(const Json &j, std::string &out, int indent, bool block)
{
    if (j.kind == Json::Str || j.kind == Json::Num) {
        out += j.kind == Json::Str ? '"' + jsonEscape(j.str) + '"' : j.str;
        return;
    }
    const bool isObj = j.kind == Json::Obj;
    const size_t n = isObj ? j.obj.size() : j.arr.size();
    out += isObj ? '{' : '[';
    for (size_t i = 0; i < n; ++i) {
        if (block)
            out += (i ? ",\n" : "\n") + std::string(indent + 2, ' ');
        else if (i)
            out += ", ";
        if (isObj)
            out += '"' + jsonEscape(j.obj[i].first) + "\": ";
        // Inside a block, records and arrays of them are blocks too.
        const Json &v = isObj ? j.obj[i].second : j.arr[i];
        const bool records =
            v.kind == Json::Obj
                ? !isObj
                : v.kind == Json::Arr &&
                      (v.arr.empty() || v.arr[0].kind == Json::Obj);
        print(v, out, indent + 2, block && records);
    }
    if (block)
        out += '\n' + std::string(indent, ' ');
    out += isObj ? '}' : ']';
}

} // namespace

FaultReport
faultReport(const FaultCampaignConfig &cfg, const FaultCampaignResult &result)
{
    FaultReport r{{}, result.total, result.perWorkload};
    FaultReportHeader &h = r.header;
    h.campaign = cfg.name;
    h.mode = cfg.reliableMode ? "reliable" : "slipstream";
    h.detectBackend = detectBackendName(cfg.params.detect.kind);
    h.aStreamPolicy = aStreamPolicyName(cfg.params.aPolicy.kind);
    h.size = sizeName(cfg.size);
    h.seed = cfg.seed;
    h.trialsPerWorkload = cfg.trialsPerWorkload;
    h.faultsPerTrial = {cfg.minFaultsPerTrial, cfg.maxFaultsPerTrial};
    for (const FaultTarget t : !cfg.targets.empty()
                                   ? cfg.targets
                                   : defaultCampaignTargets(cfg.reliableMode))
        h.targets.push_back(faultTargetName(t));
    return r;
}

std::string
campaignJson(const FaultReport &report)
{
    Json j;
    std::string unused, out;
    Binder<false>(j, unused).record(report);
    print(j, out, 0, true);
    return out;
}

std::string
campaignJson(const FaultCampaignConfig &cfg, const FaultCampaignResult &result)
{
    return campaignJson(faultReport(cfg, result));
}

std::string
faultReportText(const std::vector<std::string> &campaignObjects)
{
    std::string text = "[\n";
    for (size_t i = 0; i < campaignObjects.size(); ++i)
        text += campaignObjects[i] +
                (i + 1 < campaignObjects.size() ? ",\n" : "\n");
    return text + "]\n";
}

void
writeFaultReport(const std::vector<std::string> &campaignObjects,
                 const std::string &path)
{
    const char *env = std::getenv("SLIPSTREAM_FAULT_JSON");
    writeFileAtomically(!path.empty() ? path
                        : env         ? env
                                      : "results/fault_campaign.json",
                        faultReportText(campaignObjects), "fault report");
}

bool
readFaultReport(const std::string &text, std::vector<FaultReport> &out,
                std::string &err)
{
    const size_t first = text.find_first_not_of(" \t\r\n");
    if (first == std::string::npos || text[first] != '[') {
        err = first == std::string::npos
                  ? "report is empty"
                  : "report does not start with a JSON array (foreign or "
                    "corrupt file)";
        return false;
    }
    Json root;
    try {
        root = parseJson(text);
    } catch (const JsonError &e) {
        err = std::string("report is not valid JSON: ") + e.what();
        return false;
    }
    // Every version first: an object from another revision, or from
    // before there were revisions, has no layout this build knows.
    for (size_t i = 0; i < root.arr.size(); ++i) {
        const Json *v = root.arr[i].get(FaultReportHeader::kVersionKey);
        unsigned version = 0;
        if (!v)
            err = "report object " + std::to_string(i) + " has no " +
                  FaultReportHeader::kVersionKey + " (regenerate the report)";
        else if (!jsonNumber(*v, version) || version != kFaultReportVersion)
            err = "report schema version " +
                  (v->kind == Json::Num ? v->str : "<garbage>") +
                  " does not match this build's version " +
                  std::to_string(kFaultReportVersion) +
                  " (regenerate the report)";
        if (!err.empty())
            return false;
    }
    std::vector<FaultReport> reports(root.arr.size());
    for (size_t i = 0; i < reports.size(); ++i) {
        Binder<true>(root.arr[i], err).record(reports[i]);
        if (!err.empty()) {
            const std::string &name = reports[i].header.campaign;
            err += " in campaign " +
                   (name.empty() ? "#" + std::to_string(i) : name);
            return false;
        }
    }
    out = std::move(reports);
    return true;
}

std::string
renderShootoutTable(const std::vector<FaultReport> &reports)
{
    const auto fraction = [](uint64_t part, uint64_t whole) {
        return whole ? double(part) / double(whole) : 0.0;
    };
    Table table({"backend", "trials", "injected", "detected",
                 "coverage", "silent-corrupt", "det-unrepaired",
                 "lat-avg", "lat-max", "overhead-cycles", "overhead"});
    for (const FaultReport &r : reports) {
        const CampaignTally &t = r.total;
        table.addRow(
            {r.header.detectBackend, Table::count(t.trials),
             Table::count(t.faultsInjected), Table::count(t.faultsDetected),
             Table::percent(fraction(t.faultsDetected, t.faultsInjected)),
             Table::count(t.outcomes(TrialOutcome::SilentCorrupt)),
             Table::count(t.outcomes(TrialOutcome::DetectedUnrepaired)),
             Table::fixed(t.avgLatency(), 1), Table::count(t.latencyMax),
             Table::count(t.detectOverhead),
             Table::percent(fraction(t.detectOverhead, t.cyclesTotal))});
    }
    std::ostringstream out;
    table.print(out);
    return out.str();
}

void
writeShootoutTable(const std::vector<FaultReport> &reports,
                   const std::string &path)
{
    writeFileAtomically(path, renderShootoutTable(reports),
                        "shootout table");
}

} // namespace slip
