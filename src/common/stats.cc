#include "common/stats.hh"

#include <iomanip>

namespace slip
{

StatGroup::StatGroup(std::string name)
    : name_(std::move(name))
{
}

Counter &
StatGroup::counter(const std::string &name)
{
    SLIP_ASSERT(external.find(name) == external.end(),
                "counter '", name, "' in group '", name_,
                "' is linked to an external value");
    return counters[name];
}

void
StatGroup::link(const std::string &name, uint64_t &value)
{
    SLIP_ASSERT(counters.find(name) == counters.end(),
                "cannot link '", name, "' in group '", name_,
                "': an owned counter with that name exists");
    external[name] = &value;
}

Distribution &
StatGroup::distribution(const std::string &name)
{
    return distributions[name];
}

uint64_t
StatGroup::get(const std::string &name) const
{
    auto it = counters.find(name);
    if (it != counters.end())
        return it->second.value();
    auto ext = external.find(name);
    return ext == external.end() ? 0 : *ext->second;
}

const Distribution &
StatGroup::getDistribution(const std::string &name) const
{
    auto it = distributions.find(name);
    SLIP_ASSERT(it != distributions.end(),
                "no distribution named '", name, "' in group '", name_, "'");
    return it->second;
}

bool
StatGroup::hasCounter(const std::string &name) const
{
    return counters.count(name) != 0 || external.count(name) != 0;
}

void
StatGroup::dump(std::ostream &os) const
{
    const std::string prefix = name_.empty() ? "" : name_ + ".";

    // Merge owned and linked counters so output stays name-sorted.
    std::map<std::string, uint64_t> merged;
    for (const auto &[name, c] : counters)
        merged[name] = c.value();
    for (const auto &[name, p] : external)
        merged[name] = *p;

    for (const auto &[name, v] : merged)
        os << prefix << name << " " << v << "\n";
    for (const auto &[name, d] : distributions) {
        os << prefix << name << ".count " << d.count() << "\n"
           << prefix << name << ".mean " << std::fixed
           << std::setprecision(2) << d.mean() << "\n"
           << prefix << name << ".min " << d.min() << "\n"
           << prefix << name << ".max " << d.max() << "\n";
    }
}

void
StatGroup::reset()
{
    for (auto &[name, c] : counters)
        c.reset();
    for (auto &[name, p] : external)
        *p = 0;
    for (auto &[name, d] : distributions)
        d.reset();
}

} // namespace slip
