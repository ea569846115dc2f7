/**
 * detect_report: re-render the detection-backend shootout table from
 * a fault-campaign JSON report, offline — no simulation.
 *
 *   detect_report                          # results/detect_shootout.json
 *   detect_report path/to/report.json
 *   detect_report -o results/table.txt    # also write the table file
 *
 * Reads the JSON array bench/detect_shootout (or any campaign runner)
 * wrote with readFaultReport(); every campaign object becomes one
 * table row, in file order.
 *
 * Exit codes: 0 = table printed, 1 = report missing, truncated, from
 * a foreign or no schema version, missing a field, or holding no
 * campaigns — each with a one-line diagnosis on stderr — 2 = usage
 * error.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness/fault_report.hh"

int
main(int argc, char **argv)
{
    using namespace slip;

    std::string reportPath = "results/detect_shootout.json";
    std::string tablePath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            std::cout << "usage: detect_report [report.json]"
                         " [-o table.txt]\n";
            return 0;
        } else if (arg == "-o") {
            if (i + 1 >= argc) {
                std::cerr << "detect_report: -o needs a path\n";
                return 2;
            }
            tablePath = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "detect_report: unknown option '" << arg
                      << "'\n";
            return 2;
        } else {
            reportPath = arg;
        }
    }

    std::ifstream in(reportPath);
    if (!in) {
        std::cerr << "detect_report: cannot read '" << reportPath
                  << "' (run bench/detect_shootout first?)\n";
        return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    std::vector<FaultReport> reports;
    std::string why;
    if (!readFaultReport(buf.str(), reports, why)) {
        std::cerr << "detect_report: '" << reportPath << "': " << why
                  << "\n";
        return 1;
    }
    if (reports.empty()) {
        std::cerr << "detect_report: no detection-backend campaigns "
                     "in '"
                  << reportPath << "'\n";
        return 1;
    }

    std::cout << renderShootoutTable(reports);
    if (!tablePath.empty()) {
        writeShootoutTable(reports, tablePath);
        std::cout << "table written to " << tablePath << "\n";
    }
    return 0;
}
