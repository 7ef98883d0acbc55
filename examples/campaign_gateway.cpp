/**
 * @file
 * CLI front door for the multi-tenant campaign gateway: accept one or
 * more sweep-config submissions (each carrying `gateway.tenant` and
 * `gateway.priority` keys) and run them all on ONE shared worker
 * fleet — local slots (one runner_daemon child per cell attempt; the
 * runner_daemon next to this binary, or $AUTOCAT_RUNNER_DAEMON),
 * remote runner_daemon endpoints, or both.
 *
 *   $ ./examples/campaign_gateway --root /tmp/gw --dist 3 \
 *         alice_nightly.cfg bob_quick.cfg
 *   $ ./examples/campaign_gateway --root /tmp/gw \
 *         --endpoints 10.0.0.2:7001,10.0.0.3:7001 \
 *         tenants/alice.cfg tenants/bob.cfg
 *
 * Higher-priority campaigns schedule first (ties in submission
 * order); every campaign's report lands under
 * <root>/<tenant>/<campaign>/report.json, and each campaign is
 * crash-safe re-enterable through its grid manifest in the same tree.
 *
 * Exit status: 0 when every cell of every campaign completed, 1 when
 * any cell failed, 2 on submission/config errors.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "eval/sweep_config.hpp"
#include "serve/gateway/campaign_gateway.hpp"

namespace {

int
usage()
{
    std::cerr << "usage: campaign_gateway --root DIR [--dist N] "
                 "[--endpoints H:P[,H:P...]] "
                 "[--retries N] [--heartbeat-timeout S] "
                 "config.cfg [config.cfg ...]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace autocat;

    std::string root, endpoints_flag;
    FleetOptions fleet;
    fleet.localProcesses = 2;
    std::vector<std::string> config_paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--dist" && i + 1 < argc) {
            fleet.localProcesses = std::atoi(argv[++i]);
        } else if (arg == "--endpoints" && i + 1 < argc) {
            endpoints_flag = argv[++i];
        } else if (arg == "--retries" && i + 1 < argc) {
            fleet.maxRetries = std::atoi(argv[++i]);
        } else if (arg == "--heartbeat-timeout" && i + 1 < argc) {
            fleet.heartbeatTimeoutS = std::atof(argv[++i]);
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            config_paths.push_back(arg);
        }
    }
    if (root.empty() || config_paths.empty())
        return usage();

    if (!endpoints_flag.empty()) {
        std::size_t start = 0;
        for (;;) {
            const std::size_t comma = endpoints_flag.find(',', start);
            fleet.endpoints.push_back(
                comma == std::string::npos
                    ? endpoints_flag.substr(start)
                    : endpoints_flag.substr(start, comma - start));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
    }

    try {
        CampaignGateway gateway(root, fleet);
        for (const std::string &path : config_paths) {
            SweepConfig cfg = loadSweepConfig(path);
            gateway.submit(std::move(cfg));
        }
        std::cout << "Gateway accepted " << config_paths.size()
                  << " campaign(s); running the fleet.\n";

        const std::vector<GatewayResult> results = gateway.run();
        std::size_t failed = 0;
        for (const GatewayResult &result : results) {
            failed += result.report.numFailed();
            std::cout << "  " << result.tenant << "/"
                      << result.campaign << ": "
                      << result.report.numConverged() << "/"
                      << result.report.cells.size() << " converged, "
                      << result.report.numFailed() << " failed ("
                      << result.report.cellsAdopted
                      << " adopted from manifest) -> "
                      << result.reportPath << "\n";
        }
        return failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
