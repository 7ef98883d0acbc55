#include "serve/gateway/campaign_gateway.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "eval/report.hpp"
#include "util/atomic_file.hpp"
#include "util/logging.hpp"

namespace autocat {

namespace {

/** Tenant/campaign names become directory components: restrict them
 *  to unambiguous path-safe tokens. */
bool
pathSafeToken(const std::string &name)
{
    if (name.empty() || name == "." || name == "..")
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' ||
                        c == '_' || c == '.';
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

CampaignGateway::CampaignGateway(std::string root_dir,
                                 FleetOptions fleet)
    : rootDir_(std::move(root_dir)), fleet_(std::move(fleet))
{
    if (rootDir_.empty())
        throw std::invalid_argument("gateway: root directory not set");
}

void
CampaignGateway::submit(SweepConfig config,
                        const std::string &campaign_name)
{
    GatewaySubmission sub;
    sub.tenant = config.gatewayTenant;
    sub.campaign =
        campaign_name.empty() ? config.name : campaign_name;
    sub.priority = config.gatewayPriority;
    sub.arrival = submissions_.size();

    if (!pathSafeToken(sub.tenant)) {
        throw std::invalid_argument(
            "gateway: submission needs a path-safe gateway.tenant "
            "(got \"" + sub.tenant + "\")");
    }
    if (!pathSafeToken(sub.campaign)) {
        throw std::invalid_argument(
            "gateway: campaign name \"" + sub.campaign +
            "\" is not a path-safe token");
    }
    // Checkpoints are keyed by cell index only, so two campaigns in
    // one directory would resume from each other's files.
    namespace fs = std::filesystem;
    const auto checkpointDir = [](const SweepConfig &c) {
        return c.checkpointDir.empty()
                   ? fs::path()
                   : fs::weakly_canonical(fs::absolute(c.checkpointDir));
    };
    const fs::path ckpt = checkpointDir(config);
    for (const GatewaySubmission &existing : submissions_) {
        if (existing.tenant == sub.tenant &&
            existing.campaign == sub.campaign) {
            throw std::invalid_argument(
                "gateway: tenant \"" + sub.tenant +
                "\" already submitted campaign \"" + sub.campaign +
                "\"");
        }
        if (!ckpt.empty() && ckpt == checkpointDir(existing.config)) {
            throw std::invalid_argument(
                "gateway: " + sub.tenant + "/" + sub.campaign +
                " shares checkpoint dir \"" + config.checkpointDir +
                "\" with " + existing.tenant + "/" + existing.campaign);
        }
    }

    sub.config = std::move(config);
    AUTOCAT_LOG_INFO << "gateway: accepted " << sub.tenant << "/"
                     << sub.campaign << " (priority " << sub.priority
                     << ", " << "arrival " << sub.arrival << ")";
    submissions_.push_back(std::move(sub));
}

std::vector<GatewayResult>
CampaignGateway::run()
{
    // Higher priority schedules first; stable sort keeps arrival
    // order within a priority class.
    std::stable_sort(submissions_.begin(), submissions_.end(),
                     [](const GatewaySubmission &a,
                        const GatewaySubmission &b) {
                         return a.priority > b.priority;
                     });

    std::vector<ScheduledGrid> grids;
    std::vector<std::string> baseDirs;
    grids.reserve(submissions_.size());
    for (GatewaySubmission &sub : submissions_) {
        const std::string base =
            rootDir_ + "/" + sub.tenant + "/" + sub.campaign;
        ScheduledGrid grid;
        grid.name = sub.config.name;
        grid.cells = expandSweepGrid(sub.config);
        grid.workDir = base + "/work";
        grid.checkpointDir = sub.config.checkpointDir;
        grid.checkpointEvery = sub.config.checkpointInterval;
        grid.manifestDir = base + "/manifest";
        grid.manifestReset = sub.config.manifestReset;
        grids.push_back(std::move(grid));
        baseDirs.push_back(base);
    }

    std::vector<SweepReport> reports =
        runSweepGridsFleet(std::move(grids), fleet_);

    std::vector<GatewayResult> results;
    results.reserve(reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        GatewayResult result;
        result.tenant = submissions_[i].tenant;
        result.campaign = submissions_[i].campaign;
        result.report = std::move(reports[i]);
        ReportOptions render;
        render.includeTiming = submissions_[i].config.includeTiming;
        result.reportJson = sweepReportJson(result.report, render);
        result.reportPath = baseDirs[i] + "/report.json";
        atomicWriteFile(result.reportPath, result.reportJson,
                        "gateway report");
        if (!submissions_[i].config.reportJsonPath.empty()) {
            atomicWriteFile(submissions_[i].config.reportJsonPath,
                            result.reportJson, "gateway report");
        }
        results.push_back(std::move(result));
    }
    submissions_.clear();
    return results;
}

} // namespace autocat
