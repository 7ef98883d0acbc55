/**
 * @file
 * CampaignGateway: the multi-tenant front door of the networked
 * campaign service. Tenants submit *named campaigns* — ordinary sweep
 * configs carrying `gateway.tenant` / `gateway.priority` keys — and
 * the gateway multiplexes every accepted campaign onto ONE worker
 * fleet (serve/dist_scheduler.hpp runSweepGridsFleet): higher
 * priority runs first, ties run in arrival order, and a straggling
 * cell from one campaign overlaps with the next campaign's cells
 * instead of idling the fleet.
 *
 * Isolation is by directory, not by process: each campaign gets its
 * own work, manifest, and report tree under
 *
 *     <root>/<tenant>/<campaign>/{work,manifest,report.json}
 *
 * so two tenants can submit the *same* grid without colliding, and a
 * gateway crash mid-nightly is re-enterable per campaign through the
 * standard grid-manifest path (finished cells adopt; only the rest
 * run). Tenant and campaign names are restricted to path-safe tokens
 * — they become directory components.
 *
 * Determinism: the gateway adds nothing between the cells and the
 * scheduler, so each campaign's report bytes are identical to running
 * that campaign's config alone with workers=1 (the byte-identity
 * oracle in test_net).
 */

#ifndef AUTOCAT_SERVE_GATEWAY_HPP
#define AUTOCAT_SERVE_GATEWAY_HPP

#include <string>
#include <vector>

#include "eval/sweep_config.hpp"
#include "serve/dist_scheduler.hpp"

namespace autocat {

/** One accepted campaign, queued for the next run(). */
struct GatewaySubmission
{
    std::string tenant;
    std::string campaign;
    int priority = 0;
    SweepConfig config;
    std::size_t arrival = 0; ///< submission order (tie-break)
};

/** Outcome of one campaign after run(). */
struct GatewayResult
{
    std::string tenant;
    std::string campaign;
    SweepReport report;
    std::string reportJson; ///< rendered bytes (also written on disk)
    std::string reportPath; ///< <root>/<tenant>/<campaign>/report.json
};

class CampaignGateway
{
  public:
    /**
     * @param root_dir directory the per-tenant campaign trees live
     *        under (created on demand)
     * @param fleet    the shared worker fleet every campaign runs on
     */
    CampaignGateway(std::string root_dir, FleetOptions fleet);

    /**
     * Accept a campaign. The tenant comes from config.gatewayTenant,
     * the priority from config.gatewayPriority, and the campaign name
     * from @p campaign_name (falling back to config.name).
     *
     * @throws std::invalid_argument for a missing/path-unsafe tenant
     *         or campaign name, a duplicate (tenant, campaign) pair —
     *         resubmitting the same campaign must be an explicit
     *         re-entry (new gateway run), not a silent dup — or a
     *         non-empty sweep.checkpoint_dir an earlier submission
     *         already uses (checkpoints are keyed by cell index, so
     *         the campaigns would resume from each other's files)
     */
    void submit(SweepConfig config, const std::string &campaign_name = "");

    /** Accepted, not-yet-run submissions (priority order preview). */
    const std::vector<GatewaySubmission> &submissions() const
    {
        return submissions_;
    }

    /**
     * Run every accepted campaign on the fleet and return one result
     * per campaign, in scheduling (priority) order. Each campaign's
     * rendered JSON report is also written atomically into its tree.
     * Submissions are consumed: the gateway is then empty.
     *
     * Campaign work/manifest dirs derive from the gateway root; a
     * config's own checkpointDir/reportJsonPath are honored when set
     * (they are part of the campaign's determinism contract).
     */
    std::vector<GatewayResult> run();

    const std::string &rootDir() const { return rootDir_; }

  private:
    std::string rootDir_;
    FleetOptions fleet_;
    std::vector<GatewaySubmission> submissions_;
};

} // namespace autocat

#endif // AUTOCAT_SERVE_GATEWAY_HPP
