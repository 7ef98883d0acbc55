/**
 * @file
 * Persistent, crash-safe grid manifest: the on-disk truth about a
 * sweep grid's progress, so a *fresh* scheduler process can re-enter
 * a half-finished nightly and finish it — rendering the exact report
 * bytes an uninterrupted run would have produced.
 *
 * Layout under the manifest directory:
 *
 *     manifest.state   one util/binio section (magic ACDMANV1):
 *                      grid hash, grid name, cell count, and per cell
 *                      {state, failed attempts}. Rewritten atomically
 *                      on every recorded event.
 *     row_<i>.blob     the finished cell's ACDROWV2 row blob,
 *                      byte-verbatim as the scheduler received it
 *                      (a worker's Row frame, or a failure row).
 *
 * Keying: the manifest is bound to a *grid identity* — the FNV-1a
 * hash over every cell's serialized job blob in index order. Since a
 * job blob embeds the cell's fully-rendered config, two grids hash
 * equal exactly when every cell would run identically; re-entering
 * with a different config/grid against the same directory is refused
 * (or wiped, when the caller passes reset) instead of silently mixing
 * two experiments' rows.
 *
 * Crash ordering: a cell's row blob is written (atomically) BEFORE
 * the state file records it done. Recovery therefore trusts the row
 * blobs: a valid row blob marks its cell done even when the state
 * write was lost, and a "done" state without a valid row blob demotes
 * the cell back to pending. Either way the re-entered run computes
 * exactly the missing cells, and adopted rows deserialize through the
 * same wire path remote rows do — byte-identity by construction.
 */

#ifndef AUTOCAT_SERVE_MANIFEST_HPP
#define AUTOCAT_SERVE_MANIFEST_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "eval/sweep.hpp"

namespace autocat {

/** Grid identity: FNV-1a 64 over each cell's job blob, in index
 *  order. Deterministic because job blobs embed rendered config. */
std::uint64_t gridManifestHash(const std::vector<std::string> &job_blobs);

class GridManifest
{
  public:
    /** Recovered knowledge about one cell. */
    struct CellEntry
    {
        bool done = false;       ///< a valid row blob exists
        int failedAttempts = 0;  ///< attempts consumed by prior runs
        SweepCellResult row;     ///< deserialized row when done
    };

    /**
     * Open (creating or re-entering) a manifest directory.
     *
     * A fresh directory records the grid identity and an all-pending
     * state. An existing one is validated: grid hash and cell count
     * must match, else std::invalid_argument — unless @p reset, which
     * wipes the stale manifest and starts fresh. Unreadable/corrupt
     * state or row files are treated as lost progress for the
     * affected cells, never as errors: the grid re-runs them.
     *
     * @throws std::invalid_argument for a hash/count mismatch without
     *         reset; std::runtime_error when the directory cannot be
     *         created or the state file cannot be written
     */
    GridManifest(std::string dir, std::string name,
                 std::uint64_t grid_hash, std::size_t cell_count,
                 bool reset);

    /** Recovered entries, one per cell, index order. */
    const std::vector<CellEntry> &cells() const { return cells_; }

    /** Count of cells recovered as done (report.cellsAdopted). */
    std::size_t numDone() const;

    /**
     * Record a finished cell: persist @p row_bytes (the verbatim row
     * blob) then mark the state. Failure rows (retry exhaustion) are
     * recorded the same way — re-entry must not retry what the budget
     * already gave up on.
     */
    void recordRow(std::size_t index, const std::string &row_bytes);

    /** Record one consumed (failed) attempt, so a re-entered run
     *  continues the retry budget instead of resetting it. */
    void recordFailedAttempt(std::size_t index);

    const std::string &dir() const { return dir_; }

    /** Path of cell @p index's row blob inside the manifest. */
    std::string rowPath(std::size_t index) const;

  private:
    void save() const;
    void load(std::uint64_t grid_hash, bool reset);

    std::string dir_;
    std::string name_;
    std::uint64_t gridHash_ = 0;
    std::vector<CellEntry> cells_;
};

} // namespace autocat

#endif // AUTOCAT_SERVE_MANIFEST_HPP
