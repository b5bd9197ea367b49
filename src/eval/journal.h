// Write-ahead cell journal for crash-safe, resumable campaigns.
//
// The paper's measurement campaign ran against live cloud endpoints for ~5
// months — inevitably restarting after provider outages and script crashes.
// A campaign that loses every finished cell on a crash cannot reproduce
// that.  CellJournal gives run_campaign an append-only, fsync'd log under
// the same fingerprint header the measurement cache uses: one block per
// finished (dataset, platform) session -- a reset marker, one line per cell
// in the measurement cache's row format, a completion marker.
//
// Resume semantics: sessions whose completion marker reached disk are
// restored verbatim; a session caught mid-flight is re-run from scratch and
// its partial rows are discarded.  Sessions are independently seeded, so the
// resumed table is bit-identical to an uninterrupted run (wall-clock
// train_seconds excepted).  The session — not the cell — is the resume unit
// because cells within a session share one seeded request stream (rate
// window, fault RNG, simulated clock); replaying half a stream would change
// the other half.  A crash therefore loses at most `threads` sessions of
// work, never the campaign.
#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "eval/measurement.h"

namespace mlaas {

class CellJournal {
 public:
  /// What a journal holds for one resumable (fully marked) session.
  struct Restored {
    /// session_key(dataset, platform) -> rows in execution order.
    std::map<std::string, std::vector<Measurement>> sessions;
    std::size_t cells = 0;      // rows restorable from complete sessions
    std::size_t discarded = 0;  // partial-session rows dropped
  };

  static std::string session_key(const std::string& dataset_id,
                                 const std::string& platform);

  /// Parse a journal written under `fingerprint`.  nullopt when the file is
  /// missing, unreadable, or carries a different fingerprint (a stale
  /// journal must never seed a campaign with different knobs).  Malformed
  /// trailing lines — the torn tail of a crash — are discarded, not fatal.
  static std::optional<Restored> load(const std::string& path,
                                      const std::string& fingerprint);

  /// Open for appending.  `truncate` starts fresh with the fingerprint line
  /// (also used when the on-disk fingerprint does not match); otherwise
  /// blocks accumulate after the existing content.  Throws
  /// std::runtime_error if the file cannot be opened or written.
  CellJournal(std::string path, const std::string& fingerprint, bool truncate);
  ~CellJournal();

  CellJournal(const CellJournal&) = delete;
  CellJournal& operator=(const CellJournal&) = delete;

  /// Append a whole finished session as one block — reset marker, every
  /// row, done marker — with a single fsync (the write-ahead guarantee: a
  /// session acknowledged here survives a crash).  The reset marker
  /// invalidates every earlier row of the session, so a re-run never
  /// double-counts.  The session is the resume unit, so journaling cell by
  /// cell would buy no extra crash safety.  Thread-safe.
  void append_session_block(const std::string& dataset_id, const std::string& platform,
                            const std::vector<Measurement>& rows);

  std::size_t cells_journaled() const;

  const std::string& path() const { return path_; }

  /// Delete a journal file (after the campaign's cache has been written the
  /// journal has served its purpose).  Missing files are fine.
  static void remove(const std::string& path);

 private:
  std::string path_;
  FILE* file_ = nullptr;
  mutable std::mutex mu_;
  std::size_t cells_ = 0;
};

}  // namespace mlaas
