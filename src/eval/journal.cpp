#include "eval/journal.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace mlaas {

namespace {

// Session markers share the file with cell rows; the prefix cannot collide
// with a dataset id because rows never start with "=".  A reset marker
// invalidates every earlier row of its session: each session block opens
// with one, so rows surviving from a crashed or earlier run are never
// double-counted once the session re-runs to completion.
constexpr const char* kSessionDonePrefix = "= done\t";
constexpr const char* kSessionResetPrefix = "= reset\t";

void fsync_file(FILE* f) {
  if (std::fflush(f) != 0) {
    throw std::runtime_error("CellJournal: flush failed");
  }
#ifndef _WIN32
  ::fsync(::fileno(f));
#endif
}

}  // namespace

std::string CellJournal::session_key(const std::string& dataset_id,
                                     const std::string& platform) {
  return dataset_id + "\t" + platform;
}

std::optional<CellJournal::Restored> CellJournal::load(const std::string& path,
                                                       const std::string& fingerprint) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  if (line.rfind("# ", 0) != 0 || line.substr(2) != fingerprint) return std::nullopt;

  std::map<std::string, std::vector<Measurement>> pending;
  Restored restored;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line.rfind(kSessionResetPrefix, 0) == 0) {
      const std::string key = line.substr(std::string(kSessionResetPrefix).size());
      restored.discarded += pending[key].size();
      pending.erase(key);
      auto it = restored.sessions.find(key);
      if (it != restored.sessions.end()) {
        restored.discarded += it->second.size();
        restored.sessions.erase(it);
      }
      continue;
    }
    if (line.rfind(kSessionDonePrefix, 0) == 0) {
      const std::string key = line.substr(std::string(kSessionDonePrefix).size());
      // A marker for a session with no rows is legal: every cell may have
      // been rejected (bad-request), leaving nothing to journal.
      auto it = pending.find(key);
      auto& done = restored.sessions[key];
      if (it != pending.end()) {
        done = std::move(it->second);
        pending.erase(it);
      }
      continue;
    }
    try {
      Measurement m =
          measurement_row_from_tsv(line, path + ":" + std::to_string(line_no));
      pending[session_key(m.dataset_id, m.platform)].push_back(std::move(m));
    } catch (const std::exception&) {
      // The torn tail of a crashed append: everything before it is intact
      // (appends are fsync'd in order), so stop here and keep what parsed.
      break;
    }
  }
  for (const auto& [key, rows] : restored.sessions) restored.cells += rows.size();
  for (const auto& [key, rows] : pending) restored.discarded += rows.size();
  return restored;
}

CellJournal::CellJournal(std::string path, const std::string& fingerprint, bool truncate)
    : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), truncate ? "w" : "a");
  if (file_ == nullptr) {
    throw std::runtime_error("CellJournal: cannot open " + path_);
  }
  if (!truncate) return;
  try {
    if (std::fputs(("# " + fingerprint + '\n').c_str(), file_) < 0) {
      throw std::runtime_error("CellJournal: write failed for " + path_);
    }
    fsync_file(file_);
  } catch (...) {
    std::fclose(file_);  // the destructor does not run for a throwing constructor
    throw;
  }
}

CellJournal::~CellJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

void CellJournal::append_session_block(const std::string& dataset_id,
                                       const std::string& platform,
                                       const std::vector<Measurement>& rows) {
  const std::string key = session_key(dataset_id, platform);
  std::string block = kSessionResetPrefix + key + '\n';
  for (const auto& m : rows) block += measurement_row_to_tsv(m) + '\n';
  block += kSessionDonePrefix + key + '\n';
  std::lock_guard lock(mu_);
  if (std::fputs(block.c_str(), file_) < 0) {
    throw std::runtime_error("CellJournal: write failed for " + path_);
  }
  fsync_file(file_);
  cells_ += rows.size();
}

std::size_t CellJournal::cells_journaled() const {
  std::lock_guard lock(mu_);
  return cells_;
}

void CellJournal::remove(const std::string& path) { std::remove(path.c_str()); }

}  // namespace mlaas
