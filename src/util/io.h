// Checked sidecar-file writing, JSON string escaping and the one encoder
// behind every report sidecar.
//
// ofstream happily swallows write errors: on a full disk or an unwritable
// path the stream just sets failbit and the program exits 0 with a
// truncated report.  Every sidecar writer in this repo opens through
// open_sidecar and finishes through finish_sidecar so both failure modes
// (cannot open, write failed) surface as std::runtime_error with the path.
#pragma once

#include <cstddef>
#include <fstream>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

namespace mlaas {

/// Open `path` for writing; throws std::runtime_error("<what>: cannot
/// write <path>") when the stream cannot be opened.
std::ofstream open_sidecar(const std::string& path, const char* what);

/// Flush and verify the stream: throws std::runtime_error naming `path`
/// when any write failed (full disk, I/O error, unwritable device).
void finish_sidecar(std::ofstream& out, const std::string& path, const char* what);

/// Escape `s` for a JSON string literal: quotes, backslashes, \n, \r and
/// \t by name, every other control character as \u00XX.  Other bytes pass
/// through unchanged.
std::string json_escape(const std::string& s);

/// A report as one value: a table plus named `# name` trailers.  write_tsv
/// and write_json render the same value, so the two formats carry the same
/// fields.  Doubles are written at precision 10 in both.
struct Sidecar {
  using Value = std::variant<std::string, std::size_t, double>;

  struct Field {
    std::string key;  ///< empty: the value is written bare
    Value value;
  };

  struct Trailer {
    std::string name;
    std::vector<Field> fields;
  };

  std::string rows_name;  ///< JSON key of the table
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;  ///< one value per column
  std::vector<Trailer> trailers;

  /// Tab-separated header and rows, then one `# name\tkey=value\t...` line
  /// per trailer (`# name\tvalue` for a bare field).
  void write_tsv(std::ostream& out) const;
  /// `{"<rows_name>": [{"<column>": value, ...}, ...], "<name>": {...}}`;
  /// a trailer whose only field is bare becomes `"<name>": value`.
  /// Non-finite doubles are written as null.
  void write_json(std::ostream& out) const;

  /// The writers above through open_sidecar / finish_sidecar.
  void save_tsv(const std::string& path, const char* what) const;
  void save_json(const std::string& path, const char* what) const;
};

}  // namespace mlaas
