#include "util/io.h"

#include <cmath>
#include <stdexcept>

namespace mlaas {

std::ofstream open_sidecar(const std::string& path, const char* what) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error(std::string(what) + ": cannot write " + path);
  }
  return out;
}

void finish_sidecar(std::ofstream& out, const std::string& path, const char* what) {
  out.flush();
  if (out.fail()) {
    throw std::runtime_error(std::string(what) + ": write failed (disk full or "
                             "unwritable): " + path);
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void write_tsv_value(std::ostream& out, const Sidecar::Value& value) {
  std::visit([&out](const auto& v) { out << v; }, value);
}

void write_json_value(std::ostream& out, const Sidecar::Value& value) {
  if (const auto* s = std::get_if<std::string>(&value)) {
    out << '"' << json_escape(*s) << '"';
  } else if (const auto* d = std::get_if<double>(&value); d && !std::isfinite(*d)) {
    out << "null";
  } else {
    write_tsv_value(out, value);
  }
}

void write_json_key(std::ostream& out, const std::string& key) {
  out << '"' << json_escape(key) << "\": ";
}

void check_rows(const Sidecar& sidecar) {
  for (const auto& row : sidecar.rows) {
    if (row.size() != sidecar.columns.size()) {
      throw std::logic_error("Sidecar " + sidecar.rows_name + ": a row of " +
                             std::to_string(row.size()) + " values under " +
                             std::to_string(sidecar.columns.size()) + " columns");
    }
  }
}

}  // namespace

void Sidecar::write_tsv(std::ostream& out) const {
  check_rows(*this);
  const std::streamsize precision = out.precision(10);
  for (std::size_t c = 0; c < columns.size(); ++c) out << (c > 0 ? "\t" : "") << columns[c];
  out << '\n';
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << '\t';
      write_tsv_value(out, row[c]);
    }
    out << '\n';
  }
  for (const Trailer& trailer : trailers) {
    out << "# " << trailer.name;
    for (const Field& field : trailer.fields) {
      out << '\t';
      if (!field.key.empty()) out << field.key << '=';
      write_tsv_value(out, field.value);
    }
    out << '\n';
  }
  out.precision(precision);
}

void Sidecar::write_json(std::ostream& out) const {
  check_rows(*this);
  const std::streamsize precision = out.precision(10);
  out << "{\n  ";
  write_json_key(out, rows_name);
  out << '[';
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out << (r > 0 ? ",\n    {" : "\n    {");
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out << ", ";
      write_json_key(out, columns[c]);
      write_json_value(out, rows[r][c]);
    }
    out << '}';
  }
  out << (rows.empty() ? "]" : "\n  ]");
  for (const Trailer& trailer : trailers) {
    out << ",\n  ";
    write_json_key(out, trailer.name);
    if (trailer.fields.size() == 1 && trailer.fields[0].key.empty()) {
      write_json_value(out, trailer.fields[0].value);
      continue;
    }
    out << '{';
    for (std::size_t i = 0; i < trailer.fields.size(); ++i) {
      if (i > 0) out << ", ";
      write_json_key(out, trailer.fields[i].key);
      write_json_value(out, trailer.fields[i].value);
    }
    out << '}';
  }
  out << "\n}\n";
  out.precision(precision);
}

void Sidecar::save_tsv(const std::string& path, const char* what) const {
  std::ofstream out = open_sidecar(path, what);
  write_tsv(out);
  finish_sidecar(out, path, what);
}

void Sidecar::save_json(const std::string& path, const char* what) const {
  std::ofstream out = open_sidecar(path, what);
  write_json(out);
  finish_sidecar(out, path, what);
}

}  // namespace mlaas
