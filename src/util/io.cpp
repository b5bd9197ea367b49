#include "util/io.h"

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

}  // namespace mlaas
