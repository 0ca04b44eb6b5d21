#include "util/csv.hpp"

#include <ostream>

namespace mmog::util {

std::string csv_escape(std::string_view field) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos) {
    return std::string(field);
  }
  std::string out = "\"";
  for (char ch : field) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}

void write_csv_row(std::ostream& out, const std::vector<std::string>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out << ',';
    out << csv_escape(row[i]);
  }
  out << '\n';
}

}  // namespace mmog::util
