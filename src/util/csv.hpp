#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mmog::util {

/// Writes one CSV record, quoting fields that need it.
void write_csv_row(std::ostream& out, const std::vector<std::string>& row);

/// Escapes a single field per RFC 4180 (quotes only when necessary).
std::string csv_escape(std::string_view field);

}  // namespace mmog::util
