#include "support/vcd_parse.h"

#include <cstdlib>
#include <map>
#include <stdexcept>

namespace dhtrng::sim {

ParsedVcd parse_vcd(std::istream& in) {
  ParsedVcd doc;
  std::map<std::string, std::uint32_t> var_index;
  bool in_definitions = true;
  long long now = 0;
  bool have_time = false;

  const auto read_until_end = [&in](const char* directive) {
    std::string joined;
    std::string tok;
    while (in >> tok) {
      if (tok == "$end") return joined;
      if (!joined.empty()) joined += ' ';
      joined += tok;
    }
    throw std::runtime_error(std::string("parse_vcd: unterminated ") +
                             directive);
  };

  std::string tok;
  while (in >> tok) {
    if (tok == "$timescale") {
      doc.timescale = read_until_end("$timescale");
    } else if (tok == "$scope" || tok == "$upscope" || tok == "$comment" ||
               tok == "$date" || tok == "$version") {
      read_until_end(tok.c_str());
    } else if (tok == "$var") {
      std::string type, width, id, name;
      if (!(in >> type >> width >> id >> name)) {
        throw std::runtime_error("parse_vcd: truncated $var");
      }
      if (type != "wire" || width != "1") {
        throw std::runtime_error("parse_vcd: only scalar wires supported");
      }
      read_until_end("$var");
      var_index.emplace(id, static_cast<std::uint32_t>(doc.vars.size()));
      doc.vars.push_back({id, name});
    } else if (tok == "$enddefinitions") {
      read_until_end("$enddefinitions");
      in_definitions = false;
    } else if (tok == "$dumpvars" || tok == "$end") {
      continue;
    } else if (tok[0] == '#') {
      char* end = nullptr;
      now = std::strtoll(tok.c_str() + 1, &end, 10);
      if (end == tok.c_str() + 1 || *end != '\0') {
        throw std::runtime_error("parse_vcd: bad timestamp: " + tok);
      }
      have_time = true;
    } else if (tok[0] == '0' || tok[0] == '1') {
      if (in_definitions || !have_time) {
        throw std::runtime_error(
            "parse_vcd: value change before $enddefinitions/#time");
      }
      const auto it = var_index.find(tok.substr(1));
      if (it == var_index.end()) {
        throw std::runtime_error("parse_vcd: unknown identifier: " + tok);
      }
      doc.changes.push_back({now, it->second, tok[0] == '1'});
    } else {
      throw std::runtime_error("parse_vcd: unexpected token: " + tok);
    }
  }
  return doc;
}

}  // namespace dhtrng::sim
