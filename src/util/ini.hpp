// Minimal INI / TOML-subset parser for declarative configuration files
// (campaign specs, checkpoint records).  No external dependencies.
//
// Grammar:
//   * `[section]` headers; every key must live inside a section;
//   * `key = value` entries; values are taken verbatim after trimming,
//     or unquoted from `"..."` when the value is double-quoted;
//   * full-line comments start with `#` or `;`; a trailing comment is
//     recognized when `#`/`;` follows whitespace (quote the value to keep
//     a literal hash);
//   * duplicate section names and duplicate keys within a section are
//     hard errors — a spec with two `[axes]` sections is almost certainly
//     a merge accident, not an intent.
//
// Every error carries the 1-based source line.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace emask::util {

class IniError : public std::runtime_error {
 public:
  IniError(int line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}
  [[nodiscard]] int line() const { return line_; }

 private:
  int line_;
};

class IniFile {
 public:
  struct Entry {
    std::string key;
    std::string value;
    int line = 0;
  };
  struct Section {
    std::string name;
    std::vector<Entry> entries;
    int line = 0;

    [[nodiscard]] const Entry* find(const std::string& key) const;
  };

  /// Parses `text`; throws IniError on malformed input.
  [[nodiscard]] static IniFile parse(const std::string& text);

  /// Reads and parses a file; throws std::runtime_error if unreadable.
  [[nodiscard]] static IniFile load_file(const std::string& path);

  [[nodiscard]] const std::vector<Section>& sections() const {
    return sections_;
  }
  [[nodiscard]] const Section* find_section(const std::string& name) const;
  /// Value of section.key, or nullptr when absent.
  [[nodiscard]] const std::string* find(const std::string& section,
                                        const std::string& key) const;

  /// Splits a comma-separated list value into trimmed items (empty items
  /// are preserved so callers can reject `a,,b` specifically).
  [[nodiscard]] static std::vector<std::string> split_list(
      const std::string& value);

  /// Strips leading/trailing whitespace.
  [[nodiscard]] static std::string trim(const std::string& s);

 private:
  std::vector<Section> sections_;
};

}  // namespace emask::util
