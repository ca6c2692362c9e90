#pragma once

// Minimal deterministic JSON output: string escaping and a writer.
//
// Sweep results and trace files must be byte-identical across thread
// counts and repeated runs, so the writer is strictly insertion-ordered
// (no map reordering), formats every double with one fixed rule ("%.17g",
// round-trip exact), and renders non-finite values as null. It builds into
// a string; callers decide where the bytes go.

#include <cstdint>
#include <string>
#include <vector>

namespace wimesh {

// Escapes `s` for embedding inside a JSON string literal:
//  - '"' and '\\' are backslash-escaped;
//  - control characters < 0x20 use the short escapes \b \f \n \r \t where
//    JSON defines them and \u00XX otherwise;
//  - bytes >= 0x80 forming valid UTF-8 sequences pass through untouched
//    (JSON is UTF-8); bytes that are not valid UTF-8 are replaced with
//    U+FFFD so the output is always a well-formed JSON document.
// Printable ASCII is returned unchanged, byte for byte.
std::string json_escape(const std::string& s);

class JsonWriter {
 public:
  // Scopes. begin_* inside an object requires a preceding key().
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  // Next member's name (objects only).
  void key(const std::string& name);

  void value(const std::string& s);
  void value(const char* s);
  void value(double d);
  void value(std::int64_t i);
  void value(std::uint64_t u);
  void value(int i) { value(static_cast<std::int64_t>(i)); }
  void value(bool b);
  void null();
  // A number the caller has already formatted (e.g. a fixed-point
  // timestamp), written as is.
  void number(const std::string& formatted);

  // The serialized document so far.
  const std::string& str() const { return out_; }

 private:
  void comma();
  std::string out_;
  // One flag per open scope: whether a value has been emitted in it.
  std::vector<bool> scope_has_item_;
  bool pending_key_ = false;
};

}  // namespace wimesh
