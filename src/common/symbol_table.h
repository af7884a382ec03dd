// Process-wide string interning.
//
// A `Symbol` is a dense uint32 id assigned by the global `SymbolTable`;
// equal strings always map to the same id within a process, so every name
// compare/hash on the compile hot path (catalog lookups, cardinality
// derivation, memo fingerprints, physical-property keys) is a single
// integer compare/mix.
//
// The contract: the AST is text (the parser interns nothing); the binder
// (scope/compiler.cc) is the one place where a script's names are interned;
// the logical plan, the memo and the physical plan hold names only as
// Symbols. Strings are rendered back (`SymName`) only at the edges: plan
// dumps, error messages and hint files. Literals are values, not names, and
// are never interned.
//
// Ids are assigned in first-intern order and are therefore *not* stable
// across processes or thread interleavings — nothing may order results by
// id value or persist ids.
#ifndef QO_COMMON_SYMBOL_TABLE_H_
#define QO_COMMON_SYMBOL_TABLE_H_

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace qo {

using Symbol = uint32_t;

/// Sentinel for "no such symbol": what `SymbolTable::Find` returns for a
/// string that was never interned. No interned name equals it.
inline constexpr Symbol kNoSymbol = 0xffffffffu;
/// Pre-interned constants (registered by the table's constructor, in order).
inline constexpr Symbol kSymEmpty = 0;  ///< ""
inline constexpr Symbol kSymStar = 1;   ///< "*"

/// Append-only, thread-safe intern table. Interning is off the per-probe
/// hot path (done once per compiled plan / registered catalog); lookups by
/// id take a shared lock only because the deque's block map may grow
/// concurrently.
class SymbolTable {
 public:
  SymbolTable();

  /// The process-wide table used by all interning helpers.
  static SymbolTable& Global();

  /// Returns the id for `text`, assigning the next dense id on first use.
  Symbol Intern(std::string_view text);

  /// The id for `text` if it was ever interned, kNoSymbol otherwise. Never
  /// grows the table — the probe for "was this string ever assigned an id"
  /// (e.g. a reward join keyed by an event id the caller typed wrong).
  Symbol Find(std::string_view text) const;

  /// The string for an id previously returned by Intern. Returned reference
  /// stays valid for the table's lifetime (strings are never removed).
  const std::string& Resolve(Symbol id) const;

  /// Number of distinct strings interned so far.
  size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  // deque: growing never moves existing strings, so Resolve can hand out
  // stable references.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, Symbol> index_;  // views into strings_
};

/// Interns into the global table.
inline Symbol Sym(std::string_view text) {
  return SymbolTable::Global().Intern(text);
}

/// Resolves from the global table.
inline const std::string& SymName(Symbol id) {
  return SymbolTable::Global().Resolve(id);
}

}  // namespace qo

#endif  // QO_COMMON_SYMBOL_TABLE_H_
