/**
 * @file
 * Minimal JSON reader/writer helpers.
 *
 * Just enough JSON for the repo's machine-readable records: the
 * golden-value regression files under tests/golden/ and the run
 * journal's JSONL/metrics emitters. Objects preserve member order so
 * emitted files diff cleanly; parsing is strict (trailing garbage and
 * malformed literals are fatal — these files are either generated by
 * us or hand-maintained, so a parse failure is a user/file error).
 */

#ifndef BPSIM_SUPPORT_JSON_HH
#define BPSIM_SUPPORT_JSON_HH

#include <string>
#include <utility>
#include <vector>

#include "support/error.hh"

namespace bpsim
{

/** One parsed JSON value (tree-owning). */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    /**
     * Parse @p text as one JSON document. fatal() (with @p where in
     * the message) on malformed input or trailing non-whitespace.
     */
    static JsonValue parse(const std::string &text,
                           const std::string &where = "json");

    /** Parse the whole file at @p path; fatal() if unreadable. */
    static JsonValue parseFile(const std::string &path);

    /** Deepest array/object nesting a document may have. */
    static constexpr std::size_t maxDepth = 1024;

    /**
     * Non-fatal parse: an io_failure Error (with @p where and the
     * byte offset in the message) instead of fatal() on malformed
     * input, and a config_invalid one for nesting deeper than
     * maxDepth. For readers of bytes the process did not generate
     * under this run — service request lines, checkpoints surviving
     * crashes, user-supplied paths.
     */
    static Result<JsonValue> tryParse(const std::string &text,
                                      const std::string &where
                                      = "json");

    Type type() const { return valueType; }
    bool isObject() const { return valueType == Type::Object; }
    bool isArray() const { return valueType == Type::Array; }
    bool isNumber() const { return valueType == Type::Number; }
    bool isString() const { return valueType == Type::String; }
    bool isBool() const { return valueType == Type::Bool; }

    /** Value accessors; fatal() on a type mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Array elements; fatal() when not an array. */
    const std::vector<JsonValue> &items() const;

    /** Object members in file order; fatal() when not an object. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /** Object member lookup (null when absent); fatal() when not an
     * object. */
    const JsonValue *find(const std::string &key) const;

    /** Object member that must exist; fatal() when absent. */
    const JsonValue &at(const std::string &key) const;

  private:
    Type valueType = Type::Null;
    bool boolValue = false;
    double numberValue = 0.0;
    std::string stringValue;
    std::vector<JsonValue> arrayItems;
    std::vector<std::pair<std::string, JsonValue>> objectMembers;

    friend class JsonParser;
};

/** Escape @p text for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &text);

/** Quote and escape @p text as a JSON string literal. */
std::string jsonQuote(const std::string &text);

} // namespace bpsim

#endif // BPSIM_SUPPORT_JSON_HH
