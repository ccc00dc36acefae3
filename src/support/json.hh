/**
 * @file
 * Minimal JSON value + recursive-descent parser.
 *
 * Promoted from the obs test suite's in-test parser so tools can *read*
 * the artifacts the exporters write (metrics JSON, capuprof profiles)
 * without a third-party dependency. Scope is deliberately small: enough
 * for our own well-formed output — \u escapes are skipped rather than
 * decoded, and numbers parse via std::stod (integers stay exact up to
 * 2^53, which covers ticks and byte counts in practice).
 *
 * Writing stays with the individual exporters (chrome_trace, capuprof's
 * report) — formatting is part of each artifact's schema.
 */

#ifndef CAPU_SUPPORT_JSON_HH
#define CAPU_SUPPORT_JSON_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace capu::json
{

struct Value
{
    enum Kind
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    } kind = Null;

    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Value> arr;
    std::map<std::string, Value> obj;
    /** Object keys in file order (obj iterates sorted; this does not). */
    std::vector<std::string> keys;

    bool has(const std::string &k) const { return obj.count(k) != 0; }

    /** Object member access; a shared Null value for missing keys. */
    const Value &operator[](const std::string &k) const;

    bool isNull() const { return kind == Null; }

    /** Numeric accessors; 0 when the value is not a number. */
    double asDouble() const { return kind == Num ? num : 0.0; }
    /**
     * A number that is not integral or does not fit the type is malformed
     * input: the accessor returns 0 and clears `ok` (never sets it).
     */
    std::int64_t asI64(bool &ok) const
    {
        return fits(-0x1p63, 0x1p63, ok) ? static_cast<std::int64_t>(num) : 0;
    }
    std::uint64_t asU64(bool &ok) const
    {
        return fits(0, 0x1p64, ok) ? static_cast<std::uint64_t>(num) : 0;
    }

  private:
    /** An integral number in [lo, hi); a number that is not clears `ok`. */
    bool fits(double lo, double hi, bool &ok) const
    {
        if (kind != Num)
            return false;
        bool in = std::trunc(num) == num && num >= lo && num < hi;
        ok = ok && in;
        return in;
    }
};

/** Parse `text` into `out`; false on malformed input or trailing bytes. */
bool parse(const std::string &text, Value &out);

/**
 * Read and parse a whole file. Returns false (with the reason in *err
 * when provided) on I/O or parse failure.
 */
bool parseFile(const std::string &path, Value &out,
               std::string *err = nullptr);

} // namespace capu::json

#endif // CAPU_SUPPORT_JSON_HH
