#include "support/env.h"

#include <cerrno>
#include <cstdlib>

namespace wsc {

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
}

uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    // strtoull would accept leading whitespace and a sign (wrapping "-1"
    // to UINT64_MAX), so the value must start with a digit.
    if (v == nullptr || v[0] < '0' || v[0] > '9')
        return fallback;
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed = std::strtoull(v, &end, 10);
    if (errno == ERANGE || *end != '\0')
        return fallback;
    return static_cast<uint64_t>(parsed);
}

} // namespace wsc
