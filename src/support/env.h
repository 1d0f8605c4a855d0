/**
 * @file
 * Environment-variable helpers shared by the debugging/diagnostic knobs
 * (WSC_PATTERN_STATS, WSC_UPDATE_GOLDEN, WSC_DIAG_ROWS, ...), so every
 * knob parses values the same way.
 */

#ifndef WSC_SUPPORT_ENV_H
#define WSC_SUPPORT_ENV_H

#include <cstdint>

namespace wsc {

/** True when env var `name` is set to a non-empty value other than "0". */
bool envFlag(const char *name);

/**
 * Unsigned decimal value of env var `name`; `fallback` when unset,
 * signed, space-padded, not entirely digits, or out of range.
 */
uint64_t envU64(const char *name, uint64_t fallback);

} // namespace wsc

#endif // WSC_SUPPORT_ENV_H
