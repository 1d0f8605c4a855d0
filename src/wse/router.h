/**
 * @file
 * Router configuration: color-indexed routes with receive/transmit
 * direction sets and advanceable switch positions. The
 * star-communication library builds one table per exchange site at
 * setup time (its routes are the same on every PE). The table records
 * the configuration the generated program would load; the fabric does
 * not read it — streams are timed and delivered from the exchange's own
 * send plan (wse/fabric.h).
 */

#ifndef WSC_WSE_ROUTER_H
#define WSC_WSE_ROUTER_H

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "wse/fabric.h"

namespace wsc::wse {

/** Virtual channel id; the WSE exposes 24 user colors. */
using Color = uint8_t;
inline constexpr Color kNumColors = 24;

/** One switch position of a color's route. */
struct RoutePosition
{
    /** Directions wavelets are accepted from (or Ramp for injection). */
    std::set<Direction> rxFrom;
    /** Directions wavelets are forwarded to. */
    std::set<Direction> txTo;
    /** Whether wavelets are also delivered up the ramp to the core. */
    bool deliverToRamp = false;
};

/** A color's route: one or more switch positions advanced by control. */
struct RouteConfig
{
    std::vector<RoutePosition> positions;
    /** Current switch position index. */
    size_t current = 0;

    const RoutePosition &
    active() const
    {
        return positions.at(current);
    }
};

/** Router of a single PE. */
class Router
{
  public:
    /** Install the route for a color (replacing any previous config). */
    void configure(Color color, RouteConfig config);

    bool hasRoute(Color color) const;
    const RouteConfig &route(Color color) const;

    /** Advance a color's switch to the next position (wraps around). */
    void advanceSwitch(Color color);

    /** Reset all switch positions to 0. */
    void resetSwitches();

  private:
    std::map<Color, RouteConfig> routes_;
};

/**
 * Build the router configurations used by star-shaped stencil
 * communication: for data travelling in direction `dir` on `color`, a PE
 * at hop distance h (1 <= h < r) both delivers to its ramp and forwards,
 * while the PE at distance r only delivers. With `selfTransmit` (WSE2)
 * the injection position also routes a copy back up the sender's ramp.
 */
RouteConfig makeStarRoute(Direction dir, bool isSender, bool isTerminal,
                          bool selfTransmit);

} // namespace wsc::wse

#endif // WSC_WSE_ROUTER_H
