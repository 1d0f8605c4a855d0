/**
 * @file
 * The Context owns all uniqued IR objects (types, attributes) and the
 * registry of known operations with their verification hooks.
 *
 * Operation names are interned process-wide into dense OpId handles so
 * that op identity tests compile down to an integer compare and the
 * per-context op registry is an array lookup instead of a string-keyed
 * map probe (see src/ir/README.md).
 */

#ifndef WSC_IR_CONTEXT_H
#define WSC_IR_CONTEXT_H

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/arena.h"
#include "ir/attributes.h"
#include "ir/diagnostics.h"
#include "ir/types.h"

namespace wsc::ir {

class Operation;

/**
 * Dense integer handle for an interned operation name. Ids are assigned
 * process-wide (first `get` wins the slot), so two OpIds from different
 * contexts compare equal iff they spell the same op name. The interned
 * string outlives every IR object, so `str()` references are stable.
 */
class OpId
{
  public:
    constexpr OpId() = default;

    /** Intern `name`, returning its dense id (idempotent). */
    static OpId get(std::string_view name);

    /** The interned spelling; storage lives for the whole process. */
    const std::string &str() const;

    /** Implicit view for APIs that take the op name as a string. */
    operator const std::string &() const { return str(); }

    bool valid() const { return id_ != kInvalid; }
    uint32_t raw() const { return id_; }

    friend bool operator==(OpId a, OpId b) { return a.id_ == b.id_; }
    friend bool operator!=(OpId a, OpId b) { return a.id_ != b.id_; }
    friend bool operator<(OpId a, OpId b) { return a.id_ < b.id_; }

  private:
    static constexpr uint32_t kInvalid = 0xffffffffu;

    uint32_t id_ = kInvalid;
};

/** Prints the interned spelling (used by diagnostics and gtest). */
std::ostream &operator<<(std::ostream &os, OpId id);

/**
 * Dense integer handle for an attribute name interned in one Context.
 * Attribute maps on operations store (AttrNameId, Attribute) pairs sorted
 * by id, so probes with a resolved id compare integers instead of
 * strings. Ids are per-context (ops never migrate between contexts).
 */
class AttrNameId
{
  public:
    constexpr AttrNameId() = default;

    bool valid() const { return id_ != kInvalid; }
    uint32_t raw() const { return id_; }

    friend bool operator==(AttrNameId a, AttrNameId b)
    {
        return a.id_ == b.id_;
    }
    friend bool operator!=(AttrNameId a, AttrNameId b)
    {
        return a.id_ != b.id_;
    }
    friend bool operator<(AttrNameId a, AttrNameId b)
    {
        return a.id_ < b.id_;
    }

    /** Construct from a raw id — for the well-known constants below and
     *  Context; elsewhere obtain ids through Context::internAttrName. */
    explicit constexpr AttrNameId(uint32_t id) : id_(id) {}

  private:
    static constexpr uint32_t kInvalid = 0xffffffffu;

    uint32_t id_ = kInvalid;
};

/**
 * Well-known attribute names, pre-interned by every Context in this
 * exact order so the constants below are valid in any context. Hot
 * probe sites (emitter, dialect accessors, symbol lookup) use these to
 * skip the name-pool hash probe entirely.
 */
namespace attrs {

/** Spellings in id order; Context's constructor interns them. */
constexpr const char *kWellKnownNames[] = {
    "value",      "var",       "sym_name",    "kind",
    "callee",     "task",      "predicate",   "offset",
    "length",     "stride",    "wrap",        "type",
    "init",       "via_ptr",   "z_dim",       "z_offset",
    "section",    "num_chunks","name",        "id",
    "recv_cb",    "done_cb",   "recv_buffer", "coeffs",
    "z_size",     "trim_first","trim_last",   "static_size",
    "static_offset", "function_type", "module", "init_as",
    "swaps",      "width",     "height",      "topology",
    "params",     "result_fields", "comms_owned", "result_buffer",
    "program_name", "pattern", "member",      "file",
    "comptime_role_site", "comptime_role", "chunk_len", "arg_names",
    "accesses",
};

inline constexpr AttrNameId kValue{0};
inline constexpr AttrNameId kVar{1};
inline constexpr AttrNameId kSymName{2};
inline constexpr AttrNameId kKind{3};
inline constexpr AttrNameId kCallee{4};
inline constexpr AttrNameId kTask{5};
inline constexpr AttrNameId kPredicate{6};
inline constexpr AttrNameId kOffset{7};
inline constexpr AttrNameId kLength{8};
inline constexpr AttrNameId kStride{9};
inline constexpr AttrNameId kWrap{10};
inline constexpr AttrNameId kType{11};
inline constexpr AttrNameId kInit{12};
inline constexpr AttrNameId kViaPtr{13};
inline constexpr AttrNameId kZDim{14};
inline constexpr AttrNameId kZOffset{15};
inline constexpr AttrNameId kSection{16};
inline constexpr AttrNameId kNumChunks{17};
inline constexpr AttrNameId kName{18};
inline constexpr AttrNameId kId{19};
inline constexpr AttrNameId kRecvCb{20};
inline constexpr AttrNameId kDoneCb{21};
inline constexpr AttrNameId kRecvBuffer{22};
inline constexpr AttrNameId kCoeffs{23};
inline constexpr AttrNameId kZSize{24};
inline constexpr AttrNameId kTrimFirst{25};
inline constexpr AttrNameId kTrimLast{26};
inline constexpr AttrNameId kStaticSize{27};
inline constexpr AttrNameId kStaticOffset{28};
inline constexpr AttrNameId kFunctionType{29};
inline constexpr AttrNameId kModule{30};
inline constexpr AttrNameId kInitAs{31};
inline constexpr AttrNameId kSwaps{32};
inline constexpr AttrNameId kWidth{33};
inline constexpr AttrNameId kHeight{34};
inline constexpr AttrNameId kTopology{35};
inline constexpr AttrNameId kParams{36};
inline constexpr AttrNameId kResultFields{37};
inline constexpr AttrNameId kCommsOwned{38};
inline constexpr AttrNameId kResultBuffer{39};
inline constexpr AttrNameId kProgramName{40};
inline constexpr AttrNameId kPattern{41};
inline constexpr AttrNameId kMember{42};
inline constexpr AttrNameId kFile{43};
inline constexpr AttrNameId kComptimeRoleSite{44};
inline constexpr AttrNameId kComptimeRole{45};
inline constexpr AttrNameId kChunkLen{46};
inline constexpr AttrNameId kArgNames{47};
inline constexpr AttrNameId kAccesses{48};

} // namespace attrs

/** Static information registered for each operation name. */
struct OpInfo
{
    /** Whether this op terminates a block. */
    bool isTerminator = false;
    /**
     * Op-specific structural verifier. Returns an empty string on success
     * or a diagnostic message on failure.
     */
    std::function<std::string(Operation *)> verify;
};

/**
 * Observes structural IR mutations within a context. The worklist rewrite
 * driver installs one for the duration of a pattern run; when none is
 * installed the notification sites are a single null-pointer test.
 */
class IRListener
{
  public:
    virtual ~IRListener() = default;
    /** `op` was attached to a block (creation, move, splice). */
    virtual void notifyAttached(Operation *op) = 0;
    /** `op` is about to be destroyed; drop any references to it. */
    virtual void notifyDestroyed(Operation *op) = 0;
    /** One of `op`'s operands was re-pointed at a new value. */
    virtual void notifyOperandChanged(Operation *op) = 0;
    /**
     * A use of `def`'s result was dropped (operand overwrite or erase),
     * changing the use counts patterns may be gated on. `def` is the
     * defining op of the value that lost the use (block-argument values
     * report nothing). Remaining users can be reached through `def`.
     */
    virtual void notifyValueUseRemoved(Operation *def) = 0;
};

/**
 * Owns uniqued types/attributes and the op registry. All IR built against
 * a context must not outlive it.
 */
class Context
{
  public:
    Context();
    ~Context();
    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    /// @name Arena allocation
    /// All IR object memory (operations, blocks, interned type/attr
    /// storage) lives in a per-context bump arena (see ir/arena.h):
    /// pointers stay valid until the context dies, and erased objects
    /// are recycled through per-size free lists instead of the heap.
    /// @{

    /** The raw arena (introspection: page count, bytes, recycle hits). */
    Arena &arena() { return arena_; }

    /**
     * Recycle this context for its next compile: drops every interned
     * type/attribute/attr-name, the diagnostic state and the arena
     * contents wholesale — without releasing the arena's pages — so a
     * compile-service worker's context serves repeat compiles
     * with zero page re-faulting and plateaued memory.
     *
     * What survives a reset: the op registry, the loaded-dialect marks
     * (dialects register process-stable OpIds and stateless hooks, so
     * re-registration is unnecessary) and the arena's pages.
     *
     * Contract: every IR object built in this context (all OwningOp
     * modules, detached ops, printers holding Values) must already be
     * destroyed, and no diagnostic handler may still be installed —
     * the arena rewind invalidates all of it at once.
     */
    void reset();

    /**
     * Raw arena bytes for objects with explicitly managed lifetime
     * (Operation/Block teardown runs destructors itself and then calls
     * deallocateBytes to recycle the block).
     */
    void *allocateBytes(size_t size) { return arena_.allocate(size); }
    /** Recycle a block from allocateBytes; destructors must be done. */
    void deallocateBytes(void *p, size_t size) { arena_.deallocate(p, size); }

    /**
     * Construct a `T` in the arena with context lifetime: the object is
     * never individually freed, and its destructor (when non-trivial) is
     * run at context destruction. Use for interned/canonical storage,
     * not for objects that are erased and recycled (those go through
     * allocateBytes/deallocateBytes with caller-run destructors).
     */
    template <typename T, typename... Args>
    T *
    allocate(Args &&...args)
    {
        static_assert(alignof(T) <= Arena::kAlignment,
                      "over-aligned types are not supported by the arena");
        void *mem = arena_.allocate(sizeof(T));
        T *obj = new (mem) T(std::forward<Args>(args)...);
        if constexpr (!std::is_trivially_destructible_v<T>)
            arenaDtors_.push_back(
                {[](void *p) { static_cast<T *>(p)->~T(); }, obj});
        return obj;
    }
    /// @}

    /** Intern type storage; returns existing storage when already present. */
    const TypeStorage *uniqueType(const TypeStorage &proto);
    /** Intern attribute storage. */
    const AttrStorage *uniqueAttr(const AttrStorage &proto);

    /// @name Attribute-name interning
    /// Attribute keys on operations are dense per-context ids; the
    /// spelling is kept only for diagnostics and printing.
    /// @{
    /** Intern an attribute name (idempotent). */
    AttrNameId internAttrName(std::string_view name);
    /** Look up without interning; invalid id when never interned. */
    AttrNameId findAttrName(std::string_view name) const;
    /** The interned spelling; stable for the context's lifetime. */
    const std::string &attrName(AttrNameId id) const;
    /// @}

    /** Register an operation with its static info (dialect-load time). */
    void registerOp(OpId id, OpInfo info);
    void registerOp(const std::string &name, OpInfo info)
    {
        registerOp(OpId::get(name), std::move(info));
    }
    /** Look up op info; returns nullptr for unregistered ops. */
    const OpInfo *opInfo(OpId id) const
    {
        return id.raw() < opRegistry_.size() && registered_[id.raw()]
                   ? &opRegistry_[id.raw()]
                   : nullptr;
    }
    const OpInfo *opInfo(const std::string &name) const
    {
        return opInfo(OpId::get(name));
    }
    /** Whether the op has been registered by some dialect. */
    bool isRegisteredOp(OpId id) const { return opInfo(id) != nullptr; }
    bool isRegisteredOp(const std::string &name) const
    {
        return isRegisteredOp(OpId::get(name));
    }

    /** Record that a dialect has been loaded (idempotence guard). */
    bool markDialectLoaded(const std::string &dialect);

    /** Install a mutation listener (nullptr to remove). At most one. */
    void setListener(IRListener *listener) { listener_ = listener; }
    IRListener *listener() const { return listener_; }

    /**
     * The context's diagnostic engine (see ir/diagnostics.h). One engine
     * per context means concurrent pipeline jobs — one context each —
     * capture their own diagnostic streams without synchronization.
     */
    DiagnosticEngine &diagnostics() { return diagEngine_; }

    /** Sizes of the intern pools (reset-plateau tests, telemetry). */
    struct InternStats
    {
        size_t types = 0;
        size_t attrs = 0;
        size_t attrNames = 0;
    };
    InternStats
    internStats() const
    {
        return {typePool_.size(), attrPool_.size(), attrNames_.size()};
    }

  private:
    /**
     * Declared first so every other member (whose keys/values point into
     * arena memory) is destroyed before the pages are released.
     */
    Arena arena_;
    /** (destructor, object) pairs run in reverse order by ~Context. */
    std::vector<std::pair<void (*)(void *), void *>> arenaDtors_;
    /**
     * Interning pools: keys are views of key bytes copied into the arena
     * on first insertion (pointer-stable, no owning copy per entry), and
     * the canonical storage they map to is arena-placed.
     */
    std::unordered_map<std::string_view, const TypeStorage *> typePool_;
    std::unordered_map<std::string_view, const AttrStorage *> attrPool_;
    /** Attribute-name pool: deque keeps the spelling storage stable, so
     *  the map keys are views of the stored strings. */
    std::deque<std::string> attrNames_;
    std::unordered_map<std::string_view, uint32_t> attrNameIds_;
    /** Reusable interning-key buffer; probes allocate nothing. */
    std::string keyScratch_;
    /** Indexed by OpId::raw(); registered_ marks occupied slots. */
    std::vector<OpInfo> opRegistry_;
    std::vector<uint8_t> registered_;
    std::set<std::string> loadedDialects_;
    IRListener *listener_ = nullptr;
    DiagnosticEngine diagEngine_;
};

} // namespace wsc::ir

#endif // WSC_IR_CONTEXT_H
