/**
 * @file
 * Parameter bindings: attach concrete scalar values and host buffers to a
 * program's parameters before running it on the reference interpreter or
 * the GPU simulator.
 */

#ifndef NPP_RUNTIME_BINDING_H
#define NPP_RUNTIME_BINDING_H

#include <mutex>
#include <optional>
#include <vector>

#include "ir/builder.h"
#include "runtime/eval.h"

namespace npp {

/**
 * Concrete argument values for one program execution. Array storage is
 * owned by the caller and must outlive the run.
 */
class Bindings
{
  public:
    explicit Bindings(const Program &prog);

    /** A copy binds the same storage, but starts unfrozen. Assigning
     *  rebinds, so the target must not be frozen. */
    Bindings(const Bindings &other);
    Bindings &operator=(const Bindings &other);

    /**
     * Frozen window (RAII). While at least one Freeze on a Bindings is
     * open, its content fingerprint is computed at most once and
     * fingerprint() returns that value. Opening one promises that
     * nothing writes the bound storage until the last window closes:
     * only metrics-only evaluations may run inside, and scalar(),
     * array() and shiftAddrBases() assert. Windows nest (an inner open
     * only bumps a depth) and may be opened concurrently from several
     * threads on a const Bindings.
     */
    class Freeze
    {
      public:
        explicit Freeze(const Bindings &args);
        ~Freeze();

        Freeze(const Freeze &) = delete;
        Freeze &operator=(const Freeze &) = delete;

      private:
        const Bindings &args_;
    };

    /** True while any Freeze on this Bindings is open. */
    bool frozen() const;

    /** Bind a scalar parameter (by the Ex handle the builder returned). */
    void scalar(Ex param, double value);

    /** Bind an array parameter to caller-owned storage. */
    void array(Arr param, std::vector<double> &storage);

    /** Translate every bound array's simulated device address by the
     *  given element count (the storage itself does not move, only the
     *  addresses the memory probe sees). Functional results are
     *  unaffected; the coalescing model's transaction counts are
     *  relative-base and must be bit-invariant under any such
     *  translation — the property the shift-invariance suite pins. */
    void shiftAddrBases(int64_t deltaElems);

    /** Seed an EvalCtx with the bound params; fatal if any param is
     *  missing. Locals/indices start at zero. */
    void seed(EvalCtx &ctx) const;

    /** Value of a bound scalar param (fatal if unbound). */
    double scalarValue(int varId) const;

    /** Stable fingerprint of everything bound: scalar values, array
     *  sizes and full contents. Two bindings with equal fingerprints
     *  drive a program identically, which is what the evaluation cache
     *  keys on. O(total array elements), except inside a frozen window,
     *  where the first call computes it and later calls reuse it. */
    uint64_t fingerprint() const;

    /** Slot of an array param (null data when unbound); used by the
     *  evaluation cache to capture and replay output contents. */
    const ArraySlot &arraySlot(int varId) const { return arrays_[varId]; }

    const Program &program() const { return *prog_; }

  private:
    uint64_t hashContents() const;

    const Program *prog_;
    std::vector<double> scalars_;
    std::vector<bool> scalarBound_;
    std::vector<ArraySlot> arrays_;

    /** @name Frozen-window state, guarded by freezeMutex_
     *  @{
     */
    mutable std::mutex freezeMutex_;
    mutable int freezeDepth_ = 0;
    mutable std::optional<uint64_t> frozenFingerprint_;
    /** @} */
};

} // namespace npp

#endif // NPP_RUNTIME_BINDING_H
