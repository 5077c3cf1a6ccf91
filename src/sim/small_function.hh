/**
 * @file
 * A move-only callable with inline storage.
 *
 * The simulator's hot paths complete every memory reference through a
 * callback (Cache::Callback) and pace sparse device work through
 * EventQueue closures.  std::function's small-buffer optimisation in
 * the shipped standard libraries tops out around two pointers, so the
 * common captures - a `this` pointer plus a MemRef, or a moved-in
 * completion callback - spill to the heap, costing a malloc/free pair
 * per reference.  SmallFunction widens the inline buffer so those
 * captures never allocate; captures larger than `Capacity` fall back
 * to a heap box and stay correct.
 *
 * Deliberately narrower than std::function: move-only (no copying a
 * queued completion), no target_type/target introspection, and
 * invoking an empty SmallFunction is undefined (callers null-check,
 * exactly as the former std::function sites did via operator bool).
 */

#ifndef FIREFLY_SIM_SMALL_FUNCTION_HH
#define FIREFLY_SIM_SMALL_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace firefly
{

template <typename Signature, std::size_t Capacity = 48>
class SmallFunction;

template <typename R, typename... Args, std::size_t Capacity>
class SmallFunction<R(Args...), Capacity>
{
  public:
    SmallFunction() = default;
    SmallFunction(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    SmallFunction(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            new (storage()) Fn(std::forward<F>(f));
            ops = &InlineOps<Fn>::ops;
        } else {
            new (storage()) Fn *(new Fn(std::forward<F>(f)));
            ops = &BoxedOps<Fn>::ops;
        }
    }

    SmallFunction(SmallFunction &&other) noexcept { moveFrom(other); }

    SmallFunction &
    operator=(SmallFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFunction &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    ~SmallFunction() { reset(); }

    SmallFunction(const SmallFunction &) = delete;
    SmallFunction &operator=(const SmallFunction &) = delete;

    explicit operator bool() const { return ops != nullptr; }

    R
    operator()(Args... args)
    {
        return ops->invoke(storage(), std::forward<Args>(args)...);
    }

    /** True if a callable of type Fn avoids the heap box. */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= Capacity &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args...);
        /** Move-construct into dst from src, then destroy src; null
         *  for a trivially copyable inline callable (copy the bytes). */
        void (*relocate)(void *dst, void *src) noexcept;
        /** Null for a trivially destructible inline callable. */
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    struct InlineOps
    {
        static R
        invoke(void *s, Args... args)
        {
            return (*static_cast<Fn *>(s))(std::forward<Args>(args)...);
        }
        static void
        relocate(void *dst, void *src) noexcept
        {
            Fn *f = static_cast<Fn *>(src);
            new (dst) Fn(std::move(*f));
            f->~Fn();
        }
        static void
        destroy(void *s) noexcept
        {
            static_cast<Fn *>(s)->~Fn();
        }
        // The common capture (a pointer and a few words) needs neither
        // call: moving and destroying it stay inline.
        static constexpr Ops ops = {
            &invoke,
            std::is_trivially_copyable_v<Fn> ? nullptr : &relocate,
            std::is_trivially_destructible_v<Fn> ? nullptr : &destroy};
    };

    template <typename Fn>
    struct BoxedOps
    {
        static Fn *&
        boxed(void *s)
        {
            return *static_cast<Fn **>(s);
        }
        static R
        invoke(void *s, Args... args)
        {
            return (*boxed(s))(std::forward<Args>(args)...);
        }
        static void
        relocate(void *dst, void *src) noexcept
        {
            new (dst) Fn *(boxed(src));
        }
        static void
        destroy(void *s) noexcept
        {
            delete boxed(s);
        }
        static constexpr Ops ops = {&invoke, &relocate, &destroy};
    };

    void *storage() { return buf; }

    void
    moveFrom(SmallFunction &other) noexcept
    {
        if (other.ops) {
            if (other.ops->relocate)
                other.ops->relocate(storage(), other.storage());
            else
                std::memcpy(buf, other.buf, bufBytes);
            ops = other.ops;
            other.ops = nullptr;
        }
    }

    void
    reset()
    {
        if (ops) {
            if (ops->destroy)
                ops->destroy(storage());
            ops = nullptr;
        }
    }

    static constexpr std::size_t bufBytes =
        Capacity >= sizeof(void *) ? Capacity : sizeof(void *);

    const Ops *ops = nullptr;
    alignas(std::max_align_t) unsigned char buf[bufBytes];
};

} // namespace firefly

#endif // FIREFLY_SIM_SMALL_FUNCTION_HH
