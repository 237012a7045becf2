// Type-erased control-plane message payload, without std::any's costs.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <typeinfo>
#include <utility>

namespace bgpsim::net {

/// The payload slot of an Envelope. std::any heap-allocates every message
/// (libstdc++ keeps only pointer-sized trivially-copyable types inline),
/// which on the convergence hot loop means one malloc/free per BGP update
/// on the wire. A message is moved along the delivery chain and read once,
/// so copyability buys nothing: this type is move-only and stores any
/// payload up to kInlineSize bytes with a noexcept move constructor inline
/// in the envelope itself. bgp::UpdateMsg (24 bytes: a prefix and an
/// optional 8-byte AsPath handle) and dv::DvUpdate fit; oversized payloads
/// (e.g. the ~64-byte ls::LsaMsg) transparently fall back to one heap node.
/// A trivially copyable inline payload (bgp::UpdateMsg is one) moves and
/// dies without an indirect call: a memcpy of the buffer, no destructor.
class Payload {
 public:
  /// Sized to bgp::UpdateMsg, the only payload on the hot path.
  static constexpr std::size_t kInlineSize = 24;

  Payload() noexcept = default;

  /// Implicit like std::any's converting constructor, so call sites read
  /// transport.send(from, to, UpdateMsg::withdraw(p)).
  template <typename T>
    requires(!std::is_same_v<std::decay_t<T>, Payload>)
  Payload(T&& value) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<T>;
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<T>(value));
      vt_ = std::is_trivially_copyable_v<D> ? &trivial_vtable<D>
                                            : &inline_vtable<D>;
    } else {
      ::new (static_cast<void*>(buf_)) (D*){new D(std::forward<T>(value))};
      vt_ = &heap_vtable<D>;
    }
  }

  Payload(Payload&& other) noexcept { move_from(other); }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
  ~Payload() { reset(); }

  [[nodiscard]] bool has_value() const noexcept { return vt_ != nullptr; }

  /// The stored value. The caller names the concrete type — each network
  /// puts exactly one message type on the wire — and a debug build checks
  /// the claim; there is no std::any-style fallible cast.
  template <typename T>
  [[nodiscard]] const T& get() const noexcept {
    assert(vt_ != nullptr && *vt_->type == typeid(T));
    if constexpr (fits_inline<T>) {
      return *std::launder(reinterpret_cast<const T*>(buf_));
    } else {
      return **std::launder(reinterpret_cast<T* const*>(buf_));
    }
  }

  /// True when the stored value is a T. For the one wire where two message
  /// shapes coexist (bgp::UpdateMsg vs the multi-prefix bgp::UpdateBatch);
  /// everything else keeps using get<T>() directly.
  template <typename T>
  [[nodiscard]] bool is() const noexcept {
    return vt_ != nullptr && *vt_->type == typeid(T);
  }

 private:
  struct VTable {
    const std::type_info* type;
    /// Move-construct dst from src, then destroy src (heap payloads just
    /// steal the pointer). noexcept is what lets Envelope — and therefore
    /// the delivery closure holding one — stay inside sim::Callback's
    /// inline buffer. Both are null for a trivially copyable inline
    /// payload: its bytes are the value.
    void (*relocate)(std::byte* dst, std::byte* src) noexcept;
    void (*destroy)(std::byte* p) noexcept;
  };

  template <typename T>
  static constexpr bool fits_inline =
      sizeof(T) <= kInlineSize && alignof(T) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<T>;

  template <typename T>
  static constexpr VTable inline_vtable{
      &typeid(T),
      [](std::byte* dst, std::byte* src) noexcept {
        T* s = std::launder(reinterpret_cast<T*>(src));
        ::new (static_cast<void*>(dst)) T(std::move(*s));
        s->~T();
      },
      [](std::byte* p) noexcept {
        std::launder(reinterpret_cast<T*>(p))->~T();
      }};

  template <typename T>
  static constexpr VTable trivial_vtable{&typeid(T), nullptr, nullptr};

  template <typename T>
  static constexpr VTable heap_vtable{
      &typeid(T),
      [](std::byte* dst, std::byte* src) noexcept {
        ::new (static_cast<void*>(dst))
            (T*){*std::launder(reinterpret_cast<T**>(src))};
      },
      [](std::byte* p) noexcept {
        delete *std::launder(reinterpret_cast<T**>(p));
      }};

  void move_from(Payload& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      if (vt_->relocate != nullptr) {
        vt_->relocate(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineSize);
      }
      other.vt_ = nullptr;
    }
  }

  void reset() noexcept {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(void*) std::byte buf_[kInlineSize];
};

}  // namespace bgpsim::net
