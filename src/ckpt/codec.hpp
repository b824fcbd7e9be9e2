#pragma once
// Byte-wise binary codec for checkpoint snapshots.
//
// The snapshot format must be stable across builds and platforms, so the
// codec writes every scalar explicitly little-endian, one byte at a time,
// instead of memcpy-ing structs (struct layout and padding are not part of
// the format). Doubles are transported via their IEEE-754 bit pattern
// (std::bit_cast), which round-trips NaNs, infinities, -0.0 and denormals
// bit-exactly.
//
// The encoding is written once, in Encoder, and shared by two byte sinks:
// Writer appends the bytes to a buffer (snapshots, journal records) and
// Hasher folds them straight into an FNV-1a-64 state (result digests), so
// Hasher::value() == fnv1a64(Writer::bytes()) for any sequence of calls
// without ever materializing the bytes.
//
// The Reader is bounds-checked: any read past the end of the buffer throws
// prs::Error. Malformed input must never be undefined behaviour.

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace prs::ckpt {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// FNV-1a 64-bit hash; used as the snapshot payload checksum and by callers
/// that want a cheap deterministic digest of serialized state. `seed`
/// continues a previous hash, so hashing a string in pieces gives the same
/// value as hashing it whole.
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The little-endian wire encoding of every scalar kind, over a byte sink
/// `Sink` that provides put(const char* p, std::size_t n).
template <typename Sink>
class Encoder {
 public:
  void u8(std::uint8_t v) { le<1>(v); }
  void u32(std::uint32_t v) { le<4>(v); }
  void u64(std::uint64_t v) { le<8>(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// Length-prefixed byte string (may contain NULs).
  void str(std::string_view s) {
    u64(s.size());
    static_cast<Sink&>(*this).put(s.data(), s.size());
  }

 private:
  template <std::size_t N>
  void le(std::uint64_t v) {
    char b[N];
    for (std::size_t i = 0; i < N; ++i) b[i] = static_cast<char>(v >> (8 * i));
    static_cast<Sink&>(*this).put(b, N);
  }
};

/// Append-only little-endian byte writer.
class Writer : public Encoder<Writer> {
 public:
  const std::string& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  std::string take() { return std::move(buf_); }

 private:
  friend class Encoder<Writer>;
  void put(const char* p, std::size_t n) { buf_.append(p, n); }

  std::string buf_;
};

/// Streaming FNV-1a-64 over the bytes a Writer would hold: same calls, same
/// value as fnv1a64(writer.bytes()), constant memory.
class Hasher : public Encoder<Hasher> {
 public:
  std::uint64_t value() const { return h_; }

 private:
  friend class Encoder<Hasher>;
  void put(const char* p, std::size_t n) { h_ = fnv1a64({p, n}, h_); }

  std::uint64_t h_ = kFnvOffsetBasis;
};

/// Bounds-checked little-endian reader over a caller-owned buffer. The
/// buffer must outlive the Reader.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::uint32_t(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    pos_ += 8;
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::uint64_t n) const {
    PRS_REQUIRE(n <= data_.size() - pos_,
                "ckpt: truncated snapshot payload (need " + std::to_string(n) +
                    " bytes, have " + std::to_string(data_.size() - pos_) +
                    ")");
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace prs::ckpt
