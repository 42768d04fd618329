#ifndef ITSPQ_COMMON_SPAN_H_
#define ITSPQ_COMMON_SPAN_H_

// A read-only view of contiguous elements owned elsewhere (C++17 has
// no std::span). Flat tables hand out rows as Spans so callers never
// see, or copy, the pool a row lives in.

#include <cstddef>
#include <vector>

namespace itspq {

template <typename T>
class Span {
 public:
  Span() = default;
  Span(const T* data, size_t size) : data_(data), size_(size) {}
  Span(const std::vector<T>& v)  // NOLINT: implicit, like std::span
      : data_(v.data()), size_(v.size()) {}

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](size_t i) const { return data_[i]; }

  std::vector<T> ToVector() const { return std::vector<T>(begin(), end()); }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace itspq

#endif  // ITSPQ_COMMON_SPAN_H_
