#include "pattern/embedding.h"

#include <algorithm>

namespace spidermine {

std::vector<VertexId> SortedImage(std::span<const VertexId> row) {
  std::vector<VertexId> image(row.begin(), row.end());
  std::sort(image.begin(), image.end());
  return image;
}

namespace {

// Galloping membership scan: walk the short list, locating each element in
// the long list by doubling probes from a moving lower bound. O(|short| *
// log(|long| / |short|)) — the win over the two-pointer merge when one list
// dwarfs the other (a hub pattern's image against a small one).
bool IntersectGalloping(const std::vector<VertexId>& small,
                        const std::vector<VertexId>& large) {
  size_t lo = 0;
  for (VertexId x : small) {
    // Doubling probe for the first large[hi] >= x.
    size_t step = 1;
    size_t hi = lo;
    while (hi < large.size() && large[hi] < x) {
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    if (hi >= large.size()) hi = large.size();
    // Binary search in (lo-1, hi]; lo already points at a value >= all
    // probes below x.
    const auto it = std::lower_bound(large.begin() + static_cast<ptrdiff_t>(lo),
                                     large.begin() + static_cast<ptrdiff_t>(hi),
                                     x);
    if (it != large.end() && *it == x) return true;
    lo = static_cast<size_t>(it - large.begin());
    if (lo >= large.size()) return false;
  }
  return false;
}

}  // namespace

bool ImagesIntersect(const std::vector<VertexId>& a,
                     const std::vector<VertexId>& b) {
  if (a.empty() || b.empty()) return false;
  // Early range rejection: sorted inputs whose ranges don't overlap cannot
  // share an element. This alone settles most pairs on stores whose anchors
  // cluster by vertex range.
  if (a.back() < b.front() || b.back() < a.front()) return false;
  const std::vector<VertexId>& small = a.size() <= b.size() ? a : b;
  const std::vector<VertexId>& large = a.size() <= b.size() ? b : a;
  // Skewed sizes: gallop the long list. Comparable sizes: two-pointer merge
  // (galloping's probe overhead loses when both advance in lockstep).
  if (large.size() / 8 >= small.size()) {
    return IntersectGalloping(small, large);
  }
  size_t i = 0;
  size_t j = 0;
  while (i < small.size() && j < large.size()) {
    if (small[i] == large[j]) return true;
    if (small[i] < large[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

uint64_t ImageFingerprint(std::span<const VertexId> embedding) {
  // Sum/xor of per-vertex mixes: order independent.
  uint64_t acc_sum = 0;
  uint64_t acc_xor = 0;
  for (VertexId v : embedding) {
    uint64_t x = static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    acc_sum += x;
    acc_xor ^= x;
  }
  return acc_sum ^ (acc_xor * 0xff51afd7ed558ccdULL);
}

void OccurrenceList::SortRows() {
  // Sort row numbers, then gather the rows once. Equal rows are identical,
  // so the order std::sort leaves them in cannot show.
  std::vector<size_t> order(rows_);
  for (size_t i = 0; i < rows_; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    const Row ra = (*this)[a];
    const Row rb = (*this)[b];
    return std::lexicographical_compare(ra.begin(), ra.end(), rb.begin(),
                                        rb.end());
  });
  std::vector<VertexId> sorted;
  sorted.reserve(data_.size());
  for (size_t i : order) {
    const Row row = (*this)[i];
    sorted.insert(sorted.end(), row.begin(), row.end());
  }
  data_ = std::move(sorted);
}

}  // namespace spidermine
