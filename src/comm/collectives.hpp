// Collective operations built on the tagged point-to-point layer.
//
// The paper's application needs only personalized all-to-all exchanges
// (which the pipeline hand-codes for each edge), but a message-passing
// substrate standing in for MPI should offer the standard collectives;
// they are used by tests and available to downstream users. All are
// linear-time root-rooted algorithms — adequate for an in-process runtime
// whose "network" is a memcpy.
//
// Every collective call consumes the caller-supplied `tag` for all of its
// internal messages; concurrent collectives must use distinct tags (as
// with MPI communicators, disambiguation is the caller's job).
#pragma once

#include <vector>

#include "comm/world.hpp"
#include "obs/trace.hpp"

namespace ppstap::comm {

/// The next (src, tag) message as a vector of T.
template <typename T>
std::vector<T> recv_vector(Comm& c, int src, int tag) {
  const Frame f = c.recv(src, tag);
  const auto v = f.as<T>();
  return {v.begin(), v.end()};
}

/// Root's `data` is copied to every rank; other ranks' `data` is replaced.
/// Each collective emits one obs span per participating rank carrying the
/// local payload bytes and the participant count.
template <typename T>
void broadcast(Comm& c, int root, std::vector<T>& data, int tag) {
  PPSTAP_REQUIRE(root >= 0 && root < c.size(), "invalid broadcast root");
  obs::ScopedSpan span("broadcast", "comm", c.rank(), obs::kCommTrack);
  span.set_items(c.size());
  if (c.rank() == root) {
    for (int r = 0; r < c.size(); ++r)
      if (r != root) c.send<T>(r, tag, data);
  } else {
    data = recv_vector<T>(c, root, tag);
  }
  span.set_bytes(static_cast<std::int64_t>(data.size() * sizeof(T)));
}

/// Root receives every rank's contribution (indexed by rank); non-roots
/// get an empty result.
template <typename T>
std::vector<std::vector<T>> gather(Comm& c, int root,
                                   std::span<const T> mine, int tag) {
  PPSTAP_REQUIRE(root >= 0 && root < c.size(), "invalid gather root");
  obs::ScopedSpan span("gather", "comm", c.rank(), obs::kCommTrack);
  span.set_items(c.size());
  span.set_bytes(static_cast<std::int64_t>(mine.size() * sizeof(T)));
  std::vector<std::vector<T>> out;
  if (c.rank() == root) {
    out.resize(static_cast<size_t>(c.size()));
    out[static_cast<size_t>(root)].assign(mine.begin(), mine.end());
    for (int r = 0; r < c.size(); ++r)
      if (r != root) out[static_cast<size_t>(r)] = recv_vector<T>(c, r, tag);
  } else {
    c.send<T>(root, tag, mine);
  }
  return out;
}

/// Every rank receives every rank's contribution (gather + broadcast of
/// the concatenation, flattened back into per-rank vectors).
template <typename T>
std::vector<std::vector<T>> all_gather(Comm& c, std::span<const T> mine,
                                       int tag) {
  obs::ScopedSpan span("all_gather", "comm", c.rank(), obs::kCommTrack);
  span.set_items(c.size());
  span.set_bytes(static_cast<std::int64_t>(mine.size() * sizeof(T)));
  auto gathered = gather(c, 0, mine, tag);
  // Serialize as (count, payload) per rank for the broadcast leg.
  std::vector<std::uint64_t> counts;
  std::vector<T> flat;
  if (c.rank() == 0) {
    for (const auto& v : gathered) {
      counts.push_back(v.size());
      flat.insert(flat.end(), v.begin(), v.end());
    }
  }
  broadcast(c, 0, counts, tag + 1);
  broadcast(c, 0, flat, tag + 2);
  std::vector<std::vector<T>> out(static_cast<size_t>(c.size()));
  size_t off = 0;
  for (size_t r = 0; r < counts.size(); ++r) {
    out[r].assign(flat.begin() + static_cast<std::ptrdiff_t>(off),
                  flat.begin() + static_cast<std::ptrdiff_t>(off + counts[r]));
    off += counts[r];
  }
  return out;
}

/// Personalized all-to-all: `send[r]` goes to rank r; the result's entry r
/// is what rank r sent here. `send` must have one entry per rank.
template <typename T>
std::vector<std::vector<T>> all_to_all(Comm& c,
                                       const std::vector<std::vector<T>>& send,
                                       int tag) {
  PPSTAP_REQUIRE(static_cast<int>(send.size()) == c.size(),
                 "all_to_all needs one send buffer per rank");
  obs::ScopedSpan span("all_to_all", "comm", c.rank(), obs::kCommTrack);
  span.set_items(c.size());
  std::int64_t send_bytes = 0;
  for (const auto& v : send)
    send_bytes += static_cast<std::int64_t>(v.size() * sizeof(T));
  span.set_bytes(send_bytes);
  for (int r = 0; r < c.size(); ++r)
    c.send<T>(r, tag, std::span<const T>(send[static_cast<size_t>(r)]));
  std::vector<std::vector<T>> out(static_cast<size_t>(c.size()));
  for (int r = 0; r < c.size(); ++r)
    out[static_cast<size_t>(r)] = recv_vector<T>(c, r, tag);
  return out;
}

/// Sum-reduction to every rank (for scalars and element-wise vectors).
template <typename T>
std::vector<T> all_reduce_sum(Comm& c, std::span<const T> mine, int tag) {
  obs::ScopedSpan span("all_reduce_sum", "comm", c.rank(), obs::kCommTrack);
  span.set_items(c.size());
  span.set_bytes(static_cast<std::int64_t>(mine.size() * sizeof(T)));
  auto all = all_gather(c, mine, tag);
  std::vector<T> out(mine.size(), T{});
  for (const auto& v : all) {
    PPSTAP_CHECK(v.size() == out.size(),
                 "all_reduce_sum requires equal lengths on every rank");
    for (size_t i = 0; i < v.size(); ++i) out[i] += v[i];
  }
  return out;
}

}  // namespace ppstap::comm
