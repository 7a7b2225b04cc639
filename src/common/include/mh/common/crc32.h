#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

/// \file crc32.h
/// CRC-32C (Castagnoli) — the checksum HDFS uses for block data integrity.
/// The writer computes one CRC per 512-byte chunk, the CRCs travel with the
/// block through the write pipeline, and DataNodes keep them in each
/// replica's .meta sidecar to re-verify on reads and block scans.
///
/// One code path per ISA: on x86-64 CPUs with SSE4.2 the `crc32`
/// instruction does the work; everywhere else a portable slice-by-8 table
/// loop does. The choice is made once, from CPUID, on the first call — not
/// in a static initializer, so callers running during static init are safe.
/// Both paths return identical results.

namespace mh {

/// Computes CRC-32C over `data`, continuing from `seed` (0 for a fresh CRC).
uint32_t crc32c(std::string_view data, uint32_t seed = 0);

/// Writes the CRC-32C of each consecutive `chunk`-byte slice of `data` to
/// out[0 .. ceil(size / chunk)); the last slice may be short, and empty
/// data writes nothing. The slices are independent, so the hardware path
/// keeps three of them in flight at once (the `crc32` instruction has a
/// 3-cycle latency and 1-cycle throughput) — about twice the single-stream
/// rate. `chunk` must be non-zero.
void crc32cChunks(std::string_view data, size_t chunk, uint32_t* out);

namespace detail {

/// The portable slice-by-8 implementation, whatever the CPU supports —
/// exposed so tests can check that both paths agree.
uint32_t crc32cPortable(std::string_view data, uint32_t seed = 0);

}  // namespace detail

}  // namespace mh
