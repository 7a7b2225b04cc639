#pragma once

/// \file sanitizers.h
/// Whether this build runs under AddressSanitizer or ThreadSanitizer.
/// Instrumentation slows each code path by a different factor, so a
/// wall-clock bound means nothing there: tests skip such bounds when
/// `kSanitized` is set and keep their deterministic assertions.

namespace mh::testutil {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif

}  // namespace mh::testutil
