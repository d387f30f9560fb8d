// Heap accounting for the memory tests: TB_TEST_HAS_MALLINFO2 is defined
// when glibc's mallinfo2 is available and sees every allocation. ASan and
// TSan replace the allocator, so mallinfo2 does not see the heap there and
// the tests that use it skip. TB_TEST_ASAN is defined under ASan, for the
// tests that expect its reports.
#pragma once

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define TB_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TB_TEST_ASAN 1
#endif
#endif
#if defined(TB_TEST_ASAN) || defined(__SANITIZE_THREAD__)
#define TB_TEST_REPLACED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TB_TEST_REPLACED_ALLOCATOR 1
#endif
#endif
#if defined(__GLIBC__) && !defined(TB_TEST_REPLACED_ALLOCATOR) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#define TB_TEST_HAS_MALLINFO2 1
#endif
